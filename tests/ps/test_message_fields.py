"""Every field of a wire message is read by some code in ``src/repro``.

A field nobody reads is built, copied and shipped on every message for
nothing.  The check is by name only: a field whose name another class's
attribute or method also has escapes it as soon as that one is read, so it
misses an unread ``op_id`` on one message while other messages' ``op_id`` is
read, or an unread ``home_node`` field while the policies call their
``home_node`` method.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

import repro
from repro.ps import messages


def attributes_read(root):
    names = set()
    for path in Path(root).rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_message_field_is_read_somewhere():
    read = attributes_read(Path(repro.__file__).parent)
    unread = [
        f"{cls.__name__}.{field.name}"
        for _name, cls in inspect.getmembers(messages, dataclasses.is_dataclass)
        if cls.__module__ == messages.__name__
        for field in dataclasses.fields(cls)
        if field.name not in read
    ]
    assert unread == []

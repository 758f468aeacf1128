"""Wire messages: every field is read somewhere, and ``replace`` copies them.

A field nobody reads is built, copied and shipped on every message for
nothing.  The check is by name only: a field whose name another class's
attribute or method also has escapes it as soon as that one is read, so it
misses an unread ``op_id`` on one message while other messages' ``op_id`` is
read, or an unread ``home_node`` field while the policies call their
``home_node`` method.

Messages and queued operations are plain ``__slots__`` classes, not
dataclasses, so no import generates their methods.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

import numpy as np

import repro
from repro.ps import messages
from repro.ps.base import QueuedOp


def attributes_read(root):
    names = set()
    for path in Path(root).rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def message_classes():
    return [
        cls
        for _name, cls in inspect.getmembers(messages, inspect.isclass)
        if cls.__module__ == messages.__name__
    ]


def test_every_message_field_is_read_somewhere():
    read = attributes_read(Path(repro.__file__).parent)
    classes = message_classes()
    assert len(classes) >= 19
    unread = [
        f"{cls.__name__}.{field}"
        for cls in classes
        for field in cls.__slots__
        if field not in read
    ]
    assert unread == []


def test_messages_and_queued_ops_are_not_dataclasses():
    records = message_classes() + [QueuedOp]
    assert [cls.__name__ for cls in records if dataclasses.is_dataclass(cls)] == []
    assert all(cls.__slots__ for cls in records)


def test_replace_copies_the_other_fields_and_leaves_the_original():
    keys, updates, reply_to = (3, 5), np.ones((2, 4)), ("van", 1)
    request = messages.PushRequest(7, keys, updates, reply_to, needs_ack=False, hops=1)
    forwarded = messages.replace(request, keys=(5,), hops=2)
    assert type(forwarded) is messages.PushRequest and forwarded is not request
    assert (forwarded.keys, forwarded.hops) == ((5,), 2)
    assert forwarded.op_id == 7 and forwarded.needs_ack is False
    assert forwarded.updates is updates and forwarded.reply_to is reply_to
    assert request.keys is keys and request.hops == 1 and request.updates is updates

"""Every public package export resolves.

A deletion that removes a class but leaves its name in a package's
``__all__`` breaks ``from package import *`` and any caller that follows the
documented export list; this test catches it at import time.
"""

import importlib
import pathlib
import pkgutil
import re

import repro


def test_every_name_in_all_resolves():
    packages = ["repro"] + [
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.") if info.ispkg
    ]
    assert "repro.simnet" in packages and "repro.data" in packages
    for name in packages:
        module = importlib.import_module(name)
        exports = getattr(module, "__all__", [])
        missing = [export for export in exports if not hasattr(module, export)]
        assert not missing, f"{name}.__all__ names missing attributes: {missing}"
        assert len(set(exports)) == len(exports), f"{name}.__all__ has duplicates"


def test_version_matches_the_project_metadata():
    root = pathlib.Path(__file__).resolve().parent.parent
    metadata = (root / "pyproject.toml").read_text()
    match = re.search(r'^\[project\][^\[]*?^version = "([^"]+)"', metadata, re.M | re.S)
    assert match is not None
    assert repro.__version__ == match.group(1)

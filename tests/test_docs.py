"""Documentation integrity checks.

CI runs these to make sure the README and the architecture documentation do
not rot: every local file or directory they reference must exist, every
module path they name must be importable from the repository layout, and the
system-name table in the README must match the experiment runner's registry.
The CI workflow and the verify skill are held to the same rule, so a deleted
script cannot leave a dead CI step or a dead recipe behind.
"""

import ast
import glob
import os
import re

import pytest

from repro.experiments import SYSTEMS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DOC_FILES = ("README.md", "PAPER.md", "docs/architecture.md")

#: Markdown links such as ``[text](examples/quickstart.py)``.
_LINK = re.compile(r"\[[^\]]+\]\(([^)#]+)(?:#[^)]*)?\)")
#: Inline-code references to repository paths such as ```src/repro/ps/replica.py```.
_CODE_PATH = re.compile(r"`([A-Za-z0-9_./-]+/[A-Za-z0-9_./-]+?\.(?:py|md))`")

#: Files that are commands, not prose: any ``*.py`` / ``*.json`` / ``*.md``
#: token in them is a path someone will run, read or upload.
RECIPE_FILES = (".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md")
_RECIPE_PATH = re.compile(r"(?<![\w./<>*-])[\w.*-]+(?:/[\w.*-]+)*\.(?:py|json|md)\b")


def _read(relpath):
    with open(os.path.join(ROOT, relpath), encoding="utf-8") as handle:
        return handle.read()


@pytest.mark.parametrize("doc", DOC_FILES)
def test_doc_exists(doc):
    assert os.path.isfile(os.path.join(ROOT, doc)), f"{doc} is missing"


@pytest.mark.parametrize("doc", DOC_FILES)
def test_markdown_links_resolve(doc):
    text = _read(doc)
    base = os.path.dirname(os.path.join(ROOT, doc))
    broken = []
    for target in _LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        if not os.path.exists(os.path.normpath(os.path.join(base, target))):
            broken.append(target)
    assert not broken, f"{doc} references missing paths: {broken}"


@pytest.mark.parametrize("doc", DOC_FILES)
def test_inline_code_paths_resolve(doc):
    # Docs shorten module paths once a package has been introduced, so a
    # reference may be relative to the repo root or to the package root.
    bases = (ROOT, os.path.join(ROOT, "src"), os.path.join(ROOT, "src", "repro"))
    text = _read(doc)
    broken = []
    for target in _CODE_PATH.findall(text):
        if not any(os.path.exists(os.path.join(base, target)) for base in bases):
            broken.append(target)
    assert not broken, f"{doc} names missing files: {broken}"


@pytest.mark.parametrize("recipe", RECIPE_FILES)
def test_recipe_paths_resolve(recipe):
    """Every path a CI step or a verify recipe names exists in the checkout —
    at the root or, as prose shortens them, below it; globs must match
    something — or is something a run writes: those are in ``.gitignore``."""
    ignored = [line.strip() for line in _read(".gitignore").splitlines() if line.strip()]
    broken = []
    for target in sorted(set(_RECIPE_PATH.findall(_read(recipe)))):
        written_by_a_run = any(
            target.startswith(entry) if entry.endswith("/") else target == entry
            for entry in ignored
        )
        if not written_by_a_run and not glob.glob(
            os.path.join(ROOT, "**", target), recursive=True
        ):
            broken.append(target)
    assert not broken, f"{recipe} names missing files: {broken}"


def test_readme_system_table_matches_runner_registry():
    """Every system name the runner knows must be documented, and vice versa."""
    text = _read("README.md")
    documented = set(re.findall(r"^\| `([a-z_0-9]+)`", text, flags=re.MULTILINE))
    assert documented == set(SYSTEMS), (
        f"README system table ({sorted(documented)}) out of sync with "
        f"repro.experiments.SYSTEMS ({sorted(SYSTEMS)})"
    )


def test_readme_documents_tier1_command():
    assert "python -m pytest -x -q" in _read("README.md")


def test_architecture_doc_names_real_modules():
    """Module paths mentioned in docs/architecture.md must exist on disk."""
    text = _read("docs/architecture.md")
    missing = []
    for match in re.findall(r"`(src/repro/[A-Za-z0-9_/]+?)/`", text):
        if not os.path.isdir(os.path.join(ROOT, match)):
            missing.append(match)
    assert not missing, f"architecture doc names missing packages: {missing}"


def test_examples_name_their_paper_anchor():
    """Each example's module docstring states which figure/table it reproduces."""
    examples_dir = os.path.join(ROOT, "examples")
    for name in sorted(os.listdir(examples_dir)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(examples_dir, name), encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        docstring = ast.get_docstring(tree) or ""
        assert re.search(r"(Figure|Table|Appendix|§)\s*\S+", docstring), (
            f"examples/{name} docstring does not name the paper "
            "figure/table/section it corresponds to"
        )

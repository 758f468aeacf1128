"""The file -> layer map covers the program, and the profile fold is exact."""

import cProfile
import importlib.util
import os
import pstats

import catalog
import layers

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(catalog.__file__)))
REPRO_ROOT = os.path.join(REPO_ROOT, "src", "repro")


def program_files():
    for directory, _dirs, files in os.walk(REPRO_ROOT):
        for name in files:
            if name.endswith(".py"):
                yield os.path.relpath(os.path.join(directory, name), REPRO_ROOT)


def test_every_program_file_has_a_layer():
    unmapped = [path for path in program_files() if catalog.layer_of(path) is None]
    assert not unmapped, f"add these files to catalog.LAYER_RULES: {unmapped}"


def test_no_rule_is_stale():
    files = list(program_files())
    for rule, layer in catalog.LAYER_RULES:
        assert layer in catalog.LAYERS
        assert any(catalog.layer_of(path) == layer and
                   (path == rule or path.startswith(rule)) for path in files), rule


def test_fold_charges_builtin_time_to_the_calling_layer(tmp_path):
    # A fake program: ml/ calls ps/storage.py, which spends its time in a builtin.
    root = tmp_path / "repro"
    (root / "ml").mkdir(parents=True)
    (root / "ps").mkdir()
    (root / "ps" / "storage.py").write_text(
        "def gather(n):\n    return sorted(range(n, 0, -1))\n"
    )
    (root / "ml" / "step.py").write_text(
        "def train(gather, rounds):\n"
        "    for _ in range(rounds):\n"
        "        gather(20000)\n"
    )

    def load(name, path):
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    storage = load("fake_storage", root / "ps" / "storage.py")
    step = load("fake_step", root / "ml" / "step.py")
    profiler = cProfile.Profile()
    profiler.runcall(lambda: step.train(storage.gather, 7))
    stats = pstats.Stats(profiler)
    folded = layers.fold(stats, str(root))

    assert set(folded) == set(catalog.LAYERS)
    total = sum(entry["self_s"] for entry in folded.values())
    assert abs(total - stats.total_tt) <= 1e-9 + 1e-6 * stats.total_tt
    # sorted() is a builtin called from ps/storage.py: its time is storage's.
    assert folded["ps.storage"]["self_s"] > 0.5 * total
    assert folded["ps.storage"]["calls"] == 7  # entered from ml seven times
    assert folded["ml"]["calls"] == 1  # entered once, from outside the program
    assert folded["simnet.kernel"] == {"self_s": 0.0, "calls": 0}

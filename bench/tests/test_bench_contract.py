"""BENCHMARK.json obeys the driver's contract and agrees with the catalogue."""

import json
import os
import re

import catalog

REPO_ROOT = os.path.dirname(catalog.__file__.rsplit(os.sep, 1)[0])
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def load():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        text = handle.read()
    assert len(text.encode()) <= 64 * 1024
    return json.loads(text)


def test_top_level_keys_and_command():
    doc = load()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["paths"] == ["bench"]
    assert all(PATH.match(path) for path in doc["paths"])
    command = doc["command"]
    assert 1 <= len(command) <= 32 and all(len(part) <= 200 for part in command)
    assert command == ["python3", "bench/run.py"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60


def test_run_fits_the_driver_budget():
    doc = load()
    runs = 4 + 22 * len(doc["workloads"])
    # Each run measures run_seconds and pays start-up, set-up and verification
    # per repetition: 12-13 s at run_seconds 8 on the 2-core reference host
    # (1.6x), up to 20 s for a traced run; 2.2x covers both.
    assert runs * doc["run_seconds"] * 2.2 <= 3420


def test_workloads_match_the_catalogue():
    doc = load()
    assert 2 <= len(doc["workloads"]) <= 8
    assert [w["name"] for w in doc["workloads"]] == [w.name for w in catalog.WORKLOADS]
    for entry, workload in zip(doc["workloads"], catalog.WORKLOADS):
        assert set(entry) == {"name", "why"}
        assert NAME.match(entry["name"])
        assert entry["why"] == workload.why
        assert 0 < len(entry["why"]) <= 200 and "\n" not in entry["why"]
        assert f"epoch_s clock: {workload.clock}" in entry["why"]
        assert workload.stresses and workload.bypasses
        assert set(workload.stresses) <= set(catalog.LAYERS)
        assert set(workload.bypasses) <= set(catalog.LAYERS)
        assert not set(workload.stresses) & set(workload.bypasses)


def test_every_layer_has_a_stressing_and_a_bypassing_workload():
    for layer in catalog.LAYERS:
        if layer in ("obs", "data", "other"):
            continue  # not on any timed region's path
        assert any(layer in w.stresses for w in catalog.WORKLOADS), layer
        assert any(layer in w.bypasses for w in catalog.WORKLOADS), layer


def test_end_to_end_metrics():
    doc = load()
    metrics = doc["end_to_end"]
    assert 1 <= len(metrics) <= 16
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in metrics] == list(catalog.END_TO_END)
    for metric in metrics:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in metrics if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in metrics)


def test_per_layer_metrics():
    doc = load()
    metrics = doc["per_layer"]
    assert 1 <= len(metrics) <= 128
    assert [(m["name"], m["unit"], m["better"]) for m in metrics] == list(catalog.PER_LAYER)
    for metric in metrics:
        assert set(metric) == {"name", "unit", "better"}
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    for layer in catalog.LAYERS:
        assert f"{layer}.self_s" in catalog.PER_LAYER_UNITS
        assert f"{layer}.calls" in catalog.PER_LAYER_UNITS


def test_names_are_used_once():
    doc = load()
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in doc[key]]
    assert len(names) == len(set(names))

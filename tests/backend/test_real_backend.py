"""End-to-end tests for the real (multiprocessing) execution backend.

The real backend runs the same workloads as the simulator on actual worker
processes with shared-memory parameter shards.  It cannot be bit-identical
run-for-run (the OS schedules the processes), so these tests assert the
statistical-equivalence contract documented in docs/architecture.md: final
MF loss within tolerance of the simulator (bit-equal in practice for
barrier-synchronized DSGD), exact equality of the deterministic
access/relocation counters, and a consistent ownership record (every key
resident at exactly the node its home node's location table names).
"""

import multiprocessing

import numpy as np
import pytest

from repro.backend import REAL_BACKEND_SYSTEMS, RealParameterServer
from repro.errors import ExperimentError
from repro.experiments.runner import MFScale, make_parameter_server, run_mf_experiment
from repro.ps.base import ClusterConfig, ParameterServerConfig
from repro.ps.partition import RangePartitioner

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the real backend requires the fork start method",
)

#: Tiny but non-trivial MF workload: 2 nodes, keys cross the partition
#: boundary, finishes in well under a second per run.
TINY = MFScale(num_rows=32, num_cols=8, num_entries=200, rank=4, compute_time_per_entry=0.0)

#: Counters that must mirror the simulator exactly (deterministic for
#: barrier-synchronized workloads); timing-dependent counters (queue depths,
#: cache hits, per-channel traffic) are deliberately absent.
MIRRORED_COUNTERS = (
    "localize_calls",
    "localized_keys",
    "relocations",
    "pulls_local",
    "pulls_remote",
    "pushes_local",
    "pushes_remote",
    "key_reads_local",
    "key_reads_remote",
    "key_writes_local",
    "key_writes_remote",
)


def _run(system, backend, **kwargs):
    kwargs.setdefault("num_nodes", 2)
    kwargs.setdefault("workers_per_node", 1)
    kwargs.setdefault("scale", TINY)
    kwargs.setdefault("epochs", 2)
    kwargs.setdefault("compute_loss", True)
    kwargs.setdefault("seed", 0)
    return run_mf_experiment(system, backend=backend, **kwargs)


#: Cluster shapes beyond the default 2 nodes x 1 worker: co-located workers
#: (one server process issuing for two clients) and a third node (home, owner
#: and requester all distinct).
SHAPES = ((2, 2), (3, 2))


@pytest.mark.parametrize(
    "system, num_nodes, workers_per_node",
    [pytest.param(system, 2, 1, id=system) for system in REAL_BACKEND_SYSTEMS]
    + [
        pytest.param(system, nodes, workers, id=f"{system}-{nodes}x{workers}")
        for system in REAL_BACKEND_SYSTEMS
        for nodes, workers in SHAPES
    ],
)
def test_mf_statistical_equivalence(system, num_nodes, workers_per_node):
    shape = dict(num_nodes=num_nodes, workers_per_node=workers_per_node)
    sim = _run(system, "sim", **shape)
    real = _run(system, "real", **shape)
    assert real.backend == "real" and sim.backend == "sim"
    assert real.final_loss == pytest.approx(sim.final_loss, rel=1e-9)
    for counter in MIRRORED_COUNTERS:
        assert getattr(real.metrics, counter) == getattr(sim.metrics, counter), counter


def test_client_api_and_ownership_consistency():
    cluster = ClusterConfig(num_nodes=2, workers_per_node=1, seed=0)
    ps_config = ParameterServerConfig(num_keys=16, value_length=4)
    with make_parameter_server("lapse", cluster, ps_config, backend="real") as ps:
        assert isinstance(ps, RealParameterServer)

        def worker(client, worker_id):
            # Worker 0 relocates two keys homed on node 1 and writes them.
            if worker_id == 0:
                yield from client.localize([12, 13])
                yield from client.push([12, 13], np.ones((2, 4)))
            yield from client.barrier()
            values = yield from client.pull([12])
            return float(values[0, 0])

        results = ps.run_workers(worker)
        assert results == [1.0, 1.0]
        assert ps.current_owner(12) == 0 and ps.current_owner(13) == 0
        assert ps.metrics().relocations == 2
        # Ownership record is consistent: every key is resident at exactly
        # the node its home's location table names, and nowhere else.
        for key in range(16):
            owner = ps.current_owner(key)
            for node in range(2):
                assert (key in ps.states[node].storage) == (node == owner)
        np.testing.assert_array_equal(ps.parameter(12), np.ones(4))


def test_run_workers_merges_all_worker_metrics():
    cluster = ClusterConfig(num_nodes=2, workers_per_node=2, seed=0)
    ps_config = ParameterServerConfig(num_keys=8, value_length=2)
    with make_parameter_server("classic", cluster, ps_config, backend="real") as ps:

        def worker(client, worker_id):
            yield from client.push([worker_id], np.full((1, 2), 1.0))
            values = yield from client.pull([worker_id])
            return float(values[0, 0])

        results = ps.run_workers(worker)
        assert results == [1.0] * 4
        metrics = ps.metrics()
        assert metrics.pulls_local + metrics.pulls_remote == 4
        assert metrics.pushes_local + metrics.pushes_remote == 4


def test_default_backend_is_sim():
    result = _run("classic", "sim")
    assert result.backend == "sim"
    cluster = ClusterConfig(num_nodes=2, workers_per_node=1, seed=0)
    ps = make_parameter_server(
        "classic", cluster, ParameterServerConfig(num_keys=8, value_length=2)
    )
    assert not isinstance(ps, RealParameterServer)


def test_rejected_configurations():
    cluster = ClusterConfig(num_nodes=2, workers_per_node=1, seed=0)
    ps_config = ParameterServerConfig(num_keys=8, value_length=2)
    with pytest.raises(ExperimentError, match="not available on the real backend"):
        make_parameter_server("replica", cluster, ps_config, backend="real")
    with pytest.raises(ExperimentError, match="custom partitioners"):
        make_parameter_server(
            "lapse", cluster, ps_config,
            partitioner=RangePartitioner(8, 2), backend="real",
        )
    with pytest.raises(ExperimentError, match="durability"):
        make_parameter_server(
            "lapse", cluster, ps_config, durability=object(), backend="real"
        )
    with pytest.raises(ExperimentError, match="unknown backend"):
        make_parameter_server("lapse", cluster, ps_config, backend="threads")
    with pytest.raises(ExperimentError, match="low-level baseline"):
        _run("lowlevel", "real")

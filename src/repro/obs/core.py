"""Span buffers and the tracer that installs them.

Design contract (enforced by ``tests/obs/``): tracing is **pure
observation**.  The hooks only read already-computed simulated times and
append to Python lists — they schedule no kernel events, send no messages,
and draw from no RNG — so a traced run is bit-identical to an untraced one
(simulated times, message/byte counts, metric counters, final model
parameters).  When no tracer is installed every hook is a single
attribute load plus an ``is not None`` check.

Layout: one :class:`NodeTrace` buffer per node, stored at
``NodeState.trace``, and one :class:`_OpRecorder` per worker client, stored
at ``WorkerClient._trace``.  Both ride the parallel engine's existing shard
result payloads (``repro.simnet.parallel`` ships ``vars(state)`` and
``vars(client)`` back to the driver), so ``jobs=N`` runs merge their span
buffers without any extra pipe protocol — the driver's post-epoch states
simply *contain* the shard-recorded spans.  Always read buffers through
``ps.states[n].trace`` (they are replaced on merge, never mutated in the
parent).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.errors import ObservabilityError
from repro.obs.config import TraceConfig
from repro.ps.metrics import PSMetrics, RunningStat

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ps.base import NodeState, ParameterServer
    from repro.ps.futures import OperationHandle


class NodeTrace:
    """Per-node span buffers, histograms, heatmap, and counter samples.

    A plain picklable object: the parallel engine ships it across process
    boundaries inside the shard result payload, and the pickle memo keeps the
    node state's reference and the worker recorders' references pointing at
    one shared object.
    """

    def __init__(self, node: int, config: TraceConfig) -> None:
        self.node = node
        #: Span lists: ``(op_type, worker_id, issued_at, completed_at, nkeys)``.
        self.ops: List[Tuple[str, int, float, float, int]] = []
        #: ``(message_type, arrived_at, started_at, handled_at)``.
        self.server: List[Tuple[str, float, float, float]] = []
        #: ``(payload_type, src_node, dst_node, sent_at, delivered_at, bytes)``.
        self.net: List[Tuple[str, int, int, float, float, int]] = []
        #: ``(key, requested_at, removed_at, installed_at)``.
        self.reloc: List[Tuple[int, float, float, float]] = []
        #: ``(time, name, args)`` instant markers.
        self.markers: List[Tuple[float, str, Dict[str, Any]]] = []
        #: ``(time, values)`` counter samples, aligned with ``counter_names``.
        self.samples: List[Tuple[float, Tuple[float, ...]]] = []
        self.counter_names: Tuple[str, ...] = config.sampled_counters
        #: Per-op-type latency histograms (bounded; never dropped).
        self.hist: Dict[str, RunningStat] = {}
        #: Per-key access heatmap: key -> {time bucket -> access count}.
        self.heat: Dict[int, Dict[int, int]] = {}
        self.max_spans = config.max_spans_per_node
        self.dropped = 0
        self.sample_interval = config.metrics_interval
        self.next_sample = 0.0 if config.metrics_interval is not None else None
        self.heat_interval = config.heatmap_interval
        #: Per-kind record switches (``TraceConfig.server`` / ``relocation``);
        #: op and network recording are gated at their install sites instead.
        self.server_on = config.server
        self.reloc_on = config.relocation

    # ------------------------------------------------------------- recording
    def op(
        self, op_type: str, worker: int, issued: float, completed: float, nkeys: int
    ) -> None:
        """Record one client-operation span (also feeds the histogram)."""
        hist = self.hist.get(op_type)
        if hist is None:
            hist = self.hist[op_type] = RunningStat()
        hist.record(completed - issued)
        if len(self.ops) < self.max_spans:
            self.ops.append((op_type, worker, issued, completed, nkeys))
        else:
            self.dropped += 1

    def heat_key(self, key: int, at: float) -> None:
        """Count one access to ``key`` in the heatmap bucket of ``at``."""
        interval = self.heat_interval
        if interval is None:
            return
        bucket = int(at / interval)
        per_key = self.heat.get(key)
        if per_key is None:
            per_key = self.heat[key] = {}
        per_key[bucket] = per_key.get(bucket, 0) + 1

    def server_span(
        self, name: str, arrived: float, started: float, handled: float,
        metrics: PSMetrics,
    ) -> None:
        """Record one server-side message-handling span; piggyback sampling.

        The counter time series rides the server hook (every node handles a
        steady message stream), so sampling needs no kernel events of its own.
        """
        if self.server_on:
            if len(self.server) < self.max_spans:
                self.server.append((name, arrived, started, handled))
            else:
                self.dropped += 1
        next_sample = self.next_sample
        if next_sample is not None and arrived >= next_sample:
            self.sample(arrived, metrics)

    def net_span(
        self, name: str, src: int, dst: int, sent: float, delivered: float,
        size_bytes: int,
    ) -> None:
        """Record one wire-message span (send instant to delivery instant)."""
        if len(self.net) < self.max_spans:
            self.net.append((name, src, dst, sent, delivered, size_bytes))
        else:
            self.dropped += 1

    def relocation(
        self, key: int, requested: float, removed: float, installed: float
    ) -> None:
        """Record one relocated key (request to install, with the blocking window)."""
        if not self.reloc_on:
            return
        hist = self.hist.get("relocation")
        if hist is None:
            hist = self.hist["relocation"] = RunningStat()
        hist.record(installed - requested)
        if len(self.reloc) < self.max_spans:
            self.reloc.append((key, requested, removed, installed))
        else:
            self.dropped += 1

    def marker(self, at: float, name: str, args: Dict[str, Any]) -> None:
        """Record an instant marker (membership events, rebalance completions)."""
        self.markers.append((at, name, args))

    def sample(self, at: float, metrics: PSMetrics) -> None:
        """Take one counter sample and advance the sampling deadline."""
        values = tuple(float(getattr(metrics, name)) for name in self.counter_names)
        self.samples.append((at, values))
        interval = self.sample_interval
        # Skip ahead past quiet periods instead of back-filling them.
        periods = int(at / interval) + 1
        self.next_sample = periods * interval

    # ------------------------------------------------------------- merging
    def reset(self) -> None:
        """Clear every buffer.

        The real backend's forked worker and server processes inherit the
        parent's buffer contents; they reset at the start of every run so each
        child reports only its own deltas back to the parent.
        """
        self.ops = []
        self.server = []
        self.net = []
        self.reloc = []
        self.markers = []
        self.samples = []
        self.hist = {}
        self.heat = {}
        self.dropped = 0

    def merge_from(self, other: "NodeTrace") -> None:
        """Fold another buffer's records into this one.

        Used by the real backend's parent process to absorb the deltas each
        child process reports on exit (the simulated parallel engine ships
        whole buffers inside its shard payloads instead and never calls this).
        """
        self.ops.extend(other.ops)
        self.server.extend(other.server)
        self.net.extend(other.net)
        self.reloc.extend(other.reloc)
        self.markers.extend(other.markers)
        self.samples.extend(other.samples)
        self.dropped += other.dropped
        for op_type, hist in other.hist.items():
            mine = self.hist.get(op_type)
            self.hist[op_type] = hist if mine is None else mine.merge(hist)
        for key, per_key in other.heat.items():
            mine_heat = self.heat.get(key)
            if mine_heat is None:
                self.heat[key] = dict(per_key)
            else:
                for bucket, count in per_key.items():
                    mine_heat[bucket] = mine_heat.get(bucket, 0) + count

    # ------------------------------------------------------------ summaries
    def span_count(self) -> int:
        """Total spans held in this buffer (markers and samples included)."""
        return (
            len(self.ops)
            + len(self.server)
            + len(self.net)
            + len(self.reloc)
            + len(self.markers)
            + len(self.samples)
        )


class _OpRecorder:
    """Per-worker span recorder attached at ``WorkerClient._trace``.

    One pre-bound completion callback per recorder: ``issue`` registers it on
    the operation's completion event (the event carries the handle, so the
    callback needs no captured per-op state — same trick as the outstanding-
    operation cleanup in :class:`~repro.ps.base.NodeState`).
    """

    def __init__(self, trace: NodeTrace, worker_id: int, fused_on: bool) -> None:
        self.trace = trace
        self.worker_id = worker_id
        self.fused_on = fused_on

    def issue(self, handle: "OperationHandle") -> None:
        """Observe an issued operation: heatmap now, span on completion."""
        trace = self.trace
        if trace.heat_interval is not None:
            issued = handle.issued_at
            for key in handle.keys:
                trace.heat_key(key, issued)
        handle.completion_event.callbacks.append(self._complete)

    def _complete(self, event: Any) -> None:
        handle = event._value
        completed = handle.completed_at
        if completed is None:  # failed before any completion timestamp
            return
        self.trace.op(
            handle.op_type, self.worker_id, handle.issued_at, completed,
            len(handle.keys),
        )

    def span(
        self, op_type: str, keys: Any, issued: float, completed: float
    ) -> None:
        """Record an operation that ran without a handle (a verified fused
        step): the heatmap and span :meth:`issue` / ``_complete`` would give."""
        trace = self.trace
        if trace.heat_interval is not None:
            for key in keys:
                trace.heat_key(key, issued)
        trace.op(op_type, self.worker_id, issued, completed, len(keys))

    def fused(self, kind: str, key: int, started: float, completed: float) -> None:
        """Record one fused local step (replayed at the fused runner's clock)."""
        trace = self.trace
        trace.op(f"fused_{kind}", self.worker_id, started, completed, 1)
        if trace.heat_interval is not None:
            trace.heat_key(key, started)

    def local_read(self, key: int, at: float) -> None:
        """Heatmap-only observation for handle-free local reads."""
        self.trace.heat_key(key, at)


class Tracer:
    """Installs trace buffers on a parameter server and exports the result.

    Created by ``ParameterServer.__init__`` when a
    :class:`~repro.obs.TraceConfig` with ``enabled=True`` is passed (the
    ``durability=`` pattern); reachable as ``ps.tracer``.
    """

    #: ``"sim"`` (timestamps are simulated seconds) or ``"wall"`` (the real
    #: backend records wall-clock seconds since server creation).
    time_domain = "sim"

    def __init__(
        self, ps: "ParameterServer", config: TraceConfig, time_domain: str = "sim"
    ) -> None:
        probe = PSMetrics()
        for name in config.sampled_counters:
            value = getattr(probe, name, None)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ObservabilityError(
                    f"sampled_counters entry {name!r} is not a scalar "
                    "PSMetrics counter"
                )
        self.ps = ps
        self.config = config
        self.time_domain = time_domain
        #: Why the run took the paths it took — fused and declined steps by
        #: reason, visit conflicts, the parallel fallback — set by the
        #: experiment runner when the run completes, else None.
        self.decisions: Optional[Dict[str, Any]] = None
        for state in ps.states:
            state.trace = NodeTrace(state.node_id, config)
        if config.network and time_domain == "sim":
            ps.network._tracer = self

    # ----------------------------------------------------------- hook points
    def recorder(self, state: "NodeState", worker_id: int) -> Optional[_OpRecorder]:
        """Recorder for one worker client (None when op tracing is off)."""
        if not self.config.ops:
            return None
        return _OpRecorder(state.trace, worker_id, self.config.fused)

    def net_span(
        self, src_node: int, dst_node: int, payload: Any, sent: float,
        delivered: float, size_bytes: int,
    ) -> None:
        """Called by :meth:`repro.simnet.Network.send` after the delivery
        instant is computed (observation only — the send proceeds unchanged)."""
        states = self.ps.states
        if src_node >= len(states):
            return
        trace = states[src_node].trace
        if trace is not None:
            trace.net_span(
                type(payload).__name__, src_node, dst_node, sent, delivered,
                size_bytes,
            )

    def marker(self, node: int, at: float, name: str, **args: Any) -> None:
        """Record an instant marker on ``node``'s timeline."""
        if not self.config.markers:
            return
        states = self.ps.states
        if node >= len(states):
            return
        trace = states[node].trace
        if trace is not None:
            trace.marker(at, name, args)

    # ------------------------------------------------------------- reporting
    def node_traces(self) -> List[NodeTrace]:
        """The live per-node buffers (re-read every call: the parallel engine
        replaces them when it merges shard results)."""
        return [state.trace for state in self.ps.states if state.trace is not None]

    def op_histograms(self) -> Dict[str, RunningStat]:
        """Cluster-wide per-op-type latency histograms (merged across nodes)."""
        merged: Dict[str, RunningStat] = {}
        for trace in self.node_traces():
            for op_type, hist in trace.hist.items():
                existing = merged.get(op_type)
                merged[op_type] = hist if existing is None else existing.merge(hist)
        return merged

    def span_count(self) -> int:
        """Total spans recorded across all nodes."""
        return sum(trace.span_count() for trace in self.node_traces())

    def summary(self) -> Dict[str, Any]:
        """Compact tracer summary (the ``summary`` block of an exported trace)."""
        ops = {
            op_type: {
                "count": hist.count,
                "mean": hist.mean,
                "p50": hist.p50,
                "p90": hist.percentile(0.90),
                "p99": hist.p99,
                "max": hist.maximum if hist.count else 0.0,
            }
            for op_type, hist in sorted(self.op_histograms().items())
        }
        return {
            "time_domain": self.time_domain,
            "span_count": self.span_count(),
            "dropped": sum(trace.dropped for trace in self.node_traces()),
            "op_latency": ops,
        }

    def to_dict(self) -> Dict[str, Any]:
        """Full Chrome trace-event document (see :mod:`repro.obs.export`)."""
        from repro.obs.export import build_trace

        return build_trace(self)

    def export(self, path: str) -> Dict[str, Any]:
        """Write the Chrome trace-event JSON to ``path`` and return it.

        Load the file in Perfetto (https://ui.perfetto.dev) or
        ``chrome://tracing`` to browse the timeline.
        """
        document = self.to_dict()
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(document, stream)
        return document

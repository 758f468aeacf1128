"""Chrome trace-event / Perfetto JSON export and schema validation.

The exported document follows the Chrome trace-event format (JSON object
form): a ``traceEvents`` list of event dicts plus ``displayTimeUnit``.
Open it in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``:

* one *process* (``pid``) per simulated node,
* one *thread* (``tid``) per worker for client-operation spans, plus three
  synthetic lanes per node: the server thread, the network (outgoing wire
  messages), and relocations,
* ``ph: "X"`` complete events for spans (``ts``/``dur`` in microseconds),
* ``ph: "i"`` instant events for membership/rebalance markers,
* ``ph: "C"`` counter events for the sampled ``PSMetrics`` time series,
* ``ph: "M"`` metadata events naming processes and threads.

Everything the viewer does not consume — latency histograms, the hot-key
heatmap, the tracer summary — lives under the custom top-level ``"repro"``
key, which the format explicitly allows and viewers ignore.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Dict, List

from repro.errors import ObservabilityError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.core import Tracer

#: Synthetic per-node lanes (Chrome ``tid`` values chosen far above worker
#: ids so they never collide with real workers).
SERVER_TID = 10_000
NETWORK_TID = 10_001
RELOCATION_TID = 10_002

#: Event phases the validator accepts (the subset the exporter emits).
_KNOWN_PHASES = ("X", "i", "C", "M")


def _us(seconds: float) -> float:
    """Seconds (simulated or wall) to trace-event microseconds."""
    return seconds * 1e6


def build_trace(tracer: "Tracer") -> Dict[str, Any]:
    """Build the full trace-event document from a tracer's live buffers."""
    ps = tracer.ps
    events: List[Dict[str, Any]] = []
    heatmap: Dict[str, Dict[str, Any]] = {}
    samples: Dict[str, List[Dict[str, Any]]] = {}
    system = getattr(ps, "name", type(ps).__name__)
    for trace in tracer.node_traces():
        node = trace.node
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": node,
                "tid": 0,
                "args": {"name": f"node {node} ({system})"},
            }
        )
        for lane_tid, lane_name in (
            (SERVER_TID, "server thread"),
            (NETWORK_TID, "network (outgoing)"),
            (RELOCATION_TID, "relocations"),
        ):
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": node,
                    "tid": lane_tid,
                    "args": {"name": lane_name},
                }
            )
        named_workers = set()
        for op_type, worker, issued, completed, nkeys in trace.ops:
            if worker not in named_workers:
                named_workers.add(worker)
                events.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": node,
                        "tid": worker,
                        "args": {"name": f"worker {worker}"},
                    }
                )
            events.append(
                {
                    "name": op_type,
                    "cat": "op",
                    "ph": "X",
                    "pid": node,
                    "tid": worker,
                    "ts": _us(issued),
                    "dur": _us(completed - issued),
                    "args": {"keys": nkeys},
                }
            )
        for name, arrived, started, handled in trace.server:
            events.append(
                {
                    "name": name,
                    "cat": "server",
                    "ph": "X",
                    "pid": node,
                    "tid": SERVER_TID,
                    "ts": _us(started),
                    "dur": _us(handled - started),
                    "args": {"arrived": _us(arrived), "wait": _us(started - arrived)},
                }
            )
        for name, src, dst, sent, delivered, size_bytes in trace.net:
            events.append(
                {
                    "name": name,
                    "cat": "net",
                    "ph": "X",
                    "pid": node,
                    "tid": NETWORK_TID,
                    "ts": _us(sent),
                    "dur": _us(delivered - sent),
                    "args": {"src": src, "dst": dst, "bytes": size_bytes},
                }
            )
        for key, requested, removed, installed in trace.reloc:
            events.append(
                {
                    "name": f"relocate key {key}",
                    "cat": "relocation",
                    "ph": "X",
                    "pid": node,
                    "tid": RELOCATION_TID,
                    "ts": _us(requested),
                    "dur": _us(installed - requested),
                    "args": {
                        "key": key,
                        "removed_at": _us(removed),
                        "blocked": _us(installed - removed),
                    },
                }
            )
        for at, name, args in trace.markers:
            events.append(
                {
                    "name": name,
                    "cat": "cluster",
                    "ph": "i",
                    "s": "g",
                    "pid": node,
                    "tid": 0,
                    "ts": _us(at),
                    "args": dict(args),
                }
            )
        node_samples = []
        for at, values in trace.samples:
            args = dict(zip(trace.counter_names, values))
            events.append(
                {
                    "name": "PSMetrics",
                    "cat": "telemetry",
                    "ph": "C",
                    "pid": node,
                    "tid": 0,
                    "ts": _us(at),
                    "args": args,
                }
            )
            node_samples.append({"t": at, "counters": args})
        if node_samples:
            samples[str(node)] = node_samples
        for key, per_key in trace.heat.items():
            # The same key can be accessed from several nodes; accumulate.
            entry = heatmap.setdefault(str(key), {"accesses": 0, "buckets": {}})
            entry["accesses"] += sum(per_key.values())
            buckets = entry["buckets"]
            for bucket, count in per_key.items():
                label = str(bucket)
                buckets[label] = buckets.get(label, 0) + count
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "repro": {
            "system": system,
            "time_domain": tracer.time_domain,
            "heatmap_interval": tracer.config.heatmap_interval,
            "metrics_interval": tracer.config.metrics_interval,
            "summary": tracer.summary(),
            "heatmap": heatmap,
            "samples": samples,
            "decisions": tracer.decisions,
        },
    }


def validate_trace(document: Any) -> None:
    """Validate ``document`` against the Chrome trace-event schema subset.

    Raises :class:`~repro.errors.ObservabilityError` naming the first
    malformed event.  Used by the tests, the ``repro.obs.report`` CLI
    (``--validate``), and the CI ``obs-smoke`` job.
    """
    if not isinstance(document, dict):
        raise ObservabilityError("trace document must be a JSON object")
    events = document.get("traceEvents")
    if not isinstance(events, list):
        raise ObservabilityError("trace document is missing the traceEvents list")
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            raise ObservabilityError(f"{where} is not an object")
        phase = event.get("ph")
        if phase not in _KNOWN_PHASES:
            raise ObservabilityError(f"{where} has unknown phase {phase!r}")
        if not isinstance(event.get("name"), str):
            raise ObservabilityError(f"{where} is missing a string name")
        for field in ("pid", "tid"):
            if not isinstance(event.get(field), int):
                raise ObservabilityError(f"{where} is missing integer {field!r}")
        if phase == "M":
            continue  # metadata events carry no timestamp
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise ObservabilityError(f"{where} has invalid ts {ts!r}")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ObservabilityError(f"{where} has invalid dur {dur!r}")
        if phase == "i" and event.get("s") not in ("g", "p", "t"):
            raise ObservabilityError(f"{where} instant event has invalid scope")
        if phase == "C" and not isinstance(event.get("args"), dict):
            raise ObservabilityError(f"{where} counter event has no args")


def load_trace(path: str) -> Dict[str, Any]:
    """Read a trace file written by :meth:`Tracer.export`."""
    try:
        with open(path, "r", encoding="utf-8") as stream:
            return json.load(stream)
    except (OSError, json.JSONDecodeError) as exc:
        raise ObservabilityError(f"cannot read trace file {path!r}: {exc}") from exc

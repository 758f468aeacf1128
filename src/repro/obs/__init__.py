"""Tracing and telemetry: per-op spans, latency histograms, Perfetto export.

Opt-in, zero-overhead-when-off observability for every execution mode:

* pass ``trace=TraceConfig()`` to
  :func:`~repro.experiments.runner.make_parameter_server` (or any
  ``ParameterServer`` constructor) to install a :class:`Tracer`,
* every client operation, server-handled message, wire message, and
  relocation records a span with its simulated-time breakdown; membership
  events appear as instant markers; ``PSMetrics`` counters are sampled into
  per-node time series and per-key accesses into a hot-key heatmap,
* ``ps.tracer.export("trace.json")`` writes a Chrome trace-event / Perfetto
  timeline; ``python -m repro.obs.report trace.json`` summarizes it,
* traced runs are **bit-identical** to untraced runs (the hooks observe
  already-computed times; no kernel events, no RNG draws), on the
  sequential engine, the ``jobs=N`` parallel engine (shard buffers merge
  over the existing result payloads), and — with wall-clock spans — the
  real multiprocessing backend.

See docs/architecture.md, "Observability".
"""

from typing import TYPE_CHECKING

from repro import lazy_exports
from repro.obs.config import DEFAULT_SAMPLED_COUNTERS, TraceConfig

if TYPE_CHECKING:
    from repro.obs.core import NodeTrace, Tracer
    from repro.obs.export import build_trace, load_trace, validate_trace

#: The tracer and its exporter load where a traced server is built.
__getattr__ = lazy_exports(__name__, {
    "repro.obs.core": ("NodeTrace", "Tracer"),
    "repro.obs.export": ("build_trace", "load_trace", "validate_trace"),
})

__all__ = [
    "DEFAULT_SAMPLED_COUNTERS",
    "NodeTrace",
    "TraceConfig",
    "Tracer",
    "build_trace",
    "load_trace",
    "validate_trace",
]

"""Fold a cProfile run into per-layer self time and cross-layer call counts.

The program is profiled from the benchmark's own process; nothing in ``src/``
changes.  Every profiled function belongs to exactly one layer:

* a function defined under ``src/repro/`` belongs to its file's layer
  (``catalog.layer_of``; an unmapped file lands in ``other``);
* any other function — a C builtin, numpy, the standard library, the
  benchmark itself — has its self time split over its callers in proportion
  to the time spent on each calling edge, followed up the call graph until a
  ``repro`` function is reached.  numpy time thus lands in the layer that
  asked for it.  Time with no ``repro`` caller at all lands in ``other``.

So the layers' ``self_s`` sum to the profile's total self time by construction.
``calls`` counts calls that enter a layer from outside it: from another layer
or from non-``repro`` code (a resumed generator counts as a call).
"""

from __future__ import annotations

import os
import pstats
from collections import defaultdict
from typing import Dict, Optional, Tuple

from catalog import LAYERS, layer_of

Func = Tuple[str, int, str]


def fold(stats: pstats.Stats, repro_root: str) -> Dict[str, Dict[str, float]]:
    """Return ``{layer: {"self_s": seconds, "calls": count}}`` for every layer."""
    table = stats.stats  # func -> (cc, nc, tt, ct, callers)
    root = os.path.realpath(repro_root) + os.sep
    own_layer: Dict[Func, Optional[str]] = {}
    for func in table:
        filename = func[0]
        if filename.startswith(("~", "<")):
            own_layer[func] = None
            continue
        real = os.path.realpath(filename)
        if real.startswith(root):
            own_layer[func] = layer_of(real[len(root):]) or "other"
        else:
            own_layer[func] = None

    memo: Dict[Func, Dict[str, float]] = {}

    def shares(func: Func, seen: frozenset) -> Dict[str, float]:
        """Layer -> fraction of ``func``'s self time charged to it."""
        layer = own_layer.get(func)
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        callers = table[func][4] if func in table else {}
        callers = {c: e for c, e in callers.items() if c not in seen and c != func}
        weights = {c: _edge(e)[2] for c, e in callers.items()}
        if sum(weights.values()) <= 0.0:
            weights = {c: float(_edge(e)[0]) for c, e in callers.items()}
        total = sum(weights.values())
        if total <= 0.0:
            return {"other": 1.0}
        result: Dict[str, float] = defaultdict(float)
        inner = seen | {func}
        for caller, weight in weights.items():
            for layer_name, fraction in shares(caller, inner).items():
                result[layer_name] += fraction * weight / total
        # Inside a cycle of non-repro functions the back edge is skipped, so
        # the memoised split of a cycle member is approximate; such cycles
        # carry no measurable time in the timed regions.
        memo[func] = dict(result)
        return memo[func]

    folded = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for func, (_cc, _nc, tt, _ct, callers) in table.items():
        for layer, fraction in shares(func, frozenset()).items():
            folded[layer]["self_s"] += tt * fraction
        layer = own_layer[func]
        if layer is None:
            continue
        for caller, edge in callers.items():
            if own_layer.get(caller) != layer:
                folded[layer]["calls"] += _edge(edge)[0]
    return folded


def _edge(edge) -> Tuple[int, int, float, float]:
    """A callers-dict value as (nc, cc, tt, ct); ``profile`` stores bare counts."""
    if isinstance(edge, tuple):
        return edge
    return (edge, edge, 0.0, 0.0)

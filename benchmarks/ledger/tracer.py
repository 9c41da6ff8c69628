"""Layer attribution of one call, from outside the program.

A ``cProfile`` run gives every function's self time and, per
caller/callee pair, how much of the callee's self time was spent under
that caller.  Functions of the package under test belong to the layer
that owns their module path; everything else (builtins, numpy, the
standard library) has no layer of its own, so its self time goes to
the layer of whoever called it, followed up through non-package
callers.  ``calls`` counts only calls that enter a layer from another
one.  cProfile charges per call and not for native work, so shares of
call-heavy layers are inflated; counts are exact and repeat.
"""

from __future__ import annotations

import cProfile
import time
from collections import defaultdict
from pathlib import Path

#: First matching prefix of the module path (relative to the package
#: root) wins, so the specific entries come before their package.
LAYER_RULES = (
    ("des/", "des"),
    ("net/tcp/", "net.tcp"),
    ("net/", "net"),
    ("topology/", "topology"),
    ("traffic/", "traffic"),
    ("core/features.py", "core.features"),
    ("core/macro.py", "core.macro"),
    ("core/cluster_model.py", "core.cluster_model"),
    ("core/batcher.py", "core.batcher"),
    ("core/", "core.hybrid"),
    ("nn/batch.py", "nn.batch"),
    ("nn/", "nn.infer"),
    ("flowsim/", "flowsim"),
    ("cascade/", "cascade"),
    ("validate/", "validate"),
    ("pdes/", "pdes"),
    ("obs/", "obs"),
    ("analysis/", "analysis"),
)
OTHER = "other"
LAYERS = tuple(dict.fromkeys(layer for _, layer in LAYER_RULES)) + (OTHER,)
_MIX_PASSES = 8


def layer_of(filename: str, package_root: Path):
    """The layer owning ``filename``, or ``None`` outside the package."""
    try:
        relative = Path(filename).relative_to(package_root).as_posix()
    except ValueError:
        return None
    for prefix, layer in LAYER_RULES:
        if relative.startswith(prefix):
            return layer
    return OTHER


def trace_call(fn, package_root: Path):
    """Run ``fn()`` under the tracer.

    Returns ``(result, traced_wall_s, layers)`` where ``layers`` maps
    every layer to ``{"self_s", "calls"}``.
    """
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    wall = time.perf_counter() - start
    return result, wall, attribute(profiler.getstats(), package_root)


def _inherited_mix(own_layer: dict, callers: dict) -> dict:
    """Layer -> share of each code object's activity.

    Code with a layer of its own is all that layer.  Code without one
    inherits its callers' mix, weighted as ``callers`` says; chains of
    such callers (numpy's Python wrappers, json, pathlib) are short, so
    a few in-place passes settle them, and what a cycle leaves unsettled
    is "other".
    """
    mix = {
        code: {layer: 1.0} for code, layer in own_layer.items() if layer is not None
    }
    unlayered = [code for code, layer in own_layer.items() if layer is None]
    for _ in range(_MIX_PASSES):
        for code in unlayered:
            edges = callers.get(code)
            if not edges:
                mix[code] = {OTHER: 1.0}
                continue
            total = sum(weight for _, weight in edges)
            blended: dict = defaultdict(float)
            for caller, weight in edges:
                for name, share in mix.get(caller, {}).items():
                    blended[name] += share * weight / total
            mix[code] = blended
    for code in unlayered:
        mix[code][OTHER] = mix[code].get(OTHER, 0.0) + max(
            0.0, 1.0 - sum(mix[code].values())
        )
    return mix


def attribute(stats, package_root: Path) -> dict:
    """Fold ``cProfile.Profile.getstats()`` entries into layers."""
    own_layer: dict = {}
    for entry in stats:
        code = entry.code
        own_layer[code] = (
            None if isinstance(code, str) else layer_of(code.co_filename, package_root)
        )

    # Who calls the code that has no layer: by time spent under each
    # caller (where its self time goes) and by number of calls (which
    # layer a call made through it comes from — counts repeat exactly,
    # times do not, so call attribution must not depend on them).
    by_time = defaultdict(list)
    by_count = defaultdict(list)
    for entry in stats:
        for call in entry.calls or ():
            if own_layer.get(call.code) is None:
                by_time[call.code].append((entry.code, max(call.totaltime, 1e-9)))
                by_count[call.code].append((entry.code, call.callcount))
    time_mix = _inherited_mix(own_layer, by_time)
    count_mix = _inherited_mix(own_layer, by_count)

    layers = {name: {"self_s": 0.0, "calls": 0} for name in LAYERS}
    for entry in stats:
        caller_mix = count_mix[entry.code]
        caller_layer = max(sorted(caller_mix), key=caller_mix.get)
        for call in entry.calls or ():
            callee_layer = own_layer[call.code]
            if callee_layer is None:
                for name, share in time_mix[entry.code].items():
                    layers[name]["self_s"] += share * call.inlinetime
            elif callee_layer != caller_layer:
                layers[callee_layer]["calls"] += call.callcount
        if own_layer[entry.code] is not None:
            layers[own_layer[entry.code]]["self_s"] += entry.inlinetime
        elif not by_time.get(entry.code):
            # A root outside the package (the harness frame itself).
            layers[OTHER]["self_s"] += entry.inlinetime
    return layers

"""Per-layer attribution of a ``cProfile`` run of the simulator.

Self time is grouped by the ``repro`` module whose code ran. Time spent
in builtins, numpy or the standard library is charged to the ``repro``
module that called it, following the caller data ``pstats`` keeps, so
the layer totals sum to the profile's total. Exact call counts at each
layer's public entry points come from the same profile, so the program
under test carries no hooks.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, Optional, Tuple

#: Module prefix -> layer, longest prefix wins. Every ``repro``
#: subpackage is listed, so a module that matches none of them is a
#: module this table has not classified yet (see ``layer_of``). The
#: event loop is every ``repro.des`` module outside the solver (core,
#: process, sched, resources, monitor, rng).
LAYER_MAP: Dict[str, str] = {
    "repro.des": "des.loop",
    "repro.des.bandwidth": "des.bandwidth",
    "repro.des.kernels": "des.bandwidth",
    "repro.des.partition": "des.bandwidth",
    "repro.des.shards": "des.bandwidth",
    "repro.mpi": "mpi.comm",
    "repro.mpi.mpiio": "mpi.mpiio",
    "repro.core": "core",
    "repro.storage": "storage",
    "repro.strategies": "strategies",
    "repro.cluster": "cluster",
    "repro.faults": "faults",
    "repro.experiments": "experiments",
    "repro": "other",
    "repro.analysis": "other",
    "repro.apps": "other",
    "repro.cache": "other",
    "repro.errors": "other",
    "repro.formats": "other",
    "repro.observe": "other",
    "repro.runtime": "other",
    "repro.service": "other",
    "repro.tools": "other",
    "repro.units": "other",
    "repro._version": "other",
}

#: The layers whose ``<layer>.self_s`` the traced run reports, in order.
LAYERS: Tuple[str, ...] = (
    "des.loop", "des.bandwidth", "mpi.comm", "mpi.mpiio", "core",
    "storage", "strategies", "cluster", "faults", "experiments", "other",
)

#: Counted entry points: metric -> (module, function name). Only plain
#: functions are counted; cProfile counts every resumption of a
#: generator as a call.
ENTRY_POINTS: Dict[str, Tuple[str, str]] = {
    "des.events": ("repro.des.core", "step"),
    "des.bandwidth.flows": ("repro.des.bandwidth", "transfer"),
    "mpi.collectives": ("repro.mpi.comm", "_join"),
    "mpi.aggregator_lookups": ("repro.mpi.mpiio", "aggregator_of"),
    "experiments.run_spec_calls": ("repro.experiments.specs", "run_spec"),
}

Func = Tuple[str, int, str]


def layer_of(module: str) -> Optional[str]:
    """The layer of a ``repro`` module, or ``None`` if unclassified."""
    parts = module.split(".")
    # The bare package name matches only itself, so a new subpackage is
    # reported as unclassified instead of silently landing in "other".
    prefixes = [".".join(parts[:cut])
                for cut in range(len(parts), 1, -1)] or [module]
    for prefix in prefixes:
        layer = LAYER_MAP.get(prefix)
        if layer is not None:
            return layer
    return None


class ModuleNamer:
    """Maps profiled file names to ``repro`` module names."""

    def __init__(self, package_dir: str) -> None:
        self.root = os.path.dirname(os.path.abspath(package_dir)) + os.sep
        self.package = os.path.basename(os.path.abspath(package_dir))

    def __call__(self, filename: str) -> Optional[str]:
        path = os.path.abspath(filename) if filename not in ("~", "") \
            else filename
        if not path.startswith(self.root + self.package + os.sep):
            return None
        rel = os.path.splitext(path[len(self.root):])[0]
        parts = rel.split(os.sep)
        if parts[-1] == "__init__":
            parts.pop()
        return ".".join(parts)


def attribute(stats: Dict[Func, tuple], namer: ModuleNamer,
              bench_dir: str = ""
              ) -> Tuple[Dict[str, float], Dict[str, Optional[str]]]:
    """``(layer -> self seconds, repro module -> layer)`` of a profile.

    ``stats`` is ``pstats.Stats(...).stats``. A non-``repro`` function's
    self time is split over its callers in proportion to the time each
    caller's calls took, recursively until a ``repro`` frame is reached;
    time with no ``repro`` frame above it goes to ``other``, and so does
    everything the benchmark's own code (files under ``bench_dir``)
    runs, even when a ``repro`` frame called it.
    """
    bench_prefix = os.path.abspath(bench_dir) + os.sep if bench_dir else None
    modules: Dict[str, Optional[str]] = {}
    shares: Dict[Func, Dict[str, float]] = {}

    def own_layer(func: Func) -> Optional[str]:
        if bench_prefix and func[0].startswith(bench_prefix):
            return "other"
        module = namer(func[0])
        if module is None:
            return None
        layer = modules[module] = layer_of(module)
        return layer or "other"

    def distribution(func: Func, visiting: set) -> Dict[str, float]:
        layer = own_layer(func)
        if layer is not None:
            return {layer: 1.0}
        cached = shares.get(func)
        if cached is not None:
            return cached
        entry = stats.get(func)
        callers = entry[4] if entry is not None else {}
        if func in visiting or not callers:
            return {"other": 1.0}
        visiting.add(func)
        weights = {caller: data[2] for caller, data in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            weights = {caller: float(data[1])
                       for caller, data in callers.items()}
            total = sum(weights.values())
        dist: Dict[str, float] = {}
        for caller, weight in weights.items():
            if total <= 0 or weight <= 0:
                continue
            for layer, share in distribution(caller, visiting).items():
                dist[layer] = dist.get(layer, 0.0) + share * weight / total
        visiting.discard(func)
        if not dist:
            dist = {"other": 1.0}
        shares[func] = dist
        return dist

    self_s = {layer: 0.0 for layer in LAYERS}
    for func, entry in stats.items():
        tt = entry[2]
        for layer, share in distribution(func, set()).items():
            self_s[layer] = self_s.get(layer, 0.0) + tt * share
    return self_s, modules


def entry_counts(stats: Dict[Func, tuple], namer: ModuleNamer
                 ) -> Dict[str, int]:
    """Call counts at :data:`ENTRY_POINTS`, plus ``mpi.alltoallv_calls``
    (per-rank ``alltoallv`` entries: the ``_join`` calls made from it)."""
    wanted = {target: metric for metric, target in ENTRY_POINTS.items()}
    counts = {metric: 0 for metric in ENTRY_POINTS}
    counts["mpi.alltoallv_calls"] = 0
    for func, entry in stats.items():
        metric = wanted.get((namer(func[0]), func[2]))
        if metric is None:
            continue
        counts[metric] += int(entry[1])
        if metric == "mpi.collectives":
            counts["mpi.alltoallv_calls"] += sum(
                int(data[1]) for caller, data in entry[4].items()
                if namer(caller[0]) == "repro.mpi.comm"
                and caller[2] == "alltoallv")
    return counts


def unassigned(modules: Iterable[str]) -> list:
    """The ``repro`` modules :data:`LAYER_MAP` does not classify."""
    return sorted(m for m in modules if layer_of(m) is None)

"""Trace aggregation: per-actor / per-target tables and overlap analysis.

Turns a recorded :class:`~repro.observe.tracer.Tracer` into the aligned
text tables of :mod:`repro.experiments.report`, and provides the interval
arithmetic the figure drivers use to *structurally* validate the paper's
overlap claim: Damaris' ``persist`` spans must overlap later
``write_phase``/compute activity instead of extending the phases.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.observe.tracer import Span, Tracer

__all__ = [
    "aggregate_spans",
    "backend_table",
    "per_actor_table",
    "per_category_table",
    "per_target_table",
    "merge_intervals",
    "overlap_seconds",
    "sched_table",
    "solver_table",
    "render_summary",
]


def aggregate_spans(spans: Iterable[Span],
                    key=lambda span: span.actor,
                    key_column: str = "actor") -> List[Dict[str, object]]:
    """Group spans by ``key`` and summarise count/time/bytes per group."""
    groups: Dict[object, List[Span]] = {}
    for span in spans:
        groups.setdefault(key(span), []).append(span)
    rows = []
    for group_key in sorted(groups, key=str):
        members = groups[group_key]
        durations = [span.duration for span in members]
        nbytes = sum(int(span.attrs.get("nbytes", 0)) for span in members)
        rows.append({
            key_column: group_key,
            "count": len(members),
            "total_s": sum(durations),
            "mean_s": sum(durations) / len(durations),
            "max_s": max(durations),
            "bytes": nbytes,
        })
    return rows


def per_actor_table(tracer: Tracer,
                    category: Optional[str] = None) -> List[Dict[str, object]]:
    """One row per actor (optionally restricted to one span category)."""
    spans = tracer.spans if category is None else tracer.spans_in(category)
    return aggregate_spans(spans)


def per_category_table(tracer: Tracer) -> List[Dict[str, object]]:
    return aggregate_spans(tracer.spans, key=lambda span: span.category,
                           key_column="category")


def per_target_table(tracer: Tracer) -> List[Dict[str, object]]:
    """One row per storage target, from ``net_transfer`` span attrs."""
    spans = [span for span in tracer.spans_in("net_transfer")
             if "target" in span.attrs]
    return aggregate_spans(spans, key=lambda span: span.attrs["target"],
                           key_column="target")


def solver_table(tracer: Tracer) -> List[Dict[str, object]]:
    """One row per bandwidth network with its final solver counters.

    The :class:`~repro.des.bandwidth.FlowNetwork` records a ``solver``
    event after every recomputation whose attributes are *cumulative*
    counters, so the last event per actor is the run total: how many
    recomputations hit the full water-filling solve, how many were
    component-partitioned, and how many were absorbed by the
    incremental-arrival fast path.
    """
    last: Dict[str, object] = {}
    for event in tracer.events_in("solver"):
        last[event.actor] = event
    rows = []
    for actor in sorted(last):
        event = last[actor]
        attrs = event.attrs
        rows.append({
            "actor": actor,
            "solver": attrs.get("solver", "?"),
            # Traces recorded before the compiled kernel existed carry
            # no kernel attrs; report them as the only mode that existed.
            "kernel": attrs.get("kernel", "python"),
            "recomputes": int(attrs.get("recomputes", 0)),
            "full": int(attrs.get("full_solves", 0)),
            "component": int(attrs.get("component_solves", 0)),
            "fast": int(attrs.get("fast_grants", 0)),
            "flows_solved": int(attrs.get("flows_solved", 0)),
            "kernel_solves": int(attrs.get("kernel_solves", 0)),
            "live_comps": int(attrs.get("live", 0)),
        })
    return rows


def sched_table(tracer: Tracer) -> List[Dict[str, object]]:
    """One row per simulator with its final scheduler counters.

    The :class:`~repro.des.core.Simulator` records a ``sched`` event on
    every calendar-queue window move/resize whose attributes are the
    scheduler's *cumulative* stats, so the last event per actor shows
    how the bucket window behaved over the whole run (a heap-scheduler
    run records no ``sched`` events and yields no rows).
    """
    last: Dict[str, object] = {}
    for event in tracer.events_in("sched"):
        last[event.actor] = event
    rows = []
    for actor in sorted(last):
        event = last[actor]
        attrs = event.attrs
        rows.append({
            "actor": actor,
            "scheduler": attrs.get("scheduler", "?"),
            "resizes": int(attrs.get("resizes", 0)),
            "migrations": int(attrs.get("migrations", 0)),
            "buckets": int(attrs.get("buckets", 0)),
            "width_s": float(attrs.get("width", 0.0)),
            "max_pending": int(attrs.get("max_pending", 0)),
        })
    return rows


def backend_table(tracer: Tracer) -> List[Dict[str, object]]:
    """One row per sweep backend with its summed dispatch counters.

    :func:`~repro.experiments.executor.run_sweep` records one
    ``backend`` event per traced sweep whose attributes are that
    sweep's totals; unlike solver/sched counters these are per-event
    (not cumulative per actor), so rows *sum* over a backend's events —
    ``requeued``/``speculative``/``discarded`` expose what the remote
    coordinator's crash recovery and straggler re-dispatch did.
    """
    groups: Dict[str, List[object]] = {}
    for event in tracer.events_in("backend"):
        groups.setdefault(event.actor, []).append(event)
    rows = []
    for actor in sorted(groups):
        events = groups[actor]
        row: Dict[str, object] = {"backend": actor,
                                  "sweeps": len(events)}
        for name in ("total", "hits", "computed", "dispatched",
                     "completed", "requeued", "speculative", "discarded",
                     "rejected", "crashed"):
            row[name] = int(sum(
                float(event.attrs.get(name, 0)) for event in events))
        workers = max(
            (int(float(event.attrs.get("workers", 0))) for event in events),
            default=0)
        row["workers"] = workers
        rows.append(row)
    return rows


# ---------------------------------------------------------------------- #
# interval arithmetic
# ---------------------------------------------------------------------- #
def merge_intervals(
        intervals: Iterable[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Union of intervals as a sorted, disjoint list."""
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def overlap_seconds(spans_a: Sequence[Span],
                    spans_b: Sequence[Span]) -> float:
    """Total time covered by both span sets (union ∩ union).

    ``overlap_seconds(persist_spans, write_phase_spans) > 0`` is the
    structural form of the paper's claim that the dedicated core writes
    *while* the compute cores run their next phase.
    """
    union_a = merge_intervals((s.start, s.end) for s in spans_a)
    union_b = merge_intervals((s.start, s.end) for s in spans_b)
    total = 0.0
    i = j = 0
    while i < len(union_a) and j < len(union_b):
        start = max(union_a[i][0], union_b[j][0])
        end = min(union_a[i][1], union_b[j][1])
        if end > start:
            total += end - start
        if union_a[i][1] <= union_b[j][1]:
            i += 1
        else:
            j += 1
    return total


# ---------------------------------------------------------------------- #
# rendering
# ---------------------------------------------------------------------- #
def render_summary(tracer: Tracer) -> str:
    """The tracereport CLI's default view: category, actor and target
    tables plus the persist-vs-write_phase overlap line."""
    # Imported here: experiments.harness itself imports repro.observe.
    from repro.experiments.report import render_table

    parts = ["== trace summary ==", ""]
    by_category = per_category_table(tracer)
    parts.append(render_table(by_category))
    by_actor = per_actor_table(tracer)
    if by_actor:
        parts += ["", "-- by actor --", render_table(by_actor)]
    by_target = per_target_table(tracer)
    if by_target:
        parts += ["", "-- by storage target --", render_table(by_target)]
    by_solver = solver_table(tracer)
    if by_solver:
        parts += ["", "-- bandwidth solver --", render_table(by_solver)]
    by_sched = sched_table(tracer)
    if by_sched:
        parts += ["", "-- event scheduler --", render_table(by_sched)]
    by_backend = backend_table(tracer)
    if by_backend:
        parts += ["", "-- sweep backend --", render_table(by_backend)]
    persists = tracer.spans_in("persist")
    phases = tracer.spans_in("write_phase")
    if persists and phases:
        overlap = overlap_seconds(persists, phases)
        busy = sum(s.duration for s in persists)
        parts += ["", f"persist/write_phase overlap: {overlap:.4g} s "
                      f"({100 * overlap / busy:.1f} % of persist time)"
                  if busy > 0 else ""]
    nerrors = len(tracer.events_in("error"))
    if nerrors:
        parts += ["", f"WARNING: {nerrors} error event(s) in trace"]
    return "\n".join(parts)

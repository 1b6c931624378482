"""Randomized cross-validation: compiled kernel and calendar scheduler.

Two bit-identity contracts are asserted here, on seeded storm workloads
(not on single solves only — whole simulations, so any divergence
compounds into visibly different completion times):

- ``REPRO_KERNEL=compiled`` reproduces the numpy water-filling solve
  **bit for bit** (``ndarray.tobytes()`` equality), at
  ``fairness_slack=0`` and at positive slack, under both solvers;
- ``REPRO_SCHEDULER=calendar`` pops events in exactly the same
  ``(time, priority, seq)`` order as the binary heap, so full runs are
  bit-identical.

Plus direct unit tests of the C kernel against its executable Python
specification (:func:`repro.des.kernels.maxmin_class_solve_py`) and of
the calendar queue's ordering/resize behaviour, including the
empty-network and single-flow edge cases the interfaces degenerate on.
"""

import heapq
import math
import random

import numpy as np
import pytest

from repro.des import FlowNetwork, Simulator
from repro.des.kernels import (compiled_kernel, kernel_status,
                               maxmin_class_solve_py, resolve_kernel)
from repro.des.sched import (CalendarScheduler, HeapScheduler,
                             make_scheduler, resolve_scheduler)
from repro.errors import SimulationError

needs_compiled = pytest.mark.skipif(kernel_status() == "unavailable",
                                    reason="no C compiler")


# --------------------------------------------------------------------- #
# workload builders
# --------------------------------------------------------------------- #
def run_storm(kernel, scheduler, seed, slack=0.0, nflows=400,
              solver="component"):
    """A seeded storm with mixed topology: shared NICs, staggered
    targets, a fusing fabric link, rate-capped and capless flows, and
    staggered arrivals — returns per-flow end times and run invariants
    for bit-comparison."""
    rng = random.Random(seed)
    sim = Simulator(scheduler=scheduler)
    net = FlowNetwork(sim, fairness_slack=slack, kernel=kernel,
                      solver=solver)
    nics = [net.add_capacity(f"nic{i}", 1e9 * (1 + 0.01 * i))
            for i in range(12)]
    tgts = [net.add_capacity(f"tgt{j}", 4.5e7 * (1 + 0.003 * j))
            for j in range(8)]
    fabric = net.add_capacity("fabric", 1e15)
    flows = []

    def start_batch(count):
        for _ in range(count):
            i = rng.randrange(12)
            j = rng.randrange(8)
            if rng.random() < 0.08:
                res, cap = [], 1e6 * (1 + rng.randrange(9))  # capless
            else:
                res = [nics[i], tgts[j]] + ([fabric]
                                            if rng.random() < 0.7 else [])
                cap = (math.inf if rng.random() < 0.5
                       else 1e6 * (1 + rng.randrange(50)))
            flows.append(net.transfer(res, 1e6 * (1 + rng.randrange(20)),
                                      rate_cap=cap))

    start_batch(nflows // 2)
    for wave in range(4):  # staggered arrival waves mid-flight
        sim.call_later(0.5 + 0.7 * wave,
                       lambda n=nflows // 8: start_batch(n))
    sim.run()
    ends = np.array([flow.end_time for flow in flows])
    return {
        "ends": ends.tobytes(),
        "bytes": net.total_bytes_moved,
        "now": sim.now,
        "completed": net.completed_flows,
    }


def random_solve_instance(rng):
    """A raw (flow_class, class_res, class_cap, capacities) instance in
    the interned-table form ``FlowNetwork`` hands to the kernel,
    including unused class ids (interned but absent from this solve)."""
    nres = int(rng.integers(1, 7))
    capacities = rng.uniform(5.0, 2000.0, size=nres)
    nclasses_total = int(rng.integers(1, 12))
    kmax = 4
    class_res = np.full((nclasses_total, kmax), -1, dtype=np.int64)
    class_cap = np.empty(nclasses_total, dtype=np.float64)
    for cid in range(nclasses_total):
        width = int(rng.integers(0, min(3, nres) + 1))  # 0 = capless
        if width:
            picks = np.sort(rng.choice(nres, size=width, replace=False))
            class_res[cid, :width] = picks
        class_cap[cid] = (np.inf if rng.random() < 0.4
                          else float(rng.uniform(1.0, 800.0)))
    nflows = int(rng.integers(0, 60))
    flow_class = np.sort(
        rng.integers(0, nclasses_total, size=nflows).astype(np.int64))
    return flow_class, class_res, class_cap, capacities


# --------------------------------------------------------------------- #
# compiled kernel ≡ numpy solve (whole simulations)
# --------------------------------------------------------------------- #
@needs_compiled
# Tier 1 keeps two storm seeds as the always-on bit-identity gate; the
# remaining seeds ride in the slow tier (`-m slow`).
@pytest.mark.parametrize("slack", [0.0, 0.08])
@pytest.mark.parametrize("solver", ["component", "global"])
@pytest.mark.parametrize("seed", [0, 1] + [
    pytest.param(s, marks=pytest.mark.slow) for s in range(2, 6)])
def test_compiled_kernel_bit_identical_storms(seed, solver, slack):
    expected = run_storm("python", "heap", seed, slack=slack, solver=solver)
    got = run_storm("compiled", "heap", seed, slack=slack, solver=solver)
    assert got == expected


@needs_compiled
def test_compiled_kernel_empty_network():
    sim = Simulator()
    net = FlowNetwork(sim, kernel="compiled")
    sim.run()
    assert sim.now == 0.0 and net.completed_flows == 0


@needs_compiled
def test_compiled_kernel_single_flow():
    expected = run_storm("python", "heap", seed=1, nflows=1)
    got = run_storm("compiled", "heap", seed=1, nflows=1)
    assert got == expected


@needs_compiled
@pytest.mark.parametrize("seed", list(range(5)) + [
    pytest.param(s, marks=pytest.mark.slow) for s in range(5, 25)])
def test_c_kernel_matches_python_spec(seed):
    """The C kernel vs its interpreted specification, bit for bit, on
    raw interned-table instances (empty flow sets, capless classes and
    infinite caps included)."""
    rng = np.random.default_rng(5000 + seed)
    flow_class, class_res, class_cap, capacities = \
        random_solve_instance(rng)
    slack = float(rng.choice([0.0, 0.05]))
    rate_spec = np.empty(flow_class.size, dtype=np.float64)
    used_spec = np.empty(capacities.size, dtype=np.float64)
    maxmin_class_solve_py(flow_class, class_res, class_cap, capacities,
                          slack, rate_spec, used_spec)
    rate_c, used_c = compiled_kernel().solve(
        flow_class, class_res, class_cap, capacities, slack)
    assert rate_c.tobytes() == rate_spec.tobytes()
    assert used_c.tobytes() == used_spec.tobytes()


@needs_compiled
def test_kernel_solves_counted():
    sim = Simulator()
    net = FlowNetwork(sim, kernel="compiled")
    link = net.add_capacity("link", 100.0)
    net.transfer([link], 100.0)
    net.transfer([link], 100.0)
    sim.run()
    stats = net.solver_stats
    assert stats["kernel"] == "compiled"
    assert stats["kernel_solves"] >= 1
    assert stats["kernel_solves"] == stats["full_solves"] \
        + stats["component_solves"]


def test_python_kernel_reports_no_kernel_solves():
    sim = Simulator()
    net = FlowNetwork(sim, kernel="python")
    link = net.add_capacity("link", 100.0)
    net.transfer([link], 100.0)
    sim.run()
    stats = net.solver_stats
    assert stats["kernel"] == "python"
    assert stats["kernel_solves"] == 0


def test_resolve_kernel_env_and_validation(monkeypatch):
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    assert resolve_kernel(None) == "python"
    monkeypatch.setenv("REPRO_KERNEL", "compiled")
    assert resolve_kernel(None) == "compiled"
    assert resolve_kernel("python") == "python"  # argument beats env
    with pytest.raises(SimulationError):
        resolve_kernel("fortran")


# --------------------------------------------------------------------- #
# calendar scheduler ≡ heap scheduler
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("slack", [0.0, 0.08])
@pytest.mark.parametrize("seed", [0, 1] + [
    pytest.param(s, marks=pytest.mark.slow) for s in range(2, 6)])
def test_calendar_scheduler_bit_identical_storms(seed, slack):
    expected = run_storm("python", "heap", seed, slack=slack)
    got = run_storm("python", "calendar", seed, slack=slack)
    assert got == expected


def test_calendar_scheduler_empty_and_single_event():
    sim = Simulator(scheduler="calendar")
    sim.run()  # empty queue: no-op
    assert sim.now == 0.0
    sim.timeout(1e6)  # lands in the far-heap, needs a window advance
    sim.run()
    assert sim.now == 1e6


@pytest.mark.parametrize("scheduler", ["heap", "calendar"])
def test_scheduler_pop_order_randomized(scheduler):
    """Direct queue-level check: pushes with random times/priorities in
    random order pop in exact (time, priority, seq) order."""
    rng = random.Random(42)
    sched = make_scheduler(scheduler)
    items = []
    seq = 0
    watermark = 0.0  # pushes must stay at/after the last popped time
    for _ in range(2000):
        t = watermark + rng.choice(
            [rng.uniform(0, 1e-6), rng.uniform(0, 100.0),
             rng.uniform(1e6, 1e9), math.inf])
        prio = rng.randrange(3)
        seq += 1
        items.append((t, prio, seq))
        sched.push(t, prio, seq, f"payload{seq}")
        # Interleave pops so the window advances mid-stream.
        if rng.random() < 0.3 and len(sched):
            items.remove(min(items))
            watermark = sched.pop()[0]
    popped = []
    while len(sched):
        t, prio, seq, _entry = sched.pop()
        popped.append((t, prio, seq))
    assert popped == sorted(items)
    with pytest.raises(IndexError):
        sched.pop()


@pytest.mark.parametrize("scheduler", ["heap", "calendar"])
def test_schedule_into_past_raises(scheduler):
    """Regression: the calendar queue used to clamp a push earlier than
    the last popped time into bucket 0 and silently pop it out of order.
    Both schedulers now reject such pushes identically."""
    sched = make_scheduler(scheduler)
    sched.push(10.0, 1, 0, "a")
    sched.push(20.0, 1, 1, "b")
    assert sched.pop()[0] == 10.0
    with pytest.raises(SimulationError):
        sched.push(5.0, 1, 2, "too late")
    # Pushing AT the watermark stays legal (same-timestamp callbacks).
    sched.push(10.0, 0, 3, "same instant")
    assert [sched.pop()[2] for _ in range(2)] == [3, 1]


@pytest.mark.parametrize("scheduler", ["heap", "calendar"])
def test_simulator_call_at_past_raises(scheduler):
    sim = Simulator(scheduler=scheduler)
    sim.timeout(10.0)
    sim.run()
    assert sim.now == 10.0
    with pytest.raises(SimulationError):
        sim.call_at(5.0, lambda: None)


def test_calendar_resizes_and_stats():
    sched = CalendarScheduler()
    fired = []
    sched.on_resize = fired.append
    for seq in range(2000):
        sched.push(float(seq) * 7.3, 1, seq, None)
    while len(sched):
        sched.pop()
    stats = sched.stats
    assert stats["scheduler"] == "calendar"
    assert stats["resizes"] >= 1
    assert stats["migrations"] >= 1
    assert stats["max_pending"] == 2000
    assert fired and fired[-1]["resizes"] == stats["resizes"]


def test_calendar_entries_snapshot_sorted():
    sched = CalendarScheduler()
    for seq, t in enumerate([5.0, 1.0, 1e9, 3.0, math.inf]):
        sched.push(t, 1, seq, None)
    times = [item[0] for item in sched.entries()]
    assert times == sorted(times)
    assert len(sched) == 5


def test_heap_scheduler_stats():
    sched = HeapScheduler()
    sched.push(1.0, 1, 1, None)
    assert sched.stats == {"scheduler": "heap", "pending": 1}
    assert sched.peek_time() == 1.0
    sched.pop()
    assert sched.peek_time() == math.inf


def test_simulator_heap_property_is_sorted_snapshot():
    sim = Simulator(scheduler="calendar")
    sim.call_later(2.0, lambda: None)
    sim.call_later(1.0, lambda: None)
    snapshot = sim._heap
    assert [entry[0] for entry in snapshot] == [1.0, 2.0]
    assert sim.queue_depth == 2


def test_resolve_scheduler_env_and_validation(monkeypatch):
    monkeypatch.delenv("REPRO_SCHEDULER", raising=False)
    assert resolve_scheduler(None) == "calendar"
    monkeypatch.setenv("REPRO_SCHEDULER", "heap")
    assert resolve_scheduler(None) == "heap"
    sim = Simulator()
    assert sim.scheduler == "heap"
    assert isinstance(sim._sched, HeapScheduler)
    with pytest.raises(SimulationError):
        Simulator(scheduler="splay-tree")


def test_scheduler_tracer_records_resizes():
    """A calendar-queue window move surfaces as a ``sched`` trace event
    (the counter tracereport's ``--by sched`` table aggregates)."""
    from repro.observe.tracer import Tracer

    sim = Simulator(scheduler="calendar")
    tracer = Tracer(clock=lambda: sim.now, clock_name="sim")
    sim.tracer = tracer
    for k in range(200):
        sim.call_later(13.7 * k, lambda: None)
    sim.run()
    events = tracer.events_in("sched")
    assert events, "no sched events recorded for a resizing run"
    assert events[-1].attrs["scheduler"] == "calendar"
    assert events[-1].attrs["resizes"] >= 1


def test_heap_fallback_regime_far_heap():
    """Sparse, widely-spaced events keep working (and stay ordered)
    through the far-heap fallback."""
    sim = Simulator(scheduler="calendar")
    seen = []
    for t in (1e12, 3.0, 1e6, 0.5, math.inf and 7e7):
        sim.call_at(t, lambda t=t: seen.append(t))
    sim.run()
    assert seen == sorted(seen)

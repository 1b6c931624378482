"""DES kernel microbenchmarks with a machine-readable baseline.

Five scenarios exercise the simulator's hot paths:

- ``flow_storm``: a 4096-flow barrier-synchronised write storm (12
  writers per NIC, 336 storage targets with slightly staggered
  capacities) — dominated by ``FlowNetwork._maxmin_rates``;
- ``component_storm``: a weak-scaling storm of 256 *resource-disjoint*
  nodes (private NIC + private staggered target, several sequential
  write rounds per writer) run under both ``REPRO_SOLVER`` modes — the
  scenario the component-partitioned solver exists for: one node's
  completion must re-solve one node, not 256. The bench asserts the two
  solvers produce bit-identical invariants and that the component
  solver is at least 2x faster;
- ``mega_storm``: a 100k-flow barrier storm whose contention graph is
  *fused into one component* by a shared (non-binding) fabric link, so
  each of the 192 staggered completion batches re-solves every
  remaining flow — the water-filling solve itself dominates. Runs the
  pure-python kernel once and the compiled kernel under both event
  schedulers; asserts all three produce bit-identical results and that
  the compiled kernel is at least 5x faster end-to-end;
- ``heap_churn``: 2000 staggered short flows through one shared link —
  dominated by event-queue traffic and completion-tick scheduling;
- ``fig2_sweep``: the full Fig. 2 driver in ``REPRO_FAST`` mode —
  the end-to-end pipeline a paper figure actually pays for.

Run directly (not via pytest) to (re)produce the JSON baseline::

    PYTHONPATH=src python benchmarks/bench_des_kernel.py            # full
    PYTHONPATH=src python benchmarks/bench_des_kernel.py --smoke    # CI
    PYTHONPATH=src python benchmarks/bench_des_kernel.py --check    # CI

The full run writes ``benchmarks/BENCH_des_kernel.json`` with wall
times and scenario invariants (completed flows, bytes moved, final
simulated clock) so later PRs can regress against both speed and
results. ``--smoke`` shrinks every scenario and does **not** overwrite
the committed baseline; it only checks the invariants still hold.
``--check`` runs the full scenarios and *compares* against the
committed baseline instead of rewriting it: scenario invariants must
match and wall times must stay within ``--tolerance`` (default 0.10,
or ``REPRO_BENCH_TOLERANCE``) of the recorded values — this is the
guard that tracing hooks stay free when tracing is disabled.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

BASELINE_PATH = os.path.join(os.path.dirname(__file__),
                             "BENCH_des_kernel.json")


def bench_flow_storm(nflows: int = 4096):
    """Barrier storm: every writer starts at t=0, 12 per NIC, striped
    over 336 staggered-capacity targets."""
    from repro.des import Simulator
    from repro.des.bandwidth import FlowNetwork

    sim = Simulator()
    net = FlowNetwork(sim)
    nnodes = (nflows + 11) // 12
    nics = [net.add_capacity(f"nic{i}", 1.6e9) for i in range(nnodes)]
    tgts = [net.add_capacity(f"ost{j}", 45e6 * (1 + 1e-3 * j))
            for j in range(336)]
    t0 = time.perf_counter()
    for i in range(nflows):
        net.transfer([nics[i // 12], tgts[(i // 12) % 336]], 9e6)
    sim.run()
    elapsed = time.perf_counter() - t0
    return {
        "wall_s": round(elapsed, 3),
        "flows": nflows,
        "completed": net.completed_flows,
        "bytes_moved": net.total_bytes_moved,
        "sim_time": sim.now,
    }


def _run_component_storm(solver: str, nodes: int, writers: int,
                         rounds: int):
    """One component-storm run: every node owns a private NIC and a
    private (staggered-capacity) target, each writer issues ``rounds``
    sequential transfers, so the contention graph is ``nodes`` disjoint
    components with per-node phase changes at distinct times."""
    from repro.des import Simulator
    from repro.des.bandwidth import FlowNetwork

    sim = Simulator()
    net = FlowNetwork(sim, solver=solver)
    t0 = time.perf_counter()
    for i in range(nodes):
        nic = net.add_capacity(f"nic{i}", 1.6e9)
        tgt = net.add_capacity(f"ost{i}", 45e6 * (1 + 1e-3 * i))

        def writer(nic=nic, tgt=tgt, left=rounds):
            flow = net.transfer([nic, tgt], 9e6)

            def next_round(_evt, nic=nic, tgt=tgt, left=left - 1):
                if left > 0:
                    writer(nic, tgt, left)
            flow.event.callbacks.append(next_round)

        for _w in range(writers):
            writer()
    sim.run()
    elapsed = time.perf_counter() - t0
    invariants = {
        "flows": nodes * writers * rounds,
        "completed": net.completed_flows,
        "bytes_moved": net.total_bytes_moved,
        "sim_time": sim.now,
    }
    return invariants, elapsed, net.solver_stats


def bench_component_storm(nodes: int = 256, writers: int = 12,
                          rounds: int = 4, require_speedup: bool = True):
    """Weak-scaling storm over resource-disjoint nodes, both solvers.

    The component solver must reproduce the forced-global results
    bit-identically (``fairness_slack`` is 0 here) while re-solving only
    the one node a completion touched; the asserted speedup is the
    tentpole claim of the incremental solver."""
    comp, wall_comp, stats = _run_component_storm(
        "component", nodes, writers, rounds)
    glob, wall_glob, _ = _run_component_storm(
        "global", nodes, writers, rounds)
    assert comp == glob, (
        f"solver divergence: component {comp} != global {glob}")
    assert comp["completed"] == comp["flows"], "component storm flows lost"
    speedup = wall_glob / wall_comp
    print(f"component_storm: component {wall_comp:.3f} s vs global "
          f"{wall_glob:.3f} s ({speedup:.1f}x)")
    if require_speedup:
        assert speedup >= 2.0, (
            f"component solver only {speedup:.2f}x faster than global "
            f"(expected >= 2x on {nodes} disjoint components)")
    result = dict(comp)
    result["wall_s"] = round(wall_comp, 3)
    result["wall_global_s"] = round(wall_glob, 3)
    # Deterministic solver counters: any change in how recomputations
    # are served (full vs component vs fast path) fails --check loudly.
    result["component_solves"] = stats["component_solves"]
    result["full_solves"] = stats["full_solves"]
    result["fast_grants"] = stats["fast_grants"]
    result["flows_solved"] = stats["flows_solved"]
    return result


def _run_mega_storm(kernel: str, scheduler: str, nnodes: int,
                    ntargets: int, writers: int):
    """One mega-storm run: per-node NICs, staggered shared targets, and
    a huge shared fabric link that never binds but fuses the whole
    network into one contention component — so every completion batch
    dirties (and re-solves) all remaining flows. 192 distinct target
    capacities give 192 freeze rounds per solve and 192 completion
    batches: O(rounds x flows) python work per solve, which is exactly
    the regime the compiled kernel exists for."""
    import hashlib

    import numpy as np

    from repro.des import Simulator
    from repro.des.bandwidth import FlowNetwork

    sim = Simulator(scheduler=scheduler)
    net = FlowNetwork(sim, kernel=kernel)
    nics = [net.add_capacity(f"nic{i}", 1.6e9) for i in range(nnodes)]
    tgts = [net.add_capacity(f"ost{j}", 45e6 * (1 + 1e-3 * j))
            for j in range(ntargets)]
    fabric = net.add_capacity("fabric", 1e18)
    flows = []
    for i in range(nnodes):
        res = (nics[i], tgts[i % ntargets], fabric)
        for _w in range(writers):
            flows.append(net.transfer(res, 9e6))
    # Time the simulation run only: flow submission is identical python
    # bookkeeping in every mode and would just dilute the comparison.
    t0 = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - t0
    ends = np.array([flow.end_time for flow in flows])
    invariants = {
        "flows": len(flows),
        "completed": net.completed_flows,
        "bytes_moved": net.total_bytes_moved,
        "sim_time": sim.now,
        "ends_digest": hashlib.blake2b(ends.tobytes(),
                                       digest_size=8).hexdigest(),
    }
    return invariants, elapsed, net.solver_stats, sim.scheduler_stats


def bench_mega_storm(nnodes: int = 8334, ntargets: int = 192,
                     writers: int = 12, require_speedup: bool = True):
    """100k-flow fused storm: compiled kernel vs python, both schedulers.

    The compiled runs must reproduce the python results bit-identically
    (``fairness_slack`` is 0 here) under the calendar *and* the heap
    scheduler; the asserted >= 5x is the tentpole claim of the compiled
    water-filling kernel."""
    from repro.des.kernels import kernel_status

    if kernel_status() == "unavailable":
        # No C compiler: cover what can be covered (the
        # scheduler bit-identity) and skip the kernel comparison rather
        # than failing environments the fallback path exists for.
        assert not require_speedup, (
            "mega_storm needs the compiled kernel (a C compiler) for "
            "the full/--check run")
        py, wall_py, _, _ = _run_mega_storm(
            "python", "calendar", nnodes, ntargets, writers)
        heap, wall_heap, _, _ = _run_mega_storm(
            "python", "heap", nnodes, ntargets, writers)
        assert py == heap, (
            f"scheduler divergence: calendar {py} != heap {heap}")
        print(f"mega_storm: python {wall_py:.3f} s "
              f"(compiled kernel unavailable, comparison skipped)")
        result = dict(py)
        result["wall_python_s"] = round(wall_py, 3)
        return result

    py, wall_py, _, _ = _run_mega_storm(
        "python", "calendar", nnodes, ntargets, writers)
    comp, wall_comp, stats, sched = _run_mega_storm(
        "compiled", "calendar", nnodes, ntargets, writers)
    heap, wall_heap, _, _ = _run_mega_storm(
        "compiled", "heap", nnodes, ntargets, writers)
    assert comp == py, (
        f"kernel divergence: compiled {comp} != python {py}")
    assert heap == py, (
        f"scheduler divergence: heap {heap} != calendar {py}")
    assert py["completed"] == py["flows"], "mega storm flows lost"
    speedup = wall_py / wall_comp
    print(f"mega_storm: compiled {wall_comp:.3f} s vs python "
          f"{wall_py:.3f} s ({speedup:.1f}x); compiled/heap "
          f"{wall_heap:.3f} s")
    if require_speedup:
        assert speedup >= 5.0, (
            f"compiled kernel only {speedup:.2f}x faster than python "
            f"(expected >= 5x on the fused {py['flows']}-flow storm)")
    result = dict(py)
    result["wall_s"] = round(wall_comp, 3)
    result["wall_python_s"] = round(wall_py, 3)
    result["wall_heap_sched_s"] = round(wall_heap, 3)
    # Deterministic counters: solves must all hit the compiled kernel,
    # and the calendar queue's window behaviour is event-sequence-exact.
    result["full_solves"] = stats["full_solves"]
    result["kernel_solves"] = stats["kernel_solves"]
    result["sched_resizes"] = sched["resizes"]
    result["sched_migrations"] = sched["migrations"]
    return result


def bench_heap_churn(nflows: int = 2000):
    """Staggered arrivals through one shared link: stresses the event
    heap and the reschedulable completion tick (each arrival used to
    leak one stale tick event into the heap)."""
    from repro.des import Simulator
    from repro.des.bandwidth import FlowNetwork

    sim = Simulator()
    net = FlowNetwork(sim)
    link = net.add_capacity("link", 1e9)
    peak = [0]
    started = [0]

    def arrive():
        started[0] += 1
        net.transfer([link], 5e5)
        if started[0] < nflows:
            # Chain the next arrival so the heap holds only live events:
            # any growth beyond a handful is completion-tick leakage.
            sim.schedule_callback(1e-4, arrive)
        peak[0] = max(peak[0], sim.queue_depth)

    t0 = time.perf_counter()
    sim.schedule_callback(0.0, arrive)
    sim.run()
    elapsed = time.perf_counter() - t0
    return {
        "wall_s": round(elapsed, 3),
        "flows": nflows,
        "completed": net.completed_flows,
        "bytes_moved": net.total_bytes_moved,
        "sim_time": sim.now,
        "peak_heap": peak[0],
    }


def bench_fig2_sweep():
    """The Fig. 2 driver end-to-end in fast mode (trimmed scales)."""
    os.environ["REPRO_FAST"] = "1"
    from repro.experiments import figures

    t0 = time.perf_counter()
    report = figures.fig2_write_phase_kraken()
    elapsed = time.perf_counter() - t0
    return {
        "wall_s": round(elapsed, 3),
        "rows": len(report.rows),
        "scales": list(figures.kraken_scales()),
    }


def _fmt_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return repr(value)


def check_against_baseline(results: dict, tolerance: float) -> int:
    """Compare a full run against the committed baseline.

    Invariant fields must match exactly (or near-exactly for float
    accumulators); wall times (any key starting with ``wall``) may
    regress at most ``tolerance`` (relative). On any failure the whole
    per-key comparison is printed as an old/new/delta table — a CI
    regression must be diagnosable from the log alone, not just from
    its first offending key. Returns the number of failures."""
    with open(BASELINE_PATH, encoding="utf-8") as fh:
        baseline = json.load(fh)["results"]
    rows = []  # (scenario.key, old, new, delta, status)
    failures = 0
    for name, recorded in baseline.items():
        current = results.get(name)
        if current is None:
            rows.append((name, "<recorded>", "<missing>", "", "FAIL"))
            failures += 1
            continue
        for key, expected in recorded.items():
            got = current.get(key)
            label = f"{name}.{key}"
            if got is None:
                rows.append((label, _fmt_value(expected), "<missing>",
                             "", "FAIL"))
                failures += 1
                continue
            if isinstance(expected, (int, float)) \
                    and isinstance(got, (int, float)) and expected != 0:
                delta = f"{100.0 * (got - expected) / expected:+.1f} %"
            elif got == expected:
                delta = "="
            else:
                delta = "!="
            if key.startswith("wall"):
                ok = got <= expected * (1.0 + tolerance)
                status = "ok" if ok else f"FAIL (>+{100 * tolerance:.0f} %)"
            elif isinstance(expected, float):
                ok = abs(got - expected) <= 1e-6 * max(1.0, abs(expected))
                status = "ok" if ok else "FAIL"
            else:
                ok = got == expected
                status = "ok" if ok else "FAIL"
            if not ok:
                failures += 1
            rows.append((label, _fmt_value(expected), _fmt_value(got),
                         delta, status))
    if failures:
        widths = [max(len(str(row[col])) for row in rows
                      + [("key", "baseline", "current", "delta", "status")])
                  for col in range(5)]
        header = ("key", "baseline", "current", "delta", "status")
        print(f"check: {failures} deviation(s); full comparison:")
        for row in (header,) + tuple(rows):
            print("  " + "  ".join(str(cell).ljust(width)
                                   for cell, width in zip(row, widths)))
    else:
        for label, old, new, delta, _status in rows:
            print(f"check ok   {label}: {new} (baseline {old}, {delta})")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="shrunken scenarios; check invariants only, "
                             "do not rewrite the baseline")
    parser.add_argument("--check", action="store_true",
                        help="full scenarios; compare wall times and "
                             "invariants against the committed baseline "
                             "instead of rewriting it")
    parser.add_argument("--tolerance", type=float,
                        default=float(os.environ.get(
                            "REPRO_BENCH_TOLERANCE", "0.10")),
                        help="relative wall-time regression allowed by "
                             "--check (default 0.10)")
    args = parser.parse_args(argv)

    if args.smoke:
        results = {
            "flow_storm": bench_flow_storm(nflows=512),
            "component_storm": bench_component_storm(
                nodes=32, writers=4, rounds=2, require_speedup=False),
            "mega_storm": bench_mega_storm(
                nnodes=128, ntargets=16, writers=4, require_speedup=False),
            "heap_churn": bench_heap_churn(nflows=200),
        }
    else:
        results = {
            "flow_storm": bench_flow_storm(),
            "component_storm": bench_component_storm(),
            "mega_storm": bench_mega_storm(),
            "heap_churn": bench_heap_churn(),
            "fig2_sweep": bench_fig2_sweep(),
        }

    for name, result in results.items():
        print(f"{name}: {json.dumps(result)}")

    # Invariants: every flow completes, the residual heap is tiny (the
    # reschedulable tick must not leak one event per recompute).
    storm = results["flow_storm"]
    assert storm["completed"] == storm["flows"], "storm flows lost"
    churn = results["heap_churn"]
    assert churn["completed"] == churn["flows"], "churn flows lost"
    assert churn["peak_heap"] <= 32, (
        f"completion-tick leak: peak heap size {churn['peak_heap']} "
        f"during chained arrivals (expected a handful of live events)")

    if args.check:
        failures = check_against_baseline(results, args.tolerance)
        if failures:
            print(f"check FAILED ({failures} deviation(s) from "
                  f"{BASELINE_PATH})")
            return 1
        print("check ok")
    elif not args.smoke:
        payload = {
            "bench": "des_kernel",
            "command": "PYTHONPATH=src python benchmarks/bench_des_kernel.py",
            "results": results,
        }
        with open(BASELINE_PATH, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"baseline written to {BASELINE_PATH}")
    else:
        print("smoke ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

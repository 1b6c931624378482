"""One measured process of the benchmark (started by ``run.py``).

``worker.py --setup`` is the set-up probe: a fresh interpreter imports
the engine, resolves its kernel, scheduler and solver and loads the
compiled kernel (building it if its cache is cold), then prints the
resolved engine as JSON. ``worker.py --workload W --seed N`` runs one
pass of a workload and prints one JSON line with its wall time, peak
memory and per-spec digests; ``--trace 1`` runs the pass under
``cProfile`` and adds the per-layer self times and entry-point counts.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from typing import Any, Dict, List

import workloads as W


def setup() -> Dict[str, str]:
    """Import every driver; return the engine the environment resolves
    to (the code's defaults when the knobs are unset)."""
    import repro.experiments.figures  # noqa: F401
    from repro.des.bandwidth import _resolve_solver
    from repro.des.kernels import kernel_status, resolve_kernel
    from repro.des.sched import resolve_scheduler

    return {"kernel": resolve_kernel(None),
            "scheduler": resolve_scheduler(None),
            "solver": _resolve_solver(None),
            "kernel_status": kernel_status()}


class Recorder:
    """Wraps the sweep entry point and the harness to see each spec.

    The wrappers sit around calls into the experiments layer, in this
    process only; the program under test is not modified.
    """

    def __init__(self, default_phases: int) -> None:
        self.default_phases = default_phases
        self.specs: List[list] = []
        self.results: List[Any] = []
        self.solves = 0
        self.flows_solved = 0

    def install(self) -> None:
        from repro.experiments import executor, figures, specs

        run_sweep = executor.run_sweep
        run_experiment = specs.run_experiment

        def recording_sweep(tasks, *args, **kwargs):
            tasks = list(tasks)
            results = run_sweep(tasks, *args, **kwargs)
            for task, result in zip(tasks, results):
                spec = task.args[0]
                summary = result.summary()
                self.specs.append([
                    W.spec_key(spec), W.digest(summary),
                    W.summary_problems(spec, summary,
                                       self.default_phases)])
                self.results.append(result)
            return results

        def counting_experiment(machine, *args, **kwargs):
            result = run_experiment(machine, *args, **kwargs)
            stats = machine.flows.solver_stats
            self.solves += stats["full_solves"] + stats["component_solves"]
            self.flows_solved += stats["flows_solved"]
            return result

        figures.run_sweep = recording_sweep
        specs.run_experiment = counting_experiment
        self.sweep = recording_sweep


def run_pass(workload: str, seed: int, smoke: bool,
             recorder: Recorder) -> Dict[str, str]:
    """Run the workload once; return its figures' row digests."""
    figure_digests: Dict[str, str] = {}
    if workload == "figures_fast":
        for name, driver in W.figure_steps(seed, smoke):
            figure_digests[name] = W.digest(driver().rows)
    else:
        from repro.experiments.executor import SweepTask
        from repro.experiments.specs import run_spec

        recorder.sweep([SweepTask(run_spec, (spec,), label=f"{workload}/{i}")
                        for i, spec in enumerate(
                            W.kraken_specs(workload, seed, smoke))])
    return figure_digests


def measure(args: argparse.Namespace) -> Dict[str, Any]:
    import repro

    recorder = Recorder(default_phases=1 if W.fast_mode(args.workload)
                        else 2)
    recorder.install()
    profile = None
    if args.trace:
        import cProfile
        profile = cProfile.Profile()
        profile.enable()
    start = time.perf_counter()
    figure_digests = run_pass(args.workload, args.seed, args.smoke,
                              recorder)
    wall = time.perf_counter() - start
    if profile is not None:
        profile.disable()
    out: Dict[str, Any] = {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "specs": recorder.specs,
        "figures": figure_digests,
        "files_created": sum(r.files_created for r in recorder.results),
        "cache_entries": sum(len(files) for _dir, _sub, files
                             in os.walk(os.environ["REPRO_CACHE_DIR"])),
        "report_problems": [],
    }
    if args.check_reports and args.workload in W.REPORT_ROWS:
        cells = W.report_cells(args.workload, recorder.results)
        out["report_problems"] = W.report_mismatches(
            args.workload, cells, args.check_reports)
    if profile is not None:
        import pstats

        import layers

        stats = pstats.Stats(profile).stats
        namer = layers.ModuleNamer(os.path.dirname(repro.__file__))
        self_s, modules = layers.attribute(
            stats, namer, bench_dir=os.path.dirname(os.path.abspath(
                __file__)))
        out["layers"] = self_s
        out["total_self_s"] = sum(entry[2] for entry in stats.values())
        out["unassigned"] = layers.unassigned(modules)
        out["counts"] = dict(
            layers.entry_counts(stats, namer),
            **{"des.bandwidth.solves": recorder.solves,
               "des.bandwidth.flows_solved": recorder.flows_solved})
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--setup", action="store_true")
    parser.add_argument("--workload", choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, default=W.ORACLE_SEED)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--check-reports", default="",
                        help="committed reports directory to compare with")
    args = parser.parse_args(argv)
    if args.setup:
        result = setup()
    elif args.workload:
        result = measure(args)
    else:
        parser.error("give --setup or --workload")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

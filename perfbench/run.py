"""Paper-workload benchmark of the Damaris reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload figures_fast --seed 42 \\
        --seconds 30 --trace 0

With ``--trace 0`` it measures set-up time (fresh interpreters, median
of several), then runs passes of the workload, each in a fresh process,
for about ``--seconds`` seconds, and reports the end-to-end metrics
(medians over passes). Times are scaled to a reference host's speed
by a fixed loop that the runner times on the worker's CPU while the
worker runs. With ``--trace 1`` it runs one untimed pass and one pass
under ``cProfile`` and reports the per-layer metrics. Every
spec's result digest is checked, against ``digests.json`` for seed 42
and for determinism on any seed. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

``--write-digests`` (seed 42) records the current digests of the
workload in ``digests.json``; ``--smoke`` runs shrunken sizes for the
benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

import layers
import workloads as W

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

#: Timed set-up probes per run (after one untimed warm-up probe).
SETUP_REPS = 7
#: A run ends within this many seconds, whatever ``--seconds`` says.
RUN_LIMIT_S = 170.0
#: While a child runs, the runner wakes this often to time one speed
#: loop on the child's CPU.
SPEED_PERIOD_S = 0.05
#: CPU seconds of one speed loop on the reference host (a 2-vCPU x86-64
#: VM at 2.0 GHz, CPython 3.11, in a quiet period). Times are reported
#: in seconds of that host: host seconds divided by the host factor.
SPEED_REF_S = 0.00046

#: The layer each workload is predicted to spend most of its time in.
PREDICTED = {"figures_fast": "des.bandwidth",
             "kraken_collective_2304": "mpi",
             "kraken_damaris_9216": "des.loop"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def clean_env(private: str, kernels: str, workload: str) -> Dict[str, str]:
    """The children's environment: no inherited ``REPRO_*`` knob, the
    serial backend with one worker, the sweep cache off (and pointed at
    an empty directory under ``private``), tracing off and the engine
    knobs at the code's defaults. ``kernels`` is the kernel build cache,
    kept warm across runs."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONPATH"}
    cache_dir = os.path.join(private, "sweep-cache")
    tmp_dir = os.path.join(private, "tmp")  # the kernel build's compiler
    for path in (cache_dir, tmp_dir):
        os.makedirs(path)
    env.update({
        "TMPDIR": tmp_dir,
        "PYTHONPATH": os.path.join(ROOT, "src"),
        "REPRO_BACKEND": "serial",
        "REPRO_PARALLEL": "1",
        "REPRO_CACHE": "0",
        "REPRO_CACHE_DIR": cache_dir,
        "REPRO_KERNEL_CACHE": kernels,
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    if W.fast_mode(workload):
        env["REPRO_FAST"] = "1"
    return env


def speed_loop() -> int:
    """A fixed pure-Python loop of dict reads and writes (about 0.5 ms).
    It imports nothing from the program under test."""
    table: Dict[int, int] = {}
    total = 0
    for i in range(3000):
        table[i % 1000] = i
        total += table.get((i * 7) % 1000, 0)
    return total


def speed_sample() -> float:
    """CPU seconds of one speed loop. An untimed loop first refills the
    caches the child displaced, so the child's memory use does not
    show in the time; CPU time leaves out any wait for the child."""
    speed_loop()
    start = time.process_time()
    speed_loop()
    return time.process_time() - start


def host_factor(samples: List[float]) -> float:
    """How many times slower than the reference host this host ran
    while a child ran.

    Other tenants contend for the physical cores, so the host's speed
    drifts by 40 % and more over seconds to minutes, longer than a run,
    and raw host seconds of runs minutes apart are not comparable. The
    samples are taken on the child's CPU while the child runs, so they
    see the same slowdown.
    """
    return statistics.mean(samples) / SPEED_REF_S


class Runner:
    """Starts the workers and samples the host's speed while each runs.
    ``run`` first pins the process to one CPU, which the workers
    inherit, so the samples come from the workers' CPU."""

    def __init__(self, env: Dict[str, str], deadline: float) -> None:
        self.env = env
        self.deadline = deadline

    def child(self, *args: str) -> Tuple[Dict[str, Any], float]:
        """The worker's JSON result and the host factor during it."""
        if self.deadline <= time.monotonic():
            raise BenchError("out of time before starting a pass")
        samples: List[float] = []
        proc = subprocess.Popen(
            [sys.executable, WORKER, *args], cwd=ROOT, env=self.env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            while True:
                try:
                    out, err = proc.communicate(timeout=SPEED_PERIOD_S)
                    break
                except subprocess.TimeoutExpired:
                    if time.monotonic() > self.deadline:
                        raise BenchError(
                            f"worker {' '.join(args)} ran out of time")
                    samples.append(speed_sample())
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if proc.returncode != 0:
            sys.stderr.write(err)
            raise BenchError(f"worker {' '.join(args)} exited with "
                             f"{proc.returncode}")
        if not samples:  # a child shorter than one period
            samples = [speed_sample() for _ in range(5)]
        return (json.loads(out.strip().splitlines()[-1]),
                host_factor(samples))

    def setup(self) -> float:
        """Seconds of one set-up probe, scaled by the host factor."""
        start = time.perf_counter()
        _engine, factor = self.child("--setup")
        return (time.perf_counter() - start) / factor


def pass_digest(result: Dict[str, Any]) -> str:
    return W.digest([[d for _key, d, _p in result["specs"]],
                     result["figures"]])


def dominance(self_s: Dict[str, float]) -> Dict[str, float]:
    """Self-time shares with the two MPI modules also summed as ``mpi``."""
    total = sum(self_s.values()) or 1.0
    shares = {layer: value / total for layer, value in self_s.items()}
    shares["mpi"] = shares["mpi.comm"] + shares["mpi.mpiio"]
    return shares


def layer_metrics(base: Dict[str, Any], traced: Dict[str, Any]
                  ) -> Dict[str, Dict[str, Any]]:
    counts = traced["counts"]
    distinct = len({key for key, _d, _p in traced["specs"]})
    calls = counts["experiments.run_spec_calls"]
    values = {f"{layer}.self_s": (traced["layers"][layer], "s")
              for layer in layers.LAYERS}
    values.update({name: (counts[name], "count") for name in (
        "des.events", "des.bandwidth.flows", "des.bandwidth.solves",
        "des.bandwidth.flows_solved", "mpi.collectives",
        "mpi.alltoallv_calls", "mpi.aggregator_lookups",
        "experiments.run_spec_calls")})
    values["experiments.distinct_specs"] = (distinct, "count")
    values["experiments.useful_ratio"] = (
        distinct / calls if calls else 0.0, "ratio")
    values["storage.files_created"] = (traced["files_created"], "count")
    values["trace.overhead_x"] = (traced["wall_s"] / base["wall_s"], "x")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}


def run(args: argparse.Namespace) -> Dict[str, Any]:
    started = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        raise BenchError(f"no repro source tree under {ROOT}/src")
    reports = os.path.join(ROOT, "benchmarks", "reports")
    oracle = args.seed == W.ORACLE_SEED and not args.smoke
    if oracle and not os.path.isdir(reports):
        raise BenchError(f"no committed reports under {reports}")
    # The runner and its workers share one CPU (see Runner).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(work, exist_ok=True)
    private = tempfile.mkdtemp(prefix="run-", dir=work)
    try:
        env = clean_env(private, os.path.join(work, "kernels"),
                        args.workload)
        return measure(args, Runner(env, started + RUN_LIMIT_S), oracle,
                       reports)
    finally:
        shutil.rmtree(private, ignore_errors=True)


def measure(args: argparse.Namespace, runner: Runner, oracle: bool,
            reports: str) -> Dict[str, Any]:
    # Untimed: builds a cold kernel.
    engine, _factor = runner.child("--setup")
    print(f"engine: kernel={engine['kernel']} "
          f"scheduler={engine['scheduler']} solver={engine['solver']} "
          f"kernel_status={engine['kernel_status']}")

    pass_args = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        pass_args.append("--smoke")
    if oracle:
        pass_args += ["--check-reports", reports]

    setup_times: List[float] = []
    passes: List[Dict[str, Any]] = []
    factors: List[float] = []
    if args.trace:
        passes.append(runner.child(*pass_args)[0])
        passes.append(runner.child(*pass_args, "--trace", "1")[0])
    else:
        setup_times = [runner.setup() for _ in range(SETUP_REPS)]
        first = time.monotonic()
        while True:
            result, factor = runner.child(*pass_args)
            passes.append(result)
            factors.append(factor)
            now = time.monotonic()
            per_pass = (now - first) / len(passes)
            if now + per_pass > min(first + args.seconds,
                                    runner.deadline - 5.0):
                break

    expected: Optional[Dict[str, Any]] = None
    missing = []
    if oracle and not args.write_digests:
        expected = W.load_digests()["workloads"].get(args.workload)
        if expected is None:
            missing.append(f"no committed digests for {args.workload}")
    attempted, failed, problems = W.judge(passes, expected)
    problems += missing

    for number, result in enumerate(passes):
        print(f"digest {args.workload} seed={args.seed} pass={number}: "
              f"{pass_digest(result)}")
    for name, fig_digest in passes[0]["figures"].items():
        print(f"  figure {name}: {fig_digest}")
    for key, spec_digest, _p in passes[0]["specs"]:
        print(f"  spec {spec_digest} {key}")

    if args.trace:
        traced = passes[-1]
        metrics = layer_metrics(passes[0], traced)
        if traced["unassigned"]:
            print(f"warning: modules outside the layer map, charged to "
                  f"other: {traced['unassigned']}")
        total = traced["total_self_s"]
        if abs(sum(traced["layers"].values()) - total) > 1e-6 * total:
            problems.append("layer self times do not sum to the total")
        shares = dominance(traced["layers"])
        ranked = sorted((k for k in shares if k not in
                         ("mpi.comm", "mpi.mpiio")),
                        key=shares.get, reverse=True)
        predicted = PREDICTED[args.workload]
        verdict = "agrees" if ranked[0] == predicted else "DISAGREES"
        print(f"self time {total:.2f} s: " + ", ".join(
            f"{k} {100 * shares[k]:.1f}%" for k in ranked))
        print(f"dominant layer: {ranked[0]}; predicted {predicted}: "
              f"{verdict}")
    else:
        walls = [p["wall_s"] / f for p, f in zip(passes, factors)]
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times),
                        "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                p["peak_rss_mb"] for p in passes), "unit": "MB"},
        }
        print(f"passes: {len(passes)} host walls: "
              + " ".join(f"{p['wall_s']:.3f}" for p in passes)
              + "; host factors: "
              + " ".join(f"{f:.3f}" for f in factors))

    if args.write_digests and not problems and failed == 0:
        write_digests(args.workload, passes[0])
    for problem in problems:
        print(f"problem: {problem}")
    return {"correct": not problems and failed == 0,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def write_digests(workload: str, result: Dict[str, Any]) -> None:
    try:
        data = W.load_digests()
    except FileNotFoundError:
        data = {"seed": W.ORACLE_SEED, "workloads": {}}
    data["workloads"][workload] = {
        "specs": {key: d for key, d, _p in result["specs"]},
        "figures": result["figures"],
    }
    with open(W.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {workload} digests to {W.DIGESTS_PATH}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, default=W.ORACLE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrunken sizes (the benchmark's own tests)")
    parser.add_argument("--write-digests", action="store_true",
                        help="record this workload's seed-42 digests")
    args = parser.parse_args(argv)
    # A terminated run still kills and reaps the worker it is waiting on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.write_digests and (args.seed != W.ORACLE_SEED or args.smoke):
        parser.error("--write-digests records the seed-42 full-size run")
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

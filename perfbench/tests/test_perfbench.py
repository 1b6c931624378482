"""The benchmark's own tests, at smoke sizes (seconds, not minutes).

Run from the root of the repository::

    python -m pytest perfbench/tests
"""

import json
import math
import os
import pkgutil
import shutil
import subprocess
import sys
import time

import pytest

import layers
import run as bench
import workloads as W

ROOT = bench.ROOT
RUN = os.path.join(bench.HERE, "run.py")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _bench(*args, cwd=ROOT, script=RUN):
    proc = subprocess.run(
        [sys.executable, script, *args], cwd=cwd, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, timeout=170)
    return proc


def _worker(env, workload, *args):
    proc = subprocess.run(
        [sys.executable, bench.WORKER, "--workload", workload, "--seed",
         "3", "--smoke", *args], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_smoke_run_prints_every_listed_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    group = "per_layer" if trace == "1" else "end_to_end"
    listed = {m["name"]: m["unit"] for m in _benchmark_json()[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == listed
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
    if trace == "0":
        assert all(result["metrics"][k]["value"] > 0 for k in listed)


def _one_spec_pass():
    from repro.experiments.specs import run_spec

    spec = W.kraken_specs("kraken_damaris_9216", 42, smoke=True)[0]
    summary = run_spec(spec).summary()
    return spec, summary


def _pass(spec, summary):
    return {"specs": [[W.spec_key(spec), W.digest(summary),
                       W.summary_problems(spec, summary, 2)]],
            "figures": {}, "cache_entries": 0}


def test_perturbed_summary_counts_as_failed_operation():
    spec, summary = _one_spec_pass()
    good = _pass(spec, summary)
    committed = {"specs": {W.spec_key(spec): W.digest(summary)},
                 "figures": {}}
    assert W.judge([good], committed) == (1, 0, [])

    bad = dict(summary, run_time=math.nextafter(summary["run_time"], 0.0))
    attempted, failed, problems = W.judge(
        [_pass(spec, bad)], committed)
    assert (attempted, failed) == (1, 1) and problems
    # Without a committed digest (any other seed) the passes of one run
    # must agree with each other.
    attempted, failed, _ = W.judge(
        [good, _pass(spec, bad)], None)
    assert (attempted, failed) == (2, 1)


def test_sanity_checks_flag_an_impossible_summary():
    spec, summary = _one_spec_pass()
    broken = dict(summary, drain_time=summary["run_time"] / 2,
                  write_phases=1)
    assert len(W.summary_problems(spec, broken, 2)) == 2


@pytest.mark.parametrize("workload", ["figures_fast",
                                      "kraken_collective_2304"])
def test_traced_and_untraced_passes_give_identical_digests(tmp_path,
                                                          workload):
    env = bench.clean_env(str(tmp_path), str(tmp_path / "kernels"),
                          workload)
    plain = _worker(env, workload)
    traced = _worker(env, workload, "--trace", "1")
    assert plain["specs"] and traced["specs"] == plain["specs"]
    assert traced["figures"] == plain["figures"]
    assert traced["unassigned"] == []
    assert abs(sum(traced["layers"].values()) - traced["total_self_s"]) \
        <= 1e-6 * traced["total_self_s"]


def test_runner_scales_by_host_factor_and_reaps_a_late_worker(tmp_path):
    env = bench.clean_env(str(tmp_path), str(tmp_path / "kernels"),
                          "kraken_collective_2304")
    runner = bench.Runner(env, deadline=time.monotonic() + 120)
    engine, factor = runner.child("--setup")
    assert engine["kernel"] and 0 < factor < 100

    late = bench.Runner(env, deadline=time.monotonic() + 0.5)
    with pytest.raises(bench.BenchError, match="ran out of time"):
        late.child("--workload", "kraken_damaris_9216", "--seed", "1")
    with pytest.raises(ChildProcessError):  # the worker was reaped
        os.waitpid(-1, os.WNOHANG)


def test_layer_map_assigns_every_repro_module():
    import repro

    modules = ["repro"] + [
        info.name for info in pkgutil.walk_packages(
            repro.__path__, prefix="repro.")]
    assert layers.unassigned(modules) == []
    assert layers.layer_of("repro.newpackage.module") is None
    assert layers.layer_of("repro.des.kernels") == "des.bandwidth"
    assert layers.layer_of("repro.mpi.mpiio") == "mpi.mpiio"


def test_committed_report_rows_are_read_at_printed_precision():
    reports = os.path.join(ROOT, "benchmarks", "reports")
    row = W.read_report_row(os.path.join(reports, "figure_2.txt"),
                            {"strategy": "collective-io", "cores": "2304"})
    assert (row["avg_s"], row["max_s"], row["spread_s"]) == \
        ("57.74", "58.79", "2.08")
    cells = {"avg_s": "57.74", "max_s": "58.79", "spread_s": "2.08"}
    assert W.report_mismatches("kraken_collective_2304", cells,
                               reports) == []
    cells["spread_s"] = "2.09"
    assert len(W.report_mismatches("kraken_collective_2304", cells,
                                   reports)) == 1


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(bench.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "figures_fast", "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=tmp_path,
                  script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

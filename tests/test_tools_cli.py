"""Subprocess smoke tests for the repo's CLI tools.

Each tool runs as ``python -m repro.tools.<name>`` in a real
subprocess — argument parsing, module entry points, exit codes and
stdout format are exercised exactly as a user would hit them.
``tracereport`` reads the committed fixture trace under ``tests/data``;
``cachectl`` operates on a store seeded in-process; ``servectl`` talks
to a live server started by its own ``serve`` subcommand.
"""

import json
import os
import subprocess
import sys
import time

import pytest

from repro.cache import ResultCache
from repro.experiments.executor import SweepTask, run_sweep

TOOLS_ENV = dict(os.environ,
                 PYTHONPATH=os.path.join(os.path.dirname(__file__), "..",
                                         "src"))
TRACE_FIXTURE = os.path.join(os.path.dirname(__file__), "data",
                             "trace_grid5000_damaris.jsonl")


def run_tool(*argv, check=True, timeout=120):
    proc = subprocess.run(
        [sys.executable, "-m", *argv], env=TOOLS_ENV,
        capture_output=True, text=True, timeout=timeout)
    if check:
        assert proc.returncode == 0, proc.stderr or proc.stdout
    return proc


def _tenx(x):
    return x * 10


def _seed_store(root):
    cache = ResultCache(str(root))
    run_sweep([SweepTask(_tenx, (i,), label=f"t{i}") for i in range(3)],
              parallel=1, cache=cache)
    return cache


# --------------------------------------------------------------------- #
# cachectl
# --------------------------------------------------------------------- #
class TestCachectl:
    def test_stats_ls_verify_prune_clear(self, tmp_path):
        store = tmp_path / "store"
        _seed_store(store)
        base = ("repro.tools.cachectl", "--cache-dir", str(store))

        stats = run_tool(*base, "stats").stdout
        assert "entries:          3" in stats
        assert "model fingerprint" in stats

        ls = run_tool(*base, "ls").stdout
        assert len([l for l in ls.splitlines() if l.strip()]) >= 3
        assert "t0" in ls

        verify = run_tool(*base, "verify")
        assert "3 entries verified" in verify.stdout \
            or "ok" in verify.stdout.lower()

        run_tool(*base, "prune")
        assert "entries:          3" in run_tool(*base, "stats").stdout

        clear = run_tool(*base, "clear").stdout
        assert "3" in clear
        assert "entries:          0" in run_tool(*base, "stats").stdout

    def test_verify_flags_corruption_nonzero(self, tmp_path):
        store = tmp_path / "store"
        cache = _seed_store(store)
        victim = next(iter(cache.entries()))
        with open(victim.path, "r+b") as fh:
            fh.seek(-1, os.SEEK_END)
            fh.write(b"\xff")
        proc = run_tool("repro.tools.cachectl", "--cache-dir", str(store),
                        "verify", check=False)
        assert proc.returncode != 0


# --------------------------------------------------------------------- #
# tracereport (committed fixture trace)
# --------------------------------------------------------------------- #
class TestTracereport:
    def test_summary(self):
        out = run_tool("repro.tools.tracereport", TRACE_FIXTURE).stdout
        assert "write_phase" in out

    @pytest.mark.parametrize("by,expect", [
        ("solver", "flows_solved"),
        ("sched", "migrations"),
        ("actor", "actor"),
    ])
    def test_by_tables(self, by, expect):
        out = run_tool("repro.tools.tracereport", TRACE_FIXTURE,
                       "--by", by).stdout
        assert expect in out

    def test_missing_file_is_clean_error(self, tmp_path):
        proc = run_tool("repro.tools.tracereport",
                        str(tmp_path / "nope.jsonl"), check=False)
        assert proc.returncode != 0


# --------------------------------------------------------------------- #
# figures (a clean run leaves no processes and no tracebacks behind)
# --------------------------------------------------------------------- #
_CLEAN_RUN = """
import multiprocessing, os, sys
from repro.tools import figures

rc = figures.main(["--backend", "process", "--parallel", "2", "table1"])
me = os.getpid()
children = 0
for entry in os.listdir("/proc"):
    if not entry.isdigit():
        continue
    try:
        with open(f"/proc/{entry}/stat") as fh:
            stat = fh.read()
    except OSError:
        continue
    # Fields after the parenthesised command name: state, ppid, ...
    if int(stat.rsplit(")", 1)[1].split()[1]) == me:
        children += 1
print(len(multiprocessing.active_children()), children)
sys.exit(rc)
"""


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs procfs")
def test_figures_process_backend_clean_run():
    """A process-pool sweep exits 0, writes nothing to stderr (no
    finalizer or worker tracebacks) and leaves no child processes."""
    proc = subprocess.run(
        [sys.executable, "-c", _CLEAN_RUN],
        env=dict(TOOLS_ENV, REPRO_FAST="1"),
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr or proc.stdout
    assert proc.stderr == ""
    active, children = proc.stdout.splitlines()[-1].split()
    assert (int(active), int(children)) == (0, 0), proc.stdout


# --------------------------------------------------------------------- #
# servectl (against a live served instance)
# --------------------------------------------------------------------- #
class TestServectl:
    @pytest.fixture()
    def server(self, tmp_path):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.tools.servectl", "serve",
             "--port", "0", "--workers", "1", "--job-slots", "1"],
            env=dict(TOOLS_ENV, REPRO_FAST="1"),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        assert "serving on http://" in line, line
        hostport = line.split("http://", 1)[1].split()[0]
        host, port = hostport.rsplit(":", 1)
        try:
            yield host, port
        finally:
            proc.terminate()
            proc.wait(timeout=30)

    def test_full_cli_session(self, server, tmp_path):
        host, port = server
        base = ("repro.tools.servectl", "--host", host, "--port", port)
        specs = tmp_path / "specs.json"
        specs.write_text(json.dumps([
            {"preset": "grid5000", "ncores": 24,
             "strategy": {"kind": "damaris"}, "seed": 11,
             "write_phases": 1}]))

        health = json.loads(run_tool(*base[:1], "health",
                                     *base[1:]).stdout)
        assert health["state"] == "ok"

        snap = json.loads(run_tool(
            "repro.tools.servectl", "submit", str(specs),
            "--tenant", "cli", "--label", "smoke", "--wait",
            "--timeout", "300", *base[1:]).stdout)
        assert snap["state"] == "done"
        job_id = snap["job_id"]

        status = json.loads(run_tool(*base[:1], "status", *base[1:],
                                     job_id).stdout)
        assert status["progress"]["done"] == 1

        events = run_tool(*base[:1], "events", *base[1:], job_id).stdout
        kinds = [json.loads(l)["kind"] for l in events.splitlines()]
        assert kinds[0] == "queued" and kinds[-1] == "done"

        doc = json.loads(run_tool(*base[:1], "fetch", *base[1:],
                                  job_id).stdout)
        assert doc["results"][0]["run_time"] > 0

        metrics = run_tool(*base[:1], "metrics", *base[1:]).stdout
        assert 'repro_jobs_total{state="done"} 1' in metrics

        drain = json.loads(run_tool(*base[:1], "drain",
                                    *base[1:]).stdout)
        assert drain["state"] == "draining"
        refused = run_tool(
            "repro.tools.servectl", "submit", str(specs), *base[1:],
            check=False)
        assert refused.returncode == 2
        assert "draining" in refused.stderr

    def test_bad_specs_file_rejected(self, server, tmp_path):
        host, port = server
        specs = tmp_path / "bad.json"
        specs.write_text(json.dumps([{"preset": "nope"}]))
        proc = run_tool("repro.tools.servectl", "submit", str(specs),
                        "--host", host, "--port", port, check=False)
        assert proc.returncode == 2
        assert "invalid_spec" in proc.stderr

"""Integration tests for the remote sweep backend with live TCP workers.

Each test launches real ``sweepworkerctl serve`` subprocesses (ephemeral
ports published through ``--port-file``) and drives them through
``run_sweep``/``RemoteBackend``. Covered here: the bit-identity
determinism matrix serial ≡ process ≡ remote over solver × scheduler ×
kernel modes (which also exercises the welcome-frame env passthrough),
worker SIGKILL mid-sweep with zero lost or duplicated results,
fingerprint-mismatch handshake rejection, straggler re-dispatch with
loser discard, task-error propagation, warm-cache admission that never
dials out, and the worker CLI itself. Scheduler-level unit tests (no
sockets) live in ``test_backends.py``.
"""

import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.cache import ResultCache
from repro.experiments.backends import RemoteBackend
from repro.experiments.backends.remote import (
    NoWorkersError,
    RemoteTaskError,
)
from repro.experiments.executor import SweepTask, run_sweep
from repro.experiments.specs import run_spec

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Environment knobs that must not leak from the test runner into
#: worker subprocesses (the welcome frame is what configures them).
_MODE_KEYS = ("REPRO_FAST", "REPRO_SOLVER", "REPRO_KERNEL",
              "REPRO_SCHEDULER", "REPRO_TRACE", "REPRO_CACHE",
              "REPRO_PARALLEL", "REPRO_BACKEND", "REPRO_WORKERS")


def _worker_env():
    env = {key: value for key, value in os.environ.items()
           if key not in _MODE_KEYS}
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    return env


def start_worker(tmp_path, name, *, fingerprint=None, once=False):
    """Launch one worker subprocess; returns ``(proc, "host:port")``."""
    port_file = tmp_path / f"{name}.port"
    cmd = [sys.executable, "-m", "repro.tools.sweepworkerctl", "serve",
           "--port", "0", "--port-file", str(port_file),
           "--tag", name, "--max-idle", "120"]
    if fingerprint is not None:
        cmd += ["--fingerprint", fingerprint]
    if once:
        cmd.append("--once")
    proc = subprocess.Popen(
        cmd, cwd=str(REPO_ROOT), env=_worker_env(),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if port_file.exists():
            text = port_file.read_text().strip()
            if text:
                return proc, text
        if proc.poll() is not None:
            raise RuntimeError(
                f"worker {name} died on startup:\n"
                f"{proc.stdout.read().decode(errors='replace')}")
        time.sleep(0.02)
    proc.kill()
    raise RuntimeError(f"worker {name} never published its port")


@pytest.fixture
def fleet(tmp_path):
    """Two live localhost workers; killed (if needed) on teardown."""
    procs = []
    addrs = []
    for i in range(2):
        proc, addr = start_worker(tmp_path, f"w{i}")
        procs.append(proc)
        addrs.append(addr)
    yield addrs
    for proc in procs:
        if proc.poll() is None:
            proc.terminate()
    for proc in procs:
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()


def _sleep_echo(duration, x):
    time.sleep(duration)
    return x


def _boom(x):
    raise ValueError(f"task {x} exploded")


def _read_mode_env():
    return {"fast": os.environ.get("REPRO_FAST"),
            "solver": os.environ.get("REPRO_SOLVER")}


def _laggard(sentinel, x):
    """First caller (exclusive sentinel create) sleeps; later ones are
    instant — so whichever replica runs second wins the race."""
    try:
        fd = os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        os.close(fd)
    except FileExistsError:
        return x
    time.sleep(8.0)
    return x


def _result_bits(result):
    """Bit-exact fingerprint of an ExperimentResult (no rounding)."""
    return (
        result.strategy, result.ncores, result.run_time,
        result.drain_time,
        tuple(p.duration for p in result.phases),
        tuple(p.rank_times.tobytes() for p in result.phases),
    )


def _small_specs():
    return [
        {"preset": "grid5000", "ncores": 24,
         "strategy": {"kind": "damaris"}, "seed": 7, "write_phases": 1},
        {"preset": "grid5000", "ncores": 24,
         "strategy": {"kind": "fpp"}, "seed": 7, "write_phases": 1},
        {"preset": "grid5000", "ncores": 48,
         "strategy": {"kind": "damaris"}, "seed": 11, "write_phases": 1},
    ]


class TestDeterminismMatrix:
    """serial ≡ process ≡ remote, across run-mode env knobs.

    The remote leg doubles as the env-passthrough test: the workers are
    launched in a *vanilla* environment, so they only produce identical
    bits if the welcome frame really carries the coordinator's
    solver/scheduler/kernel modes across the wire.
    """

    MATRIX = [
        {"REPRO_SOLVER": "component", "REPRO_SCHEDULER": "calendar"},
        {"REPRO_SOLVER": "global", "REPRO_SCHEDULER": "heap"},
    ]

    def test_matrix_bit_identity(self, fleet, monkeypatch):
        tasks = [SweepTask(run_spec, (spec,)) for spec in _small_specs()]
        monkeypatch.setenv("REPRO_WORKERS", ",".join(fleet))
        for modes in self.MATRIX:
            for key in _MODE_KEYS:
                monkeypatch.delenv(key, raising=False)
            monkeypatch.setenv("REPRO_WORKERS", ",".join(fleet))
            for key, value in modes.items():
                monkeypatch.setenv(key, value)
            serial = run_sweep(tasks, cache=False, backend="serial")
            process = run_sweep(tasks, parallel=2, cache=False,
                                backend="process")
            remote = run_sweep(tasks, cache=False, backend="remote")
            serial_bits = [_result_bits(r) for r in serial]
            assert [_result_bits(r) for r in process] == serial_bits, \
                f"process != serial under {modes}"
            assert [_result_bits(r) for r in remote] == serial_bits, \
                f"remote != serial under {modes}"

    def test_compiled_kernel_cell(self, fleet, monkeypatch):
        from repro.des.kernels import kernel_status
        if kernel_status() == "unavailable":
            pytest.skip("no compiled kernel backend in this environment")
        tasks = [SweepTask(run_spec, (spec,))
                 for spec in _small_specs()[:2]]
        for key in _MODE_KEYS:
            monkeypatch.delenv(key, raising=False)
        monkeypatch.setenv("REPRO_WORKERS", ",".join(fleet))
        monkeypatch.setenv("REPRO_KERNEL", "compiled")
        serial = run_sweep(tasks, cache=False, backend="serial")
        remote = run_sweep(tasks, cache=False, backend="remote")
        assert [_result_bits(r) for r in remote] == \
            [_result_bits(r) for r in serial]


class TestCrashRecovery:
    def test_sigkill_mid_sweep_no_lost_or_duplicated(self, tmp_path):
        procs, addrs = [], []
        for i in range(2):
            proc, addr = start_worker(tmp_path, f"k{i}")
            procs.append(proc)
            addrs.append(addr)
        try:
            tasks = [(i, SweepTask(_sleep_echo, (0.15, i)))
                     for i in range(10)]
            backend = RemoteBackend(addrs, chunk_cap=2)
            outcomes = []
            killed = []
            for outcome in backend.run_tasks(tasks):
                outcomes.append(outcome)
                if not killed:
                    # First completion: one worker certainly holds
                    # in-flight tasks — SIGKILL it mid-batch.
                    procs[0].send_signal(signal.SIGKILL)
                    killed.append(procs[0].pid)
            assert killed, "kill never happened"
            # Zero lost: every index came back exactly once, with the
            # right value, despite the crash.
            indices = [o.index for o in outcomes]
            assert sorted(indices) == list(range(10))
            assert len(set(indices)) == 10
            assert {o.index: o.value for o in outcomes} == {
                i: i for i in range(10)}
            counters = backend.counters()
            assert counters["crashed"] >= 1.0
            assert counters["completed"] == 10.0
            # The survivor carried the requeued work.
            survivors = {o.worker for o in outcomes}
            assert any("k1@" in w for w in survivors)
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()

    def test_all_workers_dead_typed_error(self, tmp_path):
        proc, addr = start_worker(tmp_path, "doomed")
        try:
            tasks = [(i, SweepTask(_sleep_echo, (0.3, i)))
                     for i in range(4)]
            backend = RemoteBackend([addr], max_task_retries=1)
            with pytest.raises(NoWorkersError):
                for n, _outcome in enumerate(backend.run_tasks(tasks)):
                    if n == 0:
                        proc.kill()
        finally:
            if proc.poll() is None:
                proc.kill()


class TestHandshake:
    def test_fingerprint_mismatch_rejected(self, tmp_path):
        proc, addr = start_worker(tmp_path, "stale",
                                  fingerprint="stale-checkout-beef")
        try:
            backend = RemoteBackend([addr], connect_timeout=5.0)
            with pytest.raises(NoWorkersError, match="no admissible"):
                list(backend.run_tasks(
                    [(0, SweepTask(_sleep_echo, (0.0, 0)))]))
            assert backend.counters()["rejected"] == 1.0
            # The worker logged the rejection and kept serving (it is
            # not killed by being refused).
            assert proc.poll() is None
        finally:
            proc.terminate()
            proc.wait(timeout=10)

    def test_mixed_fleet_uses_only_matching_worker(self, tmp_path):
        stale_proc, stale_addr = start_worker(
            tmp_path, "stale", fingerprint="stale-checkout-beef")
        good_proc, good_addr = start_worker(tmp_path, "good")
        try:
            backend = RemoteBackend([stale_addr, good_addr])
            outcomes = list(backend.run_tasks(
                [(i, SweepTask(_sleep_echo, (0.0, i))) for i in range(4)]))
            assert sorted(o.index for o in outcomes) == [0, 1, 2, 3]
            assert all("good@" in o.worker for o in outcomes)
            assert backend.counters()["rejected"] == 1.0
        finally:
            for proc in (stale_proc, good_proc):
                if proc.poll() is None:
                    proc.kill()

    def test_unreachable_worker_counts_rejected(self, fleet):
        # A dead address in the list is skipped; live workers carry on.
        backend = RemoteBackend(["127.0.0.1:1", *fleet],
                                connect_timeout=2.0)
        outcomes = list(backend.run_tasks(
            [(i, SweepTask(_sleep_echo, (0.0, i))) for i in range(4)]))
        assert sorted(o.index for o in outcomes) == [0, 1, 2, 3]
        assert backend.counters()["rejected"] == 1.0


class TestStraggler:
    def test_speculative_redispatch_discards_loser(self, tmp_path, fleet):
        sentinel = tmp_path / "laggard.sentinel"
        tasks = [SweepTask(_laggard, (str(sentinel), 0), label="laggard")]
        tasks += [SweepTask(_sleep_echo, (0.05, i), label=f"fast{i}")
                  for i in range(1, 6)]
        backend = RemoteBackend(fleet, chunk_cap=1)
        start = time.monotonic()
        outcomes = list(backend.run_tasks(list(enumerate(tasks))))
        wall = time.monotonic() - start
        assert sorted(o.index for o in outcomes) == list(range(6))
        assert {o.index: o.value for o in outcomes} == {
            0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 5}
        counters = backend.counters()
        assert counters["speculative"] >= 1.0, counters
        assert counters["completed"] == 6.0
        # The replica (second invocation, instant) won; without the
        # re-dispatch the sweep would block on the 8 s sleep.
        assert wall < 6.0, f"straggler not rescued ({wall:.1f}s)"


class TestTaskErrors:
    def test_task_exception_propagates_with_traceback(self, fleet):
        backend = RemoteBackend(fleet)
        with pytest.raises(RemoteTaskError) as err:
            list(backend.run_tasks([(0, SweepTask(_boom, (13,)))]))
        assert "task 13 exploded" in str(err.value)
        assert "ValueError" in err.value.remote_traceback
        # Deterministic task failures are not retried as crashes.
        assert backend.counters()["requeued"] == 0.0
        # The workers survive a task error and serve the next sweep.
        outcomes = list(backend.run_tasks(
            [(0, SweepTask(_sleep_echo, (0.0, "ok")))]))
        assert outcomes[0].value == "ok"


class TestCacheAdmission:
    def test_warm_sweep_never_dials_out(self, tmp_path, monkeypatch):
        # Address is a black hole: if the warm run constructed the
        # backend, it would fail to connect. Hits must short-circuit.
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        cache = ResultCache(str(tmp_path / "cache"), fingerprint="fp")
        tasks = [SweepTask(_sleep_echo, (0.0, i)) for i in range(3)]
        cold = run_sweep(tasks, parallel=1, cache=cache)
        monkeypatch.setenv("REPRO_WORKERS", "127.0.0.1:1")
        warm = run_sweep(tasks, cache=cache, backend="remote")
        assert warm == cold
        assert cache.stats.hits == 3

    def test_remote_misses_write_back(self, tmp_path, fleet, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        monkeypatch.setenv("REPRO_WORKERS", ",".join(fleet))
        cache = ResultCache(str(tmp_path / "cache"), fingerprint="fp")
        tasks = [SweepTask(_sleep_echo, (0.0, i)) for i in range(4)]
        cold = run_sweep(tasks, cache=cache, backend="remote")
        assert cache.stats.writes == 4
        warm = run_sweep(tasks, cache=cache, backend="serial")
        assert warm == cold
        assert cache.stats.hits == 4


class TestWorkerCli:
    def test_stop_command(self, tmp_path):
        proc, addr = start_worker(tmp_path, "stoppable")
        try:
            res = subprocess.run(
                [sys.executable, "-m", "repro.tools.sweepworkerctl",
                 "stop", addr],
                cwd=str(REPO_ROOT), env=_worker_env(),
                capture_output=True, text=True, timeout=30)
            assert res.returncode == 0, res.stderr
            assert "stoppable" in res.stdout
            assert proc.wait(timeout=10) == 0
        finally:
            if proc.poll() is None:
                proc.kill()

    def test_once_exits_after_one_connection(self, tmp_path):
        proc, addr = start_worker(tmp_path, "oneshot", once=True)
        try:
            backend = RemoteBackend([addr])
            outcomes = list(backend.run_tasks(
                [(0, SweepTask(_sleep_echo, (0.0, "x")))]))
            assert outcomes[0].value == "x"
            assert proc.wait(timeout=10) == 0
        finally:
            if proc.poll() is None:
                proc.kill()

    def test_stop_rejects_non_worker(self, tmp_path):
        res = subprocess.run(
            [sys.executable, "-m", "repro.tools.sweepworkerctl",
             "stop", "127.0.0.1:1"],
            cwd=str(REPO_ROOT), env=_worker_env(),
            capture_output=True, text=True, timeout=30)
        assert res.returncode == 3
        assert "cannot reach" in res.stderr

"""Unit tests for the sweep-backend layer.

Covers the pieces that don't need live TCP workers: the wire protocol
framing, the remote coordinator's scheduler (chunking, crash requeue,
retry limits, straggler speculation, duplicate discard), the local
backends, the registry, and the executor-level regressions the backend
refactor fixed (head-of-line blocking, cache-context mutation).
Everything touching real worker subprocesses lives in
``test_remote_backend.py``.
"""

import os
import socket
import threading
import time

import pytest

from repro.cache import ResultCache
from repro.experiments.backends import (
    Backend,
    BackendError,
    ProcessBackend,
    SerialBackend,
    TaskOutcome,
    default_backend_name,
    make_backend,
)
from repro.experiments.backends.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    recv_msg,
    send_msg,
)
from repro.experiments.backends.remote import (
    NoWorkersError,
    RemoteBackend,
    RemoteBackendError,
    TaskRetryLimitError,
    _Scheduler,
    parse_workers,
)
from repro.experiments.executor import (
    SweepTask,
    env_mode_context,
    resolve_cache_context,
    run_sweep,
)


def _value(x):
    return x * 3


def _sleep_value(args):
    duration, x = args
    time.sleep(duration)
    return x


# ---------------------------------------------------------------------- #
# protocol framing
# ---------------------------------------------------------------------- #
class TestProtocol:
    def _pair(self):
        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        client = socket.create_connection(server.getsockname())
        conn, _ = server.accept()
        server.close()
        return client, conn

    def test_roundtrip(self):
        a, b = self._pair()
        try:
            payload = {"type": "run", "tasks": [(0, "x")], "blob": b"\x00" * 999}
            send_msg(a, payload)
            send_msg(a, [1, 2, 3])
            assert recv_msg(b) == payload
            assert recv_msg(b) == [1, 2, 3]
        finally:
            a.close()
            b.close()

    def test_clean_eof_is_none(self):
        a, b = self._pair()
        a.close()
        try:
            assert recv_msg(b) is None
        finally:
            b.close()

    def test_mid_frame_eof_raises(self):
        a, b = self._pair()
        try:
            a.sendall(b"RSW1" + (123456).to_bytes(8, "big") + b"short")
            a.close()
            with pytest.raises(ProtocolError, match="mid-frame"):
                recv_msg(b)
        finally:
            b.close()

    def test_bad_magic_rejected(self):
        a, b = self._pair()
        try:
            a.sendall(b"HTTP" + (4).to_bytes(8, "big") + b"GET ")
            with pytest.raises(ProtocolError, match="magic"):
                recv_msg(b)
        finally:
            a.close()
            b.close()

    def test_oversized_frame_rejected(self):
        a, b = self._pair()
        try:
            a.sendall(b"RSW1" + (MAX_FRAME_BYTES + 1).to_bytes(8, "big"))
            with pytest.raises(ProtocolError, match="exceeds cap"):
                recv_msg(b)
        finally:
            a.close()
            b.close()

    def test_unpicklable_body_rejected(self):
        a, b = self._pair()
        try:
            a.sendall(b"RSW1" + (4).to_bytes(8, "big") + b"junk")
            with pytest.raises(ProtocolError, match="unpickle"):
                recv_msg(b)
        finally:
            a.close()
            b.close()


# ---------------------------------------------------------------------- #
# address parsing
# ---------------------------------------------------------------------- #
class TestParseWorkers:
    def test_comma_string(self):
        assert parse_workers("a:1, b:2,c:3") == [
            ("a", 1), ("b", 2), ("c", 3)]

    def test_bare_port_is_localhost(self):
        assert parse_workers(":7401 7402") == [
            ("127.0.0.1", 7401), ("127.0.0.1", 7402)]

    def test_tuples_pass_through(self):
        assert parse_workers([("h", 9)]) == [("h", 9)]

    def test_none_and_empty(self):
        assert parse_workers(None) == []
        assert parse_workers("") == []

    @pytest.mark.parametrize("bad", ["host:", "host:zero", "h:99999"])
    def test_bad_addresses_typed_error(self, bad):
        with pytest.raises(RemoteBackendError, match="bad worker address"):
            parse_workers(bad)


# ---------------------------------------------------------------------- #
# the remote scheduler (no sockets: drive it directly)
# ---------------------------------------------------------------------- #
class TestScheduler:
    def _drain_results(self, sched):
        out = []
        while not sched.events.empty():
            kind, payload = sched.events.get_nowait()
            out.append((kind, payload))
        return out

    def test_chunks_shrink_as_queue_drains(self):
        sched = _Scheduler(32, 1, chunk_cap=8)
        sched.worker_ready("w1")
        first = sched.next_batch("w1")
        # 32 pending / (2 workers-slots * 1 active) = 16, capped at 8.
        assert len(first) == 8
        for task_id in first:
            sched.record_result("w1", task_id, task_id, 0.0)
        nxt = sched.next_batch("w1")
        assert len(nxt) == 8  # 24 // 2 = 12 -> cap 8
        for task_id in nxt:
            sched.record_result("w1", task_id, task_id, 0.0)
        assert len(sched.next_batch("w1")) == 8  # 16 // 2 = 8
        # Near the tail the batches shrink to singletons.
        small = _Scheduler(3, 1, chunk_cap=8)
        small.worker_ready("w1")
        assert len(small.next_batch("w1")) == 1

    def test_crash_requeues_inflight(self):
        sched = _Scheduler(4, 2, chunk_cap=4)
        sched.worker_ready("w1")
        sched.worker_ready("w2")
        batch = sched.next_batch("w1")
        assert batch  # w1 holds some tasks
        sched.link_dead("w1", "boom")
        assert sched.counters.crashed == 1
        assert sched.counters.requeued == len(batch)
        # The survivor picks the requeued tasks back up.
        seen = []
        while len(seen) < 4:
            got = sched.next_batch("w2")
            assert got is not None
            for task_id in got:
                sched.record_result("w2", task_id, task_id, 0.0)
                seen.append(task_id)
        assert sorted(seen) == [0, 1, 2, 3]
        assert sched.next_batch("w2") is None

    def test_retry_limit_aborts_typed(self):
        sched = _Scheduler(1, 4, max_task_retries=2)
        for n in range(3):
            worker = f"w{n}"
            sched.worker_ready(worker)
            assert sched.next_batch(worker) == [0]
            sched.link_dead(worker, "boom")
        events = self._drain_results(sched)
        assert events, "retry limit should abort the sweep"
        kind, exc = events[-1]
        assert kind == "abort"
        assert isinstance(exc, TaskRetryLimitError)

    def test_all_workers_lost_aborts(self):
        sched = _Scheduler(2, 1)
        sched.worker_ready("w1")
        sched.next_batch("w1")
        sched.link_dead("w1", "gone")
        kind, exc = self._drain_results(sched)[-1]
        assert kind == "abort"
        assert isinstance(exc, NoWorkersError)

    def test_all_workers_rejected_aborts(self):
        sched = _Scheduler(2, 2)
        sched.link_dead(None, "fingerprint mismatch", rejected=True)
        sched.link_dead(None, "fingerprint mismatch", rejected=True)
        assert sched.counters.rejected == 2
        kind, exc = self._drain_results(sched)[-1]
        assert kind == "abort"
        assert isinstance(exc, NoWorkersError)

    def test_speculation_duplicates_tail_first_result_wins(self):
        sched = _Scheduler(2, 2, chunk_cap=1)
        sched.worker_ready("w1")
        sched.worker_ready("w2")
        assert sched.next_batch("w1") == [0]
        assert sched.next_batch("w2") == [1]
        # w1 finishes; pending is empty, so it speculates w2's task.
        sched.record_result("w1", 0, "a", 0.0)
        assert sched.next_batch("w1") == [1]
        assert sched.counters.speculative == 1
        # w1's replica wins the race; w2's late result is discarded.
        sched.record_result("w1", 1, "b", 0.0)
        sched.record_result("w2", 1, "b", 0.0)
        assert sched.counters.discarded == 1
        assert sched.counters.completed == 2
        results = [payload for kind, payload in self._drain_results(sched)
                   if kind == "result"]
        assert sorted(outcome.index for outcome in results) == [0, 1]

    def test_no_speculation_before_first_completion(self):
        # A sweep smaller than the worker pool must not be doubled up
        # front: speculation waits until at least one real completion.
        sched = _Scheduler(2, 3, chunk_cap=1)
        for worker in ("w1", "w2", "w3"):
            sched.worker_ready(worker)
        assert sched.next_batch("w1") == [0]
        assert sched.next_batch("w2") == [1]
        blocked = []
        thread = threading.Thread(
            target=lambda: blocked.append(sched.next_batch("w3")))
        thread.start()
        thread.join(timeout=0.2)
        assert thread.is_alive(), "w3 should block, not speculate"
        sched.record_result("w1", 0, "a", 0.0)
        thread.join(timeout=5.0)
        assert blocked == [[1]]  # after a completion, w3 speculates
        sched.record_result("w3", 1, "b", 0.0)

    def test_replica_cap_two(self):
        sched = _Scheduler(1, 3, chunk_cap=1)
        for worker in ("w1", "w2", "w3"):
            sched.worker_ready(worker)
        assert sched.next_batch("w1") == [0]
        sched.counters.completed += 1  # enable speculation
        assert sched.next_batch("w2") == [0]
        # Third worker finds no candidate (2 replicas live) and blocks.
        blocked = []
        thread = threading.Thread(
            target=lambda: blocked.append(sched.next_batch("w3")))
        thread.start()
        thread.join(timeout=0.2)
        assert thread.is_alive()
        sched.record_result("w1", 0, "x", 0.0)
        thread.join(timeout=5.0)
        assert blocked == [None]


# ---------------------------------------------------------------------- #
# local backends
# ---------------------------------------------------------------------- #
class TestLocalBackends:
    def test_serial_outcomes(self):
        backend = SerialBackend()
        tasks = [(i, SweepTask(_value, (i,))) for i in range(4)]
        outcomes = list(backend.run_tasks(tasks))
        assert [o.index for o in outcomes] == [0, 1, 2, 3]
        assert [o.value for o in outcomes] == [0, 3, 6, 9]
        assert all(o.worker == f"serial/{os.getpid()}" for o in outcomes)
        assert all(o.duration >= 0.0 for o in outcomes)
        assert backend.counters()["completed"] == 4.0

    def test_process_streams_all_results(self):
        with ProcessBackend(workers=2) as backend:
            tasks = [(i, SweepTask(_value, (i,))) for i in range(8)]
            outcomes = list(backend.run_tasks(tasks))
        assert sorted(o.index for o in outcomes) == list(range(8))
        assert {o.index: o.value for o in outcomes} == {
            i: i * 3 for i in range(8)}
        assert all(o.worker.startswith("pool/") for o in outcomes)

    def test_process_pool_persists_across_sweeps(self):
        with ProcessBackend(workers=1) as backend:
            list(backend.run_tasks([(0, SweepTask(_value, (1,)))]))
            pool = backend._pool
            list(backend.run_tasks([(0, SweepTask(_value, (2,)))]))
            assert backend._pool is pool

    def test_head_of_line_completion_order(self):
        # Regression: map() yielded in submission order, so the slow
        # first task held back every later completion. The backend must
        # stream the fast tasks before the straggler finishes.
        with ProcessBackend(workers=2, chunksize=1) as backend:
            tasks = [(0, SweepTask(_sleep_value, ((1.0, "slow"),)))]
            tasks += [(i, SweepTask(_sleep_value, ((0.0, f"fast{i}"),)))
                      for i in range(1, 6)]
            order = [outcome.index for outcome in backend.run_tasks(tasks)]
        assert order[-1] == 0, f"straggler should finish last: {order}"
        assert sorted(order) == list(range(6))


# ---------------------------------------------------------------------- #
# registry
# ---------------------------------------------------------------------- #
class TestRegistry:
    def test_names(self):
        assert isinstance(make_backend("serial"), SerialBackend)
        backend = make_backend("process", workers=2)
        assert isinstance(backend, ProcessBackend)
        assert backend.workers == 2
        with pytest.raises(BackendError, match="unknown backend"):
            make_backend("carrier-pigeon")

    def test_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert default_backend_name() == "process"
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        assert default_backend_name() == "serial"
        monkeypatch.setenv("REPRO_BACKEND", "bogus")
        with pytest.raises(BackendError, match="REPRO_BACKEND"):
            default_backend_name()

    def test_removed_backend_value_rejected(self, monkeypatch):
        """A deleted backend name is rejected: both the registry and the
        environment reject it, naming the valid options."""
        with pytest.raises(BackendError) as err:
            make_backend("dask")
        monkeypatch.setenv("REPRO_BACKEND", "dask")
        with pytest.raises(BackendError) as env_err:
            default_backend_name()
        for message in (str(err.value), str(env_err.value)):
            for option in ("serial", "process", "remote"):
                assert option in message

    def test_remote_needs_addresses(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        with pytest.raises(RemoteBackendError, match="REPRO_WORKERS"):
            RemoteBackend()


# ---------------------------------------------------------------------- #
# executor integration
# ---------------------------------------------------------------------- #
class TestExecutorBackendIntegration:
    def test_progress_carries_worker_and_duration(self):
        ticks = []
        run_sweep([SweepTask(_value, (i,)) for i in range(3)],
                  parallel=1, cache=False, progress=ticks.append)
        assert [t.done for t in ticks] == [1, 2, 3]
        assert all(t.worker.startswith("serial/") for t in ticks)
        assert all(t.duration >= 0.0 for t in ticks)

    def test_progress_completion_order_with_straggler(self):
        # With the head-of-line fix, the fast tasks' progress ticks
        # arrive before the slow first task's — while the returned
        # list stays in task order.
        ticks = []
        tasks = [SweepTask(_sleep_value, ((0.6, "slow"),))]
        tasks += [SweepTask(_sleep_value, ((0.0, f"f{i}"),))
                  for i in range(1, 5)]
        results = run_sweep(tasks, parallel=2, chunksize=1, cache=False,
                            progress=ticks.append)
        assert results == ["slow", "f1", "f2", "f3", "f4"]
        assert [t.done for t in ticks] == [1, 2, 3, 4, 5]
        assert ticks[-1].index == 0, (
            f"straggler should tick last: {[t.index for t in ticks]}")

    def test_backend_instance_is_borrowed_not_closed(self):
        backend = ProcessBackend(workers=1)
        try:
            out = run_sweep([SweepTask(_value, (2,))], cache=False,
                            backend=backend)
            assert out == [6]
            pool = backend._pool
            assert pool is not None  # still open: caller owns it
            out = run_sweep([SweepTask(_value, (3,))], cache=False,
                            backend=backend)
            assert out == [9]
            assert backend._pool is pool
        finally:
            backend.close()

    def test_warm_cache_never_builds_backend(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        cache = ResultCache(str(tmp_path / "cache"), fingerprint="fp")

        class ExplodingBackend(Backend):
            name = "exploding"

            def run_tasks(self, tasks):
                raise AssertionError("backend touched on a warm sweep")

        tasks = [SweepTask(_value, (i,)) for i in range(3)]
        cold = run_sweep(tasks, parallel=1, cache=cache)
        warm = run_sweep(tasks, cache=cache, backend=ExplodingBackend())
        assert warm == cold
        assert cache.stats.hits == 3

    def test_cache_context_not_mutated(self, tmp_path, monkeypatch):
        # Regression: _resolve_cache used to assign cache.context in
        # place, freezing the first call's env modes into a reused
        # store. The store's context must survive untouched...
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        cache = ResultCache(str(tmp_path / "cache"), fingerprint="fp")
        run_sweep([SweepTask(_value, (1,))], parallel=1, cache=cache)
        assert cache.context is None
        # ...and an explicit context must be respected, not replaced.
        pinned = ResultCache(str(tmp_path / "cache2"), fingerprint="fp",
                             context={"pinned": True})
        run_sweep([SweepTask(_value, (1,))], parallel=1, cache=pinned)
        assert pinned.context == {"pinned": True}
        assert resolve_cache_context(pinned) == {"pinned": True}

    def test_context_follows_env_between_sweeps(self, tmp_path,
                                                monkeypatch):
        # The stale-context bug the fix closes: flipping a mode knob
        # between sweeps over one long-lived store must change the keys
        # (miss), not serve the other mode's results (hit).
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        monkeypatch.delenv("REPRO_FAST", raising=False)
        cache = ResultCache(str(tmp_path / "cache"), fingerprint="fp")
        tasks = [SweepTask(_value, (i,)) for i in range(2)]
        run_sweep(tasks, parallel=1, cache=cache)
        assert cache.stats.misses == 2
        monkeypatch.setenv("REPRO_FAST", "1")
        assert resolve_cache_context(cache) == env_mode_context()
        run_sweep(tasks, parallel=1, cache=cache)
        assert cache.stats.misses == 4, \
            "REPRO_FAST flip must invalidate, not hit"
        run_sweep(tasks, parallel=1, cache=cache)
        assert cache.stats.hits == 2

"""Cache-aware sweep scheduler over pluggable execution backends.

The figure drivers in :mod:`repro.experiments.figures` sweep many
independent ``(ncores, strategy)`` configurations; each one builds its
own :class:`~repro.des.core.Simulator` and machine from an explicit RNG
seed, so they can run in any order — or on other processes and
machines — and produce bit-identical results. This module provides the
scheduling:

- :class:`SweepTask` — a picklable unit of work (top-level function,
  positional args, keyword args, display label);
- :func:`run_sweep` — the cache-aware scheduler: tasks whose result is
  already in the content-addressed store (:mod:`repro.cache`) are
  returned instantly and never reach a backend; the remaining misses go
  to a :class:`~repro.experiments.backends.Backend` — in-process
  serial, a local process pool, TCP sweep workers on other machines
  (:mod:`repro.experiments.backends.remote`) — and are written back as
  they complete. Results stream in **completion order** (one progress
  tick each, with the task's wall ``duration`` and ``worker`` origin)
  but are reassembled **by index**, so every backend returns a
  bit-identical list;
- :func:`default_parallelism` — worker count from the
  ``REPRO_PARALLEL`` environment variable (default ``1`` = serial).

Backend selection: the ``backend`` argument (a registry name or a
:class:`~repro.experiments.backends.Backend` instance) wins, then
``REPRO_BACKEND``, then the historical default — a process pool sized
by ``parallel``/``REPRO_PARALLEL`` that degrades to serial at one
worker. A backend instance passed by the caller is *borrowed* (the
caller keeps pool/socket ownership); anything resolved from a name is
constructed and closed per sweep.

Caching is off unless requested: pass an explicit
:class:`~repro.cache.ResultCache`, or set ``REPRO_CACHE=1`` (location
via ``REPRO_CACHE_DIR``). The normalised run-mode environment
(:func:`env_mode_context`: ``REPRO_FAST``, solver, kernel, scheduler)
is folded into every key because drivers read those knobs
inside the task body; a ``REPRO_TRACE`` run bypasses the cache
entirely, since serving a hit would silently skip the trace files the
task is expected to emit.

Determinism contract: a task must not read or mutate shared state; all
randomness must come from seeds carried in its arguments. Every task in
``figures.py`` satisfies this by passing the seed down to
``PlatformPreset.build``.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.cache.store import ResultCache, cache_from_env
from repro.experiments.backends import (
    Backend,
    BackendError,
    ProcessBackend,
    SerialBackend,
    default_backend_name,
    make_backend,
    pool_chunksize,
)

__all__ = ["SweepProgress", "SweepTask", "default_parallelism",
           "env_mode_context", "pool_chunksize", "resolve_cache_context",
           "run_sweep"]

#: ``Backend.name`` → ``SweepProgress.source``. The local backends keep
#: their historical spellings; new backends tick as their own names.
_SOURCE_NAMES = {"serial": "serial", "process": "pool"}


@dataclass(frozen=True)
class SweepTask:
    """One picklable unit of sweep work.

    ``fn`` must be a module-level callable (pickled by qualified name)
    and its arguments must be picklable; lambdas and closures will fail
    as soon as a parallel run is requested, so they are rejected upfront.
    """

    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    label: str = ""

    def __post_init__(self) -> None:
        name = getattr(self.fn, "__name__", "")
        qualname = getattr(self.fn, "__qualname__", name)
        if name == "<lambda>" or "<locals>" in qualname:
            raise TypeError(
                f"SweepTask fn must be a module-level function, got "
                f"{qualname!r} (not picklable for process pools)")

    def run(self) -> Any:
        return self.fn(*self.args, **self.kwargs)


def default_parallelism() -> int:
    """Worker count requested via ``REPRO_PARALLEL`` (default 1).

    A malformed or non-positive value falls back to serial execution,
    with a warning naming the bad value — silently ignoring a typo like
    ``REPRO_PARALLEL=eight`` would quietly forfeit the whole speedup.
    """
    raw = os.environ.get("REPRO_PARALLEL", "").strip()
    if not raw:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        warnings.warn(
            f"REPRO_PARALLEL={raw!r} is not an integer; running serially",
            RuntimeWarning, stacklevel=2)
        return 1
    if workers < 1:
        warnings.warn(
            f"REPRO_PARALLEL={raw!r} must be a positive worker count; "
            f"running serially", RuntimeWarning, stacklevel=2)
        return 1
    return workers


@dataclass(frozen=True)
class SweepProgress:
    """One progress tick of :func:`run_sweep`.

    ``done`` counts every finished task — cache hits, bypasses and
    backend results alike — through one accounting path, so a consumer
    always observes ``done`` advancing by exactly 1 per event, from 1
    to ``total``, regardless of how the hit/miss partition interleaves
    with parallel completion. ``index`` is the task's position in the
    submitted list; ``source`` says how the result was produced;
    ``worker`` names the execution site (``pool/<pid>``, a remote
    worker tag, empty for cache hits) and ``duration`` is the task's
    wall time on that worker (0.0 for hits).
    """

    done: int
    total: int
    hits: int
    computed: int
    index: int
    source: str  # "cache" | "serial" | "pool" | "remote"
    label: str = ""
    worker: str = ""
    duration: float = 0.0


def env_mode_context() -> Dict[str, Any]:
    # The drivers read REPRO_FAST (phase counts), REPRO_SOLVER
    # (bandwidth-share strategy — at the cluster models' nonzero
    # fairness_slack the solvers batch freeze rounds differently),
    # REPRO_KERNEL and REPRO_SCHEDULER *inside* the task body, so two
    # runs with identical task arguments can differ across these modes;
    # fold the normalised values into every cache key. (Kernel and
    # scheduler are bit-identity-tested against their fallbacks, so for
    # them the fold is a guard, not a correctness requirement.)
    from repro.des.bandwidth import _resolve_solver
    from repro.des.kernels import resolve_kernel
    from repro.des.sched import resolve_scheduler

    fast = os.environ.get("REPRO_FAST", "") not in ("", "0", "false")
    return {"repro_fast": fast, "repro_solver": _resolve_solver(None),
            "repro_kernel": resolve_kernel(None),
            "repro_scheduler": resolve_scheduler(None)}


def resolve_cache_context(store: ResultCache) -> Any:
    """The key context for this run: the store's own, else the env modes.

    A store constructed with an explicit ``context`` keeps it (tests
    pin contexts this way); one without gets the *current*
    :func:`env_mode_context` per call — never written back onto the
    store, so a long-lived cache follows environment-mode changes
    between sweeps instead of freezing the modes of its first use.
    """
    if store.context is not None:
        return store.context
    return env_mode_context()


def _resolve_cache(cache: Union[ResultCache, None, bool],
                   ) -> Optional[ResultCache]:
    if cache is False:
        return None
    if isinstance(cache, ResultCache):
        return cache
    return cache_from_env(context=env_mode_context())


def _resolve_backend(backend: Union[str, Backend, None],
                     workers: int, nmisses: int,
                     chunksize: Optional[int]) -> Tuple[Backend, bool]:
    """``(backend, owned)`` for this sweep's misses.

    Name resolution: an explicit argument, else ``REPRO_BACKEND``, else
    ``process`` — which (historically) degrades to in-process serial
    when one worker or one miss makes a pool pure overhead.
    """
    if isinstance(backend, Backend):
        return backend, False
    name = backend if backend is not None else default_backend_name()
    name = name.strip().lower()
    if name == "process" and min(workers, nmisses) <= 1:
        return SerialBackend(), True
    if name == "process":
        return ProcessBackend(workers=workers, chunksize=chunksize), True
    return make_backend(name), True


def _trace_backend(backend: Backend, trace_dir: str, total: int,
                   hits: int, computed: int) -> None:
    # One "backend" event per sweep, appended to a single jsonl next to
    # the per-config trace files; tracereport --by backend feeds on it.
    from repro.observe.export import to_jsonl
    from repro.observe.tracer import Tracer

    tracer = Tracer()
    tracer.record_event(
        "backend", "sweep", backend.name, time=0.0,
        total=total, hits=hits, computed=computed,
        **backend.counters())
    os.makedirs(trace_dir, exist_ok=True)
    path = os.path.join(trace_dir, "sweep-backend.jsonl")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(to_jsonl(tracer))


def run_sweep(tasks: Iterable[SweepTask],
              parallel: Optional[int] = None,
              cache: Union[ResultCache, None, bool] = None,
              chunksize: Optional[int] = None,
              progress: Optional[Callable[[SweepProgress], None]] = None,
              backend: Union[str, Backend, None] = None,
              ) -> List[Any]:
    """Run every task and return their results **in task order**.

    ``backend`` picks the execution backend for cache misses: a
    registry name (``serial`` | ``process`` | ``remote``), a
    ready :class:`~repro.experiments.backends.Backend` instance (the
    caller keeps ownership — useful to reuse one process pool or one
    set of remote connections across sweeps), or ``None`` to consult
    ``REPRO_BACKEND`` and fall back to the historical behaviour:
    ``parallel=None`` consults :func:`default_parallelism`, and one
    worker (or a single miss) runs serially in-process with no pool
    overhead. Cache hits never reach the backend — with a fully warm
    cache no pool is spawned and no connection is dialed.

    ``cache=None`` consults the environment (``REPRO_CACHE`` /
    ``REPRO_CACHE_DIR``); ``cache=False`` forces caching off; an
    explicit :class:`~repro.cache.ResultCache` is used as-is — its
    ``context`` attribute is respected when set and **never mutated**
    (see :func:`resolve_cache_context`). Hits are returned without
    running the task; misses are executed and written back atomically
    *as each one completes* — a slow straggler cannot delay persisting
    its finished peers — then an LRU eviction pass bounds the store
    size. With ``REPRO_TRACE`` set every task is a *bypass*: trace
    files are a side effect a cache hit would skip.

    ``progress`` is called once per finished task, in true completion
    order, with a :class:`SweepProgress` whose ``done`` counter is
    strictly monotonic: cache hits served in the parent and results
    arriving from backends are counted through the same accounting
    path, so totals can never be observed out of order however
    completion interleaves. Results are reassembled by task index, so
    the returned list is bit-identical across backends for
    deterministic tasks.
    """
    task_list = list(tasks)
    total = len(task_list)
    workers = default_parallelism() if parallel is None \
        else max(1, int(parallel))
    workers = min(workers, max(1, total))
    store = _resolve_cache(cache)
    trace_dir = os.environ.get("REPRO_TRACE", "")
    if store is not None and trace_dir:
        store.record_bypass(total)
        store.flush()
        store = None

    done = hits = computed_count = 0

    def _advance(index: int, source: str, label: str,
                 worker: str = "", duration: float = 0.0) -> None:
        # The single accounting path: every finished task — cache hit,
        # bypass or backend result — passes through here exactly once.
        nonlocal done, hits, computed_count
        done += 1
        if source == "cache":
            hits += 1
        else:
            computed_count += 1
        if progress is not None:
            progress(SweepProgress(
                done=done, total=total, hits=hits,
                computed=computed_count, index=index, source=source,
                label=label, worker=worker, duration=duration))

    results: List[Any] = [None] * total
    keys: Dict[int, Optional[str]] = {}
    if store is None:
        pending: List[Tuple[int, SweepTask]] = list(enumerate(task_list))
    else:
        context = resolve_cache_context(store)
        pending = []
        for i, task in enumerate(task_list):
            key = store.key_for(task.fn, task.args, task.kwargs,
                                context=context)
            if key is None:
                store.record_bypass()
                pending.append((i, task))
                continue
            hit, value = store.get(key)
            if hit:
                results[i] = value
                _advance(i, "cache", task.label)
            else:
                keys[i] = key
                pending.append((i, task))

    if pending:
        engine, owned = _resolve_backend(
            backend, workers, len(pending), chunksize)
        source = _SOURCE_NAMES.get(engine.name, engine.name)
        labels = {i: task.label for i, task in pending}
        seen: set = set()
        try:
            for outcome in engine.run_tasks(pending):
                if outcome.index in seen:
                    raise BackendError(
                        f"backend {engine.name!r} returned task "
                        f"{outcome.index} twice")
                seen.add(outcome.index)
                results[outcome.index] = outcome.value
                _advance(outcome.index, source, labels[outcome.index],
                         worker=outcome.worker,
                         duration=outcome.duration)
                if store is not None:
                    key = keys.get(outcome.index)
                    if key is not None:
                        task = task_list[outcome.index]
                        fn = task.fn
                        store.put(key, outcome.value, meta={
                            "fn": f"{getattr(fn, '__module__', '?')}."
                                  f"{getattr(fn, '__qualname__', '?')}",
                            "label": task.label,
                        })
            missing = [i for i, _task in pending if i not in seen]
            if missing:
                raise BackendError(
                    f"backend {engine.name!r} never returned task(s) "
                    f"{missing[:8]}{'...' if len(missing) > 8 else ''}")
            if trace_dir:
                _trace_backend(engine, trace_dir, total, hits,
                               computed_count)
        finally:
            if owned:
                engine.close()

    if store is not None:
        store.flush()
        if store.total_bytes() > store.max_bytes:
            store.evict()
            store.flush()
    return results

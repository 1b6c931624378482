"""The event scheduler of :class:`repro.des.core.Simulator`.

The simulator's pending-event set is a priority queue ordered by
``(time, priority, seq)``. The engine runs a calendar queue in the
classic DES-scheduler tradition: a window of time-bucketed sorted lists
gives O(1)-ish push/pop when events cluster (a write storm schedules
thousands of completion ticks into a narrow time band), while a *far
heap* absorbs everything beyond the current window — the heap fallback
for sparse or irregular regimes. When the window drains, it snaps
forward to the earliest far event and resizes its bucket count/width
from the pending population.

It pops in exactly the total order of a plain binary heap: equal times
land in the same bucket, buckets are kept sorted on the full ``(time,
priority, seq)`` key, and bucket time-ranges are disjoint and ascending
— so the head of the first non-empty bucket *is* the global minimum.
The binary heap lives on as a test oracle
(``tests/oracles/heap.py``, swapped into a fresh simulator by
``heap_simulator()``); ``tests/test_kernel_equivalence.py`` asserts
that whole runs are bit-identical under both queues.

Scheduling into the past is a bug in the caller, and the bucket-0 clamp
used to accept it silently (window times before ``win_start`` all
collapse into the first bucket). The queue keeps a *pop watermark* —
the time of the last popped entry — and ``push`` raises
:class:`~repro.errors.SimulationError` for any time strictly below it,
mirroring the simulator's own past-scheduling guard on
``call_at``/``schedule_callback_at``. Pushing *at* the watermark stays
legal: triggering an urgent event at the current timestamp is ordinary
DES usage.
"""

from __future__ import annotations

import heapq
import math
from bisect import insort
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import SimulationError

__all__ = [
    "SCHED_CALENDAR",
    "CalendarScheduler",
    "resolve_scheduler",
]

#: Calendar-queue scheduler (bucketed window + far-heap fallback).
SCHED_CALENDAR = "calendar"

_Entry = Tuple[float, int, int, Any]


def resolve_scheduler(_scheduler: None = None) -> str:
    """The scheduler the engine runs: always ``calendar``. Kept, with its
    ignored argument, for perfbench's set-up probe."""
    return SCHED_CALENDAR


def _past_push_error(time: float, watermark: float) -> SimulationError:
    """A push strictly before the last popped time (caller bug)."""
    return SimulationError(
        f"cannot schedule into the past (time={time}, last popped "
        f"time={watermark})")


class CalendarScheduler:
    """Calendar queue with an auto-resizing bucket window and far-heap.

    Entries with ``time < win_end`` live in ``nbuckets`` sorted lists
    covering ``[win_start, win_end)`` in equal ``width`` slices (times
    before ``win_start`` but at or after the pop watermark clamp into
    bucket 0, which keeps the first-non-empty-bucket-head-is-minimum
    property because clamped times sort before everything else there;
    times before the watermark are rejected outright). Entries at
    or beyond ``win_end`` — including ``inf`` sentinels — wait in a
    binary far-heap. Popping scans forward from the current bucket
    cursor; when the window is empty the queue either pops straight from
    the far-heap (non-finite head) or advances: the window snaps to the
    earliest far time, bucket count and width are re-derived from the
    far population (count → next power of two, width → mean gap of a
    head sample), and every far entry inside the new window migrates.
    ``on_resize`` fires on each advance/growth with the stats dict, so
    the simulator can surface resize events through the tracer.
    """

    name = SCHED_CALENDAR

    #: Bucket-count bounds; growth doubles within these.
    MIN_BUCKETS = 8
    MAX_BUCKETS = 1 << 15
    #: Mid-window growth trigger: average bucket occupancy above this
    #: re-buckets the window at the next power of two.
    MAX_LOAD = 8
    #: Far-heap head sample used to derive the bucket width.
    WIDTH_SAMPLE = 64

    __slots__ = ("_buckets", "_far", "_cur", "_nbucketed", "_win_start",
                 "_win_end", "_width", "_watermark", "resizes",
                 "migrations", "max_pending", "on_resize")

    def __init__(self) -> None:
        self._buckets: List[List[_Entry]] = [
            [] for _ in range(self.MIN_BUCKETS)]
        self._far: List[_Entry] = []
        self._cur = 0
        self._nbucketed = 0
        self._win_start = 0.0
        self._width = 1.0
        self._win_end = self.MIN_BUCKETS * 1.0
        self._watermark = -math.inf
        self.resizes = 0
        self.migrations = 0
        self.max_pending = 0
        self.on_resize: Optional[Callable[[Dict[str, Any]], None]] = None

    # -- queue interface ---------------------------------------------- #

    def push(self, time: float, priority: int, seq: int,
             entry: Any) -> None:
        if time < self._watermark:
            raise _past_push_error(time, self._watermark)
        item = (time, priority, seq, entry)
        if time >= self._win_end:
            heapq.heappush(self._far, item)
        else:
            buckets = self._buckets
            idx = int((time - self._win_start) / self._width)
            if idx < 0:
                idx = 0
            elif idx >= len(buckets):
                idx = len(buckets) - 1
            insort(buckets[idx], item)
            if idx < self._cur:
                self._cur = idx
            self._nbucketed += 1
            if (self._nbucketed > self.MAX_LOAD * len(buckets)
                    and len(buckets) < self.MAX_BUCKETS):
                self._grow_window()
        pending = self._nbucketed + len(self._far)
        if pending > self.max_pending:
            self.max_pending = pending

    def pop(self) -> _Entry:
        if self._nbucketed == 0:
            far = self._far
            if not far:
                raise IndexError("pop from an empty scheduler")
            if not math.isfinite(far[0][0]):
                # inf (or nan-free non-finite) sentinels never enter the
                # window; serve them heap-style.
                item = heapq.heappop(far)
                self._watermark = item[0]
                return item
            self._advance_window()
            if self._nbucketed == 0:  # pragma: no cover - defensive
                item = heapq.heappop(far)
                self._watermark = item[0]
                return item
        buckets = self._buckets
        cur = self._cur
        last = len(buckets) - 1
        while not buckets[cur] and cur < last:
            cur += 1
        self._cur = cur
        self._nbucketed -= 1
        item = buckets[cur].pop(0)
        self._watermark = item[0]
        return item

    def peek_time(self) -> float:
        if self._nbucketed:
            buckets = self._buckets
            cur = self._cur
            last = len(buckets) - 1
            while not buckets[cur] and cur < last:
                cur += 1
            self._cur = cur
            return buckets[cur][0][0]
        if self._far:
            return self._far[0][0]
        return math.inf

    def __len__(self) -> int:
        return self._nbucketed + len(self._far)

    def entries(self) -> List[_Entry]:
        """Pending entries in pop order (a sorted snapshot)."""
        flat: List[_Entry] = []
        for bucket in self._buckets:
            flat.extend(bucket)
        flat.extend(self._far)
        flat.sort(key=lambda item: item[:3])
        return flat

    # -- window management -------------------------------------------- #

    def _grow_window(self) -> None:
        """Double the bucket count over the *same* time window.

        Shrinking the width without moving ``win_end`` keeps the
        far-heap invariant (all far times ≥ ``win_end``) untouched, so
        only the bucketed entries re-shelve. Concatenated in bucket
        order they are already globally sorted (disjoint ascending time
        ranges; bucket-0 clamping only prepends earlier times), so the
        rebuild appends — no per-entry insort.
        """
        old = self._buckets
        nbuckets = min(len(old) * 2, self.MAX_BUCKETS)
        width = (self._win_end - self._win_start) / nbuckets
        buckets: List[List[_Entry]] = [[] for _ in range(nbuckets)]
        win_start = self._win_start
        last = nbuckets - 1
        for bucket in old:
            for item in bucket:
                idx = int((item[0] - win_start) / width)
                if idx < 0:
                    idx = 0
                elif idx > last:
                    idx = last
                buckets[idx].append(item)
        self._buckets = buckets
        self._width = width
        self._cur = 0
        self.resizes += 1
        self._emit_resize()

    def _advance_window(self) -> None:
        """Snap the (drained) window onto the earliest far event.

        Bucket count tracks the far population; width is the mean gap
        over a head sample of far times, so a burst of co-scheduled
        completions gets a narrow dense window while sparse regimes get
        a wide one (and mostly stay on the far-heap).
        """
        far = self._far
        t0 = far[0][0]
        finite = [item[0] for item in far[:self.WIDTH_SAMPLE]
                  if math.isfinite(item[0])]
        span = (max(finite) - min(finite)) if finite else 0.0
        if span > 0.0 and len(finite) > 1:
            width = span / (len(finite) - 1)
        else:
            width = self._width if self._width > 0.0 else 1.0
        nbuckets = self.MIN_BUCKETS
        while nbuckets < len(far) and nbuckets < self.MAX_BUCKETS:
            nbuckets *= 2
        win_end = t0 + nbuckets * width
        buckets: List[List[_Entry]] = [[] for _ in range(nbuckets)]
        last = nbuckets - 1
        moved = 0
        # heappop yields ascending (time, priority, seq): each bucket is
        # appended in sorted order, no insort needed.
        while far and far[0][0] < win_end:
            item = heapq.heappop(far)
            idx = int((item[0] - t0) / width)
            if idx < 0:
                idx = 0
            elif idx > last:
                idx = last
            buckets[idx].append(item)
            moved += 1
        self._buckets = buckets
        self._width = width
        self._win_start = t0
        self._win_end = win_end
        self._cur = 0
        self._nbucketed = moved
        self.resizes += 1
        self.migrations += moved
        self._emit_resize()

    def _emit_resize(self) -> None:
        hook = self.on_resize
        if hook is not None:
            hook(self.stats)

    @property
    def stats(self) -> Dict[str, Any]:
        return {
            "scheduler": self.name,
            "pending": len(self),
            "buckets": len(self._buckets),
            "width": self._width,
            "far_pending": len(self._far),
            "resizes": self.resizes,
            "migrations": self.migrations,
            "max_pending": self.max_pending,
        }


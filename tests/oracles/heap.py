"""The binary-heap event queue: the calendar queue's oracle.

:class:`HeapScheduler` is the original scheduler of
:class:`repro.des.core.Simulator`. The calendar queue pops in exactly
its ``(time, priority, seq)`` order, so a run on either queue is
bit-identical; :func:`heap_simulator` swaps it into a fresh simulator
and :func:`assert_heap_ran` checks afterwards that every event went
through it.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Dict, List, Tuple

from repro.des import Simulator
from repro.des.sched import _past_push_error

__all__ = ["SCHED_HEAP", "HeapScheduler", "assert_heap_ran",
           "heap_simulator"]

#: The heap's scheduler label.
SCHED_HEAP = "heap"

_Entry = Tuple[float, int, int, Any]


class HeapScheduler:
    """The classic binary heap of ``(time, priority, seq, entry)``."""

    name = SCHED_HEAP

    __slots__ = ("_heap", "_watermark", "pops")

    def __init__(self) -> None:
        self._heap: List[_Entry] = []
        self._watermark = -math.inf
        #: Entries popped so far (the oracle's non-vacuity counter).
        self.pops = 0

    def push(self, time: float, priority: int, seq: int,
             entry: Any) -> None:
        if time < self._watermark:
            raise _past_push_error(time, self._watermark)
        heapq.heappush(self._heap, (time, priority, seq, entry))

    def pop(self) -> _Entry:
        item = heapq.heappop(self._heap)
        self._watermark = item[0]
        self.pops += 1
        return item

    def peek_time(self) -> float:
        heap = self._heap
        return heap[0][0] if heap else math.inf

    def __len__(self) -> int:
        return len(self._heap)

    def entries(self) -> List[_Entry]:
        """Pending entries in pop order (a sorted snapshot)."""
        return sorted(self._heap, key=lambda item: item[:3])

    @property
    def stats(self) -> Dict[str, Any]:
        return {"scheduler": self.name, "pending": len(self._heap)}


def heap_simulator() -> Simulator:
    """A fresh :class:`Simulator` whose event queue is the heap."""
    sim = Simulator()
    sim._sched = HeapScheduler()
    sim.scheduler = SCHED_HEAP
    return sim


def assert_heap_ran(sim: Simulator) -> None:
    """The heap served ``sim``: it popped at least one entry, and every
    entry the simulator ever pushed was either popped from it or is
    still pending in it."""
    sched = sim._sched
    assert sim.scheduler == SCHED_HEAP, sim.scheduler
    assert isinstance(sched, HeapScheduler), type(sched)
    assert sched.pops > 0, "the heap popped nothing"
    assert sched.pops + len(sched) == sim._seq, (
        f"the heap saw {sched.pops + len(sched)} of {sim._seq} entries")

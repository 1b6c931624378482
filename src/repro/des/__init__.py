"""Discrete-event simulation kernel.

A small, fast, dependency-free DES in the style of SimPy, tailored to the
needs of the cluster/file-system models in this package:

- :class:`~repro.des.core.Simulator` — the event loop and simulated clock;
- :class:`~repro.des.core.Event`, :class:`~repro.des.core.Timeout` — the
  primitive awaitables;
- :class:`~repro.des.process.Process` — generator-coroutine processes that
  ``yield`` events to wait on them;
- :mod:`~repro.des.resources` — FIFO servers, stores and priority resources;
- :mod:`~repro.des.bandwidth` — a vectorised max-min fair-share flow model
  used for every NIC, link and storage target in the cluster models;
- :mod:`~repro.des.sched` — pluggable event queues (calendar queue and
  binary heap, ``REPRO_SCHEDULER``);
- :mod:`~repro.des.kernels` — the optional compiled water-filling kernel
  (``REPRO_KERNEL``);
- :mod:`~repro.des.rng` — named, deterministic random streams;
- :mod:`~repro.des.monitor` — counters and time series for instrumentation.
"""

from repro.des.core import Event, Simulator, Timeout
from repro.des.kernels import (KERNEL_COMPILED, KERNEL_PYTHON, kernel_status,
                               resolve_kernel)
from repro.des.sched import SCHED_CALENDAR, SCHED_HEAP, resolve_scheduler
from repro.des.process import AllOf, AnyOf, Interrupt, Process
from repro.des.resources import PriorityResource, Resource, Store
from repro.des.bandwidth import (Flow, FlowNetwork, LinkCapacity,
                                 SOLVER_COMPONENT, SOLVER_GLOBAL)
from repro.des.rng import RandomStreams
from repro.des.monitor import Counter, Monitor, TimeSeries

__all__ = [
    "AllOf",
    "AnyOf",
    "Counter",
    "Event",
    "Flow",
    "FlowNetwork",
    "Interrupt",
    "KERNEL_COMPILED",
    "KERNEL_PYTHON",
    "LinkCapacity",
    "Monitor",
    "PriorityResource",
    "Process",
    "RandomStreams",
    "Resource",
    "SCHED_CALENDAR",
    "SCHED_HEAP",
    "SOLVER_COMPONENT",
    "SOLVER_GLOBAL",
    "Simulator",
    "Store",
    "TimeSeries",
    "kernel_status",
    "resolve_kernel",
    "resolve_scheduler",
]

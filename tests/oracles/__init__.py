"""Reference implementations the equivalence suites diff the engine
against.

The engine has one configuration: the component solver, the calendar
queue, and the C kernel whenever it loads (else the numpy solve). Each
alternative that used to be a constructor mode lives here as an oracle
that a helper injects into a product object:

- :func:`heap.heap_simulator` swaps the binary heap into a fresh
  :class:`~repro.des.Simulator`;
- :class:`global_solver.GlobalFlowNetwork` overrides the solve step to
  re-solve the whole network;
- :func:`kernels.force_numpy_kernel` drops a network's compiled kernel;
- :func:`kernels.maxmin_class_solve_py` is the C kernel's scalar spec.

Every injection has an ``assert_*_ran`` check, so an oracle that
silently failed to take effect cannot make a suite vacuous.
:func:`engine` builds a simulator and network from the suites' parameter
strings and :func:`assert_engine_ran` checks both sides after a run.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.des import FlowNetwork, KERNEL_COMPILED, Simulator
from repro.des.sched import CalendarScheduler

from tests.oracles.global_solver import (SOLVER_GLOBAL, GlobalFlowNetwork,
                                         assert_global_ran)
from tests.oracles.heap import (SCHED_HEAP, HeapScheduler, assert_heap_ran,
                                heap_simulator)
from tests.oracles.kernels import (assert_numpy_ran, force_numpy_kernel,
                                   maxmin_class_solve_py)

__all__ = [
    "SCHED_HEAP",
    "SOLVER_GLOBAL",
    "GlobalFlowNetwork",
    "HeapScheduler",
    "assert_engine_ran",
    "assert_global_ran",
    "assert_heap_ran",
    "assert_numpy_ran",
    "engine",
    "force_numpy_kernel",
    "heap_simulator",
    "maxmin_class_solve_py",
]

_SIMULATORS = {"calendar": Simulator, SCHED_HEAP: heap_simulator}
_NETWORKS = {"component": FlowNetwork, SOLVER_GLOBAL: GlobalFlowNetwork}


def engine(kernel: Optional[str] = None, scheduler: str = "calendar",
           solver: str = "component", **net_kwargs
           ) -> Tuple[Simulator, FlowNetwork]:
    """A ``(simulator, network)`` pair with the named oracles injected.

    ``kernel`` is ``None`` (the engine's own choice), ``compiled`` (the
    engine's own choice, which must then be the C kernel) or ``python``
    (the numpy solve, forced); ``scheduler`` is ``calendar`` or
    ``heap``; ``solver`` is ``component`` or ``global``. ``net_kwargs``
    go to the network constructor.
    """
    sim = _SIMULATORS[scheduler]()
    net = _NETWORKS[solver](sim, **net_kwargs)
    if kernel == "python":
        force_numpy_kernel(net)
    elif kernel is not None:
        assert kernel == KERNEL_COMPILED == net.kernel, (kernel, net.kernel)
    return sim, net


def assert_engine_ran(sim: Simulator, net: FlowNetwork,
                      kernel: Optional[str], scheduler: str,
                      solver: str) -> None:
    """After a run of an :func:`engine` pair: each requested oracle
    served it, and each requested engine path is the product's own."""
    if scheduler == SCHED_HEAP:
        assert_heap_ran(sim)
    else:
        assert isinstance(sim._sched, CalendarScheduler), type(sim._sched)
    if solver == SOLVER_GLOBAL:
        assert_global_ran(net)
    else:
        assert type(net) is FlowNetwork, type(net)
    stats = net.solver_stats
    if kernel == "python":
        assert_numpy_ran(net)
    elif net.kernel == KERNEL_COMPILED:
        assert net._kernel_impl is not None, "no compiled kernel attached"
        solved = stats["full_solves"] + stats["component_solves"]
        assert (stats["kernel_solves"] > 0) == (solved > 0), stats

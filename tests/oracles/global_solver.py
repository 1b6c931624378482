"""The whole-network re-solve: the component solver's oracle.

:class:`GlobalFlowNetwork` overrides the one solve step of
:meth:`repro.des.bandwidth.FlowNetwork._recompute`: instead of solving
only the dirty connected components of the contention graph, it solves
every active flow on every structural change. Exact max-min fairness
decomposes over resource-disjoint components, so at
``fairness_slack=0`` both are bit-identical.
"""

from __future__ import annotations

from typing import List

from repro.des import FlowNetwork

__all__ = ["SOLVER_GLOBAL", "GlobalFlowNetwork", "assert_global_ran"]

#: The oracle's solver label (``solver_stats`` and the trace).
SOLVER_GLOBAL = "global"


class GlobalFlowNetwork(FlowNetwork):
    """A :class:`FlowNetwork` that re-solves the whole network."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.solver = SOLVER_GLOBAL
        #: Calls of the overriding solve step (non-vacuity counter).
        self.global_solves = 0

    def _solve(self, arrivals: List[int], structural: bool) -> None:
        """One solve over every active flow (or a fast grant)."""
        self.global_solves += 1
        self._comp_dirty.clear()
        if not structural and arrivals and self._fast_grant(arrivals):
            self._stat_fast_grants += 1
            self._arm_from_finish()
            return
        idx = self._active_indices()
        rates, used = self._maxmin_rates(idx)
        self._rate[idx] = rates
        self._cap_used = used
        self._stat_full_solves += 1
        self._stat_flows_solved += idx.size
        self._arm_from_finish()


def assert_global_ran(net: FlowNetwork) -> None:
    """Every solve of ``net`` went through the whole-network override."""
    stats = net.solver_stats
    assert isinstance(net, GlobalFlowNetwork), type(net)
    assert stats["solver"] == SOLVER_GLOBAL, stats["solver"]
    assert net.global_solves > 0, "the whole-network solve never ran"
    assert stats["component_solves"] == 0, stats
    assert stats["batched_solves"] == 0, stats
    assert stats["full_solves"] + stats["fast_grants"] \
        == net.global_solves, stats

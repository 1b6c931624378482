"""Communicators: rank↔core binding, point-to-point and collectives.

Every MPI call here is a generator *process*: rank code does
``yield from comm.barrier(rank)``. Collective matching follows MPI
semantics — all ranks of a communicator must issue collectives in the same
order; the k-th collective call of each rank joins the k-th rendezvous.

Cost model:

- point-to-point: per-message latency + a bandwidth-shared flow
  (src NIC → fabric → dst NIC);
- barrier: everyone waits for the last arrival plus a log₂(P) latency tree;
- bcast/reduce: log₂(P) rounds of (latency + volume/NIC) — volumes in this
  package are small (metadata, handles), so no flows are spawned;
- gather/allgather: root-side NIC-rx flow of the aggregate volume (the
  root's NIC is the contended resource); allgather's result is one list,
  built once and shared read-only by every rank;
- alltoallv: per-rank egress and ingress flows through NICs and fabric —
  the dominant cost of two-phase collective I/O at scale. Sends are
  sparse ``{dst: bytes}`` mappings, and the last rank to arrive computes
  every rank's egress, ingress and message count in one pass over the
  messages, so one call costs O(P + messages) host work in total, not
  O(P) per rank.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Sequence

from repro.des.core import Event
from repro.des.process import AllOf
from repro.errors import MPIError

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.machine import Machine
    from repro.cluster.node import Core, SMPNode

__all__ = ["Communicator"]


class _Rendezvous:
    """One in-flight collective: counts arrivals, fires when complete."""

    __slots__ = ("expected", "arrived", "event", "payloads", "root_value")

    def __init__(self, sim, expected: int) -> None:
        self.expected = expected
        self.arrived = 0
        self.event = Event(sim)
        self.payloads: Dict[int, Any] = {}
        #: The root's value (bcast), or the result the last arrival
        #: computed once for every rank (allgather, alltoallv).
        self.root_value: Any = None


class Communicator:
    """A group of ranks, each bound to one core of the machine."""

    _next_id = 0

    def __init__(self, machine: "Machine", cores: Sequence["Core"],
                 latency: float = 5e-6) -> None:
        if not cores:
            raise MPIError("a communicator needs at least one rank")
        self.machine = machine
        self.cores: List["Core"] = list(cores)
        self.size = len(self.cores)
        self._nodes: List["SMPNode"] = [core.node for core in self.cores]
        self.latency = latency
        self.id = Communicator._next_id
        Communicator._next_id += 1
        self._rank_seq: List[int] = [0] * len(self.cores)
        self._pending: Dict[int, _Rendezvous] = {}
        # Point-to-point mailboxes keyed by (dst, tag).
        self._mailboxes: Dict[tuple, List] = {}
        self._recv_waiters: Dict[tuple, List[Event]] = {}

    # ------------------------------------------------------------------ #
    # topology
    # ------------------------------------------------------------------ #
    def node_of(self, rank: int) -> "SMPNode":
        return self._nodes[rank]

    def ranks_on_node(self, node: "SMPNode") -> List[int]:
        return [r for r, n in enumerate(self._nodes) if n is node]

    def split(self, ranks: Sequence[int]) -> "Communicator":
        """Sub-communicator over the given ranks (like MPI_Comm_split)."""
        return Communicator(self.machine,
                            [self.cores[r] for r in ranks],
                            latency=self.latency)

    def compute(self, rank: int, seconds: float,
                stream_name: str = "compute"):
        """Event: rank runs computation (with OS noise)."""
        return self.cores[rank].compute(seconds, stream_name)

    # ------------------------------------------------------------------ #
    # collective plumbing
    # ------------------------------------------------------------------ #
    def _join(self, rank: int) -> _Rendezvous:
        seq = self._rank_seq[rank]
        self._rank_seq[rank] = seq + 1
        rdv = self._pending.get(seq)
        if rdv is None:
            rdv = self._pending[seq] = _Rendezvous(self.machine.sim,
                                                   self.size)
        rdv.arrived += 1
        if rdv.arrived == rdv.expected:
            del self._pending[seq]
        return rdv

    def _tree_depth(self) -> int:
        return max(1, math.ceil(math.log2(max(self.size, 2))))

    # ------------------------------------------------------------------ #
    # collectives
    # ------------------------------------------------------------------ #
    def barrier(self, rank: int):
        """Process: synchronise all ranks."""
        rdv = self._join(rank)
        if rdv.arrived == rdv.expected:
            rdv.event.succeed(delay=self.latency * self._tree_depth())
        yield rdv.event

    def bcast(self, rank: int, value: Any = None, root: int = 0,
              nbytes: float = 0.0):
        """Process: broadcast ``value`` (root's) to all ranks.

        Returns the broadcast value. Volume ``nbytes`` is charged as
        log₂(P) store-and-forward rounds of NIC time.
        """
        rdv = self._join(rank)
        if rank == root:
            rdv.root_value = value
        if rdv.arrived == rdv.expected:
            per_round = nbytes / self.machine.spec.nic_bandwidth
            delay = self._tree_depth() * (self.latency + per_round)
            rdv.event.succeed(delay=delay)
        yield rdv.event
        return rdv.root_value

    def gather(self, rank: int, value: Any, root: int = 0,
               nbytes: float = 0.0):
        """Process: gather per-rank values at the root; root gets the list
        (indexed by rank), others get None."""
        rdv = self._join(rank)
        rdv.payloads[rank] = value
        if rdv.arrived == rdv.expected:
            self._finish_gather(rdv, root, nbytes)
        yield rdv.event
        if rank == root:
            return [rdv.payloads[r] for r in range(self.size)]
        return None

    def _finish_gather(self, rdv: _Rendezvous, root: int,
                       nbytes: float) -> None:
        total = nbytes * (self.size - 1)
        if total <= 0:
            rdv.event.succeed(delay=self.latency * self._tree_depth())
            return
        root_node = self.node_of(root)
        flow = self.machine.flows.transfer(
            [root_node.nic_rx], total, label="gather")
        flow.event.callbacks.append(
            lambda _evt: rdv.event.succeed(delay=self.latency))

    def allgather(self, rank: int, value: Any, nbytes: float = 0.0):
        """Process: every rank gets the list of all values.

        The list is built once and the same object is returned to every
        rank: treat it as read-only.
        """
        rdv = self._join(rank)
        rdv.payloads[rank] = value
        if rdv.arrived == rdv.expected:
            rdv.root_value = [rdv.payloads[r] for r in range(self.size)]
            # Ring allgather: (P-1) rounds; each rank both sends and
            # receives nbytes per round — charge NIC time accordingly.
            per_round = nbytes / self.machine.spec.nic_bandwidth
            delay = (self.size - 1) * (self.latency + per_round) \
                if self.size > 1 else self.latency
            rdv.event.succeed(delay=delay)
        yield rdv.event
        return rdv.root_value

    def reduce(self, rank: int, value: float, op: Callable = sum,
               root: int = 0):
        """Process: reduce scalar values to the root."""
        rdv = self._join(rank)
        rdv.payloads[rank] = value
        if rdv.arrived == rdv.expected:
            rdv.event.succeed(delay=self.latency * self._tree_depth())
        yield rdv.event
        if rank == root:
            return op([rdv.payloads[r] for r in range(self.size)])
        return None

    def allreduce(self, rank: int, value: float, op: Callable = sum):
        """Process: reduce and redistribute (everyone gets the result)."""
        rdv = self._join(rank)
        rdv.payloads[rank] = value
        if rdv.arrived == rdv.expected:
            rdv.event.succeed(delay=2 * self.latency * self._tree_depth())
        yield rdv.event
        return op([rdv.payloads[r] for r in range(self.size)])

    def alltoallv(self, rank: int, sends: Mapping[int, float]):
        """Process: personalised all-to-all of ``sends[dst]`` bytes.

        ``sends`` maps destination rank to volume: MPI's send-counts
        array with the zero entries left out. The dominant costs are
        modelled as one egress flow (this rank's NIC-tx + fabric,
        carrying its inter-node volume) and one ingress flow (NIC-rx),
        plus per-destination message latency. Returns when this rank's
        sends and receives have drained and all ranks arrived.
        """
        for dst in sends:
            if not 0 <= dst < self.size:
                raise MPIError(f"alltoallv to invalid destination rank "
                               f"{dst} (size {self.size})")
        rdv = self._join(rank)
        rdv.payloads[rank] = sends
        if rdv.arrived == rdv.expected:
            rdv.root_value = self._exchange(rdv.payloads)
            rdv.event.succeed()
        yield rdv.event  # rendezvous: volumes of every rank known

        egress, ingress, msg_count = rdv.root_value[rank]
        my_node = self._nodes[rank]
        flows = []
        if egress > 0:
            path = [my_node.nic_tx]
            if self.machine.fabric is not None:
                path.append(self.machine.fabric)
            flows.append(self.machine.flows.transfer(
                path, egress, label="a2a-out").event)
        if ingress > 0:
            flows.append(self.machine.flows.transfer(
                [my_node.nic_rx], ingress, label="a2a-in").event)
        if msg_count:
            flows.append(self.machine.sim.timeout(self.latency * msg_count))
        if flows:
            yield AllOf(self.machine.sim, flows)

    def _exchange(self, payloads: Dict[int, Mapping[int, float]]
                  ) -> List[List[float]]:
        """``[egress, ingress, messages]`` of every rank, from all ranks'
        sends, in one pass over the messages.

        Only inter-node volume counts as egress or ingress. A rank's
        egress is summed in ascending destination order and its ingress
        in ascending source order: the orders of a dense per-rank scan,
        so the float sums are the same.
        """
        nodes = self._nodes
        table = []
        received: Dict[int, List[float]] = {}
        for src in range(self.size):
            src_node = nodes[src]
            egress = []
            count = 0
            for dst, volume in sorted(payloads[src].items()):
                if volume > 0:
                    count += 1
                    if nodes[dst] is not src_node:
                        egress.append(volume)
                        received.setdefault(dst, []).append(volume)
            table.append([sum(egress), 0, count])
        for dst, volumes in received.items():
            table[dst][1] = sum(volumes)
        return table

    # ------------------------------------------------------------------ #
    # point-to-point
    # ------------------------------------------------------------------ #
    def send(self, rank: int, dst: int, payload: Any = None,
             nbytes: float = 0.0, tag: int = 0):
        """Process: send ``payload`` to ``dst`` (completes when delivered)."""
        if not 0 <= dst < self.size:
            raise MPIError(f"invalid destination rank {dst}")
        yield self.machine.sim.timeout(self.latency)
        if nbytes > 0:
            flow = self.machine.send(self.node_of(rank), self.node_of(dst),
                                     nbytes, label=f"p2p.{rank}->{dst}")
            yield flow.event
        key = (dst, tag)
        waiters = self._recv_waiters.get(key)
        if waiters:
            waiters.pop(0).succeed(payload)
        else:
            self._mailboxes.setdefault(key, []).append(payload)

    def recv(self, rank: int, tag: int = 0):
        """Process: receive the next message addressed to ``rank``."""
        key = (rank, tag)
        box = self._mailboxes.get(key)
        if box:
            payload = box.pop(0)
            yield self.machine.sim.timeout(0.0)
            return payload
        event = Event(self.machine.sim)
        self._recv_waiters.setdefault(key, []).append(event)
        payload = yield event
        return payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Communicator id={self.id} size={self.size}>"

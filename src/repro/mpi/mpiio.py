"""MPI-IO: independent and collective writes (ROMIO-style).

Collective writes are the paper's "collective-I/O" baseline (pHDF5 over
MPI-IO). Two ROMIO behaviours are modelled:

- **two-phase** (``mode="two-phase"``, ROMIO's collective buffering, the
  Lustre/GPFS default): all ranks synchronise, ship their data to one
  *aggregator* rank per node, and each aggregator writes its contiguous
  file region in ``cb_buffer``-sized rounds — large requests, few writers,
  but everything drains through the shared file's stripe set and the
  rounds serialise per aggregator;
- **direct** (``mode="direct"``, what ROMIO does on PVFS, which supports
  noncontiguous I/O natively): every rank writes its own region with data
  sieving — no exchange, but N concurrent writers and a bounded access
  granularity (the sieve buffer).

The costs modelled: rendezvous with the slowest rank, exchange flows over
NICs/fabric, stripe-lock conflicts (where the file system has locks),
request-granularity and writer-concurrency penalties at the storage
targets, and the closing barrier — the paper's write phase is "the time
between the two barriers delimiting the I/O phase".
"""

from __future__ import annotations

from itertools import accumulate
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Tuple

from repro.errors import MPIError
from repro.mpi.comm import Communicator
from repro.units import MiB

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.filesystem import FileHandle, ParallelFileSystem

__all__ = ["CollectiveFile", "collective_open", "collective_write",
           "collective_close", "default_aggregators"]


class _PhaseLayout(NamedTuple):
    """Where one write phase's data lands in the file."""

    #: Aggregator rank -> (file offset, bytes) of its contiguous region.
    regions: Dict[int, Tuple[int, int]]
    #: File offset of each rank's own block (direct mode).
    offsets: List[int]


class CollectiveFile:
    """A shared file opened collectively, with aggregator assignment.

    ``aggregators`` must be sorted and distinct (the
    :func:`default_aggregators` layout): each aggregator then serves a
    contiguous run of ranks, so a phase's layout is one running sum.
    """

    def __init__(self, comm: Communicator, fs: "ParallelFileSystem",
                 path: str, aggregators: List[int],
                 handles: Dict[int, "FileHandle"],
                 all_ranks_write: bool = False) -> None:
        self.comm = comm
        self.fs = fs
        self.path = path
        self.aggregators = aggregators
        self.handles = handles  # per-writer FileHandle
        #: The ranks that open a handle (O(1) membership).
        self.writers = range(comm.size) if all_ranks_write \
            else frozenset(aggregators)
        #: Total bytes of each completed write phase, keyed by phase index.
        self.phase_totals: Dict[int, int] = {}
        #: Per-rank count of collective writes issued (phase index).
        self._rank_phase: Dict[int, int] = {}
        size, naggs = comm.size, len(aggregators)
        self._aggregator_table = [aggregators[rank * naggs // size]
                                  for rank in range(size)]
        #: First rank served by each aggregator, plus ``size`` at the end.
        self._spans = [-(-index * size // naggs)
                       for index in range(naggs + 1)]
        self._layouts: Dict[int, _PhaseLayout] = {}

    def _enter_phase(self, rank: int) -> int:
        phase = self._rank_phase.get(rank, 0)
        self._rank_phase[rank] = phase + 1
        return phase

    def offset_of_phase(self, phase: int) -> int:
        """File offset where the given write phase begins."""
        return sum(total for k, total in self.phase_totals.items()
                   if k < phase)

    def aggregator_of(self, rank: int) -> int:
        """The aggregator that rank's data is shipped to."""
        return self._aggregator_table[rank]

    def _layout(self, phase: int, volumes: List[int]) -> _PhaseLayout:
        """The phase's layout, computed by the first rank to ask;
        ``volumes`` is the phase's allgathered per-rank byte counts."""
        layout = self._layouts.get(phase)
        if layout is None:
            self.phase_totals[phase] = int(sum(volumes))
            base = self.offset_of_phase(phase)
            # Rank data is laid out in rank order: a rank's block starts
            # at the sum of the volumes before it.
            before = list(accumulate(volumes, initial=0))
            spans = self._spans
            regions = {
                agg: (base + int(before[start]),
                      int(sum(volumes[start:end])))
                for agg, start, end in zip(self.aggregators, spans,
                                           spans[1:])}
            layout = self._layouts[phase] = _PhaseLayout(
                regions, [base + int(b) for b in before[:-1]])
        return layout


def default_aggregators(comm: Communicator) -> List[int]:
    """One aggregator rank per node (ROMIO's ``cb_config_list`` default)."""
    seen = {}
    for rank, core in enumerate(comm.cores):
        if core.node.index not in seen:
            seen[core.node.index] = rank
    return sorted(seen.values())


def collective_open(comm: Communicator, rank: int,
                    fs: "ParallelFileSystem", path: str,
                    stripe_count: Optional[int] = None,
                    stripe_size: Optional[int] = None,
                    all_ranks_write: bool = False):
    """Process: collectively create + open ``path``; returns CollectiveFile.

    Rank 0 creates the file and picks the aggregators (one per node);
    writer ranks (the aggregators, or everyone when ``all_ranks_write``)
    each open a handle; the result is broadcast.
    """
    shared: Optional[CollectiveFile] = None
    if rank == 0:
        handle0 = yield comm.machine.sim.process(
            fs.create(comm.node_of(0), path,
                      stripe_count=stripe_count, stripe_size=stripe_size))
        shared = CollectiveFile(comm, fs, path, default_aggregators(comm),
                                {0: handle0}, all_ranks_write)
    shared = yield from comm.bcast(rank, shared, root=0, nbytes=512)
    if rank in shared.writers and rank != 0:
        handle = yield comm.machine.sim.process(
            fs.open(comm.node_of(rank), path))
        shared.handles[rank] = handle
    yield from comm.barrier(rank)
    return shared


def collective_write(cfile: CollectiveFile, rank: int, nbytes: int,
                     cb_buffer: int = 16 * MiB):
    """Process: two-phase collective write of ``nbytes`` from each rank.

    Rank data is laid out in rank order at the file's current offset; each
    rank's block is shipped to its aggregator, which writes its contiguous
    region in ``cb_buffer``-sized rounds. All ranks return after the
    closing barrier.
    """
    if cb_buffer < 1:
        raise MPIError(f"cb_buffer must be >= 1, got {cb_buffer}")
    comm = cfile.comm

    phase = cfile._enter_phase(rank)
    volumes = yield from comm.allgather(rank, nbytes, nbytes=8.0)
    layout = cfile._layout(phase, volumes)

    my_aggregator = cfile.aggregator_of(rank)
    sends = {} if rank == my_aggregator \
        else {my_aggregator: float(nbytes)}
    yield from comm.alltoallv(rank, sends)

    if rank in cfile.handles and rank in layout.regions:
        # Aggregate region: the data of every rank mapped to this
        # aggregator, contiguous in file order.
        offset, region = layout.regions[rank]
        # Collective-buffering rounds: cb_buffer bytes at a time.
        position = 0
        while position < region:
            chunk = min(cb_buffer, region - position)
            yield from cfile.fs.write(cfile.handles[rank],
                                      offset + position, chunk,
                                      label="cw")
            position += chunk
    yield from comm.barrier(rank)
    return nbytes


def collective_write_direct(cfile: CollectiveFile, rank: int, nbytes: int,
                            sieve_buffer: int = 4 * MiB):
    """Process: direct (non-aggregated) collective write with data sieving.

    Every rank writes its own rank-ordered region; the storage servers see
    N concurrent writers whose access granularity is the sieve buffer
    (ROMIO's behaviour on PVFS, which handles noncontiguous I/O natively
    and does no client locking)."""
    if sieve_buffer < 1:
        raise MPIError(f"sieve_buffer must be >= 1, got {sieve_buffer}")
    comm = cfile.comm
    if rank not in cfile.handles:
        raise MPIError(
            "direct collective write requires collective_open(..., "
            "all_ranks_write=True)")
    phase = cfile._enter_phase(rank)
    volumes = yield from comm.allgather(rank, nbytes, nbytes=8.0)
    my_offset = cfile._layout(phase, volumes).offsets[rank]
    if nbytes > 0:
        yield from cfile.fs.write(cfile.handles[rank], my_offset,
                                  int(nbytes),
                                  granularity=float(sieve_buffer),
                                  label="cw-direct")
    yield from comm.barrier(rank)
    return nbytes


def collective_close(cfile: CollectiveFile, rank: int):
    """Process: collectively close the shared file."""
    if rank in cfile.handles:
        yield from cfile.fs.close(cfile.handles[rank])
    yield from cfile.comm.barrier(rank)

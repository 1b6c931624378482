"""Unit/integration tests for the MPI-like layer and collective I/O."""

import random

import pytest

from repro.cluster import Machine, MachineSpec, NoNoise
from repro.errors import MPIError
from repro.mpi import Communicator, collective_open, collective_write
from repro.mpi import mpiio
from repro.mpi.mpiio import (
    CollectiveFile,
    collective_close,
    default_aggregators,
)
from repro.storage import Lustre, MetadataSpec, TargetSpec
from repro.units import GiB, MiB


def make_comm(nodes=2, cores=4, **machine_kwargs):
    machine = Machine(
        MachineSpec(nodes=nodes, cores_per_node=cores,
                    mem_bandwidth=8 * GiB, nic_bandwidth=2 * GiB,
                    **machine_kwargs),
        seed=13, noise=NoNoise(), completion_slack=0.0, fairness_slack=0.0)
    return machine, Communicator(machine, machine.all_cores())


def run_ranks(machine, comm, rank_fn):
    """Run rank_fn(rank) as one process per rank; returns list of results."""
    results = [None] * comm.size

    def wrap(rank):
        value = yield from rank_fn(rank)
        results[rank] = value

    for rank in range(comm.size):
        machine.sim.process(wrap(rank))
    machine.sim.run()
    return results


class TestCommunicator:
    def test_needs_ranks(self):
        machine, _ = make_comm()
        with pytest.raises(MPIError):
            Communicator(machine, [])

    def test_size_and_node_mapping(self):
        machine, comm = make_comm(nodes=2, cores=4)
        assert comm.size == 8
        assert comm.node_of(0) is machine.nodes[0]
        assert comm.node_of(7) is machine.nodes[1]
        assert comm.ranks_on_node(machine.nodes[0]) == [0, 1, 2, 3]

    def test_split(self):
        machine, comm = make_comm()
        sub = comm.split([0, 2, 4])
        assert sub.size == 3
        assert sub.node_of(2) is machine.nodes[1]


class TestBarrier:
    def test_all_ranks_leave_after_slowest(self):
        machine, comm = make_comm()
        leave_times = []

        def prog(rank):
            yield machine.sim.timeout(float(rank))  # staggered arrivals
            yield from comm.barrier(rank)
            leave_times.append(machine.sim.now)

        run_ranks(machine, comm, prog)
        assert len(leave_times) == comm.size
        slowest_arrival = comm.size - 1
        assert all(t >= slowest_arrival for t in leave_times)
        assert max(leave_times) - min(leave_times) < 1e-9

    def test_barriers_match_in_order(self):
        machine, comm = make_comm(nodes=1, cores=2)
        log = []

        def prog(rank):
            for phase in range(3):
                yield from comm.barrier(rank)
                log.append((phase, rank))

        run_ranks(machine, comm, prog)
        # Both ranks complete phase k before either completes phase k+1.
        phases = [phase for phase, _ in log]
        assert phases == sorted(phases)


class TestCollectives:
    def test_bcast_distributes_root_value(self):
        machine, comm = make_comm()

        def prog(rank):
            value = "payload" if rank == 2 else None
            got = yield from comm.bcast(rank, value, root=2)
            return got

        assert run_ranks(machine, comm, prog) == ["payload"] * comm.size

    def test_gather_collects_in_rank_order(self):
        machine, comm = make_comm(nodes=1, cores=4)

        def prog(rank):
            got = yield from comm.gather(rank, rank * 10, root=1)
            return got

        results = run_ranks(machine, comm, prog)
        assert results[1] == [0, 10, 20, 30]
        assert results[0] is None

    def test_allgather(self):
        machine, comm = make_comm(nodes=1, cores=4)

        def prog(rank):
            return (yield from comm.allgather(rank, rank))

        for result in run_ranks(machine, comm, prog):
            assert result == [0, 1, 2, 3]

    def test_reduce_and_allreduce(self):
        machine, comm = make_comm(nodes=1, cores=4)

        def prog(rank):
            total = yield from comm.reduce(rank, rank + 1, root=0)
            every = yield from comm.allreduce(rank, rank + 1)
            return total, every

        results = run_ranks(machine, comm, prog)
        assert results[0] == (10, 10)
        assert results[3] == (None, 10)

    def test_alltoallv_validates_length(self):
        """Sends are sparse: the check is that every destination is a
        rank of the communicator."""
        machine, comm = make_comm(nodes=1, cores=2)

        def prog(rank):
            yield from comm.alltoallv(rank, {comm.size: 1.0})

        with pytest.raises(MPIError):
            run_ranks(machine, comm, prog)

    def test_alltoallv_charges_network_time(self):
        machine, comm = make_comm(nodes=2, cores=2)

        def prog(rank):
            # Everyone sends 1 GiB to the diagonally-opposite rank.
            sizes = {(rank + 2) % comm.size: float(1 * GiB)}
            yield from comm.alltoallv(rank, sizes)
            return machine.sim.now

        results = run_ranks(machine, comm, prog)
        # 2 GiB leaves each node through a 2 GiB/s NIC: ~1 s minimum.
        assert min(results) >= 1.0


class TestP2P:
    def test_send_recv_payload(self):
        machine, comm = make_comm(nodes=2, cores=1)

        def prog(rank):
            if rank == 0:
                yield from comm.send(rank, 1, payload={"k": 1},
                                     nbytes=float(2 * GiB))
                return None
            message = yield from comm.recv(rank)
            return (machine.sim.now, message)

        results = run_ranks(machine, comm, prog)
        arrival, message = results[1]
        assert message == {"k": 1}
        assert arrival >= 1.0  # 2 GiB over a 2 GiB/s NIC

    def test_send_to_invalid_rank(self):
        machine, comm = make_comm(nodes=1, cores=2)

        def prog(rank):
            if rank == 0:
                yield from comm.send(rank, 99)
            else:
                yield machine.sim.timeout(0.0)

        with pytest.raises(MPIError):
            run_ranks(machine, comm, prog)

    def test_recv_before_send(self):
        machine, comm = make_comm(nodes=1, cores=2)

        def prog(rank):
            if rank == 1:
                return (yield from comm.recv(rank))
            yield machine.sim.timeout(2.0)
            yield from comm.send(rank, 1, payload="late")
            return None

        results = run_ranks(machine, comm, prog)
        assert results[1] == "late"


class TestCollectiveIO:
    @staticmethod
    def quiet_fs(machine, **kwargs):
        return Lustre(
            machine, ntargets=4,
            target_spec=TargetSpec(straggler_sigma=0.0, request_latency=0.0,
                                   object_half=1e9, stream_half=1e9),
            metadata_spec=MetadataSpec(sigma=0.0),
            **kwargs)

    def test_default_aggregators_one_per_node(self):
        machine, comm = make_comm(nodes=3, cores=4)
        assert default_aggregators(comm) == [0, 4, 8]

    def test_collective_write_produces_one_file_of_right_size(self):
        machine, comm = make_comm(nodes=2, cores=4)
        fs = self.quiet_fs(machine)

        def prog(rank):
            cfile = yield from collective_open(comm, rank, fs, "out.h5")
            yield from collective_write(cfile, rank, 4 * MiB)
            yield from collective_write(cfile, rank, 4 * MiB)
            yield from collective_close(cfile, rank)
            return machine.sim.now

        run_ranks(machine, comm, prog)
        assert fs.file_count == 1
        assert fs.lookup("out.h5").size == 2 * comm.size * 4 * MiB

    def test_only_aggregators_touch_the_filesystem(self):
        machine, comm = make_comm(nodes=2, cores=4)
        fs = self.quiet_fs(machine)

        def prog(rank):
            cfile = yield from collective_open(comm, rank, fs, "out.h5")
            yield from collective_write(cfile, rank, 1 * MiB)
            yield from collective_close(cfile, rank)
            return None

        run_ranks(machine, comm, prog)
        # 2 aggregators wrote; the file saw exactly the payload bytes.
        assert fs.bytes_written == comm.size * 1 * MiB

    def test_all_ranks_finish_simultaneously(self):
        """The write phase ends at a barrier: no rank leaves early."""
        machine, comm = make_comm(nodes=2, cores=4)
        fs = self.quiet_fs(machine)

        def prog(rank):
            cfile = yield from collective_open(comm, rank, fs, "out.h5")
            yield from collective_write(cfile, rank, 4 * MiB)
            return machine.sim.now

        results = run_ranks(machine, comm, prog)
        assert max(results) - min(results) < 1e-6


# ---------------------------------------------------------------------- #
# Oracle: the dense per-rank formulas the O(P) code replaced
# ---------------------------------------------------------------------- #
def dense_exchange(comm, dense, rank):
    """[egress, ingress, messages] of ``rank`` by scanning every rank's
    dense send-counts list (``dense[src][dst]``)."""
    my_node = comm.node_of(rank)
    egress = sum(
        volume for dst, volume in enumerate(dense[rank])
        if volume > 0 and comm.node_of(dst) is not my_node)
    ingress = sum(
        dense[src][rank] for src in range(comm.size)
        if dense[src][rank] > 0 and comm.node_of(src) is not my_node)
    msg_count = sum(1 for volume in dense[rank] if volume > 0)
    return [egress, ingress, msg_count]


def scanned_aggregator_of(aggregators, size, rank):
    return aggregators[rank * len(aggregators) // size]


def scanned_layout(aggregators, size, volumes, base_offset):
    """Aggregator -> (offset, region) and per-rank direct offsets, by
    scanning every rank's aggregator."""
    regions = {}
    for agg in aggregators:
        my_ranks = [r for r in range(size)
                    if scanned_aggregator_of(aggregators, size, r) == agg]
        region = int(sum(volumes[r] for r in my_ranks))
        prefix = int(sum(volumes[r] for r in range(size)
                         if scanned_aggregator_of(aggregators, size, r)
                         < agg))
        regions[agg] = (base_offset + prefix, region)
    offsets = [base_offset + int(sum(volumes[:rank]))
               for rank in range(size)]
    return regions, offsets


def random_comm(rng):
    """A communicator over a random subset of a machine's cores, in
    random order: nodes interleave and carry uneven rank counts."""
    nodes, cores = rng.randint(1, 5), rng.randint(1, 6)
    machine, _ = make_comm(nodes=nodes, cores=cores)
    picked = rng.sample(machine.all_cores(),
                        rng.randint(1, nodes * cores))
    return Communicator(machine, picked)


def random_volume(rng):
    kind = rng.random()
    if kind < 0.25:
        return 0.0
    if kind < 0.5:
        return rng.randint(1, 8 * MiB)
    return rng.uniform(0.0, 8.0 * MiB)


class TestExchangeOracle:
    @pytest.mark.parametrize("seed", range(40))
    def test_sparse_exchange_matches_dense_scan(self, seed):
        rng = random.Random(seed)
        comm = random_comm(rng)
        size = comm.size
        sparse = {}
        for src in range(size):
            # Several destinations, same-node ones and zero volumes
            # included; a rank may also "send" to itself.
            dsts = rng.sample(range(size), rng.randint(0, size))
            sparse[src] = {dst: random_volume(rng) for dst in dsts}
        dense = [[sparse[src].get(dst, 0.0) for dst in range(size)]
                 for src in range(size)]
        table = comm._exchange(sparse)
        for rank in range(size):
            assert table[rank] == dense_exchange(comm, dense, rank)

    @pytest.mark.parametrize("seed", range(40))
    def test_phase_layout_matches_aggregator_scan(self, seed):
        rng = random.Random(1000 + seed)
        comm = random_comm(rng)
        size = comm.size
        aggregators = default_aggregators(comm)
        cfile = CollectiveFile(comm, None, "f", aggregators, {})
        base = 0
        for phase in range(2):
            volumes = [random_volume(rng) for _ in range(size)]
            layout = cfile._layout(phase, volumes)
            assert cfile.phase_totals[phase] == int(sum(volumes))
            regions, offsets = scanned_layout(aggregators, size, volumes,
                                              base)
            assert layout.regions == regions  # two-phase mode
            assert layout.offsets == offsets  # direct mode
            for rank in range(size):
                assert cfile.aggregator_of(rank) == \
                    scanned_aggregator_of(aggregators, size, rank)
            base += int(sum(volumes))

    def test_uneven_ranks_per_aggregator(self):
        machine, _ = make_comm(nodes=3, cores=4)
        cores = machine.all_cores()
        # 4 + 1 + 2 ranks: the r*A//P assignment does not follow nodes.
        comm = Communicator(machine, cores[:4] + cores[4:5] + cores[8:10])
        aggregators = default_aggregators(comm)
        assert aggregators == [0, 4, 5]
        cfile = CollectiveFile(comm, None, "f", aggregators, {})
        volumes = [1.5, 2, 0.0, 3.25, 7, 11.0, 13]
        regions, offsets = scanned_layout(aggregators, comm.size, volumes, 0)
        layout = cfile._layout(0, volumes)
        assert layout.regions == regions
        assert layout.offsets == offsets

    def test_allgather_result_is_shared(self):
        machine, comm = make_comm(nodes=1, cores=3)

        def prog(rank):
            return (yield from comm.allgather(rank, rank))

        results = run_ranks(machine, comm, prog)
        assert results[0] == [0, 1, 2]
        assert all(result is results[0] for result in results)


class TestCollectiveCost:
    """Per-phase host work stays O(P): no per-rank rescans."""

    def test_lookups_per_open_and_per_phase(self, monkeypatch):
        calls = {"default_aggregators": 0, "aggregator_of": 0}
        real_default = mpiio.default_aggregators
        real_lookup = CollectiveFile.aggregator_of

        def counted_default(comm):
            calls["default_aggregators"] += 1
            return real_default(comm)

        def counted_lookup(self, rank):
            calls["aggregator_of"] += 1
            return real_lookup(self, rank)

        monkeypatch.setattr(mpiio, "default_aggregators", counted_default)
        monkeypatch.setattr(CollectiveFile, "aggregator_of", counted_lookup)
        machine, comm = make_comm(nodes=3, cores=4)
        fs = TestCollectiveIO.quiet_fs(machine)
        phases = 2

        def prog(rank):
            cfile = yield from collective_open(comm, rank, fs, "out.h5")
            for _ in range(phases):
                yield from collective_write(cfile, rank, 1 * MiB)
            yield from collective_close(cfile, rank)

        run_ranks(machine, comm, prog)
        assert fs.bytes_written == phases * comm.size * 1 * MiB
        assert calls["default_aggregators"] == 1
        assert calls["aggregator_of"] == phases * comm.size

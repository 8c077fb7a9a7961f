"""Property-based tests for the simulated MPI layer.

Collectives must deliver exact payloads for any rank count, any root,
and any payload shape — these are the invariants every workload builds
on.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.hal import HalConfig
from repro.cluster import make_hal_cluster
from repro.parallel import Communicator
from repro.sim import Engine
from repro.util.units import MiB


def make_comm(num_ranks: int) -> tuple[Engine, Communicator]:
    engine = Engine()
    cluster = make_hal_cluster(
        engine,
        HalConfig(num_nodes=4, cores_per_node=8, dram_per_node=16 * MiB),
    )
    nodes = [cluster.node(r % 4) for r in range(num_ranks)]
    return engine, Communicator(engine, nodes)


@settings(max_examples=25, deadline=None)
@given(
    num_ranks=st.integers(min_value=1, max_value=12),
    root=st.data(),
    payload=st.binary(min_size=0, max_size=4096),
)
def test_bcast_delivers_exact_payload(num_ranks, root, payload):
    engine, comm = make_comm(num_ranks)
    root_rank = root.draw(st.integers(min_value=0, max_value=num_ranks - 1))

    def rank_fn(rank):
        data = payload if rank == root_rank else None
        return (yield from comm.bcast(data, root=root_rank, rank=rank))

    procs = [engine.process(rank_fn(r)) for r in range(num_ranks)]
    results = engine.run_all(procs)
    assert all(r == payload for r in results)


@settings(max_examples=25, deadline=None)
@given(num_ranks=st.integers(min_value=1, max_value=10), seed=st.integers(0, 2**16))
def test_gather_preserves_rank_order_and_values(num_ranks, seed):
    engine, comm = make_comm(num_ranks)
    rng = np.random.default_rng(seed)
    payloads = [rng.random(rng.integers(1, 64)) for _ in range(num_ranks)]

    def rank_fn(rank):
        return (yield from comm.gather(payloads[rank], root=0, rank=rank))

    procs = [engine.process(rank_fn(r)) for r in range(num_ranks)]
    results = engine.run_all(procs)
    gathered = results[0]
    assert len(gathered) == num_ranks
    for rank, item in enumerate(gathered):
        assert np.array_equal(item, payloads[rank])


@settings(max_examples=20, deadline=None)
@given(
    num_ranks=st.integers(min_value=2, max_value=10),
    messages=st.lists(st.integers(), min_size=1, max_size=10),
)
def test_all_to_all_send_recv_is_lossless(num_ranks, messages):
    """Every rank sends its message list to every other; all arrive in
    order, no deadlock regardless of scheduling."""
    engine, comm = make_comm(num_ranks)

    def rank_fn(rank):
        for dest in range(num_ranks):
            if dest != rank:
                for m in messages:
                    yield from comm.send((rank, m), src=rank, dest=dest)
        received = []
        for src in range(num_ranks):
            if src != rank:
                for _ in messages:
                    received.append((yield from comm.recv(source=src, dst=rank)))
        return received

    procs = [engine.process(rank_fn(r)) for r in range(num_ranks)]
    results = engine.run_all(procs)
    for rank, received in enumerate(results):
        expected = [
            (src, m)
            for src in range(num_ranks)
            if src != rank
            for m in messages
        ]
        assert received == expected


@settings(max_examples=15, deadline=None)
@given(num_ranks=st.integers(min_value=1, max_value=12), rounds=st.integers(1, 4))
def test_repeated_barriers_stay_synchronized(num_ranks, rounds):
    engine, comm = make_comm(num_ranks)
    times: list[list[float]] = [[] for _ in range(num_ranks)]

    def rank_fn(rank):
        for round_ in range(rounds):
            yield engine.timeout((rank * 7 % 5) * 0.1 + 0.01)
            yield from comm.barrier(rank=rank)
            times[rank].append(engine.now)
        return True

    procs = [engine.process(rank_fn(r)) for r in range(num_ranks)]
    engine.run_all(procs)
    for round_ in range(rounds):
        instants = {times[rank][round_] for rank in range(num_ranks)}
        assert len(instants) == 1, f"barrier {round_} released at {instants}"


# ----------------------------------------------------------------------
# Inbox lifetime: an inbox exists only while it holds messages or
# waiting receivers
# ----------------------------------------------------------------------
PATTERNS = ["all_to_all", "bcast", "gather", "allgather", "barrier"]


@settings(max_examples=25, deadline=None)
@given(
    num_ranks=st.integers(min_value=1, max_value=12),
    pattern=st.sampled_from(PATTERNS),
    rounds=st.integers(min_value=1, max_value=3),
)
def test_no_inbox_outlives_its_messages(num_ranks, pattern, rounds):
    engine, comm = make_comm(num_ranks)
    root = num_ranks // 2

    def rank_fn(rank):
        for round_ in range(rounds):
            if pattern == "all_to_all":
                for dest in range(num_ranks):
                    if dest != rank:
                        yield from comm.send(rank, src=rank, dest=dest, tag=round_)
                for src in range(num_ranks):
                    if src != rank:
                        yield from comm.recv(source=src, dst=rank, tag=round_)
            elif pattern == "bcast":
                yield from comm.bcast(round_, root=root, rank=rank)
            elif pattern == "gather":
                yield from comm.gather(rank, root=root, rank=rank)
            elif pattern == "allgather":
                yield from comm.allgather(rank, rank=rank)
            else:
                yield engine.timeout(0.01 * (rank % 3))
                yield from comm.barrier(rank=rank)
        return True

    engine.run_all([engine.process(rank_fn(r)) for r in range(num_ranks)])
    assert comm._inboxes == {}


@settings(max_examples=40, deadline=None)
@given(
    bursts=st.lists(
        st.tuples(st.integers(min_value=1, max_value=5), st.booleans()),
        min_size=1,
        max_size=8,
    )
)
def test_fifo_holds_across_dropped_and_recreated_inboxes(bursts):
    """One key carries bursts of messages.  Burst ``i`` is sent at time
    ``i + 1``; its receives are posted either before it (waiting
    receivers) or after it (queued messages).  The inbox is gone after
    every drained burst and recreated by the next, and the messages
    still arrive in send order."""
    engine, comm = make_comm(2)
    key = (0, 1, 7)
    received: list[int] = []
    gone_after_burst: list[bool] = []

    def sender():
        seq = 0
        for i, (count, _) in enumerate(bursts):
            yield engine.timeout(i + 1.0 - engine.now)
            for _ in range(count):
                yield from comm.send(seq, src=0, dest=1, tag=7)
                seq += 1

    def receiver():
        for i, (count, early) in enumerate(bursts):
            yield engine.timeout(i + (0.5 if early else 1.5) - engine.now)
            for _ in range(count):
                received.append((yield from comm.recv(source=0, dst=1, tag=7)))
            gone_after_burst.append(key not in comm._inboxes)

    engine.run_all([engine.process(sender()), engine.process(receiver())])
    assert received == list(range(sum(count for count, _ in bursts)))
    assert all(gone_after_burst)
    assert comm._inboxes == {}

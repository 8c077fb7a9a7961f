"""Sparse chunk payloads against a dense model.

A :class:`~repro.store.benefactor.Benefactor` stores each chunk as its
written prefix and pads it to the full chunk only once a write passes
the half-chunk line.  The model here is what the benefactor used to
keep: a zero-filled full-size buffer per materialized chunk, and extents
popped from a list of every slot.  Driven through the same stores,
fetches, local copies, racing re-replication fills and deletes, the two
must agree byte for byte and extent for extent, and full fetches must
loan exactly the full-size payloads.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import make_hal_cluster
from repro.cluster.hal import HalConfig
from repro.errors import CapacityError
from repro.sim import Engine
from repro.store import Benefactor
from repro.store.chunk import CHUNK_SIZE
from repro.util.intervals import IntervalSet
from repro.util.units import MiB
from tests.conftest import run

HALF = CHUNK_SIZE // 2
SLOTS = 3  # extents in the contribution; chunk ids outnumber them
CLIENT = "node001"

chunk = st.integers(0, SLOTS + 1)
# Offsets cluster at the half-chunk line, where the padding rule flips.
offset = st.one_of(
    st.sampled_from([0, 4096, HALF - 4096, HALF - 1, HALF, HALF + 1,
                     CHUNK_SIZE - 4096, CHUNK_SIZE - 1]),
    st.integers(0, CHUNK_SIZE - 1),
)
length = st.one_of(st.sampled_from([1, 4096, 8192]), st.integers(1, CHUNK_SIZE))
write = st.tuples(offset, length, st.integers(1, 255))
store = st.tuples(st.just("store"), chunk, write)
op = st.one_of(
    store,
    store,
    # A full-chunk write: adopted outright when the chunk is new.
    st.tuples(
        st.just("store"), chunk,
        st.tuples(st.just(0), st.just(CHUNK_SIZE), st.integers(1, 255)),
    ),
    st.tuples(st.just("fetch"), chunk, offset, length),
    st.tuples(st.just("fetch_prefix"), chunk),
    st.tuples(st.just("fetch_full"), chunk),
    st.tuples(st.just("copy"), chunk, chunk),
    st.tuples(
        st.just("fill"), chunk, st.lists(write, max_size=3),
        st.one_of(st.none(), st.integers(1, 255)),
    ),
    st.tuples(st.just("delete"), chunk),
)


def _clip(off, n):
    return off, min(n, CHUNK_SIZE - off)


class DenseModel:
    """Full-size zero-filled payloads and the old list extent allocator."""

    def __init__(self, contribution):
        self.data: dict[int, bytearray] = {}
        self.extents: dict[int, int] = {}
        self.free = list(range(0, contribution - CHUNK_SIZE + 1, CHUNK_SIZE))
        self.free.reverse()

    def materialize(self, c):
        if c not in self.data:
            if not self.free:
                raise CapacityError("no free extents")
            self.extents[c] = self.free.pop()
            self.data[c] = bytearray(CHUNK_SIZE)
        return self.data[c]

    def delete(self, c):
        if c in self.data:
            del self.data[c]
            self.free.append(self.extents.pop(c))


def _check(b, model, loans):
    assert b._extents == model.extents
    for c in range(SLOTS + 2):
        assert b.has_chunk(c) == (c in model.data)
        want = model.data.get(c)
        assert b.peek(c) == (None if want is None else bytes(want))
        stored = b._data.get(c)
        if stored is not None:
            # A prefix reaching past half the chunk is always padded.
            assert len(stored) == CHUNK_SIZE or 2 * len(stored) <= CHUNK_SIZE
    for buf, snapshot in loans:  # fetch-time snapshots never move
        assert buf == snapshot


def _store(b, model, c, write):
    """Store on both; False when the benefactor ran out of extents."""
    off, n = _clip(*write[:2])
    payload = bytes([write[2]]) * n
    try:
        run(b.node.engine, b.store_chunk(CLIENT, c, payload, off))
    except CapacityError:
        assert c not in model.data and not model.free
        return False
    model.materialize(c)[off : off + n] = payload
    return True


def _step(b, model, loans, kind, *args):
    """Apply one operation to the benefactor and the model."""
    if kind == "store":
        _store(b, model, *args)
    elif kind in ("fetch", "fetch_prefix", "fetch_full"):
        if kind == "fetch":
            c, off, n = args
            off, n = _clip(off, n)
        elif kind == "fetch_prefix":  # exactly the stored prefix
            (c,) = args
            off, n = 0, len(b._data.get(c, b"")) or 1
        else:
            (c,) = args
            off, n = 0, CHUNK_SIZE
        data = run(b.node.engine, b.fetch_chunk(CLIENT, c, off, n))
        assert data == model.data.get(c, bytes(CHUNK_SIZE))[off : off + n]
        assert len(data) == n
        stored = b._data.get(c)
        # Only a full fetch of a padded payload is a loan; everything
        # else, a full fetch of a short payload included, is fresh.
        full = stored is not None and len(stored) == CHUNK_SIZE
        assert (data is stored) == (full and n == CHUNK_SIZE)
        loans.append((data, bytes(data)))
    elif kind == "copy":
        src, dst = args
        if src == dst:
            return
        try:
            run(b.node.engine, b.copy_chunk_local(src, dst))
        except CapacityError:
            assert src in model.data and dst not in model.data
            assert not model.free
            return
        if src in model.data:
            model.materialize(dst)[:] = model.data[src]
    elif kind == "fill":
        c, racing, snap_fill = args
        snapshot = None if snap_fill is None else bytes([snap_fill]) * CHUNK_SIZE
        b.begin_fill(c)
        shadow = IntervalSet()
        for write in racing:
            if not _store(b, model, c, write):
                b.abort_fill(c)
                return
            off, n = _clip(*write[:2])
            shadow.add(off, off + n)
        try:
            run(b.node.engine, b.complete_fill(c, snapshot))
        except CapacityError:
            assert c not in model.data and not model.free
            return
        if snapshot is not None:
            target = model.materialize(c)
            for start, stop in shadow.gaps(0, CHUNK_SIZE):
                target[start:stop] = snapshot[start:stop]
    else:
        (c,) = args
        b.delete_chunk(c)
        model.delete(c)


@settings(max_examples=80, deadline=None)
@given(ops=st.lists(op, min_size=5, max_size=30))
def test_sparse_payloads_match_dense_model(ops):
    engine = Engine()
    cluster = make_hal_cluster(
        engine, HalConfig(num_nodes=2, cores_per_node=1,
                          dram_per_node=16 * MiB, ssd_per_node=64 * MiB),
    )
    b = Benefactor(cluster.node(0), contribution=SLOTS * CHUNK_SIZE)
    model = DenseModel(b.contribution)
    loans: list[tuple[bytearray, bytes]] = []
    for kind, *args in ops:
        _step(b, model, loans, kind, *args)
        _check(b, model, loans)


def test_payload_grows_with_writes_and_pads_past_half(engine, small_cluster):
    b = Benefactor(small_cluster.node(0), contribution=1 * MiB)

    def store(off, n):
        run(engine, b.store_chunk(CLIENT, 1, b"x" * n, off))
        return len(b._data[1])

    assert store(0, 4096) == 4096  # a small checkpoint stays small
    assert store(HALF - 8, 8) == HALF  # up to the line: zero-extended
    assert b.peek(1)[4096 : HALF - 8] == bytes(HALF - 8 - 4096)
    assert store(HALF, 1) == CHUNK_SIZE  # past it: padded to full
    assert run(engine, b.fetch_chunk(CLIENT, 1)) is b._data[1]


def test_extents_reuse_last_freed_first(engine, small_cluster):
    b = Benefactor(small_cluster.node(0), contribution=4 * CHUNK_SIZE)

    def proc():
        for c in range(4):
            yield from b.store_chunk(CLIENT, c, b"a")
        b.delete_chunk(1)
        b.delete_chunk(2)
        yield from b.store_chunk(CLIENT, 10, b"b")
        yield from b.store_chunk(CLIENT, 11, b"c")

    run(engine, proc())
    assert b._extents[10] == 2 * CHUNK_SIZE
    assert b._extents[11] == 1 * CHUNK_SIZE

"""Fuzzed identity of the bulk page-run fast paths vs per-page routes.

The model layers carry three gated fast paths — the page cache's
no-yield bulk fault/write runs (``pagecache.BULK_PAGE_RUNS``), the FTL's
frontier bulk-write run (``ftl.BULK_WRITE_RUNS``), and the resource
layer's synchronous grants (``resources.SYNC_GRANTS``).  Each is
eligible only where the general path would have behaved identically, so
the whole stack must produce byte-identical data and a bit-identical
virtual timeline with every gate flipped off.  These tests replay random
read/write/msync schedules both ways and compare everything observable.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.devices.ftl as ftl_mod
import repro.mem.pagecache as pagecache_mod
import repro.sim.resources as resources_mod
from repro.cluster import make_hal_cluster
from repro.cluster.hal import HalConfig
from repro.core import NVMalloc
from repro.sim import Engine
from repro.store import CHUNK_SIZE, PAGE_SIZE, Benefactor, Manager
from repro.util.intervals import IntervalSet
from repro.util.units import KiB, MiB

REGION = 48 * KiB  # spans 12 pages across chunk boundaries at offset

# One op: (kind, offset_frac, length_frac, fill byte)
op = st.tuples(
    st.sampled_from(["write", "read", "msync"]),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.01, max_value=0.5),
    st.integers(min_value=1, max_value=255),
)


def _run_schedule(ops, *, bulk: bool):
    """One full stack run; returns (virtual_now, final_bytes, counters)."""
    engine = Engine()
    cluster = make_hal_cluster(
        engine,
        HalConfig(num_nodes=2, cores_per_node=2, dram_per_node=16 * MiB,
                  ssd_per_node=64 * MiB),
    )
    store = Manager(cluster.node(0))
    for node in cluster.nodes:
        store.register_benefactor(Benefactor(node, contribution=16 * MiB))
    # A page cache far smaller than the region forces evictions, so the
    # per-page fallback (``_insert`` with flush waits) really runs.
    lib = NVMalloc(
        cluster.node(1), store,
        fuse_cache_bytes=2 * CHUNK_SIZE, page_cache_bytes=16 * KiB,
    )

    def driver():
        var = yield from lib.ssdmalloc(REGION, owner="bulkfuzz")
        region = var.region
        for kind, off_frac, len_frac, fill in ops:
            offset = int(off_frac * (REGION - 1))
            length = max(1, min(int(len_frac * REGION), REGION - offset))
            if kind == "write":
                yield from region.write(offset, bytes([fill]) * length)
            elif kind == "read":
                yield from region.read(offset, length)
            else:
                yield from region.msync()
        final = yield from region.read(0, REGION)
        yield from lib.ssdfree(var)
        return bytes(final)

    final = engine.run(engine.process(driver()))
    counters = dict(cluster.metrics.snapshot(""))
    return engine.now, final, counters


@settings(max_examples=10, deadline=None)
@given(ops=st.lists(op, min_size=3, max_size=16))
def test_bulk_runs_match_per_page_paths(ops):
    fast = _run_schedule(ops, bulk=True)
    try:
        pagecache_mod.BULK_PAGE_RUNS = False
        ftl_mod.BULK_WRITE_RUNS = False
        resources_mod.SYNC_GRANTS = False
        slow = _run_schedule(ops, bulk=False)
    finally:
        pagecache_mod.BULK_PAGE_RUNS = True
        ftl_mod.BULK_WRITE_RUNS = True
        resources_mod.SYNC_GRANTS = True
    assert fast[1] == slow[1], "bulk and per-page paths returned different bytes"
    assert fast[0] == slow[0], (
        f"virtual time drifted: bulk {fast[0]!r} vs per-page {slow[0]!r}"
    )
    assert fast[2] == slow[2], {
        k: (fast[2].get(k), slow[2].get(k))
        for k in set(fast[2]) | set(slow[2])
        if fast[2].get(k) != slow[2].get(k)
    }


# ----------------------------------------------------------------------
# The vectorized page-align run computation vs a per-interval reference
# ----------------------------------------------------------------------

interval = st.tuples(
    st.integers(min_value=0, max_value=CHUNK_SIZE - 1),
    st.integers(min_value=1, max_value=8 * PAGE_SIZE),
)


def _reference_page_align(dirty, page_size, chunk_size):
    """The pre-vectorization per-interval coalescing loop."""
    out = []
    for start, stop in dirty:
        a = (start // page_size) * page_size
        b = min(-(-stop // page_size) * page_size, chunk_size)
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


@settings(max_examples=50, deadline=None)
@given(spans=st.lists(interval, min_size=0, max_size=20))
def test_page_align_matches_reference(spans):
    from repro.fusefs.cache import ChunkCache

    dirty = IntervalSet()
    for start, length in spans:
        dirty.add(start, min(start + length, CHUNK_SIZE))

    class _Shim:
        page_size = PAGE_SIZE
        chunk_size = CHUNK_SIZE

    got = ChunkCache._page_align(_Shim(), dirty)
    want = _reference_page_align(list(dirty), PAGE_SIZE, CHUNK_SIZE)
    assert got == want


def test_access_run_is_one_summed_access():
    """``access_run`` equals one access of the summed size."""
    from repro.devices.base import AccessKind

    sizes = [4096, 4096, 123, 8192]

    def one(engine, device, gen):
        return engine.run(engine.process(gen))

    results = []
    for mode in ("run", "sum"):
        engine = Engine()
        cluster = make_hal_cluster(
            engine,
            HalConfig(num_nodes=1, cores_per_node=1, dram_per_node=1 * MiB,
                      ssd_per_node=1 * MiB),
        )
        dram = cluster.node(0).dram
        if mode == "run":
            one(engine, dram, dram.access_run(AccessKind.READ, sizes))
        else:
            one(engine, dram, dram.access(AccessKind.READ, sum(sizes)))
        results.append((engine.now, dict(cluster.metrics.snapshot("device."))))
    assert results[0] == results[1]

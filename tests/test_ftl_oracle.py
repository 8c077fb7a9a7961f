"""The lazy FTL against the eager reference model.

:class:`repro.devices.ftl.FlashTranslationLayer` hands never-used blocks
out from a cursor and grows its per-block tables on first use; the
reference in ``tests/ftl_reference.py`` builds every table up front.
Driven through the same random write and trim bursts on a device small
enough that GC, the endurance budget and the capacity limits all come
into play, the two must agree on everything observable: mappings,
statistics, wear spread, free space, the GC work each burst returns and
the errors raised.  The reference writes page by page, so with the
bulk-run fast path on the comparison also pins that path to the
per-page semantics.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.devices.ftl as ftl_mod
from repro.devices.ftl import FlashTranslationLayer
from repro.errors import CapacityError, EnduranceExceededError
from tests.ftl_reference import EagerFlashTranslationLayer

PAGE = 4096
PER_BLOCK = 8
BLOCKS = 12
#: Logical pages at the smallest overprovision drawn below.
SPAN = int(BLOCKS * PER_BLOCK * 0.9)

# Writes cluster on a hot range so GC finds stale victims; scattered
# writes and whole-device runs push toward a full device.  Runs that start near
# ``SPAN`` cross the logical capacity at every geometry, and a scatter
# may end in an out-of-range page: both must raise CapacityError after
# the same partial progress.
lpn = st.one_of(st.integers(0, 15), st.integers(0, SPAN - 1))
burst = st.one_of(
    st.tuples(st.just("run"), st.integers(0, SPAN), st.integers(0, 2 * PER_BLOCK)),
    st.tuples(
        st.just("scatter"),
        st.lists(lpn, min_size=1, max_size=3 * PER_BLOCK),
        st.sampled_from([None, None, None, -1, SPAN]),
    ),
    st.tuples(st.just("trim"), st.integers(0, SPAN - 1), st.integers(1, 2 * PER_BLOCK)),
    st.just(("run", 0, SPAN)),  # the whole device, and past it at 0.25
)


def _apply(ftl, kind, a, b=None):
    """One burst; returns its result or the error it raised."""
    try:
        if kind == "run":
            return ftl.write_pages(range(a, a + b))
        if kind == "scatter":
            return ftl.write_pages(a if b is None else [*a, b])
        hi = min(a + b, ftl.logical_pages)
        return ftl.trim_pages(range(a, hi))
    except (CapacityError, EnduranceExceededError) as exc:
        return type(exc), str(exc)


def _observe(ftl):
    return (
        dict(ftl._l2p),
        [ftl.read_page(p) for p in range(ftl.logical_pages)],
        ftl.mapped_pages(),
        ftl.stats,
        ftl.erase_count_spread(),
        ftl.free_physical_pages(),
    )


@settings(max_examples=60, deadline=None)
@given(
    bursts=st.lists(burst, min_size=10, max_size=80),
    wear_leveling=st.booleans(),
    bulk=st.booleans(),
    endurance=st.sampled_from([1, 3, 100_000]),
    overprovision=st.sampled_from([0.1, 0.25]),
)
def test_lazy_ftl_matches_eager_reference(
    bursts, wear_leveling, bulk, endurance, overprovision
):
    geometry = dict(
        capacity=BLOCKS * PER_BLOCK * PAGE,
        page_size=PAGE,
        pages_per_block=PER_BLOCK,
        overprovision=overprovision,
        endurance_cycles=endurance,
        wear_leveling=wear_leveling,
    )
    lazy = FlashTranslationLayer(**geometry)
    eager = EagerFlashTranslationLayer(**geometry)
    assert lazy.logical_pages == eager.logical_pages
    assert _observe(lazy) == _observe(eager)
    try:
        ftl_mod.BULK_WRITE_RUNS = bulk
        for kind, *args in bursts:
            got = _apply(lazy, kind, *args)
            want = _apply(eager, kind, *args)
            assert got == want, (kind, args)
            assert _observe(lazy) == _observe(eager), (kind, args)
    finally:
        ftl_mod.BULK_WRITE_RUNS = True


@pytest.mark.parametrize("wear_leveling", [True, False])
def test_sustained_overwrite_matches_through_every_block(wear_leveling):
    # Deterministic long run: every block is handed out, recycled and
    # worn, so the cursor is exhausted and only the heap is left.
    geometry = dict(
        capacity=BLOCKS * PER_BLOCK * PAGE, page_size=PAGE,
        pages_per_block=PER_BLOCK, overprovision=0.25,
        wear_leveling=wear_leveling,
    )
    lazy = FlashTranslationLayer(**geometry)
    eager = EagerFlashTranslationLayer(**geometry)
    for i in range(400):
        lpns = [(i * 7 + k * 3) % 40 for k in range(5)]
        assert lazy.write_pages(lpns) == eager.write_pages(lpns)
    assert lazy._fresh == lazy.num_blocks
    assert lazy.stats.blocks_erased > BLOCKS
    assert _observe(lazy) == _observe(eager)


def test_untouched_ftl_holds_no_per_block_state():
    ftl = FlashTranslationLayer(capacity=1 << 30, pages_per_block=64)
    assert ftl.num_blocks == 4096
    assert ftl._erase_counts == [] and not ftl._free_heap
    assert ftl.free_physical_pages() == ftl.physical_pages
    assert ftl.erase_count_spread() == (0, 0)
    ftl.write_pages(range(100))
    assert len(ftl._erase_counts) == 2  # one full block and the frontier

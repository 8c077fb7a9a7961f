"""Unit tests for workload building blocks (below the full-run level)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.configs import TINY
from repro.experiments.runner import Testbed
from repro.parallel.job import JobConfig
from repro.workloads.matmul import (
    MatmulConfig,
    _bcast_group,
    _input_matrices,
)
from repro.workloads.quicksort import (
    SortConfig,
    _exchange,
    _make_store,
    _SliceStore,
)
from repro.workloads.stream import StreamConfig, StreamKernel, _expected_values


def make_job(x=2, y=2, z=2):
    testbed = Testbed(TINY.with_(cpu_slowdown=1.0))
    return testbed, testbed.job(x, y, z)


class TestInputMatrices:
    def test_deterministic(self):
        config = MatmulConfig(n=32, tile=8)
        a1, b1 = _input_matrices(config)
        a2, b2 = _input_matrices(config)
        assert np.array_equal(a1, a2)
        assert np.array_equal(b1, b2)

    def test_seed_changes_values(self):
        a1, _ = _input_matrices(MatmulConfig(n=32, tile=8, seed=1))
        a2, _ = _input_matrices(MatmulConfig(n=32, tile=8, seed=2))
        assert not np.array_equal(a1, a2)

    def test_integral_values_keep_products_exact(self):
        a, b = _input_matrices(MatmulConfig(n=64, tile=8))
        product = a @ b
        assert np.array_equal(product, np.round(product))
        # Well within float64 exact-integer range.
        assert np.abs(product).max() < 2**53


class TestBcastGroup:
    @pytest.mark.parametrize("group_size", [1, 2, 3, 4, 7, 8])
    def test_all_members_receive(self, group_size):
        testbed, job = make_job(x=4, y=2, z=2)
        group = list(range(0, group_size))
        payload = np.arange(17.0)

        def rank_fn(ctx):
            data = payload if ctx.rank == group[0] else None
            received = yield from _bcast_group(ctx, data, group, tag=55)
            if ctx.rank in group:
                return np.asarray(received).sum()
            return None

        results = [
            job.engine.process(rank_fn(job.rank_context(r)))
            for r in range(job.config.num_ranks)
        ]
        values = job.engine.run_all(results)
        for rank, value in enumerate(values):
            if rank in group:
                assert value == payload.sum()
            else:
                assert value is None


class TestSliceStore:
    def test_spill_split(self):
        testbed, job = make_job(x=1, y=2, z=2)
        ctx = job.rank_context(0)

        def proc():
            store = yield from _make_store(ctx, 1000, 300, tag="t")
            assert store.counts == [300, 700]
            yield from store.write(0, np.arange(1000.0))
            # Reads crossing the DRAM/NVM boundary.
            cross = yield from store.read(250, 350)
            assert np.array_equal(cross, np.arange(250.0, 350.0))
            yield from store.free(ctx)
            return True

        assert job.engine.run(job.engine.process(proc()))

    def test_all_dram_when_it_fits(self):
        testbed, job = make_job(x=1, y=2, z=2)
        ctx = job.rank_context(0)

        def proc():
            store = yield from _make_store(ctx, 100, 1000, tag="t")
            assert store.counts == [100]
            yield from store.free(ctx)
            return True

        assert job.engine.run(job.engine.process(proc()))

    def test_locate_bounds(self):
        store = _SliceStore()
        with pytest.raises(IndexError):
            store.locate(0)


class TestStreamExpectations:
    @pytest.mark.parametrize("kernel,expected_a", [
        (StreamKernel.COPY, 1.0),       # A never written
        (StreamKernel.TRIAD, None),     # A evolves
    ])
    def test_expected_values_track_kernel(self, kernel, expected_a):
        config = StreamConfig(
            elements=8, kernel=kernel, iterations=3,
            placement={"A": "dram", "B": "dram", "C": "dram"},
        )
        values = _expected_values(config)
        if expected_a is not None:
            assert values["A"] == expected_a
        else:
            # TRIAD: A = B + 3C repeatedly from (1, 2, 0): stays 2.0
            # because B and C never change.
            assert values["A"] == 2.0

    def test_scale_chain(self):
        config = StreamConfig(
            elements=8, kernel=StreamKernel.SCALE, iterations=2, scalar=3.0,
            placement={"A": "dram", "B": "dram", "C": "dram"},
        )
        # B = 3*C with C = 0 -> B becomes 0 after first iteration.
        assert _expected_values(config)["B"] == 0.0

    def test_kernel_signatures(self):
        assert StreamKernel.COPY.arrays_touched == 2
        assert StreamKernel.TRIAD.arrays_touched == 3
        assert StreamKernel.TRIAD.flops_per_element == 2
        assert StreamKernel.COPY.flops_per_element == 0


class TestSortConfigHelpers:
    def test_slice_store_free_is_idempotent_on_parts(self):
        testbed, job = make_job(x=1, y=2, z=2)
        ctx = job.rank_context(0)

        def proc():
            store = yield from _make_store(ctx, 500, 200, tag="x")
            yield from store.free(ctx)
            assert store.parts == []
            return True

        assert job.engine.run(job.engine.process(proc()))


def _per_block_payloads(local, splitters, size, block):
    """Per-destination payloads as the exchange used to build them: each
    streamed block grouped by destination on its own, the groups of one
    destination concatenated across blocks."""
    buckets = [[] for _ in range(size)]
    for start in range(0, len(local), block):
        chunk = local[start : start + block]
        dest = np.searchsorted(splitters, chunk, side="right")
        order = np.argsort(dest, kind="stable")
        grouped = chunk[order]
        bounds = np.searchsorted(dest[order], np.arange(size + 1))
        for r in range(size):
            if bounds[r + 1] > bounds[r]:
                buckets[r].append(grouped[bounds[r] : bounds[r + 1]])
    return [
        np.concatenate(b) if b else np.empty(0, dtype=np.float64)
        for b in buckets
    ]


class TestSortExchange:
    @settings(max_examples=12, deadline=None)
    @given(
        procs_per_node=st.integers(min_value=1, max_value=3),
        block=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**16),
        data=st.data(),
    )
    def test_payloads_match_per_block_grouping(
        self, procs_per_node, block, seed, data
    ):
        testbed, job = make_job(x=procs_per_node, y=2, z=2)
        size = job.config.num_ranks
        counts = data.draw(
            st.lists(st.integers(0, 90), min_size=size, max_size=size)
        )
        rng = np.random.default_rng(seed)
        # Few distinct keys: ties with each other and with the splitters.
        slices = [rng.integers(0, 12, n).astype(np.float64) for n in counts]
        splitters = np.sort(rng.integers(0, 12, size - 1)).astype(np.float64)
        config = SortConfig(total_elements=1, block_elements=block)
        sent = {}
        send = job.comm.send

        def recording_send(payload, *, src, dest, tag=0):
            sent[(src, dest)] = payload
            return send(payload, src=src, dest=dest, tag=tag)

        job.comm.send = recording_send

        def rank_main(ctx):
            mine = slices[ctx.rank]
            store = yield from _make_store(ctx, max(len(mine), 1), 25, tag="x")
            store.counts[-1] -= store.total - len(mine)
            yield from store.write(0, mine)
            fragments = yield from _exchange(ctx, store, splitters, config)
            yield from store.free(ctx)
            return fragments

        _, results = job.run(rank_main)
        expected = [
            _per_block_payloads(slices[r], splitters, size, block)
            for r in range(size)
        ]
        for dst, fragments in enumerate(results):
            sources = [dst] + [r for r in range(size) if r != dst]
            assert len(fragments) == size
            for src, fragment in zip(sources, fragments):
                want = expected[src][dst]
                assert fragment.dtype == want.dtype
                assert np.array_equal(fragment, want)
                if src != dst:
                    assert np.array_equal(sent[(src, dst)], want)
        # Each rank's payloads are views into one grouped copy of its
        # slice, not per-destination copies.
        for src in range(size):
            payloads = [results[src][0]] + [
                sent[(src, r)] for r in range(size) if r != src
            ]
            bases = {id(p.base) for p in payloads if len(p)}
            assert all(p.base is not None for p in payloads if len(p))
            assert len(bases) <= 1

"""Tests of the benchmark's own folds.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import fold  # noqa: E402
import layers  # noqa: E402


def record(arrival: float, latency: float, ok: bool = True) -> SimpleNamespace:
    return SimpleNamespace(arrival=arrival, completion=arrival + latency, ok=ok)


def span(span_id, parent_id, layer, start, end) -> SimpleNamespace:
    return SimpleNamespace(
        span_id=span_id, parent_id=parent_id, layer=layer, start=start, end=end
    )


class TestFold:
    def test_fast_failures_are_not_latency_samples(self):
        served = [record(i * 0.01, 0.010) for i in range(100)]
        failed = [record(i * 0.01 + 0.005, 1e-6, ok=False) for i in range(100)]
        stats = fold.fold([served + failed], limit=0.020)
        assert stats.p50 == stats.p99 == pytest.approx(0.010)
        assert (stats.issued, stats.ok, stats.failed) == (200, 100, 100)
        # Every failure misses the limit, however fast it failed.
        assert stats.within_limit == 100
        assert stats.attain == 0.5
        assert not stats.meets(0.020)

    def test_rates_ignore_the_straggler_tail(self):
        bulk = [record(i * 0.001, 0.0005) for i in range(1000)]
        stragglers = [record(10.0 + i, 0.0005) for i in range(5)]
        stats = fold.fold([bulk + stragglers], limit=1.0)
        # The full arrival span (14 s) would make this 72 req/s.
        assert stats.offered_rps == pytest.approx(1000, rel=0.02)
        assert stats.achieved_rps == pytest.approx(stats.offered_rps, rel=0.02)
        assert stats.meets(1.0)

    def test_growing_backlog_fails_the_rate_check(self):
        # Served at half the offered rate: completions fall behind.
        recs = [record(i * 0.001, i * 0.001) for i in range(1000)]
        stats = fold.fold([recs], limit=10.0)
        assert stats.failed == 0 and stats.p99 <= 10.0
        assert stats.achieved_rps < 0.95 * stats.offered_rps
        assert not stats.meets(10.0)

    def test_window_rate_matches_fold(self):
        arrivals = [i * 0.002 for i in range(500)] + [50.0]
        stats = fold.fold([[record(t, 0.0) for t in arrivals]], limit=1.0)
        assert fold.window_rate(arrivals) == pytest.approx(stats.offered_rps)

    def test_legs_pool_latencies_and_windows(self):
        fast = [record(i * 0.001, 0.001) for i in range(1000)]  # 1000 req/s
        slow = [record(i * 0.004, 0.004) for i in range(500)]  # 250 req/s
        stats = fold.fold([fast, slow], limit=0.002)
        assert (stats.issued, stats.ok, stats.within_limit) == (1500, 1500, 1000)
        assert stats.p50 == pytest.approx(0.001)
        assert stats.p99 == pytest.approx(0.004)
        # 900 + 450 windowed arrivals over 0.9 s + 1.8 s of windows.
        assert stats.offered_rps == pytest.approx(500, rel=0.01)


class TestVirtualSelf:
    def test_overlapping_children_partition_the_root(self):
        spans = [
            span(1, None, "bench", 0.0, 10.0),
            span(2, 1, "fuse", 0.0, 6.0),
            span(3, 1, "store.client", 4.0, 10.0),  # overlaps span 2
            span(4, 2, "benefactor", 1.0, 2.0),
            span(5, None, "net", 8.0, 9.0),  # a trace begun elsewhere
        ]
        root = spans[0]
        ticks = layers.span_self_ticks(spans, root)
        assert all(t >= 0 for t in ticks.values())
        assert sum(ticks.values()) == layers.duration_ticks(root)
        per_layer, total = layers.virtual_self_by_layer(spans, root)
        assert total == layers.duration_ticks(root)
        assert per_layer == {
            "bench": 0.0, "fuse": 5.0, "store": 4.0, "benefactor": 1.0, "net": 0.0,
        }

    def test_parent_keeps_what_the_union_of_children_leaves(self):
        spans = [
            span(1, None, "bench", 0.0, 10.0),
            span(2, 1, "mmap", 1.0, 9.0),
            span(3, 2, "pagecache", 2.0, 4.0),
            span(4, 2, "pagecache", 3.0, 5.0),  # overlaps span 3
            span(5, 2, "pagecache", 7.0, 12.0),  # runs past the root
        ]
        per_layer, total = layers.virtual_self_by_layer(spans, spans[0])
        # Children cover [2, 5) and [7, 9) of the mmap span's [1, 9).
        assert per_layer["mmap"] == pytest.approx(3.0)
        # Clipped to the root, the last child covers [7, 10).
        assert per_layer["pagecache"] == pytest.approx(6.0)
        assert per_layer["bench"] == pytest.approx(1.0)
        assert total == layers.duration_ticks(spans[0])


class TestHostBuckets:
    def test_files_map_to_packages(self, tmp_path):
        src, bench = tmp_path / "src", tmp_path / "perfbench"
        bucket = lambda f, n="f": layers.host_bucket(str(f), n, src, bench)  # noqa: E731
        assert bucket(src / "repro" / "fusefs" / "cache.py") == "fusefs"
        assert bucket(src / "repro" / "faults.py") == "other"
        assert bucket(bench / "worker.py") == "bench"
        assert bucket("/usr/lib/python3/heapq.py") == "stdlib"
        assert bucket("~", "<built-in method builtins.len>") == "stdlib"
        assert bucket("~", "<method 'sort' of 'numpy.ndarray' objects>") == "numpy"

"""Per-layer figures: virtual self time from spans, host self time from
cProfile, and work counts from a testbed's metrics and engine.

Virtual self time partitions the measured phase.  Every instant of the
benchmark's root span is charged to exactly one span: the deepest span
open at that instant, the earliest-begun among equally deep ones.  A
parent is therefore charged only for time that the interval union of its
children leaves uncovered, no self time is ever negative, and the self
times of one root sum to the root's duration.  Concurrent processes
(ranks, requests) overlap; the deepest-first rule keeps their
overlapping time from being counted twice.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path

#: Integer ticks per virtual second for the interval arithmetic.
TICKS = 10**12

#: Span layers reported; ``store.client`` and ``store.manager`` spans
#: roll up into ``store``, ``fuse.l2`` into ``fuse``.  ``bench`` is the
#: benchmark's root span: time no layer span covers.
SPAN_LAYERS = ("bench", "app", "mmap", "pagecache", "fuse", "store",
               "benefactor", "nvmalloc", "comm", "net")

#: Host-time buckets: repro's packages, then numpy, the standard library
#: (builtins included) and the benchmark's own code.
HOST_BUCKETS = ("sim", "mem", "fusefs", "store", "devices", "network",
                "cluster", "parallel", "workloads", "core", "traffic", "pfs",
                "util", "obs", "numpy", "stdlib", "bench", "other")


def _ticks(t: float) -> int:
    return round(t * TICKS)


def duration_ticks(span) -> int:
    """A span's duration in ticks, rounded as the self times are."""
    return _ticks(span.end) - _ticks(span.start)


def span_self_ticks(spans, root) -> dict[int, int]:
    """Self ticks of ``root`` and every span inside its interval, by id.

    Spans are clipped to the root's interval.  A span whose parent was
    not recorded (a process started before the root opened) sits at
    depth 1, as if the root were its parent.
    """
    from repro.util.intervals import IntervalSet  # from the tree under test

    r0, r1 = _ticks(root.start), _ticks(root.end)
    parent = {s.span_id: s.parent_id for s in spans}
    depth: dict[int, int] = {root.span_id: 0}

    def depth_of(span_id: int) -> int:
        chain = []
        top = span_id
        while top not in depth:
            up = parent[top]
            if up is None or up not in parent:
                depth[top] = 1
                break
            chain.append(top)
            top = up
        d = depth[top]
        for sid in reversed(chain):
            d += 1
            depth[sid] = d
        return depth[span_id]

    order = []
    for s in spans:
        if s is root:
            continue
        start, stop = max(_ticks(s.start), r0), min(_ticks(s.end), r1)
        if start < stop:
            order.append((-depth_of(s.span_id), start, s.span_id, stop))
    order.sort()
    claimed = IntervalSet()
    self_ticks: dict[int, int] = {}
    for _neg_depth, start, span_id, stop in order:
        free = sum(b - a for a, b in claimed.gaps(start, stop))
        self_ticks[span_id] = free
        claimed.add(start, stop)
    self_ticks[root.span_id] = sum(b - a for a, b in claimed.gaps(r0, r1))
    return self_ticks


def span_layer(layer: str) -> str:
    """The reported layer of a span layer name (``store.*`` -> ``store``)."""
    return layer.split(".", 1)[0]


def virtual_self_by_layer(spans, root) -> tuple[dict[str, float], int]:
    """Per-layer virtual self seconds under ``root``, plus the tick sum
    (which equals the root's duration in ticks)."""
    self_ticks = span_self_ticks(spans, root)
    by_id = {s.span_id: s for s in spans}
    totals: dict[str, int] = defaultdict(int)
    for span_id, ticks in self_ticks.items():
        totals[span_layer(by_id[span_id].layer)] += ticks
    return {k: v / TICKS for k, v in totals.items()}, sum(self_ticks.values())


def host_bucket(filename: str, funcname: str, src: Path, bench: Path) -> str:
    """The host-time bucket of one profiled function."""
    if "numpy" in filename or "numpy" in funcname:
        return "numpy"
    path = Path(filename)
    if path.is_relative_to(bench):
        return "bench"
    if path.is_relative_to(src / "repro"):
        name = path.relative_to(src / "repro").parts[0].removesuffix(".py")
        return name if name in HOST_BUCKETS else "other"
    return "stdlib"


def host_self_by_bucket(stats, src: Path, bench: Path) -> dict[str, float]:
    """Roll a ``pstats.Stats`` table's self time up by :func:`host_bucket`."""
    totals: dict[str, float] = defaultdict(float)
    for (filename, _line, funcname), row in stats.stats.items():
        totals[host_bucket(filename, funcname, src, bench)] += row[2]
    return dict(totals)


def work_counts(stages) -> dict[str, float]:
    """Per-layer work counts summed over the stages (testbeds) of one run."""
    c: dict[str, float] = defaultdict(float)
    for stage in stages:
        c["sim.events"] += stage.events
        m = defaultdict(float, stage.counters)
        for name, total in stage.counters.items():
            if name.startswith("device."):
                if name.endswith(".time"):
                    c["devices.busy_s"] += total
                elif name.endswith(".bytes"):
                    c["devices.bytes"] += total
        c["mem.fault_bytes"] += m["pagecache.fault.bytes"]
        c["mem.writeback_bytes"] += m["pagecache.writeback.bytes"]
        c["fusefs.hits"] += m["fuse.cache.hits"]
        c["fusefs.misses"] += m["fuse.cache.misses"]
        c["fusefs.fetch_bytes"] += m["fuse.fetch.bytes"]
        c["fusefs.writeback_bytes"] += m["fuse.writeback.bytes"]
        c["fusefs.requested_bytes"] += m["fuse.read.bytes"] + m["fuse.write.bytes"]
        c["store.bytes_read"] += m["store.client.bytes_read"]
        c["store.bytes_written"] += m["store.client.bytes_written"]
        c["store.manager_rpcs"] += m["store.manager.rpcs"]
        c["store.retries"] += m["store.client.retries"]
        c["network.bytes"] += m["network.bytes"]
        c["pfs.bytes"] += m["pfs.read.bytes"] + m["pfs.write.bytes"]
        c["core.ckpt_bytes_written"] += m["nvmalloc.checkpoint.bytes_written"]
        c["core.ckpt_bytes_linked"] += m["nvmalloc.checkpoint.bytes_linked"]
    lookups = c["fusefs.hits"] + c["fusefs.misses"]
    c["fusefs.hit_ratio"] = c["fusefs.hits"] / lookups if lookups else 0.0
    requested = c.pop("fusefs.requested_bytes")
    c["fusefs.fetch_amplification"] = (
        c["fusefs.fetch_bytes"] / requested if requested else 0.0
    )
    return dict(c)

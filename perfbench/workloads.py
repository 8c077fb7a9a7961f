"""The benchmark's four workloads, driven through repro's public API only.

Each workload is a function ``workload(seed)`` that performs the set-up
(testbeds, jobs and inputs, all with empty modelled caches, as in the
paper's cold-mmap runs) and returns the measured phase as a callable.
The measured phase returns an :class:`Outcome`.  All four run at the
``small`` experiment scale.

Why each workload is in the benchmark:

- ``stream_nvm``: STREAM TRIAD over 8 ranks with A, B and C on NVM
  (Fig. 2).  The arrays are far larger than the chunk cache, so the
  sequential miss and read-ahead path mmap -> page cache -> FUSE does
  most of the work.  It has no randomness; the seed is unused.
- ``randwrite``: Table VII's random single-byte writes with dirty-page
  writeback, the random-access write path.  Nearly every write misses
  the chunk cache, so fetch amplification and store traffic dominate.
- ``quicksort_hybrid``: Table VI's hybrid sort on L-SSD(8:16:16) with
  128 ranks, which bypasses the cache stack: the event kernel, numpy,
  the communicator and the PFS carry it.  A cache-stack change should
  leave it unchanged.
- ``traffic_open``: a client swarm against remote benefactors at
  replication 2 with the manager's monitor running, using the
  ``slo_traffic`` request mix.  The only latency-under-load workload:
  one closed-loop drain measures capacity, then open-loop legs offer a
  fixed grid of absolute rates (:data:`LEGS`), each pooling the
  records of several independent schedules.

A batch workload's job is treated as a single closed-loop request: its
latency is the makespan and its rate one job per makespan, so every
workload reports the same end-to-end metric names.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.experiments.configs import SMALL
from repro.experiments.runner import Testbed
from repro.traffic import ClientSwarm, SwarmConfig, build_schedule
from repro.traffic.arrivals import ZipfKeys
from repro.workloads.quicksort import SortConfig, run_quicksort
from repro.workloads.randwrite import RandWriteConfig, run_randwrite
from repro.workloads.stream import StreamConfig, StreamKernel, run_stream

import fold

SCALE = SMALL

#: Offered rates of the open-loop legs, requests per virtual second,
#: measured over the arrival-quantile window (see fold.py), each with
#: the number of independent schedules its records pool.  The rates are
#: fixed from the closed-loop capacity at the commit that introduced the
#: benchmark (8,100-9,000 req/s over seeds 1-10, median 8,450, at
#: replication 2), about 50%, 90% and 110% of it, so a change in capacity
#: moves latency and not the load.  One 8,000-request schedule's p99
#: moves by a quarter between seeds at 4,300 req/s, where a handful of
#: heavy requests decides the tail, so that leg pools the most schedules;
#: the 9,400 req/s leg, far above the limit, only decides max_rate_rps.
LEGS = {4300: 10, 7700: 5, 9400: 1}

#: The ~50% and ~90% legs whose latencies are reported as lo.* and hi.*.
LO_RPS, HI_RPS = 4300, 7700

#: The p99 latency limit, virtual seconds.  At the commit that introduced
#: the benchmark the pooled p99 is 5-10 ms at 4,300 req/s and 25-40 ms at
#: 7,700 req/s, so the limit separates the two legs with a wide margin.
P99_LIMIT_S = 0.015

REPLICATION = 2
MONITOR_INTERVAL = 0.025  # manager heartbeat period, virtual seconds


@dataclass
class Stage:
    """What one testbed left behind once its stage of the workload finished."""

    counters: dict[str, float]  # every metric counter's total
    events: int
    # The recorded spans, or None with tracing off.  Only the span list is
    # kept: the tracer references the engine, which keeps the testbed alive.
    spans: list | None

    @classmethod
    def of(cls, testbed: Testbed) -> "Stage":
        engine = testbed.engine
        spans = engine.tracer.spans if engine.tracer is not None else None
        return cls(testbed.cluster.metrics.snapshot(), engine.events_processed, spans)


@dataclass
class Outcome:
    """What one measured phase produced."""

    virtual: dict[str, float]  # end-to-end virtual metrics
    attempted: int
    failed: int  # failed or unverified operations
    stages: list[Stage]
    latencies: list[list[float]] = field(default_factory=list)  # sorted, per stage


def _phase(testbed: Testbed, name: str, body: Callable):
    """Run ``body`` inside one root span when tracing is on."""
    tracer = testbed.engine.tracer
    if tracer is None:
        return body()
    root = tracer.begin("bench", name)
    try:
        return body()
    finally:
        tracer.end(root)


def _job_as_request(elapsed: float, verified: bool) -> dict[str, float]:
    ms = elapsed * 1e3
    return {
        "virtual_s": elapsed,
        "capacity_rps": 1.0 / elapsed,
        "max_rate_rps": 1.0 / elapsed,
        "lo.p50_ms": ms,
        "lo.p99_ms": ms,
        "hi.p50_ms": ms,
        "hi.p99_ms": ms,
        "hi.attain": 1.0 if verified else 0.0,
    }


def _batch(testbed: Testbed, name: str, run: Callable) -> Callable[[], Outcome]:
    def measured() -> Outcome:
        result = _phase(testbed, name, run)
        return Outcome(
            virtual=_job_as_request(result.elapsed, result.verified),
            attempted=1,
            failed=0 if result.verified else 1,
            stages=[Stage.of(testbed)],
        )

    return measured


def stream_nvm(seed: int) -> Callable[[], Outcome]:
    s = SCALE
    testbed = Testbed(
        s.with_(dram_per_node=s.stream_elements * 8 * 4, cpu_slowdown=1.0)
    )
    job = testbed.job(8, 1, 1)
    config = StreamConfig(
        elements=s.stream_elements,
        kernel=StreamKernel.TRIAD,
        iterations=s.stream_iterations,
        placement={"A": "nvm", "B": "nvm", "C": "nvm"},
        block_bytes=s.stream_block,
    )
    return _batch(testbed, "stream_nvm", lambda: run_stream(job, config))


def randwrite(seed: int) -> Callable[[], Outcome]:
    s = SCALE
    testbed = Testbed(s)
    job = testbed.job(1, 1, 1, dirty_page_writeback=True)
    config = RandWriteConfig(
        region_bytes=s.randwrite_region, num_writes=s.randwrite_count, seed=seed
    )
    return _batch(testbed, "randwrite", lambda: run_randwrite(job, config))


def quicksort_hybrid(seed: int) -> Callable[[], Outcome]:
    s = SCALE
    testbed = Testbed(s.with_(cpu_slowdown=1.0))
    job = testbed.job(8, 16, 16)
    config = SortConfig(
        total_elements=s.sort_elements,
        mode="hybrid",
        dram_elements_per_rank=s.sort_dram_per_rank,
        seed=seed,
    )
    return _batch(
        testbed,
        "quicksort_hybrid",
        lambda: run_quicksort(job, testbed.pfs, config),
    )


def _swarm() -> tuple[Testbed, ClientSwarm]:
    """A fresh remote-benefactor testbed with the store services running."""
    testbed = Testbed(SCALE)
    job = testbed.job(1, 2, 4, remote_ssd=True, replication=REPLICATION)
    manager = job.manager
    job.engine.process(manager.monitor(MONITOR_INTERVAL, rounds=None))
    job.engine.process(manager.rereplicator())
    return testbed, ClientSwarm(job, SwarmConfig(region_bytes=SCALE.slo_region_bytes))


def traffic_open(seed: int) -> Callable[[], Outcome]:
    s = SCALE
    schedules = [
        build_schedule(
            int(sub),
            s.slo_clients,
            s.slo_requests_per_client,
            keys=ZipfKeys(num_keys=s.slo_num_keys),
            read_fraction=s.slo_read_fraction,
            checkpoint_fraction=s.slo_checkpoint_fraction,
        )
        for sub in np.random.SeedSequence(seed).generate_state(max(LEGS.values()))
    ]
    # One testbed per stage: the closed drain of the first schedule (rate
    # None), then each leg's schedules, their clocks scaled so the windowed
    # offered rate is the leg's rate.
    stages = [(None, schedules[0], *_swarm())]
    for rate, count in LEGS.items():
        for unit in schedules[:count]:
            scaled = unit.at_rate(rate / fold.window_rate(unit.times))
            stages.append((rate, scaled, *_swarm()))

    def measured() -> Outcome:
        outcome = Outcome(virtual={}, attempted=0, failed=0, stages=[])
        drain, legs = None, {rate: [] for rate in LEGS}
        while stages:
            # Free each testbed once its stage is done: a finished stage
            # holds about 200 MB of stored bytes in reference cycles, and
            # collecting them here keeps peak memory at one stage's worth.
            rate, schedule, testbed, swarm = stages.pop(0)
            if rate is None:
                drain = result = _phase(
                    testbed, "closed",
                    lambda: swarm.closed_loop(schedule, workers=s.slo_workers),
                )
            else:
                result = _phase(
                    testbed, f"open@{rate}", lambda: swarm.open_loop(schedule)
                )
                legs[rate].append(result.records)
            outcome.attempted += len(schedule)
            if len(result.records) != len(schedule):
                # Not one record per issued request: the stage is suspect.
                outcome.failed += len(schedule)
            else:
                outcome.failed += sum(1 for r in result.records if not r.ok)
            outcome.latencies.append(sorted(r.latency for r in result.records))
            outcome.stages.append(Stage.of(testbed))
            del testbed, swarm, result
            gc.collect()
        stats = {rate: fold.fold(legs[rate], limit=P99_LIMIT_S) for rate in LEGS}
        lo, hi = stats[LO_RPS], stats[HI_RPS]
        passing = [rate for rate in LEGS if stats[rate].meets(P99_LIMIT_S)]
        outcome.virtual = {
            "virtual_s": drain.duration,
            "capacity_rps": drain.completed_ok / drain.duration,
            "max_rate_rps": float(max(passing, default=0)),
            "lo.p50_ms": lo.p50 * 1e3,
            "lo.p99_ms": lo.p99 * 1e3,
            "hi.p50_ms": hi.p50 * 1e3,
            "hi.p99_ms": hi.p99 * 1e3,
            "hi.attain": hi.attain,
        }
        return outcome

    return measured


WORKLOADS = {
    "stream_nvm": stream_nvm,
    "randwrite": randwrite,
    "quicksort_hybrid": quicksort_hybrid,
    "traffic_open": traffic_open,
}

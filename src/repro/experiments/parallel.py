"""Parallel experiment orchestrator with content-addressed memoization.

Every experiment driver builds *fresh* testbeds and shares no state with
any other run (see ``runner.py``), so the full table/figure matrix is
embarrassingly parallel: this module fans it across worker processes with
a :class:`~concurrent.futures.ProcessPoolExecutor` and memoizes each
result in a :class:`~repro.experiments.resultcache.ResultCache` keyed by
``(experiment, scale, config fingerprint, code fingerprint)``.

Safety is checked, not assumed: :func:`check_identity` runs the same
experiments serially and in parallel and asserts the rendered reports and
byte-flow counter digests are bit-identical — the same property the
result cache relies on to replay a stored result as if it had just run.
"""

from __future__ import annotations

import multiprocessing
import os
import resource
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Callable

from repro import obs
from repro.experiments.cache_tiering import cache_tiering
from repro.experiments.configs import ExperimentScale
from repro.experiments.cost import cost_analysis
from repro.experiments.explicit import explicit_vs_swap
from repro.experiments.faults import faults
from repro.experiments.figures import fig2, fig3, fig4, fig5, fig6
from repro.experiments.lifecycle import ckpt_lifecycle
from repro.experiments.report import ExperimentReport
from repro.experiments.resultcache import ResultCache, code_fingerprint, result_key
from repro.experiments.runner import Testbed, track_testbeds
from repro.experiments.slo_traffic import slo_traffic
from repro.experiments.tables import (
    checkpoint_experiment,
    table1,
    table3,
    table4,
    table5,
    table6,
    table7,
)

#: The canonical experiment registry: name -> (driver, description).
EXPERIMENTS: dict[str, tuple[Callable[..., ExperimentReport], str]] = {
    "table1": (table1, "Device characteristics"),
    "fig2": (fig2, "STREAM TRIAD bandwidth by placement"),
    "table3": (table3, "STREAM with vs without NVMalloc"),
    "fig3": (fig3, "MM runtime breakdown across configurations"),
    "fig4": (fig4, "Shared vs individual mmap files"),
    "fig5": (fig5, "Row- vs column-major access"),
    "table4": (table4, "Bytes exchanged app/FUSE/SSD"),
    "table5": (table5, "Tile-size sweep"),
    "fig6": (fig6, "MM beyond DRAM capacity"),
    "table6": (table6, "Parallel sort"),
    "table7": (table7, "Dirty-page write optimization"),
    "checkpoint": (checkpoint_experiment, "Chunk-linked checkpointing"),
    "cost": (cost_analysis, "Provisioning-cost analysis"),
    "explicit": (explicit_vs_swap, "Explicit placement vs transparent swap"),
    "faults": (faults, "Crash schedules under replication r in {1,2}"),
    "cache_tiering": (
        cache_tiering,
        "Client cache hierarchy ablation: lru-vs-arc, tier on/off, prefetch",
    ),
    "ckpt_lifecycle": (
        ckpt_lifecycle,
        "Checkpoint chains, async drain, crash-restart recovery",
    ),
    "slo_traffic": (
        slo_traffic,
        "Open-loop load-latency curve, knee, and SLO under failure",
    ),
}

#: Drivers that take no scale argument.
SCALELESS = frozenset({"table1"})

#: Counter prefixes that pin the virtual byte flows of the memory stack
#: (shared with ``tools/bench_wallclock.py``).
COUNTER_PREFIXES = ("pagecache.", "fuse.", "store.client.")


@dataclass
class RunOutcome:
    """One experiment's result plus per-run telemetry."""

    name: str
    report: ExperimentReport | None
    digest: str | None
    verified: bool
    wall_seconds: float
    peak_rss_bytes: int
    cache_hit: bool
    worker: str
    testbeds: int
    error: str | None = None
    #: For cache hits: the wall the original (cached) run took.
    cached_wall_seconds: float | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.verified


@dataclass
class MatrixResult:
    """An orchestrator pass over a list of experiments."""

    outcomes: list[RunOutcome] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def digests(self) -> dict[str, str | None]:
        return {o.name: o.digest for o in self.outcomes}

    @property
    def failed(self) -> list[str]:
        return [o.name for o in self.outcomes if not o.ok]

    @property
    def cache_hits(self) -> int:
        return sum(1 for o in self.outcomes if o.cache_hit)


def _peak_rss_bytes() -> int:
    """This process's high-water RSS (ru_maxrss is KiB on Linux)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak if sys.platform == "darwin" else peak * 1024


def execute_experiment(
    name: str, scale: ExperimentScale
) -> tuple[ExperimentReport, int]:
    """Run one driver, folding its testbeds' byte-flow counters into the
    report; returns the report and how many testbeds were built."""
    driver, _ = EXPERIMENTS[name]
    with track_testbeds() as tracker:
        report = driver() if name in SCALELESS else driver(scale)
    counters: dict[str, float] = {}
    for testbed in tracker.testbeds:
        for prefix in COUNTER_PREFIXES:
            for key, value in testbed.cluster.metrics.snapshot(prefix).items():
                counters[key] = counters.get(key, 0.0) + value
    report.counters = counters
    if obs.enabled():
        for i, testbed in enumerate(tracker.testbeds):
            tracer = testbed.engine.tracer
            if tracer is None or not tracer.spans:
                continue
            label = f"{name}/testbed{i}"
            obs.collect(label, tracer)
            if report.trace_lines:
                report.trace_lines.append("")
            report.trace_lines.extend(obs.report_lines(label, tracer))
    return report, len(tracker.testbeds)


def _run_payload(name: str, scale: ExperimentScale) -> dict[str, object]:
    """Worker body: run one experiment, return a picklable outcome dict.

    Exceptions are folded into the payload (with traceback) rather than
    raised, so one failing experiment never kills the pool or hides the
    results of its siblings.
    """
    start = time.perf_counter()
    try:
        report, testbeds = execute_experiment(name, scale)
    except Exception:
        return {
            "name": name,
            "error": traceback.format_exc(),
            "wall_seconds": time.perf_counter() - start,
            "peak_rss_bytes": _peak_rss_bytes(),
            "worker": f"pid-{os.getpid()}",
            "testbeds": 0,
        }
    return {
        "name": name,
        "report": report.to_payload(),
        "digest": report.digest(),
        "wall_seconds": time.perf_counter() - start,
        "peak_rss_bytes": _peak_rss_bytes(),
        "worker": f"pid-{os.getpid()}",
        "testbeds": testbeds,
    }


def mp_context():
    """Prefer fork: workers inherit the parent's interpreter state (and
    hash seed), keeping parallel runs bit-identical to serial ones."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


class Orchestrator:
    """Fans experiments across processes, memoizing through a ResultCache."""

    def __init__(
        self,
        jobs: int = 1,
        cache: ResultCache | None = None,
        on_result: Callable[[RunOutcome], None] | None = None,
    ) -> None:
        self.jobs = max(1, jobs)
        self.cache = cache
        self.on_result = on_result

    def run(self, names: list[str], scale: ExperimentScale) -> MatrixResult:
        """Run ``names`` at ``scale``; outcomes come back in input order."""
        start = time.perf_counter()
        self._scale_name = scale.name
        outcomes: dict[str, RunOutcome] = {}
        misses: list[tuple[str, str | None]] = []

        code_fp = code_fingerprint() if self.cache is not None else None
        for name in names:
            key = None
            if self.cache is not None:
                key = result_key(name, scale, code_fp)
                lookup_start = time.perf_counter()
                entry = self.cache.get(key)
                if entry is not None:
                    outcomes[name] = self._hit_outcome(
                        name, entry, time.perf_counter() - lookup_start
                    )
                    if self.on_result:
                        self.on_result(outcomes[name])
                    continue
            misses.append((name, key))

        if self.jobs == 1 or len(misses) <= 1:
            for name, key in misses:
                self._finish(outcomes, _run_payload(name, scale), key)
        elif misses:
            workers = min(self.jobs, len(misses))
            with ProcessPoolExecutor(
                max_workers=workers, mp_context=mp_context()
            ) as pool:
                futures = {
                    pool.submit(_run_payload, name, scale): (name, key)
                    for name, key in misses
                }
                for future in as_completed(futures):
                    name, key = futures[future]
                    try:
                        payload = future.result()
                    except Exception as exc:  # worker process died outright
                        payload = {
                            "name": name,
                            "error": f"worker crashed: {exc!r}",
                            "wall_seconds": 0.0,
                            "peak_rss_bytes": 0,
                            "worker": "unknown",
                            "testbeds": 0,
                        }
                    self._finish(outcomes, payload, key)

        return MatrixResult(
            outcomes=[outcomes[name] for name in names],
            wall_seconds=time.perf_counter() - start,
        )

    def _hit_outcome(
        self, name: str, entry: dict[str, object], elapsed: float
    ) -> RunOutcome:
        report = ExperimentReport.from_payload(entry["report"])
        telemetry = entry.get("telemetry", {})
        return RunOutcome(
            name=name,
            report=report,
            digest=entry["digest"],
            verified=report.verified,
            wall_seconds=elapsed,
            peak_rss_bytes=int(telemetry.get("peak_rss_bytes", 0)),
            cache_hit=True,
            worker="cache",
            testbeds=0,
            cached_wall_seconds=float(telemetry.get("wall_seconds", 0.0)),
        )

    def _finish(
        self,
        outcomes: dict[str, RunOutcome],
        payload: dict[str, object],
        key: str | None,
    ) -> None:
        name = payload["name"]
        if "error" in payload:
            outcome = RunOutcome(
                name=name,
                report=None,
                digest=None,
                verified=False,
                wall_seconds=payload["wall_seconds"],
                peak_rss_bytes=payload["peak_rss_bytes"],
                cache_hit=False,
                worker=payload["worker"],
                testbeds=payload["testbeds"],
                error=payload["error"],
            )
        else:
            report = ExperimentReport.from_payload(payload["report"])
            outcome = RunOutcome(
                name=name,
                report=report,
                digest=payload["digest"],
                verified=report.verified,
                wall_seconds=payload["wall_seconds"],
                peak_rss_bytes=payload["peak_rss_bytes"],
                cache_hit=False,
                worker="serial" if self.jobs == 1 else payload["worker"],
                testbeds=payload["testbeds"],
            )
            if self.cache is not None and key is not None:
                self.cache.put(
                    key,
                    experiment=name,
                    scale=self._scale_name,
                    report=report,
                    telemetry={
                        "wall_seconds": outcome.wall_seconds,
                        "peak_rss_bytes": outcome.peak_rss_bytes,
                        "testbeds": outcome.testbeds,
                        "worker": outcome.worker,
                    },
                )
        outcomes[name] = outcome
        if self.on_result:
            self.on_result(outcome)


def check_identity(
    names: list[str], scale: ExperimentScale, jobs: int = 2
) -> tuple[bool, dict[str, tuple[str | None, str | None]]]:
    """Prove fan-out safety: serial and parallel digests must coincide.

    Runs ``names`` twice with caching disabled — once in-process, once
    across ``jobs`` workers — and compares per-experiment digests (which
    cover rendered rows, claims, and byte-flow counters).  Returns
    ``(identical, {name: (serial_digest, parallel_digest)})``.
    """
    serial = Orchestrator(jobs=1, cache=None).run(names, scale)
    parallel = Orchestrator(jobs=jobs, cache=None).run(names, scale)
    pairs = {
        name: (serial.digests.get(name), parallel.digests.get(name))
        for name in names
    }
    identical = all(
        s is not None and s == p for s, p in pairs.values()
    )
    return identical, pairs


__all__ = [
    "COUNTER_PREFIXES",
    "EXPERIMENTS",
    "MatrixResult",
    "Orchestrator",
    "RunOutcome",
    "SCALELESS",
    "Testbed",
    "check_identity",
    "execute_experiment",
]

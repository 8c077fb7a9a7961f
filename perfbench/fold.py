"""Open-loop fold: one offered rate's request records -> latency and rates.

Two rules keep the fold honest when requests fail or straggle:

- Percentiles are taken over *successful* requests only.  A failed
  request counts against the attempt total and as a miss of the latency
  limit, but never as a latency sample, so fast failures cannot pull a
  faulty leg's p99 below a healthy one's.
- Offered and achieved rates are measured over the window between the
  5% and 95% quantiles of the scheduled arrivals.  The full arrival span
  is set by the last few stragglers of a finite client swarm (about 2.3x
  the 5-95% span at small scale), so rates over the full span understate
  the load the bulk of the requests saw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Arrival quantiles bounding the rate-measurement window.
WINDOW = (0.05, 0.95)


def arrival_window(arrivals: np.ndarray) -> tuple[float, float]:
    """The ``[lo, hi)`` virtual-time window spanned by the WINDOW quantiles."""
    lo, hi = np.quantile(np.asarray(arrivals, dtype=np.float64), WINDOW)
    return float(lo), float(hi)


def window_rate(arrivals: np.ndarray) -> float:
    """Arrivals per virtual second inside the arrival window."""
    arrivals = np.asarray(arrivals, dtype=np.float64)
    lo, hi = arrival_window(arrivals)
    inside = np.count_nonzero((arrivals >= lo) & (arrivals < hi))
    return inside / (hi - lo)


def nearest_rank(sorted_values: np.ndarray, q: float) -> float:
    """Nearest-rank percentile of an ascending sample (0 when empty)."""
    n = len(sorted_values)
    if n == 0:
        return 0.0
    return float(sorted_values[min(n - 1, int(q * n))])


@dataclass(frozen=True)
class LegStats:
    """The fold of one open-loop leg; latencies in virtual seconds."""

    issued: int
    ok: int
    failed: int
    p50: float
    p99: float
    within_limit: int  # successful and no slower than the limit
    offered_rps: float
    achieved_rps: float  # successful completions inside the window

    @property
    def attain(self) -> float:
        """Share of issued requests served successfully within the limit."""
        return self.within_limit / self.issued if self.issued else 0.0

    def meets(self, limit: float) -> bool:
        """p99 within ``limit``, nothing failed, and no growing backlog."""
        return (
            self.failed == 0
            and self.p99 <= limit
            and self.achieved_rps >= 0.95 * self.offered_rps
        )


def fold(legs, *, limit: float) -> LegStats:
    """Fold legs offered at one rate, each a list of ``RequestRecord``-like
    objects (``arrival``, ``completion``, ``ok``) from an independent
    schedule, into one :class:`LegStats`.  Latencies are pooled; rates
    are window counts over the summed window spans."""
    issued = ok = offered = achieved = 0
    span = 0.0
    samples = []
    for records in legs:
        arrivals = np.fromiter((r.arrival for r in records), dtype=np.float64)
        completions = np.fromiter((r.completion for r in records), dtype=np.float64)
        served = np.fromiter((r.ok for r in records), dtype=bool, count=len(arrivals))
        lo, hi = arrival_window(arrivals)
        span += hi - lo
        offered += np.count_nonzero((arrivals >= lo) & (arrivals < hi))
        done = completions[served]
        achieved += np.count_nonzero((done >= lo) & (done < hi))
        samples.append(done - arrivals[served])
        issued += len(arrivals)
        ok += int(served.sum())
    latencies = np.sort(np.concatenate(samples))
    return LegStats(
        issued=issued,
        ok=ok,
        failed=issued - ok,
        p50=nearest_rank(latencies, 0.50),
        p99=nearest_rank(latencies, 0.99),
        within_limit=int(np.count_nonzero(latencies <= limit)),
        offered_rps=offered / span if span > 0 else 0.0,
        achieved_rps=achieved / span if span > 0 else 0.0,
    )

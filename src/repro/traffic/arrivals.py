"""Deterministic arrival processes and heavy-tailed request samplers.

Everything here is *schedule construction*: pure numpy driven off
``np.random.default_rng`` seeds, no simulation state, no wall clock, no
hash-ordering dependence.  A schedule built from the same seed is
bit-identical across interpreter invocations (any ``PYTHONHASHSEED``)
and across the serial/parallel experiment orchestrators — which is what
lets the ``slo_traffic`` experiment digest-pin its results like every
other experiment.

Arrival processes are expressed at **unit rate** (one request per virtual
second on average) and scaled by :meth:`RequestSchedule.at_rate`: the
offered-load sweep then replays the *identical* request sequence (same
keys, sizes, operations, same relative arrival order) at different
rates, so load is the only variable between legs of a latency curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import NVMallocError

#: Operation codes in a schedule's ``ops`` array.
OP_READ, OP_WRITE, OP_CKPT = 0, 1, 2


# ----------------------------------------------------------------------
# Arrival processes (interarrival generators at unit mean rate)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PoissonProcess:
    """Memoryless arrivals: exponential interarrivals at ``rate``."""

    rate: float = 1.0

    def interarrivals(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.rate <= 0:
            raise NVMallocError(f"arrival rate must be positive, got {self.rate}")
        return rng.exponential(1.0 / self.rate, size=n)


@dataclass(frozen=True)
class DeterministicProcess:
    """Clockwork arrivals: constant spacing ``1/rate``."""

    rate: float = 1.0

    def interarrivals(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.rate <= 0:
            raise NVMallocError(f"arrival rate must be positive, got {self.rate}")
        return np.full(n, 1.0 / self.rate, dtype=np.float64)


@dataclass(frozen=True)
class MMPPProcess:
    """Two-state Markov-modulated Poisson process (bursty on-off traffic).

    The process alternates between an *on* state firing at ``on_rate``
    and an *off* state firing at ``off_rate``, with exponential dwell
    times of mean ``mean_on`` / ``mean_off`` seconds.  Rates are chosen
    so the long-run mean equals the nominal ``rate`` when
    ``on_rate/off_rate`` are left at their defaults: the on state fires
    ``burstiness`` times faster than the off state.
    """

    rate: float = 1.0
    burstiness: float = 4.0
    mean_on: float = 2.0
    mean_off: float = 6.0

    def interarrivals(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.rate <= 0 or self.burstiness < 1.0:
            raise NVMallocError(
                f"need rate > 0 and burstiness >= 1, got "
                f"{self.rate}, {self.burstiness}"
            )
        # Solve for state rates that preserve the nominal mean rate:
        # time-weighted average of on/off rates equals ``rate``.
        on_share = self.mean_on / (self.mean_on + self.mean_off)
        base = self.rate / (on_share * self.burstiness + (1.0 - on_share))
        state_rate = (self.burstiness * base, base)  # (on, off)
        state_mean = (self.mean_on, self.mean_off)
        out = np.empty(n, dtype=np.float64)
        filled = 0
        state = 0  # deterministically start in the on state
        # Dwell in each state for an exponential duration, emitting
        # exponential interarrivals at the state's rate.  Residual dwell
        # time carries into the next arrival's gap when a state empties
        # without firing, so switching never creates phantom arrivals.
        carry = 0.0
        while filled < n:
            dwell = float(rng.exponential(state_mean[state]))
            rate = state_rate[state]
            elapsed = 0.0
            while filled < n:
                gap = float(rng.exponential(1.0 / rate))
                if elapsed + gap > dwell:
                    carry += dwell - elapsed
                    break
                out[filled] = carry + gap
                carry = 0.0
                filled += 1
                elapsed += gap
            state ^= 1
        return out


ArrivalProcess = PoissonProcess | DeterministicProcess | MMPPProcess


# ----------------------------------------------------------------------
# Request-content samplers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ParetoSizes:
    """Heavy-tailed object sizes: ``lo * (1 + Pareto(alpha))`` clipped to
    ``hi`` — most requests small, a fat tail of large ones."""

    alpha: float = 1.3
    lo: int = 256
    hi: int = 64 * 1024

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.scale(self.draw(rng, n))

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """The raw Pareto draws :meth:`scale` turns into sizes."""
        if not (self.alpha > 0 and 0 < self.lo <= self.hi):
            raise NVMallocError(
                f"bad Pareto sampler ({self.alpha}, {self.lo}, {self.hi})"
            )
        return rng.pareto(self.alpha, size=n)

    def scale(self, raw: np.ndarray) -> np.ndarray:
        """Byte sizes for raw draws of any shape, element by element."""
        return np.minimum(self.lo * (1.0 + raw), self.hi).astype(np.int64)


@dataclass(frozen=True)
class ZipfKeys:
    """Bounded Zipf(s) popularity over ``num_keys`` keys.

    Implemented by inverse-CDF lookup over the normalized ``1/k^s``
    weights (``np.random.Generator.zipf`` is unbounded), so every draw
    is a valid key index and the distribution is exact at any size.
    """

    num_keys: int
    s: float = 1.1

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.lookup(rng.random(n))

    def lookup(self, uniform: np.ndarray) -> np.ndarray:
        """Key indices for uniform draws of any shape, element by element."""
        return np.searchsorted(self.cdf, uniform, side="right").astype(np.int64)

    @cached_property
    def cdf(self) -> np.ndarray:
        """The normalized cumulative ``1/k^s`` weights, built once."""
        if self.num_keys <= 0 or self.s < 0:
            raise NVMallocError(f"bad Zipf sampler ({self.num_keys}, {self.s})")
        weights = 1.0 / np.power(
            np.arange(1, self.num_keys + 1, dtype=np.float64), self.s
        )
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        return cdf


# ----------------------------------------------------------------------
# The merged, globally time-ordered schedule
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RequestSchedule:
    """A fully materialized open-loop request schedule.

    Parallel arrays, one entry per request, globally ordered by
    ``(time, client, per-client sequence)``: ``times`` are unit-rate
    virtual arrival offsets (scale with :meth:`at_rate`), ``clients``
    the issuing client ids, ``keys`` the Zipf-drawn object keys,
    ``sizes`` the Pareto-drawn byte counts, ``ops`` the operation codes
    (``OP_READ``/``OP_WRITE``/``OP_CKPT``).
    """

    times: np.ndarray
    clients: np.ndarray
    keys: np.ndarray
    sizes: np.ndarray
    ops: np.ndarray

    def __len__(self) -> int:
        return len(self.times)

    @property
    def duration(self) -> float:
        """Span of the (unit-rate) arrival window."""
        return float(self.times[-1]) if len(self.times) else 0.0

    def at_rate(self, rate: float) -> "RequestSchedule":
        """The same request sequence offered at ``rate`` requests/second.

        Only the arrival clock is scaled; keys, sizes, operations, and
        the relative arrival order are untouched, so an offered-load
        sweep compares legs that differ *only* in load.
        """
        if rate <= 0:
            raise NVMallocError(f"offered rate must be positive, got {rate}")
        return RequestSchedule(
            times=self.times / rate,
            clients=self.clients,
            keys=self.keys,
            sizes=self.sizes,
            ops=self.ops,
        )

    def digest(self) -> str:
        """sha256 over the raw array bytes — the determinism fingerprint
        the property tests compare across hash seeds and orchestrators."""
        import hashlib

        h = hashlib.sha256()
        for arr in (self.times, self.clients, self.keys, self.sizes, self.ops):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()


def build_schedule(
    seed: int,
    num_clients: int,
    per_client: int,
    *,
    process: ArrivalProcess | None = None,
    sizes: ParetoSizes | None = None,
    keys: ZipfKeys | None = None,
    read_fraction: float = 0.7,
    checkpoint_fraction: float = 0.0,
) -> RequestSchedule:
    """Build the merged open-loop schedule for a client swarm.

    Each client gets an independent child stream of ``seed`` (via
    ``np.random.SeedSequence.spawn`` — deterministic, uncorrelated) and
    generates ``per_client`` arrivals from its own copy of the arrival
    process, plus its request contents.  The per-client streams are then
    merged into one globally time-ordered sequence, ties broken by
    ``(client, sequence)`` so the merge itself is deterministic.
    """
    if num_clients <= 0 or per_client <= 0:
        raise NVMallocError(
            f"need positive clients/requests, got {num_clients}, {per_client}"
        )
    if not 0.0 <= read_fraction <= 1.0 or not 0.0 <= checkpoint_fraction <= 1.0:
        raise NVMallocError("read/checkpoint fractions must be in [0, 1]")
    if read_fraction + checkpoint_fraction > 1.0:
        raise NVMallocError("read + checkpoint fractions exceed 1")
    process = process if process is not None else PoissonProcess()
    sizes = sizes if sizes is not None else ParetoSizes()
    keys = keys if keys is not None else ZipfKeys(num_keys=64)

    streams = np.random.SeedSequence(seed).spawn(num_clients)
    shape = (num_clients, per_client)
    gaps = np.empty(shape, dtype=np.float64)
    key_draws = np.empty(shape, dtype=np.float64)
    size_draws = np.empty(shape, dtype=np.float64)
    op_draws = np.empty(shape, dtype=np.float64)
    # Only the random draws are per client, in each client's own stream
    # and in a fixed order; everything derived from them is elementwise
    # or row-wise, so it runs once over the clients x requests matrix.
    for client, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        gaps[client] = process.interarrivals(rng, per_client)
        key_draws[client] = rng.random(per_client)
        size_draws[client] = sizes.draw(rng, per_client)
        op_draws[client] = rng.random(per_client)
    # Per-client arrivals are spaced for the whole swarm's unit rate:
    # N clients each firing at 1/N requests/s aggregate to rate 1.
    gaps *= num_clients
    all_times = np.cumsum(gaps, axis=1).ravel()
    all_clients = np.repeat(np.arange(num_clients, dtype=np.int64), per_client)
    all_seq = np.tile(np.arange(per_client, dtype=np.int64), num_clients)
    all_keys = keys.lookup(key_draws).ravel()
    all_sizes = sizes.scale(size_draws).ravel()
    all_ops = np.full(shape, OP_WRITE, dtype=np.int8)
    all_ops[op_draws < read_fraction] = OP_READ
    all_ops[op_draws >= 1.0 - checkpoint_fraction] = OP_CKPT
    all_ops = all_ops.ravel()
    order = np.lexsort((all_seq, all_clients, all_times))
    return RequestSchedule(
        times=all_times[order],
        clients=all_clients[order],
        keys=all_keys[order],
        sizes=all_sizes[order],
        ops=all_ops[order],
    )


__all__ = [
    "ArrivalProcess",
    "DeterministicProcess",
    "MMPPProcess",
    "OP_CKPT",
    "OP_READ",
    "OP_WRITE",
    "ParetoSizes",
    "PoissonProcess",
    "RequestSchedule",
    "ZipfKeys",
    "build_schedule",
]

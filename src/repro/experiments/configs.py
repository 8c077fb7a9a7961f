"""Experiment scales: the paper's setup shrunk with ratios preserved.

The paper runs 2 GB (Figs. 2-5) and 8 GB (Fig. 6) matrices on a testbed
with 8 GB DRAM/node, a 64 MB FUSE cache, and ~1 GB of page cache.  A
faithful full-size run is not feasible in a simulation that carries real
bytes, so each :class:`ExperimentScale` shrinks capacities while keeping
the granularities (256 KB chunks, 4 KB pages) exact and the *relations*
that drive every result intact:

- 2 processes/node worth of replicated B fits in DRAM, 8 do not (Fig. 3);
- the caches hold a fraction of B, so the compute stage streams B from
  the store once per node (the convoy effect the paper relies on);
- the sort dataset is ~1.56x the DRAM budget devoted to it (Table VI);
- the random-write region is many times the FUSE cache (Table VII).

``cpu_slowdown`` compensates for cubic-vs-quadratic scaling: shrinking
the matrix linearly by ``s`` cuts flops by ``s^3`` but bytes by ``s^2``,
so cores are slowed to restore the paper's compute-to-I/O time ratio
(calibrated so that DRAM(2:16:0)'s compute share matches Fig. 3).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.cluster.cpu import CPUSpec
from repro.cluster.hal import HalConfig
from repro.util.units import KiB, MiB


@dataclass(frozen=True)
class ExperimentScale:
    """All knobs of one scaled-down reproduction of the HAL testbed."""

    name: str
    # Matrix multiplication (Figs. 3-5, Tables IV-V).
    matrix_n: int
    matrix_tile: int
    # STREAM (Fig. 2, Table III).
    stream_elements: int
    stream_iterations: int
    stream_block: int
    # Sort (Table VI).
    sort_elements: int
    sort_dram_per_rank: int
    # Random write (Table VII).
    randwrite_region: int
    randwrite_count: int
    # Checkpoint workload.
    checkpoint_variable: int
    checkpoint_dram_state: int
    # Testbed capacities.
    dram_per_node: int
    ssd_per_node: int
    fuse_cache: int
    page_cache: int
    benefactor_contribution: int
    pfs_servers: int
    cpu_slowdown: float  # divide per-core flops by this
    # Node-local SSD cache-tier capacity for the cache_tiering ablation
    # (defaulted so older scale literals stay valid; the tier itself is
    # only instantiated when a job passes local_cache_bytes).
    local_cache: int = 8 * MiB
    # Checkpoint-lifecycle experiment (repro.experiments.lifecycle):
    # chain length, epoch sizes, and the async drain's staging budget
    # (defaulted so older scale literals stay valid).
    lifecycle_variable: int = 4 * MiB
    lifecycle_dram_state: int = 128 * KiB
    lifecycle_timesteps: int = 4
    lifecycle_mutate_fraction: float = 0.25
    lifecycle_staging_chunks: int = 2
    # Open-loop traffic / SLO experiment (repro.experiments.slo_traffic):
    # client-population shape, request mix, and the offered-load sweep
    # (defaulted so older scale literals stay valid).
    slo_clients: int = 120
    slo_requests_per_client: int = 4
    slo_region_bytes: int = 2 * MiB
    slo_num_keys: int = 256
    slo_read_fraction: float = 0.7
    slo_checkpoint_fraction: float = 0.05
    slo_load_factors: tuple[float, ...] = (0.5, 0.8, 0.95)
    slo_target_factor: float = 4.0
    slo_workers: int = 8
    slo_seed: int = 77

    def cpu_spec(self) -> CPUSpec:
        """The (possibly slowed) per-core CPU spec for this scale."""
        return CPUSpec(clock_hz=2.4e9, flops_per_cycle=2.0 / self.cpu_slowdown)

    def hal_config(self) -> HalConfig:
        """A HAL testbed config at this scale's capacities."""
        return HalConfig(
            dram_per_node=self.dram_per_node,
            ssd_per_node=self.ssd_per_node,
            cpu_spec=self.cpu_spec(),
        )

    @property
    def matrix_bytes(self) -> int:
        """Bytes of one MM matrix at this scale."""
        return self.matrix_n * self.matrix_n * 8

    def with_(self, **kwargs) -> "ExperimentScale":
        """A modified copy (for ablations)."""
        return replace(self, **kwargs)


#: Benchmark scale: shapes calibrated against the paper (see DESIGN.md §5
#: and EXPERIMENTS.md).  Matrix 512x512 = 2 MiB stands in for 2 GB; the
#: linear shrink is s = 32, so cores are slowed by ~s^1.6 (calibrated 512x)
#: to keep Fig. 3's compute share.
SMALL = ExperimentScale(
    name="small",
    matrix_n=512,
    matrix_tile=64,
    stream_elements=2 * 1024 * 1024,  # 16 MiB per array
    stream_iterations=2,
    stream_block=64 * KiB,
    # 32 MiB of keys vs a ~20.5 MiB aggregate DRAM sort budget: the
    # paper's 200 GB / 128 GB = 1.5625 oversubscription ratio, at a size
    # where bandwidth (not per-message latency) dominates.
    sort_elements=1 << 22,
    sort_dram_per_rank=20480,
    randwrite_region=32 * MiB,
    randwrite_count=16 * 1024,
    checkpoint_variable=8 * MiB,
    checkpoint_dram_state=512 * KiB,
    # 8 MiB/node: 2 processes' replicated 2 MiB B matrices fit (with the
    # master's staging copy), 8 do not — the Fig. 3 DRAM constraint.
    dram_per_node=8 * MiB,
    ssd_per_node=512 * MiB,
    fuse_cache=1 * MiB,
    page_cache=1 * MiB,
    benefactor_contribution=256 * MiB,
    pfs_servers=4,
    cpu_slowdown=512.0,
    # 48x the DRAM chunk cache — a thin slice of the 512 MiB local SSD,
    # sized to the randwrite working set like a real deployment would.
    local_cache=48 * MiB,
    # Lifecycle: a 16-chunk variable over 4 epochs, 2 chunks of staging.
    lifecycle_variable=4 * MiB,
    lifecycle_dram_state=256 * KiB,
    lifecycle_timesteps=4,
    lifecycle_mutate_fraction=0.25,
    lifecycle_staging_chunks=2,
    # SLO traffic: a two-thousand-client swarm, heavy-tailed sizes over
    # a 4 MiB/node shared region, 5% checkpoint-restore requests.
    slo_clients=2000,
    slo_requests_per_client=4,
    slo_region_bytes=4 * MiB,
    slo_num_keys=512,
    slo_read_fraction=0.7,
    slo_checkpoint_fraction=0.05,
    slo_load_factors=(0.5, 0.8, 0.95),
    slo_target_factor=4.0,
    slo_workers=8,
    slo_seed=77,
)

#: Test scale: small enough for the full grid to run in unit-test time.
TINY = ExperimentScale(
    name="tiny",
    matrix_n=128,
    matrix_tile=32,
    stream_elements=128 * 1024,  # 1 MiB per array
    stream_iterations=2,
    stream_block=32 * KiB,
    sort_elements=1 << 15,
    sort_dram_per_rank=1 << 10,
    randwrite_region=4 * MiB,
    randwrite_count=2 * 1024,
    checkpoint_variable=1 * MiB,
    checkpoint_dram_state=64 * KiB,
    dram_per_node=6 * MiB,
    ssd_per_node=128 * MiB,
    fuse_cache=512 * KiB,
    page_cache=512 * KiB,
    benefactor_contribution=64 * MiB,
    pfs_servers=2,
    cpu_slowdown=512.0,
    local_cache=8 * MiB,
    lifecycle_variable=1 * MiB,
    lifecycle_dram_state=64 * KiB,
    lifecycle_timesteps=3,
    lifecycle_mutate_fraction=0.25,
    lifecycle_staging_chunks=2,
    slo_clients=120,
    slo_requests_per_client=4,
    slo_region_bytes=2 * MiB,
    slo_num_keys=256,
    slo_read_fraction=0.7,
    slo_checkpoint_fraction=0.05,
    slo_load_factors=(0.5, 0.8, 0.95),
    slo_target_factor=4.0,
    slo_workers=8,
    slo_seed=77,
)

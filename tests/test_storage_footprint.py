"""Host memory of an idle testbed tracks what it touched, not its size.

A small-scale testbed models 16 SSDs of 2048 flash blocks each and
benefactors with hundreds of chunk slots.  Per-block FTL tables and
free-extent lists are built on first use, so assembling one (plus a
remote-benefactor job) before any I/O must stay far below the ~7 MB the
eager tables cost.
"""

import tracemalloc

from repro.experiments.configs import SMALL
from repro.experiments.runner import Testbed

BUDGET = 1 << 20  # bytes


def test_small_testbed_and_job_allocate_under_budget():
    Testbed(SMALL).job(1, 2, 4, remote_ssd=True, replication=2)  # warm imports
    tracemalloc.start()
    try:
        testbed = Testbed(SMALL)
        job = testbed.job(1, 2, 4, remote_ssd=True, replication=2)
        allocated, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert job.manager is not None
    assert allocated < BUDGET, f"{allocated / 1e6:.2f} MB allocated"

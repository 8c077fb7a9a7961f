"""One repetition of one benchmark workload, in a process of its own.

Started by ``run.py``; prints one JSON object as its last line of output.

    python3 perfbench/worker.py --workload randwrite --seed 1 --mode plain

``plain`` runs the measured phase with tracing off.  ``profiled`` runs it
under cProfile with repro.obs tracing on, and adds host self time per
package and virtual self time per span layer.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def import_tree() -> str:
    """Import repro from this tree's ``src/``; refuse any other copy."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"worker: cannot import repro from {SRC}: {exc}") from exc
    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"worker: repro imported from {origin}, outside {SRC}")
    return str(origin)


def digest(outcome) -> str:
    """sha256 over the virtual metrics, every counter of every testbed and
    the sorted latency arrays: equal digests mean equal simulated results."""
    payload = {
        "virtual": outcome.virtual,
        "counters": [stage.counters for stage in outcome.stages],
        "latencies": outcome.latencies,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "profiled"), required=True)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    origin = import_tree()
    import layers
    import workloads

    import_s = time.perf_counter() - t0
    profiled = args.mode == "profiled"
    if profiled:
        import cProfile
        import pstats

        from repro import obs

        obs.enable(True)
    t1 = time.perf_counter()
    measured = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = import_s + (time.perf_counter() - t1)

    if profiled:
        profiler = cProfile.Profile()
        profiler.enable()
    start = time.perf_counter()
    outcome = measured()
    wall_s = time.perf_counter() - start
    if profiled:
        profiler.disable()

    report = {
        "repro_file": origin,
        "wall_s": wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "virtual": outcome.virtual,
        "digest": digest(outcome),
    }
    if profiled:
        report["host_self_s"] = layers.host_self_by_bucket(
            pstats.Stats(profiler), SRC.resolve(), BENCH
        )
        virtual_self: dict[str, float] = {}
        spans = 0
        partition_ok = True
        for stage in outcome.stages:
            spans += len(stage.spans)
            for root in stage.spans:
                if root.layer != "bench":
                    continue
                per_layer, ticks = layers.virtual_self_by_layer(stage.spans, root)
                partition_ok &= ticks == layers.duration_ticks(root)
                partition_ok &= all(v >= 0 for v in per_layer.values())
                for layer, seconds in per_layer.items():
                    virtual_self[layer] = virtual_self.get(layer, 0.0) + seconds
        report["virtual_self_s"] = virtual_self
        report["spans"] = spans
        report["partition_ok"] = partition_ok
    else:
        report["counts"] = layers.work_counts(outcome.stages)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

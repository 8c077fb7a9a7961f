"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload traffic_open --seed 1 --seconds 20 --trace 0

Run from the root of a source tree.  Every repetition runs in a fresh
process (``worker.py``) started from this one, one at a time, so each
starts with empty modelled caches and pays its own import.

``--trace 0`` repeats the workload, tracing off, until ``--seconds`` have
passed (at least twice), and reports the end-to-end metrics: host
times and memory as medians over the repetitions, simulated ("sim_")
figures from the model.  Simulated figures are unvalidated modelled-design
numbers, not hardware measurements; every repetition must reproduce them
bit for bit.

``--trace 1`` runs the workload once plainly, for the work counts, and
once under cProfile with repro.obs tracing on, for host self time per
package and virtual self time per span layer.  cProfile inflates host
time about threefold, so host self times compare only between profiled
runs; ``trace.overhead`` is the ratio of the two walls.  The run fails
when the two disagree on the simulated results.

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only for a correct run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import HOST_BUCKETS, SPAN_LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"

WORKLOADS = ("stream_nvm", "randwrite", "quicksort_hybrid", "traffic_open")

#: Repetitions a --trace 0 run makes even when --seconds is short.
MIN_REPS = 2

#: Seconds one worker process may take before the run is abandoned.
WORKER_TIMEOUT = 150

#: The metric names and units this benchmark reports.
SPEC = ROOT / "BENCHMARK.json"

#: Metrics measured on this machine; every other one is simulated.
HOST_TIMED = ("wall_s", "setup_s", "peak_rss_mb", "host.profiled_s", "trace.overhead")


class BenchError(RuntimeError):
    """The benchmark could not run or measure the tree."""


def tree_revision() -> tuple[str | None, bool | None]:
    """``git rev-parse HEAD`` and a dirty flag, when ROOT is a work tree."""
    def git(*args: str) -> str | None:
        try:
            done = subprocess.run(
                ["git", "-C", str(ROOT), *args],
                capture_output=True, text=True, timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    if top is None or Path(top).resolve() != ROOT:
        return None, None
    status = git("status", "--porcelain")
    return git("rev-parse", "HEAD"), (None if status is None else bool(status))


def worker(workload: str, seed: int, mode: str) -> dict:
    """Run one repetition in a fresh process; its last output line is JSON."""
    command = [sys.executable, str(WORKER), "--workload", workload,
               "--seed", str(seed), "--mode", mode]
    try:
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=WORKER_TIMEOUT,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode} worker timed out") from exc
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchError(
            f"{workload} {mode} worker exited {done.returncode}: "
            f"{done.stderr.strip()[-2000:]}"
        )
    report = json.loads(done.stdout.strip().splitlines()[-1])
    origin = Path(report["repro_file"])
    if ROOT / "src" not in origin.parents:
        raise BenchError(f"worker measured {origin}, not this tree")
    return report


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict]]:
    """Repeat the workload until ``seconds`` pass; medians of host figures."""
    reps: list[dict] = []
    start = time.perf_counter()
    last = 0.0
    while len(reps) < MIN_REPS or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        reps.append(worker(workload, seed, "plain"))
        last = time.perf_counter() - began
    values = dict(reps[0]["virtual"])
    for name in ("wall_s", "setup_s", "peak_rss_mb"):
        values[name] = statistics.median(rep[name] for rep in reps)
    return values, reps


def per_layer(workload: str, seed: int) -> tuple[dict, list[dict]]:
    """One plain run for the counts, one profiled run for self times."""
    plain = worker(workload, seed, "plain")
    profiled = worker(workload, seed, "profiled")
    values = dict(plain["counts"])
    host = profiled["host_self_s"]
    for bucket in HOST_BUCKETS:
        values[f"{bucket}.host_self_s"] = host.get(bucket, 0.0)
    values["host.profiled_s"] = sum(host.values())
    for layer in SPAN_LAYERS:
        values[f"{layer}.virtual_self_s"] = profiled["virtual_self_s"].get(layer, 0.0)
    values["trace.spans"] = profiled["spans"]
    values["trace.overhead"] = profiled["wall_s"] / plain["wall_s"]
    return values, [plain, profiled]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no source tree to measure at {ROOT / 'src'}", file=sys.stderr)
        return 2
    head, dirty = tree_revision()
    try:
        spec = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
        if args.trace:
            values, reps = per_layer(args.workload, args.seed)
        else:
            values, reps = end_to_end(args.workload, args.seed, args.seconds)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec}
    except (BenchError, OSError, KeyError) as exc:
        print(f"run.py: {exc!r}", file=sys.stderr)
        return 2

    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    digests = {rep["digest"] for rep in reps}
    # Simulated results must repeat exactly, and survive tracing.
    correct = failed == 0 and len(digests) == 1
    if args.trace:
        correct &= reps[1]["partition_ok"]

    print(f"tree: {ROOT}  head={head}  dirty={dirty}")
    print(f"repro: {reps[0]['repro_file']}")
    seed_note = " (stream_nvm has no randomness)" if args.workload == "stream_nvm" else ""
    print(f"workload: {args.workload}  seed={args.seed}{seed_note}  "
          f"repetitions={len(reps)}  trace={args.trace}")
    print(f"virtual digest: {' '.join(sorted(digests))}")
    print(f"error_rate: {failed / attempted:.6g} ({failed} of {attempted} "
          f"operations failed or unverified)")
    if args.trace:
        host = reps[1]["host_self_s"]
        total = sum(host.values()) or 1.0
        print("host self time share (profiled):")
        for bucket, seconds in sorted(host.items(), key=lambda kv: -kv[1]):
            print(f"  {bucket:<12s} {100 * seconds / total:6.2f}%")
        print(f"virtual self times partition the root spans: {reps[1]['partition_ok']}")
    for name, m in metrics.items():
        host = name in HOST_TIMED or name.endswith(".host_self_s")
        clock = "host" if host else "virtual"
        print(f"  {name:<28s} {m['value']:>18.6f} {m['unit']:<8s} {clock}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""cProfile the benchmark workloads through the full memory stack.

Runs the same workload drivers as ``tools/bench_wallclock.py`` under
``cProfile`` and prints the hottest functions, so kernel/page-cache work
can be aimed at the frames that actually dominate.  Two caveats when
reading the output:

- cProfile's tracing overhead inflates cheap, frequently-called frames
  by a large constant factor — compare *ratios* between runs, never the
  absolute seconds, and confirm any win with the benchmark itself.
- The profile says nothing about virtual time.  After optimizing, run
  ``tools/bench_wallclock.py --baseline`` to prove virtual identity.

``--layers`` switches from function-level profiling to *model-layer*
attribution: each workload runs once with tracing on, and the recorded
span tree is rolled up into a per-``(layer, op)`` table — span count,
inclusive virtual seconds, and self virtual seconds (inclusive minus
the union of the direct children's intervals), plus the per-layer
critical-path shares from :mod:`repro.obs.critical`.  All virtual columns are bit-deterministic
(they replay the simulation's own clock); only the wall column moves
between runs, and tracing inflates it.  ``--layers-out`` dumps the table
as JSON, and ``--diff old.json`` prints the per-row deltas against an
earlier dump — the before/after view a perf PR should ship.

Usage::

    PYTHONPATH=src python tools/profile_stack.py                # all workloads
    PYTHONPATH=src python tools/profile_stack.py \
        --workloads randwrite_table7 --sort tottime --limit 40
    PYTHONPATH=src python tools/profile_stack.py --layers \
        --layers-out layers.json
    PYTHONPATH=src python tools/profile_stack.py --layers \
        --diff layers.json
    make profile                                                # shortcut
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import sys
import time
from pathlib import Path

# Allow running from a source checkout without installing.
_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from bench_wallclock import WORKLOADS  # noqa: E402
from repro import obs  # noqa: E402
from repro.experiments.configs import SMALL, TINY  # noqa: E402
from repro.experiments.runner import track_testbeds  # noqa: E402
from repro.obs.critical import critical_path  # noqa: E402
from repro.obs.export import latency_json  # noqa: E402
from repro.util.intervals import IntervalSet  # noqa: E402

LAYERS_SCHEMA = 1

#: Integer ticks per virtual second for the self-time interval arithmetic.
TICKS = 10**12


def _ticks(t: float) -> int:
    return round(t * TICKS)


def _layer_rollup(spans) -> dict[str, dict[str, float]]:
    """Per-``layer.op`` rollup of one tracer's span list.

    ``virtual_self`` is a span's duration minus the length of the union
    of its *direct* children's intervals, clipped to the span, in
    integer ticks.  Concurrent children (ranks, requests) overlap, so
    the union, not the sum, keeps self time non-negative.  Overlapping
    siblings each keep their own self time, so the self column of one
    trace can sum to more than the roots' inclusive time.
    """
    children: dict[int, list] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    rollup: dict[str, dict[str, float]] = {}
    for span in spans:
        row = rollup.setdefault(
            f"{span.layer}.{span.name}",
            {"count": 0, "virtual_inclusive": 0.0, "virtual_self": 0.0},
        )
        row["count"] += 1
        row["virtual_inclusive"] += span.duration
        start, stop = _ticks(span.start), _ticks(span.end)
        covered = 0
        if span.span_id in children:
            union = IntervalSet()
            for child in children[span.span_id]:
                c0 = max(_ticks(child.start), start)
                c1 = min(_ticks(child.end), stop)
                if c0 < c1:
                    union.add(c0, c1)
            covered = union.total()
        row["virtual_self"] += (stop - start - covered) / TICKS
    return rollup


def _merge_rollups(into: dict, other: dict) -> None:
    for key, row in other.items():
        dst = into.setdefault(
            key, {"count": 0, "virtual_inclusive": 0.0, "virtual_self": 0.0}
        )
        dst["count"] += row["count"]
        dst["virtual_inclusive"] += row["virtual_inclusive"]
        dst["virtual_self"] += row["virtual_self"]


def _layers_workload(name: str, scale) -> dict[str, object]:
    """Run one workload traced and roll its spans up per (layer, op)."""
    was_enabled = obs.enabled()
    try:
        obs.enable(True)
        start = time.perf_counter()
        with track_testbeds() as tracker:
            outcome = WORKLOADS[name](scale)
        wall = time.perf_counter() - start
    finally:
        obs.enable(was_enabled)
    rollup: dict[str, dict[str, float]] = {}
    critical: dict[str, float] = {}
    all_spans = []
    for testbed in tracker.testbeds:
        tracer = getattr(testbed.engine, "tracer", None)
        if tracer is None or not tracer.spans:
            continue
        all_spans.extend(tracer.spans)
        _merge_rollups(rollup, _layer_rollup(tracer.spans))
        try:
            for layer, seconds in critical_path(
                tracer.spans
            ).layer_seconds.items():
                critical[layer] = critical.get(layer, 0.0) + seconds
        except ValueError:
            pass  # no parentless span to anchor the walk
    return {
        "wall_seconds": wall,
        "virtual_seconds": outcome["virtual_seconds"],
        "verified": outcome.get("verified", False),
        "spans": len(all_spans),
        "layers": rollup,
        "critical": critical,
        "latency": latency_json(all_spans),
    }


def _print_layers(name: str, result: dict, *, limit: int) -> None:
    print(f"\n=== {name}: per-(layer, op) virtual attribution ===")
    print(
        f"wall {result['wall_seconds']:.2f}s (tracing-inflated)  "
        f"virtual {result['virtual_seconds']:.4f}s  "
        f"spans {result['spans']}"
    )
    rows = sorted(
        result["layers"].items(),
        key=lambda kv: (-kv[1]["virtual_self"], kv[0]),
    )
    print(f"{'layer.op':<32s} {'calls':>9s} {'v-incl (s)':>12s} {'v-self (s)':>12s}")
    for key, row in rows[:limit]:
        print(
            f"{key:<32s} {row['count']:>9d} "
            f"{row['virtual_inclusive']:>12.6f} {row['virtual_self']:>12.6f}"
        )
    if result["critical"]:
        print("critical-path layer shares:")
        total = sum(result["critical"].values()) or 1.0
        for layer, seconds in sorted(
            result["critical"].items(), key=lambda kv: (-kv[1], kv[0])
        ):
            print(f"  {layer:<16s} {seconds:12.6f}s  {100 * seconds / total:5.1f}%")


def _print_layers_diff(name: str, old: dict, new: dict, *, limit: int) -> None:
    print(f"\n=== {name}: layers diff (old -> new) ===")
    print(
        f"wall {old['wall_seconds']:.2f}s -> {new['wall_seconds']:.2f}s "
        f"(tracing-inflated)  virtual {old['virtual_seconds']} -> "
        f"{new['virtual_seconds']}"
        + ("" if old["virtual_seconds"] == new["virtual_seconds"]
           else "  [VIRTUAL DRIFT]")
    )
    keys = sorted(
        set(old["layers"]) | set(new["layers"]),
        key=lambda k: -(
            new["layers"].get(k, {}).get("virtual_self", 0.0)
            + old["layers"].get(k, {}).get("virtual_self", 0.0)
        ),
    )
    empty = {"count": 0, "virtual_inclusive": 0.0, "virtual_self": 0.0}
    print(
        f"{'layer.op':<32s} {'calls old':>10s} {'calls new':>10s} "
        f"{'v-self old':>12s} {'v-self new':>12s}"
    )
    shown = 0
    for key in keys:
        o = old["layers"].get(key, empty)
        n = new["layers"].get(key, empty)
        marker = "" if o == n else "  *"
        print(
            f"{key:<32s} {o['count']:>10d} {n['count']:>10d} "
            f"{o['virtual_self']:>12.6f} {n['virtual_self']:>12.6f}{marker}"
        )
        shown += 1
        if shown >= limit:
            break


def run_layers(args) -> int:
    scale = SMALL if args.scale == "small" else TINY
    names = args.workloads or list(WORKLOADS)
    old = None
    if args.diff:
        old = json.loads(Path(args.diff).read_text())
        if old.get("schema") != LAYERS_SCHEMA:
            print(
                f"unsupported layers schema {old.get('schema')!r} in "
                f"{args.diff}",
                file=sys.stderr,
            )
            return 2
    payload: dict[str, object] = {
        "schema": LAYERS_SCHEMA,
        "scale": args.scale,
        "workloads": {},
    }
    status = 0
    for name in names:
        result = _layers_workload(name, scale)
        payload["workloads"][name] = result
        if not result["verified"]:
            print(f"WARNING: {name} failed payload verification", file=sys.stderr)
            status = 1
        prior = old["workloads"].get(name) if old else None
        if prior is not None:
            _print_layers_diff(name, prior, result, limit=args.limit)
        else:
            _print_layers(name, result, limit=args.limit)
    if args.layers_out:
        Path(args.layers_out).write_text(json.dumps(payload, indent=2, sort_keys=True))
        print(f"\nwrote {args.layers_out}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--scale", choices=("small", "tiny"), default="small",
        help="experiment scale (default: small, matching the benchmark)",
    )
    parser.add_argument(
        "--workloads", nargs="*", choices=sorted(WORKLOADS), default=None,
        help="subset of workloads to profile (default: all)",
    )
    parser.add_argument(
        "--sort", choices=("cumulative", "tottime", "ncalls"),
        default="cumulative", help="pstats sort key (default: cumulative)",
    )
    parser.add_argument(
        "--limit", type=int, default=30,
        help="rows of the stats table to print per workload (default: 30)",
    )
    parser.add_argument(
        "--output", default=None,
        help="also dump raw pstats data to OUTPUT.<workload> for snakeviz etc.",
    )
    parser.add_argument(
        "--layers", action="store_true",
        help="per-(layer, op) virtual attribution from traced spans "
        "instead of cProfile function stats",
    )
    parser.add_argument(
        "--layers-out", default=None,
        help="with --layers: dump the attribution tables as JSON",
    )
    parser.add_argument(
        "--diff", default=None, metavar="OLD.json",
        help="with --layers: print per-row deltas against an earlier "
        "--layers-out dump",
    )
    args = parser.parse_args(argv)

    if args.diff and not args.layers:
        parser.error("--diff requires --layers")
    if args.layers_out and not args.layers:
        parser.error("--layers-out requires --layers")
    if args.layers:
        return run_layers(args)

    scale = SMALL if args.scale == "small" else TINY
    names = args.workloads or list(WORKLOADS)
    for name in names:
        bench = WORKLOADS[name]
        print(f"\n=== {name} (scale={args.scale}) ===")
        profiler = cProfile.Profile()
        profiler.enable()
        outcome = bench(scale)
        profiler.disable()
        if not outcome.get("verified", False):
            print(f"WARNING: {name} failed payload verification", file=sys.stderr)
        print(
            f"wall {outcome['wall_seconds']:.2f}s (inflated by tracing)  "
            f"virtual {outcome['virtual_seconds']:.4f}s  "
            f"events {outcome.get('events_processed', 'n/a')}"
        )
        stats = pstats.Stats(profiler)
        stats.sort_stats(args.sort).print_stats(args.limit)
        if args.output:
            stats.dump_stats(f"{args.output}.{name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Check saved ``perfbench/run.py`` outputs against the pinned digests.

Usage::

    for w in stream_nvm randwrite quicksort_hybrid traffic_open; do
        python perfbench/run.py --workload $w --seed 1 --seconds 0 \
            --trace 0 > /tmp/perfbench/$w.txt
    done
    python tools/check_perfbench_digests.py \
        benchmarks/PERFBENCH_digests.json /tmp/perfbench/*.txt

Each output names its workload and seed on the ``workload:`` line and
its simulated results on the ``virtual digest:`` line; its last line is
the run's JSON verdict.  Exits non-zero when a digest differs from the
pinned one, a run was not correct (failed or unverified operations, or
repetitions that disagreed), a pinned workload has no output, or an
output is for another seed.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

WORKLOAD = re.compile(r"^workload: (\S+)\s+seed=(-?\d+)", re.MULTILINE)
DIGEST = re.compile(r"^virtual digest: (.*)$", re.MULTILINE)


def parse(text: str) -> tuple[str, int, str, bool]:
    """``(workload, seed, digest, correct)`` of one run's output."""
    workload = WORKLOAD.search(text)
    digest = DIGEST.search(text)
    if workload is None or digest is None:
        raise ValueError("no 'workload:' or 'virtual digest:' line")
    verdict = json.loads(text.strip().splitlines()[-1])
    return workload[1], int(workload[2]), digest[1].strip(), bool(verdict["correct"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("pinned", help="the pinned digest file")
    parser.add_argument("outputs", nargs="+", help="saved run.py outputs")
    args = parser.parse_args(argv)

    pinned = json.loads(Path(args.pinned).read_text())
    expected: dict[str, str] = pinned["digests"]
    problems: list[str] = []
    seen: set[str] = set()
    for path in args.outputs:
        try:
            workload, seed, digest, correct = parse(Path(path).read_text())
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"{path}: unreadable run output ({exc})")
            continue
        seen.add(workload)
        found = len(problems)
        if seed != pinned["seed"]:
            problems.append(f"{workload}: seed {seed}, pinned for {pinned['seed']}")
        elif workload not in expected:
            problems.append(f"{workload}: no pinned digest")
        elif digest != expected[workload]:
            problems.append(
                f"{workload}: digest {digest}, pinned {expected[workload]}"
            )
        if not correct:
            problems.append(f"{workload}: run not correct")
        if len(problems) == found:
            print(f"ok  {workload:<18s} {digest}")
    for workload in sorted(set(expected) - seen):
        problems.append(f"{workload}: no run output given")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())

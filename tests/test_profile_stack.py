"""Smoke test for ``tools/profile_stack.py``.

Profiles one TINY workload end to end and checks the output carries the
sections a reader relies on: the per-workload header, the wall/virtual
summary line, and the pstats table.
"""

import sys
from pathlib import Path

_TOOLS = str(Path(__file__).resolve().parent.parent / "tools")
if _TOOLS not in sys.path:
    sys.path.insert(0, _TOOLS)

import profile_stack  # noqa: E402


def test_profiles_tiny_workload_with_expected_sections(capsys, tmp_path):
    out = tmp_path / "stats"
    rc = profile_stack.main(
        [
            "--scale", "tiny",
            "--workloads", "checkpoint_linked",
            "--sort", "tottime",
            "--limit", "5",
            "--output", str(out),
        ]
    )
    assert rc == 0
    captured = capsys.readouterr()
    assert "=== checkpoint_linked (scale=tiny) ===" in captured.out
    assert "wall " in captured.out and "virtual " in captured.out
    assert "events " in captured.out
    # The pstats table made it out, sorted by the requested key.
    assert "function calls" in captured.out
    assert "cumtime" in captured.out
    assert "WARNING" not in captured.err
    # --output dumped a loadable raw profile per workload.
    import pstats

    pstats.Stats(str(out) + ".checkpoint_linked")


def test_unknown_workload_rejected(capsys):
    try:
        profile_stack.main(["--workloads", "nope"])
    except SystemExit as exc:
        assert exc.code == 2
    else:  # pragma: no cover
        raise AssertionError("argparse should reject unknown workloads")


def test_layers_mode_attributes_virtual_time(capsys, tmp_path):
    out = tmp_path / "layers.json"
    rc = profile_stack.main(
        [
            "--layers",
            "--scale", "tiny",
            "--workloads", "checkpoint_linked",
            "--layers-out", str(out),
        ]
    )
    assert rc == 0
    captured = capsys.readouterr()
    assert "per-(layer, op) virtual attribution" in captured.out
    assert "critical-path layer shares:" in captured.out
    assert "pagecache.fault" in captured.out

    import json

    payload = json.loads(out.read_text())
    assert payload["schema"] == 1
    result = payload["workloads"]["checkpoint_linked"]
    assert result["spans"] > 0
    rollup = result["layers"]
    # Self-time never exceeds inclusive and both are non-negative.
    for row in rollup.values():
        assert 0.0 <= round(row["virtual_self"], 12) <= round(
            row["virtual_inclusive"], 12
        ) + 1e-12

    # --diff against the dump we just wrote: virtual columns replay
    # bit-identically, so no row may be flagged as changed.
    rc = profile_stack.main(
        [
            "--layers",
            "--scale", "tiny",
            "--workloads", "checkpoint_linked",
            "--diff", str(out),
        ]
    )
    assert rc == 0
    captured = capsys.readouterr()
    assert "layers diff (old -> new)" in captured.out
    assert "VIRTUAL DRIFT" not in captured.out
    assert "*" not in captured.out.replace("* ", "")  # no changed-row markers


def test_layers_diff_requires_layers(capsys):
    try:
        profile_stack.main(["--diff", "x.json"])
    except SystemExit as exc:
        assert exc.code == 2
    else:  # pragma: no cover
        raise AssertionError("--diff without --layers should be rejected")


def test_layer_self_time_subtracts_union_of_concurrent_children():
    from types import SimpleNamespace

    def span(span_id, parent_id, name, start, end):
        return SimpleNamespace(
            span_id=span_id, parent_id=parent_id, layer="app", name=name,
            start=start, end=end, duration=end - start,
        )

    # Two overlapping children cover [1, 8]: the parent keeps 10 - 7.
    rollup = profile_stack._layer_rollup(
        [
            span(1, None, "parent", 0.0, 10.0),
            span(2, 1, "child", 1.0, 6.0),
            span(3, 1, "child", 2.0, 8.0),
        ]
    )
    assert rollup["app.parent"]["virtual_self"] == 3.0
    assert rollup["app.parent"]["virtual_inclusive"] == 10.0
    assert rollup["app.child"]["virtual_self"] == 11.0

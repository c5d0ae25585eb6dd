"""Smoke test of the benchmark harness: each workload's short run works.

It checks only that `bench/run.py --short` finishes, answers correctly,
passes every known-defect probe and prints the end-to-end metrics that
BENCHMARK.json declares; it sets no timing gate.
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["search", "partition", "certify"])
def test_short_run_emits_correct_summary(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "0", "--trace", "0",
         "--short"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    # every known-defect probe passes, so a regression of either shows here
    assert " known_defects_failed=0/" in lines[0], lines[0]
    summary = json.loads(lines[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(summary["metrics"]) == {m["name"]
                                       for m in declared["end_to_end"]}


@pytest.mark.parametrize("workload", ["certify", "search", "partition"])
def test_traced_short_run_counts_dist_ints(workload):
    # bench/spans.py counts enclosure misses by patching the class
    # attribute PointSet.dist_ints, and traces solver and verdict calls by
    # rebinding module globals, so a traced run guards that both still
    # see calls
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "0", "--trace", "1",
         "--short"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
    metrics = summary["metrics"]
    assert "dilation.dist_ints.calls" in metrics
    if workload == "search":
        for name in ("solver.candidates_examined",
                     "dilation.tree_dilation.calls"):
            assert metrics[name]["value"] > 0, name
    if workload == "partition":
        # one certified tree per yes-instance of the short pass; every
        # other family tree is screened out by the slot search's cut
        assert metrics["gadget.trees_tried"]["value"] == 2

"""Smoke test of the benchmark itself: every workload at toy size.

Each workload runs untraced and traced at n <= 120 for two ops.  The
test checks that every end-to-end and per-layer metric prints with its
unit, that no op fails, that layers a workload bypasses report 0 calls,
and that the benchmark refuses to run without the library's source.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

# layers each workload must not enter, and one it must
BYPASSED = {
    "rst-300": ("expanders.", "embedding.", "exposure.", "absorption."),
    "almost-2000": ("spanning.", "absorption."),
    "buv-1000": ("spanning.", "expanders.", "embedding.", "exposure."),
    "absorb-600": ("spanning.", "expanders.", "embedding."),
}
ENTERED = {"rst-300": "spanning.find_rainbow_spanning_tree.calls",
           "almost-2000": "expanders.sparsify.calls",
           "buv-1000": "absorption.compute_B.calls",
           "absorb-600": "absorption.absorb_step.calls"}
# the seven end-to-end figures, printed whether gated or not
PRINTED = ("ops_per_s", "op_ms_p50", "op_ms_p90", "setup_s", "peak_rss_mb",
           "success_rate", "failed_frac")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload: str, trace: int):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)


def _metric_lines(lines):
    return {line.split()[0]: line.split()[1:] for line in lines[:-1]
            if line and not line.startswith("{")}


@pytest.mark.parametrize("workload", sorted(BYPASSED))
def test_workload_at_toy_size(workload):
    spec = _spec()
    plain = _run(workload, 0)
    assert plain.returncode == 0, plain.stderr
    lines = plain.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    printed = _metric_lines(lines)
    for name in PRINTED + tuple(result["metrics"]):
        assert name in printed, name
    assert printed["failed_frac"][0] == "0"
    for name, entry in result["metrics"].items():
        assert entry["value"] > 0, name
        assert printed[name][-1] == entry["unit"]

    traced = _run(workload, 1)
    assert traced.returncode == 0, traced.stderr
    tlines = traced.stdout.splitlines()
    tresult = json.loads(tlines[-1])
    assert tresult["correct"] and tresult["failed"] == 0
    layers = tresult["metrics"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {k: v["unit"] for k, v in layers.items()}
    tprinted = _metric_lines(tlines)
    for name, entry in layers.items():
        assert tprinted[name][-1] == entry["unit"], name
    assert layers[ENTERED[workload]]["value"] > 0
    for name, entry in layers.items():
        if name.endswith(".calls") and name.startswith(BYPASSED[workload]):
            assert entry["value"] == 0, name
    # the same ops, traced or not, have the same outcomes
    digests = [line.split()[1] for out in (lines, tlines) for line in out
               if line.startswith("digest ")]
    assert len(digests) == 2 and digests[0] == digests[1]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rst-300",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

"""The benchmark's stored digests as a regression check on the random streams.

`perfbench/run.py` hashes the outcomes of the first ops of a run (timings
excluded) and compares the hash with `perfbench/digests.json`.  A run
with `--seconds 0` reaches exactly those ops, so each workload below
checks in a few seconds that the library still draws and returns what it
did when the digests were stored.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def _check_digest(workload, seed):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    (digest,) = [line for line in lines if line.startswith("digest ")]
    assert digest.endswith("matches the reference"), digest
    assert json.loads(lines[-1])["correct"] is True


@pytest.mark.parametrize("workload", ["rst-300", "almost-2000", "absorb-600",
                                      "buv-1000"])
def test_digest_matches_the_reference(workload):
    # buv-1000 hashes the pools compute_B returns on slices of a complete
    # n = 1000 seed
    _check_digest(workload, 1)


@pytest.mark.parametrize("seed", [2, 3])
def test_almost_spanning_digest_at_more_seeds(seed):
    # each level matching draws from the shared stream, so more seeds pin
    # more of the embedding's draws and matchings
    _check_digest("almost-2000", seed)


@pytest.mark.parametrize("seed", [2, 3])
def test_rainbow_st_digest_at_more_seeds(seed):
    # every tree the search returns is hashed, so more seeds pin more of
    # the greedy pass and the exchange augmentations
    _check_digest("rst-300", seed)


@pytest.mark.parametrize("seed", [2, 3])
def test_absorb_digest_at_more_seeds(seed):
    # each op's planted input is written through the oracle's block
    # interface, so more seeds pin more block writes along with the
    # absorb loop's draws
    _check_digest("absorb-600", seed)

"""What a fresh process loads: `import rainbowtrees`, serial trials of
every pipeline and partitions that need no cut search leave networkx,
multiprocessing and scipy unloaded, and the first cut search of
`highly_connected_partition` loads networkx."""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

# the pipelines' trials, serially; two partitions that need no cut search;
# then a partition of two K35s that share vertex 34: minimum degree 34,
# threshold ceil(34^2 / (16 * 69)) = 2, and vertex 34 is a 1-cut, so the
# block reaches the cut search; the sides tie at 34 vertices, and the cut
# joins the lower one
PROBE = """
import itertools, json, sys
sys.path.insert(0, sys.argv[1])
from rainbowtrees import (ColouredGraph, TrialConfig,
                          highly_connected_partition, run_trials)
HEAVY = ("networkx", "multiprocessing", "scipy")
knobs = {"beta": 0.12, "m_mode": "balanced", "expander_c_mode": "density"}
configs = [
    TrialConfig(kind="rainbow-st", n=24, trials=1, base_seed=11),
    TrialConfig(kind="almost-spanning", n=500, eps=0.25, d=3, tree_frac=0.08,
                knobs=knobs, trials=1, base_seed=2),
    TrialConfig(kind="spanning", n=60, eps=0.15, delta=0.4, alpha=0.25, d=3,
                trials=1, base_seed=100),
]
outcomes = [[(r.outcome, r.stage) for r in run_trials(cfg, workers=1)]
            for cfg in configs]
after_trials = [name for name in HEAVY if name in sys.modules]
# blocks that need no cut search: complete, then a 6-cycle at k = 2, whose
# threshold ceil(2^2 / (16 * 6)) = 1 no cut can undercut
k9 = ColouredGraph(9, itertools.combinations(range(9), 2))
c6 = ColouredGraph(6, [(i, (i + 1) % 6) for i in range(6)])
highly_connected_partition(k9, 8)
highly_connected_partition(c6, 2)
after_easy = [name for name in HEAVY if name in sys.modules]
edges = set(itertools.combinations(range(35), 2))
edges |= set(itertools.combinations(range(34, 69), 2))
part = highly_connected_partition(ColouredGraph(69, edges), 34)
print(json.dumps({"outcomes": outcomes, "after_trials": after_trials,
                  "after_easy": after_easy,
                  "blocks": [sorted(b) for b in part.blocks],
                  "after_partition": [name for name in HEAVY
                                      if name in sys.modules]}))
"""


def test_trials_load_no_flow_library_pool_or_scipy():
    proc = subprocess.run([sys.executable, "-c", PROBE, SRC],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    rst, almost, spanning = got["outcomes"]
    assert rst == [["success", "done"]]
    assert almost == [["success", "done"]]
    assert len(spanning) == 1 and spanning[0][0] == "fail"
    assert got["after_trials"] == got["after_easy"] == []
    assert got["blocks"] == [list(range(35)), list(range(35, 69))]
    assert got["after_partition"] == ["networkx"]

"""The benchmark's workloads: inputs, one op, and the check of its output.

Each workload is one grid point the library's experiments already run.
`setup()` builds the inputs every op shares, `prepare(shared, i)` the
inputs of op i (untimed), `run(prepared)` is the timed call, and
`check(prepared, out)` verifies the output independently of the
library's own audits, returning a reason string when it is wrong.
`attach()` is called once before the first op; trial workloads use it to
capture the harness-level call whose result they check.  `outcome(out)`
is the JSON-able (outcome, stage, metrics, result) list that goes into
the run's digest, where the result (the tree, embedding or pool found)
makes the digest follow the random stream; `success(out)` says whether
the op's outcome was a success.

Library names are always looked up through their module at call time,
so the tracer's and the capture's rebindings are seen.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from typing import Dict, Iterable, Optional, Tuple

from rainbowtrees import absorption, embedding, exposure, graphs, harness, \
    rng, trees

ALMOST_KNOBS = {"beta": 0.12, "m_mode": "balanced",
                "expander_c_mode": "density"}


def op_seed(workload: str, seed: int, op: int) -> int:
    """A 63-bit trial seed for op `op` of `workload` run with `seed`."""
    raw = ("%s:%d:%d" % (workload, seed, op)).encode()
    return int.from_bytes(hashlib.blake2b(raw, digest_size=8).digest(),
                          "big") >> 1


def _canon(u: int, v: int) -> Tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _spanning_tree_problem(n: int, pairs: Iterable[Tuple[int, int]]
                           ) -> Optional[str]:
    """None when `pairs` is a spanning tree of range(n), else why not."""
    pairs = list(pairs)
    if len(pairs) != n - 1:
        return "tree has %d edges, expected %d" % (len(pairs), n - 1)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            return "edge (%d, %d) is not a pair of range(%d)" % (u, v, n)
        ru, rv = find(u), find(v)
        if ru == rv:
            return "edge (%d, %d) closes a cycle" % (u, v)
        parent[ru] = rv
    return None


def _rainbow_image_problem(tree, mapping: Dict[int, int],
                           edge_colours: Dict[Tuple[int, int], int],
                           oracle, host_edges=frozenset()) -> Optional[str]:
    """None when `mapping` embeds `tree` injectively with a rainbow image
    whose edges are the keys of `edge_colours`, each present in the host
    (in `host_edges` or revealed present by `oracle`) with the colour the
    oracle revealed for it."""
    if set(mapping) != set(tree.nodes):
        return "embedding does not cover the tree's nodes"
    if len(set(mapping.values())) != len(mapping):
        return "embedding is not injective"
    image = {_canon(mapping[a], mapping[b]) for a, b in tree.edges}
    if image != set(edge_colours):
        return "coloured edges differ from the tree's image"
    if len(set(edge_colours.values())) != len(edge_colours):
        return "image repeats a colour"
    for pair, colour in edge_colours.items():
        if pair not in host_edges and not oracle.presence_of(pair):
            return "image edge %r is absent from the host" % (pair,)
        if oracle.colour_of(pair) != colour:
            return "image edge %r has colour %d, revealed %d" \
                % (pair, colour, oracle.colour_of(pair))
    return None


class _Capture:
    """Remembers the arguments and result of the last call of one
    harness-level name, so the op's output can be checked afterwards."""

    def __init__(self, module, name: str):
        inner = getattr(module, name)
        self.args = None
        self.out = None

        def capture(*args, **kwargs):
            self.out = inner(*args, **kwargs)
            self.args = args
            return self.out

        setattr(module, name, capture)

    def clear(self) -> None:
        self.args = self.out = None


class TrialWorkload:
    """One harness trial per op: run_trials on a one-trial config, with
    the records rendered to CSV as the harness's callers do.  CAPTURED
    names the harness-level call whose result `check` inspects."""

    CAPTURED = ""

    def __init__(self, name: str, seed: int, config: dict):
        self.name = name
        self.seed = seed
        self.config = config
        self.captured: Optional[_Capture] = None

    def attach(self) -> None:
        self.captured = _Capture(harness, self.CAPTURED)

    def setup(self):
        template = harness.TrialConfig(trials=1, **self.config)
        template.validate()
        return template

    def prepare(self, template, op: int):
        self.captured.clear()
        return dataclasses.replace(template,
                                   base_seed=op_seed(self.name, self.seed, op))

    def run(self, config):
        records = harness.run_trials(config)
        harness.format_records(records)
        return records[0]

    def outcome(self, record):
        return [record.outcome, record.stage, record.metrics,
                self.result()]

    def result(self):
        """The captured call's result in a JSON-able, ordered form."""
        return self.captured.out

    def success(self, record) -> bool:
        return record.outcome == "success"

    def check(self, config, record) -> Optional[str]:
        if (record.outcome == "success") != (record.stage == "done"):
            return "outcome %s with stage %s" % (record.outcome, record.stage)
        return None


class RainbowSpanningWorkload(TrialWorkload):
    CAPTURED = "find_rainbow_spanning_tree"

    def result(self):
        tree = self.captured.out
        return None if tree is None else sorted(tree)

    def check(self, config, record) -> Optional[str]:
        problem = super().check(config, record)
        if problem or self.captured.args is None:
            return problem or "the search was never called"
        host, tree = self.captured.args[0], self.captured.out
        if tree is None:
            return None if record.stage == "search" \
                else "search found nothing but the trial says %s" % record.stage
        problem = _spanning_tree_problem(host.n, tree)
        if problem:
            return problem
        colours = [host.colouring.get(_canon(u, v)) for u, v in tree]
        if None in colours:
            return "tree uses an edge the host does not have"
        if len(set(colours)) != len(colours):
            return "tree repeats a colour"
        if record.metrics.get("tree_edges") != len(tree):
            return "record reports %r tree edges, found %d" \
                % (record.metrics.get("tree_edges"), len(tree))
        return None


class AlmostSpanningWorkload(TrialWorkload):
    CAPTURED = "embed_almost_spanning"

    def result(self):
        res = self.captured.out
        if res is None or not res.success:
            return None
        return [sorted(res.embedding.items()),
                sorted(res.edge_colours.items())]

    def check(self, config, record) -> Optional[str]:
        problem = super().check(config, record)
        if problem or self.captured.args is None:
            return problem or "the pipeline was never called"
        tree, res = self.captured.args[3], self.captured.out
        if res.success != (record.outcome == "success"):
            return "record outcome disagrees with the pipeline result"
        if not res.success:
            return None
        if tree.m != round(config.tree_frac * config.n):
            return "tree has %d nodes, expected %d" \
                % (tree.m, round(config.tree_frac * config.n))
        return _rainbow_image_problem(tree, res.embedding, res.edge_colours,
                                      res.oracle)


class LargeBuvWorkload(TrialWorkload):
    CAPTURED = "compute_B"

    def check(self, config, record) -> Optional[str]:
        problem = super().check(config, record)
        if problem:
            return problem
        m = record.metrics
        d, n = config.d, config.n
        bound = (config.delta / (4.0 * d)) ** (d + 1) * n / (5.0 * d * d)
        if not math.isclose(m["bound"], bound, rel_tol=1e-12):
            return "bound %r, expected %r" % (m["bound"], bound)
        if record.stage != "done" and record.stage != "bound":
            return None     # aborted before sampling, e.g. slicing failed
        if m["samples"] != config.samples or not m["min"] <= m["mean"]:
            return "inconsistent pool statistics %r" % (m,)
        if m["violated"] != (m["min"] < bound):
            return "violation flag disagrees with min %r" % (m["min"],)
        if self.captured.args is None:
            return "no pool was computed"
        # recompute the last pool from the slice's edge set
        u, v, part, anchors, image_tree = self.captured.args
        nu = {b if a == u else a for a, b in part.edges if u in (a, b)}
        nv = {b if a == v else a for a, b in part.edges if v in (a, b)}
        around: Dict[int, set] = {}
        for a, b in image_tree.edges:
            around.setdefault(a, set()).add(b)
            around.setdefault(b, set()).add(a)
        expect = tuple(sorted(x for x in set(anchors)
                              if x in nu and around.get(x, set()) <= nv))
        if expect != tuple(self.captured.out):
            return "B(%d, %d) has %d members, recomputed %d" \
                % (u, v, len(self.captured.out), len(expect))
        return None


@dataclasses.dataclass
class _Planted:
    host: object
    tree: object
    trim: object
    almost: object
    source: object


class AbsorbWorkload:
    """absorb_leftovers on a complete host, from a planted almost-spanning
    state: the trimmed tree sits on hosts 0..n-r-1 with colours 0.. and
    its presence is recorded through the oracle's block interface."""

    def __init__(self, name: str, seed: int, n: int, r: int, d: int,
                 p: float, delta: float):
        self.name = name
        self.seed = seed
        self.n, self.r, self.d, self.p, self.delta = n, r, d, p, delta

    def attach(self) -> None:
        pass

    def setup(self):
        return graphs.complete_graph(self.n)

    def prepare(self, host, op: int) -> _Planted:
        n, r, d = self.n, self.r, self.d
        src = rng.spawn_trial_source(op_seed(self.name, self.seed, op), 0)
        tree = trees.gen_random_bounded_tree(n, d, src.substream("tree"))
        trim = trees.trim_to_size(tree, n - r, src.substream("trim"))
        placed = {node: i for i, node in enumerate(sorted(trim.t0.nodes))}
        oracle = exposure.ExposureOracle(n, 20 * n, self.p,
                                         src.substream("oracle"))
        pairs = sorted(_canon(placed[a], placed[b]) for a, b in trim.t0.edges)
        colours = list(range(len(pairs)))
        oracle.record_block(range(n - r), pairs, colours, stage=0)
        almost = embedding.AlmostSpanningResult(
            success=True, stage=None, detail=None,
            trace=("stage=planted status=ok detail=nodes=%d" % (n - r),),
            embedding=placed, edge_colours=dict(zip(pairs, colours)),
            params=None, hypothesis_met=True, regime={},
            reservoir_used=frozenset(), oracle=oracle)
        return _Planted(host, tree, trim, almost, src)

    def run(self, planted: _Planted):
        return absorption.absorb_leftovers(
            planted.host, planted.tree, planted.trim, planted.almost,
            self.delta, self.d, self.r / self.n,
            planted.source.substream("absorb"))

    def outcome(self, res):
        return ["success" if res.success else "fail", res.stage or "done",
                {"r": res.r, "absorbers": list(res.used_absorbers),
                 "r_max_degree": res.r_max_degree, "trace": list(res.trace)},
                sorted((res.mapping or {}).items())]

    def success(self, res) -> bool:
        return res.success

    def check(self, planted: _Planted, res) -> Optional[str]:
        if res.r != self.r:
            return "result reports r=%d, planted %d" % (res.r, self.r)
        if not res.success:
            return None if res.stage else "failure without a stage"
        if set(res.mapping.values()) != set(range(self.n)):
            return "image does not cover the host"
        if len(res.used_absorbers) != self.r:
            return "%d absorbers used for %d leftovers" \
                % (len(res.used_absorbers), self.r)
        return _rainbow_image_problem(planted.tree, res.mapping,
                                      res.edge_colours, res.oracle,
                                      planted.host.edges)


def make(name: str, seed: int, toy: bool):
    """The workload called `name`, at full size or at toy size (n <= 120)."""
    if name == "rst-300":
        n = 80 if toy else 300
        return RainbowSpanningWorkload(name, seed, dict(
            kind="rainbow-st", n=n, p=n ** -1.5, palette_size=n - 1,
            delta=0.4, seed_kind="clique-union"))
    if name == "almost-2000":
        n = 120 if toy else 2000
        return AlmostSpanningWorkload(name, seed, dict(
            kind="almost-spanning", n=n, eps=0.25, d=3, tree_frac=0.08,
            knobs=ALMOST_KNOBS))
    if name == "buv-1000":
        n = 100 if toy else 1000
        return LargeBuvWorkload(name, seed, dict(
            kind="lemma-stats", lemma_kind="large-Buv", n=n,
            seed_kind="complete", delta=0.4, d=2, eps=0.25, samples=40))
    if name == "absorb-600":
        return AbsorbWorkload(name, seed, n=100 if toy else 600, r=8, d=2,
                              p=0.05, delta=0.5)
    raise KeyError(name)


WORKLOADS = ("rst-300", "almost-2000", "buv-1000", "absorb-600")

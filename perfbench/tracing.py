"""Per-layer spans recorded around calls into rainbowtrees' public functions.

The library is not edited: each traced name is rebound, where its caller
looks it up, to a wrapper that times the call.  Module-level functions
are replaced in every rainbowtrees module that holds them (the defining
module and each module that imported the name), methods on their class.
A wrapper keeps a call count, self time (its span minus the spans of the
traced calls made inside it) and a failure count.  Per-element accessors
such as `neighbours` or `colour_of` are left alone: the wrapper would
cost more than the call.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


@dataclass
class LayerStat:
    calls: int = 0
    self_ns: int = 0
    fail: int = 0
    pairs: int = 0


def _returned_none(out) -> bool:
    return out is None


def _ledger_size(args) -> int:
    return len(args[0].ledger)


# (layer, module, attribute, reported stats, failed-result test, pair meter).
# `attribute` is "function" or "Class.method"; the layer name is what the
# metrics print as, <layer>.<stat>.  A call fails when it raises a
# StageFailure or, where a test is given, when its result passes the test.
LAYERS: Tuple[Tuple[str, str, str, Tuple[str, ...],
                    Optional[Callable], Optional[Callable]], ...] = (
    ("spanning.find_rainbow_spanning_tree", "spanning",
     "find_rainbow_spanning_tree", ("calls", "self_ms", "fail"),
     _returned_none, None),
    ("graphs.ColouredGraph", "graphs", "ColouredGraph.__init__",
     ("calls", "self_ms"), None, None),
    ("graphs.adjacency", "graphs", "ColouredGraph.adjacency",
     ("self_ms",), None, None),
    ("graphs.subgraph", "graphs", "ColouredGraph.subgraph",
     ("self_ms",), None, None),
    ("graphs.without_edges", "graphs", "ColouredGraph.without_edges",
     ("self_ms",), None, None),
    ("graphs.edge_array", "graphs", "ColouredGraph.edge_array",
     ("self_ms",), None, None),
    ("graphs.gen_seed_graph", "graphs", "gen_seed_graph", ("self_ms",),
     None, None),
    ("graphs.gen_gnp", "graphs", "gen_gnp", ("self_ms",), None, None),
    ("graphs.perturb", "graphs", "perturb", ("self_ms",), None, None),
    ("graphs.uniform_colouring", "graphs", "uniform_colouring",
     ("self_ms",), None, None),
    ("graphs.complete_graph", "graphs", "complete_graph", ("self_ms",),
     None, None),
    ("exposure.record_block", "exposure", "ExposureOracle.record_block",
     ("calls", "self_ms", "pairs"), None, _ledger_size),
    ("exposure.expose_presence", "exposure", "ExposureOracle.expose_presence",
     ("calls", "self_ms"), None, None),
    ("exposure.expose_colour", "exposure", "ExposureOracle.expose_colour",
     ("calls", "self_ms"), None, None),
    ("exposure.materialize_presence", "exposure",
     "ExposureOracle.materialize_presence", ("self_ms",), None, None),
    ("exposure.apply_permutation", "exposure",
     "ExposureOracle.apply_permutation", ("self_ms",), None, None),
    ("expanders.sparsify", "expanders", "sparsify",
     ("calls", "self_ms", "fail"), None, None),
    ("expanders.find_effective_expander", "expanders",
     "find_effective_expander", ("calls", "self_ms", "fail"), None, None),
    ("expanders.verify_expand_core", "expanders", "verify_expand_core",
     ("self_ms",), None, None),
    ("expanders.degrade_attach", "expanders", "degrade_attach", ("calls",),
     None, None),
    ("embedding.embed_almost_spanning", "embedding", "embed_almost_spanning",
     ("self_ms",), None, None),
    ("embedding.embed_rooted_tree", "embedding", "embed_rooted_tree",
     ("calls", "self_ms", "fail"), None, None),
    ("embedding.select_root_edges", "embedding", "select_root_edges",
     ("calls", "fail"), None, None),
    ("absorption.partition_edge_set", "absorption", "partition_edge_set",
     ("calls", "self_ms", "fail"), None, None),
    ("absorption.compute_B", "absorption", "compute_B", ("calls", "self_ms"),
     None, None),
    ("absorption.absorb_step", "absorption", "absorb_step",
     ("calls", "self_ms", "fail"), None, None),
    ("absorption.absorb_leftovers", "absorption", "absorb_leftovers",
     ("self_ms",), None, None),
    ("trees.gen_random_bounded_tree", "trees", "gen_random_bounded_tree",
     ("self_ms",), None, None),
    ("trees.trim_to_size", "trees", "trim_to_size", ("self_ms",), None, None),
    ("trees.decompose_tree", "trees", "decompose_tree", ("self_ms",),
     None, None),
    ("trees.build_I0", "trees", "build_I0", ("self_ms",), None, None),
    ("rng.generator", "rng", "RandomSource.generator", ("calls", "self_ms"),
     None, None),
    ("harness.run_trials", "harness", "run_trials", ("self_ms",), None, None),
    ("harness.format_records", "harness", "format_records", ("self_ms",),
     None, None),
)

UNITS = {"calls": "count/op", "fail": "count/op", "pairs": "count/op",
         "self_ms": "ms/op"}


def metric_names() -> List[Tuple[str, str]]:
    """Every per-layer metric as (name, unit), in table order."""
    return [("%s.%s" % (layer, stat), UNITS[stat])
            for layer, _, _, stats, _, _ in LAYERS for stat in stats]


class Tracer:
    """Span bookkeeping shared by every wrapper of one run.

    `active` is switched off while the benchmark builds inputs or checks
    outputs, so only the timed calls are attributed to the layers.
    """

    def __init__(self, stage_failure: type):
        self.stage_failure = stage_failure
        self.stats: Dict[str, LayerStat] = {}
        self.active = True
        # time covered by traced child calls, one slot per open span
        self._open: List[int] = []

    def wrap(self, layer: str, fn: Callable, failed: Optional[Callable],
             meter: Optional[Callable]) -> Callable:
        stat = self.stats.setdefault(layer, LayerStat())
        open_spans = self._open
        clock = time.perf_counter_ns
        stage_failure = self.stage_failure

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            before = meter(args) if meter is not None else 0
            open_spans.append(0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except stage_failure:
                stat.fail += 1
                raise
            finally:
                elapsed = clock() - start
                stat.calls += 1
                stat.self_ns += elapsed - open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
            if failed is not None and failed(out):
                stat.fail += 1
            if meter is not None:
                stat.pairs += meter(args) - before
            return out

        return traced

    def snapshot(self) -> Dict[str, int]:
        """Exact counts (calls, failures, pairs) per layer, no timings."""
        out = {}
        for layer, _, _, stats, _, _ in LAYERS:
            stat = self.stats[layer]
            for name in ("calls", "fail", "pairs"):
                if name in stats or name == "calls":
                    out["%s.%s" % (layer, name)] = getattr(stat, name)
        return out

    def metrics(self, ops: int) -> Dict[str, float]:
        """Per-op averages of every reported stat over `ops` ops."""
        out = {}
        for layer, _, _, stats, _, _ in LAYERS:
            stat = self.stats[layer]
            values = {"calls": stat.calls, "fail": stat.fail,
                      "pairs": stat.pairs, "self_ms": stat.self_ns / 1e6}
            for name in stats:
                out["%s.%s" % (layer, name)] = values[name] / ops
        return out


def rebind(package: str, module: str, attribute: str,
           make: Callable[[Callable], Callable]) -> None:
    """Replace `module.attribute` with make(original) wherever it is looked up.

    For "Class.method" the class attribute is replaced.  For a function,
    every module of `package` whose namespace holds the original object
    gets the replacement, so calls through `from x import f` bindings are
    caught as well.
    """
    mod = sys.modules["%s.%s" % (package, module)]
    if "." in attribute:
        cls_name, meth = attribute.split(".")
        cls = getattr(mod, cls_name)
        setattr(cls, meth, make(cls.__dict__[meth]))
        return
    original = getattr(mod, attribute)
    replacement = make(original)
    for name, other in list(sys.modules.items()):
        if other is None or not (name == package
                                 or name.startswith(package + ".")):
            continue
        for key, value in list(vars(other).items()):
            if value is original:
                setattr(other, key, replacement)


def install(package: str, stage_failure: type) -> Tracer:
    """Wrap every LAYERS entry of the imported `package`; return the tracer."""
    tracer = Tracer(stage_failure)
    for layer, module, attribute, _, failed, meter in LAYERS:
        rebind(package, module, attribute,
               lambda fn, layer=layer, failed=failed, meter=meter:
               tracer.wrap(layer, fn, failed, meter))
    return tracer

"""Seeded Monte Carlo trials over the embedding pipelines.

A TrialConfig names one experiment; run_trials executes it trial by
trial, with trial i drawing from spawn_trial_source(base_seed, i), so a
run reproduces bit for bit no matter how many worker processes share the
load or in what order they finish.  Records serialize to CSV with one
JSON metric blob per row; every column except the wall-clock ms is
stable across reruns.  estimate() turns a record list into a Wilson
score interval, and lemma_stats() measures how often finite instances
violate the asymptotic inequalities the analysis leans on, reporting
frequencies without passing judgement.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from numbers import Integral
from typing import Dict, List, Optional, Sequence, Tuple

from .absorption import (b_size_bound, compute_B, draw_permutation,
                         embed_spanning, partition_edge_set)
from .embedding import derive_parameters, embed_almost_spanning
from .errors import (ExpanderFailure, InfeasibleParameters, ParameterError,
                     StageFailure)
from .expanders import ExpandParams, find_effective_expander
from .graphs import (SEED_KINDS, gen_gnp, gen_seed_graph, perturb,
                     uniform_colouring)
from .rng import RandomSource, spawn_trial_source
from .spanning import find_rainbow_spanning_tree
from .trees import Tree, gen_random_bounded_tree, path_tree, star_tree, \
    build_I0, trim_to_size

TRIAL_KINDS = ("almost-spanning", "spanning", "rainbow-st", "lemma-stats")
LEMMA_KINDS = ("many-colours-a", "many-colours-b", "large-Buv",
               "expand-membership")
TREE_SOURCES = ("random", "path", "star")

CSV_HEADER = ("trial", "seed", "outcome", "stage", "metric_json", "ms")

# two-sided 95% normal quantile, frozen so intervals never drift
WILSON_Z = 1.959963984540054

# knob keys forwarded to derive_parameters by the embedding pipelines
_DERIVE_KEYS = ("zeta", "beta", "rho", "expander_c_mode", "m_mode", "c_m")


def _allowed_knobs(kind: str, lemma_kind: Optional[str]) -> frozenset:
    if kind == "almost-spanning":
        return frozenset(_DERIVE_KEYS)
    if kind == "spanning":
        return frozenset(_DERIVE_KEYS + ("eps_override",))
    if kind == "lemma-stats" and lemma_kind == "expand-membership":
        return frozenset(("theta", "C", "eta", "r", "check_trials"))
    return frozenset()


@dataclass(frozen=True)
class TrialConfig:
    """Everything one experiment needs, checked before any trial runs.

    `kind` picks the pipeline: "almost-spanning" embeds a bounded-degree
    tree on at most (1-eps)n nodes into a lazily revealed random host,
    "spanning" runs the trim / embed / absorb route on a dense seed plus
    random perturbation, "rainbow-st" colours a perturbed seed and runs
    the exact rainbow spanning tree search, and "lemma-stats" draws one
    observation of the inequality named by `lemma_kind`.

    Unset values resolve to kind-appropriate defaults: the palette is n
    for almost-spanning runs and n-1 for rainbow-st (the spanning
    pipeline derives its own), and p falls back to 10*ln(n)/n for
    almost-spanning runs, 20/n for the colour-count lemmas, and ln(n)/n
    otherwise.  For spanning runs `eps` is the trim override; put
    {"eps_override": None} in `knobs` to use the analysis formula
    instead.  `knobs` also carries pass-through tuning: for the two
    embedding kinds the derive_parameters keys zeta, beta, rho,
    expander_c_mode, m_mode and c_m; for expand-membership the expander
    family parameters theta, C, eta, r and the check_trials of its
    sampled membership test.  Unknown keys are rejected so typos fail
    loudly.
    """

    kind: str
    n: int
    p: Optional[float] = None
    palette_size: Optional[int] = None
    eps: float = 0.25
    delta: float = 0.4
    alpha: float = 0.0
    d: int = 3
    tree_source: str = "random"
    seed_kind: str = "clique-union"
    trials: int = 1
    base_seed: int = 0
    tree_frac: Optional[float] = None
    lemma_kind: Optional[str] = None
    gamma: float = 0.5
    beta: float = 1.0
    samples: int = 40
    knobs: Optional[Dict[str, object]] = None

    # -- derived values -----------------------------------------------------

    def resolved_p(self) -> float:
        if self.p is not None:
            return float(self.p)
        n = max(2, self.n)
        if self.kind == "almost-spanning":
            return min(1.0, 10.0 * math.log(n) / n)
        if self.lemma_kind in ("many-colours-a", "many-colours-b"):
            return min(1.0, 20.0 / n)
        return min(1.0, math.log(n) / n)

    def resolved_palette(self) -> int:
        if self.palette_size is not None:
            return int(self.palette_size)
        if self.kind == "rainbow-st":
            return max(1, self.n - 1)
        return self.n

    def resolved_tree_size(self) -> int:
        if self.kind == "spanning":
            return self.n
        if self.tree_frac is None:
            size = int(math.floor((1.0 - self.eps) * self.n + 1e-9))
        else:
            size = int(round(self.tree_frac * self.n))
        return max(1, size)

    def digest(self) -> str:
        blob = json.dumps(dataclasses.asdict(self), sort_keys=True,
                          separators=(",", ":"), default=str)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        if self.kind not in TRIAL_KINDS:
            raise ParameterError("unknown trial kind %r; expected one of %s"
                                 % (self.kind, ", ".join(TRIAL_KINDS)))
        if not isinstance(self.n, Integral) or self.n < 1:
            raise ParameterError("n must be a positive integer, got %r"
                                 % (self.n,))
        if not isinstance(self.trials, Integral) or self.trials < 0:
            raise ParameterError("trials must be a nonnegative integer, "
                                 "got %r" % (self.trials,))
        if not isinstance(self.base_seed, Integral) \
                or not 0 <= self.base_seed < 2 ** 64:
            raise ParameterError("base_seed must be a 64-bit nonnegative "
                                 "integer, got %r" % (self.base_seed,))
        if self.p is not None and not 0.0 <= self.p <= 1.0:
            raise ParameterError("p must lie in [0, 1], got %r" % (self.p,))
        if self.palette_size is not None and self.palette_size < 1:
            raise ParameterError("palette_size must be >= 1, got %r"
                                 % (self.palette_size,))
        if not 0.0 < self.eps < 1.0:
            raise ParameterError("eps must lie in (0, 1), got %r"
                                 % (self.eps,))
        if not 0.0 < self.delta < 1.0:
            raise ParameterError("delta must lie in (0, 1), got %r"
                                 % (self.delta,))
        if self.alpha < 0.0:
            raise ParameterError("alpha must be nonnegative, got %r"
                                 % (self.alpha,))
        if not isinstance(self.d, Integral) or self.d < 1:
            raise ParameterError("d must be a positive integer, got %r"
                                 % (self.d,))
        if self.tree_source not in TREE_SOURCES:
            raise ParameterError("unknown tree source %r" % (self.tree_source,))
        if self.seed_kind not in SEED_KINDS:
            raise ParameterError("unknown seed kind %r" % (self.seed_kind,))
        if self.tree_frac is not None and not 0.0 < self.tree_frac <= 1.0:
            raise ParameterError("tree_frac must lie in (0, 1], got %r"
                                 % (self.tree_frac,))
        if not 0.0 < self.gamma < 1.0:
            raise ParameterError("gamma must lie in (0, 1), got %r"
                                 % (self.gamma,))
        if not 0.0 < self.beta <= 1.0:
            raise ParameterError("beta must lie in (0, 1], got %r"
                                 % (self.beta,))
        if not isinstance(self.samples, Integral) or self.samples < 1:
            raise ParameterError("samples must be a positive integer, got %r"
                                 % (self.samples,))

        if self.kind == "lemma-stats":
            if self.lemma_kind not in LEMMA_KINDS:
                raise ParameterError(
                    "lemma-stats runs need lemma_kind in %s, got %r"
                    % (", ".join(LEMMA_KINDS), self.lemma_kind))
        elif self.lemma_kind is not None:
            raise ParameterError("lemma_kind only applies to lemma-stats "
                                 "runs, got %r" % (self.lemma_kind,))

        if self.kind in ("almost-spanning", "spanning") and self.d < 2:
            raise ParameterError("tree embedding needs d >= 2, got %d"
                                 % self.d)
        if self.lemma_kind == "large-Buv" and self.d < 2:
            raise ParameterError("large-Buv trials grow a spanning tree and "
                                 "need d >= 2, got %d" % self.d)
        if self.lemma_kind in ("many-colours-a", "many-colours-b") \
                and not 0.0 < self.alpha <= 1.0:
            raise ParameterError("colour-count lemmas need alpha in (0, 1], "
                                 "got %r" % (self.alpha,))
        if self.kind == "spanning":
            if self.palette_size is not None:
                raise ParameterError("the spanning pipeline derives its own "
                                     "palette; leave palette_size unset")
            if self.tree_frac is not None:
                raise ParameterError("spanning trials always use trees on "
                                     "all n nodes; leave tree_frac unset")

        if self.kind in ("almost-spanning", "spanning"):
            size = self.resolved_tree_size()
            if self.kind == "almost-spanning" \
                    and size > (1.0 - self.eps) * self.n + 1e-9:
                raise ParameterError(
                    "tree size %d exceeds (1-eps)n = %.2f"
                    % (size, (1.0 - self.eps) * self.n))
            if self.tree_source == "star" and size - 1 > self.d:
                raise ParameterError(
                    "a star on %d nodes has centre degree %d > d = %d"
                    % (size, size - 1, self.d))
            if self.tree_source == "path" and size >= 2 and self.d < 2:
                raise ParameterError("paths need d >= 2")

        knobs = self.knobs if self.knobs is not None else {}
        if not isinstance(knobs, dict):
            raise ParameterError("knobs must be a dict, got %r"
                                 % type(self.knobs).__name__)
        allowed = _allowed_knobs(self.kind, self.lemma_kind)
        for key in knobs:
            if key not in allowed:
                raise ParameterError(
                    "unknown knob %r for %s runs (allowed: %s)"
                    % (key, self.lemma_kind or self.kind,
                       ", ".join(sorted(allowed)) or "none"))
        try:
            json.dumps(knobs, sort_keys=True)
        except TypeError:
            raise ParameterError("knob values must be JSON-serializable")
        if "eps_override" in knobs and knobs["eps_override"] is not None \
                and not 0.0 < knobs["eps_override"] < 1.0:
            raise ParameterError("eps_override must be None or in (0, 1), "
                                 "got %r" % (knobs["eps_override"],))


@dataclass(frozen=True)
class TrialRecord:
    """One trial's outcome.

    `outcome` is "success" or "fail"; `stage` is "done" on success and
    the failing stage otherwise.  `metrics` is a small JSON-serializable
    dict of per-stage counts.  A success record implies the validity
    audit for its kind ran and passed inside the trial.  Everything but
    `ms` is a pure function of (config, trial).
    """

    config_hash: str
    trial: int
    seed: int
    outcome: str
    stage: str
    metrics: Dict[str, object]
    ms: float


@dataclass(frozen=True)
class SuccessEstimate:
    """A success frequency with its 95% Wilson score interval."""

    successes: int
    trials: int
    point: float
    lower: float
    upper: float

    def __post_init__(self):
        assert 0 <= self.successes <= self.trials
        assert 0.0 <= self.lower <= self.point <= self.upper <= 1.0


def wilson_interval(successes: int, trials: int,
                    z: float = WILSON_Z) -> Tuple[float, float, float]:
    """(point, lower, upper) for the Wilson score interval.

    The point estimate is the raw frequency; at 0 and n it coincides
    with the matching interval endpoint, so the interval always contains
    it.
    """
    if trials < 1:
        raise ParameterError("trials must be >= 1, got %r" % (trials,))
    if not 0 <= successes <= trials:
        raise ParameterError("successes %r outside [0, %d]"
                             % (successes, trials))
    phat = successes / trials
    denom = trials + z * z
    centre = (successes + 0.5 * z * z) / denom
    half = z * math.sqrt(trials * phat * (1.0 - phat) + 0.25 * z * z) / denom
    lower = max(0.0, min(phat, centre - half))
    upper = min(1.0, max(phat, centre + half))
    return phat, lower, upper


def estimate(records: Sequence[TrialRecord]) -> SuccessEstimate:
    """Wilson 95% estimate of the success rate over `records`."""
    if not records:
        raise ParameterError("estimate needs at least one record")
    successes = sum(1 for rec in records if rec.outcome == "success")
    point, lower, upper = wilson_interval(successes, len(records))
    return SuccessEstimate(successes=successes, trials=len(records),
                           point=point, lower=lower, upper=upper)


# ---------------------------------------------------------------------------
# per-trial execution


def _knob(config: TrialConfig, key: str, default):
    knobs = config.knobs or {}
    return knobs.get(key, default)


def _derive_kwargs(config: TrialConfig) -> Dict[str, object]:
    knobs = config.knobs or {}
    return {k: knobs[k] for k in _DERIVE_KEYS if k in knobs}


def _derive_for(config: TrialConfig):
    return derive_parameters(config.eps, config.d, config.n,
                             **_derive_kwargs(config))


def _expand_params(config: TrialConfig) -> ExpandParams:
    theta = float(_knob(config, "theta", 0.25))
    c_value = float(_knob(config, "C", max(200.0, 50.0 / theta)))
    r = int(_knob(config, "r", 3))
    eta = float(_knob(config, "eta", 1.0 / (r + 2)))
    return ExpandParams(theta=theta, C=c_value, eta=eta, r=r)


def _make_tree(config: TrialConfig, size: int, source: RandomSource) -> Tree:
    if config.tree_source == "path":
        return path_tree(size, max(2, config.d)) if size > 1 \
            else path_tree(1, config.d)
    if config.tree_source == "star":
        return star_tree(size - 1) if size > 1 else path_tree(1, config.d)
    return gen_random_bounded_tree(size, config.d, source)


def _trial_almost(config: TrialConfig, src: RandomSource):
    size = config.resolved_tree_size()
    tree = _make_tree(config, size, src.substream("tree"))
    res = embed_almost_spanning(
        config.n, config.resolved_p(), config.resolved_palette(), tree,
        config.eps, config.d, src.substream("pipeline"),
        params=_derive_for(config))
    metrics = {"tree_nodes": size,
               "edges": len(res.edge_colours),
               "colours": len(set(res.edge_colours.values())),
               "hypothesis_met": bool(res.hypothesis_met),
               "reservoir": len(res.reservoir_used)}
    if not res.success:
        metrics["detail"] = res.detail
        return "fail", res.stage or "unknown", metrics
    return "success", "done", metrics


def _trial_spanning(config: TrialConfig, src: RandomSource):
    seed = gen_seed_graph(config.n, config.delta, config.seed_kind,
                          src.substream("seed-graph"))
    tree = _make_tree(config, config.n, src.substream("tree"))
    res = embed_spanning(
        seed, config.resolved_p(), tree, config.delta, config.alpha,
        config.d, src.substream("pipeline"),
        eps_override=_knob(config, "eps_override", config.eps),
        derive_kwargs=_derive_kwargs(config) or None)
    metrics = {"r": res.r,
               "eps_used": res.eps_used,
               "eps_formula": res.eps_formula,
               "absorbers": len(res.used_absorbers),
               "edges": len(res.edge_colours),
               "colours": len(set(res.edge_colours.values()))}
    if res.r_max_degree is not None:
        metrics["r_max_degree"] = res.r_max_degree
    if not res.success:
        metrics["detail"] = res.detail
        return "fail", res.stage or "unknown", metrics
    return "success", "done", metrics


def _trial_rainbow_st(config: TrialConfig, src: RandomSource):
    seed = gen_seed_graph(config.n, config.delta, config.seed_kind,
                          src.substream("seed-graph"))
    union = perturb(seed, config.resolved_p(), src.substream("perturb"))
    palette = config.resolved_palette()
    host = uniform_colouring(union, palette, src.substream("colour"))
    found = find_rainbow_spanning_tree(host)
    metrics = {"host_edges": host.size, "palette": palette}
    if found is None:
        return "fail", "search", metrics
    metrics["tree_edges"] = len(found)
    return "success", "done", metrics


def _trial_many_colours(config: TrialConfig, src: RandomSource,
                        per_vertex: bool):
    n = config.n
    order = max(1, int(round(config.beta * n)))
    g = gen_gnp(order, config.resolved_p(), src.substream("graph"))
    col = uniform_colouring(g, n, src.substream("colour"))
    a_count = int(round(config.alpha * n))
    if per_vertex:
        at, hit = col.find_edges([(0, w) for w in range(1, order)])
        at_u = set(col.colour_array()[at[hit]].tolist())
        got = sum(1 for c in at_u if c < a_count)
        bound = float(config.d)
    else:
        got = len({c for c in col.colours_used() if c < a_count})
        bound = (1.0 - config.gamma) * a_count
    violated = got + 1e-9 < bound
    metrics = {"got": got, "bound": bound, "edges": g.size,
               "a_size": a_count, "violated": bool(violated)}
    if violated:
        return "fail", "bound", metrics
    return "success", "done", metrics


def _trial_large_buv(config: TrialConfig, src: RandomSource):
    n, d, delta, eps = config.n, config.d, config.delta, config.eps
    bound = b_size_bound(delta, d, n)
    seed = gen_seed_graph(n, delta, config.seed_kind,
                          src.substream("seed-graph"))
    rgraph = gen_gnp(n, config.resolved_p(), src.substream("random-part"))
    full = gen_random_bounded_tree(n, d, src.substream("tree"))
    r = int(math.floor(eps * n + 1e-9))
    trim = trim_to_size(full, n - r, src.substream("trim"))
    try:
        anchor_nodes = build_I0(trim.t0, full, d, eps)
        parts = partition_edge_set(seed, rgraph.edge_array(), d, delta,
                                   src.substream("slices"))
    except StageFailure as exc:
        return "fail", exc.stage, {"detail": str(exc), "bound": bound}
    if not anchor_nodes:
        return "fail", "build-I0", {"detail": "anchor target is zero",
                                    "bound": bound}
    perm = draw_permutation(n, src.substream("shift"))
    image_tree = trim.t0.relabel(perm)
    anchors = tuple(sorted(perm[x] for x in anchor_nodes))
    gen = src.substream("triples").generator()
    sizes = []
    for _ in range(config.samples):
        j = int(gen.integers(d))
        u = int(gen.integers(n))
        v = int(gen.integers(n - 1))
        if v >= u:
            v += 1
        sizes.append(len(compute_B(u, v, parts[j], anchors, image_tree)))
    violated = min(sizes) < bound
    metrics = {"min": min(sizes), "mean": sum(sizes) / len(sizes),
               "bound": bound, "anchors": len(anchors),
               "samples": len(sizes), "violated": bool(violated)}
    if violated:
        return "fail", "bound", metrics
    return "success", "done", metrics


def _trial_expand(config: TrialConfig, src: RandomSource):
    xp = _expand_params(config)
    n = config.n
    p = float(config.p) if config.p is not None else min(1.0, 4.0 * xp.C / n)
    g = gen_gnp(n, p, src.substream("graph"))
    try:
        out = find_effective_expander(
            g, xp, trials=int(_knob(config, "check_trials", 200)),
            source=src.substream("checks"))
    except ExpanderFailure as exc:
        return "fail", exc.stage, {"violated": True, "detail": str(exc),
                                   "edges": g.size}
    metrics = {"violated": False, "edges": g.size,
               "kept": len(out.subgraph.vertex_set),
               "deleted": len(out.deleted),
               "capped": len(out.capped_edges)}
    return "success", "done", metrics


def _dispatch(config: TrialConfig, src: RandomSource):
    if config.kind == "almost-spanning":
        return _trial_almost(config, src)
    if config.kind == "spanning":
        return _trial_spanning(config, src)
    if config.kind == "rainbow-st":
        return _trial_rainbow_st(config, src)
    if config.lemma_kind == "many-colours-a":
        return _trial_many_colours(config, src, per_vertex=False)
    if config.lemma_kind == "many-colours-b":
        return _trial_many_colours(config, src, per_vertex=True)
    if config.lemma_kind == "large-Buv":
        return _trial_large_buv(config, src)
    return _trial_expand(config, src)


def _run_one(config: TrialConfig, trial: int) -> TrialRecord:
    src = spawn_trial_source(config.base_seed, trial)
    start = time.perf_counter()
    try:
        outcome, stage, metrics = _dispatch(config, src)
    except InfeasibleParameters as exc:
        # the pipeline found this trial infeasible at this n, e.g. the
        # blocks of its random tree need more vertices than exist
        outcome, stage, metrics = "fail", "infeasible", {
            "detail": str(exc), "minimum_n": exc.minimum_n}
    except Exception as exc:
        # whatever else a trial raises fails that trial, not the batch
        outcome, stage, metrics = "fail", "error", {
            "error": type(exc).__name__, "detail": str(exc)}
    ms = (time.perf_counter() - start) * 1000.0
    return TrialRecord(config_hash=config.digest(), trial=trial,
                       seed=config.base_seed, outcome=outcome, stage=stage,
                       metrics=metrics, ms=ms)


def _trial_entry(payload) -> TrialRecord:
    config, trial = payload
    return _run_one(config, trial)


def _preflight(config: TrialConfig) -> None:
    """Deterministic parameter work, so bad configs fail before trial 0."""
    if config.kind == "almost-spanning":
        _derive_for(config)
    elif config.lemma_kind == "expand-membership":
        _expand_params(config)


def run_trials(config: TrialConfig, *,
               workers: int = 1) -> List[TrialRecord]:
    """Run config.trials independent trials and return their records.

    Trial i draws every random decision from spawn_trial_source(
    config.base_seed, i), so records are identical (apart from wall
    clock ms) whether trials run serially or across `workers` forked
    processes, and records always come back in trial order.  Parameter
    problems in the config raise before any trial executes.  Inside a
    trial nothing escapes: a stage failure lands in its record as a fail
    outcome at that stage, an InfeasibleParameters at stage "infeasible",
    and any other exception at stage "error" with its type name and
    message, so one bad trial never aborts the batch.
    """
    if not isinstance(config, TrialConfig):
        raise ParameterError("run_trials expects a TrialConfig, got %r"
                             % type(config).__name__)
    config.validate()
    _preflight(config)
    if config.trials == 0:
        return []
    workers = 1 if workers is None else int(workers)
    if workers > 1 and config.trials > 1:
        # the pool's module loads only when a batch is forked
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            jobs = [(config, i) for i in range(config.trials)]
            ctx = multiprocessing.get_context("fork")
            with ctx.Pool(min(workers, config.trials)) as pool:
                return pool.map(_trial_entry, jobs)
    return [_run_one(config, i) for i in range(config.trials)]


# ---------------------------------------------------------------------------
# lemma statistics


@dataclass(frozen=True)
class LemmaStatsSummary:
    """Violation counts for one inequality over independent draws.

    `violations` counts trials where the inequality itself failed;
    `aborted` counts trials that never reached the measurement (for
    example a slicing retry budget running out).  `frequency` is
    violations / trials.  `bound` echoes the numeric floor used, when
    the inequality has one.  No pass or fail judgement is made here.
    """

    kind: str
    trials: int
    violations: int
    aborted: int
    frequency: float
    bound: Optional[float]
    records: Tuple[TrialRecord, ...] = field(repr=False)


_LEMMA_DEFAULTS = {
    "many-colours-a": dict(n=2000, alpha=0.1, gamma=0.5),
    "many-colours-b": dict(n=2000, alpha=0.5, d=3),
    "large-Buv": dict(n=2000, delta=0.4, d=2, seed_kind="complete",
                      eps=0.25, samples=40),
    "expand-membership": dict(n=2000),
}


def lemma_stats(kind: str, params: Optional[Dict[str, object]] = None,
                trials: int = 100, *, base_seed: int = 0,
                workers: int = 1) -> LemmaStatsSummary:
    """Measure how often finite instances violate one asymptotic bound.

    `params` overrides the per-kind defaults and accepts the TrialConfig
    field names (n, p, alpha, gamma, beta, d, delta, eps, seed_kind,
    samples, knobs).  The summary reports the observed violation
    frequency next to the analytic bound and never decides pass or fail;
    tests and callers apply their own thresholds.
    """
    if kind not in LEMMA_KINDS:
        raise ParameterError("unknown lemma kind %r; expected one of %s"
                             % (kind, ", ".join(LEMMA_KINDS)))
    if trials < 1:
        raise ParameterError("lemma_stats needs trials >= 1, got %r"
                             % (trials,))
    merged: Dict[str, object] = dict(_LEMMA_DEFAULTS[kind])
    merged.update(params or {})
    unknown = set(merged) - {f.name for f in dataclasses.fields(TrialConfig)}
    if unknown:
        raise ParameterError("unknown lemma parameter(s): %s"
                             % ", ".join(sorted(unknown)))
    config = TrialConfig(kind="lemma-stats", lemma_kind=kind, trials=trials,
                         base_seed=base_seed, **merged)
    records = run_trials(config, workers=workers)
    violations = sum(1 for rec in records
                     if rec.metrics.get("violated") is True)
    aborted = sum(1 for rec in records if rec.outcome == "fail"
                  and rec.metrics.get("violated") is not True)
    bound = records[0].metrics.get("bound") if records else None
    bound = float(bound) if isinstance(bound, (int, float)) else None
    return LemmaStatsSummary(kind=kind, trials=len(records),
                             violations=violations, aborted=aborted,
                             frequency=violations / len(records),
                             bound=bound, records=tuple(records))


# ---------------------------------------------------------------------------
# CSV serialization


def _metric_json(metrics: Dict[str, object]) -> str:
    return json.dumps(metrics, sort_keys=True, separators=(",", ":"))


def format_records(records: Sequence[TrialRecord]) -> str:
    """Records as CSV text with RFC 4180 quoting and CRLF line ends.

    Every column except ms is a pure function of the config, so two runs
    of the same config give byte-identical output once the ms column is
    ignored.
    """
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_HEADER)
    for rec in records:
        writer.writerow([rec.trial, rec.seed, rec.outcome, rec.stage,
                         _metric_json(rec.metrics), "%.3f" % rec.ms])
    return buf.getvalue()


def write_records(path: str, records: Sequence[TrialRecord]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(format_records(records))


def read_records(path: str) -> List[Dict[str, object]]:
    """Parse a record CSV back into dicts with typed fields."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParameterError("record file %r is empty" % (path,))
        if tuple(header) != CSV_HEADER:
            raise ParameterError("unexpected header %r in %r"
                                 % (header, path))
        out = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(CSV_HEADER):
                raise ParameterError("malformed row %r in %r" % (row, path))
            out.append({"trial": int(row[0]), "seed": int(row[1]),
                        "outcome": row[2], "stage": row[3],
                        "metrics": json.loads(row[4]), "ms": float(row[5])})
    return out

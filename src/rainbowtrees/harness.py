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
import os
import time
from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import (Callable, Dict, FrozenSet, List, Optional, Sequence,
                    Tuple)

from .absorption import (AnchorTable, b_size_bound, compute_B,
                         draw_permutation, embed_spanning, partition_edge_set,
                         spanning_setup)
from .embedding import _number, derive_parameters, embed_almost_spanning
from .errors import (ExpanderFailure, InfeasibleParameters, ParameterError,
                     StageFailure)
from .expanders import ExpandParams, find_effective_expander
from .graphs import (SEED_KINDS, gen_gnp, gen_seed_graph, perturb,
                     seed_plan, uniform_colouring)
from .rng import RandomSource, spawn_trial_source
from .spanning import find_rainbow_spanning_tree
from .trees import Tree, gen_random_bounded_tree, path_tree, star_tree, \
    build_I0, trim_to_size

TREE_SOURCES = ("random", "path", "star")

CSV_HEADER = ("trial", "seed", "outcome", "stage", "metric_json", "ms")

# two-sided 95% normal quantile, frozen so intervals never drift
WILSON_Z = 1.959963984540054

# knob keys forwarded to derive_parameters by the embedding pipelines
_DERIVE_KEYS = ("zeta", "beta", "rho", "expander_c_mode", "m_mode", "c_m")


def _rule(name: str, ok: Callable[[object], bool], want: str):
    """A check that `name` in a config is `want`, as `ok` tests it."""
    def check(config) -> None:
        value = getattr(config, name)
        if not ok(value):
            raise ParameterError("%s must be %s, got %r" % (name, want, value))
    return check


# the concrete types come first: each ABC isinstance costs about 1 us
def _int(v) -> bool:
    return type(v) is not bool and isinstance(v, (int, Integral))


def _real(v) -> bool:
    return type(v) is not bool and isinstance(v, (float, int, Real))


# the field rules every trial kind shares
_FIELD_RULES = (
    _rule("n", lambda v: _int(v) and v >= 1, "a positive integer"),
    _rule("trials", lambda v: _int(v) and v >= 0, "a nonnegative integer"),
    _rule("base_seed", lambda v: _int(v) and 0 <= v < 2 ** 64,
          "a 64-bit nonnegative integer"),
    _rule("p", lambda v: v is None or _real(v) and 0 <= v <= 1,
          "a number in [0, 1]"),
    _rule("palette_size", lambda v: v is None or _int(v) and v >= 1,
          "a positive integer"),
    _rule("eps", lambda v: _real(v) and 0 < v < 1, "a number in (0, 1)"),
    _rule("delta", lambda v: _real(v) and 0 < v < 1, "a number in (0, 1)"),
    _rule("alpha", lambda v: _real(v) and v >= 0, "a nonnegative number"),
    _rule("d", lambda v: _int(v) and v >= 1, "a positive integer"),
    _rule("tree_source", lambda v: v in TREE_SOURCES,
          "one of " + ", ".join(TREE_SOURCES)),
    _rule("seed_kind", lambda v: v in SEED_KINDS,
          "one of " + ", ".join(SEED_KINDS)),
    _rule("tree_frac", lambda v: v is None or _real(v) and 0 < v <= 1,
          "a number in (0, 1]"),
    _rule("gamma", lambda v: _real(v) and 0 < v < 1, "a number in (0, 1)"),
    _rule("beta", lambda v: _real(v) and 0 < v <= 1, "a number in (0, 1]"),
    _rule("samples", lambda v: _int(v) and v >= 1, "a positive integer"),
    _rule("knobs", lambda v: v is None or isinstance(v, dict),
          "a dict or None"),
)


@dataclass(frozen=True)
class TrialConfig:
    """Everything one experiment needs, checked before any trial runs.

    `kind` names a row of KINDS (see TrialKind), or is "lemma-stats",
    whose row `lemma_kind` names.  Every kind reads kind, lemma_kind, n,
    p, trials and base_seed; the row's `reads` lists the other fields
    its trials read, and validate rejects any other field that is not
    at its default.  The row also says what an unset `p`, `palette_size`
    or `tree_frac` resolves to, which `knobs` keys it accepts, and which
    rules of its own a config must meet.
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

    def _entry(self) -> TrialKind:
        """This config's row of KINDS: keyed by lemma_kind for lemma-stats
        runs and by kind otherwise."""
        if self.kind not in TRIAL_KINDS:
            raise ParameterError("unknown trial kind %r; expected one of %s"
                                 % (self.kind, ", ".join(TRIAL_KINDS)))
        lemma = self.kind == "lemma-stats"
        if self.lemma_kind not in (LEMMA_KINDS if lemma else (None,)):
            raise ParameterError(
                "lemma_kind must be one of %s in lemma-stats runs and None "
                "in others, got %r" % (", ".join(LEMMA_KINDS), self.lemma_kind))
        return KINDS[self.lemma_kind if lemma else self.kind]

    def resolved_p(self) -> float:
        if self.p is not None:
            return float(self.p)
        return self._entry().p(self)

    def resolved_palette(self) -> Optional[int]:
        """The palette size; None for kinds that set their own."""
        if self.palette_size is not None:
            return int(self.palette_size)
        return self._entry().palette(self)

    def resolved_tree_size(self) -> int:
        return self._entry().tree_size(self)

    def digest(self) -> str:
        """A 16-hex-digit hash of every field, the `config_hash` of each
        of the config's trial records."""
        blob = json.dumps(vars(self), sort_keys=True, separators=(",", ":"),
                          default=str)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        entry = self._entry()
        for rule in _FIELD_RULES:
            rule(self)
        name = self.lemma_kind or self.kind
        knobs = self.knobs or {}
        for key in knobs:
            if key not in entry.knobs:
                raise ParameterError(
                    "unknown knob %r for %s runs (allowed knobs: %s)"
                    % (key, name, ", ".join(sorted(entry.knobs)) or "none"))
        for key, default in _UNREAD_DEFAULTS:
            if key not in entry.reads and getattr(self, key) != default:
                raise ParameterError("%s runs do not read %s; leave it at %r"
                                     % (name, key, default))
        try:
            json.dumps(knobs, sort_keys=True)
        except TypeError:
            raise ParameterError("knob values must be JSON-serializable")
        entry.check(self)


# (field, default) for each field beyond those every trial kind reads
_UNREAD_DEFAULTS = tuple(
    (f.name, f.default) for f in dataclasses.fields(TrialConfig)
    if f.name not in ("kind", "lemma_kind", "n", "p", "trials", "base_seed"))


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


def _derive_for(config: TrialConfig):
    return derive_parameters(config.eps, config.d, config.n,
                             **(config.knobs or {}))


def _expand_knobs(config: TrialConfig) -> Tuple[ExpandParams, int]:
    """The expander family parameters and the check count in `knobs`."""
    knobs = config.knobs or {}
    r, checks = knobs.get("r", 3), knobs.get("check_trials", 200)
    for key, value, least in (("r", r, 3), ("check_trials", checks, 1)):
        if not _int(value) or value < least:
            raise ParameterError("%s must be an integer >= %d, got %r"
                                 % (key, least, value))
    theta = float(_number("theta", knobs.get("theta", 0.25)))
    # a theta <= 0 is ExpandParams's to reject
    c_value = knobs.get("C", max(200.0, 50.0 / theta) if theta > 0 else 0.0)
    eta = knobs.get("eta", 1.0 / (r + 2))
    return ExpandParams(theta=theta, C=float(_number("C", c_value)),
                        eta=float(_number("eta", eta)), r=int(r)), int(checks)


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


def _spanning_kwargs(config: TrialConfig) -> Dict[str, object]:
    """eps is the trim override; knobs {"eps_override": None} asks for
    the analysis formula instead."""
    knobs = dict(config.knobs or {})
    return {"eps_override": knobs.pop("eps_override", config.eps),
            "derive_kwargs": knobs}


def _trial_spanning(config: TrialConfig, src: RandomSource):
    seed = gen_seed_graph(config.n, config.delta, config.seed_kind,
                          src.substream("seed-graph"))
    tree = _make_tree(config, config.n, src.substream("tree"))
    res = embed_spanning(
        seed, config.resolved_p(), tree, config.delta, config.alpha,
        config.d, src.substream("pipeline"), **_spanning_kwargs(config))
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
        at, hit = col.find_pairs(0, range(1, order))
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
    table = AnchorTable(trim.t0, anchor_nodes,
                        draw_permutation(n, src.substream("shift")))
    gen = src.substream("triples").generator()
    sizes = []
    for _ in range(config.samples):
        j = int(gen.integers(d))
        u = int(gen.integers(n))
        v = int(gen.integers(n - 1))
        if v >= u:
            v += 1
        sizes.append(len(compute_B(u, v, parts[j], table.hosts, table)))
    violated = min(sizes) < bound
    metrics = {"min": min(sizes), "mean": sum(sizes) / len(sizes),
               "bound": bound, "anchors": len(table.hosts),
               "samples": len(sizes), "violated": bool(violated)}
    if violated:
        return "fail", "bound", metrics
    return "success", "done", metrics


def _trial_expand(config: TrialConfig, src: RandomSource):
    g = gen_gnp(config.n, config.resolved_p(), src.substream("graph"))
    params, checks = _expand_knobs(config)
    try:
        out = find_effective_expander(g, params, trials=checks,
                                      source=src.substream("checks"))
    except ExpanderFailure as exc:
        return "fail", exc.stage, {"violated": True, "detail": str(exc),
                                   "edges": g.size}
    metrics = {"violated": False, "edges": g.size,
               "kept": len(out.subgraph.vertex_set),
               "deleted": len(out.deleted),
               "capped": len(out.capped_edges)}
    return "success", "done", metrics


# ---------------------------------------------------------------------------
# the trial-kind table


def _log_p(scale: float) -> Callable[[TrialConfig], float]:
    def p(config: TrialConfig) -> float:
        n = max(2, config.n)
        return min(1.0, scale * math.log(n) / n)
    return p


def _almost_tree_size(config: TrialConfig) -> int:
    cap = (1.0 - config.eps) * config.n
    if config.tree_frac is None:
        size = max(1, int(math.floor(cap + 1e-9)))
    else:
        size = max(1, int(round(config.tree_frac * config.n)))
    if size > cap + 1e-9:
        raise ParameterError("tree size %d exceeds (1-eps)n = %.2f"
                             % (size, cap))
    return size


def _check_star(config: TrialConfig) -> None:
    size = config.resolved_tree_size()
    if config.tree_source == "star" and size - 1 > config.d:
        raise ParameterError("a star on %d nodes has centre degree %d > d = %d"
                             % (size, size - 1, config.d))


def _check_almost(config: TrialConfig) -> None:
    _check_star(config)
    _derive_for(config)


def _check_seed(config: TrialConfig) -> None:
    """The trial's seed graph exists; nothing is built to check it."""
    seed_plan(config.n, config.delta, config.seed_kind)


def _check_large_buv(config: TrialConfig) -> None:
    _rule("d", lambda v: v >= 2, ">= 2 to grow a tree")(config)
    _check_seed(config)


def _check_spanning(config: TrialConfig) -> None:
    _check_star(config)
    _check_seed(config)
    spanning_setup(config.n, config.delta, config.d,
                   **_spanning_kwargs(config))


@dataclass(frozen=True)
class TrialKind:
    """One row of KINDS: everything that sets one trial kind apart.

    `run(config, source)` runs one trial and returns (outcome, stage,
    metrics); `check(config)` holds the kind's own rules and its
    deterministic parameter derivation, and validate calls it last, so
    a config it rejects fails before trial 0.  `reads` names the fields
    these two read beyond those every kind reads.  `p`, `palette` and
    `tree_size` resolve an unset `p`, `palette_size` or `tree_frac`.
    `knobs` are the keys allowed in TrialConfig.knobs: for the embedding
    kinds derive_parameters keywords, set key by key over the pipeline's
    defaults.  `lemma_defaults` are a lemma kind's lemma_stats defaults,
    None for the others; `command` and `help` name the kind's
    subcommand, if it has one.
    """

    run: Callable[..., Tuple[str, str, Dict[str, object]]]
    p: Callable[[TrialConfig], float]
    reads: FrozenSet[str]
    palette: Callable[[TrialConfig], Optional[int]] = lambda config: None
    tree_size: Callable[[TrialConfig], int] = lambda config: config.n
    knobs: FrozenSet[str] = frozenset()
    lemma_defaults: Optional[Dict[str, object]] = None
    command: Optional[str] = None
    help: str = ""
    check: Callable[[TrialConfig], object] = lambda config: None


def _reads(names: str) -> FrozenSet[str]:
    return frozenset(names.split())


KINDS: Dict[str, TrialKind] = {
    "almost-spanning": TrialKind(
        _trial_almost, _log_p(10.0),
        _reads("palette_size eps d tree_source tree_frac knobs"),
        palette=lambda c: c.n, tree_size=_almost_tree_size,
        knobs=frozenset(_DERIVE_KEYS), check=_check_almost,
        command="embed-almost",
        help="embed bounded-degree trees on up to (1-eps)n nodes"),
    "spanning": TrialKind(
        _trial_spanning, _log_p(1.0),
        _reads("eps delta alpha d tree_source seed_kind knobs"),
        knobs=frozenset(_DERIVE_KEYS + ("eps_override",)),
        check=_check_spanning, command="embed-spanning",
        help="embed spanning trees via trim, embed, absorb"),
    "rainbow-st": TrialKind(
        _trial_rainbow_st, _log_p(1.0), _reads("palette_size delta seed_kind"),
        palette=lambda c: max(1, c.n - 1), check=_check_seed,
        command="rainbow-st",
        help="search perturbed coloured hosts for rainbow spanning trees"),
    "many-colours-a": TrialKind(
        lambda c, src: _trial_many_colours(c, src, per_vertex=False),
        lambda c: min(1.0, 20.0 / max(2, c.n)), _reads("alpha gamma beta"),
        lemma_defaults=dict(n=2000, alpha=0.1, gamma=0.5),
        check=_rule("alpha", lambda v: 0.0 < v <= 1.0, "in (0, 1]")),
    "many-colours-b": TrialKind(
        lambda c, src: _trial_many_colours(c, src, per_vertex=True),
        lambda c: min(1.0, 20.0 / max(2, c.n)), _reads("alpha beta d"),
        lemma_defaults=dict(n=2000, alpha=0.5, d=3),
        check=_rule("alpha", lambda v: 0.0 < v <= 1.0, "in (0, 1]")),
    "large-Buv": TrialKind(
        _trial_large_buv, _log_p(1.0),
        _reads("eps delta d seed_kind samples"),
        lemma_defaults=dict(n=2000, delta=0.4, d=2, seed_kind="complete",
                            eps=0.25, samples=40),
        check=_check_large_buv),
    "expand-membership": TrialKind(
        _trial_expand,
        lambda c: min(1.0, 4.0 * _expand_knobs(c)[0].C / c.n),
        _reads("knobs"),
        knobs=frozenset(("theta", "C", "eta", "r", "check_trials")),
        lemma_defaults=dict(n=2000), check=_expand_knobs),
}
LEMMA_KINDS = tuple(key for key, entry in KINDS.items()
                    if entry.lemma_defaults is not None)
TRIAL_KINDS = tuple(key for key in KINDS if key not in LEMMA_KINDS) \
    + ("lemma-stats",)


def _run_one(config: TrialConfig, trial: int) -> TrialRecord:
    src = spawn_trial_source(config.base_seed, trial)
    start = time.perf_counter()
    try:
        outcome, stage, metrics = config._entry().run(config, src)
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


def run_trials(config: TrialConfig, *,
               workers: int = 1) -> List[TrialRecord]:
    """Run config.trials independent trials and return their records.

    Trial i draws every random decision from spawn_trial_source(
    config.base_seed, i), so records are identical (apart from wall
    clock ms) whether trials run serially or across `workers` forked
    processes (at most one per core), and records always come back in
    trial order.  A bad config or worker count raises before any trial
    executes.  Inside a trial nothing escapes: a stage failure lands in
    its record as a fail outcome at that stage, an InfeasibleParameters
    at stage "infeasible", and any other exception at stage "error" with
    its type name and message, so one bad trial never aborts the batch.
    """
    if not isinstance(config, TrialConfig):
        raise ParameterError("run_trials expects a TrialConfig, got %r"
                             % type(config).__name__)
    config.validate()
    if not _int(workers) or workers < 1:
        raise ParameterError("workers must be an integer >= 1, got %r"
                             % (workers,))
    workers = min(workers, config.trials, os.cpu_count() or 1)
    if workers > 1:
        # the pool's module loads only when a batch is forked
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            jobs = [(config, i) for i in range(config.trials)]
            with multiprocessing.get_context("fork").Pool(workers) as pool:
                return pool.starmap(_run_one, jobs)
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


def lemma_stats(kind: str, params: Optional[Dict[str, object]] = None,
                trials: int = 100, *, base_seed: int = 0,
                workers: int = 1) -> LemmaStatsSummary:
    """Measure how often finite instances violate one asymptotic bound.

    `params` overrides the per-kind defaults and accepts n, p and the
    TrialConfig fields in KINDS[kind].reads.  The summary reports the
    observed violation frequency next to the analytic bound and never
    decides pass or fail; tests and callers apply their own thresholds.
    """
    if kind not in LEMMA_KINDS:
        raise ParameterError("unknown lemma kind %r; expected one of %s"
                             % (kind, ", ".join(LEMMA_KINDS)))
    if not _int(trials) or trials < 1:
        raise ParameterError("lemma_stats needs an integer trials >= 1, "
                             "got %r" % (trials,))
    merged: Dict[str, object] = dict(KINDS[kind].lemma_defaults)
    merged.update(params or {})
    # kind, lemma_kind, trials and base_seed are set here, not by params
    unknown = set(merged) - {"n", "p"} - {key for key, _ in _UNREAD_DEFAULTS}
    if unknown:
        raise ParameterError("lemma_stats params cannot set %s"
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

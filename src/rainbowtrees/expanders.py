"""Expansion predicates, effective expanders, degradation, sparsification.

A graph is an (eta, r)-expander when every vertex set X with
|X| <= floor(eta * n) has an external neighbourhood of size at least
r * |X|.  An effective expander is a large subgraph whose degrees sit in
the band [C, 10C] and whose dense cores all expand; the sparsifier turns
a vertex block into a small rainbow graph whose law, conditioned on
success, is uniform over graphs with the requested edge count.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

import numpy as np

from .errors import ExpanderFailure, ParameterError, SparsifyFailure
from .graphs import ColouredGraph, _sample_pairs, canonical_edge
from .rng import RandomSource

E4 = math.exp(4.0)

EXACT_SUBSET_LIMIT = 24
EXACT_CORE_LIMIT = 18


def ell1(r: int, C: float) -> float:
    """Minimum-degree threshold for the core-expansion requirement."""
    if C <= 1.0:
        raise ParameterError("degree scale must exceed 1, got %r" % C)
    return 2.0 * E4 * r * r * math.log(C)


def ell2(eta: float, d: int, k: float) -> float:
    """Size threshold below which rooted trees embed into expanders."""
    if not 0.0 < eta < 2.0:
        raise ParameterError("eta must lie in (0, 2), got %r" % eta)
    if k <= 0:
        raise ParameterError("k must be positive, got %r" % k)
    return eta * k / (40.0 * d * d * math.log(2.0 / eta))


@dataclass(frozen=True)
class ExpandParams:
    """Parameter tuple for the effective-expander family."""

    theta: float
    C: float
    eta: float
    r: int

    def __post_init__(self):
        if not 0.0 < self.theta < 0.5:
            raise ParameterError("theta must lie in (0, 1/2), got %r" % self.theta)
        if int(self.r) != self.r or self.r < 3:
            raise ParameterError("r must be an integer >= 3, got %r" % self.r)
        if not 0.0 < self.eta <= 1.0 / (self.r + 2):
            raise ParameterError("eta must lie in (0, 1/(r+2)], got %r" % self.eta)
        if self.C <= 1.0:
            raise ParameterError("C must exceed 1, got %r" % self.C)

    @property
    def ell1(self) -> float:
        return ell1(self.r, self.C)


@dataclass(frozen=True)
class ExpansionCheck:
    """Outcome of an expansion check.

    `certified` is True only when every qualifying set was enumerated; a
    sampled pass is evidence, not a certificate.  A False outcome always
    carries a violating witness set, so refutations are certified in
    either mode.
    """

    is_expander: bool
    certified: bool
    witness: Optional[FrozenSet[int]]
    sets_checked: int


def _bit_adjacency(graph: ColouredGraph) -> Tuple[List[int], List[int]]:
    verts = sorted(graph.vertex_set)
    pos = {v: i for i, v in enumerate(verts)}
    adj = graph.adjacency()
    return verts, [sum(1 << pos[w] for w in adj[v]) for v in verts]


def _check_mode(mode: str, source: Optional[RandomSource]) -> None:
    if mode not in ("exact", "sampled"):
        raise ParameterError("mode must be 'exact' or 'sampled', got %r" % mode)
    if mode == "sampled" and source is None:
        raise ParameterError("sampled mode needs a RandomSource")


def is_eta_r_expander(graph: ColouredGraph, eta: float, r: int,
                      mode: str = "exact", trials: int = 400,
                      source: Optional[RandomSource] = None,
                      size_cap: Optional[int] = None) -> ExpansionCheck:
    """Check |Γ(X)| >= r|X| for every X with |X| <= floor(eta * n).

    Exact mode enumerates every qualifying X (n <= 24).  Sampled mode
    draws `trials` uniform sets of each qualifying size; a True outcome
    is then one-sided.  `size_cap` overrides the set-size bound, which
    callers use when eta should be read against an ambient graph larger
    than this one.
    """
    n = graph.order
    if eta <= 0.0:
        raise ParameterError("eta must be positive, got %r" % eta)
    if r < 1:
        raise ParameterError("r must be >= 1, got %r" % r)
    _check_mode(mode, source)
    cap = int(math.floor(eta * n + 1e-9)) if size_cap is None else int(size_cap)
    cap = min(cap, n)
    if cap < 1:
        return ExpansionCheck(True, True, None, 0)

    if mode == "exact":
        if n > EXACT_SUBSET_LIMIT:
            raise ParameterError("exact expander check supports n <= %d, got %d"
                                 % (EXACT_SUBSET_LIMIT, n))

        def candidates(size):
            return itertools.combinations(range(n), size)
    else:
        gen = source.generator()

        def candidates(size):
            return (gen.choice(n, size=size, replace=False).tolist()
                    for _ in range(trials))
    certified = mode == "exact"
    verts, masks = _bit_adjacency(graph)
    checked = 0
    for size in range(1, cap + 1):
        need = r * size
        for combo in candidates(size):
            xmask = 0
            gamma = 0
            for i in combo:
                xmask |= 1 << i
                gamma |= masks[i]
            checked += 1
            if (gamma & ~xmask).bit_count() < need:
                return ExpansionCheck(False, certified,
                                      frozenset(verts[i] for i in combo),
                                      checked)
    return ExpansionCheck(True, certified, None, checked)


def _qualifying_subsets(graph: ColouredGraph, min_deg: float) -> List[int]:
    """Bitmasks of the nonempty induced subgraphs with min degree >= min_deg.

    Vectorized sweep over all 2^n subsets; positions refer to the sorted
    vertex list.
    """
    verts, masks = _bit_adjacency(graph)
    n = len(verts)
    if n > EXACT_CORE_LIMIT:
        raise ParameterError("exact core enumeration supports n <= %d, got %d"
                             % (EXACT_CORE_LIMIT, n))
    subsets = np.arange(1, 1 << n, dtype=np.uint32)
    lowest = np.full(subsets.shape, 255, dtype=np.uint8)
    for i in range(n):
        deg = np.bitwise_count(subsets & np.uint32(masks[i])).astype(np.uint8)
        member = ((subsets >> np.uint32(i)) & np.uint32(1)).astype(bool)
        lowest = np.where(member, np.minimum(lowest, deg), lowest)
    keep = subsets[lowest >= min_deg]
    return [int(s) for s in keep]


def verify_expand_core(graph: ColouredGraph, ell1_value: float, eta: float,
                       r: int, mode: str = "exact", trials: int = 200,
                       source: Optional[RandomSource] = None) -> ExpansionCheck:
    """Check that every induced subgraph with min degree >= ell1_value is an
    (eta, r)-expander, with set sizes capped by floor(eta * v(graph)).

    Exact mode (n <= 18) enumerates all qualifying subgraphs.  Sampled
    mode strips the graph to its ceil(ell1)-core and expansion-checks it,
    plus the cores of random induced subgraphs.  The core of an induced
    subgraph lies inside the core of the whole graph, so when the latter
    is empty no sample is drawn, and the check passes, uncertified, after
    0 sets.  At desk scale that is the usual case: ell1 exceeds every
    degree of a stage graph, so the core condition holds vacuously (in
    the almost-spanning pipeline at n = 2000, ell1 is about 700, and the
    graph a stage checks has about 260 vertices, 800 edges and degrees of
    at most floor(10C) = 15).
    """
    n = graph.order
    _check_mode(mode, source)
    cap = int(math.floor(eta * n + 1e-9))
    if cap < 1:
        return ExpansionCheck(True, mode == "exact", None, 0)
    verts = sorted(graph.vertex_set)

    if mode == "exact":
        subsets = _qualifying_subsets(graph, ell1_value)
        checked = 0
        for smask in subsets:
            nodes = [verts[i] for i in range(n) if (smask >> i) & 1]
            sub = graph.subgraph(nodes)
            res = is_eta_r_expander(sub, eta, r, mode="exact", size_cap=cap)
            checked += res.sets_checked
            if not res.is_expander:
                return ExpansionCheck(False, True, res.witness, checked)
        return ExpansionCheck(True, True, None, checked)

    threshold = math.ceil(ell1_value - 1e-9)
    core = _core(graph, threshold)
    if not core:
        return ExpansionCheck(True, False, None, 0)
    gen = source.generator()
    checked = 0
    targets: List[FrozenSet[int]] = [core]
    for _ in range(8):
        if n < 2:
            break
        want = int(gen.integers(max(1, n // 2), n + 1))
        sample = gen.choice(n, size=want, replace=False)
        sub_core = _core(graph, threshold, [verts[int(i)] for i in sample])
        if sub_core and sub_core not in targets:
            targets.append(sub_core)
    for t_idx, nodes in enumerate(targets):
        res = is_eta_r_expander(graph.subgraph(nodes), eta, r, mode="sampled",
                                trials=trials,
                                source=source.substream(("core", t_idx)),
                                size_cap=cap)
        checked += res.sets_checked
        if not res.is_expander:
            return ExpansionCheck(False, False, res.witness, checked)
    return ExpansionCheck(True, False, None, checked)


def _core(graph: ColouredGraph, lo: float,
          within: Optional[Iterable[int]] = None) -> FrozenSet[int]:
    """The maximal subset of `within` (default: every vertex) whose
    induced subgraph has minimum degree at least `lo` (it is unique):
    every vertex of degree below `lo` is dropped, degrees are recounted
    over the rows left, until none drops.  It is the core of
    `graph.subgraph(within)`, without building that subgraph."""
    rows = graph.edge_array()
    alive = np.zeros(graph.n, dtype=bool)
    alive[list(graph.vertex_set if within is None else within)] = True
    while True:
        rows = np.compress(alive[rows].all(axis=1), rows, axis=0)
        low = alive & (np.bincount(rows.ravel(), minlength=graph.n) < lo)
        if not low.any():
            return frozenset(np.flatnonzero(alive).tolist())
        alive &= ~low


def _peel(graph: ColouredGraph, lo: float, hi: int
          ) -> Tuple[FrozenSet[int], List[Tuple[int, int]]]:
    """Delete vertices of degree below `lo` and cap degrees above `hi`,
    until both hold.

    The first deletions leave the `lo`-core, which is unique, so it is
    taken from `_core`.  A core's degrees are at most the graph's, so
    only when a degree of the graph exceeds `hi` is a neighbour-set dict
    of the core built for the capping, which sheds the highest-index
    neighbours of each vertex over `hi`, in ascending vertex order, and
    then deletes again; the order of the cuts matters.  Returns the
    surviving vertices and the capped edges in the order they were cut.
    """
    alive = _core(graph, lo)
    if not alive or graph.max_degree() <= hi:
        return alive, []
    adj: Dict[int, Set[int]] = {
        v: set(ns) for v, ns in graph.subgraph(alive).adjacency().items()}
    capped: List[Tuple[int, int]] = []
    while True:
        over = [v for v in sorted(adj) if len(adj[v]) > hi]
        if not over:
            return frozenset(adj), capped
        for v in over:
            for u in sorted(adj[v], reverse=True):
                if len(adj[v]) <= hi:
                    break
                adj[v].remove(u)
                adj[u].remove(v)
                capped.append(canonical_edge(u, v))
        drop = [v for v in adj if len(adj[v]) < lo]
        while drop:
            for v in drop:
                for u in adj.pop(v):
                    adj[u].discard(v)
            drop = [v for v in adj if len(adj[v]) < lo]


@dataclass(frozen=True)
class EffectiveExpander:
    """A successfully extracted effective expander, with the vertices
    peeled and the edges capped on the way to it."""

    subgraph: ColouredGraph
    deleted: FrozenSet[int]
    capped_edges: FrozenSet[Tuple[int, int]]


def find_effective_expander(graph: ColouredGraph, params: ExpandParams,
                            mode: str = "sampled", trials: int = 200,
                            source: Optional[RandomSource] = None) -> EffectiveExpander:
    """Peel and cap `graph` into the degree band [C, 10C] and verify that
    its dense cores expand.

    Failure raises ExpanderFailure, with detail item 1 (too many vertices
    peeled), 2 (degree band unsatisfiable: nothing left), or 3 (a core
    failed the expansion check); these feed trial statistics.
    """
    lo = params.C
    hi = math.floor(10.0 * params.C + 1e-9)
    alive, capped = _peel(graph, lo, hi)
    if not alive:
        raise ExpanderFailure(
            "degree band [%g, %d] unsatisfiable: peeling removed every vertex"
            % (lo, hi), item=2)
    deleted = graph.vertex_set - alive
    budget = params.theta * graph.order
    if len(deleted) > budget + 1e-9:
        raise ExpanderFailure(
            "peeled %d vertices, above the budget %.2f"
            % (len(deleted), budget), item=1)

    # _peel returns only once every degree lies in [lo, hi]; a step that
    # peels or caps nothing would only copy every row
    sub = graph.subgraph(alive) if deleted else graph
    if capped:
        sub = sub.without_edges(capped)
    sub = sub.uncoloured()

    core = verify_expand_core(sub, params.ell1, params.eta, params.r,
                              mode=mode, trials=trials, source=source)
    if not core.is_expander:
        raise ExpanderFailure(
            "a dense core failed the (%g, %d) expansion check"
            % (params.eta, params.r), item=3)
    return EffectiveExpander(subgraph=sub, deleted=frozenset(deleted),
                             capped_edges=frozenset(capped))


def degrade_attach(graph: ColouredGraph, new_vertex: int,
                   attach_edges: Iterable[Tuple[int, int]], d: int) -> ColouredGraph:
    """Attach a well-connected new vertex to an expander.

    The caller contract: if every induced subgraph of `graph` with min
    degree >= k is a (1/(2d+1), d+2)-expander, the same subgraphs of the
    output are (1/(2d+2), d+1)-expanders.  The attachment degree must be
    at least (d+2)^2 for that trade to hold.
    """
    edges = [canonical_edge(u, v) for u, v in attach_edges]
    need = (d + 2) * (d + 2)
    if len(set(edges)) < need:
        raise ParameterError("attachment degree %d below (d+2)^2 = %d"
                             % (len(set(edges)), need))
    for u, v in edges:
        if new_vertex not in (u, v):
            raise ParameterError("attach edge (%d, %d) misses the new vertex"
                                 % (u, v))
        other = u if v == new_vertex else v
        if other not in graph.vertex_set:
            raise ParameterError("attach edge endpoint %d outside the graph" % other)
    if new_vertex in graph.vertex_set:
        raise ParameterError("vertex %d already present" % new_vertex)
    return graph.union(edges, [new_vertex])


def sparsify(block: Iterable[int], p: float, palette_size: int,
             allowed: Iterable[int], m: int, source: RandomSource,
             n: Optional[int] = None,
             sample_out: Optional[dict] = None) -> ColouredGraph:
    """Random rainbow graph on `block` with exactly m edges.

    Steps, in order: include each pair with probability p; colour the
    included edges independently and uniformly from the full palette; for
    each allowed colour with a nonempty class keep one member uniformly;
    discard everything else (all other colours included); keep m of the
    survivors uniformly.  Fails, as a legitimate random outcome, exactly
    when fewer than m allowed colours appear among the survivors.

    When `sample_out` is a dict it receives the raw inclusion sample:
    "pairs", every included pair in block labels as a (k, 2) int64 array
    of canonical (u < v) rows in lexicographic order, and "colours",
    their colours as an aligned int64 array, so a caller tracking edge
    exposure can hand them to `ExposureOracle.record_block` as they are.
    The draw itself is unchanged.  `allowed` may be any iterable of
    colours; an integer array is read as it is.
    """
    verts = sorted(set(int(v) for v in block))
    if palette_size < 1:
        raise ParameterError("palette_size must be >= 1")
    # ok[c]: colour c is allowed
    picks = (np.asarray(allowed, dtype=np.int64)
             if isinstance(allowed, np.ndarray)
             else np.fromiter(allowed, dtype=np.int64))
    if len(picks) and not 0 <= picks.min() <= picks.max() < palette_size:
        raise ParameterError("allowed colours must lie in the palette")
    ok = np.zeros(palette_size, dtype=bool)
    ok[picks] = True
    count = int(np.count_nonzero(ok))
    if not 0.0 <= p <= 1.0:
        raise ParameterError("p must lie in [0, 1], got %r" % p)
    if m < 0 or m > count:
        raise ParameterError("m=%d outside [0, |allowed|=%d]" % (m, count))
    if n is None:
        n = (verts[-1] + 1) if verts else 0
    if verts and not 0 <= verts[0] <= verts[-1] < n:
        raise ParameterError("block vertices must lie in [0, %d)" % n)
    gen = source.generator()

    # (S.1) presence
    rows = _sample_pairs(len(verts), p, gen)
    # (S.2) colours from the full palette
    cols = gen.integers(0, palette_size, size=len(rows))
    labels = np.array(verts, dtype=np.int64)
    if sample_out is not None:
        sample_out["pairs"] = labels[rows]
        sample_out["colours"] = cols

    # (S.3) one uniform representative per allowed colour, in colour
    # order: one draw of offsets into the allowed colour classes, each
    # class in row order; (S.4) drop the rest.  Survivors are row indices.
    order = np.argsort(cols, kind="stable")
    counts = np.bincount(cols, minlength=palette_size)
    classes = (counts * ok).nonzero()[0]
    first = np.searchsorted(cols[order], classes)
    if len(classes):
        first += gen.integers(0, counts[classes])
    survivors = order[first]

    if len(survivors) < m:
        raise SparsifyFailure(
            "only %d allowed colours survived, needed %d" % (len(survivors), m),
            survivors=len(survivors), needed=m)

    # (S.5) uniform m-subset of the survivors, put back in row order,
    # which the block's ascending labels carry over to label order
    chosen = np.sort(survivors[gen.choice(len(survivors), size=m,
                                          replace=False)]) if m \
        else survivors[:0]
    return ColouredGraph._from_rows(n, labels[rows[chosen]], cols[chosen],
                                    palette_size, verts)

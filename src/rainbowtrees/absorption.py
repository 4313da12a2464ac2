"""Growing an almost-spanning rainbow tree to a spanning one.

The full-tree pipeline embeds a leaf-trimmed copy of the prescribed tree
into the random perturbation, relocates that copy with a uniformly
random relabelling of the vertex set, splits the dense seed graph (minus
every revealed random edge) into a few edge-disjoint slices with a
minimum-degree guarantee, and then re-attaches the trimmed leaves one at
a time.  Each re-attachment consults a pool of anchor vertices whose
tree neighbourhoods sit inside the right slice, reveals exactly the
colours it needs through the exposure oracle, and rewires the first
anchor whose revealed colours are fresh: the anchor's tree role moves to
the incoming vertex and the anchor itself becomes the new leaf.  The
slices exist so that every step can draw its colours from a slice whose
edges at the attachment vertex were never looked at before.

A slice is no graph of its own: it is a `SeedSlice`, a label on each of
the seed's rows, one byte per row while d < 256, and
`SeedSlice.pair_labels` answers a batch of pairs with one seed lookup,
`ColouredGraph.find_pairs`: j for slice j, d for a row of R, -1 for a
non-edge.  The slicing counts a slice's degrees from its label mask
alone (`ColouredGraph.degrees_where`), never from a copy of its rows.
A step makes two lookups: the fresh-slice question at u with the leak
check at v, then both pool questions in `compute_B`.  The embedded tree
is not relabelled either: an `AnchorTable`, built once per run, holds
the anchors' host labels and their image neighbours, the only part of
the image the pools read.
The grown image is audited once, at the end, by the embedding module's
`_audit_image`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (Dict, FrozenSet, Iterable, List, Optional, Sequence,
                    Tuple)

import numpy as np

from .embedding import (AlmostSpanningResult, PipelineParams, _audit_image,
                        _number, _trace, derive_parameters,
                        embed_almost_spanning)
from .errors import (AbsorptionFailure, ParameterError, PartitionFailure,
                     StageFailure)
from .exposure import ExposureOracle
from .graphs import ColouredGraph, canonical_edge
from .rng import RandomSource
from .trees import Tree, TrimResult, build_I0, trim_to_size

Pair = Tuple[int, int]


# ---------------------------------------------------------------------------
# relabelling


def draw_permutation(n: int, source: RandomSource) -> List[int]:
    """A uniformly random permutation of range(n), as a list with
    perm[old] the new label."""
    return source.generator().permutation(n).tolist()


# ---------------------------------------------------------------------------
# slicing the seed graph


class SeedSlice:
    """Slice j of a seed graph, as a read-only view: the seed's edges
    whose entry in `labels`, one per edge_array() row, is j.

    The slices of one partition share `labels`, an unsigned array of the
    smallest dtype that holds d (one byte for d < 256).  `pair_labels`
    answers pair membership from the seed's cached edge codes, and
    `min_degree` returns the value the partition computed.  `edges`, a
    frozenset built on first use and cached, is read only by output
    checks and tests; the absorb loop never builds it.
    """

    __slots__ = ("seed", "labels", "j", "_min_degree", "_edges")

    def __init__(self, seed: ColouredGraph, labels: np.ndarray, j: int,
                 min_degree: int):
        self.seed = seed
        self.labels = labels
        self.j = j
        self._min_degree = int(min_degree)
        self._edges: Optional[FrozenSet[Pair]] = None

    def pair_labels(self, a, b) -> np.ndarray:
        """The label of each pair (a[i], b[i]), label arrays or scalars
        broadcast together: j for slice j, d for a row of R, -1 for a
        pair that is no seed edge.  One `find_pairs` lookup in the seed,
        so every slice of a partition answers alike.  A pair with an end
        outside range(n) is no edge; a loop or a label that is not an
        integer raises ParameterError."""
        at, hit = self.seed.find_pairs(a, b)
        out = np.full(len(hit), -1, dtype=np.int64)
        out[hit] = self.labels[at[hit]]
        return out

    def min_degree(self) -> int:
        return self._min_degree

    @property
    def edges(self) -> FrozenSet[Pair]:
        if self._edges is None:
            rows = np.compress(self.labels == self.j,
                               self.seed.edge_array(), axis=0)
            self._edges = frozenset(zip(rows[:, 0].tolist(),
                                        rows[:, 1].tolist()))
        return self._edges


def partition_edge_set(seed: ColouredGraph, r_rows: Iterable[Pair], d: int,
                       delta: float, source: RandomSource
                       ) -> Tuple[SeedSlice, ...]:
    """Split the seed minus R into d slices, each with minimum degree
    delta*n/(2d).

    `r_rows` are the edges of R, the revealed random graph, as pairs or
    as (m, 2) rows; those that are seed edges belong to no slice.  Every
    other seed edge lands in a uniformly chosen slice; the draw is
    repeated (up to 50 times) until all degree floors hold.  The seed
    minus R must already have minimum degree 0.9*delta*n, the floor that
    survives the removal of a sparse random graph from the seed; both
    the missing precondition and an exhausted retry budget raise
    PartitionFailure, which is a legitimate trial outcome rather than a
    bug.  R is looked up once in the seed's edge codes, and each draw
    labels the seed's rows in an array of `np.min_scalar_type(d)`, one
    byte while d < 256: the kept rows take the draws in row order, and a
    row of R keeps label d.  The seed minus R's degrees are the seed's
    less R's; slices 0..d-2 count theirs from their label masks with
    `ColouredGraph.degrees_where`, which reads no (m, 2) rows, and the
    last slice's are the remainder.  The slices come back as `SeedSlice`
    views sharing one label array, so neither the seed minus R nor any
    slice is built as a graph.
    """
    if int(d) != d or d < 1:
        raise ParameterError("d must be a positive integer, got %r" % d)
    if not 0.0 < delta < 1.0:
        raise ParameterError("delta must lie in (0, 1), got %r" % delta)
    d = int(d)
    n = seed.n
    at, found = seed.find_edges(r_rows)
    # the distinct seed rows of R, ascending (sorting beats np.unique here)
    hit = np.sort(at[found])
    dropped = hit[np.diff(hit, prepend=-1) != 0]
    floor_pre = 0.9 * delta * n
    # degrees in vertex_set order, as the seed counts its own
    kept = seed._degrees() - seed._vertex_counts(seed.edge_array()[dropped])
    min_degree = int(kept.min())
    if min_degree + 1e-9 < floor_pre:
        raise PartitionFailure(
            "minimum degree %d is below the post-removal floor %.2f"
            % (min_degree, floor_pre),
            min_degree=min_degree, required=floor_pre)

    bound = delta * n / (2.0 * d)
    gen = source.generator()
    # the kept rows take the draws in order; a row of R keeps label d,
    # which no slice takes
    keep = np.ones(seed.size, dtype=bool)
    keep[dropped] = False
    for _ in range(50):
        labels = np.full(seed.size, d, dtype=np.min_scalar_type(d))
        labels[keep] = gen.integers(0, d, size=seed.size - len(dropped))
        rest, floors = kept, []
        for j in range(d):
            degrees = rest if j == d - 1 else seed.degrees_where(labels == j)
            floors.append(int(degrees.min()))
            if floors[-1] + 1e-9 < bound:
                break
            rest = rest - degrees
        else:
            labels.flags.writeable = False
            return tuple(SeedSlice(seed, labels, j, m)
                         for j, m in enumerate(floors))
    raise PartitionFailure(
        "no slicing met the degree floor %.2f in 50 draws" % bound,
        bound=bound, draws=50)


# ---------------------------------------------------------------------------
# absorber pools


class AnchorTable:
    """The anchors of one run and their image-tree neighbours, on host
    labels: what the pools read of the embedded tree.

    `hosts` holds the anchors' host labels, ascending, and row i of
    `rows` the host labels of hosts[i]'s neighbours in the embedded
    tree, ascending and padded with -1 to the tree's degree bound.  It
    is built once per run from the trimmed tree, the anchor nodes and
    the placement (a dict or a list, node to host), and always holds
    the originally embedded copy, not the partially rewired one.
    `edges`, the image edges at the anchors, is read by output checks.
    """

    __slots__ = ("hosts", "rows", "_around")

    def __init__(self, tree: Tree, nodes: Iterable[int], mapping):
        place = mapping.__getitem__
        nodes = tuple(nodes)
        self._around = {place(x): tuple(sorted(map(place, tree.neighbours(x))))
                        for x in nodes}
        if len(self._around) != len(nodes):
            raise ParameterError("two anchors share a host")
        hosts = sorted(self._around)
        self.hosts = np.array(hosts, dtype=np.int64)
        self.rows = np.array(
            [ys + (-1,) * (tree.d - len(ys)) for ys in map(self._around.get,
                                                            hosts)],
            dtype=np.int64).reshape(len(hosts), tree.d)

    def neighbours(self, x: int) -> Tuple[int, ...]:
        """The image-tree neighbours of anchor host x, ascending."""
        return self._around[x]

    @property
    def edges(self) -> FrozenSet[Pair]:
        return frozenset(canonical_edge(x, y)
                         for x, ys in self._around.items() for y in ys)


def compute_B(u: int, v: int, part: SeedSlice, anchors: Iterable[int],
              table: AnchorTable) -> Tuple[int, ...]:
    """The anchors x among `anchors` (host labels, each with a row in
    `table`) adjacent to u whose image-tree neighbours all neighbour v,
    ascending.

    Works on adjacency alone; no colour is revealed.  One lookup in the
    slice answers both questions for every anchor at once: the pairs
    (u, x), and the pairs (y, v) for the neighbours y in x's table row.
    A loop is never an edge, so x = u is dropped, and so is any x with
    v among its neighbours.
    """
    if u == v:
        raise ParameterError("pool endpoints must differ, got u = v = %d" % u)
    hosts = table.hosts
    want = np.asarray(anchors, dtype=np.int64)
    at = np.searchsorted(hosts, want)
    known = at < len(hosts)
    known[known] = hosts[at[known]] == want[known]
    if not known.all():
        raise ParameterError("anchor %d has no row in the table"
                             % want[~known][0])
    # a mask over the table's rows, which also drops repeated anchors
    pick = np.zeros(len(hosts), dtype=bool)
    pick[at] = True
    pick &= (hosts != u) & (table.rows != v).all(axis=1)
    xs, ys = hosts[pick], table.rows[pick]
    real = ys >= 0
    k = len(xs)
    hit = part.pair_labels(np.concatenate([np.full(k, u), ys[real]]),
                           np.concatenate([xs, np.full(real.sum(), v)])
                           ) == part.j
    near_v = ~real
    near_v[real] = hit[k:]
    return tuple(xs[hit[:k] & near_v.all(axis=1)].tolist())


def b_size_bound(delta: float, d: int, n: int) -> float:
    """The guarantee floor (delta/(4d))^(d+1) * n / (5 d^2) for pool sizes."""
    return (delta / (4.0 * d)) ** (d + 1) * n / (5.0 * d * d)


# ---------------------------------------------------------------------------
# absorption state


class AbsorptionState:
    """Mutable record of the growing tree during absorption.

    `mapping` sends embedded tree nodes to host vertices and `inverse`
    sends them back; `edge_colours` carries the current image edges with
    their colours and `colours` the set of those colours.  `table` is
    the `AnchorTable` of the anchors' host labels and their neighbours
    in the originally embedded copy, which the pool definition always
    refers to; `parts` are the edge-disjoint slices of the seed minus
    the random edges (`SeedSlice` views), and `used` the absorbers
    consumed so far, in order.
    """

    def __init__(self, tree: Tree, table: AnchorTable,
                 parts: Sequence[SeedSlice], mapping: Dict[int, int],
                 edge_colours: Dict[Pair, int], oracle: ExposureOracle,
                 trace: Optional[List[str]] = None):
        self.tree = tree
        self.table = table
        self.parts = tuple(parts)
        self.used: List[int] = []
        self.mapping = dict(mapping)
        self.inverse = {w: node for node, w in self.mapping.items()}
        assert len(self.inverse) == len(self.mapping), "image not injective"
        self.edge_colours = dict(edge_colours)
        self.colours = set(self.edge_colours.values())
        assert len(self.colours) == len(self.edge_colours), \
            "starting image is not rainbow"
        self.oracle = oracle
        self.trace: List[str] = trace if trace is not None else []


def _first_fresh(parts: Sequence[SeedSlice], u: int,
                 labels: np.ndarray) -> int:
    """Index of the first slice whose label is not among `labels`, the
    labels of u's colour-revealed pairs; a structural StageFailure when
    there is none."""
    seen = set(labels.tolist())
    for j, h in enumerate(parts):
        if h.j not in seen:
            return j
    raise StageFailure(
        "all %d slices carry exposed colours at vertex %d" % (len(parts), u),
        "absorption", structural=True, vertex=u)


def select_fresh_part(parts: Sequence[SeedSlice], u: int,
                      oracle: ExposureOracle) -> int:
    """Index of the first slice with no revealed colour at vertex u: the
    first whose label no colour-revealed pair at u carries, answered by
    one lookup of all those pairs.

    Raises a structural StageFailure when every slice has already been
    looked at around u; the slicing exists precisely to prevent that.
    """
    ws = oracle.colour_exposed_at(u)
    labels = parts[0].pair_labels(u, ws) if parts else np.empty(0)
    return _first_fresh(parts, u, labels)


def absorb_step(state: AbsorptionState, v: int, v_node: int) -> str:
    """Absorb host vertex v while tree node v_node rejoins the tree.

    v_node must have exactly one embedded tree neighbour, which sits on
    host u; j* is the first slice with no revealed colour at u
    (select_fresh_part).  One lookup answers that question together with
    the leak check: no colour-revealed pair between v and the current
    image may be an edge of slice j* yet.  Scans the anchor pool for
    (u, v) in slice j* in ascending vertex order, revealing for each
    candidate x only the colour of the edge u-x and of the edges from v
    to x's image-tree neighbours.  The first candidate whose revealed
    colours are pairwise distinct and disjoint from the tree's colours
    wins: the tree node sitting at x moves to v (its incident image
    edges swing from x to v on the just-revealed colours), and v_node
    lands on x through the edge u-x.  Appends and returns a record line
    `i=<step> j*=<slice> |B|=<pool> chosen=<x|fail>`.

    Raises AbsorptionFailure when no candidate qualifies (a legitimate
    random outcome) and asserts on any contract violation.
    """
    tree, oracle, table = state.tree, state.oracle, state.table
    if v in state.inverse:
        raise ParameterError("host vertex %d already carries a tree node" % v)
    if v_node not in tree.nodes or v_node in state.mapping:
        raise ParameterError("node %r is not an unembedded tree node"
                             % (v_node,))
    hooks = [w for w in tree.neighbours(v_node) if w in state.mapping]
    if len(hooks) != 1:
        raise ParameterError("node %r has %d embedded neighbours, not one"
                             % (v_node, len(hooks)))
    u = state.mapping[hooks[0]]
    ws = oracle.colour_exposed_at(u)
    # absorption is the only consumer of the pairs between v and the image
    leaks = [w for w in oracle.colour_exposed_at(v) if w in state.inverse]
    labels = state.parts[0].pair_labels(
        np.repeat([u, v], [len(ws), len(leaks)]), ws + tuple(leaks))
    j_star = _first_fresh(state.parts, u, labels[:len(ws)])
    h = state.parts[j_star]
    leaked = labels[len(ws):] == h.j
    assert not leaked.any(), "slice %d colour at (%d, %d) leaked early" \
        % (j_star, v, leaks[int(leaked.argmax())])

    used = set(state.used)
    pool = [x for x in compute_B(u, v, h, table.hosts, table)
            if x not in used]

    label = len(state.used) + 1
    chosen = None
    kept: List[int] = []
    for x in pool:
        pairs = [(u, x)] + [(y, v) for y in table.neighbours(x)]
        cols = [oracle.expose_colour(q, kind="absorb", stage=label)
                for q in pairs]
        if len(set(cols) - state.colours) == len(cols):
            chosen = x
            kept = cols
            break
    if chosen is None:
        state.trace.append("i=%d j*=%d |B|=%d chosen=fail"
                           % (label, j_star + 1, len(pool)))
        raise AbsorptionFailure(
            "none of %d candidates had fresh colours for host vertex %d"
            % (len(pool), v), vertex=v, step=label, pool=len(pool))

    x = chosen
    z = state.inverse[x]
    ys = table.neighbours(x)
    # swing z's image edges from x onto v, then hang v_node on x
    for y in ys:
        state.colours.remove(state.edge_colours.pop(canonical_edge(x, y)))
    for y, c in zip(ys, kept[1:]):
        state.edge_colours[canonical_edge(y, v)] = c
    state.edge_colours[canonical_edge(u, x)] = kept[0]
    state.colours.update(kept)
    state.mapping[z] = v
    state.mapping[v_node] = x
    state.inverse[x] = v_node
    state.inverse[v] = z
    state.used.append(x)

    line = "i=%d j*=%d |B|=%d chosen=%d" % (label, j_star + 1, len(pool), x)
    state.trace.append(line)
    return line


# ---------------------------------------------------------------------------
# the spanning pipeline


@dataclass(frozen=True)
class SpanningResult:
    """Outcome of one spanning embedding run.

    On success `mapping` is a bijection from tree nodes onto all host
    vertices and `edge_colours` a rainbow colouring of the image.
    `eps_formula` is the trim fraction the analysis prescribes and
    `eps_used` the one actually applied (they differ when overridden);
    both always appear in the trace.  `r_max_degree` records the largest
    degree of the revealed random graph against the advisory cap
    `3 ln n`; breaching it is recorded, never fatal.
    """

    success: bool
    stage: Optional[str]
    detail: Optional[str]
    trace: Tuple[str, ...]
    mapping: Optional[Dict[int, int]]
    edge_colours: Dict[Pair, int]
    eps_formula: float
    eps_used: float
    r: int
    perm: Optional[List[int]]
    used_absorbers: Tuple[int, ...]
    r_max_degree: Optional[int]
    r_degree_ok: Optional[bool]
    almost: Optional[AlmostSpanningResult]
    oracle: Optional[ExposureOracle]


def absorb_leftovers(seed: ColouredGraph, tree: Tree, trim: TrimResult,
                     almost: AlmostSpanningResult, delta: float, d: int,
                     eps_used: float, source: RandomSource, *,
                     eps_formula: Optional[float] = None,
                     base_trace: Optional[Sequence[str]] = None
                     ) -> SpanningResult:
    """Grow an embedded trimmed tree back to spanning size.

    Takes the almost-spanning outcome as-is (tests may hand-build one),
    reveals the rest of the random graph, relabels everything by a
    uniform permutation, slices the seed minus the random edges, and
    absorbs each host vertex outside the image while the trimmed leaves
    rejoin in reverse trim order.  Stage failures come back as results,
    never as exceptions.
    """
    n = seed.n
    r = len(trim.deleted)
    if eps_formula is None:
        eps_formula = eps_used
    trace: List[str] = list(base_trace or [])
    trace.extend(almost.trace)
    oracle = almost.oracle
    perm: Optional[List[int]] = None
    rmax: Optional[int] = None
    rok: Optional[bool] = None

    def failure(stage: str, detail: str) -> SpanningResult:
        return SpanningResult(
            success=False, stage=stage, detail=detail, trace=tuple(trace),
            mapping=None, edge_colours={}, eps_formula=eps_formula,
            eps_used=eps_used, r=r, perm=perm, used_absorbers=(),
            r_max_degree=rmax, r_degree_ok=rok, almost=almost, oracle=oracle)

    if not almost.success:
        return failure(almost.stage or "almost", almost.detail or "")
    mapping = dict(almost.embedding)
    edge_colours = dict(almost.edge_colours)
    used: Sequence[int] = ()

    # with r = 0 the trimmed tree already spans; nothing to absorb
    if r:
        # reveal the full random edge set, then relocate: the embedded copy
        # moves to a uniformly random position, and R's rows move with it
        # (no consumer reads their order)
        rows = oracle.materialize_presence()
        perm = draw_permutation(n, source.substream("shift"))
        oracle.apply_permutation(perm)
        mapping = {node: perm[w] for node, w in mapping.items()}
        edge_colours = {canonical_edge(perm[a], perm[b]): c
                        for (a, b), c in edge_colours.items()}
        r_rows = np.asarray(perm)[rows]
        # the maximum degree of R, which relabelling keeps, is checked
        # against an advisory cap of 3 ln n and recorded either way
        rmax = int(np.bincount(r_rows.ravel(), minlength=n).max())
        cap = 3.0 * math.log(n) if n > 1 else 3.0
        rok = rmax <= cap + 1e-9
        _trace(trace, "r-degree", rok, max=rmax, cap="%.2f" % cap)
        _trace(trace, "shift", True, edges=len(r_rows))

        try:
            i0 = build_I0(trim.t0, tree, d, eps_used)
            table = AnchorTable(trim.t0, i0, mapping)
            _trace(trace, "anchors", True, count=len(i0))
            parts = partition_edge_set(seed, r_rows, d, delta,
                                       source.substream("partition"))
        except StageFailure as exc:
            _trace(trace, exc.stage, False, detail=str(exc.detail))
            return failure(exc.stage, str(exc))
        _trace(trace, "partition", True, parts=len(parts),
               min_degree=min(h.min_degree() for h in parts))

        # the k-th leftover is absorbed while the k-th trimmed leaf, in
        # reverse trim order, rejoins the tree
        leftovers = sorted(set(range(n)) - set(mapping.values()))
        state = AbsorptionState(tree, table, parts, mapping, edge_colours,
                                oracle, trace=trace)
        rejoin = tuple(reversed(trim.deleted))
        assert len(rejoin) == len(leftovers) == r
        try:
            for k in range(r):
                absorb_step(state, leftovers[k], rejoin[k])
        except StageFailure as exc:
            return failure(exc.stage, str(exc))
        mapping, edge_colours, used = (state.mapping, state.edge_colours,
                                       state.used)

    _audit_image(tree, mapping, edge_colours, oracle, host=seed)
    _trace(trace, "absorb", True, absorbed=r)
    return SpanningResult(
        success=True, stage=None, detail=None, trace=tuple(trace),
        mapping=dict(mapping), edge_colours=dict(edge_colours),
        eps_formula=eps_formula, eps_used=eps_used, r=r, perm=perm,
        used_absorbers=tuple(used), r_max_degree=rmax, r_degree_ok=rok,
        almost=almost, oracle=oracle)


def spanning_setup(n: int, delta: float, d: int, *,
                   eps_override: Optional[float] = None,
                   derive_kwargs: Optional[Dict] = None
                   ) -> Tuple[float, float, int, float,
                              Optional[PipelineParams]]:
    """embed_spanning's deterministic setup on n vertices:
    (eps_formula, eps_used, r, eps_sub, params).

    The analysis's trim fraction eps_formula = (delta/(4d))^(d+1) /
    (10 d^2) is far below one leftover vertex at desk scale;
    `eps_override` replaces it as eps_used, so absorption is observable.
    After r leaves are trimmed, the rest is embedded at leftover
    fraction eps_sub with `params`, None for a one-node tree:
    derive_parameters over this pipeline's defaults, whose zeta is a
    narrow block slack so the blocks of a nearly spanning forest still
    fit disjointly, with `derive_kwargs` set over them key by key.
    """
    if int(d) != d or d < 2:
        raise ParameterError("d must be an integer >= 2, got %r" % d)
    eps_formula = (delta / (4.0 * d)) ** (d + 1) / (10.0 * d * d)
    eps_used = eps_formula if eps_override is None \
        else float(_number("trim fraction", eps_override))
    if not 0.0 < eps_used < 1.0:
        raise ParameterError("trim fraction must lie in (0, 1), got %r"
                             % eps_used)
    r = int(math.floor(eps_used * n + 1e-9))
    eps_sub = (r / n) if r >= 1 else 1e-13
    params = None
    if n - r > 1:
        knobs = dict(zeta=0.4 * eps_sub / (2.0 * (1.0 - eps_sub)),
                     beta=0.3, rho=0.05, m_mode="adaptive", c_m=3.0)
        knobs.update(derive_kwargs or {})
        params = derive_parameters(eps_sub, d, n, **knobs)
    return eps_formula, eps_used, r, eps_sub, params


def embed_spanning(seed: ColouredGraph, p: float, tree: Tree, delta: float,
                   alpha: float, d: int, source: RandomSource, *,
                   eps_override: Optional[float] = None,
                   derive_kwargs: Optional[Dict] = None) -> SpanningResult:
    """Embed `tree` as a rainbow spanning tree of the perturbed host.

    spanning_setup fixes the trim and the trimmed tree's parameters from
    `eps_override` and `derive_kwargs`.  A zero leftover count reduces
    the run to the almost-spanning pipeline on the whole tree.

    Parameter violations raise; stage failures are returned as results.
    """
    n = seed.n
    if tree.m != n:
        raise ParameterError("tree order %d must equal host order %d"
                             % (tree.m, n))
    if tree.max_degree() > d:
        raise ParameterError("tree max degree %d exceeds d=%d"
                             % (tree.max_degree(), d))
    if not 0.0 < delta < 1.0:
        raise ParameterError("delta must lie in (0, 1), got %r" % delta)
    if alpha < 0.0:
        raise ParameterError("alpha must be nonnegative, got %r" % alpha)
    if not 0.0 <= p <= 1.0:
        raise ParameterError("p must lie in [0, 1], got %r" % p)
    if seed.vertex_set != frozenset(range(n)):
        raise ParameterError("seed must live on its full label space")
    if seed.min_degree() + 1e-9 < delta * n:
        raise ParameterError("seed minimum degree %d is below delta*n = %.2f"
                             % (seed.min_degree(), delta * n))

    eps_formula, eps_used, r, eps_sub, params = spanning_setup(
        n, delta, d, eps_override=eps_override, derive_kwargs=derive_kwargs)
    palette_size = int((1.0 + alpha) * n + 1e-9)
    trace: List[str] = []
    _trace(trace, "setup", True, eps_formula="%.3g" % eps_formula,
           eps_used="%.3g" % eps_used, leftovers=r, palette=palette_size)

    trim = trim_to_size(tree, n - r, source.substream("trim"))
    almost = embed_almost_spanning(n, p, palette_size, trim.t0, eps_sub, d,
                                   source.substream("almost"), params=params)
    return absorb_leftovers(seed, tree, trim, almost, delta, d, eps_used,
                            source, eps_formula=eps_formula, base_trace=trace)

"""Vertex-labelled graphs with optional edge colourings, plus random models.

The central type is ColouredGraph: an immutable simple graph on integer
labels with an optional total edge colouring.  Subgraphs keep their
original labels, so a graph may occupy only part of its label space;
isolated vertices still count toward its order.

Random models provided here: the binomial random graph, dense seed graphs
of prescribed minimum degree, the perturbed union of a seed with a random
graph, and uniform independent edge colourings.
"""

from __future__ import annotations

import functools
import math
from types import MappingProxyType
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

import numpy as np

from .errors import ParameterError
from .rng import RandomSource

Edge = Tuple[int, int]

SEED_KINDS = ("complete", "clique-union", "multipartite", "random-supergraph")


def canonical_edge(u: int, v: int) -> Edge:
    if u == v:
        raise ParameterError("loops are not allowed: (%d, %d)" % (u, v))
    return (u, v) if u < v else (v, u)


def _read_only(arr: np.ndarray) -> np.ndarray:
    view = arr.view()
    view.flags.writeable = False
    return view


def _pair_rows(pairs: Iterable[Edge]) -> np.ndarray:
    """`pairs` as canonical (u < v) int64 rows, in the given order.

    An (m, 2) integer array, such as another graph's edge_array(), is
    read whole instead of row by row."""
    if isinstance(pairs, np.ndarray) and pairs.dtype.kind in "iu" \
            and pairs.ndim == 2 and pairs.shape[1] == 2:
        rows = np.sort(pairs.astype(np.int64), axis=1)
    else:
        # a 2-vector dtype raises ValueError on an item of any other
        # length; a lone label broadcasts to a loop, which raises below
        rows = np.sort(np.fromiter(pairs, dtype=np.dtype((np.int64, 2))),
                       axis=1)
    loops = rows[:, 0] == rows[:, 1]
    if loops.any():
        canonical_edge(*rows[loops][0].tolist())   # raises on the loop
    return rows


def _codes(rows: np.ndarray, n: int) -> np.ndarray:
    """Rows with entries in [0, n) as codes u * n + v; the order is kept."""
    return rows[:, 0] * n + rows[:, 1]


def find_codes(codes: np.ndarray, want: np.ndarray
               ) -> Tuple[np.ndarray, np.ndarray]:
    """Look up each of `want` in the ascending, duplicate-free `codes`.

    Returns the positions `np.searchsorted` gives and a boolean mask of
    the entries present, which is `np.isin(want, codes)`; where the mask
    is true, `codes[pos] == want`.
    """
    want = np.asarray(want, dtype=np.int64)
    if not len(codes):
        return np.zeros(len(want), dtype=np.int64), np.zeros(len(want), bool)
    at = np.searchsorted(codes, want).clip(max=len(codes) - 1)
    return at, codes[at] == want


class ColouredGraph:
    """Immutable simple graph with an optional edge colouring.

    The edges are stored once, as a canonical (u < v), duplicate-free
    (m, 2) int64 array in lexicographic order, next to an aligned colour
    array or None.  `edges` (a frozenset), `colouring` (a read-only
    mapping, or None), the edge codes, the degrees and the neighbour
    index are views of those rows, built on first use and cached.  The
    neighbour index is in CSR form: the neighbours of v, ascending, are
    `targets[start[v]:start[v + 1]]`; `neighbours`, `degree` and
    `adjacency()` read it.
    """

    __slots__ = ("n", "palette_size", "vertex_set", "_rows", "_colours",
                 "_edges", "_colouring", "_csr", "_adj", "_ecodes", "_degs")

    def __init__(self, n: int, edges: Iterable[Edge],
                 colouring: Optional[Dict[Edge, int]] = None,
                 palette_size: int = 0,
                 vertex_set: Optional[Iterable[int]] = None):
        if n < 0:
            raise ParameterError("n must be nonnegative, got %d" % n)
        n = int(n)
        if vertex_set is None:
            vs = frozenset(range(n))
        else:
            vs = frozenset(int(v) for v in vertex_set)
            for v in vs:
                if not 0 <= v < n:
                    raise ParameterError("vertex %d outside label space [0, %d)"
                                         % (v, n))
        es = frozenset(canonical_edge(u, v) for u, v in edges)
        for u, v in es:
            if u not in vs or v not in vs:
                raise ParameterError("edge (%d, %d) leaves the vertex set" % (u, v))
        ordered = sorted(es)
        colours = col = None
        if colouring is None:
            if palette_size:
                raise ParameterError("palette_size without colouring")
        else:
            if palette_size <= 0:
                raise ParameterError("coloured graph needs palette_size >= 1")
            col = {canonical_edge(u, v): int(c) for (u, v), c in colouring.items()}
            if col.keys() != es:
                raise ParameterError("colouring must cover exactly the edge set")
            for e, c in col.items():
                if not 0 <= c < palette_size:
                    raise ParameterError("colour %d of edge %s outside palette [0, %d)"
                                         % (c, e, palette_size))
            colours = [col[e] for e in ordered]
        self._init(n, np.array(ordered, dtype=np.int64), colours,
                   palette_size, vs)
        # the checks built both views already
        self._edges = es
        self._colouring = None if col is None else MappingProxyType(col)

    def _init(self, n: int, rows, colours, palette_size: int,
              vertex_set: FrozenSet[int]) -> None:
        self.n = n
        self.vertex_set = vertex_set
        self._rows = np.asarray(rows, dtype=np.int64).reshape(-1, 2)
        self._colours = None if colours is None \
            else np.asarray(colours, dtype=np.int64)
        self.palette_size = 0 if colours is None else int(palette_size)
        self._edges = self._colouring = self._csr = self._adj = None
        self._ecodes = self._degs = None

    @classmethod
    def _from_rows(cls, n: int, rows, colours=None, palette_size: int = 0,
                   vertex_set: Optional[Iterable[int]] = None) -> "ColouredGraph":
        """Trusted constructor, without checks.  `rows` must be canonical
        (u < v), duplicate-free, lexicographically sorted and inside
        `vertex_set` (default range(n)); `colours`, when given, must be
        aligned with them and lie in [0, palette_size)."""
        g = object.__new__(cls)
        vs = frozenset(range(int(n))) if vertex_set is None \
            else frozenset(vertex_set)
        g._init(int(n), rows, colours, palette_size, vs)
        return g

    def __reduce__(self):
        # pickle the rows alone; the views are rebuilt on use
        return (ColouredGraph._from_rows, (self.n, self._rows, self._colours,
                                           self.palette_size, self.vertex_set))

    # -- basic accessors ------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.vertex_set)

    @property
    def size(self) -> int:
        return len(self._rows)

    @property
    def is_coloured(self) -> bool:
        return self._colours is not None

    def _pairs(self):
        return zip(self._rows[:, 0].tolist(), self._rows[:, 1].tolist())

    @property
    def edges(self) -> FrozenSet[Edge]:
        if self._edges is None:
            self._edges = frozenset(self._pairs())
        return self._edges

    @property
    def colouring(self) -> Optional[Mapping[Edge, int]]:
        if self._colouring is None and self._colours is not None:
            self._colouring = MappingProxyType(
                dict(zip(self._pairs(), self._colours.tolist())))
        return self._colouring

    def _neighbour_index(self) -> Tuple[np.ndarray, np.ndarray]:
        """(start, targets): CSR offsets per label and neighbour labels."""
        if self._csr is None:
            # each edge once from either end, as codes source * n + target;
            # sorting them lists every vertex's neighbours, ascending
            n, rows = self.n, self._rows
            codes = np.sort(np.concatenate((_codes(rows, n),
                                            _codes(rows[:, ::-1], n))))
            start = np.searchsorted(codes, np.arange(n + 1, dtype=np.int64) * n)
            self._csr = (start, codes % max(n, 1))
        return self._csr

    def _bounds(self, v: int) -> Tuple[int, int]:
        if v not in self.vertex_set:
            raise KeyError(v)
        start = self._neighbour_index()[0]
        return int(start[v]), int(start[v + 1])

    def adjacency(self) -> Dict[int, Tuple[int, ...]]:
        """{vertex: its neighbours in ascending order}."""
        if self._adj is None:
            start, targets = self._neighbour_index()
            bounds, flat = start.tolist(), targets.tolist()
            self._adj = {v: tuple(flat[bounds[v]:bounds[v + 1]])
                         for v in self.vertex_set}
        return self._adj

    def neighbours(self, v: int) -> Tuple[int, ...]:
        """The neighbours of v, ascending; KeyError outside the vertex set."""
        lo, hi = self._bounds(v)
        return tuple(self._neighbour_index()[1][lo:hi].tolist())

    def degree(self, v: int) -> int:
        lo, hi = self._bounds(v)
        return hi - lo

    def _vertex_counts(self, rows: np.ndarray) -> np.ndarray:
        """How often each vertex occurs in `rows`, in vertex_set order."""
        counts = np.bincount(rows.ravel(), minlength=self.n)
        if len(self.vertex_set) < self.n:
            counts = counts[list(self.vertex_set)]
        return counts

    def _degrees(self) -> np.ndarray:
        """Degrees of the vertices, in vertex_set order; cached."""
        if not self.vertex_set:
            raise ParameterError("degrees of an empty graph")
        if self._degs is None:
            self._degs = self._vertex_counts(self._rows)
        return self._degs

    def min_degree(self) -> int:
        return int(self._degrees().min())

    def min_degree_without(self, drop: np.ndarray) -> int:
        """The minimum degree once the edge_array() rows at the distinct
        indices `drop` are gone, read off the cached degrees."""
        return int((self._degrees()
                    - self._vertex_counts(self._rows[drop])).min())

    def max_degree(self) -> int:
        return int(self._degrees().max())

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.find_edges([(u, v)])[1][0])

    def colour_of(self, u: int, v: int) -> int:
        if self._colours is None:
            raise ParameterError("graph is uncoloured")
        at, found = self.find_edges([(u, v)])
        if not found[0]:
            raise KeyError(canonical_edge(u, v))
        return int(self._colours[at[0]])

    def colours_used(self) -> FrozenSet[int]:
        if self._colours is None:
            raise ParameterError("graph is uncoloured")
        return frozenset(self._colours.tolist())

    def is_rainbow(self) -> bool:
        """True when the colouring is injective on the edge set."""
        return len(self.colours_used()) == self.size

    def edge_array(self) -> np.ndarray:
        """Edges as a read-only, lexicographically sorted (m, 2) int64 array."""
        return _read_only(self._rows)

    def edge_codes(self) -> np.ndarray:
        """Edges as ascending int64 codes u * n + v, aligned with
        edge_array(); read-only, computed on first use and cached."""
        if self._ecodes is None:
            self._ecodes = _read_only(_codes(self._rows, self.n))
        return self._ecodes

    def find_edges(self, pairs: Iterable[Edge]
                   ) -> Tuple[np.ndarray, np.ndarray]:
        """Row of each pair in edge_array() (either orientation), and a
        mask of the pairs that are edges; a pair with an end outside the
        label space is no edge.  Loops raise ParameterError."""
        rows = _pair_rows(pairs)
        # outside the label space a code could alias an edge's code
        inside = (rows[:, 0] >= 0) & (rows[:, 1] < self.n)
        at, found = find_codes(self.edge_codes(), _codes(rows, self.n))
        return at, found & inside

    def colour_array(self) -> np.ndarray:
        """Colours aligned with edge_array() rows, read-only."""
        if self._colours is None:
            raise ParameterError("graph is uncoloured")
        return _read_only(self._colours)

    # -- derived graphs ---------------------------------------------------

    def _restrict(self, keep: np.ndarray,
                  vertex_set: FrozenSet[int]) -> "ColouredGraph":
        # np.compress selects the same rows as rows[keep], in the same
        # order, without boolean indexing's 2-D cost
        cols = None if self._colours is None \
            else np.compress(keep, self._colours)
        return ColouredGraph._from_rows(
            self.n, np.compress(keep, self._rows, axis=0), cols,
            self.palette_size, vertex_set)

    def keep_edges(self, mask: np.ndarray) -> "ColouredGraph":
        """Same vertex set, only the edge_array() rows where the boolean
        `mask` is true (colouring restricted)."""
        if len(mask) != self.size:
            raise ParameterError("mask of length %d for %d edges"
                                 % (len(mask), self.size))
        return self._restrict(mask, self.vertex_set)

    def subgraph(self, vertices: Iterable[int]) -> "ColouredGraph":
        """Induced subgraph on `vertices`, labels preserved."""
        vs = frozenset(int(v) for v in vertices)
        if not vs <= self.vertex_set:
            raise ParameterError("subgraph vertices must lie in the vertex set")
        inside = np.zeros(self.n, dtype=bool)
        inside[list(vs)] = True
        return self._restrict(inside[self._rows].all(axis=1), vs)

    def without_edges(self, drop: Iterable[Edge]) -> "ColouredGraph":
        """Same vertex set, edge set minus `drop` (colouring restricted)."""
        at, found = self.find_edges(drop)
        keep = np.ones(self.size, dtype=bool)
        keep[at[found]] = False
        return self._restrict(keep, self.vertex_set)

    def union(self, edges: Iterable[Edge],
              vertices: Iterable[int] = ()) -> "ColouredGraph":
        """Uncoloured graph with this graph's edges plus `edges`.

        The vertex set grows by `vertices`, and the label space with it
        when they lie beyond it; every added edge must join two vertices
        of the grown vertex set.
        """
        new = frozenset(int(v) for v in vertices)
        if any(v < 0 for v in new):
            raise ParameterError("vertex labels must be nonnegative")
        n = max([self.n] + [v + 1 for v in new])
        vs = self.vertex_set | new
        extra = _pair_rows(edges)
        inside = np.zeros(n, dtype=bool)
        inside[list(vs)] = True
        if len(extra) and not (0 <= extra.min() and extra.max() < n
                               and inside[extra].all()):
            raise ParameterError("an added edge leaves the vertex set")
        # merge the new rows into the sorted old ones, no full re-sort: as
        # 16-byte records, a 1-D insert copies the old rows between the
        # insertion points and writes each new row in its place
        codes = self.edge_codes() if n == self.n else _codes(self._rows, n)
        add, first = np.unique(_codes(extra, n), return_index=True)
        fresh = ~find_codes(codes, add)[1]
        record = np.dtype((np.void, 16))
        merged = np.insert(
            np.ascontiguousarray(self._rows).view(record).ravel(),
            np.searchsorted(codes, add[fresh]),
            np.ascontiguousarray(extra[first[fresh]]).view(record).ravel())
        return ColouredGraph._from_rows(
            n, merged.view(np.int64).reshape(-1, 2), vertex_set=vs)

    def uncoloured(self) -> "ColouredGraph":
        return ColouredGraph._from_rows(self.n, self._rows,
                                        vertex_set=self.vertex_set)

    def __repr__(self):
        tag = "coloured, palette %d" % self.palette_size if self.is_coloured \
            else "uncoloured"
        return "<ColouredGraph order=%d size=%d (%s)>" % (self.order, self.size, tag)


def complete_graph(n: int) -> ColouredGraph:
    return ColouredGraph._from_rows(n, np.stack(np.triu_indices(n, 1), axis=1))


# -- random models --------------------------------------------------------


@functools.lru_cache(maxsize=16)
def _pair_offsets(n: int) -> np.ndarray:
    """Lexicographic index of the first pair (u, u + 1) for each u in
    [0, n]; cached, since `sparsify` meets the same small block size
    again and again, and read-only."""
    u = np.arange(n + 1, dtype=np.int64)
    return _read_only(u * (n - 1) - u * (u - 1) // 2)


def _pairs_from_indices(n: int, ks: np.ndarray) -> np.ndarray:
    """Invert lexicographic pair indices to (u, v) rows with u < v."""
    offsets = _pair_offsets(n)
    # written into one array: np.stack costs more than the arithmetic
    rows = np.empty((len(ks), 2), dtype=np.int64)
    us = rows[:, 0]
    us[:] = np.searchsorted(offsets, ks, side="right") - 1
    rows[:, 1] = ks - offsets[us] + us + 1
    return rows


def _sample_pairs(n: int, p: float, gen: np.random.Generator) -> np.ndarray:
    """Each pair of range(n) independently with probability p, as (u, v)
    rows with u < v in lexicographic order.

    Sparse densities (p < 0.1) use geometric skipping; denser ones use a
    plain Bernoulli sweep.  The branch depends only on p, so the rows are
    a pure function of (n, p) and the generator's state.
    """
    total = n * (n - 1) // 2
    if p < 0.1:
        ks = _skip_sample_indices(total, p, gen)
    else:
        ks = _sweep_sample_indices(total, p, gen)
    return _pairs_from_indices(n, ks)


def _skip_sample_indices(total: int, p: float, gen: np.random.Generator) -> np.ndarray:
    """Each index in [0, total) independently with probability p.

    Geometric gap skipping: cost proportional to the number of successes
    rather than to `total`; the method of choice for sparse densities.
    """
    if total <= 0 or p <= 0.0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(total, dtype=np.int64)
    log_q = math.log1p(-p)
    chunks = []
    pos = -1
    while pos < total - 1:
        expect = (total - 1 - pos) * p
        batch = max(64, int(expect + 4.0 * math.sqrt(expect + 1.0)) + 16)
        u = np.maximum(gen.random(batch), 1e-300)
        gaps = np.floor(np.log(u) / log_q).astype(np.int64) + 1
        ks = pos + np.cumsum(gaps)
        inside = ks < total
        if inside.all():
            chunks.append(ks)
            pos = int(ks[-1])
        else:
            chunks.append(ks[inside])
            break
    if not chunks:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(chunks)


def _sweep_sample_indices(total: int, p: float, gen: np.random.Generator) -> np.ndarray:
    """Bernoulli sweep over all indices, chunked to bound memory."""
    chunks = []
    step = 1 << 22
    for start in range(0, total, step):
        width = min(step, total - start)
        mask = gen.random(width) < p
        chunks.append(np.nonzero(mask)[0] + start)
    if not chunks:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(chunks).astype(np.int64)


def gen_gnp(n: int, p: float, source: RandomSource) -> ColouredGraph:
    """The binomial random graph: each pair is an edge with probability p,
    sampled by `_sample_pairs`, so a fixed (n, p, source) always yields
    the same graph."""
    if not 0.0 <= p <= 1.0:
        raise ParameterError("edge probability must lie in [0, 1], got %r" % p)
    return ColouredGraph._from_rows(n, _sample_pairs(n, p, source.generator()))


def seed_plan(n: int, delta: float, kind: str) -> Tuple[int, int]:
    """(need, parts) for a seed of `kind` on n vertices: the minimum
    degree ceil(delta*n) it must reach, and its largest feasible clique
    count (clique-union) or smallest feasible class count (multipartite),
    1 for the other kinds.  Raises ParameterError, building nothing, when
    no seed exists, which is exactly when need > n - 1.
    """
    if kind not in SEED_KINDS:
        raise ParameterError("unknown seed kind %r (choose from %s)"
                             % (kind, ", ".join(SEED_KINDS)))
    if not 0.0 < delta < 1.0:
        raise ParameterError("delta must lie in (0, 1), got %r" % delta)
    if n < 2:
        raise ParameterError("seed graphs need n >= 2")
    need = math.ceil(delta * n - 1e-9)
    if need > n - 1:
        raise ParameterError(
            "no graph on n=%d vertices has minimum degree ceil(%g*n) = %d"
            % (n, delta, need))
    parts = 1
    if kind == "clique-union":
        parts = max(1, int(1.0 / delta))
        while parts > 1 and n // parts - 1 < need:
            parts -= 1
    elif kind == "multipartite":
        parts = max(2, math.ceil(1.0 / (1.0 - delta)))
        while parts < n and n - math.ceil(n / parts) < need:
            parts += 1
    return need, parts


# the fixed-kind seed this process holds, as ((n, delta, kind), graph)
_held_seed: Optional[Tuple[Tuple[int, float, str], ColouredGraph]] = None


def gen_seed_graph(n: int, delta: float, kind: str,
                   source: Optional[RandomSource] = None) -> ColouredGraph:
    """A dense graph on n vertices with minimum degree at least ceil(delta*n).

    Kinds: "complete"; "clique-union" (disjoint cliques, as equal as
    possible); "multipartite" (complete multipartite, balanced classes);
    "random-supergraph" (binomial graph above the degree threshold, with
    deficient vertices repaired deterministically).  seed_plan sets the
    clique or class count and rejects an infeasible (n, delta, kind).

    The first three kinds are functions of (n, delta, kind) alone and
    ignore `source`: each is built once per process and shared, rows
    read-only, so its edge codes and degrees are computed once for all
    the trials that use it.  One such seed is held at a time; a call
    with another (n, delta, kind) drops it before building the next.
    "random-supergraph" is drawn anew from `source` on every call.
    """
    global _held_seed
    fixed = kind != "random-supergraph"
    if fixed:
        if _held_seed is not None and _held_seed[0] == (n, delta, kind):
            return _held_seed[1]
        _held_seed = None
    need, parts = seed_plan(n, delta, kind)

    if kind == "complete":
        g = complete_graph(n)
    elif kind == "clique-union":
        g = _class_graph(n, parts, within=True)
    elif kind == "multipartite":
        g = _class_graph(n, parts, within=False)
    else:
        if source is None:
            raise ParameterError("random-supergraph needs a RandomSource")
        slack = 2.0 * math.sqrt(delta * math.log(max(n, 2)) / n) \
            + 2.0 * math.log(max(n, 2)) / n
        q = min(1.0, delta + slack)
        g = gen_gnp(n, q, source.substream("seed-gnp"))
        extra = set()
        adj = {v: set(ns) for v, ns in g.adjacency().items()}
        for v in range(n):
            want = need - len(adj[v])
            if want <= 0:
                continue
            for u in range(n):
                if want <= 0:
                    break
                if u != v and u not in adj[v]:
                    extra.add(canonical_edge(u, v))
                    adj[v].add(u)
                    adj[u].add(v)
                    want -= 1
        if extra:
            g = g.union(extra)

    assert g.min_degree() >= need, "seed_plan admitted an infeasible seed"
    if fixed:
        g._rows.flags.writeable = False
        _held_seed = ((n, delta, kind), g)
    return g


def _class_graph(n: int, k: int, within: bool) -> ColouredGraph:
    """The pairs inside (or, when not `within`, across) k balanced classes
    of consecutive vertices.

    Each class's pairs are written straight into their slice of one
    row array, in lexicographic order: inside a class of size s at
    offset o, the `triu_indices` of s shifted by o; across, each vertex
    of the class against every vertex of the later classes.  The
    classes follow each other in vertex order, so the rows come out
    sorted without a sort, and nothing beyond the rows and one class's
    index arrays is allocated: no all-pairs array and no mask.
    """
    sizes = [n // k + (1 if i < n % k else 0) for i in range(k)]
    starts = np.cumsum([0] + sizes).tolist()
    counts = [s * (s - 1) // 2 if within else s * (n - hi)
              for s, hi in zip(sizes, starts[1:])]
    rows = np.empty((sum(counts), 2), dtype=np.int64)
    at = 0
    for lo, hi, count in zip(starts, starts[1:], counts):
        block = rows[at:at + count]
        if within:
            iu, iv = np.triu_indices(hi - lo, 1)
            np.add(iu, lo, out=block[:, 0])
            np.add(iv, lo, out=block[:, 1])
        else:
            block[:, 0] = np.repeat(np.arange(lo, hi), n - hi)
            block[:, 1] = np.tile(np.arange(hi, n), hi - lo)
        at += count
    return ColouredGraph._from_rows(n, rows)


def perturb(seed: ColouredGraph, p: float,
            source: RandomSource) -> ColouredGraph:
    """The union of `seed` with an independent binomial graph G(n, p)
    drawn from `source`, uncoloured."""
    if seed.vertex_set != frozenset(range(seed.n)):
        raise ParameterError("perturbation needs a graph on its full label space")
    return seed.union(gen_gnp(seed.n, p, source).edge_array())


def uniform_colouring(graph: ColouredGraph, palette_size: int,
                      source: RandomSource) -> ColouredGraph:
    """Colour every edge independently and uniformly from the palette.

    Colours are assigned in lexicographic edge order, so the result is a
    pure function of (graph, palette_size, source).
    """
    if palette_size < 1:
        raise ParameterError("palette_size must be >= 1")
    cols = source.generator().integers(0, palette_size, size=graph.size)
    return ColouredGraph._from_rows(graph.n, graph._rows, cols,
                                    palette_size, graph.vertex_set)

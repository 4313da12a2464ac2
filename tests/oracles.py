"""Independent reference implementations used to verify the package.

Everything here is written for clarity over speed and avoids the
package's own derived data where practical, so that construction bugs
cannot hide behind their own bookkeeping.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

import numpy as np
import pytest

from rainbowtrees.absorption import SeedSlice
from rainbowtrees.errors import (ParameterError, PartitionFailure,
                                 StageFailure)
from rainbowtrees.exposure import ExposureError
from rainbowtrees.graphs import ColouredGraph, gen_gnp
from rainbowtrees.rng import RandomSource
from rainbowtrees.trees import Tree, TreeDecomposition, RootSets

Pair = Tuple[int, int]


class NaiveGraph:
    """A graph kept as a frozenset of canonical pairs, a colour dict (or
    None) and a vertex set, with every derived view recomputed from those
    three by definition: the reference for ColouredGraph's row storage."""

    def __init__(self, n, pairs, colours=None, vertex_set=None):
        self.n = n
        self.vertex_set = frozenset(range(n) if vertex_set is None
                                    else vertex_set)
        canon = [(min(u, v), max(u, v)) for u, v in pairs]
        self.edges = frozenset(canon)
        self.colouring = None if colours is None else dict(zip(canon, colours))

    def _keep(self, edges, vertex_set):
        cols = None if self.colouring is None \
            else [self.colouring[e] for e in edges]
        return NaiveGraph(self.n, edges, cols, vertex_set)

    def adjacency(self):
        return {v: tuple(sorted([b for a, b in self.edges if a == v]
                                + [a for a, b in self.edges if b == v]))
                for v in self.vertex_set}

    def subgraph(self, vertices):
        vs = frozenset(vertices)
        return self._keep([e for e in self.edges if set(e) <= vs], vs)

    def without_edges(self, drop):
        gone = {(min(u, v), max(u, v)) for u, v in drop}
        return self._keep([e for e in self.edges if e not in gone],
                          self.vertex_set)

    def union(self, pairs, vertices=()):
        vs = self.vertex_set | frozenset(vertices)
        return NaiveGraph(max([self.n] + [v + 1 for v in vs]),
                          list(self.edges) + list(pairs), None, vs)


def assert_matches_naive(graph: ColouredGraph, ref: NaiveGraph) -> None:
    """Every view and accessor of `graph` agrees with the naive graph."""
    ordered = sorted(ref.edges)
    assert graph.n == ref.n and graph.vertex_set == ref.vertex_set
    assert graph.edges == ref.edges
    assert graph.size == len(ordered)
    assert graph.edge_array().tolist() == [list(e) for e in ordered]
    assert graph.edge_codes().tolist() == [u * ref.n + v for u, v in ordered]
    # the per-vertex accessors, before and after the whole dict is built
    want = ref.adjacency()
    for _ in range(2):
        for v, ns in want.items():
            assert graph.neighbours(v) == ns
            assert graph.degree(v) == len(ns)
        assert graph.adjacency() == want
    outside = [v for v in range(ref.n) if v not in ref.vertex_set][:1]
    for v in outside + [ref.n, ref.n + 7, -1]:
        with pytest.raises(KeyError):
            graph.neighbours(v)
        with pytest.raises(KeyError):
            graph.degree(v)
    if ref.vertex_set:
        degrees = [len(ns) for ns in ref.adjacency().values()]
        assert graph.min_degree() == min(degrees)
        assert graph.max_degree() == max(degrees)
    assert graph.is_coloured == (ref.colouring is not None)
    if ref.colouring is None:
        assert graph.colouring is None
    else:
        assert dict(graph.colouring) == ref.colouring
        assert graph.colour_array().tolist() == [ref.colouring[e]
                                                 for e in ordered]
    for u, v in itertools.combinations(range(ref.n), 2):
        pair = (u, v)
        assert graph.has_edge(v, u) == (pair in ref.edges)
        if ref.colouring is not None and pair in ref.edges:
            assert graph.colour_of(v, u) == ref.colouring[pair]


class ReferenceExposureOracle:
    """The exposure oracle with one dict entry per decided pair: a block
    writes every one of its pairs, and a relabelling moves every entry.
    The reference for ExposureOracle's vertex-set storage of blocks; it
    keeps no ledger, since the two ledgers differ by design."""

    def __init__(self, n: int, palette_size: int, p: float,
                 source: RandomSource):
        self.n = n
        self.palette_size = palette_size
        self.p = p
        self.source = source
        self._presence: Dict[Pair, bool] = {}
        self._colour: Dict[Pair, int] = {}
        self.presence_complete = False

    def _norm(self, pair) -> Pair:
        u, v = int(pair[0]), int(pair[1])
        if u == v:
            raise ParameterError("pair (%d, %d) is a loop" % (u, v))
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ParameterError("pair (%d, %d) outside range(%d)"
                                 % (u, v, self.n))
        return (u, v) if u < v else (v, u)

    def presence_exposed(self, pair) -> bool:
        return self._norm(pair) in self._presence

    def colour_exposed(self, pair) -> bool:
        return self._norm(pair) in self._colour

    def presence_of(self, pair) -> bool:
        key = self._norm(pair)
        if key not in self._presence:
            if self.presence_complete:
                return False
            raise ExposureError("presence of %r consulted before exposure"
                                % (key,))
        return self._presence[key]

    def colour_of(self, pair) -> int:
        key = self._norm(pair)
        if key not in self._colour:
            raise ExposureError("colour of %r consulted before exposure"
                                % (key,))
        return self._colour[key]

    def expose_presence(self, pair, kind: str = "probe", stage: int = 0) -> bool:
        key = self._norm(pair)
        if key in self._presence or self.presence_complete:
            raise ExposureError("pair %r presence exposed twice" % (key,))
        gen = self.source.substream(("edge",) + key).generator()
        value = bool(gen.random() < self.p)
        self._presence[key] = value
        return value

    def expose_colour(self, pair, kind: str = "tint", stage: int = 0) -> int:
        key = self._norm(pair)
        if key in self._colour:
            raise ExposureError("pair %r colour exposed twice" % (key,))
        gen = self.source.substream(("tint",) + key).generator()
        value = int(gen.integers(0, self.palette_size))
        self._colour[key] = value
        return value

    def record_block(self, vertices, included_pairs, colours,
                     stage: int) -> None:
        if self.presence_complete:
            raise ExposureError("cannot register a block after materialization")
        verts = sorted(set(int(v) for v in vertices))
        inc = {}
        for pair, c in zip(included_pairs, colours):
            key = self._norm(pair)
            if key[0] not in verts or key[1] not in verts:
                raise ParameterError("included pair %r leaves the block"
                                     % (key,))
            if key in inc:
                raise ParameterError("included pair %r listed twice" % (key,))
            inc[key] = int(c)
        for u, v in itertools.combinations(verts, 2):
            if (u, v) in self._presence:
                raise ExposureError("block pair %r presence exposed twice"
                                    % ((u, v),))
            self._presence[(u, v)] = (u, v) in inc
        for key, c in inc.items():
            if key in self._colour:
                raise ExposureError("block pair %r colour exposed twice"
                                    % (key,))
            if not 0 <= c < self.palette_size:
                raise ParameterError("colour %d outside the palette" % c)
            self._colour[key] = c

    def materialize_presence(self) -> np.ndarray:
        if not self.presence_complete:
            fresh = gen_gnp(self.n, self.p,
                            self.source.substream("materialize")).edges
            self._presence = {**dict.fromkeys(fresh, True), **self._presence}
            self.presence_complete = True
        return self.presence_edges()

    def presence_edges(self) -> np.ndarray:
        if not self.presence_complete:
            raise ExposureError("presence has not been fully materialized")
        present = sorted(k for k, v in self._presence.items() if v)
        return np.array(present, dtype=np.int64).reshape(-1, 2)

    def apply_permutation(self, perm: List[int]) -> None:
        if (isinstance(perm, dict) or len(perm) != self.n
                or set(perm) != set(range(self.n))):
            raise ParameterError("perm must list a permutation of range(%d)"
                                 % self.n)

        def move(pair: Pair) -> Pair:
            a, b = perm[pair[0]], perm[pair[1]]
            return (a, b) if a < b else (b, a)

        self._presence = {move(k): v for k, v in self._presence.items()}
        self._colour = {move(k): v for k, v in self._colour.items()}


def naive_is_rainbow(graph: ColouredGraph, subset=None) -> bool:
    edges = list(graph.edges) if subset is None else [tuple(sorted(e)) for e in subset]
    cols = [graph.colouring[e] for e in edges]
    for a, b in itertools.combinations(range(len(cols)), 2):
        if cols[a] == cols[b]:
            return False
    return True


def replay_trim(tree: Tree, deleted) -> None:
    """Assert every deleted node was a leaf of the tree current at its turn."""
    alive = set(tree.nodes)
    for v in deleted:
        deg = sum(1 for u in tree.neighbours(v) if u in alive)
        assert deg <= 1, "node %d had degree %d at deletion time" % (v, deg)
        alive.remove(v)


def check_tree(tree: Tree, d=None) -> None:
    assert len(tree.edges) == tree.m - 1
    if d is not None:
        assert tree.max_degree() <= d
    # connectivity by union-find
    parent = {v: v for v in tree.nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in tree.edges:
        ru, rv = find(u), find(v)
        assert ru != rv, "cycle through edge (%d, %d)" % (u, v)
        parent[ru] = rv
    assert len({find(v) for v in tree.nodes}) == 1, "not connected"


def check_decomposition(dec: TreeDecomposition) -> None:
    tree = dec.tree
    hi = dec.xi * dec.n
    lo = hi / dec.d

    covered = set()
    for piece in dec.pieces:
        assert not (piece & covered), "pieces overlap"
        covered |= piece
    assert covered == set(tree.nodes), "pieces miss nodes"

    for i, piece in enumerate(dec.pieces):
        assert len(piece) <= hi + 1e-9, "piece %d too large" % i
        if i >= 1:
            assert len(piece) >= lo - 1e-9, "piece %d too small" % i
        tree.induced_subtree(piece)  # raises unless connected

    connecting_edges = set()
    for i in range(1, dec.s):
        a, b = dec.connecting[i]
        e = (a, b) if a < b else (b, a)
        assert e in tree.edges, "connecting edge %d not a tree edge" % i
        earlier = set().union(*dec.pieces[:i])
        assert a in earlier and b in dec.pieces[i], \
            "connecting edge %d misoriented" % i
        cross = [f for f in tree.edges
                 if (f[0] in earlier and f[1] in dec.pieces[i])
                 or (f[1] in earlier and f[0] in dec.pieces[i])]
        assert len(cross) == 1 and cross[0] == e, \
            "piece %d has %d edges to the earlier union" % (i, len(cross))
        connecting_edges.add(e)

    # every tree edge lies inside one piece or is a connecting edge
    for u, v in tree.edges:
        same = any(u in piece and v in piece for piece in dec.pieces)
        assert same or (u, v) in connecting_edges, \
            "edge (%d, %d) unaccounted for" % (u, v)


def check_root_sets(dec: TreeDecomposition, rs: RootSets) -> None:
    piece_of: Dict[int, int] = {}
    for i, piece in enumerate(dec.pieces):
        for v in piece:
            piece_of[v] = i

    expected = [set() for _ in range(dec.s)]
    for k in range(1, dec.s):
        attach, root = dec.connecting[k]
        expected[piece_of[attach]].add(root)
    assert tuple(frozenset(s) for s in expected) == rs.z_sets

    for i, zs in enumerate(rs.z_sets):
        for j in range(dec.s):
            assert len(zs & dec.pieces[j]) <= 1          # (T.1)
            if j <= i:
                assert not (zs & dec.pieces[j])          # (T.2)
        for x in zs:
            inside = [u for u in dec.tree.neighbours(x) if u in dec.pieces[i]]
            assert len(inside) == 1                      # (T.3)

    for i in range(dec.s):
        aug = rs.augmented_trees[i]
        assert aug.nodes == dec.pieces[i] | rs.z_sets[i]
        assert aug.m <= len(dec.pieces[i]) + dec.s
        check_tree(aug)


def naive_is_eta_r_expander(graph: ColouredGraph, eta: float, r: int,
                            size_cap=None):
    """Slow reference expander check; returns (bool, witness_or_None)."""
    import math

    verts = sorted(graph.vertex_set)
    n = len(verts)
    cap = int(math.floor(eta * n + 1e-9)) if size_cap is None else size_cap
    adj = graph.adjacency()
    for size in range(1, min(cap, n) + 1):
        for combo in itertools.combinations(verts, size):
            gamma = set()
            for x in combo:
                gamma.update(adj[x])
            gamma -= set(combo)
            if len(gamma) < r * size:
                return False, frozenset(combo)
    return True, None


def naive_min_degree_subsets(graph: ColouredGraph, k: float):
    """All nonempty vertex subsets whose induced subgraph has min degree >= k."""
    verts = sorted(graph.vertex_set)
    found = []
    for size in range(1, len(verts) + 1):
        for combo in itertools.combinations(verts, size):
            inside = set(combo)
            ok = True
            for v in combo:
                deg = sum(1 for u in graph.adjacency()[v] if u in inside)
                if deg < k:
                    ok = False
                    break
            if ok:
                found.append(frozenset(combo))
    return found


def reference_peel(graph: ColouredGraph, lo: float, hi: int
                   ) -> Tuple[FrozenSet[int], List[Pair]]:
    """`expanders._peel` on a dict of neighbour sets from the first
    deletion on: delete every vertex of degree below `lo` until none is
    left, then cap each vertex over `hi` (ascending) by shedding its
    highest-index neighbours, and repeat until both hold.  Returns the
    survivors and the capped edges in the order they were cut."""
    adj: Dict[int, Set[int]] = {v: set(ns)
                                for v, ns in graph.adjacency().items()}
    capped: List[Pair] = []
    while True:
        drop = [v for v in adj if len(adj[v]) < lo]
        while drop:
            for v in drop:
                for u in adj.pop(v):
                    adj[u].discard(v)
            drop = [v for v in adj if len(adj[v]) < lo]
        over = [v for v in sorted(adj) if len(adj[v]) > hi]
        if not over:
            return frozenset(adj), capped
        for v in over:
            for u in sorted(adj[v], reverse=True):
                if len(adj[v]) <= hi:
                    break
                adj[v].remove(u)
                adj[u].remove(v)
                capped.append((min(u, v), max(u, v)))


def tree_distances(tree: Tree, x: int) -> Dict[int, int]:
    dist = {x: 0}
    frontier = [x]
    while frontier:
        nxt = []
        for v in frontier:
            for u in tree.neighbours(v):
                if u not in dist:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    return dist


def check_anchor_set(i0, t0: Tree, tree: Tree) -> None:
    """(Q.1) pairwise trimmed-tree distance >= 3; (Q.2) full-tree closure."""
    chosen = list(i0)
    for x in chosen:
        assert all(u in t0.nodes for u in tree.neighbours(x)), \
            "anchor %d has a trimmed neighbour" % x
    for a, b in itertools.combinations(chosen, 2):
        assert tree_distances(t0, a).get(b, 10 ** 9) >= 3, \
            "anchors %d, %d too close" % (a, b)


def reference_build_I0(t0: Tree, tree: Tree, d: int, eps: float
                       ) -> Tuple[int, ...]:
    """The anchor sweep with a full-tree neighbour scan at every node:
    the same anchors, order and failures as `build_I0`."""
    if not t0.nodes <= tree.nodes or not t0.edges <= tree.edges:
        raise ParameterError("t0 must be a subtree of tree")
    n = tree.m
    target = int((n - (d + 1) * eps * n) // (d * d + 1))
    if target <= 0:
        return ()
    chosen: List[int] = []
    blocked = set()
    for x in t0.bfs_order(min(t0.nodes)):
        if x in blocked:
            continue
        if any(u not in t0.nodes for u in tree.neighbours(x)):
            continue
        chosen.append(x)
        ring = {x} | set(t0.neighbours(x))
        ring |= {w for u in t0.neighbours(x) for w in t0.neighbours(u)}
        blocked |= ring
        if len(chosen) == target:
            return tuple(chosen)
    raise StageFailure(
        "anchor sweep found %d of %d nodes; trimming left too little room"
        % (len(chosen), target), "build-I0", found=len(chosen), target=target)


def keep_edges(graph: ColouredGraph, mask) -> ColouredGraph:
    """`graph` on the same vertex set with only the edge_array() rows
    where the boolean `mask` is true, colours kept: a slice as a graph of
    its own."""
    mask = np.asarray(mask, dtype=bool)
    if len(mask) != graph.size:
        raise ParameterError("mask of length %d for %d edges"
                             % (len(mask), graph.size))
    cols = graph.colour_array()[mask] if graph.is_coloured else None
    return ColouredGraph._from_rows(graph.n, graph.edge_array()[mask], cols,
                                    graph.palette_size, graph.vertex_set)


def slice_graph(part: SeedSlice) -> ColouredGraph:
    """The slice graph a SeedSlice stands for: its seed's rows that
    carry its label."""
    return keep_edges(part.seed, part.labels == part.j)


def slice_views(seed: ColouredGraph, labels, d: int) -> Tuple[SeedSlice, ...]:
    """The d SeedSlice views of `labels` over the seed's rows, each with
    the minimum degree of its slice graph."""
    labels = np.asarray(labels, dtype=np.int64)
    return tuple(SeedSlice(seed, labels, j,
                           keep_edges(seed, labels == j).min_degree())
                 for j in range(d))


def label_slices(n: int, edge_lists) -> Tuple[SeedSlice, ...]:
    """Edge-disjoint edge lists on range(n) as SeedSlice views: the seed
    is their union, and a row of it is labelled with the list it came
    from."""
    edge_lists = [list(edges) for edges in edge_lists]
    seed = ColouredGraph(n, [e for edges in edge_lists for e in edges])
    assert seed.size == sum(len({(min(e), max(e)) for e in edges})
                            for edges in edge_lists), "slices share an edge"
    labels = np.zeros(seed.size, dtype=np.int64)
    for j, edges in enumerate(edge_lists):
        labels[seed.find_edges(edges)[0]] = j
    return slice_views(seed, labels, len(edge_lists))


def reference_partition_edge_set(seed: ColouredGraph, removed, d: int,
                                 delta: float, source: RandomSource
                                 ) -> Tuple[ColouredGraph, ...]:
    """The slicing in two steps: the seed minus R built as a graph of its
    own, then its edges labelled and each slice cut from it, with the
    same draws, floors and failures as `partition_edge_set`."""
    if int(d) != d or d < 1:
        raise ParameterError("d must be a positive integer, got %r" % d)
    if not 0.0 < delta < 1.0:
        raise ParameterError("delta must lie in (0, 1), got %r" % delta)
    d = int(d)
    g_minus_r = seed.without_edges(removed)
    n = g_minus_r.n
    floor_pre = 0.9 * delta * n
    if g_minus_r.min_degree() + 1e-9 < floor_pre:
        raise PartitionFailure(
            "minimum degree %d is below the post-removal floor %.2f"
            % (g_minus_r.min_degree(), floor_pre),
            min_degree=g_minus_r.min_degree(), required=floor_pre)
    bound = delta * n / (2.0 * d)
    gen = source.generator()
    for _ in range(50):
        labels = gen.integers(0, d, size=g_minus_r.size)
        parts = []
        for j in range(d):
            part = keep_edges(g_minus_r, labels == j)
            if part.min_degree() + 1e-9 < bound:
                break
            parts.append(part)
        else:
            return tuple(parts)
    raise PartitionFailure(
        "no slicing met the degree floor %.2f in 50 draws" % bound,
        bound=bound, draws=50)


def reference_compute_B(u: int, v: int, part: ColouredGraph, anchors,
                        image_tree: Tree) -> Tuple[int, ...]:
    """The absorber pool B(u, v) by neighbour scans: the anchors adjacent
    to u in `part` whose image-tree neighbours all neighbour v there."""
    if u == v:
        raise ParameterError("pool endpoints must differ, got u = v = %d" % u)
    nu = set(part.neighbours(u))
    nv = set(part.neighbours(v))
    out = [x for x in set(int(a) for a in anchors)
           if x in nu and set(image_tree.neighbours(x)) <= nv]
    return tuple(sorted(out))


def reference_select_fresh_part(parts, u: int, oracle) -> int:
    """The first slice in which no edge at u has a revealed colour, by
    asking the oracle about each of u's neighbours there."""
    for j, h in enumerate(parts):
        if not any(oracle.colour_exposed((u, w)) for w in h.neighbours(u)):
            return j
    raise StageFailure("no fresh slice at vertex %d" % u, "absorption",
                       structural=True, vertex=u)


def reference_match_level(nodes, cand, gen) -> Optional[Dict[int, int]]:
    """A level's matching by networkx's Hopcroft-Karp, on the same draws
    as `embedding._match_level`: nodes in a shuffled order, each with its
    candidates shuffled and added as edges in that order.  None when some
    node stays unmatched."""
    import networkx as nx

    bip = nx.Graph()
    left = [(0, v) for v in nodes]
    bip.add_nodes_from(left)
    order = list(nodes)
    gen.shuffle(order)
    for v in order:
        ws = list(cand[v])
        gen.shuffle(ws)
        for w in ws:
            bip.add_edge((0, v), (1, w))
    matching = nx.bipartite.hopcroft_karp_matching(bip, top_nodes=left)
    placed = {}
    for v in nodes:
        partner = matching.get((0, v))
        if partner is None:
            return None
        placed[v] = partner[1]
    return placed


def check_embedding(host: ColouredGraph, tree: Tree, image: Dict[int, int]) -> None:
    """Injective node map whose edges all exist in the host."""
    assert set(image) == set(tree.nodes), "domain mismatch"
    values = list(image.values())
    assert len(set(values)) == len(values), "not injective"
    hedges = set(host.edges)
    for x, y in tree.edges:
        e = tuple(sorted((image[x], image[y])))
        assert e in hedges, "tree edge (%r, %r) lands outside the host" % (x, y)


def check_almost_spanning_result(res, tree: Tree) -> None:
    """Full validity audit of a successful pipeline run.

    Checks injectivity, edge presence against the exposure oracle,
    isomorphism of the edge map, rainbowness, colour agreement with the
    oracle, reservoir accounting, and that colours were only ever exposed
    for pairs the procedure had a right to look at.
    """
    assert res.success
    image = res.embedding
    assert set(image) == set(tree.nodes)
    assert len(set(image.values())) == tree.m, "not injective"

    oracle = res.oracle
    expected_pairs = set()
    for x, y in tree.edges:
        e = tuple(sorted((image[x], image[y])))
        expected_pairs.add(e)
        assert oracle.presence_of(e), "embedded edge %r is not present" % (e,)
    assert set(res.edge_colours) == expected_pairs, "edge map mismatch"
    assert len(expected_pairs) == tree.m - 1

    colours = list(res.edge_colours.values())
    assert len(set(colours)) == len(colours), "image is not rainbow"
    for e, c in res.edge_colours.items():
        assert oracle.colour_of(e) == c, "colour book differs from oracle at %r" % (e,)

    if res.params is not None:
        reservoir = set(range(res.params.reservoir_size))
        on_tree = set(colours) & reservoir
        assert on_tree == set(res.reservoir_used), "reservoir ledger mismatch"

    # every tree edge was logged: by a single-pair entry naming it, or by a
    # block entry holding both of its ends
    named, blocks = set(), []
    for kind, item, _stage in oracle.ledger:
        if kind == "block":
            blocks.append(frozenset(item))
        elif kind != "permute":
            named.add(item)
    for u, v in res.edge_colours:
        assert (u, v) in named or any(u in b and v in b for b in blocks), \
            "tree edge %r never appears in the ledger" % ((u, v),)


def check_spanning_result(res, tree: Tree, seed: ColouredGraph) -> None:
    """Full validity audit of a successful spanning run.

    The image must be a bijection onto the host vertices, every tree edge
    must land on a host edge (seed or revealed random edge), the colour
    book must be rainbow and agree with the oracle, the absorber ledger
    must line up with the trace, and no absorption colour may have been
    revealed twice.
    """
    assert res.success
    n = seed.n
    image = res.mapping
    assert set(image) == set(tree.nodes)
    assert sorted(image.values()) == list(range(n)), "not a bijection"

    oracle = res.oracle
    expected_pairs = set()
    for x, y in tree.edges:
        e = tuple(sorted((image[x], image[y])))
        expected_pairs.add(e)
        assert e in seed.edges or oracle.presence_of(e), \
            "image edge %r is in neither part of the host" % (e,)
    assert set(res.edge_colours) == expected_pairs, "edge map mismatch"
    assert len(expected_pairs) == n - 1

    colours = list(res.edge_colours.values())
    assert len(set(colours)) == len(colours), "image is not rainbow"
    for e, c in res.edge_colours.items():
        assert oracle.colour_of(e) == c, "colour book differs at %r" % (e,)

    steps = [line for line in res.trace if line.startswith("i=")]
    assert len(steps) == res.r, "one trace step per absorbed vertex"
    assert len(res.used_absorbers) == res.r
    assert len(set(res.used_absorbers)) == res.r, "absorber reused"
    for k, line in enumerate(steps):
        fields = dict(part.split("=", 1) for part in line.split())
        assert fields["i"] == str(k + 1)
        assert int(fields["j*"]) >= 1
        assert int(fields["|B|"]) >= 1
        assert fields["chosen"] != "fail"

    if res.r > 0:
        assert res.perm is not None and sorted(res.perm) == list(range(n))
        assert res.r_max_degree is not None and res.r_max_degree >= 0

    # absorption never looks at the same pair twice
    absorbed_pairs = [pair for kind, pair, _stage in oracle.ledger
                      if kind == "absorb"]
    assert len(absorbed_pairs) == len(set(absorbed_pairs)), \
        "an absorption colour was revealed twice"


def brute_rainbow_spanning_tree_exists(graph: ColouredGraph) -> bool:
    """Exhaustive existence check: try every (n-1)-subset of edges."""
    verts = sorted(graph.vertex_set)
    n = len(verts)
    if n == 1:
        return True
    colouring = graph.colouring
    edges = sorted(colouring)
    for cand in itertools.combinations(edges, n - 1):
        if len({colouring[e] for e in cand}) < n - 1:
            continue
        parent = {v: v for v in verts}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        comps = n
        acyclic = True
        for u, v in cand:
            ru, rv = find(u), find(v)
            if ru == rv:
                acyclic = False
                break
            parent[ru] = rv
            comps -= 1
        if acyclic and comps == 1:
            return True
    return False


def _forest_components(tree_adj: Dict[int, Set[int]], verts) -> Dict[int, int]:
    comp: Dict[int, int] = {}
    label = 0
    for start in verts:
        if start in comp:
            continue
        comp[start] = label
        stack = [start]
        while stack:
            v = stack.pop()
            for w in tree_adj[v]:
                if w not in comp:
                    comp[w] = label
                    stack.append(w)
        label += 1
    return comp


def greedy_rainbow_forest(graph: ColouredGraph) -> Set[Pair]:
    """One scan of the edges in lexicographic order, row by row, keeping
    every edge that joins two components on a colour not used yet."""
    colour_of = graph.colouring
    parent = {v: v for v in graph.vertex_set}
    forest: Set[Pair] = set()
    used: Set[int] = set()

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in sorted(colour_of):
        c = colour_of[e]
        ru, rv = find(e[0]), find(e[1])
        if c in used or ru == rv:
            continue
        parent[ru] = rv
        forest.add(e)
        used.add(c)
    return forest


def reference_rainbow_spanning_tree(graph: ColouredGraph
                                    ) -> Optional[FrozenSet[Pair]]:
    """Matroid-intersection finder with a side DFS per forest edge.

    The greedy forest seeds a breadth-first exchange search over edges:
    an out-edge steps to the forest edge holding its colour, a forest
    edge to every out-edge of its component that crosses the cut its
    removal leaves, found by walking one side.  Sources are out-edges
    joining two forest components, sinks out-edges of a fresh colour.
    The sink test runs when an edge is popped, and every step is plain
    Python on tuples and sets: no chunked greedy scan, no Euler
    intervals, no test at enqueue.
    """
    verts = sorted(graph.vertex_set)
    n = len(verts)
    if n == 1:
        return frozenset()
    adj = graph.adjacency()
    reach = {verts[0]}
    stack = [verts[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w not in reach:
                reach.add(w)
                stack.append(w)
    if len(reach) < n:
        return None

    colour_of = graph.colouring
    all_edges = sorted(colour_of)
    in_tree = greedy_rainbow_forest(graph)
    tree_adj: Dict[int, Set[int]] = {v: set() for v in verts}
    for u, v in in_tree:
        tree_adj[u].add(v)
        tree_adj[v].add(u)
    while len(in_tree) < n - 1:
        colour_used = {colour_of[e]: e for e in in_tree}
        comp = _forest_components(tree_adj, verts)
        sources = [e for e in all_edges
                   if e not in in_tree and comp[e[0]] != comp[e[1]]]
        internal: Dict[int, List[Pair]] = {}
        for e in all_edges:
            if e not in in_tree and comp[e[0]] == comp[e[1]]:
                internal.setdefault(comp[e[0]], []).append(e)
        prev: Dict[Pair, Optional[Pair]] = {e: None for e in sources}
        queue = deque((e, False) for e in sources)
        goal = None
        while queue:
            edge, inside = queue.popleft()
            if not inside:
                c = colour_of[edge]
                if c not in colour_used:
                    goal = edge
                    break
                mate = colour_used[c]
                if mate not in prev:
                    prev[mate] = edge
                    queue.append((mate, True))
                continue
            a, b = edge
            side = {a}
            stack = [a]
            while stack:
                x = stack.pop()
                for y in tree_adj[x]:
                    if (x, y) != (a, b) and y not in side:
                        side.add(y)
                        stack.append(y)
            for e in internal.get(comp[a], ()):
                if e not in prev and (e[0] in side) != (e[1] in side):
                    prev[e] = edge
                    queue.append((e, False))
        if goal is None:
            return None
        node, inside = goal, False
        while node is not None:
            if inside:
                in_tree.discard(node)
                tree_adj[node[0]].discard(node[1])
                tree_adj[node[1]].discard(node[0])
            else:
                in_tree.add(node)
                tree_adj[node[0]].add(node[1])
                tree_adj[node[1]].add(node[0])
            node = prev[node]
            inside = not inside
    return frozenset(in_tree)


def brute_suzuki(graph: ColouredGraph) -> bool:
    """Partition criterion checked over partitions encoded as colourings
    of the vertices by block labels (allowing empty labels, which only
    repeats smaller partitions and cannot change the verdict)."""
    verts = sorted(graph.vertex_set)
    n = len(verts)
    if n <= 1:
        return True
    for labels in itertools.product(range(n), repeat=n):
        blocks = len(set(labels))
        if blocks < 2:
            continue
        owner = dict(zip(verts, labels))
        # crossing edges must carry at least blocks-1 distinct colours
        colours = {c for (u, v), c in graph.colouring.items()
                   if owner[u] != owner[v]}
        if len(colours) < blocks - 1:
            return False
    return True


def _connectivity_at_least(h, threshold: int) -> bool:
    """Whether the networkx graph `h` is `threshold`-vertex-connected.

    Decides the predicate, not the number: the connectivity is at most
    the minimum degree, and it is the smallest local connectivity over
    Even's witness pairs for a minimum-degree vertex v (v against each
    non-neighbour, and each non-adjacent pair of neighbours of v), the
    pairs networkx's node_connectivity uses.  Each flow is cut off once
    it reaches `threshold`.  A single vertex counts as 0-connected.
    """
    import networkx as nx
    from networkx.algorithms.connectivity import (
        build_auxiliary_node_connectivity, local_node_connectivity)
    from networkx.algorithms.flow import build_residual_network

    if threshold <= 0:
        return True
    if len(h) == 1 or not nx.is_connected(h):
        return False
    v, degree = min(h.degree(), key=lambda item: item[1])
    if degree < threshold:
        return False
    if threshold == 1:
        # 1-connected means connected on two or more vertices, both
        # checked above
        return True
    aux = build_auxiliary_node_connectivity(h)
    residual = build_residual_network(aux, "capacity")
    around = set(h[v])
    pairs = [(v, w) for w in h if w != v and w not in around]
    pairs += [(x, y) for x, y in itertools.combinations(sorted(around), 2)
              if y not in h[x]]
    return all(local_node_connectivity(h, x, y, auxiliary=aux,
                                       residual=residual, cutoff=threshold)
               >= threshold for x, y in pairs)


def check_partition_blocks(graph: ColouredGraph, partition, k: int) -> None:
    """Recount the partition contract from scratch: cover, disjointness,
    size floor, and block connectivity via networkx flows."""
    import math

    import networkx as nx

    n = graph.order
    seen = set()
    for block in partition.blocks:
        assert block and not (block & seen)
        seen |= block
    assert seen == graph.vertex_set
    threshold = math.ceil(k * k / (16.0 * n))
    for block in partition.blocks:
        assert len(block) >= k / 8.0
        h = nx.Graph()
        h.add_nodes_from(sorted(block))
        h.add_edges_from((u, v) for u, v in graph.edges
                         if u in block and v in block)
        assert _connectivity_at_least(h, threshold), (sorted(block), threshold)

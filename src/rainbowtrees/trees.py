"""Bounded-degree trees: generation, leaf trimming, decomposition, anchors.

Trees carry their own degree bound and arbitrary integer labels, so a
subtree of a tree keeps its parent's labels.  The decomposition splits a
tree into an ordered run of subtrees, each (after the first) hanging off
the union of the earlier ones by exactly one edge; the anchor set I0 is a
spread-out set of nodes used later to absorb leftover vertices.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .errors import ParameterError, StageFailure
from .graphs import Edge, canonical_edge
from .rng import RandomSource


class Tree:
    """An immutable tree with a maximum-degree bound.

    Invariants (checked on construction): connected, exactly m - 1 edges,
    every node degree <= d.
    """

    __slots__ = ("nodes", "edges", "d", "_adj")

    def __init__(self, nodes: Iterable[int], edges: Iterable[Edge], d: int):
        self.nodes = frozenset(int(v) for v in nodes)
        self.edges = frozenset(canonical_edge(u, v) for u, v in edges)
        self.d = int(d)
        if not self.nodes:
            raise ParameterError("a tree needs at least one node")
        if self.d < 1:
            raise ParameterError("degree bound must be >= 1, got %d" % self.d)
        if len(self.edges) != len(self.nodes) - 1:
            raise ParameterError("tree on %d nodes needs %d edges, got %d"
                                 % (len(self.nodes), len(self.nodes) - 1,
                                    len(self.edges)))
        adj: Dict[int, List[int]] = {v: [] for v in self.nodes}
        for u, v in self.edges:
            if u not in adj or v not in adj:
                raise ParameterError("edge (%d, %d) uses a missing node" % (u, v))
            adj[u].append(v)
            adj[v].append(u)
        self._adj = {v: tuple(sorted(ns)) for v, ns in adj.items()}
        for v, ns in self._adj.items():
            if len(ns) > self.d:
                raise ParameterError("node %d has degree %d > bound %d"
                                     % (v, len(ns), self.d))
        # connectivity: BFS must reach every node
        if len(self.parent_map(min(self.nodes))) != len(self.nodes):
            raise ParameterError("edge set is not connected")

    # -- structure queries ------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.nodes)

    def neighbours(self, v: int) -> Tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def max_degree(self) -> int:
        return max(len(ns) for ns in self._adj.values())

    def leaves(self) -> List[int]:
        if self.m == 1:
            return list(self.nodes)
        return sorted(v for v in self.nodes if len(self._adj[v]) == 1)

    def bfs_order(self, root: Optional[int] = None) -> List[int]:
        if root is None:
            root = min(self.nodes)
        return list(self.parent_map(root))

    def parent_map(self, root: int) -> Dict[int, Optional[int]]:
        """Parent of every node when rooted at `root` (root maps to None),
        keyed in BFS order."""
        parents: Dict[int, Optional[int]] = {root: None}
        queue = [root]
        at = 0
        while at < len(queue):
            v = queue[at]
            at += 1
            for u in self._adj[v]:
                if u not in parents:
                    parents[u] = v
                    queue.append(u)
        return parents

    def induced_subtree(self, nodes: Iterable[int], d: Optional[int] = None) -> "Tree":
        """The induced subgraph on `nodes`, which must again be a tree."""
        ns = frozenset(int(v) for v in nodes)
        if not ns <= self.nodes:
            raise ParameterError("subtree nodes must belong to the tree")
        es = [e for e in self.edges if e[0] in ns and e[1] in ns]
        return Tree(ns, es, self.d if d is None else d)

    def __eq__(self, other):
        return (isinstance(other, Tree) and self.nodes == other.nodes
                and self.edges == other.edges)

    def __hash__(self):
        return hash((self.nodes, self.edges))

    def __repr__(self):
        return "<Tree m=%d d<=%d>" % (self.m, self.d)


def path_tree(m: int, d: int = 2) -> Tree:
    return Tree(range(m), [(i, i + 1) for i in range(m - 1)], d)


def star_tree(k: int) -> Tree:
    """The star with centre 0 and k leaves."""
    return Tree(range(k + 1), [(0, i) for i in range(1, k + 1)], max(k, 1))


def gen_random_bounded_tree(m: int, d: int, source: RandomSource) -> Tree:
    """A random tree on nodes 0..m-1 with maximum degree at most d.

    Node i attaches to a uniform choice among earlier nodes that still
    have spare degree.  The law is a documented convenience, not a
    contract; only the degree bound and tree-ness are guaranteed.
    """
    if m < 1:
        raise ParameterError("m must be >= 1, got %d" % m)
    if d < 2 and m >= 2:
        raise ParameterError("trees on >= 2 nodes need degree bound >= 2")
    if m == 1:
        return Tree([0], [], max(d, 1))
    gen = source.generator()
    degree = [0] * m
    open_nodes = [0]
    edges = []
    for i in range(1, m):
        j = open_nodes[int(gen.integers(0, len(open_nodes)))]
        edges.append((j, i))
        degree[j] += 1
        degree[i] += 1
        if degree[j] >= d:
            open_nodes.remove(j)
        if degree[i] < d:
            open_nodes.append(i)
        assert open_nodes, "bounded attachment ran out of open nodes"
    return Tree(range(m), edges, d)


# -- leaf trimming ---------------------------------------------------------


@dataclass(frozen=True)
class TrimResult:
    """A trimmed subtree plus the order nodes were deleted in.

    Reversing `deleted` gives the order in which the removed nodes should
    be re-attached later (each was a leaf of the tree current at its
    deletion, so re-adding in reverse always attaches a new leaf).
    """

    t0: Tree
    deleted: Tuple[int, ...]


def trim_to_size(tree: Tree, keep: int, source: RandomSource) -> TrimResult:
    """Shrink `tree` to `keep` nodes by repeatedly deleting a random leaf."""
    if not 1 <= keep <= tree.m:
        raise ParameterError("keep=%d outside [1, %d]" % (keep, tree.m))
    gen = source.generator()
    degree = {v: tree.degree(v) for v in tree.nodes}
    alive = set(tree.nodes)
    leaves = sorted(v for v in alive if degree[v] <= 1)
    deleted = []
    while len(alive) > keep:
        idx = int(gen.integers(0, len(leaves)))
        v = leaves.pop(idx)
        assert degree[v] <= 1, "trimmed node was not a leaf"
        alive.remove(v)
        deleted.append(v)
        for u in tree.neighbours(v):
            if u in alive:
                degree[u] -= 1
                if degree[u] == 1:
                    bisect.insort(leaves, u)
    t0 = tree.induced_subtree(alive)
    return TrimResult(t0=t0, deleted=tuple(deleted))


# -- decomposition ---------------------------------------------------------


@dataclass(frozen=True)
class TreeDecomposition:
    """An ordered split of a tree into one-edge-attached subtrees.

    pieces[0] contains the chosen root; for i >= 1, connecting[i] is the
    unique tree edge (parent, piece_root) with `parent` in an earlier
    piece and `piece_root` in pieces[i].  connecting[0] is None.
    """

    tree: Tree
    d: int
    xi: float
    n: int
    pieces: Tuple[FrozenSet[int], ...]
    connecting: Tuple[Optional[Edge], ...]

    @property
    def s(self) -> int:
        return len(self.pieces)

    def piece_root(self, i: int) -> int:
        """The node through which piece i hangs off the earlier union."""
        if i == 0:
            raise ParameterError("piece 0 has no connecting edge")
        return self.connecting[i][1]


def decompose_tree(tree: Tree, d: int, eps: float, xi: float,
                   n: int) -> TreeDecomposition:
    """Split `tree` into subtrees with sizes controlled by the window
    [xi*n/d, xi*n] (the first piece may be smaller).

    Splitting walks from a leaf root toward the largest live subtree and
    cuts the first subtree of size at most xi*n; the cut order is then
    reversed so every piece attaches to the union of earlier pieces by
    one edge.
    """
    if tree.max_degree() > d:
        raise ParameterError("tree has degree %d > d=%d" % (tree.max_degree(), d))
    if not 0.0 <= eps < 1.0:
        raise ParameterError("eps must lie in [0, 1), got %r" % eps)
    if tree.m > (1.0 - eps) * n + 1e-9:
        raise ParameterError("tree too large: v(T)=%d > (1-eps)n=%.3f"
                             % (tree.m, (1.0 - eps) * n))
    if not 0.0 < xi < 1.0:
        raise ParameterError("xi must lie in (0, 1), got %r" % xi)
    hi = xi * n
    lo = hi / d
    if hi < d:
        raise ParameterError("size window infeasible: xi*n=%.3f < d=%d" % (hi, d))

    leaves = tree.leaves()
    root = leaves[0]
    parent = tree.parent_map(root)
    order = list(parent)

    alive = set(tree.nodes)
    size = {v: 0 for v in tree.nodes}
    for v in reversed(order):
        size[v] = 1 + sum(size[u] for u in tree.neighbours(v) if parent.get(u) == v)

    cut_pieces: List[FrozenSet[int]] = []
    cut_edges: List[Edge] = []
    while len(alive) > hi + 1e-9:
        # descend from the root into the largest live child until the live
        # subtree first fits under the upper window bound
        u = root
        while size[u] > hi + 1e-9:
            best, best_size = None, -1
            for w in tree.neighbours(u):
                if w in alive and parent.get(w) == u and size[w] > best_size:
                    best, best_size = w, size[w]
            assert best is not None, "descent stuck above the window"
            u = best
        assert size[u] >= lo - 1e-9, \
            "cut subtree of %d nodes fell below the window floor %.3f" % (size[u], lo)
        piece = set()
        stack = [u]
        while stack:
            v = stack.pop()
            piece.add(v)
            stack.extend(w for w in tree.neighbours(v)
                         if w in alive and parent.get(w) == v)
        cut_pieces.append(frozenset(piece))
        cut_edges.append((parent[u], u))
        alive -= piece
        drop = len(piece)
        v = parent[u]
        while v is not None:
            size[v] -= drop
            v = parent.get(v)

    pieces = [frozenset(alive)] + list(reversed(cut_pieces))
    connecting: List[Optional[Edge]] = [None] + list(reversed(cut_edges))
    dec = TreeDecomposition(tree=tree, d=d, xi=xi, n=int(n),
                            pieces=tuple(pieces), connecting=tuple(connecting))
    cap = d * int(math.ceil(1.0 / xi - 1e-12)) + 1
    assert dec.s <= cap, "piece count %d exceeds bound %d" % (dec.s, cap)
    return dec


@dataclass(frozen=True)
class RootSets:
    """Anchor nodes of later pieces, grouped by the piece they attach to.

    z_sets[i] holds, for each later piece, the node of that piece whose
    connecting edge lands in piece i.  augmented_trees[i] is the induced
    tree on pieces[i] plus z_sets[i].
    """

    z_sets: Tuple[FrozenSet[int], ...]
    augmented_trees: Tuple[Tree, ...]


def compute_root_sets(dec: TreeDecomposition) -> RootSets:
    """Group each later piece's root under the piece its connecting edge
    lands in.  `decompose_tree` orders the pieces so that each one joins
    the union of the earlier ones by one edge, so an anchor set meets only
    later pieces, each at most once."""
    piece_of = {}
    for i, piece in enumerate(dec.pieces):
        for v in piece:
            piece_of[v] = i
    z: List[set] = [set() for _ in range(dec.s)]
    for k in range(1, dec.s):
        attach, root = dec.connecting[k]
        z[piece_of[attach]].add(root)
    z_sets = tuple(frozenset(s) for s in z)
    # a piece that with its z-set covers the tree augments to the tree
    augmented = tuple(
        dec.tree if len(nodes) == dec.tree.m
        else dec.tree.induced_subtree(nodes)
        for nodes in map(frozenset.union, dec.pieces, z_sets))
    return RootSets(z_sets=z_sets, augmented_trees=augmented)


# -- absorber anchors ------------------------------------------------------


def build_I0(t0: Tree, tree: Tree, d: int, eps: float) -> Tuple[int, ...]:
    """A spread-out anchor set inside the trimmed tree.

    Nodes are chosen greedily in BFS order from the smallest label,
    skipping any node with a full-tree neighbour outside the trimmed tree
    and any node within distance 2 (in the trimmed tree) of an earlier
    choice.  The target size is floor((n - (d+1)*eps*n) / (d^2 + 1)) with
    n the full tree's node count; falling short is a structural failure.
    """
    if not t0.nodes <= tree.nodes or not t0.edges <= tree.edges:
        raise ParameterError("t0 must be a subtree of tree")
    n = tree.m
    target = int((n - (d + 1) * eps * n) // (d * d + 1))
    if target <= 0:
        return ()
    chosen: List[int] = []
    # a node with a full-tree neighbour outside t0 neighbours a trimmed
    # node, so the skipped nodes start out blocked
    blocked = {x for u in tree.nodes - t0.nodes for x in tree.neighbours(u)}
    for x in t0.bfs_order(min(t0.nodes)):
        if x in blocked:
            continue
        chosen.append(x)
        # the sweep never returns to x; block the nodes within distance 2
        near = t0.neighbours(x)
        blocked.update(near)
        for u in near:
            blocked.update(t0.neighbours(u))
        if len(chosen) == target:
            return tuple(chosen)
    raise StageFailure(
        "anchor sweep found %d of %d nodes; trimming left too little room"
        % (len(chosen), target), "build-I0", found=len(chosen), target=target)

"""Rainbow spanning trees through connectivity partitions.

A dense graph splits into vertex blocks whose induced subgraphs are
highly connected relative to the minimum degree; on top of such a
partition, a uniformly coloured perturbed graph almost surely satisfies
the classical partition criterion for rainbow spanning trees (every way
of cutting the vertex set into s parts leaves at least s - 1 distinctly
coloured crossing edges), which is both necessary and sufficient.  This
module carries the partition builder, an exact checker of the criterion
at small orders, and a constructive finder based on matroid
intersection.

The partition builder certifies its own blocks: a block is final only
once the witness-pair test that hunts for small cuts finds none, so
connectivity is computed once, by networkx flows, during the
construction.  `tests/oracles.check_partition_blocks` audits the blocks
without sharing code with this module.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import (Deque, Dict, FrozenSet, Iterable, List, Optional,
                    Sequence, Set, Tuple)

import numpy as np

from .errors import ParameterError
from .graphs import ColouredGraph

Pair = Tuple[int, int]


# ---------------------------------------------------------------------------
# vertex partitions


@dataclass(frozen=True)
class VertexPartition:
    """Disjoint non-empty vertex blocks covering the graph's vertex set."""

    blocks: Tuple[FrozenSet[int], ...]

    def validate(self, vertices: Iterable[int]) -> None:
        want = frozenset(int(v) for v in vertices)
        seen: Set[int] = set()
        for block in self.blocks:
            assert block, "empty block"
            assert not (block & seen), "blocks overlap"
            seen |= block
        assert seen == want, "blocks do not cover the vertex set"

    @property
    def t(self) -> int:
        return len(self.blocks)


def partition_from_lists(parts: Iterable[Iterable[int]]) -> VertexPartition:
    blocks = tuple(sorted((frozenset(int(v) for v in part) for part in parts),
                          key=min))
    return VertexPartition(blocks)


# ---------------------------------------------------------------------------
# the highly connected partition


Adjacency = Dict[int, Tuple[int, ...]]


def _components(adj: Adjacency) -> List[List[int]]:
    comps: List[List[int]] = []
    left = set(adj)
    while left:
        start = min(left)
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        comps.append(sorted(comp))
        left -= comp
    comps.sort(key=lambda c: (len(c), c))
    return comps


def _split_block(graph: ColouredGraph, block: FrozenSet[int],
                 threshold: int) -> Optional[Tuple[FrozenSet[int],
                                                   FrozenSet[int]]]:
    """One splitting step, or None when the block needs no further work.

    A disconnected block sheds its smallest component (ties broken by
    vertex order); a block with a vertex cut below the threshold splits
    into cut-plus-smaller-side against the rest.  Complete and single
    vertex blocks cannot split; they meet the threshold exactly when
    they have more than `threshold` vertices, which the caller checks.

    Cut hunting is Even's witness-pair test, through networkx flows cut
    off at the threshold: a cut of fewer than `threshold` vertices
    misses one of the first `threshold` anchors, which then has a
    non-neighbour across the cut, and the minimum cut for that pair is
    itself below the threshold.  So a None from a block of more than
    `threshold` vertices certifies connectivity at least `threshold`.
    The splitting argument needs some cut below the threshold, not a
    globally minimum one, so the first such pair cut is used.
    """
    if len(block) <= 1:
        return None
    sub = graph.subgraph(block)
    adj = sub.adjacency()
    comps = _components(adj)
    if len(comps) > 1:
        first = frozenset(comps[0])
        return first, block - first
    if all(len(adj[v]) == len(block) - 1 for v in adj):
        return None
    if threshold <= 1:
        return None
    # networkx loads on the first cut search: no trial reaches one
    import networkx as nx
    from networkx.algorithms.connectivity import (
        build_auxiliary_node_connectivity, local_node_connectivity,
        minimum_st_node_cut)
    from networkx.algorithms.flow import build_residual_network

    h = nx.Graph()
    h.add_nodes_from(sorted(block))
    h.add_edges_from(sub.edge_array().tolist())
    aux = build_auxiliary_node_connectivity(h)
    res = build_residual_network(aux, "capacity")
    for a in sorted(block)[:threshold]:
        for u in sorted(block):
            if u == a or sub.has_edge(u, a):
                continue
            k_au = local_node_connectivity(h, a, u, auxiliary=aux,
                                           residual=res, cutoff=threshold)
            if k_au >= threshold:
                continue
            cut = frozenset(minimum_st_node_cut(h, a, u, auxiliary=aux,
                                                residual=res))
            sides = _components(graph.subgraph(block - cut).adjacency())
            small = frozenset(sides[0]) | cut
            return small, block - small
    return None


def highly_connected_partition(graph: ColouredGraph, k: int
                               ) -> VertexPartition:
    """Partition the vertices into blocks that induce ceil(k^2/(16n))
    connected subgraphs of at least k/8 vertices each.

    Requires minimum degree at least k > 0.  Blocks with a small vertex
    cut are split along a minimum cut, the cut joining the smaller side,
    until every block clears the threshold.  Each final block is
    certified by `_split_block`'s witness-pair test, given more than
    `threshold` vertices; that order, the cover and the size floor are
    asserted here.  A violation is a bug, not a sample failure, hence
    plain asserts.
    """
    if k <= 0:
        raise ParameterError("k must be positive, got %r" % k)
    if graph.min_degree() < k:
        raise ParameterError("minimum degree %d is below k=%d"
                             % (graph.min_degree(), k))
    n = graph.order
    threshold = int(math.ceil(k * k / (16.0 * n)))
    done: List[FrozenSet[int]] = []
    todo: List[FrozenSet[int]] = [frozenset(graph.vertex_set)]
    while todo:
        block = todo.pop()
        split = _split_block(graph, block, threshold)
        if split is None:
            done.append(block)
        else:
            todo.extend(split)

    partition = partition_from_lists(done)
    partition.validate(graph.vertex_set)
    for block in partition.blocks:
        assert len(block) >= k / 8.0, \
            "block of %d vertices is below the size floor %.2f" \
            % (len(block), k / 8.0)
        assert len(block) > threshold, \
            "block of %d vertices cannot be %d-connected" \
            % (len(block), threshold)
    return partition


# ---------------------------------------------------------------------------
# the partition criterion


def _growth_strings(n: int):
    """All restricted growth strings of length n (one per set partition)."""
    code = [0] * n
    maxes = [0] * n
    while True:
        yield code
        i = n - 1
        while i > 0 and code[i] == maxes[i - 1] + 1:
            i -= 1
        if i == 0:
            return
        code[i] += 1
        maxes[i] = max(maxes[i - 1], code[i])
        for j in range(i + 1, n):
            code[j] = 0
            maxes[j] = maxes[i]


SUZUKI_BUDGET = 12


def suzuki_check(graph: ColouredGraph
                 ) -> Tuple[bool, Optional[VertexPartition]]:
    """Exact partition criterion for rainbow spanning trees.

    True iff every partition of the vertex set into s >= 2 parts sees at
    least s - 1 distinct colours on its crossing edges; on failure the
    second component is a violating partition.  Enumerates all set
    partitions by growth strings, so the order is capped at 12.
    """
    if not graph.is_coloured:
        raise ParameterError("the criterion needs an edge-coloured graph")
    verts = sorted(graph.vertex_set)
    n = len(verts)
    if n > SUZUKI_BUDGET:
        raise ParameterError(
            "exact criterion enumerates set partitions; order %d exceeds "
            "the budget %d" % (n, SUZUKI_BUDGET))
    if n <= 1:
        return True, None
    pos = {v: i for i, v in enumerate(verts)}
    edges = [(pos[u], pos[v], c) for (u, v), c in graph.colouring.items()]
    for code in _growth_strings(n):
        s = max(code) + 1
        if s < 2:
            continue
        colours: Set[int] = set()
        for iu, iv, c in edges:
            if code[iu] != code[iv]:
                colours.add(c)
                if len(colours) >= s - 1:
                    break
        if len(colours) < s - 1:
            blocks: List[List[int]] = [[] for _ in range(s)]
            for i, b in enumerate(code):
                blocks[b].append(verts[i])
            return False, partition_from_lists(blocks)
    return True, None


# ---------------------------------------------------------------------------
# constructive finder (matroid intersection)


# rows in the greedy warm start's first chunk, which is scanned unfiltered;
# each later chunk is as long as all the rows before it
GREEDY_CHUNK = 256


def find_rainbow_spanning_tree(graph: ColouredGraph
                               ) -> Optional[FrozenSet[Pair]]:
    """A rainbow spanning tree of the coloured graph, or None.

    Exact: a tree is returned if and only if one exists.  The edge set
    of a rainbow spanning tree is a largest common independent set of
    the cycle matroid and the one-edge-per-colour partition matroid; a
    greedy rainbow forest seeds the search and exchange augmentation
    grows it, one shortest alternating path at a time, until it spans
    or provably cannot.

    The greedy pass keeps, in row order, every row joining two forest
    components on a colour not used yet.  Refusal is monotone: the
    components only merge and the used colours only grow, so a row
    refused at some point of the scan is refused again at its turn.
    The rows are therefore scanned in chunks of doubling length, and at
    the start of each chunk after the first, one vectorised test drops
    every row whose ends already share a root or whose colour is
    already used; the Python loop visits only the rows that survive,
    and the scan stops once the forest spans.  A host with at most
    GREEDY_CHUNK rows is one unfiltered chunk, with no array work in
    the greedy pass.  The roots for a chunk's test come from pointer
    jumping in numpy, and `parent` is then reset to them: the partition
    is the same, so the pass keeps the same rows.

    The endpoints are read as two contiguous columns, `us` and `vs`,
    taken once per call; the chunk test, the connectivity pass and
    `_augment` gather through them, never through the (m, 2) rows.
    Cost: O(m) vectorised work over O(log m) chunks; per chunk, at most
    O(log n) pointer-jumping passes of O(n) vectorised work each; Python
    time for the first chunk and the survivors; then one `_augment` per
    edge the greedy forest is short of spanning.
    """
    if not graph.is_coloured:
        raise ParameterError("a rainbow tree needs an edge-coloured graph")
    verts = sorted(graph.vertex_set)
    n = len(verts)
    if n == 0:
        raise ParameterError("spanning tree of an empty graph")
    if n == 1:
        return frozenset()
    if graph.palette_size < n - 1:
        # a rainbow spanning tree needs n - 1 distinct colours
        return None

    rows = graph.edge_array()
    # the endpoint columns, contiguous: every gather below is 1-D
    us, vs = np.ascontiguousarray(rows.T)
    colours = graph.colour_array()
    m = len(rows)
    in_tree = np.zeros(m, dtype=bool)
    colour_used: Dict[int, int] = {}
    parent = list(range(graph.n))

    # greedy warm start, chunk by chunk: [lo, hi) is the current chunk,
    # `picks` its rows that can still be kept
    lo, hi = 0, min(m, GREEDY_CHUNK)
    picks = range(hi)
    heads, tails, tints = us[:hi].tolist(), vs[:hi].tolist(), \
        colours[:hi].tolist()
    while True:
        for i, u, v, c in zip(picks, heads, tails, tints):
            if c in colour_used:
                continue
            ru, rv = _root(parent, u), _root(parent, v)
            if ru == rv:
                continue
            parent[ru] = rv
            in_tree[i] = True
            colour_used[c] = i
        if hi == m or len(colour_used) == n - 1:
            break
        lo, hi = hi, min(m, 2 * hi)
        root = _roots(parent)
        used = np.zeros(graph.palette_size, dtype=bool)
        used[list(colour_used)] = True
        picks = lo + ((root[us[lo:hi]] != root[vs[lo:hi]])
                      & ~used[colours[lo:hi]]).nonzero()[0]
        heads, tails, tints = us[picks].tolist(), vs[picks].tolist(), \
            colours[picks].tolist()
        picks = picks.tolist()

    if len(colour_used) < n - 1:
        # nor in a host with fewer than n - 1 distinct colours
        if np.count_nonzero(np.bincount(colours)) < n - 1:
            return None
        # connected iff the rows join up the n - len(colour_used) greedy
        # components; only rows between two of them can merge any
        root = _roots(parent)
        ru, rv = root[us], root[vs]
        cross = ru != rv
        apart = n - len(colour_used)
        for a, b in zip(ru[cross].tolist(), rv[cross].tolist()):
            a, b = _root(parent, a), _root(parent, b)
            if a != b:
                parent[a] = b
                apart -= 1
        if apart > 1:
            return None

        # a rainbow forest holds one edge per used colour; `holder` maps
        # each colour to its forest edge, -1 when free
        holder = np.full(graph.palette_size, -1, dtype=np.int64)
        holder[list(colour_used)] = list(colour_used.values())
        for _ in range(n - 1 - len(colour_used)):
            if not _augment(us, vs, colours, verts, in_tree, holder):
                return None

    picked = np.flatnonzero(in_tree)
    pairs = rows[picked].tolist()
    _check_rainbow_spanning_tree(verts, pairs, colours[picked].tolist())
    return frozenset(map(tuple, pairs))


def _root(parent, x: int) -> int:
    """Union-find root of x, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _roots(parent: List[int]) -> np.ndarray:
    """Union-find root of every label, as an array, by pointer jumping:
    each pass points every label at its grandparent, until none moves.
    `parent` is then pointed at the roots, which keeps its partition."""
    root = np.array(parent)
    while True:
        up = root[root]
        if np.array_equal(up, root):
            parent[:] = root.tolist()
            return root
        root = up


def _check_rainbow_spanning_tree(verts: Sequence[int], pairs: List[List[int]],
                                 tints: List[int]) -> None:
    """Audit the picked rows of the graph on the sorted, non-empty
    vertices `verts`, with their colours: n - 1 rows, on distinct
    colours, closing no cycle, hence a rainbow spanning tree."""
    n = len(verts)
    assert len(pairs) == n - 1, "tree has %d edges, not %d" % (len(pairs), n - 1)
    assert len(set(tints)) == n - 1, "tree repeats a colour"
    parent = list(range(verts[-1] + 1))
    for u, v in pairs:
        ru, rv = _root(parent, u), _root(parent, v)
        assert ru != rv, "tree edges close a cycle"
        parent[ru] = rv


def _euler_forest(heads: List[int], tails: List[int], verts: Sequence[int],
                  labels: int
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[int]]:
    """Component, Euler interval [tin, tout) and parent of every vertex
    of the forest with edges (heads[i], tails[i]), from one iterative
    DFS; labels outside `verts` get component -1."""
    nbrs: List[List[int]] = [[] for _ in range(labels)]
    for u, v in zip(heads, tails):
        nbrs[u].append(v)
        nbrs[v].append(u)
    comp = [-1] * labels
    up = [-1] * labels
    order: List[int] = []
    for label, start in enumerate(v for v in verts if comp[v] < 0):
        comp[start] = label
        stack = [start]
        while stack:
            x = stack.pop()
            order.append(x)
            for y in nbrs[x]:
                if y != up[x]:
                    up[y] = x
                    comp[y] = label
                    stack.append(y)
    # a stack DFS visits every subtree contiguously, so a vertex's
    # interval is its visit index plus its subtree size
    tin = np.zeros(labels, dtype=np.int64)
    tin[order] = np.arange(len(order))
    size = [1] * labels
    for x in reversed(order):
        if up[x] >= 0:
            size[up[x]] += size[x]
    return np.array(comp), tin, tin + np.array(size), up


def _augment(us: np.ndarray, vs: np.ndarray, colours: np.ndarray,
             verts: Sequence[int], in_tree: np.ndarray,
             holder: np.ndarray) -> bool:
    """One exchange augmentation; False means the forest is maximum.

    Nodes of the search are edge indices.  Out-of-forest edges joining
    two forest components are the sources, out-of-forest edges of an
    unused colour (`holder[colour] < 0`; `holder` maps each used colour
    to its forest edge) the sinks.  From an out-edge the walk may step
    to the forest edge holding its colour; from a forest edge (a, b) to
    any out-edge of its component that reconnects the two sides its
    removal leaves behind.  Breadth-first order keeps the path
    shortest, which is what makes the exchange valid in both matroids
    at once.

    One DFS of the forest gives every vertex an Euler interval
    [tin, tout).  With c the endpoint of (a, b) whose parent is the
    other, the side cut off is the subtree of c, so an out-edge crosses
    exactly when one endpoint has its tin in [tin[c], tout[c]).  The
    test runs over all rows at once, in row order, so the search
    enqueues edges in the order of the sorted rows.  Besides out-edges
    of c's component, only (a, b) itself and sources touching the
    subtree can cross; both are reached already, so the `prev` filter
    that drops reached edges leaves exactly the component's new
    crossing out-edges.

    The queue is FIFO, so the first sink popped is the first sink
    enqueued.  The sink test therefore runs when edges are enqueued,
    vectorised over the sources and then over each batch a forest edge
    enqueues, and the search stops at the first hit: the same `prev`
    chain and the same path as testing on pop, without popping and
    masking for everything queued ahead of the sink.

    Cost: O(n) Python for the DFS; O(m) vectorised to find the sources
    and to gather every row's endpoint tins, all through the endpoint
    columns `us` and `vs` (1-D gathers, no (m, 2) row gather); and, per
    popped forest edge, one vectorised test over the rows:
    O(n + m x (1 + popped forest edges)), where only the forest edges
    dequeued before the first sink is enqueued count.  In the hosts
    measured the search enters one component holding nearly every
    out-edge, so cutting out a component's out-edges first would cost
    more than it saves.
    """
    tree = np.flatnonzero(in_tree)
    comp, tin, tout, up = _euler_forest(us[tree].tolist(), vs[tree].tolist(),
                                        verts, verts[-1] + 1)
    # a forest edge lies inside its component, so every joining row is out
    sources = (comp[us] != comp[vs]).nonzero()[0]
    if not len(sources):
        return False
    tu, tv = tin[us], tin[vs]

    UNSEEN = -2
    prev = np.full(len(us), UNSEEN, dtype=np.int64)
    prev[sources] = -1
    goal = _first_sink(sources, colours, holder)
    queue: Deque[int] = deque(sources.tolist() if goal < 0 else ())
    while queue:
        edge = queue.popleft()
        if not in_tree[edge]:
            # an enqueued out-edge is no sink: its colour has a holder
            mate = int(holder[colours[edge]])
            if prev[mate] == UNSEEN:
                prev[mate] = edge
                queue.append(mate)
            continue
        a, b = int(us[edge]), int(vs[edge])
        c = a if up[a] == b else b
        lo, hi = tin[c], tout[c]
        found = (((tu >= lo) & (tu < hi))
                 != ((tv >= lo) & (tv < hi))).nonzero()[0]
        found = found[prev[found] == UNSEEN]
        prev[found] = edge
        goal = _first_sink(found, colours, holder)
        if goal >= 0:
            break
        queue.extend(found.tolist())
    if goal < 0:
        return False

    # flip along the path: out-edges enter the forest and take over the
    # colours, forest edges leave
    node = goal
    while node >= 0:
        in_tree[node] = not in_tree[node]
        if in_tree[node]:
            holder[colours[node]] = node
        node = int(prev[node])
    return True


def _first_sink(batch: np.ndarray, colours: np.ndarray,
                holder: np.ndarray) -> int:
    """The first edge of `batch` whose colour is free, or -1."""
    free = (holder[colours[batch]] < 0).nonzero()[0]
    return int(batch[free[0]]) if len(free) else -1

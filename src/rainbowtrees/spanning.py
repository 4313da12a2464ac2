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
from dataclasses import dataclass
from typing import (Dict, FrozenSet, Iterable, List, Optional, Sequence, Set,
                    Tuple)

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

    verts = sorted(block)
    h = nx.Graph()
    h.add_nodes_from(verts)
    h.add_edges_from(sub.edge_array().tolist())
    aux = build_auxiliary_node_connectivity(h)
    res = build_residual_network(aux, "capacity")
    for a in verts[:threshold]:
        for u in verts:
            if u == a or u in adj[a]:
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
    edges = [(pos[u], pos[v], c) for (u, v), c in
             zip(graph.edge_array().tolist(), graph.colour_array().tolist())]
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
# each later chunk is as long as all the rows before it, and its survivors
# are visited this many at a time
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
    The rows are therefore scanned in chunks of doubling length; at the
    start of each chunk after the first, one vectorised test drops every
    row whose ends share a component or whose colour is used.  The
    Python loop visits the survivors GREEDY_CHUNK at a time, and after
    each block that kept a row the test runs again over the survivors
    still ahead, so that it does not go stale inside a long chunk.
    Components are kept as labels (`_join`), which the test reads as
    they are.  If the forest falls short of spanning, the rows between
    its components decide whether the host is connected; they are also
    the only possible sources of the exchange search, and `_Forest`
    keeps them across the augmentations.  Cost, with every test
    gathering through the endpoint columns `us` and `vs`: O(m)
    vectorised work over O(log m) chunks; Python time for the first
    chunk, the survivors and the O(n log n) relabelling; one O(m) pass
    for the rows between components; one `_augment` per edge the greedy
    forest is short of spanning.
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
    # the used colours, and the forest row holding each colour (-1 if none)
    used: Set[int] = set()
    holder = np.full(graph.palette_size, -1, dtype=np.int64)
    # the forest's component of every label, and each component's labels
    label = list(range(graph.n))
    members = [[x] for x in label]

    def open_rows(at) -> np.ndarray:
        # rows `at` (slice or indices) that join components on a free colour
        comp = np.array(label)
        keep = ((comp[us[at]] != comp[vs[at]])
                & (holder[colours[at]] < 0)).nonzero()[0]
        return keep + at.start if isinstance(at, slice) else at[keep]

    # greedy warm start: `picks`, the rows up to `hi` that can still be kept
    hi = min(m, GREEDY_CHUNK)
    picks = np.arange(hi)
    while True:
        while len(picks):
            block, picks = picks[:GREEDY_CHUNK], picks[GREEDY_CHUNK:]
            kept = len(used)
            for i, u, v, c in zip(block.tolist(), us[block].tolist(),
                                  vs[block].tolist(), colours[block].tolist()):
                if c in used or label[u] == label[v]:
                    continue
                _join(label, members, label[u], label[v])
                in_tree[i] = True
                used.add(c)
                holder[c] = i
            if len(used) == n - 1:
                break
            if len(used) > kept and len(picks):
                picks = open_rows(picks)
        if hi == m or len(used) == n - 1:
            break
        picks = open_rows(slice(hi, min(m, 2 * hi)))
        hi = min(m, 2 * hi)

    if len(used) < n - 1:
        # nor in a host with fewer than n - 1 distinct colours
        if np.count_nonzero(np.bincount(colours)) < n - 1:
            return None
        # connected iff the rows join up the greedy components; only rows
        # between two of them can merge any
        comp = np.array(label)
        cross = (comp[us] != comp[vs]).nonzero()[0]
        for u, v in zip(us[cross].tolist(), vs[cross].tolist()):
            if label[u] != label[v]:
                _join(label, members, label[u], label[v])
        if len(members[label[verts[0]]]) < n:
            return None
        forest = _Forest(us, vs, colours, in_tree, holder, comp, cross)
        for _ in range(n - 1 - len(used)):
            if not _augment(forest):
                return None

    picked = np.flatnonzero(in_tree)
    pairs = rows[picked].tolist()
    _check_rainbow_spanning_tree(verts, pairs, colours[picked].tolist())
    return frozenset(map(tuple, pairs))


def _join(label: List[int], members: List[List[int]], a: int, b: int
          ) -> None:
    """Merge components a and b: the smaller one's labels take the other
    one's name, so each label is renamed O(log n) times in all."""
    if len(members[a]) > len(members[b]):
        a, b = b, a
    for x in members[a]:
        label[x] = b
    members[b] += members[a]


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


def _root(parent: List[int], x: int) -> int:
    """Union-find root of x, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


# `prev` of a row the exchange search has not reached
UNSEEN = -2


class _Forest:
    """A rainbow forest of the host's rows, kept across augmentations:
    `in_tree` marks its rows, `holder` maps a used colour to its row (-1
    when free), and per label `nbrs` holds the forest neighbours and
    `comp` a component name.  `cross` holds every row between two
    components, and maybe some that no longer are."""

    def __init__(self, us: np.ndarray, vs: np.ndarray, colours: np.ndarray,
                 in_tree: np.ndarray, holder: np.ndarray, comp: np.ndarray,
                 cross: np.ndarray):
        self.us, self.vs, self.colours = us, vs, colours
        self.in_tree, self.holder, self.comp, self.cross = \
            in_tree, holder, comp, cross
        self.nbrs: List[Set[int]] = [set() for _ in comp]
        tree = np.flatnonzero(in_tree)
        for u, v in zip(us[tree].tolist(), vs[tree].tolist()):
            self.nbrs[u].add(v)
            self.nbrs[v].add(u)

    def cut(self, edge: int, prev: np.ndarray) -> np.ndarray:
        """The rows not reached yet with exactly one end on the smaller
        side of forest row `edge`, in row order, now reached from it."""
        inside = np.zeros(len(self.comp), dtype=bool)
        inside[_smaller_side(self.nbrs, int(self.us[edge]),
                             int(self.vs[edge]))] = True
        found = ((inside[self.us] != inside[self.vs])
                 & (prev == UNSEEN)).nonzero()[0]
        prev[found] = edge
        return found


def _smaller_side(nbrs: List[Set[int]], a: int, b: int) -> List[int]:
    """The labels of the smaller of the two trees a forest falls into
    once its edge (a, b) is removed, a's on a tie.

    Two breadth-first searches, from a and from b, read one neighbour
    entry each in turn.  A side of s labels has 2s - 1 entries, so the
    first search to run dry has the smaller side, after at most twice as
    many reads: a hub on the larger side costs nothing.
    """
    seen = {a, b}
    sides = ([a], [b])
    walks = [iter(nbrs[a]), iter(nbrs[b])]
    at = [0, 0]
    while True:
        for k, side in enumerate(sides):
            y = next(walks[k], None)
            while y is None:
                at[k] += 1
                if at[k] == len(side):
                    return side
                walks[k] = iter(nbrs[side[at[k]]])
                y = next(walks[k], None)
            if y not in seen:
                seen.add(y)
                side.append(y)


def _augment(forest: _Forest) -> bool:
    """One exchange augmentation; False means the forest is maximum.

    Nodes of the search are row indices.  Out-of-forest rows joining two
    components are the sources, out-of-forest rows of an unused colour
    the sinks.  An out-edge steps to the forest edge holding its colour,
    a forest edge (a, b) to the out-edges of its component that cross
    the cut its removal leaves: the unreached rows with exactly one end
    on the side `_smaller_side` returns, in row order (the other rows
    with one end there, (a, b) and sources, are reached already).
    Breadth-first order keeps the path shortest, which is what makes
    the exchange valid in both matroids at once.  The FIFO queue holds
    alternate levels of out-edges and forest edges, so a level of
    out-edges steps to its holders at once, each new holder reached
    from the first out-edge of its colour, as one-by-one pops would.

    The first sink popped is the first enqueued, so the sink test runs
    at enqueue, with the path that testing on pop gives.  The path
    flips, and only the source's two components merge, so the sources
    shrink to the rows of `cross` still between two components.  Cost:
    O(|cross|) for the sources, O(m) to reset `prev`; per forest edge
    popped before the first sink is enqueued, Python time linear in its
    smaller side and one O(m) mask test; O(path + n) for the flip and
    the merge.
    """
    us, vs, colours, holder = forest.us, forest.vs, forest.colours, \
        forest.holder
    comp, cross, nbrs, in_tree = forest.comp, forest.cross, forest.nbrs, \
        forest.in_tree
    forest.cross = level = cross[comp[us[cross]] != comp[vs[cross]]]
    prev = np.full(len(us), UNSEEN, dtype=np.int64)
    prev[level] = -1
    goal = _first_sink(level, colours, holder)
    while goal < 0 and len(level):
        # an enqueued out-edge is no sink: its colour has a holder
        mates = holder[colours[level]]
        first = np.sort(np.unique(mates, return_index=True)[1])
        first = first[prev[mates[first]] == UNSEEN]
        prev[mates[first]] = level[first]
        batches = []
        for edge in mates[first].tolist():
            found = forest.cut(edge, prev)
            goal = _first_sink(found, colours, holder)
            if goal >= 0:
                break
            batches.append(found)
        level = np.concatenate(batches) if batches else first[:0]
    if goal < 0:
        return False

    # flip along the path: out-edges enter the forest and take over the
    # colours, forest edges leave; the last node is the source
    node = goal
    while node >= 0:
        u, v = int(us[node]), int(vs[node])
        in_tree[node] = enter = not in_tree[node]
        if enter:
            holder[colours[node]] = node
            nbrs[u].add(v)
            nbrs[v].add(u)
        else:
            nbrs[u].discard(v)
            nbrs[v].discard(u)
        node = int(prev[node])
    comp[comp == comp[u]] = comp[v]
    return True


def _first_sink(batch: np.ndarray, colours: np.ndarray,
                holder: np.ndarray) -> int:
    """The first row of `batch` whose colour is free, or -1."""
    free = (holder[colours[batch]] < 0).nonzero()[0]
    return int(batch[free[0]]) if len(free) else -1

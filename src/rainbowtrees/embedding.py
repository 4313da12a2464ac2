"""Almost-spanning rainbow tree embedding in a coloured random graph.

The prescribed tree is cut into a bounded number of pieces, a small slice
of the palette is set aside as a reservoir for connecting edges, and the
pieces are embedded one at a time into pairwise-disjoint vertex blocks:
each block is sparsified into a uniform rainbow graph on fresh colours,
trimmed to an effective expander, linked to the already-embedded forest
through reservoir-coloured edges at the piece's root, and the piece is
then placed level by level with one bipartite matching per level.  All
host randomness flows
through an exposure oracle, so audits can confirm the procedure never
consulted an edge or colour before the stage that reveals it.

The oracle is the pipeline's one colour book: an image edge takes the
colour the oracle revealed for it, and the free and fresh reservoir
colours are read off one palette mask of the image's colours.
`_audit_image` (injective placement, every tree edge imaged and present,
one distinct colour per edge) is the one audit of the image, here and at
the end of the spanning pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, islice
from numbers import Real
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (EmbedFailure, InfeasibleParameters, ParameterError,
                     RootEdgeFailure, StageFailure)
from .expanders import (ExpandParams, ell1, ell2, find_effective_expander,
                        sparsify)
from .exposure import ExposureOracle
from .graphs import ColouredGraph, canonical_edge, pair_codes
from .rng import RandomSource
from .trees import Tree, compute_root_sets, decompose_tree

Pair = Tuple[int, int]


# ---------------------------------------------------------------------------
# parameters


@dataclass(frozen=True)
class PipelineParams:
    """Derived constants steering one almost-spanning embedding run.

    `zeta` is the block slack, `beta` the piece-size scale, `rho` the
    reservoir fraction, and `xi` the actual cap ratio handed to the tree
    cutter.  `beta_cap`/`rho_cap` record the values the smallness
    inequalities would demand; overrides may exceed them (recorded in
    `within_caps`) because finite experiments cannot honour asymptotic
    smallness.
    """

    eps: float
    d: int
    n: int
    zeta: float
    beta: float
    rho: float
    xi: float
    s_bound: int
    reservoir_size: int
    beta_cap: float
    rho_cap: float
    within_caps: bool
    m_mode: str = "fixed"
    c_m: float = 3.0

    def block_size(self, piece_order: int) -> int:
        """Host block size for a piece with `piece_order` tree nodes:
        (1 + 3 zeta / 2) times the piece order, the floor the embedding
        argument needs.  The caller checks that the blocks fit
        disjointly.
        """
        return int(math.ceil((1.0 + 1.5 * self.zeta) * piece_order - 1e-9))

    def stage_edge_count(self, index: int, block_order: int) -> int:
        """Edge budget m for the sparsified stage graph (0-based index)."""
        if self.m_mode == "fixed":
            share = self.n / 4.0 if index == 0 else self.eps * self.n / 4.0
            return int(share)
        return int(self.c_m * block_order)

    def balanced_block(self, piece_order: int, p: float, colours_free: int,
                       palette_size: int, min_order: int = 0
                       ) -> Tuple[int, int]:
        """Block size and edge budget balancing density against colours.

        A rainbow stage graph with m edges needs m distinct colours among
        the roughly Binomial(N choose 2, p) present pairs.  Colours land
        uniformly in the whole palette, so the expected usable yield from
        q still-free colours is q(1 - exp(-present/palette)).  Starting
        from the structural floor (1 + 3 zeta / 2) * piece_order, the
        block is widened until c_m * N edges fit under 90% of that
        yield, so the stage keeps average degree about 2 c_m without
        outrunning the palette.  `min_order` lets the caller demand extra
        width (rooted stages need the block big enough that the piece
        root sees a few reservoir-coloured edges).  Returns
        (block size, edge budget).
        """
        q = float(colours_free)
        floor_n = self.block_size(piece_order)
        # a fill ratio around 0.6 keeps the level matchings slack, so do
        # not even consider tighter blocks than that
        start = max(floor_n, int(math.ceil(piece_order / 0.6)), min_order)
        best = (start, 0)
        cap = max(start + 1, min(self.n, 6 * floor_n, 2 * start))
        for N in range(start, cap + 1):
            present = 0.5 * N * (N - 1) * p
            if q <= 0.0:
                break
            yield_mean = q * (1.0 - math.exp(-present / palette_size))
            supply = int(0.9 * min(yield_mean, present))
            want = int(self.c_m * N)
            if supply >= want:
                return N, want
            if supply > best[1]:
                best = (N, supply)
        return best

    def stage_expand_params(self, index: int, C: float) -> ExpandParams:
        r = self.d + 1 if index == 0 else self.d + 2
        eta = min(1.0 / (2 * self.d + 2) if index == 0 else 1.0 / (2 * self.d + 1),
                  1.0 / (r + 2))
        return ExpandParams(theta=self.zeta / 2.0, C=C, eta=eta, r=r)

    def stage_regime(self, index: int, C: float) -> Dict[str, bool]:
        """Truth values of the asymptotic side conditions at this scale."""
        flags = {"c_gt_1": C > 1.0,
                 "c_covers_zeta": C >= 50.0 / self.zeta}
        if C > 1.0:
            flags["c_covers_ell1"] = C >= ell1(self.d + 1, C)
            flags["ell2_ge_ell1"] = (ell2(self.zeta / 2.0, self.d, C)
                                     >= ell1(self.d + 1, C))
        else:
            flags["c_covers_ell1"] = False
            flags["ell2_ge_ell1"] = False
        return flags


def _number(name: str, value):
    """`value`, once known to be a real number and not a bool."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ParameterError("%s must be a number, got %r" % (name, value))
    return value


def derive_parameters(eps: float, d: int, n: int, *,
                      zeta: Optional[float] = None,
                      beta: Optional[float] = None,
                      rho: Optional[float] = None,
                      expander_c_mode: str = "density",
                      m_mode: str = "fixed",
                      c_m: float = 3.0) -> PipelineParams:
    """Fix the constants of one embedding run.

    Without overrides, `zeta` sits at its cap eps/(2(1-eps)) (clamped to
    1/2 to keep the logarithmic terms meaningful), and `beta`, `rho` sit
    at their smallness caps 0.01 zeta eps / (d^4 ln(1/zeta)) and
    0.01 eps.  Overrides are accepted beyond the caps; `within_caps`
    records whether they fit, and a zeta, beta, rho or c_m that is not a
    number, or a c_m <= 0, raises ParameterError.  `expander_c_mode`
    accepts only "density", the one reading of the stage degree scale
    C = m / (2N); it is checked and not stored.

    Raises InfeasibleParameters when the piece-size window collapses at
    this n (the cutter needs xi*n >= d), reporting the minimum workable n.
    """
    if not 0.0 < eps < 1.0:
        raise ParameterError("eps must lie in (0, 1), got %r" % eps)
    if int(d) != d or d < 2:
        raise ParameterError("d must be an integer >= 2, got %r" % d)
    if int(n) != n or n < 1:
        raise ParameterError("n must be a positive integer, got %r" % n)
    if expander_c_mode != "density":
        raise ParameterError("expander_c_mode must be 'density'")
    if m_mode not in ("fixed", "adaptive", "balanced"):
        raise ParameterError("m_mode must be 'fixed', 'adaptive' or 'balanced'")
    if not _number("c_m", c_m) > 0.0:
        raise ParameterError("c_m must be positive, got %r" % (c_m,))
    d = int(d)
    n = int(n)

    zeta_cap = eps / (2.0 * (1.0 - eps))
    if zeta is None:
        zeta = min(zeta_cap, 0.5)
    if not 0.0 < _number("zeta", zeta) <= 0.5:
        raise ParameterError("zeta must lie in (0, 1/2], got %r" % zeta)
    if zeta > zeta_cap + 1e-12:
        raise ParameterError("zeta=%g exceeds its cap %g" % (zeta, zeta_cap))

    beta_cap = 0.01 * zeta * eps / (d ** 4 * math.log(1.0 / zeta))
    if beta is None:
        beta = beta_cap
    if not _number("beta", beta) > 0.0:
        raise ParameterError("beta must be positive, got %r" % beta)

    rho_cap = 0.01 * eps
    if rho is None:
        rho = rho_cap
    if not 0.0 <= _number("rho", rho) < 1.0:
        raise ParameterError("rho must lie in [0, 1), got %r" % rho)

    xi = (1.0 - 1.5 * zeta) * beta
    if not 0.0 < xi < 1.0:
        raise ParameterError("piece cap ratio %g outside (0, 1); "
                             "lower beta or zeta" % xi)
    if xi * n < d:
        need = int(math.ceil(d / xi))
        raise InfeasibleParameters(
            "piece-size window empty at n=%d: xi*n = %.3g < d = %d; "
            "need n >= %d" % (n, xi * n, d, need), minimum_n=need)

    within = (beta <= beta_cap * (1.0 + 1e-9)) and (rho <= rho_cap * (1.0 + 1e-9))
    s_bound = d * int(math.ceil(1.0 / xi - 1e-12)) + 1
    return PipelineParams(eps=eps, d=d, n=n, zeta=zeta, beta=beta, rho=rho,
                          xi=xi, s_bound=s_bound,
                          reservoir_size=int(rho * n),
                          beta_cap=beta_cap, rho_cap=rho_cap,
                          within_caps=within,
                          m_mode=m_mode, c_m=c_m)


# ---------------------------------------------------------------------------
# rooted embedding, level by level


def _left_order(nodes: Sequence[int]) -> List[int]:
    """Positions in `nodes` in the iteration order of the set of (0, v)
    tuples, the order in which networkx's bipartite.sets hands left nodes
    to its Hopcroft-Karp (int tuples hash alike in every process)."""
    at = {v: j for j, v in enumerate(nodes)}
    return [at[v] for _, v in set((0, v) for v in nodes)]


def _match_level(nodes, left, cand, gen) -> Optional[Dict[int, int]]:
    """Assign every node a distinct host from its candidate list.

    `cand[j]` is the candidate list of `nodes[j]` (siblings may share
    one list object), and `left` is `_left_order(nodes)`.  The nodes draw
    in a shuffled order, each a shuffled copy of its candidate list, so
    that a rerun can land on a different maximum matching; a list of
    fewer than two hosts is kept as it is, as its shuffle draws nothing.
    Returns {node: host} in the order of `nodes`, or None when some node
    stays unmatched: its list is empty, or no maximum matching covers it.

    This is Hopcroft and Karp's algorithm.  The right nodes are the host
    labels: `mate_r` maps a matched host to its left index, and a host
    missing from it is free.  In the first phase every left node is free
    at layer 0, so a search can only step to a free host: each node, in
    left order, takes the first free host of its list.  The layered
    phases run only while some node is still free.  Left nodes come in
    networkx's order, so the matching is the one networkx finds on the
    same draws.
    """
    order = list(range(len(nodes)))
    gen.shuffle(order)
    shuffled = list(cand)
    for j in order:
        if len(cand[j]) > 1:
            shuffled[j] = ws = list(cand[j])
            gen.shuffle(ws)
    nbrs = [shuffled[j] for j in left]
    if not all(nbrs):
        return None
    size = len(left)
    mate_l: List[Optional[int]] = [None] * size
    mate_r: Dict[int, int] = {}
    for i, ws in enumerate(nbrs):
        for w in ws:
            if w not in mate_r:
                mate_r[w] = i
                mate_l[i] = w
                break
    inf, dist = size + 2, [0] * (size + 1)
    while None in mate_l:
        # breadth-first layering from the free left nodes; dist[size] is
        # the length of a shortest augmenting path
        queue = [i for i in range(size) if mate_l[i] is None]
        for i in range(size):
            dist[i] = 0 if mate_l[i] is None else inf
        dist[size] = inf
        for i in queue:
            if dist[i] < dist[size]:
                for u in nbrs[i]:
                    j = mate_r.get(u, size)
                    if dist[j] == inf:
                        dist[j] = dist[i] + 1
                        queue.append(j)
        if dist[size] == inf:
            return None
        for i in range(size):
            if mate_l[i] is None:
                _augment_from(i, nbrs, mate_l, mate_r, dist, inf)
    hosts = [0] * size
    for j, w in zip(left, mate_l):
        hosts[j] = w
    return dict(zip(nodes, hosts))


def _augment_from(root, nbrs, mate_l, mate_r, dist, inf) -> None:
    """Depth-first search along the layers `dist` for an augmenting path
    from the free left node `root`, flipped when found.  An explicit
    stack of (node, next neighbour position) replaces the recursion and
    visits the same edges in the same order; a node whose search fails
    leaves the layering (dist = inf)."""
    size = len(mate_l)
    stack = [[root, 0]]
    while stack:
        top = stack[-1]
        i, k = top
        ns = nbrs[i]
        while k < len(ns) and dist[mate_r.get(ns[k], size)] != dist[i] + 1:
            k += 1
        if k == len(ns):
            dist[i] = inf
            stack.pop()
            if stack:
                stack[-1][1] += 1
            continue
        top[1] = k
        j = mate_r.get(ns[k], size)
        if j != size:
            stack.append([j, 0])
            continue
        # a free host: flip every edge of the path on the stack
        for i, k in stack:
            u = nbrs[i][k]
            mate_r[u] = i
            mate_l[i] = u
        return


def _level_plan(parent, demand, root) -> List[tuple]:
    """The tree's BFS levels, root first, as every pass reads them: for
    each level a tuple of its nodes, their `_left_order`, its sibling
    groups as (parent node, demand) pairs, and each node's group index.
    `parent` lists every node after its parent, the root first."""
    depth = {root: 0}
    by_depth: List[List[int]] = [[root]]
    for v, u in islice(parent.items(), 1, None):
        depth[v] = k = depth[u] + 1
        if k == len(by_depth):
            by_depth.append([])
        by_depth[k].append(v)
    plan = []
    for nodes in by_depth:
        group: Dict[Tuple[int, int], int] = {}
        group_of = [group.setdefault((parent[v], demand[v]), len(group))
                    for v in nodes]
        plan.append((nodes, _left_order(nodes), list(group), group_of))
    return plan


def _embed_pass(plan, adj, free_start, pool, gen,
                root_vertex) -> Tuple[Optional[Dict[int, int]], int]:
    """One full attempt at a level-synchronous embedding.

    Places the root, then every deeper level in one bipartite matching
    against the unused neighbourhoods of the parents' images.  A node
    only considers hosts that still have at least as many free
    neighbours as the node has children, so the next level is never
    doomed by an obviously starved choice.  When a level cannot be
    perfectly matched, the previous level's matching is redrawn up to
    4 times before the pass gives up.  `plan` is the tree's
    `_level_plan`, `free_start` holds every host's neighbour count, and
    `pool` the sorted hosts the root may take when `root_vertex` is
    None.  Returns (image or None, nodes placed in the deepest attempt).
    """
    free = dict(free_start)
    if root_vertex is not None:
        r = root_vertex
    else:
        if not pool:
            return None, 0
        r = pool[int(gen.integers(len(pool)))]
    (root,) = plan[0][0]
    image = {root: r}
    used = {r}
    for u in adj[r]:
        free[u] -= 1

    placed_best = 1
    i = 1
    tries_left = [4] * len(plan)
    while i < len(plan):
        nodes, left, groups, group_of = plan[i]
        # one candidate list per sibling group
        lists = [[w for w in adj[image[u]] if w not in used and free[w] >= k]
                 for u, k in groups]
        placed = _match_level(nodes, left, [lists[g] for g in group_of], gen)
        if placed is not None:
            image.update(placed)
            for w in placed.values():
                used.add(w)
                for u in adj[w]:
                    free[u] -= 1
            placed_best = max(placed_best, len(image))
            i += 1
            continue
        # redraw the previous level and try again; the root is never
        # redrawn within a pass, so a failure at level 1 ends the pass
        if i == 1 or tries_left[i] <= 0:
            return None, placed_best
        tries_left[i] -= 1
        i -= 1
        for v in plan[i][0]:
            w = image.pop(v)
            used.discard(w)
            for u in adj[w]:
                free[u] += 1
    return image, placed_best


def embed_rooted_tree(host: ColouredGraph, tree: Tree, root_node: int,
                      root_vertex: Optional[int] = None, *,
                      source: RandomSource) -> Dict[int, int]:
    """Injective tree embedding into `host`, root pinned when given.

    The tree is placed level-synchronously: after the root, each BFS
    level is assigned hosts in one global bipartite matching against the
    unused neighbourhoods of the parents' images, so siblings and
    cousins never lose to each other through unlucky sequential order.
    A level that cannot be perfected triggers a redraw of the previous
    level's matching, and up to 30 full restarts sit on top.  Exhausting
    them is an honest failure, not an error; its message names a budget
    of 60 level matchings per tree level.  Every child is matched among the
    unused neighbours of its parent's image, so a returned image is an
    injective embedding by construction.  What the passes share (the
    level plan, the hosts' neighbour counts, the root's pool) is built
    once per call.
    """
    if root_node not in tree.nodes:
        raise ParameterError("root node %r not in the tree" % (root_node,))
    if tree.m > host.order:
        raise ParameterError("tree order %d exceeds host order %d"
                             % (tree.m, host.order))
    if root_vertex is not None and root_vertex not in host.vertex_set:
        raise ParameterError("root vertex %r outside the host" % (root_vertex,))

    gen = source.generator()
    parent = tree.parent_map(root_node)
    adj = host.adjacency()

    demand = dict.fromkeys(parent, 0)
    for u in islice(parent.values(), 1, None):
        demand[u] += 1
    plan = _level_plan(parent, demand, root_node)
    free = {w: len(ws) for w, ws in adj.items()}
    pool = None if root_vertex is not None else \
        sorted(w for w in adj if free[w] >= demand[root_node])

    best = 0
    for _ in range(30):
        image, reached = _embed_pass(plan, adj, free, pool, gen, root_vertex)
        best = max(best, reached)
        if image is not None:
            return image
    raise EmbedFailure(
        "no embedding within budget %d: best attempt placed %d of %d"
        % (60 * len(plan), best, tree.m), placed=best, total=tree.m)


# ---------------------------------------------------------------------------
# root edges


def select_root_edges(root_vertex: int, host: ColouredGraph,
                      oracle: ExposureOracle,
                      fresh_reservoir: Iterable[int], needed: int,
                      stage: int = 0) -> Tuple[Tuple[Pair, int], ...]:
    """Reveal the pairs from `root_vertex` into the host and keep a rainbow
    set of up to `needed` edges coloured from the fresh reservoir.

    Presence is revealed for every pair; colours only for the present
    ones.  Returns ((pair, colour), ...) sorted by colour: one edge for
    each of the `needed` smallest reservoir colours found, or for all of
    them when fewer turn up.  Such a short pool is not an error here; the
    caller decides whether it can carry the piece.
    """
    if needed < 0:
        raise ParameterError("needed must be >= 0, got %r" % needed)
    if needed == 0:
        return ()
    vertices = sorted(host.vertex_set)
    if root_vertex in vertices:
        raise ParameterError("root vertex %d lies inside the host" % root_vertex)
    reservoir = set(int(c) for c in fresh_reservoir)

    by_colour: Dict[int, Pair] = {}
    for v in vertices:
        pair = canonical_edge(root_vertex, v)
        if oracle.expose_presence(pair, kind="root", stage=stage):
            c = oracle.expose_colour(pair, kind="root", stage=stage)
            if c in reservoir and c not in by_colour:
                by_colour[c] = pair
    return tuple((by_colour[c], c) for c in sorted(by_colour)[:needed])


# ---------------------------------------------------------------------------
# the pipeline


@dataclass(frozen=True)
class AlmostSpanningResult:
    """Outcome of one almost-spanning run.

    `success` distinguishes a completed rainbow embedding from a stage
    failure; in the latter case `stage` names the failing step
    (sparsify / expander / root-edges / embed / available-colours) and
    `embedding` is None.  `edge_colours` maps each embedded host edge to
    its colour.  `hypothesis_met` records whether every connecting step
    found the full quota of reservoir edges its guarantee asks for;
    `regime` holds the per-stage truth values of the asymptotic side
    conditions (recorded, never enforced).
    """

    success: bool
    stage: Optional[str]
    detail: Optional[str]
    trace: Tuple[str, ...]
    embedding: Optional[Dict[int, int]]
    edge_colours: Dict[Pair, int]
    params: Optional[PipelineParams]
    hypothesis_met: bool
    regime: Dict[str, Dict[str, bool]]
    reservoir_used: FrozenSet[int]
    oracle: Optional[ExposureOracle]


def _trace(lines: List[str], stage: str, ok: bool, **counts) -> None:
    body = ",".join("%s=%s" % (k, counts[k]) for k in sorted(counts))
    lines.append("stage=%s status=%s detail=%s"
                 % (stage, "ok" if ok else "fail", body or "-"))


def _audit_image(tree: Tree, placement: Dict[int, int],
                 edge_colours: Dict[Pair, int], oracle: ExposureOracle,
                 host: Optional[ColouredGraph] = None) -> None:
    """The one audit of a rainbow tree image.

    `placement` is injective into range(n), `edge_colours` holds exactly
    the images of the tree's edges on distinct colours, and every image
    edge is an edge of `host` or present in the oracle.  A spanning
    image (`host` given) must also cover range(host.n) and carry the
    colours the oracle revealed for its edges.  The image is checked on
    its `pair_codes`: one lookup in the host's edge codes, one read of
    the oracle's presence for the edges the host lacks, and one read of
    its colours.
    """
    n = oracle.n
    hosts = set(placement.values())
    assert len(placement) == len(hosts) == tree.m, \
        "placement is not injective on the tree"
    assert host is None or hosts == set(range(host.n)), \
        "image misses a host vertex"
    m = tree.m - 1
    ends = np.fromiter(map(placement.__getitem__,
                           chain.from_iterable(tree.edges)),
                       dtype=np.int64, count=2 * m).reshape(m, 2)
    codes, inside = pair_codes(ends[:, 0], ends[:, 1], n)
    assert inside.all(), "placement leaves range(%d)" % n
    a, b = np.fromiter(chain.from_iterable(edge_colours), dtype=np.int64,
                       count=2 * len(edge_colours)).reshape(-1, 2).T
    keys, inside = pair_codes(a, b, n)
    assert len(keys) == m and inside.all() and (a < b).all() \
        and (np.sort(keys) == np.sort(codes)).all(), \
        "edge_colours is not the image's edge set"
    assert len(set(edge_colours.values())) == m, "image is not rainbow"
    missing = np.ones(m, dtype=bool) if host is None else \
        ~host.find_pairs(ends[:, 0], ends[:, 1])[1]
    present = oracle.presence_by_code(codes[missing])
    assert present.all(), "image edge %r is not present" \
        % (tuple(ends[missing][~present][0].tolist()),)
    assert host is None or oracle.colours_by_code(keys) == list(
        edge_colours.values()), "a colour disagrees with the oracle"


def format_trace(trace: Sequence[str]) -> str:
    return "\n".join(trace) + ("\n" if trace else "")


def embed_almost_spanning(n: int, p: float, palette_size: int, tree: Tree,
                          eps: float, d: int, source: RandomSource, *,
                          params: Optional[PipelineParams] = None
                          ) -> AlmostSpanningResult:
    """Embed `tree` into a lazily revealed coloured random graph on [n].

    Orchestrates parameter derivation, tree cutting, block allocation,
    per-stage sparsification, expander extraction, reservoir root edges,
    and rooted embedding.  Returns a result object either way; stage
    failures are legitimate random outcomes, not exceptions.  Precondition
    violations and parameter infeasibility do raise.
    """
    if tree.max_degree() > d:
        raise ParameterError("tree max degree %d exceeds d=%d"
                             % (tree.max_degree(), d))
    if tree.m > (1.0 - eps) * n + 1e-9:
        raise ParameterError("tree order %d exceeds (1-eps)n = %.2f"
                             % (tree.m, (1.0 - eps) * n))
    if palette_size < 1:
        raise ParameterError("palette_size must be >= 1")

    if tree.m == 1:
        # nothing random is consumed; parameters are not even needed
        node = next(iter(tree.nodes))
        oracle = ExposureOracle(n, palette_size, p, source.substream("oracle"))
        return AlmostSpanningResult(
            success=True, stage=None, detail=None,
            trace=("stage=trivial status=ok detail=nodes=1",),
            embedding={node: 0}, edge_colours={}, params=params,
            hypothesis_met=True, regime={}, reservoir_used=frozenset(),
            oracle=oracle)

    if params is None:
        params = derive_parameters(eps, d, n)
    if params.n != n:
        raise ParameterError("params were derived for n=%d, not n=%d"
                             % (params.n, n))

    oracle = ExposureOracle(n, palette_size, p, source.substream("oracle"))
    trace: List[str] = []
    regime: Dict[str, Dict[str, bool]] = {}

    decomposition = decompose_tree(tree, d, eps, params.xi, n=n)
    roots = compute_root_sets(decomposition)
    s = decomposition.s
    _trace(trace, "decompose", True, pieces=s,
           largest=max(len(piece) for piece in decomposition.pieces))

    # disjoint consecutive blocks, one per piece; in balanced mode the
    # block and edge budget are chosen together against the projected
    # colour supply (earlier pieces consume one colour per tree edge); the
    # reservoir is colours 0 .. reservoir_n - 1
    reservoir_n = min(params.reservoir_size, palette_size)
    if params.m_mode == "balanced":
        sizes, budgets = [], []
        q_free = palette_size - reservoir_n
        # rooted pieces need the root to see ~4 reservoir-coloured edges
        rooted_min = 0
        if s > 1 and reservoir_n > 0 and p > 0.0:
            rooted_min = int(math.ceil(4.0 * palette_size
                                       / (p * reservoir_n)))
        for t in roots.augmented_trees:
            n_blk, m_blk = params.balanced_block(
                t.m, p, q_free, palette_size,
                min_order=0 if not sizes else rooted_min)
            sizes.append(n_blk)
            budgets.append(m_blk)
            q_free -= t.m - 1
    else:
        sizes = [params.block_size(t.m) for t in roots.augmented_trees]
        budgets = [params.stage_edge_count(i, size)
                   for i, size in enumerate(sizes)]
    if sum(sizes) > n:
        raise InfeasibleParameters(
            "blocks need %d vertices but only %d exist" % (sum(sizes), n),
            minimum_n=sum(sizes))
    offsets = [0]
    for size in sizes[:-1]:
        offsets.append(offsets[-1] + size)
    blocks = [range(offsets[i], offsets[i] + sizes[i]) for i in range(s)]

    # the oracle is the one colour book: an image edge takes the colour
    # the oracle revealed for it, and `unspent` marks the colours no
    # image edge carries; the free colours are the unspent ones above the
    # reservoir
    unspent = np.ones(palette_size, dtype=bool)
    edge_colours: Dict[Pair, int] = {}
    placement: Dict[int, int] = {}
    hypothesis_met = True
    quota = (d + 2) * (d + 2)

    def reservoir_used() -> FrozenSet[int]:
        return frozenset(np.flatnonzero(~unspent[:reservoir_n]).tolist())

    def failure(stage: str, detail: str, **counts) -> AlmostSpanningResult:
        """Trace the failed step of piece `stage_no` and close the run."""
        step = "available" if stage == "available-colours" else stage
        _trace(trace, "%s-%d" % (step, stage_no), False, **counts)
        return AlmostSpanningResult(
            success=False, stage=stage, detail=detail, trace=tuple(trace),
            embedding=None, edge_colours={}, params=params,
            hypothesis_met=hypothesis_met, regime=regime,
            reservoir_used=reservoir_used(), oracle=oracle)

    for i in range(s):
        stage_no = i + 1
        piece_tree = roots.augmented_trees[i]
        block = blocks[i]

        available = reservoir_n + np.flatnonzero(unspent[reservoir_n:])
        if len(available) < (eps - params.rho) * n - 1e-9:
            return failure("available-colours",
                           "only %d colours available at stage %d"
                           % (len(available), stage_no),
                           available=len(available))

        oracle.assert_vertices_untouched(block)

        m = budgets[i]
        if m < 1:
            return failure("sparsify",
                           "no workable edge budget for a block of %d "
                           "vertices at this density" % len(block), m=m)
        if m > len(available):
            return failure("sparsify",
                           "edge budget m=%d exceeds the %d available colours"
                           % (m, len(available)),
                           m=m, available=len(available))
        sample: dict = {}
        try:
            try:
                stage_graph = sparsify(block, p, palette_size, available, m,
                                       source.substream(("sparsify", i)),
                                       n=n, sample_out=sample)
            finally:
                oracle.record_block(block, sample["pairs"], sample["colours"],
                                    stage_no)
            _trace(trace, "sparsify-%d" % stage_no, True, edges=m,
                   included=len(sample["pairs"]))

            # a graph with m edges on N vertices matches the binomial model
            # of average degree 4C when C = m / (2N)
            C = m / (2.0 * len(block))
            regime["stage-%d" % stage_no] = params.stage_regime(i, C)
            if C <= 1.0:
                return failure("expander",
                               "degree scale C=%.3g is not above 1 at this n"
                               % C, C="%.3g" % C)
            effective = find_effective_expander(
                stage_graph, params.stage_expand_params(i, C), mode="sampled",
                trials=60, source=source.substream(("expander", i)))
            sub = effective.subgraph
            # the peel budget theta = zeta/2 implies this for zeta <= 1/3 only
            assert sub.order >= (1.0 + 0.75 * params.zeta) * piece_tree.m \
                - 1e-9, "effective expander too small for piece %d" % stage_no
            _trace(trace, "expander-%d" % stage_no, True, order=sub.order,
                   deleted=len(effective.deleted))

            host = sub
            if i == 0:
                root_node = min(piece_tree.nodes)
                root_vertex = None
            else:
                root_node = decomposition.piece_root(i)
                root_vertex = placement[root_node]
                pool = select_root_edges(
                    root_vertex, sub, oracle,
                    np.flatnonzero(unspent[:reservoir_n]), quota,
                    stage=stage_no)
                # a short pool can still carry the piece if it covers the
                # root's child count; below that the stage is hopeless
                children = piece_tree.degree(root_node)
                if len(pool) < children:
                    raise RootEdgeFailure(
                        "only %d reservoir-coloured edges at vertex %d, "
                        "needed %d" % (len(pool), root_vertex, quota),
                        found=len(pool), needed=quota, children=children)
                degraded = {}
                if len(pool) < quota:
                    hypothesis_met = False
                    degraded = {"degraded": 1}
                _trace(trace, "root-edges-%d" % stage_no, True,
                       found=len(pool), needed=quota, **degraded)
                # with the full quota this is degrade_attach's graph: its
                # checks hold by select_root_edges' construction
                host = sub.union([pair for pair, _ in pool], [root_vertex])

            mapping = embed_rooted_tree(host, piece_tree, root_node,
                                        root_vertex,
                                        source=source.substream(("embed", i)))
        except StageFailure as exc:
            return failure(exc.stage, str(exc), **exc.detail)

        # a later piece's root keeps the vertex it was pinned to
        placement.update(mapping)
        pairs = [canonical_edge(mapping[x], mapping[y])
                 for x, y in piece_tree.edges]
        colours = oracle.colours_of(pairs)
        edge_colours.update(zip(pairs, colours))
        unspent[colours] = False
        _trace(trace, "embed-%d" % stage_no, True, placed=piece_tree.m)

    _audit_image(tree, placement, edge_colours, oracle)
    return AlmostSpanningResult(
        success=True, stage=None, detail=None, trace=tuple(trace),
        embedding=placement, edge_colours=edge_colours, params=params,
        hypothesis_met=hypothesis_met, regime=regime,
        reservoir_used=reservoir_used(), oracle=oracle)

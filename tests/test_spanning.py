"""Connectivity partitions, the partition criterion, and rainbow spanning
trees: pinned examples plus cross-checks against networkx and brute force."""

import hashlib
import itertools
import random

import pytest

from rainbowtrees import (ColouredGraph, ParameterError, complete_graph,
                          find_rainbow_spanning_tree,
                          highly_connected_partition, partition_from_lists,
                          spawn_trial_source, suzuki_check, uniform_colouring)
from rainbowtrees import spanning
from rainbowtrees.graphs import gen_gnp, gen_seed_graph, perturb
from rainbowtrees.spanning import (GREEDY_CHUNK, SUZUKI_BUDGET, VertexPartition,
                                   _growth_strings)

from oracles import (brute_rainbow_spanning_tree_exists, brute_suzuki,
                     check_partition_blocks, greedy_rainbow_forest,
                     reference_rainbow_spanning_tree)


def two_cliques(m, shared=0):
    """Two K_m blocks overlapping in `shared` vertices."""
    n = 2 * m - shared
    a = range(m)
    b = range(m - shared, n)
    edges = set(itertools.combinations(a, 2))
    edges.update(itertools.combinations(b, 2))
    return ColouredGraph(n, edges)


def random_coloured(rng, n, p, palette):
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2)
             if rng.random() < p]
    col = {e: rng.randrange(palette) for e in edges}
    if not edges:
        return ColouredGraph(n, [])
    return ColouredGraph(n, edges, colouring=col, palette_size=palette)


# ---------------------------------------------------------------------------
# highly connected partition


def test_partition_complete_graph_single_block():
    part = highly_connected_partition(complete_graph(9), 8)
    assert part.t == 1
    assert part.blocks[0] == frozenset(range(9))


def test_partition_two_disjoint_cliques():
    # threshold ceil(16/160) = 1, so the two components are the blocks
    part = highly_connected_partition(two_cliques(5), 4)
    assert [sorted(b) for b in part.blocks] == [list(range(5)),
                                                list(range(5, 10))]


def test_partition_splits_along_a_cut_vertex():
    # two K_35s sharing one vertex: min degree 34, threshold
    # ceil(34^2 / (16 * 69)) = 2, and the shared vertex is a 1-cut
    g = two_cliques(35, shared=1)
    part = highly_connected_partition(g, 34)
    assert sorted(len(b) for b in part.blocks) == [34, 35]
    check_partition_blocks(g, part, 34)


def test_partition_random_dense_graph_passes_audits():
    src = spawn_trial_source(5, 0)
    g = gen_seed_graph(60, 0.4, "random-supergraph", src.substream("seed"))
    k = g.min_degree()
    part = highly_connected_partition(g, k)
    check_partition_blocks(g, part, k)


DENSE_KINDS = ("random-supergraph", "clique-union", "multipartite")


def sweep_graphs():
    """Twelve seeded seed graphs of three kinds, each with k its minimum
    degree."""
    for i in range(12):
        src = spawn_trial_source(300 + i, 0)
        n = 24 + 4 * i
        delta = [0.3, 0.4, 0.5][i % 3]
        g = gen_seed_graph(n, delta, DENSE_KINDS[i % 3], src.substream("seed"))
        yield g, g.min_degree()


def test_partition_seeded_sweep_recounted():
    for g, k in sweep_graphs():
        part = highly_connected_partition(g, k)
        check_partition_blocks(g, part, k)


def test_partition_pinned_blocks():
    # the blocks of acceptance 10's 100 graphs and of the sweep's 12, so a
    # change to the construction shows even where the audits still pass
    acceptance = []
    for t in range(100):
        n = 20 + (t * 61) // 100
        g = gen_seed_graph(n, 0.4, DENSE_KINDS[t % 3],
                           spawn_trial_source(8950, t))
        acceptance.append((g, int(0.4 * n)))
    for graphs, want in ((acceptance, "817dd408785ae71715c706a4279d1741"),
                         (sweep_graphs(), "08d633b49f62e2b198347587f3f8f967")):
        blocks = [[sorted(b) for b in highly_connected_partition(g, k).blocks]
                  for g, k in graphs]
        digest = hashlib.blake2b(repr(blocks).encode(), digest_size=16)
        assert digest.hexdigest() == want


def test_partition_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        highly_connected_partition(complete_graph(5), 0)
    path = ColouredGraph(5, [(i, i + 1) for i in range(4)])
    with pytest.raises(ParameterError):
        highly_connected_partition(path, 3)


def test_vertex_partition_validate():
    part = partition_from_lists([[0, 1], [2]])
    part.validate(range(3))
    with pytest.raises(AssertionError):
        part.validate(range(4))
    overlapping = VertexPartition((frozenset({0, 1}), frozenset({1, 2})))
    with pytest.raises(AssertionError):
        overlapping.validate(range(3))


# ---------------------------------------------------------------------------
# partition criterion


def test_growth_strings_count_matches_bell_numbers():
    bell = [1, 1, 2, 5, 15, 52, 203, 877]
    for n in range(1, 8):
        assert sum(1 for _ in _growth_strings(n)) == bell[n]


def test_criterion_pinned_examples():
    tri = ColouredGraph(3, [(0, 1), (1, 2), (0, 2)],
                        colouring={(0, 1): 0, (1, 2): 1, (0, 2): 2},
                        palette_size=3)
    ok, wit = suzuki_check(tri)
    assert ok and wit is None

    mono = ColouredGraph(3, [(0, 1), (1, 2), (0, 2)],
                         colouring={(0, 1): 0, (1, 2): 0, (0, 2): 0},
                         palette_size=1)
    ok, wit = suzuki_check(mono)
    assert not ok
    assert [sorted(b) for b in wit.blocks] == [[0], [1], [2]]

    disc = ColouredGraph(4, [(0, 1), (2, 3)],
                         colouring={(0, 1): 0, (2, 3): 1}, palette_size=2)
    ok, wit = suzuki_check(disc)
    assert not ok
    # recount the witness: crossing colours fall short of parts - 1
    owner = {v: i for i, b in enumerate(wit.blocks) for v in b}
    crossing = {c for (u, v), c in disc.colouring.items()
                if owner[u] != owner[v]}
    assert len(crossing) < wit.t - 1


def test_criterion_guards():
    with pytest.raises(ParameterError):
        suzuki_check(complete_graph(4))  # uncoloured
    big = uniform_colouring(complete_graph(SUZUKI_BUDGET + 1), 5,
                            spawn_trial_source(1, 0))
    with pytest.raises(ParameterError):
        suzuki_check(big)


def test_criterion_matches_label_enumeration():
    rng = random.Random(77)
    for trial in range(40):
        n = rng.randint(2, 5)
        g = random_coloured(rng, n, 0.7, rng.choice([1, 2, n, 2 * n]))
        if not g.edges:
            continue
        ok, wit = suzuki_check(g)
        assert ok == brute_suzuki(g), g.colouring


# ---------------------------------------------------------------------------
# rainbow spanning tree finder


def check_found_tree(g, tree):
    n = g.order
    assert len(tree) == n - 1
    assert all(e in g.edges for e in tree)
    # connected and acyclic, counted from scratch
    parent = {v: v for v in g.vertex_set}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in sorted(tree):
        ru, rv = find(u), find(v)
        assert ru != rv, "cycle in returned tree"
        parent[ru] = rv
    roots = {find(v) for v in g.vertex_set}
    assert len(roots) == 1, "returned tree does not span"
    cols = [g.colouring[e] for e in tree]
    assert len(set(cols)) == len(cols), "returned tree is not rainbow"


def test_finder_returns_a_rainbow_tree_unchanged():
    edges = [(0, 1), (1, 2), (1, 3), (3, 4)]
    col = {e: i for i, e in enumerate(edges)}
    g = ColouredGraph(5, edges, colouring=col, palette_size=4)
    tree = find_rainbow_spanning_tree(g)
    assert tree == frozenset(edges)


def test_finder_pinned_negatives():
    mono = ColouredGraph(3, [(0, 1), (1, 2), (0, 2)],
                         colouring={(0, 1): 0, (1, 2): 0, (0, 2): 0},
                         palette_size=1)
    assert find_rainbow_spanning_tree(mono) is None
    disc = ColouredGraph(4, [(0, 1), (2, 3)],
                         colouring={(0, 1): 0, (2, 3): 1}, palette_size=2)
    assert find_rainbow_spanning_tree(disc) is None
    single = ColouredGraph(1, [], colouring={}, palette_size=1)
    assert find_rainbow_spanning_tree(single) == frozenset()
    with pytest.raises(ParameterError):
        find_rainbow_spanning_tree(complete_graph(3))


def test_finder_needs_augmentation_past_greedy():
    # scan order tempts the greedy pass into claiming colour 0 on (0, 1),
    # after which only an exchange can free it for the bridge (2, 3)
    edges = [(0, 1), (0, 2), (1, 2), (2, 3)]
    col = {(0, 1): 0, (0, 2): 1, (1, 2): 2, (2, 3): 0}
    g = ColouredGraph(4, edges, colouring=col, palette_size=3)
    tree = find_rainbow_spanning_tree(g)
    assert tree is not None
    check_found_tree(g, tree)
    assert (2, 3) in tree


def small_coloured_instances():
    """The seeded coloured graphs of orders 2..7 the finder is checked on."""
    rng = random.Random(424)
    for trial in range(400):
        n = rng.randint(2, 7)
        p = rng.choice([0.3, 0.5, 0.7, 0.9])
        palette = rng.choice([max(1, n - 2), n - 1, n, 2 * n])
        g = random_coloured(rng, n, p, palette)
        if g.is_coloured:
            yield g


def test_three_way_agreement_small_orders():
    checked = 0
    for g in small_coloured_instances():
        n = g.order
        tree = find_rainbow_spanning_tree(g)
        ok, wit = suzuki_check(g)
        exists = brute_rainbow_spanning_tree_exists(g)
        assert (tree is not None) == ok == exists, (n, g.colouring)
        if tree is not None:
            check_found_tree(g, tree)
        else:
            owner = {v: i for i, b in enumerate(wit.blocks) for v in b}
            crossing = {c for (u, v), c in g.colouring.items()
                        if owner[u] != owner[v]}
            assert len(crossing) < wit.t - 1
        checked += 1
    assert checked > 300


def test_finder_matches_reference_search():
    # the small instances, then perturbed clique-union hosts whose greedy
    # forest is at least two edges short, so that exchange paths run
    # through forest edges
    for g in small_coloured_instances():
        assert find_rainbow_spanning_tree(g) == \
            reference_rainbow_spanning_tree(g), g.colouring
    deep = 0
    for trial in range(200):
        src = spawn_trial_source(4040, trial)
        n = 40 + (trial * 7) % 111
        seed = gen_seed_graph(n, 0.4, "clique-union", src.substream("seed"))
        union = perturb(seed, n ** -1.5, src.substream("perturb"))
        host = uniform_colouring(union, n - 1, src.substream("colour"))
        if n - 1 - len(greedy_rainbow_forest(host)) < 2:
            continue
        assert find_rainbow_spanning_tree(host) == \
            reference_rainbow_spanning_tree(host), (trial, n)
        deep += 1
        if deep == 30:
            break
    assert deep == 30


def test_finder_matches_reference_across_greedy_chunks():
    # hosts of up to five greedy chunks' worth of rows: perturbed
    # clique-union hosts (a few cross edges) and G(n, p) hosts, palettes
    # below, at and above n - 1; the reference scans row by row and
    # tests for the goal when it pops an edge, so the library's chunk
    # filter and goal test at enqueue must give the same tree or None
    shapes = {"tree": 0, "none": 0, "augmented": 0, "5+ chunks": 0}
    for trial in range(120):
        src = spawn_trial_source(5150, trial)
        n = 60 + (trial * 13) % 61
        if trial % 2 == 0:
            seed = gen_seed_graph(n, 0.4, "clique-union",
                                  src.substream("seed"))
            host = perturb(seed, n ** -1.5, src.substream("perturb"))
        else:
            host = gen_gnp(n, (2.5 / n, 0.1, 0.3)[trial % 3],
                           src.substream("gnp"))
        palette = n - 1 + (-1, 0, 0, 1, 3)[trial % 5]
        g = uniform_colouring(host, palette, src.substream("colour"))
        tree = find_rainbow_spanning_tree(g)
        assert tree == reference_rainbow_spanning_tree(g), (trial, n)
        shapes["none" if tree is None else "tree"] += 1
        if tree is not None and len(greedy_rainbow_forest(g)) < n - 1:
            shapes["augmented"] += 1
        if g.size > 8 * GREEDY_CHUNK:
            shapes["5+ chunks"] += 1
    assert min(shapes.values()) >= 20, shapes


def test_finder_augments_only_past_the_full_greedy_forest(monkeypatch):
    # an augmentation from a source with a free colour adds the row the
    # greedy would have kept next, so a warm start cut short still ends
    # in the same tree; only the number of augmentations shows it
    calls = []
    augment = spanning._augment

    def counted(*args):
        calls.append(1)
        return augment(*args)

    monkeypatch.setattr(spanning, "_augment", counted)
    found = short = 0
    for trial in range(40):
        src = spawn_trial_source(6160, trial)
        n = 60 + (trial * 13) % 61
        if trial % 2 == 0:
            seed = gen_seed_graph(n, 0.4, "clique-union",
                                  src.substream("seed"))
            host = perturb(seed, n ** -1.5, src.substream("perturb"))
        else:
            host = gen_gnp(n, 0.15, src.substream("gnp"))
        g = uniform_colouring(host, n - 1 + trial % 3, src.substream("colour"))
        assert g.size > GREEDY_CHUNK, (trial, g.size)
        calls.clear()
        tree = find_rainbow_spanning_tree(g)
        if tree is None:
            continue
        missing = n - 1 - len(greedy_rainbow_forest(g))
        assert len(calls) == missing, (trial, len(calls), missing)
        found += 1
        short += missing > 0
    assert found >= 30 and short >= 20, (found, short)


def test_finder_pinned_tree_at_acceptance_8():
    # trial 0 of acceptance 8's batch (base seed 8800); the digest is of
    # the tree the side-DFS search found
    n = 300
    src = spawn_trial_source(8800, 0)
    seed = gen_seed_graph(n, 0.4, "clique-union", src.substream("seed-graph"))
    union = perturb(seed, n ** -1.5, src.substream("perturb"))
    host = uniform_colouring(union, n - 1, src.substream("colour"))
    tree = find_rainbow_spanning_tree(host)
    digest = hashlib.blake2b(repr(sorted(tree)).encode(), digest_size=16)
    assert digest.hexdigest() == "97df3864720a1abf44992fc82e1607ca"


def test_finder_on_a_vertex_subset():
    # labels 0, 2, 4 and 7 lie outside the vertex set and are no
    # components; the greedy pass stops one edge short of (5, 6)
    edges = [(1, 3), (1, 5), (3, 5), (5, 6)]
    col = {(1, 3): 0, (1, 5): 1, (3, 5): 2, (5, 6): 0}
    g = ColouredGraph(8, edges, colouring=col, palette_size=3,
                      vertex_set={1, 3, 5, 6})
    tree = find_rainbow_spanning_tree(g)
    assert tree is not None and (5, 6) in tree
    check_found_tree(g, tree)
    split = ColouredGraph(8, [(1, 3), (5, 6)],
                          colouring={(1, 3): 0, (5, 6): 1}, palette_size=2,
                          vertex_set={1, 3, 5, 6})
    assert find_rainbow_spanning_tree(split) is None


def test_finder_at_moderate_scale():
    src = spawn_trial_source(901, 0)
    g = gen_seed_graph(80, 0.4, "random-supergraph", src.substream("seed"))
    col = uniform_colouring(g, 79, src.substream("colour"))
    tree = find_rainbow_spanning_tree(col)
    assert tree is not None
    check_found_tree(col, tree)

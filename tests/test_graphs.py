"""Graph core: generators, colourings, perturbation, basic predicates."""

import json
import math
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from rainbowtrees import (ColouredGraph, ParameterError, RandomSource,
                          complete_graph, gen_gnp, gen_seed_graph, perturb,
                          uniform_colouring)
from rainbowtrees.graphs import (SEED_KINDS, _class_graph, find_codes,
                                 seed_plan)

from oracles import NaiveGraph, assert_matches_naive, naive_is_rainbow

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def test_coloured_graph_validation():
    g = ColouredGraph(4, [(0, 1), (2, 1)])
    assert g.order == 4 and g.size == 2
    assert g.has_edge(1, 0) and g.has_edge(1, 2) and not g.has_edge(0, 2)
    with pytest.raises(ParameterError):
        ColouredGraph(3, [(0, 0)])
    with pytest.raises(ParameterError):
        ColouredGraph(3, [(0, 5)])
    with pytest.raises(ParameterError):
        ColouredGraph(3, [(0, 1)], {(0, 1): 3}, palette_size=3)
    with pytest.raises(ParameterError):
        ColouredGraph(3, [(0, 1), (1, 2)], {(0, 1): 0}, palette_size=2)


def test_gnp_trivial_endpoints():
    src = RandomSource(7)
    assert gen_gnp(5, 0.0, src).size == 0
    assert gen_gnp(5, 0.0, src).order == 5
    assert gen_gnp(5, 1.0, src).edges == complete_graph(5).edges


def test_gnp_edge_count_moments():
    # mean of Bin(19900, 1/2) over many trials; the z statistic of the
    # sample mean should sit well inside 3 sigma
    trials = 10 ** 4
    n, p = 200, 0.5
    total = n * (n - 1) // 2
    counts = np.array([gen_gnp(n, p, RandomSource(100, t)).size
                       for t in range(trials)])
    mu = total * p
    sigma = math.sqrt(total * p * (1 - p))
    z = (counts.mean() - mu) / (sigma / math.sqrt(trials))
    assert abs(z) < 3.0, "sample mean z=%.2f" % z


def test_gnp_sparse_path_matches_moments():
    # p < 0.1 exercises the geometric-skipping sampler
    trials = 400
    n, p = 300, 0.02
    total = n * (n - 1) // 2
    counts = np.array([gen_gnp(n, p, RandomSource(3, t)).size
                       for t in range(trials)])
    mu = total * p
    sigma = math.sqrt(total * p * (1 - p))
    z = (counts.mean() - mu) / (sigma / math.sqrt(trials))
    assert abs(z) < 3.5, "sparse sampler mean z=%.2f" % z
    # edges are valid and canonical
    g = gen_gnp(n, p, RandomSource(3, 0))
    for u, v in g.edges:
        assert 0 <= u < v < n


def test_gnp_pair_symmetry():
    # every pair should have the same marginal edge probability
    trials = 4000
    n, p = 6, 0.3
    hits = {}
    for t in range(trials):
        g = gen_gnp(n, p, RandomSource(11, t))
        for e in g.edges:
            hits[e] = hits.get(e, 0) + 1
    sigma = math.sqrt(trials * p * (1 - p))
    for u in range(n):
        for v in range(u + 1, n):
            got = hits.get((u, v), 0)
            assert abs(got - trials * p) < 4.5 * sigma, \
                "pair (%d,%d) hit %d times" % (u, v, got)


def test_gnp_reproducible():
    a = gen_gnp(50, 0.2, RandomSource(42, 5))
    b = gen_gnp(50, 0.2, RandomSource(42, 5))
    c = gen_gnp(50, 0.2, RandomSource(42, 6))
    assert a.edges == b.edges
    assert a.edges != c.edges


def test_gnp_bad_p():
    with pytest.raises(ParameterError):
        gen_gnp(5, -0.1, RandomSource(0))
    with pytest.raises(ParameterError):
        gen_gnp(5, 1.5, RandomSource(0))


def test_seed_graph_complete():
    g = gen_seed_graph(10, 0.5, "complete")
    assert g.edges == complete_graph(10).edges
    assert g.min_degree() == 9


def test_seed_graph_clique_union():
    # the derived clique count is 2: int(1 / 0.3) = 3 cliques would
    # leave degree 2 < ceil(0.3 * 10)
    g = gen_seed_graph(10, 0.3, "clique-union")
    assert g.min_degree() == 4
    assert g.size == 2 * 10  # two K5s
    with pytest.raises(ParameterError):
        gen_seed_graph(10, 0.95, "clique-union")


def test_seed_plan_rejects_exactly_the_seeds_that_cannot_exist():
    # every kind reaches any minimum degree up to n - 1, and none beyond
    for n in range(1, 13):
        for delta in (0.05, 0.3, 0.5, 0.75, 0.9, 0.95):
            need = math.ceil(delta * n - 1e-9)
            for kind in SEED_KINDS:
                if n < 2 or need > n - 1:
                    with pytest.raises(ParameterError):
                        seed_plan(n, delta, kind)
                    continue
                assert seed_plan(n, delta, kind)[0] == need
                g = gen_seed_graph(n, delta, kind, RandomSource(n))
                assert g.min_degree() >= need


def test_seed_graph_multipartite():
    g = gen_seed_graph(10, 0.4, "multipartite")
    assert g.min_degree() >= 4
    # complete bipartite K_{5,5}
    assert g.size == 25


def test_class_graph_matches_the_pair_mask():
    # the reference: every pair of range(n), kept or dropped by whether
    # its ends share a class
    def masked(n, k, within):
        sizes = [n // k + (1 if i < n % k else 0) for i in range(k)]
        label = np.repeat(np.arange(k), sizes)
        rows = np.stack(np.triu_indices(n, 1), axis=1)
        same = label[rows[:, 0]] == label[rows[:, 1]]
        return rows[same == within]

    for n in range(2, 41):
        for k in range(1, 7):
            for within in (True, False):
                g = _class_graph(n, k, within)
                want = masked(n, k, within)
                rows = g.edge_array()
                assert rows.dtype == want.dtype, (n, k, within)
                assert np.array_equal(rows, want), (n, k, within)
                assert g.vertex_set == frozenset(range(n))


def test_seed_graph_random_supergraph():
    g = gen_seed_graph(60, 0.3, "random-supergraph", RandomSource(9))
    assert g.min_degree() >= math.ceil(0.3 * 60)
    h = gen_seed_graph(60, 0.3, "random-supergraph", RandomSource(9))
    assert g.edges == h.edges


def test_fixed_seed_kinds_are_built_once():
    kinds = [k for k in SEED_KINDS if k != "random-supergraph"]
    for kind in kinds:
        g = gen_seed_graph(30, 0.4, kind, RandomSource(1))
        for source in (None, RandomSource(2), RandomSource(1, 9)):
            assert gen_seed_graph(30, 0.4, kind, source) is g
        with pytest.raises(ValueError):
            g._rows[0, 0] = 1
        with pytest.raises(ValueError):
            g.edge_array()[0, 0] = 1
    # another key replaces the held seed; the first key is then rebuilt
    first = gen_seed_graph(30, 0.4, "complete")
    other = gen_seed_graph(31, 0.4, "complete")
    assert other is not first and other.n == 31
    again = gen_seed_graph(30, 0.4, "complete")
    assert again is not first and again.edges == first.edges
    assert gen_seed_graph(30, 0.4, "complete") is again
    for key in [(30, 0.5, "complete"), (30, 0.4, "multipartite")]:
        assert gen_seed_graph(*key) is not again
    # the random kind is drawn per source, and leaves the held seed alone
    held = gen_seed_graph(30, 0.4, "clique-union")
    a = gen_seed_graph(200, 0.3, "random-supergraph", RandomSource(3))
    b = gen_seed_graph(200, 0.3, "random-supergraph", RandomSource(3))
    c = gen_seed_graph(200, 0.3, "random-supergraph", RandomSource(4))
    assert a is not b and a.edges == b.edges and a.edges != c.edges
    assert gen_seed_graph(30, 0.4, "clique-union") is held


def test_seed_errors_are_never_held():
    bad = [(10, 0.95, "clique-union"), (2, 0.6, "complete"),
           (10, 0.4, "path"), (10, 1.0, "complete"), (1, 0.4, "complete"),
           (10, 0.4, "random-supergraph")]
    held = gen_seed_graph(10, 0.4, "complete")
    # a failed build has dropped the held seed and holds nothing
    for args in bad:
        for _ in range(3):
            with pytest.raises(ParameterError):
                gen_seed_graph(*args)
    assert gen_seed_graph(10, 0.4, "complete") is not held


SEED_COUNT_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from rainbowtrees import TrialConfig, graphs, run_trials
calls = []
build = graphs._class_graph
def counted(*args, **kwargs):
    calls.append(args)
    return build(*args, **kwargs)
graphs._class_graph = counted
config = TrialConfig(kind="rainbow-st", n=40, trials=3, base_seed=5)
outcomes = [[r.outcome for r in run_trials(config)] for _ in range(2)]
print(json.dumps({"outcomes": outcomes, "builds": len(calls)}))
"""


def test_trial_batches_build_their_seed_once():
    # a fresh interpreter, so no earlier test holds the seed
    proc = subprocess.run([sys.executable, "-c", SEED_COUNT_PROBE, SRC],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["outcomes"][0] == got["outcomes"][1]
    assert len(got["outcomes"][0]) == 3
    assert got["builds"] == 1


def test_perturb_trivial():
    k4 = complete_graph(4)
    assert gen_gnp(4, 0.0, RandomSource(1)).edges == frozenset()
    assert perturb(k4, 0.0, RandomSource(1)).edges == k4.edges


def test_perturb_union_and_r_recovery():
    # R is the G(n, p) drawn from the same source; the slices of the
    # absorption stage are cut from the seed minus R
    seed = gen_seed_graph(40, 0.3, "clique-union")
    for t in range(25):
        union = perturb(seed, 0.1, RandomSource(21, t))
        r_edges = gen_gnp(seed.n, 0.1, RandomSource(21, t)).edges
        assert union.edges == seed.edges | r_edges
        g_minus = seed.without_edges(r_edges)
        assert g_minus.edges == seed.edges - r_edges


def test_perturb_discards_colouring():
    seed = uniform_colouring(complete_graph(5), 7, RandomSource(2))
    assert not perturb(seed, 0.5, RandomSource(3)).is_coloured


def test_uniform_colouring_trivial():
    g = complete_graph(4)
    c1 = uniform_colouring(g, 1, RandomSource(5))
    assert set(c1.colouring.values()) == {0}
    empty = uniform_colouring(ColouredGraph(3, []), 4, RandomSource(5))
    assert empty.colouring == {}


def test_uniform_colouring_chi_square():
    # per-edge colour frequencies over many trials pass a chi-square test
    from scipy.stats import chi2

    g = complete_graph(4)
    k = 3
    trials = 10 ** 5
    edges = sorted(g.edges)
    counts = {e: [0] * k for e in edges}
    for t in range(trials):
        col = uniform_colouring(g, k, RandomSource(13, t)).colouring
        for e in edges:
            counts[e][col[e]] += 1
    crit = chi2.ppf(0.99, df=k - 1)
    expected = trials / k
    for e in edges:
        stat = sum((c - expected) ** 2 / expected for c in counts[e])
        assert stat < crit, "edge %s chi2=%.2f >= %.2f" % (e, stat, crit)


def test_is_rainbow_examples():
    tri = ColouredGraph(3, [(0, 1), (1, 2), (0, 2)],
                        {(0, 1): 0, (1, 2): 1, (0, 2): 2}, palette_size=3)
    assert tri.is_rainbow()
    rep = ColouredGraph(3, [(0, 1), (1, 2), (0, 2)],
                        {(0, 1): 0, (1, 2): 0, (0, 2): 1}, palette_size=2)
    assert not rep.is_rainbow()
    assert rep.without_edges([(1, 2), (0, 2)]).is_rainbow()
    assert rep.without_edges([(1, 2)]).is_rainbow()
    assert not rep.without_edges([(0, 2)]).is_rainbow()
    with pytest.raises(ParameterError):
        tri.uncoloured().is_rainbow()


def test_is_rainbow_matches_naive():
    for t in range(60):
        g = uniform_colouring(gen_gnp(10, 0.4, RandomSource(31, t)), 12,
                              RandomSource(32, t))
        if not g.edges:
            continue
        assert g.is_rainbow() == naive_is_rainbow(g)
        half = max(1, g.size // 2)
        some = sorted(g.edges)[:half]
        first = g.keep_edges(np.arange(g.size) < half)
        assert sorted(first.edges) == some
        assert first.is_rainbow() == naive_is_rainbow(g, some)


def test_keep_edges_mask_covers_every_row():
    # np.compress would cut a short mask's rows silently
    g = complete_graph(5)
    for length in (g.size - 1, g.size + 1):
        with pytest.raises(ParameterError):
            g.keep_edges(np.ones(length, dtype=bool))


def test_subgraph_keeps_labels():
    g = uniform_colouring(complete_graph(6), 10, RandomSource(8))
    sub = g.subgraph({1, 3, 5})
    assert sub.order == 3
    assert sub.vertex_set == frozenset({1, 3, 5})
    for u, v in sub.edges:
        assert g.colour_of(u, v) == sub.colour_of(u, v)
    iso = g.subgraph({2})
    assert iso.order == 1 and iso.size == 0


@pytest.mark.parametrize("on_subset", [False, True], ids=["all", "subset"])
@pytest.mark.parametrize("coloured", [False, True], ids=["plain", "coloured"])
@pytest.mark.parametrize("kind", ("gnp-sparse", "gnp-dense") + SEED_KINDS)
def test_core_matches_naive_graph(kind, coloured, on_subset):
    n = 24
    if kind == "gnp-sparse":
        g = gen_gnp(n, 0.08, RandomSource(61))
    elif kind == "gnp-dense":
        g = gen_gnp(n, 0.6, RandomSource(61))
    else:
        # a fresh graph on the seed's rows: the process-wide seed may
        # carry views an earlier test built
        g = gen_seed_graph(n, 0.4, kind, RandomSource(62)).uncoloured()
    if coloured:
        g = uniform_colouring(g, 5, RandomSource(63))
    ref = NaiveGraph(n, g.edge_array().tolist(),
                     g.colour_array().tolist() if coloured else None)
    gen = np.random.default_rng(64)
    if on_subset:
        vs = gen.choice(n, size=n // 2, replace=False).tolist()
        g, ref = g.subgraph(vs), ref.subgraph(vs)
    assert_matches_naive(g, ref)
    assert_matches_naive(pickle.loads(pickle.dumps(g)), ref)

    # the checked constructor, fed reversed pairs in shuffled order
    pairs = [(v, u) for u, v in ref.edges]
    gen.shuffle(pairs)
    colouring = None if not coloured \
        else {(v, u): ref.colouring[(u, v)] for u, v in ref.edges}
    assert_matches_naive(ColouredGraph(n, pairs, colouring, 5 if coloured else 0,
                                       ref.vertex_set), ref)

    verts = sorted(ref.vertex_set)
    inner = gen.choice(verts, size=len(verts) // 2, replace=False).tolist()
    assert_matches_naive(g.subgraph(inner), ref.subgraph(inner))

    others = [(int(a), int(b)) for a, b in gen.integers(0, n, size=(12, 2))
              if a != b]
    drop = sorted(ref.edges)[::3] + others + [(n + 5, 0)]
    assert_matches_naive(g.without_edges(drop), ref.without_edges(drop))

    extra = [(b, a) for a, b in others if a in ref.vertex_set
             and b in ref.vertex_set] + [(n, verts[0]), (verts[-1], n)]
    assert_matches_naive(g.union(extra, [n]), ref.union(extra, [n]))

    # rows cut from the front, the middle and the back come back in
    # place, with duplicates of kept rows and of each other, at the same
    # label space and at a grown one
    ordered = sorted(ref.edges)
    cut = [ordered[0], ordered[len(ordered) // 2], ordered[-1]]
    thin, thin_ref = g.without_edges(cut), ref.without_edges(cut)
    back = [cut[2], cut[0][::-1], cut[1], cut[0]] + ordered[1:3]
    assert_matches_naive(thin.union(back), thin_ref.union(back))
    assert_matches_naive(thin.union(back, [n + 2]),
                         thin_ref.union(back, [n + 2]))
    assert_matches_naive(thin.union(back[:1]), thin_ref.union(back[:1]))
    assert_matches_naive(g.union([]), ref.union([]))


def test_single_edge_queries_build_no_tuple_view():
    # has_edge and colour_of read the rows, so one lookup on a big graph
    # costs a search, not a frozenset or dict of every edge
    g = uniform_colouring(complete_graph(60), 7, RandomSource(3))
    rows, colours = g.edge_array().tolist(), g.colour_array().tolist()
    assert g.has_edge(9, 4) and not g.has_edge(4, 60)
    assert g.colour_of(9, 4) == colours[rows.index([4, 9])]
    thin = g.without_edges([(4, 9)])
    assert not thin.has_edge(4, 9)
    with pytest.raises(KeyError):
        thin.colour_of(9, 4)
    with pytest.raises(ParameterError):
        g.has_edge(5, 5)
    with pytest.raises(ParameterError):
        g.colour_of(5, 5)
    with pytest.raises(ParameterError):
        complete_graph(4).colour_of(0, 1)                  # uncoloured
    for graph in (g, thin):
        assert graph._edges is None and graph._colouring is None


def test_edge_lookup_matches_isin():
    gen = np.random.default_rng(65)
    for t in range(40):
        n = int(gen.integers(2, 30))
        g = gen_gnp(n, [0.0, 0.2, 1.0][t % 3], RandomSource(66, t))
        codes = g.edge_codes()
        # duplicates, absent pairs and (every fifth case) an empty query
        size = 0 if t % 5 == 0 else int(gen.integers(1, 3 * n))
        want = gen.integers(0, n * n, size=size)
        want = np.concatenate([want, want[: size // 2]])
        at, found = find_codes(codes, want)
        assert found.tolist() == np.isin(want, codes).tolist()
        assert (codes[at[found]] == want[found]).all()

        # pairs in either orientation, some outside the label space
        pairs = [(int(a), int(b)) for a, b in
                 gen.integers(-2, n + 2, size=(size, 2)) if a != b]
        pairs += pairs[: len(pairs) // 2]
        at, found = g.find_edges(pairs)
        assert found.tolist() == [g.vertex_set >= {u, v} and g.has_edge(u, v)
                                  for u, v in pairs]
        rows = g.edge_array()
        for (u, v), i, hit in zip(pairs, at.tolist(), found.tolist()):
            if hit:
                assert rows[i].tolist() == sorted((u, v))
        # the same pairs as an (m, 2) integer array, read whole
        block = np.array(pairs, dtype=np.int32).reshape(-1, 2)
        at2, found2 = g.find_edges(block)
        assert found2.tolist() == found.tolist()
        assert at2[found2].tolist() == at[found].tolist()
    with pytest.raises(ParameterError):
        complete_graph(3).find_edges([(1, 1)])
    # a malformed pair raises instead of being re-paired with its neighbour
    g = complete_graph(4)
    for bad in ([(0, 1, 2), (3,)], [(0, 1), (2,)], [(0, 1), ()],
                [(0, 1, 2), (0, 1, 3)], np.array([[0, 1, 2]])):
        for lookup in (g.find_edges, g.without_edges, g.union):
            with pytest.raises(ValueError):
                lookup(bad)
    with pytest.raises(ParameterError):
        g.find_edges(np.array([[0, 1], [2, 2]]))

"""Expander lab: predicates, extraction, degradation, sparsification."""

import collections
import hashlib
import itertools
import math
import random

import numpy as np
import pytest

from rainbowtrees import (ColouredGraph, ExpanderFailure, ParameterError,
                          RandomSource, SparsifyFailure, complete_graph,
                          gen_gnp, uniform_colouring)
from rainbowtrees import expanders
from rainbowtrees.expanders import (ExpandParams, ExpansionCheck, _core,
                                    _peel, degrade_attach, ell1, ell2,
                                    find_effective_expander,
                                    is_eta_r_expander, sparsify,
                                    verify_expand_core)

from oracles import (naive_is_eta_r_expander, naive_min_degree_subsets,
                     reference_peel)


def cycle_graph(n):
    return ColouredGraph(n, [(i, (i + 1) % n) for i in range(n)])


def test_threshold_formulas_against_mpmath():
    import mpmath as mp

    got = ell1(3, math.e)
    want = mp.mpf(2) * mp.e ** 4 * 9  # ln(e) = 1
    assert abs(got - float(want)) < 1e-9

    got2 = ell2(0.5, 2, 160)
    want2 = (mp.mpf("0.5") * 160) / (40 * 4 * mp.log(4))
    assert abs(got2 - float(want2)) < 1e-12

    # independent re-derivation on scattered inputs
    for r, c in [(3, 2.0), (4, 10.0), (5, 1.5)]:
        assert abs(ell1(r, c) - float(2 * mp.e ** 4 * r * r * mp.log(c))) < 1e-9
    for eta, d, k in [(0.25, 3, 100), (0.1, 2, 7.5)]:
        want = eta * mp.mpf(k) / (40 * d * d * mp.log(2 / mp.mpf(eta)))
        assert abs(ell2(eta, d, k) - float(want)) < 1e-12


def test_param_invariants():
    p = ExpandParams(theta=0.1, C=4.0, eta=0.2, r=3)
    assert p.ell1 == pytest.approx(2 * math.e ** 4 * 9 * math.log(4.0))
    with pytest.raises(ParameterError):
        ExpandParams(theta=0.6, C=4.0, eta=0.2, r=3)
    with pytest.raises(ParameterError):
        ExpandParams(theta=0.1, C=4.0, eta=0.25, r=3)  # eta > 1/(r+2)
    with pytest.raises(ParameterError):
        ExpandParams(theta=0.1, C=4.0, eta=0.2, r=2)   # r < 3
    with pytest.raises(ParameterError):
        ExpandParams(theta=0.1, C=1.0, eta=0.2, r=3)   # C must exceed 1


def test_expander_check_examples():
    k5 = complete_graph(5)
    res = is_eta_r_expander(k5, 1.0 / 5.0, 4, mode="exact")
    assert res.is_expander and res.certified and res.witness is None

    c6 = cycle_graph(6)
    res = is_eta_r_expander(c6, 1.0 / 3.0, 2, mode="exact")
    assert not res.is_expander and res.certified
    assert len(res.witness) == 2
    ok, _ = naive_is_eta_r_expander(c6.subgraph(c6.vertex_set), 1.0 / 3.0, 2)
    assert not ok
    # the witness really violates expansion
    gamma = set()
    for x in res.witness:
        gamma.update(c6.adjacency()[x])
    gamma -= set(res.witness)
    assert len(gamma) < 2 * len(res.witness)

    edgeless = ColouredGraph(4, [])
    res = is_eta_r_expander(edgeless, 0.3, 1, mode="exact")
    assert not res.is_expander


def test_expander_exact_matches_naive():
    for t in range(80):
        n = 6 + t % 5
        g = gen_gnp(n, 0.35, RandomSource(900, t))
        for eta, r in [(0.2, 2), (0.3, 1), (0.45, 3)]:
            mine = is_eta_r_expander(g, eta, r, mode="exact")
            ref, _ = naive_is_eta_r_expander(g, eta, r)
            assert mine.is_expander == ref


def test_expander_exact_capacity():
    with pytest.raises(ParameterError):
        is_eta_r_expander(complete_graph(25), 0.2, 3, mode="exact")


def test_mode_is_checked_before_the_size_cap():
    # floor(0.2 * 3) = 0 leaves no set to check, but an unknown mode is
    # still a caller's error
    k3 = complete_graph(3)
    with pytest.raises(ParameterError, match="mode"):
        is_eta_r_expander(k3, 0.2, 3, mode="bogus")
    with pytest.raises(ParameterError, match="mode"):
        verify_expand_core(k3, 1.0, 0.2, 3, mode="bogus")
    with pytest.raises(ParameterError, match="RandomSource"):
        is_eta_r_expander(k3, 0.2, 3, mode="sampled")
    with pytest.raises(ParameterError, match="RandomSource"):
        verify_expand_core(k3, 1.0, 0.2, 3, mode="sampled")


def test_expander_sampled_mode():
    # a long cycle is caught by sampling adjacent pairs
    c50 = cycle_graph(50)
    res = is_eta_r_expander(c50, 0.1, 2, mode="sampled", trials=500,
                            source=RandomSource(17))
    assert not res.is_expander and not res.certified
    assert res.witness is not None
    # dense graph passes, flagged as uncertified
    k20 = complete_graph(20)
    res = is_eta_r_expander(k20, 0.2, 3, mode="sampled", trials=100,
                            source=RandomSource(18))
    assert res.is_expander and not res.certified


def test_verify_core_k6():
    res = verify_expand_core(complete_graph(6), 3.0, 1.0 / 5.0, 3, mode="exact")
    assert res.is_expander and res.certified
    # vacuous case: a path has no min-degree-3 induced subgraph
    p5 = ColouredGraph(5, [(i, i + 1) for i in range(4)])
    res = verify_expand_core(p5, 3.0, 0.4, 2, mode="exact")
    assert res.is_expander and res.sets_checked == 0


def two_k4s_bridged():
    edges = [(a, b) for a, b in itertools.combinations(range(4), 2)]
    edges += [(a + 4, b + 4) for a, b in itertools.combinations(range(4), 2)]
    edges.append((0, 4))
    return ColouredGraph(8, edges)


def test_verify_core_two_cliques():
    g = two_k4s_bridged()
    subs = naive_min_degree_subsets(g, 3.0)
    assert frozenset(range(4)) in subs and frozenset(range(4, 8)) in subs
    # r=3: every singleton in a K4 has three neighbours
    res = verify_expand_core(g, 3.0, 1.0 / 5.0, 3, mode="exact")
    assert res.is_expander
    # r=4: off-bridge clique vertices only reach 3 others
    res = verify_expand_core(g, 3.0, 1.0 / 6.0, 4, mode="exact")
    assert not res.is_expander and res.witness is not None


def test_verify_core_capacity():
    with pytest.raises(ParameterError):
        verify_expand_core(complete_graph(19), 3.0, 0.2, 3, mode="exact")


def test_verify_core_sampled():
    # only K9 and K10 clear the degree threshold; pairs expand at r=3
    res = verify_expand_core(complete_graph(10), 8.0, 0.2, 3, mode="sampled",
                             trials=50, source=RandomSource(19))
    assert res.is_expander and not res.certified
    exact = verify_expand_core(complete_graph(10), 8.0, 0.2, 3, mode="exact")
    assert exact.is_expander and exact.certified


def _sampled_check_drawing_every_sample(graph, ell1_value, eta, r, trials,
                                        source):
    """verify_expand_core's sampled mode without the empty-core return:
    the eight samples are drawn and peeled whatever the whole graph's
    core is."""
    n = graph.order
    cap = int(math.floor(eta * n + 1e-9))
    if cap < 1:
        return ExpansionCheck(True, False, None, 0)
    verts = sorted(graph.vertex_set)
    gen = source.generator()
    checked = 0
    threshold = math.ceil(ell1_value - 1e-9)
    targets = []
    core = _core(graph, threshold)
    if core:
        targets.append(core)
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


def test_empty_core_returns_before_sampling(monkeypatch):
    # thresholds above the maximum degree, and from 1 up to it, so that
    # some cores are empty with degrees at the threshold and some are not;
    # the result is the full sampled path's, and only a non-empty core
    # draws and peels the eight samples
    calls = []

    def counting_core(graph, lo, within=None):
        calls.append(within is None)
        return _core(graph, lo, within)

    monkeypatch.setattr(expanders, "_core", counting_core)
    seen = {"above max degree": 0, "empty below": 0, "non-empty": 0}
    for t in range(24):
        g = gen_gnp(20 + 2 * t, [0.1, 0.2, 0.35][t % 3], RandomSource(87, t))
        if t % 2:
            g = g.subgraph(range(t % 3, g.n, 2))
        top = g.max_degree()
        for ell in sorted({top + 0.5, top + 1, 3 * top + 7, 1, 2,
                           top // 2 + 0.5, top}):
            source = RandomSource(88, t)
            want = _sampled_check_drawing_every_sample(g, ell, 0.25, 2, 10,
                                                       source)
            del calls[:]
            got = verify_expand_core(g, ell, 0.25, 2, mode="sampled",
                                     trials=10, source=source)
            assert got == want, (t, ell)
            if _core(g, math.ceil(ell - 1e-9)):
                seen["non-empty"] += 1
                assert calls == [True] + [False] * 8
            else:
                seen["above max degree" if ell > top else "empty below"] += 1
                assert got == ExpansionCheck(True, False, None, 0)
                assert calls == [True]
    assert min(seen.values()) >= 10, seen


def test_peel_matches_the_dict_of_sets_peel():
    # the same survivors and the same capped edges in the same order as
    # the reference, with bands that cap (small hi) and bands that do not
    capping = not_capping = 0
    for t in range(40):
        g = gen_gnp(24 + t, [0.08, 0.15, 0.3][t % 3], RandomSource(89, t))
        if t % 2:
            g = g.subgraph(range(t % 4, g.n, 2))
        for lo, hi in [(1, 2), (2, 3), (2.5, 4), (3, 6), (2, 100), (0, 3),
                       (4, 3)]:
            want = reference_peel(g, lo, hi)
            assert _peel(g, lo, hi) == want, (t, lo, hi)
            if want[1]:
                capping += 1
            elif want[0]:
                not_capping += 1
    assert capping >= 40 and not_capping >= 40, (capping, not_capping)


def test_core_matches_networkx_k_core():
    # binomial graphs of mixed density on all or part of their labels, so
    # some have isolated vertices and some an empty core; the core inside
    # a vertex subset is the core of the induced subgraph
    import networkx as nx

    empty = 0
    for t in range(60):
        g = gen_gnp(40, [0.03, 0.1, 0.25][t % 3], RandomSource(73, t))
        if t % 2:
            g = g.subgraph(range(t % 5, 40, 2))
        ref = nx.Graph()
        ref.add_nodes_from(g.vertex_set)
        ref.add_edges_from(g.edges)
        # a random half of the vertices, as verify_expand_core samples them
        half = sorted(random.Random(t).sample(sorted(g.vertex_set),
                                              g.order // 2))
        for k in range(0, 8):
            want = frozenset(nx.k_core(ref, k))
            assert _core(g, k) == want
            empty += not want
            assert _core(g, k, half) == frozenset(
                nx.k_core(ref.subgraph(half), k)) == _core(g.subgraph(half), k)
    assert empty
    assert _core(ColouredGraph(5, [], vertex_set=[1, 3]), 1) == frozenset()
    assert _core(ColouredGraph(5, [], vertex_set=[1, 3]), 0) == {1, 3}


def test_effective_expander_identity():
    k8 = complete_graph(8)
    params = ExpandParams(theta=0.3, C=1.2, eta=0.2, r=3)
    out = find_effective_expander(k8, params, mode="exact")
    assert out.subgraph.edges == k8.edges
    assert out.deleted == frozenset() and out.capped_edges == frozenset()


def test_effective_expander_caps_high_degree():
    # wheel: hub 0 over an 11-cycle; hub degree 11 exceeds 10C
    rim = [(i, i % 11 + 1) for i in range(1, 12)]
    spokes = [(0, i) for i in range(1, 12)]
    g = ColouredGraph(12, rim + spokes)
    params = ExpandParams(theta=0.4, C=1.05, eta=0.2, r=3)
    out = find_effective_expander(g, params, mode="exact")
    assert out.deleted == frozenset()
    assert len(out.capped_edges) == 1
    assert out.subgraph.max_degree() <= 10
    assert out.subgraph.min_degree() >= 2


def test_effective_expander_subgraph_matches_the_three_step_copy():
    # the returned graph is subgraph(alive).without_edges(capped)
    # .uncoloured() of the reference peel, whether the step peels, caps,
    # both or neither; a step that does neither copies no row
    seen = collections.Counter()
    for t in range(36):
        g = gen_gnp(30 + t, [0.05, 0.15, 0.4][t % 3], RandomSource(91, t))
        if t % 4 == 1:
            g = uniform_colouring(g, g.size + 1, RandomSource(92, t))
        elif t % 4 == 3:
            g = g.union([], range(g.n, g.n + 3))
        for C in (1.05, 1.5, 2.0):
            params = ExpandParams(theta=0.49, C=C, eta=0.2, r=3)
            alive, capped = reference_peel(g, C, math.floor(10 * C))
            try:
                out = find_effective_expander(g, params, mode="sampled",
                                              trials=5,
                                              source=RandomSource(93, t))
            except ExpanderFailure:
                seen["failed"] += 1
                continue
            want = g.subgraph(alive).without_edges(capped).uncoloured()
            sub = out.subgraph
            assert (sub.n, sub.vertex_set) == (want.n, want.vertex_set)
            assert sub.edge_array().tolist() == want.edge_array().tolist()
            assert not sub.is_coloured and sub.palette_size == 0
            assert out.deleted == g.vertex_set - alive
            assert out.capped_edges == frozenset(capped)
            assert np.shares_memory(sub.edge_array(), g.edge_array()) \
                == (alive == g.vertex_set and not capped)
            seen[(bool(out.deleted), bool(capped), g.is_coloured)] += 1
    assert min(seen[(peeled, capping, False)] for peeled in (False, True)
               for capping in (False, True)) >= 2, seen
    assert seen[(False, False, True)] and seen[(False, True, True)], seen


def test_effective_expander_failure_items():
    params = ExpandParams(theta=0.3, C=2.0, eta=0.2, r=3)
    with pytest.raises(ExpanderFailure) as info:
        find_effective_expander(ColouredGraph(6, []), params, mode="exact")
    assert info.value.detail["item"] == 2

    # ten pendants hang off a K6: peeling them blows the theta budget
    edges = [(a, b) for a, b in itertools.combinations(range(6), 2)]
    edges += [(i % 6, 6 + i) for i in range(10)]
    g = ColouredGraph(16, edges)
    with pytest.raises(ExpanderFailure) as info:
        find_effective_expander(g, params, mode="exact")
    assert info.value.detail["item"] == 1

    # C=1.001 keeps the degree threshold below 2, so the K4 blocks qualify
    # and a singleton off the bridge only reaches 3 < r neighbours
    bad_core = two_k4s_bridged()
    tight = ExpandParams(theta=0.49, C=1.001, eta=1.0 / 6.0, r=4)
    with pytest.raises(ExpanderFailure) as info:
        find_effective_expander(bad_core, tight, mode="exact")
    assert info.value.detail["item"] == 3


def test_degrade_attach_validation():
    k17 = complete_graph(17)
    edges16 = [(17, i) for i in range(16)]
    with pytest.raises(ParameterError):
        degrade_attach(k17, 17, edges16[:15], 2)  # (d+2)^2 - 1 edges
    out = degrade_attach(k17, 17, edges16, 2)
    assert out.order == 18 and out.degree(17) == 16
    with pytest.raises(ParameterError):
        degrade_attach(out, 17, edges16, 2)  # already present


def test_degrade_attach_k17_conclusion():
    # attach a 16-edge vertex to K17; the degraded expansion survives on
    # every dense core of the result
    out = degrade_attach(complete_graph(17), 17, [(17, i) for i in range(16)], 2)
    res = verify_expand_core(out, 12.0, 1.0 / 6.0, 3, mode="exact")
    assert res.is_expander


def test_degrade_attach_full_neighbourhood():
    g = complete_graph(17)
    out = degrade_attach(g, 17, [(17, i) for i in range(17)], 2)
    # any set containing u sees all remaining old vertices
    for size in (1, 3):
        for combo in [list(range(size - 1)) + [17]]:
            gamma = set()
            for x in combo:
                gamma.update(out.adjacency()[x])
            gamma -= set(combo)
            assert gamma == set(range(17)) - set(combo)


def test_degradation_property_random_instances():
    # whenever the strong hypothesis holds on H, the weakened expansion
    # holds on H plus a well-attached vertex
    d = 2
    k = 12
    hits = 0
    for t in range(40):
        g = gen_gnp(17, 0.75, RandomSource(1000, t))
        hyp = verify_expand_core(g, float(k), 1.0 / (2 * d + 1), d + 2,
                                 mode="exact")
        if not hyp.is_expander:
            continue
        hits += 1
        gen = RandomSource(1001, t).generator()
        targets = gen.choice(17, size=16, replace=False)
        out = degrade_attach(g, 17, [(17, int(v)) for v in targets], d)
        con = verify_expand_core(out, float(k), 1.0 / (2 * d + 2), d + 1,
                                 mode="exact")
        assert con.is_expander, "degradation failed on seed %d" % t
    assert hits >= 5, "only %d instances satisfied the hypothesis" % hits


def test_sparsify_empty_target():
    out = sparsify([0, 1, 2], 0.5, 4, range(4), 0, RandomSource(5))
    assert out.size == 0 and out.order == 3


def test_sparsify_single_edge_uniform():
    from scipy.stats import chi2

    counts = {}
    trials = 10 ** 5
    for t in range(trials):
        out = sparsify([0, 1, 2], 1.0, 9, range(9), 1, RandomSource(1100, t))
        e = next(iter(out.edges))
        counts[e] = counts.get(e, 0) + 1
    assert set(counts) == {(0, 1), (0, 2), (1, 2)}
    expected = trials / 3.0
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    assert stat < chi2.ppf(0.99, df=2)


def test_sparsify_three_edges_uniform_over_outcomes():
    from scipy.stats import chi2

    trials = 2 * 10 ** 4
    counts = {}
    for t in range(trials):
        out = sparsify(range(4), 1.0, 64, range(64), 3, RandomSource(1200, t))
        key = tuple(sorted(out.edges))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 20  # C(6,3) possible 3-edge graphs on 4 vertices
    expected = trials / 20.0
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    assert stat < chi2.ppf(0.99, df=19), "chi2=%.1f" % stat


def test_sparsify_postconditions_and_failure():
    # p=1 with a small palette: each allowed colour appears w.p. ~0.87, so
    # both outcomes show up across 300 trials
    allowed = range(5)
    successes = failures = 0
    for t in range(300):
        try:
            out = sparsify(range(6), 1.0, 8, allowed, 4, RandomSource(1300, t),
                           n=10)
            successes += 1
            assert out.size == 4
            assert out.is_rainbow()
            assert set(out.colouring.values()) <= set(allowed)
            assert out.n == 10 and out.vertex_set == frozenset(range(6))
        except SparsifyFailure as exc:
            failures += 1
            assert exc.detail["needed"] == 4
            assert 0 <= exc.detail["survivors"] < 4
    assert successes > 0 and failures > 0


def test_sparsify_reproducible():
    a = sparsify(range(8), 0.5, 30, range(20), 5, RandomSource(77, 3))
    b = sparsify(range(8), 0.5, 30, range(20), 5, RandomSource(77, 3))
    assert a.edges == b.edges and a.colouring == b.colouring


def test_sparsify_parameter_errors():
    with pytest.raises(ParameterError):
        sparsify(range(4), 0.5, 8, range(3), 4, RandomSource(1))  # m > |A|
    with pytest.raises(ParameterError):
        sparsify(range(4), 1.5, 8, range(3), 2, RandomSource(1))
    with pytest.raises(ParameterError):
        sparsify(range(4), 0.5, 8, [9], 1, RandomSource(1))  # colour outside


# blake2b-64 of six seeded calls per case, (block size, p, form of the
# allowed colours, m = 0): the output rows and colours (or the failure
# counts) and the raw sample handed to `sample_out`, as the per-colour
# draw loop of the previous implementation produced them
SPARSIFY_PINS = {
    (4, 0.05, 'range', False): '758a4b5ae8967cf7',
    (4, 0.05, 'range', True): 'c6c006ae51227ee0',
    (4, 0.05, 'list', False): 'e1d034c374f3c605',
    (4, 0.05, 'list', True): 'c6c006ae51227ee0',
    (4, 0.05, 'set', False): 'e1d034c374f3c605',
    (4, 0.05, 'set', True): 'c6c006ae51227ee0',
    (4, 1.0, 'range', False): 'e50bbecbac57ce26',
    (4, 1.0, 'range', True): 'f4c6a978154b6626',
    (4, 1.0, 'list', False): '680d2c8f3af90b8c',
    (4, 1.0, 'list', True): 'f4c6a978154b6626',
    (4, 1.0, 'set', False): '680d2c8f3af90b8c',
    (4, 1.0, 'set', True): 'f4c6a978154b6626',
    (11, 0.05, 'range', False): '410ef76f01c68008',
    (11, 0.05, 'range', True): '86c8aca1196207e7',
    (11, 0.05, 'list', False): 'f8f8dea277f7877f',
    (11, 0.05, 'list', True): '86c8aca1196207e7',
    (11, 0.05, 'set', False): 'ff3a290cb8f0b3cc',
    (11, 0.05, 'set', True): '86c8aca1196207e7',
    (11, 1.0, 'range', False): '8ec8931bce466cbb',
    (11, 1.0, 'range', True): '86768da3009a21a3',
    (11, 1.0, 'list', False): 'f68ca8db4669cee9',
    (11, 1.0, 'list', True): '86768da3009a21a3',
    (11, 1.0, 'set', False): '0ae57aa7e502b978',
    (11, 1.0, 'set', True): '86768da3009a21a3',
    (27, 0.05, 'range', False): '807edc01514465a2',
    (27, 0.05, 'range', True): '21abfb42aa27d1ee',
    (27, 0.05, 'list', False): '9ad96011105228a1',
    (27, 0.05, 'list', True): '21abfb42aa27d1ee',
    (27, 0.05, 'set', False): '332951ccedc8b229',
    (27, 0.05, 'set', True): '21abfb42aa27d1ee',
    (27, 1.0, 'range', False): 'cab52114f5883a63',
    (27, 1.0, 'range', True): 'cd508433adc4ba96',
    (27, 1.0, 'list', False): '839ce7212893240d',
    (27, 1.0, 'list', True): 'cd508433adc4ba96',
    (27, 1.0, 'set', False): '7dee0f330673ed80',
    (27, 1.0, 'set', True): 'cd508433adc4ba96',
    (60, 0.05, 'range', False): '56be043a821fd70c',
    (60, 0.05, 'range', True): 'e1ca3e9d36b156fc',
    (60, 0.05, 'list', False): '66bd7e81b24ca9a3',
    (60, 0.05, 'list', True): 'e1ca3e9d36b156fc',
    (60, 0.05, 'set', False): '82647ec011eac3c7',
    (60, 0.05, 'set', True): 'e1ca3e9d36b156fc',
    (60, 1.0, 'range', False): 'f64ca45cf053552a',
    (60, 1.0, 'range', True): '9a46c9e5734736ef',
    (60, 1.0, 'list', False): '4cf5cf0f0c49a5f7',
    (60, 1.0, 'list', True): '9a46c9e5734736ef',
    (60, 1.0, 'set', False): '51910951bacee0df',
    (60, 1.0, 'set', True): '9a46c9e5734736ef',
}


@pytest.mark.parametrize("case", sorted(SPARSIFY_PINS), ids=repr)
def test_sparsify_pinned_stream(case):
    k, p, form, m_zero = case
    h = hashlib.blake2b(digest_size=8)
    for t in range(6):
        colours = range(k // 3, k // 3 + k)
        if form == "list":
            colours = sorted(colours, reverse=True)[::2] + [k // 3]
        elif form == "set":
            colours = {c for c in colours if c % 3}
        gen = RandomSource(6600 + k, t).generator()
        block = sorted(gen.choice(3 * k, size=k, replace=False).tolist())
        if t % 2:
            block = range(k)
        size = len(set(colours))
        m = 0 if m_zero else [size, size // 2, 1][t % 3]
        sample = {}
        try:
            out = sparsify(block, p, 2 * k + 3, colours, m,
                           RandomSource(6700 + k, t), n=3 * k,
                           sample_out=sample)
            got = (out.n, sorted(out.vertex_set), out.edge_array().tolist(),
                   out.colour_array().tolist())
        except SparsifyFailure as exc:
            got = ("fail", exc.detail["survivors"], exc.detail["needed"])
        # the sample is handed out as arrays; it is hashed in the list
        # form the pins were taken from
        pairs, colours = sample["pairs"], sample["colours"]
        assert pairs.dtype == colours.dtype == np.int64
        assert pairs.shape == (len(colours), 2)
        assert (pairs[:, 0] < pairs[:, 1]).all()
        h.update(repr((got, list(map(tuple, pairs.tolist())),
                       colours.tolist())).encode())
    assert h.hexdigest() == SPARSIFY_PINS[case]

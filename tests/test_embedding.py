"""Embedding pipeline: parameters, rooted embedding, root edges, stages."""

import hashlib
import itertools
import json
import math

import pytest

from rainbowtrees import (ColouredGraph, EmbedFailure, InfeasibleParameters,
                          ParameterError, RandomSource, Tree, canonical_edge,
                          complete_graph, derive_parameters,
                          embed_almost_spanning, embed_rooted_tree,
                          format_trace, gen_random_bounded_tree, harness,
                          lemma_stats, path_tree, select_root_edges,
                          star_tree, uniform_colouring)
from rainbowtrees.exposure import ExposureError, ExposureOracle

from rainbowtrees.absorption import absorb_leftovers
from rainbowtrees.embedding import _audit_image, _left_order, _match_level

from oracles import (check_almost_spanning_result, check_embedding,
                     reference_match_level)
from synthetic import make_synthetic_state


def cycle_graph(n):
    return ColouredGraph(n, [(i, (i + 1) % n) for i in range(n)])


def vertices(lo, hi):
    """Edgeless host on the vertices lo..hi-1."""
    return ColouredGraph(hi, [], vertex_set=range(lo, hi))


# -- parameter derivation ----------------------------------------------------


def test_derive_parameters_defaults():
    params = derive_parameters(0.5, 2, 10 ** 7)
    assert params.zeta == pytest.approx(0.5)
    assert params.beta <= params.beta_cap * (1 + 1e-9)
    assert params.within_caps
    p2 = derive_parameters(0.2, 2, 10 ** 7)
    assert p2.zeta == pytest.approx(0.125)
    assert p2.xi == pytest.approx((1 - 1.5 * 0.125) * p2.beta)


def test_derive_parameters_validation():
    with pytest.raises(ParameterError):
        derive_parameters(0.0, 3, 100)
    with pytest.raises(ParameterError):
        derive_parameters(0.3, 1, 100)
    with pytest.raises(ParameterError):
        derive_parameters(0.3, 3, 100, zeta=0.9)
    with pytest.raises(ParameterError):
        derive_parameters(0.3, 3, 100, zeta=0.5)     # above eps/(2(1-eps))
    with pytest.raises(ParameterError):
        derive_parameters(0.3, 3, 100, m_mode="other")


def test_derive_parameters_infeasible_small_n():
    # the tiny default beta cap empties the piece window at small n and
    # the error names the smallest workable n
    with pytest.raises(InfeasibleParameters) as err:
        derive_parameters(0.2, 3, 1000)
    assert err.value.minimum_n > 1000
    params = derive_parameters(0.2, 3, err.value.minimum_n)
    assert params.xi * params.n >= 3


def test_derive_parameters_override_escapes_caps():
    params = derive_parameters(0.25, 3, 2000, beta=0.12)
    assert not params.within_caps
    assert params.s_bound == 3 * math.ceil(1 / params.xi) + 1
    assert params.xi == pytest.approx(0.75 * 0.12)


def test_block_size_identity_and_scale():
    # the block is (1 + 3 zeta / 2) times the piece order, rounded up
    params = derive_parameters(0.25, 3, 2000, beta=0.12, zeta=1 / 6)
    assert params.block_size(160) == math.ceil(1.25 * 160)
    assert params.block_size(1) == 2
    narrow = derive_parameters(0.25, 3, 2000, beta=0.12, zeta=0.02)
    assert narrow.block_size(160) == math.ceil(1.03 * 160)
    assert narrow.block_size(100) == 103


def test_balanced_block_respects_supply():
    params = derive_parameters(0.25, 3, 2000, beta=0.12, m_mode="balanced")
    p = 10 * math.log(2000) / 2000
    n_blk, m_blk = params.balanced_block(160, p, 1995, 2000)
    assert n_blk >= math.ceil(160 / 0.6)
    assert m_blk == int(params.c_m * n_blk)
    # the promised edge budget fits under the expected distinct-colour yield
    present = 0.5 * n_blk * (n_blk - 1) * p
    yield_mean = 1995 * (1 - math.exp(-present / 2000))
    assert m_blk <= 0.9 * yield_mean
    # min_order pushes the block wider
    n2, _ = params.balanced_block(160, p, 1995, 2000, min_order=400)
    assert n2 >= 400


# -- rooted embedding ---------------------------------------------------------


def test_embed_single_node_and_edge():
    host = complete_graph(4)
    single = Tree([7], [], 1)
    image = embed_rooted_tree(host, single, 7, root_vertex=2,
                              source=RandomSource(1))
    assert image == {7: 2}
    edge = path_tree(2)
    image = embed_rooted_tree(host, edge, 0, source=RandomSource(1))
    assert host.has_edge(image[0], image[1])


def test_embed_path_into_complete():
    host = complete_graph(5)
    image = embed_rooted_tree(host, path_tree(3), 0, source=RandomSource(2))
    assert len(set(image.values())) == 3


def test_embed_path_into_path_needs_endpoint():
    # a spanning path of a path graph exists only from its endpoints;
    # restarts must find one
    host = ColouredGraph(5, [(i, i + 1) for i in range(4)])
    image = embed_rooted_tree(host, path_tree(5), 0, source=RandomSource(3))
    assert image[0] in (0, 4)
    check_embedding(host, path_tree(5), image)


def test_embed_star_into_cycle_fails():
    # max degree 3 cannot sit in a 2-regular host
    with pytest.raises(EmbedFailure) as err:
        embed_rooted_tree(cycle_graph(5), star_tree(4), 0,
                          source=RandomSource(4))
    assert err.value.detail["placed"] < err.value.detail["total"] == 5


def test_embed_respects_pinned_root():
    host = complete_graph(6)
    for seed in range(5):
        image = embed_rooted_tree(host, path_tree(4), 0, root_vertex=3,
                                  source=RandomSource(5, seed))
        assert image[0] == 3


def test_embed_validation():
    host = complete_graph(4)
    with pytest.raises(ParameterError):
        embed_rooted_tree(host, path_tree(3), 9, source=RandomSource(0))
    with pytest.raises(ParameterError):                # tree bigger than host
        embed_rooted_tree(host, path_tree(5), 0, source=RandomSource(0))
    with pytest.raises(ParameterError):
        embed_rooted_tree(host, path_tree(3), 0, root_vertex=17,
                          source=RandomSource(0))
    with pytest.raises(TypeError):                     # the source is required
        embed_rooted_tree(host, path_tree(3), 0)


def test_embed_random_trees_into_gnp():
    from rainbowtrees import gen_gnp

    placed = 0
    for t in range(20):
        host = gen_gnp(60, 0.25, RandomSource(600, t))
        tree = gen_random_bounded_tree(30, 3, RandomSource(601, t))
        try:
            image = embed_rooted_tree(host, tree, 0, source=RandomSource(602, t))
        except EmbedFailure:
            continue
        check_embedding(host, tree, image)
        placed += 1
    # mean host degree ~ 15 at 50% fill: failures should be rare
    assert placed >= 17


def test_embed_rooted_tree_slow_paths_pinned(monkeypatch):
    # tight G(n, p) hosts where the embedding redraws a level within its
    # first pass, restarts after a failed pass, and runs out of passes;
    # the images and the failure message are pinned by a hash
    from rainbowtrees import embedding, gen_gnp

    seen = {"passes": 0, "unmatched": 0}
    match, one_pass = embedding._match_level, embedding._embed_pass

    def counted_match(*args):
        got = match(*args)
        seen["unmatched"] += got is None
        return got

    def counted_pass(*args):
        seen["passes"] += 1
        return one_pass(*args)

    monkeypatch.setattr(embedding, "_match_level", counted_match)
    monkeypatch.setattr(embedding, "_embed_pass", counted_pass)
    cases = [  # n, p, tree order, seed, passes, hash
        (40, 0.12, 30, 0, 1, "47a9f667a8d6a30f"),     # one level redrawn
        (40, 0.12, 30, 5, 2, "6c4f822a8528a8ff"),     # a failed pass
        (50, 0.10, 40, 11, 30, "5625e5d3fc619ed8"),   # EmbedFailure
    ]
    for n, p, m, seed, passes, want in cases:
        seen.update(passes=0, unmatched=0)
        host = gen_gnp(n, p, RandomSource(900 + n, seed))
        tree = gen_random_bounded_tree(m, 3, RandomSource(901 + n, seed))
        try:
            out = sorted(embed_rooted_tree(
                host, tree, min(tree.nodes),
                source=RandomSource(902 + n, seed)).items())
            check_embedding(host, tree, dict(out))
        except EmbedFailure as exc:
            out = str(exc)
        assert seen["passes"] == passes and seen["unmatched"] > 0
        got = hashlib.sha256(json.dumps(out).encode()).hexdigest()[:16]
        assert got == want, (n, seed, out)


def _greedy_leaves_a_node_free(nodes, cand, gen) -> bool:
    """Replay the level's draws, then let each node, in the order of the
    set of (0, v) tuples, take the first untaken host of its shuffled
    list: True when some node finds none."""
    order = list(nodes)
    gen.shuffle(order)
    lists = {}
    for v in order:
        lists[v] = list(cand[v])
        gen.shuffle(lists[v])
    taken = set()
    for _, v in set((0, v) for v in nodes):
        free = [w for w in lists[v] if w not in taken]
        if not free:
            return True
        taken.add(free[0])
    return False


def test_match_level_matches_networkx():
    # levels of up to 60 nodes with up to 9 candidates each among a few more
    # hosts; tight ones leave some node unmatched.  From t = 300 on, runs
    # of siblings share one list object.  Both matchers, and a greedy
    # replay of the first phase, draw from generators in the same state;
    # the two matchers must leave theirs alike and the lists unchanged.
    # Ours takes the lists in the order of `nodes` and the left order
    # from `_left_order`, as the level plan hands them over.
    import numpy as np

    outcomes = set()
    seen = {"empty": 0, "shared": 0, "augmented": 0}
    for t in range(600):
        r = np.random.default_rng([71, t])
        size = int(r.integers(1, 60))
        nodes = r.choice(1000, size, replace=False).tolist()
        hosts = r.choice(5000, size + int(r.integers(0, 20)),
                         replace=False).tolist()
        most = min(int(r.integers(1, 10)), len(hosts))

        def draw():
            return r.choice(hosts, int(r.integers(0 if t % 7 == 0 else 1,
                                                  most + 1)),
                            replace=False).tolist()

        cand = {}
        for v in nodes:
            if not (t >= 300 and cand and r.random() < 0.6):
                ws = draw()
            cand[v] = ws
        before = {v: list(ws) for v, ws in cand.items()}
        ours, ref, replay = (np.random.default_rng([72, t]) for _ in range(3))
        got = _match_level(nodes, _left_order(nodes),
                           [cand[v] for v in nodes], ours)
        assert got == reference_match_level(nodes, cand, ref)
        assert ours.bit_generator.state == ref.bit_generator.state
        assert cand == before
        if got is not None:
            assert list(got) == nodes
            assert all(got[v] in cand[v] for v in nodes)
            assert len(set(got.values())) == len(nodes)
        outcomes.add(got is None)
        seen["empty"] += not all(cand.values())
        seen["shared"] += len(set(map(id, cand.values()))) < len(nodes)
        seen["augmented"] += got is not None and \
            _greedy_leaves_a_node_free(nodes, cand, replay)
    assert outcomes == {True, False}
    assert seen["empty"] >= 20 and seen["shared"] >= 200
    assert seen["augmented"] >= 20, seen


# -- root edges ---------------------------------------------------------------


def test_select_root_edges_zero_needed_exposes_nothing():
    oracle = ExposureOracle(20, 8, 1.0, RandomSource(9))
    out = select_root_edges(0, vertices(1, 20), oracle, range(8), 0)
    assert out == ()
    assert oracle.ledger == []


def test_select_root_edges_all_present():
    oracle = ExposureOracle(40, 12, 1.0, RandomSource(10))
    pool = select_root_edges(0, vertices(1, 40), oracle, range(12), 4, stage=2)
    assert len(pool) == 4
    colours = [c for _, c in pool]
    assert colours == sorted(colours) and len(set(colours)) == 4
    for (u, v), c in pool:
        assert 0 in (u, v)
        assert oracle.presence_of((u, v))
        assert oracle.colour_of((u, v)) == c
    # presence burned for every probed pair, colours only for present ones
    assert all(oracle.presence_exposed((0, v)) for v in range(1, 40))


def test_select_root_edges_short_pool():
    oracle = ExposureOracle(30, 100, 1.0, RandomSource(11))
    # only two reservoir colours exist, so a quota of 9 cannot be met:
    # the pool comes back short, with every reservoir colour that showed
    pool = select_root_edges(0, vertices(1, 30), oracle, [3, 4], 9)
    assert [c for _, c in pool] == sorted(
        {oracle.colour_of((0, v)) for v in range(1, 30)} & {3, 4})


def test_select_root_edges_nothing_present():
    oracle = ExposureOracle(30, 8, 0.0, RandomSource(12))
    assert select_root_edges(0, vertices(1, 30), oracle, range(8), 1) == ()
    assert oracle.colour_exposed_at(0) == ()


def test_select_root_edges_root_inside_host():
    oracle = ExposureOracle(30, 8, 0.5, RandomSource(13))
    with pytest.raises(ParameterError):
        select_root_edges(5, vertices(0, 30), oracle, range(8), 1)


def test_select_root_edges_colour_only_for_present():
    oracle = ExposureOracle(60, 6, 0.4, RandomSource(14))
    select_root_edges(0, vertices(1, 60), oracle, range(6), 6)
    present = tuple(v for v in range(1, 60) if oracle.presence_of((0, v)))
    assert oracle.colour_exposed_at(0) == present


# -- the pipeline -------------------------------------------------------------


def crit6_setup(n, seed, trial):
    p = 10 * math.log(n) / n
    params = derive_parameters(0.25, 3, n, beta=0.12, m_mode="balanced")
    src = RandomSource(seed, trial)
    tree = gen_random_bounded_tree(round(0.08 * n), 3, src.substream("tree"))
    return p, params, src, tree


def test_pipeline_validation():
    src = RandomSource(20)
    with pytest.raises(ParameterError):
        embed_almost_spanning(100, 0.5, 100, star_tree(5), 0.25, 3, src)
    with pytest.raises(ParameterError):
        embed_almost_spanning(100, 0.5, 100, path_tree(90), 0.25, 3, src)
    params = derive_parameters(0.25, 3, 500, beta=0.12)
    with pytest.raises(ParameterError):
        embed_almost_spanning(600, 0.5, 600, path_tree(10), 0.25, 3, src,
                              params=params)


def test_pipeline_trivial_tree():
    src = RandomSource(21)
    res = embed_almost_spanning(200, 0.1, 200, Tree([3], [], 1), 0.25, 3, src)
    assert res.success and res.embedding == {3: 0}
    assert res.edge_colours == {}


def test_pipeline_single_stage_success():
    p, params, src, tree = crit6_setup(500, 6600, 0)
    res = embed_almost_spanning(500, p, 500, tree, 0.25, 3, src, params=params)
    assert res.success
    check_almost_spanning_result(res, tree)
    # single piece: no reservoir edge was ever needed
    assert res.reservoir_used == frozenset()
    assert res.hypothesis_met
    assert any("sparsify-1" in line for line in res.trace)
    assert any("embed-1" in line for line in res.trace)


def test_pipeline_failure_is_reported_not_raised():
    # p = 0 means sparsify can never find enough pairs
    params = derive_parameters(0.25, 3, 500, beta=0.12, m_mode="balanced")
    tree = gen_random_bounded_tree(40, 3, RandomSource(23))
    res = embed_almost_spanning(500, 0.0, 500, tree, 0.25, 3,
                                RandomSource(24), params=params)
    assert not res.success
    assert res.stage == "sparsify"
    assert res.embedding is None and res.detail


def test_pipeline_single_stage_loop():
    successes = 0
    for t in range(25):
        p, params, src, tree = crit6_setup(500, 6700, t)
        res = embed_almost_spanning(500, p, 500, tree, 0.25, 3, src,
                                    params=params)
        if res.success:
            check_almost_spanning_result(res, tree)
            successes += 1
        else:
            assert res.stage in ("sparsify", "expander", "embed")
    assert successes >= 22


def test_pipeline_multi_stage():
    n, eps, d = 1000, 0.25, 3
    p = 40 * math.log(n) / n
    params = derive_parameters(eps, d, n, beta=0.05, rho=0.2,
                               m_mode="balanced")
    successes = 0
    used_reservoir = False
    for t in range(20):
        src = RandomSource(7400, t)
        tree = gen_random_bounded_tree(150, d, src.substream("tree"))
        res = embed_almost_spanning(n, p, n, tree, eps, d, src, params=params)
        if res.success:
            check_almost_spanning_result(res, tree)
            successes += 1
            if res.reservoir_used:
                used_reservoir = True
                assert len(res.reservoir_used) <= params.s_bound * (d + 2) ** 2
                reservoir = set(range(params.reservoir_size))
                assert set(res.reservoir_used) <= reservoir
    assert successes >= 12
    assert used_reservoir


def test_pipeline_blocks_must_fit():
    # a near-spanning tree under balanced blocks cannot fit disjointly
    n = 300
    params = derive_parameters(0.25, 3, n, beta=0.12, m_mode="balanced")
    tree = path_tree(225)
    with pytest.raises(InfeasibleParameters):
        embed_almost_spanning(n, 0.3, n, tree, 0.25, 3, RandomSource(30),
                              params=params)


def ln_p(k, n):
    return k * math.log(n) / n


# (n, p, palette, tree order, d, eps, derive_parameters knobs, seed, trials)
PINNED_RUNS = (
    # one piece: success; p = 0; edge budget above the colours; short
    # survivors; C <= 1; too many vertices peeled; embed budget exhausted
    (500, ln_p(10, 500), 500, 40, 3, 0.25,
     dict(beta=0.12, m_mode="balanced"), 6600, 1),
    (500, 0.0, 500, 40, 3, 0.25, dict(beta=0.12, m_mode="balanced"), 24, 1),
    (200, 0.3, 200, 30, 2, 0.25,
     dict(beta=0.5, zeta=0.02, m_mode="adaptive", c_m=8.0), 904, 1),
    (200, ln_p(4, 200), 200, 16, 2, 0.25,
     dict(beta=0.12, m_mode="adaptive", c_m=1.5), 900, 1),
    (200, ln_p(4, 200), 200, 16, 2, 0.25,
     dict(beta=0.12, m_mode="balanced"), 900, 1),
    (200, 0.3, 200, 20, 2, 0.25, dict(beta=0.5, zeta=0.02, c_m=2.5), 904, 2),
    (200, 0.3, 200, 30, 2, 0.25,
     dict(beta=0.5, zeta=0.02, m_mode="adaptive", c_m=2.5), 904, 2),
    # several pieces: success with the full root-edge quota (through
    # degrade_attach); degraded root edges; blocks that do not fit; too
    # few colours; root-edge and expander failures after reservoir use
    (600, 1.0, 600, 120, 3, 0.25,
     dict(beta=0.2, rho=0.2, m_mode="balanced"), 903, 1),
    (300, 0.6, 300, 60, 2, 0.25,
     dict(beta=0.1, rho=0.1, m_mode="balanced"), 903, 1),
    (300, 0.6, 300, 90, 3, 0.25,
     dict(beta=0.1, rho=0.1, m_mode="balanced"), 905, 1),
    (200, ln_p(20, 200), 60, 20, 2, 0.5,
     dict(beta=0.05, rho=0.2, m_mode="balanced"), 901, 1),
    (200, ln_p(10, 200), 200, 40, 3, 0.25,
     dict(beta=0.12, m_mode="balanced"), 900, 1),
    (400, ln_p(20, 400), 400, 60, 3, 0.25,
     dict(beta=0.05, rho=0.2, m_mode="balanced"), 905, 12),
)


def test_pipeline_output_pinned():
    # every field of the result, so a change to the pipeline's bookkeeping
    # shows even where the audits still pass
    outcomes = set()
    rows = []
    for n, p, palette, order, d, eps, knobs, seed, trials in PINNED_RUNS:
        params = derive_parameters(eps, d, n, **knobs)
        for t in range(trials):
            src = RandomSource(seed, t)
            tree = gen_random_bounded_tree(order, d, src.substream("tree"))
            try:
                res = embed_almost_spanning(n, p, palette, tree, eps, d, src,
                                            params=params)
            except InfeasibleParameters as exc:
                outcomes.add("infeasible")
                rows.append((str(exc), exc.minimum_n))
                continue
            several = not res.trace[0].endswith(",pieces=1")
            outcomes.add((res.stage, (res.detail or "")[:12],
                          res.hypothesis_met, several,
                          bool(res.reservoir_used)))
            rows.append((
                res.success, res.stage, res.detail, res.trace,
                sorted(res.embedding.items()) if res.embedding else None,
                sorted(res.edge_colours.items()), res.hypothesis_met,
                sorted(res.reservoir_used),
                sorted((k, sorted(v.items())) for k, v in res.regime.items())))
    assert outcomes == {
        (None, "", True, False, False),
        (None, "", True, True, True),
        (None, "", False, True, True),
        ("sparsify", "no workable ", True, False, False),
        ("sparsify", "edge budget ", True, False, False),
        ("sparsify", "[sparsify] o", True, False, False),
        ("sparsify", "[sparsify] o", True, True, False),
        ("expander", "degree scale", True, False, False),
        ("expander", "[expander] p", True, False, False),
        ("expander", "[expander] p", False, True, True),
        ("root-edges", "[root-edges]", True, True, False),
        ("root-edges", "[root-edges]", False, True, True),
        ("embed", "[embed] no e", True, False, False),
        ("available-colours", "only 20 colo", True, True, False),
        "infeasible",
    }
    digest = hashlib.blake2b(repr(rows).encode(), digest_size=16)
    assert digest.hexdigest() == "79a26cb2c16854cc0b4398d0a17e8788"


# -- the closing audit ---------------------------------------------------------


def _almost_success():
    p, params, src, tree = crit6_setup(500, 6600, 0)
    res = embed_almost_spanning(500, p, 500, tree, 0.25, 3, src, params=params)
    assert res.success
    return tree, dict(res.embedding), dict(res.edge_colours), res.oracle, None


def _spanning_success():
    n, r, d = 300, 4, 2
    seed = complete_graph(n)
    tree, trim, almost, src = make_synthetic_state(n, r, d, 20 * n, 0.05, 1000)
    res = absorb_leftovers(seed, tree, trim, almost, 0.5, d, r / n,
                           src.substream("absorb"))
    assert res.success
    return tree, dict(res.mapping), dict(res.edge_colours), res.oracle, seed


@pytest.mark.parametrize("make", [_almost_success, _spanning_success])
def test_audit_image_rejects_each_corruption(make):
    tree, placement, edge_colours, oracle, host = make()
    _audit_image(tree, placement, edge_colours, oracle, host)
    nodes = sorted(tree.nodes)
    edges = sorted(edge_colours)
    leaf = min(tree.leaves())
    (x,) = tree.neighbours(leaf)

    def rejects(place=placement, colours=edge_colours, graph=host):
        with pytest.raises(AssertionError):
            _audit_image(tree, place, colours, oracle, graph)

    def moved(w):
        """The leaf on host w, its image edge keeping its colour."""
        colours = dict(edge_colours)
        c = colours.pop(canonical_edge(placement[x], placement[leaf]))
        colours[canonical_edge(placement[x], w)] = c
        return {**placement, leaf: w}, colours

    # two nodes on one vertex
    rejects(place={**placement, nodes[0]: placement[nodes[1]]})
    # a tree edge missing from edge_colours
    rejects(colours={e: c for e, c in edge_colours.items() if e != edges[0]})
    # an extra entry in edge_colours
    spare = min(set(range(oracle.palette_size)) - set(edge_colours.values()))
    outside = next(e for e in itertools.combinations(range(oracle.n), 2)
                   if e not in edge_colours)
    rejects(colours={**edge_colours, outside: spare})
    # a repeated colour
    rejects(colours={**edge_colours, edges[0]: edge_colours[edges[1]]})
    if host is None:
        # an image edge that is present nowhere: the leaf moves to a
        # free block vertex whose pair with its parent's image is absent
        used = set(placement.values())
        w = next(w for w in range(oracle.n) if w not in used
                 and oracle.presence_exposed((placement[x], w))
                 and not oracle.presence_of((placement[x], w)))
        rejects(*moved(w))
        # an image edge whose presence was never revealed
        w = next(w for w in range(oracle.n) if w not in used
                 and not oracle.presence_exposed((placement[x], w)))
        with pytest.raises(ExposureError):
            _audit_image(tree, *moved(w), oracle, host)
        return
    # an image edge that is neither a seed edge nor present in the
    # oracle: a seed edge of the image, once the seed lacks it
    gap = next(e for e in edges if not oracle.presence_of(e))
    rejects(graph=host.without_edges([gap]))
    # a colour that disagrees with the oracle
    rejects(colours={**edge_colours, edges[0]: edge_colours[edges[1]],
                     edges[1]: edge_colours[edges[0]]})
    # a mapping that misses a host vertex
    rejects(*moved(oracle.n))
    # image edges whose colours were never revealed: the leaf swaps hosts
    # with another leaf, and each moved image edge keeps its colour
    other, (y,) = next((b, tree.neighbours(b)) for b in tree.leaves()
                       if tree.neighbours(b) != (x,) and not any(
                           oracle.colour_exposed(pair) for pair in (
                               (placement[x], placement[b]),
                               (placement[tree.neighbours(b)[0]],
                                placement[leaf]))))
    place = {**placement, leaf: placement[other], other: placement[leaf]}
    colours = dict(edge_colours)
    for a, z in ((leaf, x), (other, y)):
        c = colours.pop(canonical_edge(placement[z], placement[a]))
        colours[canonical_edge(place[z], place[a])] = c
    with pytest.raises(ExposureError):
        _audit_image(tree, place, colours, oracle, host)


# -- small helpers ------------------------------------------------------------


def test_colour_coverage(monkeypatch):
    # the count of distinct colours below a = alpha n, which the colour
    # lemma trials take over the whole graph (a) or around vertex 0 (b)
    graphs = []

    def kept(*args):
        graphs.append(uniform_colouring(*args))
        return graphs[-1]

    monkeypatch.setattr(harness, "uniform_colouring", kept)
    for kind in ("many-colours-a", "many-colours-b"):
        del graphs[:]
        stats = lemma_stats(kind, {"n": 300, "alpha": 0.2}, trials=4,
                            base_seed=5)
        assert len(graphs) == 4
        for rec, g in zip(stats.records, graphs):
            assert rec.metrics["a_size"] == 60
            pairs = g.edges if kind == "many-colours-a" \
                else [e for e in g.edges if 0 in e]
            want = {g.colour_of(*e) for e in pairs} & set(range(60))
            assert rec.metrics["got"] == len(want)


def test_format_helpers():
    assert format_trace(()) == ""
    assert format_trace(("a", "b")) == "a\nb\n"

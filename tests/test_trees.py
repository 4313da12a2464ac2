"""Tree kit: generation, trimming, decomposition, root sets, anchors."""

import pytest

from rainbowtrees import (ParameterError, RandomSource, StageFailure, Tree,
                          build_I0, compute_root_sets, decompose_tree,
                          gen_random_bounded_tree, path_tree, star_tree,
                          trim_to_size)

from oracles import (check_anchor_set, check_decomposition, check_root_sets,
                     check_tree, reference_build_I0, replay_trim)


def test_tree_validation():
    t = path_tree(5)
    assert t.m == 5 and t.max_degree() == 2
    with pytest.raises(ParameterError):
        Tree(range(4), [(0, 1), (2, 3)], 3)          # disconnected
    with pytest.raises(ParameterError):
        Tree(range(3), [(0, 1), (1, 2), (0, 2)], 3)  # cycle / count
    with pytest.raises(ParameterError):
        Tree(range(4), [(0, 1), (0, 2), (0, 3)], 2)  # degree bound


def test_gen_random_bounded_tree_small():
    assert gen_random_bounded_tree(1, 2, RandomSource(1)).m == 1
    t2 = gen_random_bounded_tree(2, 2, RandomSource(1))
    assert t2.edges == frozenset({(0, 1)})
    with pytest.raises(ParameterError):
        gen_random_bounded_tree(3, 1, RandomSource(1))


def test_gen_random_bounded_tree_invariants():
    for t in range(50):
        tree = gen_random_bounded_tree(100, 3, RandomSource(200, t))
        check_tree(tree, d=3)
    # degree bound is actually attained somewhere eventually
    degrees = set()
    for t in range(20):
        tree = gen_random_bounded_tree(60, 4, RandomSource(201, t))
        degrees.add(tree.max_degree())
    assert 4 in degrees


def test_trim_trivial():
    t = path_tree(6)
    full = trim_to_size(t, 6, RandomSource(3))
    assert full.t0 == t and full.deleted == ()
    single = trim_to_size(t, 1, RandomSource(3))
    assert single.t0.m == 1
    assert len(single.deleted) == 5
    with pytest.raises(ParameterError):
        trim_to_size(t, 0, RandomSource(3))
    with pytest.raises(ParameterError):
        trim_to_size(t, 7, RandomSource(3))


def test_trim_path_deletes_endpoints():
    t = path_tree(10)
    for s in range(10):
        res = trim_to_size(t, 7, RandomSource(77, s))
        assert res.t0.m == 7
        check_tree(res.t0, d=2)
        replay_trim(t, res.deleted)
        # a trimmed path is a contiguous subpath
        nodes = sorted(res.t0.nodes)
        assert nodes == list(range(nodes[0], nodes[0] + 7))


def test_trim_random_trees_leaf_discipline():
    for s in range(25):
        tree = gen_random_bounded_tree(40, 3, RandomSource(500, s))
        res = trim_to_size(tree, 25, RandomSource(501, s))
        assert res.t0.m == 25
        check_tree(res.t0, d=3)
        replay_trim(tree, res.deleted)


def test_decompose_star_single_piece():
    t = star_tree(3)
    dec = decompose_tree(t, 3, 0.2, 0.8, n=5)  # window top = 4 >= v(T)
    assert dec.s == 1
    assert dec.pieces[0] == t.nodes
    check_decomposition(dec)


def test_decompose_path_twelve():
    t = path_tree(12)
    dec = decompose_tree(t, 2, 0.0, 4.0 / 12.0, n=12)  # window [2, 4]
    assert 3 <= dec.s <= 4
    for i, piece in enumerate(dec.pieces):
        assert 2 <= len(piece) <= 4 or i == 0
    check_decomposition(dec)


def test_decompose_window_infeasible():
    with pytest.raises(ParameterError):
        decompose_tree(path_tree(12), 2, 0.0, 0.1, n=12)  # xi*n = 1.2 < d


def test_decompose_random_trees():
    for s in range(20):
        tree = gen_random_bounded_tree(400, 3, RandomSource(600, s))
        dec = decompose_tree(tree, 3, 0.0, 0.1, n=400)  # window [13.3, 40]
        check_decomposition(dec)
        assert dec.s <= 31
        rs = compute_root_sets(dec)
        check_root_sets(dec, rs)


def test_root_sets_trivial_and_path():
    t = star_tree(3)
    dec = decompose_tree(t, 3, 0.2, 0.8, n=5)
    rs = compute_root_sets(dec)
    assert rs.z_sets == (frozenset(),)
    assert rs.augmented_trees[0] == t
    assert rs.augmented_trees[0] is t          # reused, not rebuilt

    p = path_tree(8)
    dec = decompose_tree(p, 2, 0.0, 0.5, n=8)  # window [2, 4]
    rs = compute_root_sets(dec)
    check_root_sets(dec, rs)
    # first piece hosts the anchor of the piece glued to it
    attach, root = dec.connecting[1]
    host = next(i for i, piece in enumerate(dec.pieces) if attach in piece)
    assert root in rs.z_sets[host]
    for zs in rs.z_sets:
        assert len(zs) <= dec.s


def test_build_I0_path():
    for n in (10, 20, 35):
        t = path_tree(n)
        i0 = build_I0(t, t, 2, 0.0)
        assert len(i0) == n // 5
        check_anchor_set(i0, t, t)


def test_build_I0_trimmed_star_errors():
    # a star loses one leaf; the centre now violates closure and any two
    # leaves sit at distance 2, so only one anchor can ever be picked
    star = star_tree(29)
    t0 = star.induced_subtree(set(star.nodes) - {29})
    with pytest.raises(StageFailure):
        build_I0(t0, star, 2, 1.0 / 30.0)


def test_build_I0_random_trees():
    for s in range(15):
        tree = gen_random_bounded_tree(200, 3, RandomSource(700, s))
        res = trim_to_size(tree, 190, RandomSource(701, s))
        i0 = build_I0(res.t0, tree, 3, 0.05)
        assert len(i0) == int((200 - 4 * 0.05 * 200) // 10)
        check_anchor_set(i0, res.t0, tree)


def _anchor_sweep(build, t0, tree, d, eps):
    """The anchors `build` picks, or its failure's message, stage and
    counts."""
    try:
        return build(t0, tree, d, eps)
    except StageFailure as exc:
        return str(exc), exc.stage, exc.detail


def test_build_I0_matches_reference():
    cases = []
    for s in range(120):
        d = 2 + s % 2
        m = 20 + (s * 37) % 180
        tree = gen_random_bounded_tree(m, d, RandomSource(702, s))
        # from no trimming to 60% of the tree, so that some sweeps fall
        # short
        keep = m - (m * ((s * 7) % 13)) // 20
        t0 = trim_to_size(tree, keep, RandomSource(703, s)).t0
        cases.append((t0, tree, d, (0.0, 0.02, 0.05, 0.1)[s % 4]))
    star = star_tree(29)
    cases.append((star.induced_subtree(set(star.nodes) - {29}), star, 2,
                  1.0 / 30.0))
    outcomes = []
    for t0, tree, d, eps in cases:
        got = _anchor_sweep(build_I0, t0, tree, d, eps)
        assert got == _anchor_sweep(reference_build_I0, t0, tree, d, eps)
        outcomes.append(got)
    # the trimmed star picks one anchor of the five it needs
    assert outcomes[-1][1:] == ("build-I0", {"found": 1, "target": 5})
    failed = sum(isinstance(got[0], str) for got in outcomes)
    assert 1 < failed < len(cases) // 2, failed


def test_build_I0_requires_subtree():
    t = path_tree(10)
    not_sub = Tree(range(3), [(0, 1), (0, 2)], 2)  # (0,2) is not a path edge
    with pytest.raises(ParameterError):
        build_I0(not_sub, t, 2, 0.0)

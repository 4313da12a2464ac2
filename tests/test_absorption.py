"""Absorption stage: relabelling, edge slicing, anchor pools, absorb loop."""

import hashlib
import math
import pickle
from collections import Counter

import numpy as np
import pytest

from rainbowtrees import (AbsorptionFailure, AbsorptionState, AnchorTable,
                          ColouredGraph,
                          InfeasibleParameters, ParameterError,
                          PartitionFailure, RandomSource, SeedSlice,
                          StageFailure, Tree,
                          TrialConfig, absorb_leftovers, absorb_step,
                          b_size_bound, complete_graph, compute_B,
                          draw_permutation, embed_spanning, gen_gnp,
                          gen_random_bounded_tree, gen_seed_graph, harness,
                          partition_edge_set, path_tree, run_trials,
                          select_fresh_part, spawn_trial_source, star_tree,
                          uniform_colouring)
from rainbowtrees.embedding import AlmostSpanningResult
from rainbowtrees.exposure import ExposureOracle

from oracles import (check_spanning_result, label_slices,
                     reference_compute_B, reference_partition_edge_set,
                     reference_select_fresh_part, slice_graph, slice_views)
from synthetic import make_synthetic_state


# -- relabelling ----------------------------------------------------------


def test_shift_destination_uniform():
    # where vertex 0 lands should be uniform over the 8 labels:
    # 4000 draws, 8 bins, chi-square df 7, upper 1% point 18.475
    counts = np.zeros(8, dtype=int)
    for t in range(4000):
        counts[draw_permutation(8, spawn_trial_source(909, t))[0]] += 1
    expected = 4000 / 8.0
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 18.475, "chi2 = %.2f over bins %r" % (chi2, counts.tolist())


# -- slicing the seed graph ------------------------------------------------


def test_partition_single_part():
    g = complete_graph(12)
    parts = partition_edge_set(g, [], 1, 0.5, RandomSource(9))
    assert len(parts) == 1
    assert parts[0].edges == g.edges


def test_partition_k20():
    g = complete_graph(20)
    floor = 0.5 * 20 / 4.0
    for s in range(30):
        parts = partition_edge_set(g, [], 2, 0.5, RandomSource(200 + s))
        assert len(parts) == 2
        assert not (parts[0].edges & parts[1].edges)
        assert parts[0].edges | parts[1].edges == g.edges
        for h in parts:
            assert h.min_degree() >= floor - 1e-9


def test_partition_precondition():
    sparse = ColouredGraph(10, [(i, i + 1) for i in range(9)])
    with pytest.raises(PartitionFailure) as err:
        partition_edge_set(sparse, [], 2, 0.5, RandomSource(1))
    assert err.value.detail["min_degree"] == 1
    assert err.value.detail["required"] == pytest.approx(4.5)
    with pytest.raises(ParameterError):
        partition_edge_set(complete_graph(6), [], 0, 0.5, RandomSource(1))


def test_partition_budget_exhausted():
    # every vertex of K6 would need an edge in each of 5 slices, which a
    # uniform edge assignment essentially never produces
    g = complete_graph(6)
    with pytest.raises(PartitionFailure) as err:
        partition_edge_set(g, [], 5, 0.9, RandomSource(17))
    assert err.value.detail["draws"] == 50


def _slicing(partition, seed, removed, d, delta, source):
    """The slices' rows, colours, vertex sets, degrees and minimum
    degrees, or the PartitionFailure's message and detail.  A SeedSlice
    is read through the slice graph it stands for, its minimum degree
    from the view itself."""
    try:
        parts = partition(seed, removed, d, delta, source)
    except PartitionFailure as exc:
        return "fail", str(exc), exc.detail
    out = []
    for h in parts:
        g = slice_graph(h) if isinstance(h, SeedSlice) else h
        out.append((g.edge_array().tolist(),
                    None if not g.is_coloured else g.colour_array().tolist(),
                    sorted(g.vertex_set),
                    [g.degree(v) for v in sorted(g.vertex_set)],
                    h.min_degree()))
    return out


def test_partition_matches_the_two_step_reference():
    # one lookup of R in the seed against the seed minus R built first
    k40 = complete_graph(40)
    cliques = gen_seed_graph(60, 0.4, "clique-union")      # two K30s
    partial = complete_graph(50).subgraph(range(5, 45))
    tinted = uniform_colouring(complete_graph(30), 7, RandomSource(5))

    def draw(g, p, t):
        return gen_gnp(g.n, p, RandomSource(31, t)).edge_array()

    across = np.array([(u, v) for u in range(0, 30, 3)
                       for v in range(30, 60, 7)])
    r_rows = draw(cliques, 0.05, 1)
    cases = [
        (k40, draw(k40, 0.05, 0), 2, 0.5),
        (k40, np.empty((0, 2), dtype=np.int64), 3, 0.5),
        (k40, [], 1, 0.5),
        (cliques, r_rows, 2, 0.4),
        # R rows the seed lacks: pairs across the two cliques
        (cliques, np.concatenate([across, r_rows]), 2, 0.4),
        (cliques, across, 1, 0.4),
        # duplicated rows, in both orientations
        (cliques, np.concatenate([r_rows, r_rows[::-1, ::-1], r_rows[:5]]),
         2, 0.4),
        # a seed on part of its label space, R reaching outside it
        (partial, draw(partial, 0.05, 2), 2, 0.5),
        (partial, [(0, 1), (2, 49), (5, 6), (6, 5), (44, 43)], 3, 0.5),
        (tinted, draw(tinted, 0.1, 3), 2, 0.5),
        # the precondition: R takes too much of the seed
        (k40, draw(k40, 0.3, 4), 2, 0.5),
        (partial, draw(partial, 0.4, 5), 2, 0.5),
        # the 50-draw budget runs out
        (complete_graph(6), [], 5, 0.9),
        (complete_graph(8), [(0, 1)], 5, 0.7),
    ]
    outcomes = set()
    for i, (seed, removed, d, delta) in enumerate(cases):
        for s in range(3):
            src = RandomSource(700 + i, s)
            got = _slicing(partition_edge_set, seed, removed, d, delta, src)
            want = _slicing(reference_partition_edge_set, seed, removed, d,
                            delta, src)
            assert got == want, (i, s)
            # a failure is named by its first detail key
            outcomes.add(min(got[2]) if got[0] == "fail" else "sliced")
    assert outcomes == {"sliced", "min_degree", "bound"}


def _seed_slice_cases():
    """(seed, R rows, d, delta) for slicings that succeed: complete,
    clique-union, partial and coloured seeds."""
    k40 = complete_graph(40)
    cliques = gen_seed_graph(60, 0.4, "clique-union")
    partial = complete_graph(50).subgraph(range(5, 45))
    tinted = uniform_colouring(complete_graph(30), 7, RandomSource(5))
    for i, (seed, d, delta) in enumerate([(k40, 2, 0.5), (k40, 3, 0.5),
                                          (cliques, 2, 0.4),
                                          (partial, 2, 0.5),
                                          (tinted, 1, 0.5)]):
        r_rows = gen_gnp(seed.n, 0.05, RandomSource(61, i)).edge_array()
        yield seed, r_rows, d, delta


def test_seed_slices_label_every_kept_row_once():
    for i, (seed, r_rows, d, delta) in enumerate(_seed_slice_cases()):
        parts = partition_edge_set(seed, r_rows, d, delta, RandomSource(62, i))
        assert len(parts) == d and [h.j for h in parts] == list(range(d))
        labels = parts[0].labels
        assert all(h.seed is seed and h.labels is labels for h in parts)
        assert not labels.flags.writeable
        in_r = {(min(a, b), max(a, b)) for a, b in r_rows.tolist()}
        rows = [tuple(e) for e in seed.edge_array().tolist()]
        # a row of R carries label d; every other row one slice's label
        assert [e in in_r for e in rows] == (labels == d).tolist()
        assert set(labels[labels != d].tolist()) <= set(range(d))
        edges = [h.edges for h in parts]
        assert sum(len(es) for es in edges) == len(seed.edges - in_r)
        assert frozenset().union(*edges) == seed.edges - in_r


def test_seed_slice_labels_are_bytes_with_the_int64_values():
    for i, (seed, r_rows, d, delta) in enumerate(_seed_slice_cases()):
        src = RandomSource(65, i)
        parts = partition_edge_set(seed, r_rows, d, delta, src)
        labels = parts[0].labels
        assert labels.dtype == np.uint8
        # the int64 labelling of one of the 50 draws: the draw inserted
        # around R's rows, which take label d
        at, found = seed.find_edges(r_rows)
        dropped = np.unique(at[found])
        gaps = dropped - np.arange(len(dropped))
        gen = src.generator()
        assert any((np.insert(gen.integers(0, d, size=len(labels)
                                           - len(dropped)), gaps, d)
                    == labels).all() for _ in range(50))
        # a pickled seed slices alike; only its rows were shipped
        copy = pickle.loads(pickle.dumps(seed))
        assert copy._ends is None and copy._ecodes is None
        again = partition_edge_set(copy, r_rows, d, delta, src)
        assert again[0].labels.tolist() == labels.tolist()
        assert [h.min_degree() for h in again] == \
            [h.min_degree() for h in parts]


def test_seed_slice_matches_its_slice_graph():
    gen = np.random.default_rng(63)
    for i, (seed, r_rows, d, delta) in enumerate(_seed_slice_cases()):
        n = seed.n
        parts = partition_edge_set(seed, r_rows, d, delta, RandomSource(64, i))
        # seed edges, rows of R, random pairs (mostly non-edges on the
        # partial and clique-union seeds) and labels outside range(n)
        a = np.concatenate([seed.edge_array()[:, 0], r_rows[:, 0],
                            gen.integers(-3, n + 3, size=400)])
        b = np.concatenate([seed.edge_array()[:, 1], r_rows[:, 1],
                            gen.integers(-3, n + 3, size=400)])
        a, b = a[a != b], b[a != b]
        assert (a < 0).any() and (b >= n).any()
        for h in parts:
            g = slice_graph(h)
            want = [(min(x, y), max(x, y)) in g.edges
                    for x, y in zip(a.tolist(), b.tolist())]
            assert (h.pair_labels(a, b) == h.j).tolist() == want
            assert (h.pair_labels(b, a) == h.j).tolist() == want
            assert h.edges == g.edges
            assert h.min_degree() == g.min_degree()
            # a scalar against an array: every pair at one vertex
            x, y = next(iter(g.edges))
            others = [w for w in range(n) if w != x]
            assert (h.pair_labels(x, others) == h.j).tolist() == [
                (min(x, w), max(x, w)) in g.edges for w in others]
            assert (h.pair_labels(x, y) == h.j).tolist() == [True]
            assert (h.pair_labels([], y) == h.j).tolist() == []
            with pytest.raises(ParameterError):
                h.pair_labels([x, y], [y, y])
            with pytest.raises(ParameterError):
                h.pair_labels(x, x)


# -- anchor pools ----------------------------------------------------------


def test_pool_hand_instance():
    # trimmed image is the path 0-1-2 with anchor 1; u=3, v=4; the pool
    # contains 1 exactly when the slice has u~1 and v adjacent to both
    # image neighbours of 1
    image = Tree([0, 1, 2], [(0, 1), (1, 2)], 2)
    table = AnchorTable(image, [1], range(5))
    assert table.hosts.tolist() == [1] and table.rows.tolist() == [[0, 2]]
    assert table.edges == image.edges
    (h,) = label_slices(5, [[(3, 1), (4, 0), (4, 2)]])
    assert compute_B(3, 4, h, [1], table) == (1,)
    (weaker,) = label_slices(5, [[(3, 1), (4, 0)]])
    assert compute_B(3, 4, weaker, [1], table) == ()


def test_pool_empty_anchors():
    image = Tree([0, 1, 2], [(0, 1), (1, 2)], 2)
    (h,) = label_slices(5, [complete_graph(5).edges])
    assert compute_B(3, 4, h, [], AnchorTable(image, [], range(5))) == ()
    with pytest.raises(ParameterError):
        compute_B(3, 3, h, [0], AnchorTable(image, [0], range(5)))
    # an anchor the table has no row for
    with pytest.raises(ParameterError):
        compute_B(3, 4, h, [0, 2], AnchorTable(image, [0], range(5)))
    with pytest.raises(ParameterError):
        compute_B(3, 4, h, [0], AnchorTable(image, [], range(5)))


def test_pool_complete_slice():
    # in a complete slice every image vertex qualifies
    image = path_tree(6)
    (h,) = label_slices(8, [complete_graph(8).edges])
    anchors = list(range(6))
    table = AnchorTable(image, anchors, range(8))
    assert compute_B(6, 7, h, anchors, table) == tuple(range(6))


def test_pool_bound_value():
    assert b_size_bound(0.4, 2, 100000) == pytest.approx(0.625, abs=1e-12)
    assert b_size_bound(0.5, 3, 1200) == pytest.approx(
        (0.5 / 12.0) ** 4 * 1200 / 45.0)


def test_pool_statistics(monkeypatch):
    # a large-Buv trial reports the min and mean of the pools it sampled
    sizes = []

    def counted(*args):
        pool = compute_B(*args)
        sizes.append(len(pool))
        return pool

    monkeypatch.setattr(harness, "compute_B", counted)
    config = TrialConfig(kind="lemma-stats", lemma_kind="large-Buv", n=80,
                         d=2, delta=0.5, seed_kind="complete", eps=0.25,
                         samples=50, base_seed=31)
    (rec,) = run_trials(config)
    stats = rec.metrics
    assert stats["samples"] == len(sizes) == 50
    assert stats["min"] == min(sizes)
    assert stats["mean"] == pytest.approx(sum(sizes) / 50)
    assert 0 <= stats["min"] <= stats["mean"] <= stats["anchors"]
    assert stats["bound"] == pytest.approx(b_size_bound(0.5, 2, 80))
    assert stats["violated"] == (min(sizes) < stats["bound"])


# -- pools and fresh slices against the neighbour scans ----------------------


def _fresh_part_or_none(select, parts, u, oracle):
    try:
        return select(parts, u, oracle)
    except StageFailure:
        return None


@pytest.mark.parametrize("seed", range(4))
def test_pools_and_fresh_slices_match_the_neighbour_scans(seed):
    """compute_B and select_fresh_part answer as the neighbour scans of
    tests/oracles.py do, on random slices of complete graphs and of
    gen_gnp graphs, some on a partial vertex set, with colours revealed
    before and after a relabelling.  The anchor table is built through a
    list placement of a d = 3 tree and holds the image's neighbours."""
    n = 30
    gen = np.random.default_rng(seed)
    src = RandomSource(4400 + seed)
    seen = dict.fromkeys(("u is an anchor", "v is next to an anchor",
                          "no anchors", "partial vertex set",
                          "u has no revealed colour", "nonempty pool",
                          "padded row", "anchor outside the vertex set"),
                         False)
    for t in range(24):
        if t % 3 == 0:
            host = complete_graph(n)
        else:
            host = gen_gnp(n, float(gen.uniform(0.2, 0.9)),
                           src.substream(("host", t)))
        if t % 4 == 1:
            host = host.subgraph(gen.choice(n, size=22, replace=False).tolist())
            seen["partial vertex set"] = True
        verts = sorted(host.vertex_set)
        d = int(gen.integers(1, 4))
        labels = gen.integers(0, d, size=host.size)
        parts = slice_views(host, labels, d)
        graphs = [slice_graph(h) for h in parts]

        # an image tree on host labels, some of them outside the slice's
        # vertex set when that set is partial
        k = int(gen.integers(2, 16))
        where = gen.choice(n, size=k, replace=False).tolist()
        shape = gen_random_bounded_tree(k, 3, src.substream(("tree", t)))
        image = Tree(where, ((where[a], where[b]) for a, b in shape.edges), 3)
        if t % 5 == 2:
            anchors = []
            seen["no anchors"] = True
        else:
            anchors = gen.choice(where, size=int(gen.integers(1, k + 1)),
                                 replace=False).tolist()
        table = AnchorTable(shape, [where.index(x) for x in anchors], where)
        assert table.hosts.tolist() == sorted(anchors)
        assert table.rows.shape == (len(anchors), 3)
        for x, row in zip(table.hosts.tolist(), table.rows.tolist()):
            ys = list(image.neighbours(x))
            assert row == ys + [-1] * (3 - len(ys))
            assert table.neighbours(x) == tuple(ys)
            seen["padded row"] |= len(ys) < 3
            seen["anchor outside the vertex set"] |= x not in host.vertex_set
        assert table.edges == {e for e in image.edges
                               if e[0] in anchors or e[1] in anchors}

        pairs = [tuple(gen.choice(verts, size=2, replace=False).tolist())
                 for _ in range(3)]
        for x in anchors:
            if x in host.vertex_set:
                u = x
                v = next(w for w in verts if w != u)
                pairs.append((u, v))
                for y in image.neighbours(x):
                    if y in host.vertex_set and y != u:
                        pairs.append((u, y))
                        other = verts[0] if verts[0] != y else verts[1]
                        pairs.append((other, y))
        for u, v in pairs:
            seen["u is an anchor"] |= u in anchors
            seen["v is next to an anchor"] |= any(
                v in image.neighbours(x) for x in anchors)
            for part, graph in zip(parts, graphs):
                want = reference_compute_B(u, v, graph, anchors, image)
                assert compute_B(u, v, part, anchors, table) == want, \
                    (t, u, v)
                seen["nonempty pool"] |= bool(want)
        with pytest.raises(ParameterError):
            compute_B(verts[0], verts[0], parts[0], anchors, table)

        oracle = ExposureOracle(n, 50, 0.5, src.substream(("oracle", t)))

        def agree():
            for u in verts:
                got = _fresh_part_or_none(select_fresh_part, parts, u, oracle)
                want = _fresh_part_or_none(reference_select_fresh_part,
                                           graphs, u, oracle)
                assert got == want, (t, u)
                seen["u has no revealed colour"] |= not any(
                    oracle.colour_exposed((u, w)) for w in range(n) if w != u)

        for rounds in range(3):
            for _ in range(int(gen.integers(0, 2 * n))):
                a, b = gen.choice(n, size=2, replace=False).tolist()
                if not oracle.colour_exposed((a, b)):
                    oracle.expose_colour((a, b))
            agree()
            if rounds == 1:
                oracle.apply_permutation(gen.permutation(n).tolist())
                agree()
    assert all(seen.values()), seen


# -- single absorb steps on a hand-built state ------------------------------


def hand_state(palette, seed_val, h_edges, before=()):
    """Path 10..15 trimmed at 15, embedded as hosts 0..4; the slices are
    the edge lists `before` followed by `h_edges`, as labels over their
    union."""
    tree = Tree(range(10, 16), [(a, a + 1) for a in range(10, 15)], 2)
    image = Tree(range(5), [(a, a + 1) for a in range(4)], 2)
    mapping = {node: node - 10 for node in range(10, 15)}
    edge_colours = {(a, a + 1): a for a in range(4)}
    oracle = ExposureOracle(7, palette, 0.5, RandomSource(seed_val))
    oracle.record_block(range(5), list(edge_colours),
                        list(edge_colours.values()), stage=0)
    parts = label_slices(7, before + (h_edges,))
    table = AnchorTable(image, (0, 1, 2), range(5))
    return AbsorptionState(tree, table, parts, mapping, edge_colours, oracle)


HAND_SLICE = [(4, 0), (4, 1), (5, 0), (5, 1), (5, 2)]


def test_absorb_step_rewires():
    state = hand_state(10 ** 6, 3, HAND_SLICE)
    line = absorb_step(state, 5, 15)
    # with a huge palette the first candidate wins: anchor node 10 moves
    # from host 0 to host 5, and the re-attached leaf 15 lands on host 0
    assert line == "i=1 j*=1 |B|=2 chosen=0"
    assert state.trace == [line]
    assert state.mapping == {10: 5, 11: 1, 12: 2, 13: 3, 14: 4, 15: 0}
    assert sorted(state.edge_colours) == [(0, 4), (1, 2), (1, 5), (2, 3),
                                          (3, 4)]
    assert state.used == [0]
    assert state.edge_colours[(1, 2)] == 1  # untouched image edge keeps its colour
    assert state.colours == set(state.edge_colours.values())


def test_absorb_step_collision_exhausts_pool():
    # palette 5 leaves one colour outside the image, but every candidate
    # needs at least two fresh colours, so the whole pool is scanned and
    # the step fails
    state = hand_state(5, 3, HAND_SLICE)
    with pytest.raises(AbsorptionFailure) as err:
        absorb_step(state, 5, 15)
    assert err.value.detail == {"vertex": 5, "step": 1, "pool": 2}
    assert state.trace == ["i=1 j*=1 |B|=2 chosen=fail"]
    absorbs = [e for e in state.oracle.ledger if e[0] == "absorb"]
    assert len(absorbs) == 5  # 2 pairs for anchor 0, 3 for anchor 1
    assert len(set(absorbs)) == 5


def test_absorb_step_skips_colliding_candidate():
    # seed found by search: anchor 0 draws a clashing colour, anchor 1
    # qualifies; the scan is lazy but charged per candidate it touches
    state = hand_state(12, 15, HAND_SLICE)
    line = absorb_step(state, 5, 15)
    assert line == "i=1 j*=1 |B|=2 chosen=1"
    assert len([e for e in state.oracle.ledger if e[0] == "absorb"]) == 5


def test_absorb_step_validation():
    state = hand_state(100, 3, HAND_SLICE)
    with pytest.raises(ParameterError):
        absorb_step(state, 5, 99)             # not a tree node
    with pytest.raises(ParameterError):
        absorb_step(state, 2, 15)             # host 2 already carries a node
    with pytest.raises(ParameterError):
        absorb_step(state, 5, 14)             # node 14 is already embedded
    assert state.trace == [] and state.oracle.ledger[1:] == []

    # the rejoining node must hang off the embedded tree by exactly one edge
    path = Tree([0, 1, 2], [(0, 1), (1, 2)], 2)
    stub = Tree([0], [], 2)
    oracle = ExposureOracle(4, 10, 0.5, RandomSource(8))
    parts = label_slices(4, [[(0, 1)]])
    none = AnchorTable(stub, (), range(1))
    lone = AbsorptionState(path, none, parts, {0: 0}, {}, oracle)
    with pytest.raises(ParameterError, match="0 embedded neighbours"):
        absorb_step(lone, 1, 2)
    ends = AbsorptionState(path, none, parts, {0: 0, 2: 2}, {}, oracle)
    with pytest.raises(ParameterError, match="2 embedded neighbours"):
        absorb_step(ends, 1, 1)


def test_absorb_step_picks_the_fresh_slice():
    # a slice whose edges at the attachment host u = 4 were looked at is
    # skipped: j* is select_fresh_part's first fresh slice
    before = ([(4, 6)],)
    state = hand_state(10 ** 6, 3, HAND_SLICE, before)
    assert select_fresh_part(state.parts, 4, state.oracle) == 0
    with pytest.raises(AbsorptionFailure):
        absorb_step(state, 5, 15)             # slice 1 has no pool for (4, 5)
    assert state.trace == ["i=1 j*=1 |B|=0 chosen=fail"]

    state = hand_state(10 ** 6, 3, HAND_SLICE, before)
    state.oracle.expose_colour((4, 6))
    assert select_fresh_part(state.parts, 4, state.oracle) == 1
    assert absorb_step(state, 5, 15) == "i=1 j*=2 |B|=2 chosen=0"
    assert state.mapping[15] == 0 and state.mapping[10] == 5


def test_absorb_step_asserts_on_a_leaked_slice_colour():
    # the colour of (v, w) = (5, 0) lies in the chosen slice, and host 0
    # carries a tree node: a step absorbing v = 5 must refuse to run
    state = hand_state(10 ** 6, 3, HAND_SLICE)
    state.oracle.expose_colour((5, 0))
    with pytest.raises(AssertionError, match=r"\(5, 0\) leaked early"):
        absorb_step(state, 5, 15)

    # the same colour, revealed at (6, 0) and moved onto (5, 0) by a
    # relabelling that swaps 5 and 6 after the oracle was first asked
    # about vertex 6
    state = hand_state(10 ** 6, 3, HAND_SLICE)
    assert select_fresh_part(state.parts, 6, state.oracle) == 0
    state.oracle.expose_colour((6, 0))
    assert select_fresh_part(state.parts, 6, state.oracle) == 0
    swap = [0, 1, 2, 3, 4, 6, 5]
    state.oracle.apply_permutation(swap)
    with pytest.raises(AssertionError, match=r"\(5, 0\) leaked early"):
        absorb_step(state, 5, 15)


def test_select_fresh_part():
    oracle = ExposureOracle(7, 10, 0.5, RandomSource(1))
    h1, h2 = label_slices(7, [[(4, 0), (4, 1)], [(4, 2), (4, 3)]])
    assert select_fresh_part((h1, h2), 4, oracle) == 0
    oracle.expose_colour((4, 0))
    assert select_fresh_part((h1, h2), 4, oracle) == 1
    oracle.expose_colour((4, 3))
    with pytest.raises(StageFailure) as err:
        select_fresh_part((h1, h2), 4, oracle)
    assert err.value.stage == "absorption"
    assert err.value.detail["structural"]


# -- the absorb loop on planted states --------------------------------------


def test_absorb_leftovers_planted():
    n, r, d = 300, 4, 2
    seed_graph = complete_graph(n)
    wins = 0
    for s in range(10):
        tree, trim, almost, src = make_synthetic_state(
            n, r, d, 20 * n, 0.05, 1000 + s)
        res = absorb_leftovers(seed_graph, tree, trim, almost, 0.5, d, r / n,
                               src.substream("absorb"))
        assert res.success, "seed %d died at %s: %s" % (1000 + s, res.stage,
                                                        res.detail)
        wins += 1
        check_spanning_result(res, tree, seed_graph)
        assert res.r == r
        assert res.trace[0] == almost.trace[0]
        stages = [line.split()[0] for line in res.trace]
        assert "stage=r-degree" in stages
        assert "stage=shift" in stages
        assert "stage=partition" in stages
        # the largest degree of R, recounted edge by edge
        degrees = Counter(res.oracle.presence_edges().ravel().tolist())
        assert res.r_max_degree == max(degrees.values(), default=0)
        assert res.r_degree_ok == (res.r_max_degree <= 3 * math.log(n))
    assert wins == 10


def test_absorb_leftovers_builds_no_slice_graph(monkeypatch):
    # the slices are labels on the seed's rows: no graph is cut from them
    n, r, d = 60, 3, 2
    tree, trim, almost, src = make_synthetic_state(n, r, d, 20 * n, 0.05, 31)
    seed_graph = complete_graph(n)

    def refuse(*args):
        raise AssertionError("a graph was cut from the seed's rows")

    monkeypatch.setattr(ColouredGraph, "_restrict", refuse)
    res = absorb_leftovers(seed_graph, tree, trim, almost, 0.5, d, r / n,
                           src.substream("absorb"))
    assert any(line.startswith("stage=partition status=ok")
               for line in res.trace)
    assert [line for line in res.trace if line.startswith("i=")]


def test_absorb_leftovers_honest_failure():
    # seed 1024 scans a pool with no fresh candidate: a legitimate
    # random outcome, reported as a failed result rather than a crash
    n, r, d = 300, 4, 2
    tree, trim, almost, src = make_synthetic_state(n, r, d, 20 * n, 0.05, 1024)
    res = absorb_leftovers(complete_graph(n), tree, trim, almost, 0.5, d,
                           r / n, src.substream("absorb"))
    assert not res.success
    assert res.stage == "absorption"
    assert res.mapping is None
    assert res.used_absorbers == ()
    assert any(line.endswith("chosen=fail") for line in res.trace)


def test_absorb_leftovers_pinned():
    # 32 planted states on complete and clique-union seeds, d 2 and 3,
    # palettes 1.25n and 20n: every run's trace, stage, detail, absorbers,
    # mapping and edge colours are hashed, over runs that succeed, run out
    # of fresh candidates, find every slice looked at around u, and fail
    # to slice the seed
    outcomes, rows = set(), []
    for kind, n, r, delta, seeds in (("complete", 200, 4, 0.5, 4),
                                     ("complete", 200, 12, 0.5, 2),
                                     ("clique-union", 60, 6, 0.3, 2)):
        seed_graph = gen_seed_graph(n, delta, kind, RandomSource(7, n))
        for d in (2, 3):
            for alpha in (0.25, 19):
                for s in range(seeds):
                    tree, trim, almost, src = make_synthetic_state(
                        n, r, d, int((1 + alpha) * n), 0.05, 500 + s)
                    res = absorb_leftovers(seed_graph, tree, trim, almost,
                                           delta, d, r / n,
                                           src.substream("absorb"))
                    outcomes.add((res.stage, (res.detail or "")[:18]))
                    rows.append((res.stage, res.detail, res.trace,
                                 res.used_absorbers,
                                 sorted((res.mapping or {}).items()),
                                 sorted(res.edge_colours.items())))
    assert outcomes == {(None, ""), ("absorption", "[absorption] none "),
                        ("absorption", "[absorption] all 2"),
                        ("partition", "[partition] minimu")}
    digest = hashlib.blake2b(repr(rows).encode(), digest_size=16)
    assert digest.hexdigest() == "676fc62c8dd34194e75bc00e669f84a9"


def test_absorb_leftovers_nothing_to_absorb():
    # a planted state that already spans reduces to validation only
    n = 40
    tree, trim, almost, src = make_synthetic_state(n, 0, 2, 4 * n, 0.3, 77)
    res = absorb_leftovers(complete_graph(n), tree, trim, almost, 0.5, 2,
                           0.01, src.substream("absorb"))
    assert res.success
    assert res.r == 0
    assert res.perm is None
    assert res.used_absorbers == ()
    assert res.r_max_degree is None
    assert not [line for line in res.trace if line.startswith("i=")]
    assert res.mapping == almost.embedding
    assert sorted(res.mapping.values()) == list(range(n))


def test_absorb_leftovers_propagates_earlier_failure():
    n = 30
    tree, trim, almost, src = make_synthetic_state(n, 3, 2, 4 * n, 0.3, 5)
    failed = AlmostSpanningResult(
        success=False, stage="expander", detail="no expander survived",
        trace=("stage=expander status=fail detail=-",), embedding=None,
        edge_colours={}, params=None, hypothesis_met=False, regime={},
        reservoir_used=frozenset(), oracle=almost.oracle)
    res = absorb_leftovers(complete_graph(n), tree, trim, failed, 0.5, 2,
                           0.1, src.substream("absorb"))
    assert not res.success
    assert res.stage == "expander"
    assert res.detail == "no expander survived"
    assert res.trace[-1] == failed.trace[0]


# -- the full spanning entry point ------------------------------------------


def test_embed_spanning_validation():
    n = 20
    seed_graph = complete_graph(n)
    src = RandomSource(3)
    with pytest.raises(ParameterError):
        embed_spanning(seed_graph, 0.5, path_tree(n - 1), 0.5, 1.0, 2, src)
    with pytest.raises(ParameterError):
        embed_spanning(seed_graph, 0.5, path_tree(n), 0.5, 1.0, 2, src,
                       eps_override=1.5)
    with pytest.raises(ParameterError):
        embed_spanning(seed_graph, 0.5, star_tree(n - 1), 0.5, 1.0, 3, src)
    with pytest.raises(ParameterError):
        embed_spanning(seed_graph, 0.5, path_tree(n), 0.5, -0.1, 2, src)
    with pytest.raises(ParameterError):
        embed_spanning(seed_graph, 1.5, path_tree(n), 0.5, 1.0, 2, src)
    sparse = ColouredGraph(n, [(i, (i + 1) % n) for i in range(n)])
    with pytest.raises(ParameterError):
        embed_spanning(sparse, 0.5, path_tree(n), 0.5, 1.0, 2, src)


def test_embed_spanning_honest_stage_failure():
    # at this order the random part is far too thin for the trimmed-tree
    # pipeline; the run must fail at a named stage, not blow up, and the
    # setup line must show both the prescribed and the applied trim
    n = 60
    p = math.log(n) / n
    seed_graph = gen_seed_graph(n, 0.4, "clique-union", RandomSource(21))
    for s in range(3):
        src = RandomSource(100 + s)
        tree = gen_random_bounded_tree(n, 3, src.substream("tree"))
        res = embed_spanning(seed_graph, p, tree, 0.4, 0.25, 3, src,
                             eps_override=0.15)
        assert not res.success
        assert res.stage in ("sparsify", "expander", "root-edges", "embed",
                             "available-colours", "partition", "absorption",
                             "build-I0")
        assert res.r == 9
        assert "eps_formula=1.37e-08" in res.trace[0]
        assert "eps_used=0.15" in res.trace[0]
        assert not [line for line in res.trace if line.startswith("i=")]


def test_embed_spanning_full_size_needs_headroom():
    # with no trim the block layout must hold the whole tree plus slack,
    # which is one more vertex than the host has at any order
    n = 40
    with pytest.raises(InfeasibleParameters):
        embed_spanning(complete_graph(n), 0.8, path_tree(n), 0.5, 2.0, 2,
                       RandomSource(11), eps_override=1e-6)

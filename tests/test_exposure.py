"""Exposure oracle: one-shot revelation, ledger audits, label transport."""

import itertools

import numpy as np
import pytest

from rainbowtrees import ParameterError, RandomSource
from rainbowtrees.exposure import ExposureError, ExposureOracle

from oracles import ReferenceExposureOracle


def make(n=10, palette=16, p=0.5, seed=7):
    return ExposureOracle(n, palette, p, RandomSource(seed))


def test_validation():
    with pytest.raises(ParameterError):
        ExposureOracle(0, 4, 0.5, RandomSource(1))
    with pytest.raises(ParameterError):
        ExposureOracle(4, 0, 0.5, RandomSource(1))
    with pytest.raises(ParameterError):
        ExposureOracle(4, 4, 1.5, RandomSource(1))
    o = make()
    with pytest.raises(ParameterError):
        o.expose_presence((3, 3))
    with pytest.raises(ParameterError):
        o.expose_presence((0, 10))


def test_expose_once_then_query():
    o = make()
    assert not o.presence_exposed((1, 2))
    with pytest.raises(ExposureError):
        o.presence_of((1, 2))
    value = o.expose_presence((2, 1), stage=1)
    assert o.presence_exposed((1, 2))
    assert o.presence_of((1, 2)) == value
    # second exposure of the same pair is a bug regardless of orientation
    with pytest.raises(ExposureError):
        o.expose_presence((1, 2))
    c = o.expose_colour((1, 2))
    assert 0 <= c < 16
    assert o.colour_of((2, 1)) == c
    with pytest.raises(ExposureError):
        o.expose_colour((2, 1))
    assert o.ledger == [("probe", (1, 2), 1), ("tint", (1, 2), 0)]


def test_presence_and_colour_independent():
    # colour may be revealed without presence and vice versa
    o = make()
    o.expose_colour((0, 1))
    assert not o.presence_exposed((0, 1))
    o.expose_presence((0, 1))
    assert o.colour_exposed((0, 1))


def test_exposure_order_does_not_change_values():
    # values are pair-keyed, not order-keyed
    a, b = make(seed=11), make(seed=11)
    pairs = [(0, 1), (2, 3), (4, 5), (1, 2)]
    for q in pairs:
        a.expose_presence(q)
    for q in reversed(pairs):
        b.expose_presence(q)
    assert all(a.presence_of(q) == b.presence_of(q) for q in pairs)


def test_presence_frequency():
    o = make(n=40, p=0.3, seed=23)
    hits = sum(o.expose_presence((u, v))
               for u in range(40) for v in range(u + 1, 40))
    # 780 draws at p=0.3: mean 234, sd ~ 12.8
    assert 170 <= hits <= 300


def test_record_block():
    o = make(n=8, palette=32)
    o.record_block([0, 1, 2, 3], [(0, 1), (2, 3)], [5, 9], stage=2)
    assert o.presence_of((0, 1)) and o.presence_of((2, 3))
    assert not o.presence_of((0, 2)) and not o.presence_of((1, 3))
    assert o.colour_of((0, 1)) == 5 and o.colour_of((2, 3)) == 9
    # colours of excluded pairs stay unknown
    assert not o.colour_exposed((0, 2))
    with pytest.raises(ExposureError):
        o.colour_of((0, 2))
    # the whole block is presence-burned now
    with pytest.raises(ExposureError):
        o.expose_presence((1, 2))
    # pairs outside the block are untouched
    assert not o.presence_exposed((4, 5))
    # the block is one ledger entry
    assert o.ledger == [("block", (0, 1, 2, 3), 2)]


def test_record_block_rejects_bad_input():
    o = make(n=8)
    with pytest.raises(ParameterError):
        o.record_block([0, 1, 2], [(0, 5)], [1], stage=1)   # leaves the block
    o.record_block([0, 1, 2], [(0, 1)], [1], stage=1)
    with pytest.raises(ExposureError):
        o.record_block([1, 2, 3], [(2, 3)], [2], stage=2)   # (1,2) again
    with pytest.raises(ParameterError):
        o.record_block([4, 5], [(4, 5)], [99], stage=2)     # colour off-palette
    o.expose_presence((4, 5))
    with pytest.raises(ExposureError):
        o.record_block([4, 5, 6], [(5, 6)], [2], stage=2)   # (4,5) probed
    o.expose_colour((6, 7))
    with pytest.raises(ExposureError):
        o.record_block([6, 7], [(6, 7)], [2], stage=2)      # colour again
    with pytest.raises(ParameterError):
        o.record_block([7, 8], [], [], stage=2)             # outside range(8)
    # a rejected block leaves no trace
    assert not o.presence_exposed((5, 6)) and not o.colour_exposed((5, 6))
    assert o.ledger == [("block", (0, 1, 2), 1), ("probe", (4, 5), 0),
                        ("tint", (6, 7), 0)]


def _state(o):
    """Everything a block write touches, dict key order included."""
    return (list(o._presence.items()), list(o._colour.items()),
            o._block.tolist(), o.ledger, np.flatnonzero(o._touched).tolist())


def test_record_block_rejects_bad_arrays():
    # the rejections above, with the pairs and colours as int64 arrays,
    # a loop, and counts that differ; each leaves no trace, on the oracle
    # or its ledger
    def arrays(pairs, colours):
        return (np.array(pairs, dtype=np.int64).reshape(-1, 2),
                np.array(colours, dtype=np.int64))

    o = make(n=8)
    clean = _state(o)
    for vertices, pairs, colours, error in [
            ([0, 1, 2], [(0, 5)], [1], ParameterError),   # leaves the block
            ([0, 1, 2], [(1, 1)], [1], ParameterError),   # a loop
            ([0, 1, 2], [(0, 1), (2, 2)], [1, 2], ParameterError),
            ([0, 1, 2], [(0, 8)], [1], ParameterError),   # outside range(8)
            ([0, 1, 2], [(-1, 0)], [1], ParameterError),
            ([0, 1, 2], [(0, 1)], [16], ParameterError),  # colour off-palette
            ([0, 1, 2], [(0, 1)], [-1], ParameterError)]:
        with pytest.raises(error):
            o.record_block(np.array(vertices), *arrays(pairs, colours), 1)
        assert _state(o) == clean
    # a count of colours other than the count of pairs, either side
    # longer, as lists or as arrays
    for pairs, colours in [([(0, 1), (1, 2), (2, 3)], [4, 5]),
                           ([(0, 1)], [4, 5])]:
        for given in ((pairs, colours), arrays(pairs, colours)):
            with pytest.raises(ParameterError):
                o.record_block([0, 1, 2, 3], *given, 1)
            assert _state(o) == clean
    o.record_block(np.array([0, 1, 2]), *arrays([(0, 1)], [1]), 1)
    for call, error in [
            (lambda: o.record_block([1, 2, 3], *arrays([(2, 3)], [2]), 2),
             ExposureError),                              # (1,2) again
            (lambda: o.record_block([4, 5], *arrays([(4, 5)], [99]), 2),
             ParameterError),                             # colour off-palette
            (lambda: o.expose_presence((4, 5)), None),
            (lambda: o.record_block([4, 5, 6], *arrays([(5, 6)], [2]), 2),
             ExposureError),                              # (4,5) probed
            (lambda: o.expose_colour((6, 7)), None),
            (lambda: o.record_block([6, 7], *arrays([(7, 6)], [2]), 2),
             ExposureError),                              # colour again
            (lambda: o.record_block([7, 8], *arrays([], []), 2),
             ParameterError)]:                            # outside range(8)
        if error is None:
            call()
            continue
        before = _state(o)
        with pytest.raises(error):
            call()
        assert _state(o) == before
    assert not o.presence_exposed((5, 6)) and not o.colour_exposed((5, 6))
    assert o.ledger == [("block", (0, 1, 2), 1), ("probe", (4, 5), 0),
                        ("tint", (6, 7), 0)]
    o.materialize_presence()
    with pytest.raises(ExposureError):
        o.record_block([3], *arrays([], []), 3)


def test_record_block_rejects_a_pair_listed_twice():
    # either colour order raises, not only the one whose last colour is
    # off the palette, and neither oracle writes anything
    for colours in ([99, 5], [5, 99]):
        o = make(n=8, palette=16)
        ref = ReferenceExposureOracle(8, 16, 0.5, RandomSource(7))
        clean = _state(o)
        for oracle in (o, ref):
            with pytest.raises(ParameterError):
                oracle.record_block([0, 1, 2], [(0, 1), (1, 0)], colours, 1)
        assert _state(o) == clean
        assert ref._presence == {} and ref._colour == {}


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_record_block_arrays_match_lists(seed):
    """A block handed over as arrays, canonical as `sparsify` writes them
    or in mixed orientation, leaves the oracle as the same block handed
    over as lists does, dict key order included, and both answer as the
    per-pair reference oracle does."""
    n, palette, p = 30, 11, 0.3
    gen = np.random.default_rng(seed)
    lists, canon, mixed = (ExposureOracle(n, palette, p, RandomSource(seed))
                           for _ in range(3))
    ref = ReferenceExposureOracle(n, palette, p, RandomSource(seed))
    blocks = np.array_split(gen.permutation(n - 4), 3)
    for o in (lists, canon, mixed, ref):
        o.expose_presence((n - 4, n - 3))
        o.expose_colour((n - 2, 0))
    for stage, block in enumerate(blocks, 1):
        pairs = [q for q in itertools.combinations(sorted(block.tolist()), 2)
                 if gen.random() < 0.4]
        flipped = [(v, u) if gen.random() < 0.5 else (u, v) for u, v in pairs]
        colours = gen.integers(0, palette, len(pairs))
        lists.record_block(block.tolist(), flipped, colours.tolist(), stage)
        canon.record_block(block, np.array(pairs, dtype=np.int64)
                           .reshape(-1, 2), colours, stage)
        mixed.record_block(iter(block.tolist()),
                           np.array(flipped, dtype=np.int64).reshape(-1, 2),
                           colours, stage)
        ref.record_block(block.tolist(), flipped, colours.tolist(), stage)
        assert _state(canon) == _state(lists) == _state(mixed)
        assert all(type(c) is int for c in canon._colour.values())
    assert len(canon.ledger) == 5
    _assert_same_answers(canon, ref)


def test_block_sharing_a_vertex_is_rejected():
    # blocks are vertex disjoint, even when no pair of the new block was
    # decided before
    o = make(n=8)
    o.record_block([0, 1, 2], [(0, 1)], [1], stage=1)
    with pytest.raises(ExposureError):
        o.record_block([2, 3, 4], [(3, 4)], [2], stage=2)
    assert not o.presence_exposed((3, 4))
    o.assert_vertices_untouched([3, 4])
    o.record_block([3, 4], [(3, 4)], [2], stage=2)
    assert o.presence_of((3, 4)) and not o.presence_exposed((2, 3))


def test_untouched_audit():
    o = make(n=10)
    o.expose_presence((1, 2))
    o.assert_vertices_untouched([5, 6, 7])
    with pytest.raises(ExposureError):
        o.assert_vertices_untouched([2, 5])
    o.record_block([5, 6], [(5, 6)], [3], stage=1)
    with pytest.raises(ExposureError):
        o.assert_vertices_untouched([6])


def test_materialize_presence():
    o = make(n=30, p=0.2, seed=5)
    o.expose_presence((0, 1))
    forced = o.presence_of((0, 1))
    edges = o.materialize_presence()
    assert o.presence_complete
    # sorted canonical int64 rows, like ColouredGraph.edge_array()
    assert edges.dtype == np.int64 and edges.shape == (len(edges), 2)
    assert (edges[:, 0] < edges[:, 1]).all()
    assert edges.tolist() == sorted(edges.tolist())
    assert ([0, 1] in edges.tolist()) == forced
    # idempotent: a second call returns the same rows and adds no ledger
    # entry
    marks = len(o.ledger)
    assert np.array_equal(o.materialize_presence(), edges)
    assert len(o.ledger) == marks
    assert np.array_equal(o.presence_edges(), edges)
    # unseen pairs have a definite answer now, but cannot be re-exposed
    assert o.presence_of((10, 11)) in (False, True)
    with pytest.raises(ExposureError):
        o.expose_presence((12, 13))
    with pytest.raises(ExposureError):
        o.record_block([12, 13], [(12, 13)], [0], stage=3)
    # colours stay lazy
    c = o.expose_colour((10, 11))
    assert o.colour_of((10, 11)) == c


def test_materialize_keeps_block_pairs_absent():
    # at p = 1 the sample holds every pair; inside the block only the
    # included ones stay present
    o = make(n=10, p=1.0)
    o.record_block(range(6), [(0, 1), (2, 5)], [3, 4], stage=1)
    edges = o.materialize_presence()
    inside = set(itertools.combinations(range(6), 2))
    assert set(map(tuple, edges.tolist())) == (
        set(itertools.combinations(range(10), 2)) - inside | {(0, 1), (2, 5)})
    assert not o.presence_of((1, 2)) and o.presence_of((6, 7))


def test_materialize_before_anything():
    o = make(n=25, p=0.15, seed=9)
    edges = o.materialize_presence()
    assert o.presence_of((3, 4)) == ([3, 4] in edges.tolist())
    count = len(edges)
    # 300 pairs at p=0.15: mean 45, sd ~ 6.2
    assert 18 <= count <= 76


def test_apply_permutation_transports_state():
    o = make(n=6, palette=8, seed=3)
    o.expose_presence((0, 1), stage=1)
    colour = o.expose_colour((0, 1))
    o.record_block([3, 4, 5], [(3, 4)], [2], stage=2)
    pres = o.presence_of((0, 1))
    perm = [5, 4, 3, 2, 1, 0]
    o.apply_permutation(perm)
    assert o.presence_of((4, 5)) == pres
    assert o.colour_of((4, 5)) == colour     # a colour travels with its pair
    assert o.presence_of((1, 2))            # image of (3, 4)
    assert o.colour_of((1, 2)) == 2
    assert not o.presence_of((0, 1))        # image of (4, 5), excluded pair
    # the ledger is append-only: earlier entries keep their labels, and
    # the permutation is logged last
    assert o.ledger[:-1] == [("probe", (0, 1), 1), ("tint", (0, 1), 0),
                             ("block", (3, 4, 5), 2)]
    assert o.ledger[-1] == ("permute", tuple(perm), 0)
    o.assert_vertices_untouched([3])        # image of untouched vertex 2
    with pytest.raises(ExposureError):
        o.assert_vertices_untouched([5])


def test_block_membership_follows_permutation():
    o = make(n=8)
    o.record_block([0, 1, 2], [(0, 1)], [3], stage=1)
    perm = [(v + 5) % 8 for v in range(8)]                 # 0, 1, 2 -> 5, 6, 7
    o.apply_permutation(perm)
    assert o.presence_of((5, 6)) and o.colour_of((5, 6)) == 3
    assert o.presence_exposed((6, 7)) and not o.presence_of((6, 7))
    with pytest.raises(ExposureError):
        o.expose_presence((5, 7))
    assert not o.presence_exposed((0, 1))                  # image of (3, 4)
    with pytest.raises(ExposureError):
        o.record_block([4, 5], [], [], stage=2)            # 5 is a block vertex
    o.record_block([0, 1, 2], [(1, 2)], [4], stage=2)      # images of 3, 4, 5
    assert o.presence_of((1, 2)) and not o.presence_of((0, 2))
    assert o.ledger[0] == ("block", (0, 1, 2), 1)
    assert o.ledger[-1] == ("block", (0, 1, 2), 2)


def _outcome(call):
    """A call's value, rows as a list, or the type of the exposure error
    it raised."""
    try:
        value = call()
    except (ExposureError, ParameterError) as exc:
        return type(exc)
    return value.tolist() if isinstance(value, np.ndarray) else value


def _assert_index_matches_scan(new, ref):
    """colour_exposed_at(u) lists the w with colour_exposed((u, w))."""
    for u in range(new.n):
        assert new.colour_exposed_at(u) == tuple(
            w for w in range(new.n) if w != u and ref.colour_exposed((u, w))), u


def _assert_same_answers(new, ref):
    _assert_index_matches_scan(new, ref)
    for pair in itertools.combinations(range(new.n), 2):
        for query in ("presence_exposed", "colour_exposed", "presence_of",
                      "colour_of"):
            got = _outcome(lambda: getattr(new, query)(pair))
            want = _outcome(lambda: getattr(ref, query)(pair))
            assert got == want, (query, pair)
    assert _outcome(new.presence_edges) == _outcome(ref.presence_edges)


@pytest.mark.parametrize("seed, permute_first, n, p", [
    *(pytest.param(seed, first, 24, 0.35, id="%d-%s" % (seed, first))
      for seed in (1, 2, 3) for first in (False, True)),
    pytest.param(4, False, 120, 0.05, id="n120")])
def test_matches_reference_oracle(seed, permute_first, n, p):
    """Block storage by vertex set answers every query as the per-pair
    reference does, through probes, tints, disjoint blocks, rejected
    calls, materialization and relabelling.  At n = 120 a block over
    labels 24.. puts thousands of keys through the relabelling and the
    sorted presence rows."""
    palette = 9
    new = ExposureOracle(n, palette, p, RandomSource(seed))
    ref = ReferenceExposureOracle(n, palette, p, RandomSource(seed))
    gen = np.random.default_rng(seed)

    def both(method, *args):
        got = _outcome(lambda: getattr(new, method)(*args))
        want = _outcome(lambda: getattr(ref, method)(*args))
        assert got == want, (method, args)

    shuffled = [15, 11, 13, 12, 14]
    blocks = [range(3, 10), shuffled, [20]]
    if n > 24:
        blocks.append(range(24, n))
    included = []
    for block in blocks:
        pairs = [q for q in itertools.combinations(sorted(block), 2)
                 if gen.random() < 0.4]
        included.append([(v, u) if gen.random() < 0.5 else (u, v)
                         for u, v in pairs])
    chosen = {(min(q), max(q)) for pairs in included for q in pairs}

    # probes outside every block, some crossing a block's boundary
    for u, v in [(0, 1), (2, 21), (22, 3), (16, 15), (23, 0), (17, 18)]:
        both("expose_presence", (u, v))
    # tints anywhere except on pairs a block will include
    for _ in range(30):
        u, v = sorted(gen.choice(n, 2, replace=False).tolist())
        if (u, v) not in chosen:
            both("expose_colour", (u, v))
    # the by-vertex index is built here, so each later step must keep it
    # current or drop it
    _assert_index_matches_scan(new, ref)
    for block, pairs in zip(blocks, included):
        colours = gen.integers(0, palette, len(pairs)).tolist()
        both("record_block", block, pairs, colours, 1)
    # rejected before either oracle writes anything
    both("record_block", [3, 4, 21], [(3, 4)], [0], 2)
    both("record_block", [21, 22], [(21, 5)], [0], 2)
    both("expose_presence", (4, 8))
    assert len(new._presence) == 6 + len(chosen)
    _assert_same_answers(new, ref)

    perm = gen.permutation(n).tolist()
    steps = [("materialize_presence",), ("apply_permutation", perm)]
    if permute_first:
        steps.reverse()
    for step in steps:
        both(*step)
        _assert_same_answers(new, ref)
    for u, v in [(0, 2), (5, 6), (19, 23)]:
        both("expose_colour", (u, v))
    both("expose_presence", (0, 2))
    both("record_block", [0, 1], [], [], 3)
    _assert_same_answers(new, ref)


def test_colour_index_by_vertex():
    o = make(n=6)
    assert o.colour_exposed_at(2) == ()
    o.expose_colour((2, 5))
    o.expose_colour((0, 2))
    assert o.colour_exposed_at(2) == (0, 5)
    assert o.colour_exposed_at(5) == (2,) and o.colour_exposed_at(1) == ()
    o.apply_permutation([(v + 1) % 6 for v in range(6)])
    assert o.colour_exposed_at(3) == (0, 1) and o.colour_exposed_at(2) == ()
    with pytest.raises(ParameterError):
        o.colour_exposed_at(6)


def test_apply_permutation_validates():
    o = make(n=4)
    with pytest.raises(ParameterError):
        o.apply_permutation([0, 1, 2])                     # wrong size
    with pytest.raises(ParameterError):
        o.apply_permutation([0, 1, 3, 3])                  # not a bijection
    with pytest.raises(ParameterError):
        o.apply_permutation([1, 0, 0, 3])                  # not injective
    with pytest.raises(ParameterError):
        # a dict, though its sorted keys would pass a sort-only check
        o.apply_permutation({0: 1, 1: 0, 2: 2, 3: 3})
    assert o.ledger == []
    o.apply_permutation([1, 0, 2, 3])
    assert o.ledger == [("permute", (1, 0, 2, 3), 0)]


def test_exposure_counts():
    o = make(n=12)
    assert o.colour_exposure_count() == 0
    o.expose_colour((0, 1))
    o.expose_colour((5, 7))
    assert o.colour_exposure_count() == 2

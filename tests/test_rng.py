"""Random sources: the generator is the Philox stream its key names."""

import numpy as np
import pytest

from rainbowtrees.rng import RandomSource, _PhiloxKey

TOP = (1 << 64) - 1


def test_generator_is_the_keyed_philox_stream():
    gen = np.random.default_rng(67)
    cases = [(0, 0), (TOP, 0), (0, TOP), (TOP, TOP), (8101, 5)]
    cases += [(int(a), int(b)) for a, b in gen.integers(0, 1 << 62, size=(20, 2))]
    for seed, stream in cases:
        got = RandomSource(seed, stream).generator()
        want = np.random.Generator(np.random.Philox(key=seed | stream << 64))
        a, b = got.bit_generator.state, want.bit_generator.state
        assert a["state"]["key"].tolist() == b["state"]["key"].tolist()
        assert a["state"]["counter"].tolist() == b["state"]["counter"].tolist()
        assert (a["buffer_pos"], a["has_uint32"]) == (b["buffer_pos"], b["has_uint32"])
        assert got.integers(0, 1 << 40, size=9).tolist() \
            == want.integers(0, 1 << 40, size=9).tolist()
        assert got.random() == want.random()


def test_generators_of_one_source_are_independent():
    src = RandomSource(3, 4)
    first, second = src.generator(), src.generator()
    head = first.random(5).tolist()
    assert second.random(5).tolist() == head
    assert src.generator().random(5).tolist() == head


def test_key_refuses_any_other_state_request():
    # a bit generator asking for another state shape must not get a
    # wrong key silently, with or without `python -O`
    key = _PhiloxKey(8101)
    assert key.generate_state(2, np.uint64).tolist() == [8101, 0]
    for n_words, dtype in [(4, np.uint32), (2, np.uint32), (3, np.uint64)]:
        with pytest.raises(TypeError):
            key.generate_state(n_words, dtype)


def test_numpy_integers_name_the_plain_int_source():
    plain = RandomSource(4, 3)
    for seed, stream in [(np.int64(4), 3), (4, np.int64(3)),
                         (np.uint64(4), np.uint32(3)), (np.int8(4), True + 2)]:
        src = RandomSource(seed, stream)
        assert (type(src.seed), type(src.stream)) == (int, int)
        assert src == plain and hash(src) == hash(plain)
        assert src.generator().integers(0, 1 << 40, size=9).tolist() \
            == plain.generator().integers(0, 1 << 40, size=9).tolist()
        for tag in ("seed-graph", 7):
            child, want = src.substream(tag), plain.substream(tag)
            assert child == want
            assert child.generator().random(4).tolist() \
                == want.generator().random(4).tolist()
    top = RandomSource(np.uint64(TOP), np.uint64(TOP))
    assert (top.seed, top.stream) == (TOP, TOP)
    top.generator()


def test_non_integers_fail_at_construction():
    for seed, stream in [(4.0, 0), (4, 3.0), ("4", 0), (np.float64(4), 0),
                         (None, 0)]:
        with pytest.raises(TypeError):
            RandomSource(seed, stream)
    for seed, stream in [(-1, 0), (0, TOP + 1), (np.int64(-2), 0)]:
        with pytest.raises(ValueError):
            RandomSource(seed, stream)

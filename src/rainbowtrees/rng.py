"""Counter-based random sources with cheap independent substreams.

Every randomized routine in this package takes a RandomSource instead of a
bare seed.  Two sources with the same (seed, stream) produce identical
generators on every platform; sources with different streams are
statistically independent.  Trial i of an experiment uses stream i, so
trials can run in any order (or in parallel) and still reproduce.
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK64 = (1 << 64) - 1


class _PhiloxKey(ISeedSequence):
    """A fixed 128-bit Philox key, handed over as the seed state.

    `Philox(key=k)` first seeds itself from fresh OS entropy and then
    overwrites the key; a seed sequence whose state is the key itself
    gives the same generator (counter 0, empty buffer) without the
    entropy draw, which is most of the cost of a small stream.
    """

    __slots__ = ("words",)

    def __init__(self, key: int):
        self.words = np.array([key & _MASK64, key >> 64], dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        # Philox asks for its whole key at once; anything else would
        # silently seed a wrong key, so fail loudly in every mode
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise TypeError("a Philox key is 2 uint64 words, asked for %r of %s"
                            % (n_words, np.dtype(dtype)))
        return self.words


@dataclass(frozen=True)
class RandomSource:
    """An addressable point in a counter-based random stream."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        # numpy integers are stored as Python ints, and anything that is
        # no integer, such as 4.0, raises TypeError here
        object.__setattr__(self, "seed", operator.index(self.seed))
        object.__setattr__(self, "stream", operator.index(self.stream))
        if not 0 <= self.seed <= _MASK64:
            raise ValueError("seed must fit in 64 bits, got %r" % (self.seed,))
        if not 0 <= self.stream <= _MASK64:
            raise ValueError("stream must fit in 64 bits, got %r" % (self.stream,))

    def generator(self) -> np.random.Generator:
        """A fresh Generator positioned at the start of this stream."""
        key = (self.seed & _MASK64) | ((self.stream & _MASK64) << 64)
        return np.random.Generator(np.random.Philox(_PhiloxKey(key)))

    def substream(self, tag) -> "RandomSource":
        """Derive an independent child source from a hashable tag.

        The child's stream index is a 64-bit hash of (seed, stream, tag),
        so distinct tags give distinct, order-independent streams.
        """
        raw = ("%d:%d:%r" % (self.seed, self.stream, tag)).encode()
        child = int.from_bytes(hashlib.blake2b(raw, digest_size=8).digest(), "big")
        return RandomSource(self.seed, child)


def spawn_trial_source(seed: int, trial: int) -> RandomSource:
    """The canonical source for trial number `trial` of a run seeded `seed`."""
    return RandomSource(seed, trial)

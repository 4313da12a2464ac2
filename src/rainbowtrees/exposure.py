"""Lazy revelation of a random host graph and its colouring.

Embedding runs never materialise their random host up front.  An oracle
answers two questions about any vertex pair on demand: does the pair
belong to the random perturbation, and which colour does it carry.  Each
answer is drawn once from a pair-keyed substream, memoised, and written
to a ledger, so audits can confirm that no step peeked at a value before
the step that was supposed to reveal it.

Presence and colour are revealed independently: a block sparsification
reveals presence for every pair inside the block but colours only for
the pairs it included, matching what the sampling actually consumed.
A block is stored as its vertex set plus its included pairs, so a pair
inside it that was not included is absent without an entry of its own.
The ledger is append-only: a block is one ("block", vertices, stage)
entry, and a relabelling appends ("permute", perm, 0).  Revealed values
are keyed by pair codes, as ColouredGraph's edge_codes() are, so bulk
steps write and relabel them in numpy; graphs.py checks, encodes and
decodes the codes (`pair_codes`, `edge_code`, `pair_ends`).
"""

from __future__ import annotations

from itertools import compress, islice
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .errors import ParameterError, RainbowTreesError
from .graphs import (canonical_edge, edge_code, gen_gnp, pair_array,
                     pair_codes, pair_ends)
from .rng import RandomSource

Pair = Tuple[int, int]


class ExposureError(RainbowTreesError):
    """An exposure contract was violated (a pair was revealed twice, or a
    value was consulted before being revealed).  Always a bug, never a
    random outcome."""


class ExposureOracle:
    """Memoised source of pair presence (in the random graph) and colour.

    Parameters
    ----------
    n : label space; pairs are over range(n).
    palette_size : colours are uniform over range(palette_size).
    p : Bernoulli presence probability for the random perturbation.
    source : RandomSource owning this oracle's randomness.
    """

    def __init__(self, n: int, palette_size: int, p: float,
                 source: RandomSource):
        if n < 1:
            raise ParameterError("n must be >= 1, got %r" % n)
        if palette_size < 1:
            raise ParameterError("palette_size must be >= 1")
        if not 0.0 <= p <= 1.0:
            raise ParameterError("p must lie in [0, 1], got %r" % p)
        self.n = int(n)
        self.palette_size = int(palette_size)
        self.p = float(p)
        self.source = source
        # revealed values by pair code
        self._presence: Dict[int, bool] = {}
        self._colour: Dict[int, int] = {}
        # the (k, 2) ends of the pairs keyed first in the colour book, k
        # of them; colour_exposed_at adds the keys written since, and a
        # relabelling moves them with the book
        self._colour_ends = np.empty((0, 2), dtype=np.int64)
        # block number of each vertex, -1 outside every block
        self._block = np.full(self.n, -1, dtype=np.int64)
        self.ledger: List[Tuple[str, object, int]] = []
        # the vertices some ledger entry touched
        self._touched = np.zeros(self.n, dtype=bool)
        self.presence_complete = False

    def _norm(self, pair) -> Tuple[Pair, int]:
        """The canonical pair (u < v) and its pair code; a loop, a label
        that is not an integer or one outside range(n) raises
        ParameterError, as `pair_codes` does for the same labels."""
        try:
            u, v = int(pair[0]), int(pair[1])
            whole = u == pair[0] and v == pair[1]
        except (ValueError, OverflowError):           # nan, inf, -inf
            whole = False
        if not whole:
            raise ParameterError("pair %r has a label that is not an "
                                 "integer" % (tuple(pair),))
        key = canonical_edge(u, v)
        if not (0 <= key[0] and key[1] < self.n):
            raise ParameterError("pair %r outside range(%d)" % (key, self.n))
        return key, edge_code(key[0], key[1], self.n)

    def _in_block(self, key: Pair) -> bool:
        """Both ends lie in one block, which decided the pair's presence."""
        b = self._block[key[0]]
        return bool(b >= 0 and b == self._block[key[1]])

    # -- queries ---------------------------------------------------------

    def presence_exposed(self, pair) -> bool:
        key, code = self._norm(pair)
        return code in self._presence or self._in_block(key)

    def colour_exposed(self, pair) -> bool:
        return self._norm(pair)[1] in self._colour

    def colour_exposed_at(self, u: int) -> Tuple[int, ...]:
        """The w, ascending, whose pair (u, w) has a revealed colour."""
        u = int(u)
        if not 0 <= u < self.n:
            raise ParameterError("vertex %d outside range(%d)" % (u, self.n))
        new = len(self._colour) - len(self._colour_ends)
        if new:
            # the book only grows between relabellings, and a dict keeps
            # insertion order: the new keys are its last ones
            self._colour_ends = np.concatenate(
                [self._colour_ends,
                 pair_ends(islice(reversed(self._colour), new), self.n)])
        lo, hi = self._colour_ends.T
        return tuple(sorted(hi[lo == u].tolist() + lo[hi == u].tolist()))

    def presence_of(self, pair) -> bool:
        """Already-revealed presence; consulting an unrevealed pair is a bug."""
        key, code = self._norm(pair)
        if code in self._presence:
            return self._presence[code]
        if self.presence_complete or self._in_block(key):
            return False
        raise ExposureError("presence of %r consulted before exposure" % (key,))

    def colour_of(self, pair) -> int:
        key, code = self._norm(pair)
        if code not in self._colour:
            raise ExposureError("colour of %r consulted before exposure" % (key,))
        return self._colour[code]

    def colours_of(self, pairs: Sequence[Pair]) -> List[int]:
        """colour_of for each of `pairs`, in either orientation, in one
        read of the colour book.  A malformed pair, a loop or a label
        that is not an integer or lies outside range(n) raises
        ParameterError, and the first pair without a revealed colour
        raises ExposureError."""
        rows = pair_array(pairs)
        codes, inside = pair_codes(rows[:, 0], rows[:, 1], self.n)
        if not inside.all():
            raise ParameterError("a pair lies outside range(%d)" % self.n)
        return self.colours_by_code(codes)

    def colours_by_code(self, codes: np.ndarray) -> List[int]:
        """The revealed colour of each pair code (of a pair of range(n));
        the first code without one raises ExposureError."""
        out = list(map(self._colour.get, codes.tolist()))
        if None in out:
            (key,) = pair_ends(codes[[out.index(None)]], self.n).tolist()
            raise ExposureError("colour of %r consulted before exposure"
                                % (tuple(key),))
        return out

    def presence_by_code(self, codes: np.ndarray) -> np.ndarray:
        """presence_of for each pair code (of a pair of range(n)), as a
        mask, in one read of the book; the first code whose presence is
        unrevealed raises ExposureError."""
        got = list(map(self._presence.get, codes.tolist()))
        unknown = np.fromiter((g is None for g in got), dtype=bool,
                              count=len(got))
        if unknown.any() and not self.presence_complete:
            # a pair of one block had its presence decided by the block
            lo, hi = pair_ends(codes[unknown], self.n).T
            block = self._block[lo]
            open_ = (block < 0) | (block != self._block[hi])
            if open_.any():
                key = (int(lo[open_][0]), int(hi[open_][0]))
                raise ExposureError("presence of %r consulted before "
                                    "exposure" % (key,))
        return np.fromiter(map(bool, got), dtype=bool, count=len(got))

    # -- single-pair exposure --------------------------------------------

    def expose_presence(self, pair, kind: str = "probe", stage: int = 0) -> bool:
        key, code = self._norm(pair)
        if code in self._presence or self.presence_complete or self._in_block(key):
            raise ExposureError("pair %r presence exposed twice" % (key,))
        gen = self.source.substream(("edge",) + key).generator()
        value = bool(gen.random() < self.p)
        self._presence[code] = value
        self.ledger.append((kind, key, stage))
        self._touched[list(key)] = True
        return value

    def expose_colour(self, pair, kind: str = "tint", stage: int = 0) -> int:
        key, code = self._norm(pair)
        if code in self._colour:
            raise ExposureError("pair %r colour exposed twice" % (key,))
        gen = self.source.substream(("tint",) + key).generator()
        value = int(gen.integers(0, self.palette_size))
        self._colour[code] = value
        self.ledger.append((kind, key, stage))
        self._touched[list(key)] = True
        return value

    # -- bulk registration -------------------------------------------------

    def record_block(self, vertices: Iterable[int],
                     included_pairs: Iterable[Pair],
                     colours: Iterable[int], stage: int) -> None:
        """Register a block sparsification's raw sample.

        Every pair inside `vertices` had its presence decided (the included
        ones positively, the rest negatively); the included pairs also had
        their colours drawn.  The values were sampled by the sparsifier;
        this merely makes the oracle remember them.  Blocks are vertex
        disjoint, and no pair of a block may have been exposed before.

        `included_pairs` is a (k, 2) integer array, such as `sparsify`'s
        `sample_out["pairs"]`, or any iterable of pairs in either
        orientation; `colours` holds one colour per pair, in the same
        order.  The pairs are checked together, in numpy, before anything
        is written, so a rejected block leaves no trace: a malformed
        pair, a count of colours other than the count of pairs, a loop, a
        label that is not an integer or lies outside range(n), a pair
        leaving the block or a pair listed twice raises ParameterError,
        and so does a colour off the palette.
        """
        if self.presence_complete:
            raise ExposureError("cannot register a block after materialization")
        verts = sorted({int(v) for v in vertices})
        if verts and not (0 <= verts[0] and verts[-1] < self.n):
            raise ParameterError("block vertices outside range(%d)" % self.n)
        rows = pair_array(included_pairs)
        cols = np.asarray(colours if isinstance(colours, np.ndarray)
                          else list(colours), dtype=np.int64)
        k = len(cols)
        if len(rows) != k:
            raise ParameterError("%d included pairs but %d colours"
                                 % (len(rows), k))
        codes, in_range = pair_codes(rows[:, 0], rows[:, 1], self.n)
        if not in_range.all():
            raise ParameterError("an included pair lies outside range(%d)"
                                 % self.n)
        inside = np.zeros(self.n, dtype=bool)
        inside[verts] = True
        leaves = ~inside[rows].all(axis=1)
        if leaves.any():
            raise ParameterError("included pair %r leaves the block"
                                 % (tuple(rows[leaves.argmax()].tolist()),))
        inc = dict(zip(codes.tolist(), cols.tolist()))
        if len(inc) != k:
            raise ParameterError("the block lists a pair twice")
        if (self._block[verts] >= 0).any():
            raise ExposureError("block shares a vertex with an earlier block")
        # every pair with a revealed presence has both ends touched
        if self._touched[verts].any() and \
                inside[pair_ends(self._presence, self.n)].all(axis=1).any():
            raise ExposureError("a block pair had its presence exposed before")
        if not self._colour.keys().isdisjoint(inc) or (
                k and not (0 <= cols.min() and cols.max() < self.palette_size)):
            # the first offending pair in order decides the error, as a
            # check of one pair at a time would
            for code, c in inc.items():
                if code in self._colour:
                    (key,) = pair_ends([code], self.n).tolist()
                    raise ExposureError("block pair %r colour exposed twice"
                                        % (tuple(key),))
                if not 0 <= c < self.palette_size:
                    raise ParameterError("colour %d outside the palette" % c)
        self._block[verts] = self._block.max() + 1
        self._presence.update(dict.fromkeys(inc, True))
        self._colour.update(inc)
        self.ledger.append(("block", tuple(verts), stage))
        self._touched[verts] = True

    def materialize_presence(self) -> np.ndarray:
        """Decide presence for every still-unrevealed pair, in bulk.

        Returns the edge rows of the random perturbation, as
        presence_edges() does.  Colours stay lazy.  Idempotent after the
        first call.
        """
        if not self.presence_complete:
            drawn = gen_gnp(self.n, self.p,
                            self.source.substream("materialize"))
            # already decided pairs (inside a block or probed) keep their value
            ends = self._block[drawn.edge_array()]
            fresh = drawn.edge_codes()[(ends[:, 0] < 0)
                                       | (ends[:, 0] != ends[:, 1])]
            self._presence = {**dict.fromkeys(fresh.tolist(), True),
                              **self._presence}
            self.presence_complete = True
            self.ledger.append(("materialize", None, 0))
        return self.presence_edges()

    def presence_edges(self) -> np.ndarray:
        """Edges of the perturbation as lexicographically sorted canonical
        (m, 2) int64 rows, like ColouredGraph.edge_array(); requires a
        prior materialization."""
        if not self.presence_complete:
            raise ExposureError("presence has not been fully materialized")
        codes = np.fromiter(compress(self._presence, self._presence.values()),
                            dtype=np.int64)
        return pair_ends(np.sort(codes), self.n)

    # -- audits ------------------------------------------------------------

    def assert_vertices_untouched(self, vertices: Iterable[int]) -> None:
        """No ledger entry may touch the given vertex set yet."""
        vs = np.fromiter(vertices, dtype=np.int64)
        vs = vs[(vs >= 0) & (vs < self.n)]
        overlap = vs[self._touched[vs]]
        if len(overlap):
            raise ExposureError(
                "exposure touched vertices %s before their stage"
                % sorted(set(overlap.tolist()))[:8])

    # -- label transport ---------------------------------------------------

    def apply_permutation(self, perm: Sequence[int]) -> None:
        """Relabel all recorded exposure through a permutation of range(n),
        given as a list with perm[old] the new label.

        Used by the randomness-shift argument: transporting the revealed
        pairs keeps the joint law intact because unrevealed pairs are
        exchangeable.  Earlier ledger entries keep their labels; the
        permutation is logged after them.
        """
        # sorted() of a dict would read its keys
        if isinstance(perm, dict) or sorted(perm) != list(range(self.n)):
            raise ParameterError("perm must list a permutation of range(%d)"
                                 % self.n)
        to = np.asarray(perm, dtype=np.int64)

        def move(table: Dict[int, object]
                 ) -> Tuple[Dict[int, object], np.ndarray]:
            ends = to[pair_ends(table, self.n)]
            codes = pair_codes(ends[:, 0], ends[:, 1], self.n)[0]
            return dict(zip(codes.tolist(), table.values())), ends

        self._presence = move(self._presence)[0]
        # the moved book's ends, in its new key order
        self._colour, self._colour_ends = move(self._colour)
        back = np.argsort(to)
        self._block, self._touched = self._block[back], self._touched[back]
        self.ledger.append(("permute", tuple(perm), 0))

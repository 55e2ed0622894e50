"""The pairwise midpoint hypothesis scan shared by the finite-set solvers.

Every finite-set theorem here (Mazur-Orlicz-Koenig in :mod:`minorant.mok`,
the scored form in :mod:`minorant.synth`, the product form in
:mod:`minorant.hbl`) assumes the same thing of its index set: for each pair
(i, j) some candidate c has

    payload[c] - (payload[i] + payload[j])/2
        + sum_m S_m(t_m[c] - (t_m[i] + t_m[j])/2)  <=  tol

where S_m(x) = max_l <l_ml, x> is polyhedral sublinear and t_m the value
table of space m.  By linearity of each piece, S_m(t_m[c] - mid) equals
max_l(G_m[c, l] - (G_m[i, l] + G_m[j, l])/2) with G_m = t_m @ pieces_m.T, so
the gains are computed once and each candidate of a pair costs O(p) work.

A satisfied pair needs only its first witness, so the scan takes the pairs
in row-major chunks and scores the candidates of a chunk in column blocks,
in input order.  After each block the pairs that found a witness leave the
active set, so a satisfied set is done after its last first witness; a
pair without one still sees every candidate, so a violated set costs the
full O(k^2 * k * p).

The first witnesses go into one int64 array in row-major pair order, -1 for
a pair without one, and the report reads them through a mapping view over
that array: no per-pair Python object is built unless a caller asks for it.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["MidpointReport", "Witnesses", "midpoint_scan"]

# Candidate x pair cells scored per block: few numpy calls per pair, and the
# block's buffers stay in cache (of 8K-32K, 16K was fastest on 60-100 keys).
_BLOCK_CELLS = 16_384
# A pair chunk holds its mid-rows and about _PER_PAIR per-pair values in
# max(k * max(k, sum p), _CHUNK_FLOATS) floats: the size of the largest
# temporaries of a row-at-a-time scan, and 1 MB for small sets, which then
# take one chunk.
_CHUNK_FLOATS = 1 << 17
_PER_PAIR = 8


class Witnesses(Mapping):
    """Read-only mapping (i, j) -> c, i <= j, over one int64 array of the
    k(k+1)/2 pairs in row-major order, -1 for a pair without a witness.

    Keys and values are Python ints.  Iteration and ``items()`` go in
    row-major order, which is the sorted order of the keys; ``len`` counts
    the witnesses on demand.  A pair with j < i, out of range or without a
    witness raises KeyError.  It compares equal to a dict with the same items.
    """

    __slots__ = ("_first", "_k")

    def __init__(self, first: np.ndarray):
        self._first = first
        self._k = (math.isqrt(8 * first.size + 1) - 1) // 2
        first.flags.writeable = False

    def __getitem__(self, key) -> int:
        try:
            i, j = map(operator.index, key)
        except (TypeError, ValueError):
            raise KeyError(key) from None
        if 0 <= i <= j < self._k:
            c = int(self._first[i * self._k - i * (i - 1) // 2 + j - i])
            if c >= 0:
                return c
        raise KeyError(key)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        t = self.triples()
        return zip(t[:, 0].tolist(), t[:, 1].tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self._first >= 0))

    def items(self) -> List[Tuple[Tuple[int, int], int]]:
        t = self.triples()
        return list(zip(zip(t[:, 0].tolist(), t[:, 1].tolist()), t[:, 2].tolist()))

    def triples(self) -> np.ndarray:
        """The witnesses as an (n, 3) int64 array of rows (i, j, c), in
        row-major pair order."""
        if not self._k:
            return np.empty((0, 3), dtype=np.int64)
        rows = _pair_rows(self._k).copy()
        rows[:, 2] = self._first
        return rows[self._first >= 0]


@functools.lru_cache(maxsize=8)
def _pair_rows(k: int) -> np.ndarray:
    # Rows (i, j, 0) of the k(k+1)/2 pairs in row-major order.  Built on the
    # first call for a k and reused, so a small set's triples cost a few
    # numpy calls; callers copy it before writing.
    rows = np.zeros((k * (k + 1) // 2, 3), dtype=np.int64)
    rows[:, 0], rows[:, 1] = np.triu_indices(k)
    rows.flags.writeable = False
    return rows


@dataclass(frozen=True)
class MidpointReport:
    """Outcome of the pairwise midpoint scan.

    ``witnesses`` maps each index pair (i, j), i <= j, that has a witness to
    the index of the first element d with S(d - (d_i + d_j)/2) within
    tolerance of <= 0; it is a :class:`Witnesses` view, kept as one
    row-major array.  When violated, ``violation`` holds the worst pair and
    the least value any candidate achieved for it.
    """

    satisfied: bool
    witnesses: Witnesses
    violation: Optional[Tuple[Tuple[int, int], float]] = None

    @property
    def status(self) -> str:
        return "satisfied" if self.satisfied else "violated"


def midpoint_scan(
    gains: Sequence[np.ndarray],
    payload: Optional[np.ndarray],
    tol: float,
) -> MidpointReport:
    """Scan every pair (i, j), i <= j, of the k keys.

    ``gains`` holds one (k, p_m) array G_m = table_m @ pieces_m.T per space;
    ``payload`` is a (k,) scalar term or None.  Witnesses are the first
    qualifying candidate in input order.  The violation is the pair whose
    least candidate value is largest, the first such pair in row-major order.

    The pairs go in row-major chunks of at most about
    max(k * max(k, sum p), 2**17) floats of mid-rows and per-pair state, so
    temporaries stay a small multiple of k x max(k, sum p) floats.  A
    chunk's candidates are scored in column blocks of about `_BLOCK_CELLS`
    cells; after each block the pairs that found a witness leave the
    active set.  Each candidate value takes the same float operations in
    the same order whatever the block and chunk sizes: the payload
    difference (or 0.0), plus per space a running maximum over the pieces
    in column order, the spaces summed in order.  A pair's least value is
    the minimum of its block minima.  So the witnesses, the violation pair
    and its value do not depend on the block or chunk sizes.
    """
    k = gains[0].shape[0]
    width = sum(G.shape[1] for G in gains)
    npairs = k * (k + 1) // 2
    step = max(1, max(k * max(k, width), _CHUNK_FLOATS) // (width + _PER_PAIR))
    rows = np.arange(k)
    starts = rows * k - rows * (rows - 1) // 2      # flat index of pair (i, i)
    first = np.empty(npairs, dtype=np.int64)
    worst: Optional[Tuple[Tuple[int, int], float]] = None
    for lo in range(0, npairs, step):
        hi = min(lo + step, npairs)
        flat = np.arange(lo, hi)
        I = np.searchsorted(starts, flat, side="right") - 1
        J = flat - starts[I] + I
        first[lo:hi], least = _scan_pairs(gains, payload, I, J, tol)
        if first[lo:hi].min() < 0:
            r = int(np.argmax(least))
            if worst is None or least[r] > worst[1]:
                worst = ((int(I[r]), int(J[r])), float(least[r]))
    return MidpointReport(worst is None, Witnesses(first), worst)


def _scan_pairs(gains, payload, I, J, tol) -> Tuple[np.ndarray, np.ndarray]:
    """First witness of each pair (I[r], J[r]), -1 for none, and the least
    candidate value of each pair without one (-inf for the others)."""
    k, n = gains[0].shape[0], I.size
    mids = []                                          # (p_m, active) each
    for G in gains:
        M = G.T[:, I]
        M += G.T[:, J]
        M *= 0.5
        mids.append(M)
    half = None if payload is None else 0.5 * (payload[I] + payload[J])
    first = np.full(n, -1)
    act = np.arange(n)                   # the chunk's pairs still in the scan
    live = np.ones(n, dtype=bool)        # act entries without a witness yet
    least = np.full(n, np.inf)           # least value so far, per act entry
    nlive, c0 = n, 0
    while c0 < k and nlive:
        if 4 * nlive <= 3 * act.size:    # compact once a quarter has resolved
            keep = np.flatnonzero(live)
            act, live, least = act[keep], live[keep], least[keep]
            mids = [M[:, keep] for M in mids]
            if half is not None:
                half = half[keep]
        c1 = min(k, c0 + max(1, _BLOCK_CELLS // act.size))
        if half is None:
            total = np.zeros((c1 - c0, act.size))
        else:
            total = payload[c0:c1, None] - half[None, :]
        for G, M in zip(gains, mids):
            best = G[c0:c1, 0, None] - M[0, None, :]
            for col in range(1, G.shape[1]):
                np.maximum(best, G[c0:c1, col, None] - M[col, None, :], out=best)
            total += best
        ok = total <= tol
        hit = ok.any(axis=0)
        hit &= live
        found = np.flatnonzero(hit)
        if found.size:
            first[act[found]] = c0 + ok[:, found].argmax(axis=0)
            live[found] = False
            nlive -= found.size
        if nlive:
            np.minimum(least, total.min(axis=0), out=least)
        c0 = c1
    out = np.full(n, -np.inf)
    out[act[live]] = least[live]
    return first, out

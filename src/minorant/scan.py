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
the gains are computed once and each pair costs O(k * p) array work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

__all__ = ["MidpointReport", "midpoint_scan"]


@dataclass(frozen=True)
class MidpointReport:
    """Outcome of the pairwise midpoint scan.

    ``witnesses`` maps each index pair (i, j), i <= j, to the index of the
    first element d with S(d - (d_i + d_j)/2) within tolerance of <= 0.
    When violated, ``violation`` holds the worst pair and the least value any
    candidate achieved for it.
    """

    satisfied: bool
    witnesses: Dict[Tuple[int, int], int]
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
    Work is done one row i at a time, so temporaries stay (k - i) x k.
    """
    k = gains[0].shape[0]
    witnesses: Dict[Tuple[int, int], int] = {}
    worst: Optional[Tuple[Tuple[int, int], float]] = None
    for i in range(k):
        if payload is None:
            total = np.zeros((k - i, k))
        else:
            total = payload[None, :] - 0.5 * (payload[i] + payload[i:])[:, None]
        for G in gains:
            mid = 0.5 * (G[i] + G[i:])                       # (k - i, p)
            best = G[None, :, 0] - mid[:, 0, None]
            for col in range(1, G.shape[1]):
                np.maximum(best, G[None, :, col] - mid[:, col, None], out=best)
            total += best
        ok = total <= tol
        found = ok.any(axis=1)
        rows = np.flatnonzero(found)
        for r, c in zip(rows.tolist(), ok[rows].argmax(axis=1).tolist()):
            witnesses[(i, i + r)] = c
        if not found.all():
            least = np.where(found, -np.inf, total.min(axis=1))
            r = int(np.argmax(least))
            if worst is None or least[r] > worst[1]:
                worst = ((i, i + r), float(least[r]))
    return MidpointReport(worst is None, witnesses, worst)

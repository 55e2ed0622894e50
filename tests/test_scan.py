"""The vectorized midpoint scan agrees with a plain pair-by-pair loop."""

import numpy as np
import pytest

from minorant.core import MaxAffineFn, PolyhedralSublinear
from minorant.hbl import HblInstance, check_midpoint_hbl
from minorant.mok import check_midpoint
from minorant.scan import MidpointReport, midpoint_scan
from minorant.synth import FiniteScoredSet, check_scored_midpoint


def loop_scan(pieces, tables, payload, tol):
    """Reference oracle: for each pair, evaluate every candidate directly as
    payload[c] - mid payload + sum_m S_m(t_m[c] - mid_m), in input order."""
    k = tables[0].shape[0]
    kv = np.zeros(k) if payload is None else payload
    witnesses = {}
    worst = None
    for i in range(k):
        for j in range(i, k):
            total = kv - 0.5 * (kv[i] + kv[j])
            for P, tab in zip(pieces, tables):
                mid = 0.5 * (tab[i] + tab[j])
                total = total + np.max((tab - mid) @ P.T, axis=1)
            found = -1
            for c in range(k):
                if total[c] <= tol:
                    found = c
                    break
            if found >= 0:
                witnesses[(i, j)] = found
            else:
                best = float(np.min(total))
                if worst is None or best > worst[1]:
                    worst = ((i, j), best)
    return MidpointReport(worst is None, witnesses, worst)


def assert_same(got: MidpointReport, want: MidpointReport):
    assert got.satisfied == want.satisfied
    assert got.witnesses == want.witnesses
    if want.violation is None:
        assert got.violation is None
    else:
        assert got.violation[0] == want.violation[0]
        assert got.violation[1] == pytest.approx(want.violation[1], abs=1e-12)


def integer_case(rng, k, dims, with_payload):
    """Small integer data: duplicate points, tied pairs and candidate values
    landing exactly on 0 or 1/2 are common, and every value is exact."""
    pieces = [rng.integers(-2, 3, (int(rng.integers(1, 4)), d)).astype(float) for d in dims]
    tables = [rng.integers(-2, 3, (k, d)).astype(float) for d in dims]
    payload = rng.integers(-2, 3, k).astype(float) if with_payload else None
    return pieces, tables, payload


def satisfied_case(rng, k, dims, with_payload):
    """Float data with one far point that witnesses every pair: each piece
    rises along the first axis and the far point sits at -100 on it."""
    pieces, tables = [], []
    at = int(rng.integers(0, k))
    for d in dims:
        P = rng.uniform(-0.3, 0.3, (int(rng.integers(1, 5)), d))
        P[:, 0] = rng.uniform(0.5, 1.5, P.shape[0])
        T = rng.uniform(-1, 1, (k, d))
        T[at] = 0.0
        T[at, 0] = -100.0
        pieces.append(P)
        tables.append(T)
    payload = rng.uniform(-1, 1, k) if with_payload else None
    return pieces, tables, payload


def float_case(rng, k, dims, with_payload):
    pieces = [rng.uniform(-2, 2, (int(rng.integers(1, 6)), d)) for d in dims]
    tables = [rng.uniform(-3, 3, (k, d)) for d in dims]
    payload = rng.uniform(-3, 3, k) if with_payload else None
    return pieces, tables, payload


def corpus():
    rng = np.random.default_rng(20240817)
    cases = []
    for make in (integer_case, satisfied_case, float_case):
        for nspaces in (1, 2, 3):
            for with_payload in (False, True):
                for k in (1, 2, 5, 13):
                    dims = [int(d) for d in rng.integers(1, 4, nspaces)]
                    cases.append(make(rng, k, dims, with_payload))
    return cases


CORPUS = corpus()


@pytest.mark.parametrize("tol", [1e-9, 0.0, 0.5])
def test_kernel_matches_loop(tol):
    outcomes = set()
    for pieces, tables, payload in CORPUS:
        gains = [T @ P.T for P, T in zip(pieces, tables)]
        want = loop_scan(pieces, tables, payload, tol)
        assert_same(midpoint_scan(gains, payload, tol), want)
        outcomes.add(want.satisfied)
    assert outcomes == {True, False}


def test_wrappers_match_loop():
    for pieces, tables, payload in CORPUS:
        want = loop_scan(pieces, tables, payload, 1e-9)
        subs = [PolyhedralSublinear(P) for P in pieces]
        assert_same(check_midpoint_hbl(HblInstance(subs, tables, payload)), want)
        if len(pieces) == 1 and payload is None:
            assert_same(check_midpoint(subs[0], list(tables[0])), want)
        if len(pieces) == 1 and payload is not None:
            F = MaxAffineFn(pieces[0], np.zeros(len(pieces[0])))
            assert_same(check_scored_midpoint(F, FiniteScoredSet(tables[0], payload)), want)


def test_exact_tolerance_boundary_counts_as_witness():
    # S = |.| on {0, 1}: the pair (0, 1) has both candidates at exactly 1/2.
    gains = [np.array([[0.0], [1.0]]) @ np.array([[1.0, -1.0]])]
    assert midpoint_scan(gains, None, 0.5).witnesses[(0, 1)] == 0
    rep = midpoint_scan(gains, None, np.nextafter(0.5, 0.0))
    assert rep.violation == ((0, 1), 0.5)


def test_worst_pair_tie_keeps_first_in_row_major_order():
    # S = |.| on {0, 1, 2}: pairs (0, 1) and (1, 2) both miss by 1/2, and
    # the literal midpoint 1 witnesses (0, 2).
    gains = [np.array([[0.0], [1.0], [2.0]]) @ np.array([[1.0, -1.0]])]
    rep = midpoint_scan(gains, None, 1e-9)
    assert rep.violation == ((0, 1), 0.5)
    assert rep.witnesses == {(0, 0): 0, (0, 2): 1, (1, 1): 1, (2, 2): 2}


def test_duplicates_witness_each_other_first_in_input_order():
    gains = [np.array([[3.0], [3.0], [3.0]]) @ np.array([[1.0, -1.0]])]
    rep = midpoint_scan(gains, None, 0.0)
    assert rep.satisfied
    assert set(rep.witnesses.values()) == {0}

"""The blocked midpoint scan agrees with a plain pair-by-pair loop, and bit
for bit with the row kernel it replaced."""

import tracemalloc
from typing import Dict, Optional, Tuple

import numpy as np
import pytest

from minorant.core import MaxAffineFn, PolyhedralSublinear
from minorant.hbl import HblInstance, check_midpoint_hbl
from minorant.mok import check_midpoint
from minorant import scan
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


def row_scan(gains, payload, tol):
    """The row kernel that preceded the blocked scan, kept verbatim as the
    bit-exact reference: one row i at a time, every candidate scored for
    every pair of the row."""
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


def assert_same(got: MidpointReport, want: MidpointReport):
    assert got.satisfied == want.satisfied
    assert got.witnesses == want.witnesses
    if want.violation is None:
        assert got.violation is None
    else:
        assert got.violation[0] == want.violation[0]
        assert got.violation[1] == pytest.approx(want.violation[1], abs=1e-12)


def assert_identical(got: MidpointReport, want: MidpointReport):
    assert got.satisfied == want.satisfied
    assert got.witnesses == want.witnesses
    assert got.violation == want.violation
    if want.violation is not None:
        assert np.float64(got.violation[1]).tobytes() == np.float64(want.violation[1]).tobytes()


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


# Block and chunk sizes: the defaults, and one candidate per block with the
# chunk floor off, so that small sets also span many blocks and chunks.
SIZES = {"default": {}, "narrow": {"_BLOCK_CELLS": 1, "_CHUNK_FLOATS": 0}}


@pytest.fixture(params=sorted(SIZES))
def sizes(request, monkeypatch):
    for name, value in SIZES[request.param].items():
        monkeypatch.setattr(scan, name, value)


@pytest.mark.parametrize("tol", [1e-9, 0.0, 0.5])
def test_kernel_matches_row_scan(tol, sizes):
    for pieces, tables, payload in CORPUS:
        gains = [T @ P.T for P, T in zip(pieces, tables)]
        assert_identical(midpoint_scan(gains, payload, tol), row_scan(gains, payload, tol))


def line(t):
    """Gains of S = |.| on the 1-d points t."""
    t = np.asarray(t, dtype=float)
    return np.stack([t, -t], axis=1)


def gap_case(k):
    """1-d points under S = |.|: the evens 0..2m and one point 20 past them,
    so the only pairs whose midpoint lies 10 from every point are those of
    2m with 2m + 20.
    Both sit at the front (indices 0, 1) and again at the back (k - 2,
    k - 1), so the worst value ties between the first and the last pairs
    in row-major order."""
    m = k - 4
    return [line([2 * m, 2 * m + 20, *range(0, 2 * m, 2), 2 * m, 2 * m + 20])], None


def large_cases():
    rng = np.random.default_rng(20250419)
    dup = integer_case(rng, 240, [2, 1], True)           # many duplicate points
    far = satisfied_case(rng, 220, [3, 2], True)
    mixed = float_case(rng, 150, [2], True)
    return {
        # g[c] = -c: the first witness of (i, j) is ceil((i + j)/2), so every
        # column is some pair's first witness, block boundaries included.
        "staircase-200": ([-np.arange(200.0)[:, None]], None),
        # Pairs with i + j even are witnessed at (i + j)/2, the others miss
        # by 1/2 unless tol >= 1/2: satisfied and violated pairs side by side.
        "line-180": ([line(np.arange(180))], None),
        "line-payload-170": ([line(np.arange(170))], np.tile([0.0, 0.25], 85)),
        "gap-200": gap_case(200),
        "duplicates-240": ([T @ P.T for P, T in zip(*dup[:2])], dup[2]),
        "far-point-220": ([T @ P.T for P, T in zip(*far[:2])], far[2]),
        "float-150": ([T @ P.T for P, T in zip(*mixed[:2])], mixed[2]),
    }


LARGE = large_cases()


@pytest.mark.parametrize("name", sorted(LARGE))
def test_large_sets_match_row_scan(name, sizes):
    gains, payload = LARGE[name]
    for tol in (1e-9, 0.0, 0.5):
        want = row_scan(gains, payload, tol)
        assert_identical(midpoint_scan(gains, payload, tol), want)
    if name.startswith("staircase"):
        assert set(want.witnesses.values()) == set(range(gains[0].shape[0]))


def test_worst_tie_across_chunks_keeps_row_major_first(monkeypatch, sizes):
    gains, _ = gap_case(200)
    chunks = []
    scan_pairs = scan._scan_pairs

    def record(gains, payload, I, J, tol):
        chunks.append(set(zip(I.tolist(), J.tolist())))
        return scan_pairs(gains, payload, I, J, tol)

    monkeypatch.setattr(scan, "_scan_pairs", record)
    rep = midpoint_scan(gains, None, 1e-9)
    assert rep.violation == ((0, 1), 10.0)
    G = gains[0]
    assert np.max(G - 0.5 * (G[198] + G[199]), axis=1).min() == 10.0
    where = [next(n for n, pairs in enumerate(chunks) if pair in pairs)
             for pair in ((0, 1), (198, 199))]
    assert where[0] < where[1]
    assert_identical(rep, row_scan(gains, None, 1e-9))


@pytest.mark.parametrize("k, p", [(400, 1), (8, 20_000)])
def test_scan_temporaries_stay_within_a_few_scan_rows(k, p):
    # The row kernel's largest temporaries were k x max(k, p) floats.  Beyond
    # the report it returns (80,200 witnesses for k = 400), the scan may hold
    # at most four such rows at its peak.  Holding every pair's mid-row would
    # take 4.5 rows for k = 8, and every pair's candidate values 200 for
    # k = 400.
    gains = [np.random.default_rng(k).uniform(-1, 1, (k, p))]
    tracemalloc.start()
    try:
        rep = midpoint_scan(gains, None, 1e-9)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.satisfied == (p == 1)
    assert peak - kept <= 4 * 8 * k * max(k, p)


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

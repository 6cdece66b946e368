import numpy as np
import pytest
from numpy.testing import assert_allclose

import sparsecov as sc
from sparsecov import sparsity


def test_constraint_validation():
    for k in (-1, 2.5, float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="nonnegative integer"):
            sc.SparsityConstraint(k)
    with pytest.raises(ValueError):
        sc.SparsityConstraint(2, mode="precision")
    c = sc.SparsityConstraint(3)
    assert c.k == 3 and c.mode == "covariance"


def test_project_keeps_largest_magnitude_pair():
    M = np.array([[5.0, 1.0, -3.0], [1.0, 6.0, 2.0], [-3.0, 2.0, 7.0]])
    P = sc.project(M, sc.SparsityConstraint(1))
    expected = np.array([[5.0, 0.0, -3.0], [0.0, 6.0, 0.0], [-3.0, 0.0, 7.0]])
    assert_allclose(P, expected)


def test_project_diagonal_untouched_in_covariance_mode():
    M = np.diag([4.0, 9.0, 2.0])
    P = sc.project(M, sc.SparsityConstraint(0))
    assert_allclose(P, M)


def test_project_correlation_mode_resets_diagonal():
    M = np.array([[2.0, 0.8], [0.8, 3.0]])
    P = sc.project(M, sc.SparsityConstraint(1, mode="correlation"))
    assert_allclose(np.diag(P), [1.0, 1.0])
    assert_allclose(P[0, 1], 0.8)


def test_project_k_at_capacity_is_identity():
    rng = np.random.default_rng(0)
    B = rng.standard_normal((4, 4))
    M = (B + B.T) / 2
    P = sc.project(M, sc.SparsityConstraint(6))
    assert_allclose(P, M)


def test_project_never_selects_exact_zeros():
    M = np.array([[1.0, 0.0, 0.4], [0.0, 1.0, 0.0], [0.4, 0.0, 1.0]])
    P = sc.project(M, sc.SparsityConstraint(3))
    assert_allclose(P, M)
    # only one nonzero pair exists, so distance is already zero at k = 1
    assert sc.squared_distance(M, sc.SparsityConstraint(1)) == 0.0


def test_squared_distance_known_value():
    M = np.array([[1.0, 3.0, 2.0], [3.0, 1.0, 0.0], [2.0, 0.0, 1.0]])
    # keeping the 3-pair drops the 2-pair: 2 * 2^2 = 8
    assert sc.squared_distance(M, sc.SparsityConstraint(1)) == pytest.approx(8.0)


def test_squared_distance_agrees_with_projection():
    rng = np.random.default_rng(1)
    B = rng.standard_normal((6, 6))
    M = (B + B.T) / 2
    for k in range(16):
        c = sc.SparsityConstraint(k)
        direct = sc.squared_distance(M, c)
        via_proj = float(np.sum((M - sc.project(M, c)) ** 2))
        assert direct == pytest.approx(via_proj, abs=1e-12)


def test_tie_break_is_deterministic():
    M = np.ones((4, 4)) + np.eye(4)
    P1 = sc.project(M, sc.SparsityConstraint(2))
    P2 = sc.project(M, sc.SparsityConstraint(2))
    assert np.array_equal(P1, P2)
    # first two upper pairs in lexicographic order survive the tie
    assert P1[0, 1] == 1.0 and P1[0, 2] == 1.0 and P1[0, 3] == 0.0


def _reference_project(M, c):
    # the full stable argsort on descending magnitude that project replaced
    rows, cols = np.triu_indices(M.shape[0], 1)
    vals = np.abs(M[rows, cols])
    order = np.argsort(-vals, kind="stable")[: c.k]
    keep = order[vals[order] > 0.0]
    rows, cols = rows[keep], cols[keep]
    out = np.eye(M.shape[0]) if c.mode == "correlation" else np.diag(np.diag(M))
    out[rows, cols] = M[rows, cols]
    out[cols, rows] = M[rows, cols]
    return out


def _tied_symmetric(B):
    return np.triu(B) + np.triu(B, 1).T


def test_project_matches_stable_argsort_on_ties_and_zeros():
    # integer entries in [-3, 3]: most magnitudes tie and many are exactly 0
    rng = np.random.default_rng(4)
    cases = []
    for _ in range(200):
        p = int(rng.integers(1, 9))
        M = _tied_symmetric(rng.integers(-3, 4, size=(p, p)).astype(float))
        cases.append((M, range(p * (p - 1) // 2 + 1)))
    # the sizes the fits run at, rounded to one decimal so ties and zeros occur
    for p in (20, 60, 200):
        M = _tied_symmetric(np.round(rng.standard_normal((p, p)), 1))
        m = p * (p - 1) // 2
        cases.append((M, (0, 1, m // 2, m - 1, m)))
    for M, ks in cases:
        for k in ks:
            for mode in ("covariance", "correlation"):
                c = sc.SparsityConstraint(k, mode=mode)
                assert np.array_equal(sc.project(M, c), _reference_project(M, c))


def _fill_diagonal_project(M, c):
    # the projection with every tie settled after the strict comparison and
    # the diagonal written by np.fill_diagonal: the reference for _project,
    # bit for bit, signed zeros included
    upper = np.triu(np.ones(M.shape, dtype=bool), 1)
    vals = M[upper]
    mags = np.abs(vals)
    kth = np.inf
    if c.k:
        mags.partition(mags.size - c.k)
        kth = mags[mags.size - c.k]
        np.abs(vals, out=mags)
    keep = mags > kth
    if kth > 0.0:
        ties = np.flatnonzero(mags == kth)[: c.k - np.count_nonzero(keep)]
        keep[ties] = True
    vals[~keep] = 0.0
    out = np.zeros(M.shape)
    out[upper] = vals
    out.T[upper] = vals
    np.fill_diagonal(out, 1.0 if c.mode == "correlation" else np.diag(M))
    return out


@pytest.mark.parametrize("p", [1, 2, 3, 20, 63, 64, 65, 130])
def test_project_matches_its_reference_bit_for_bit(p):
    # on ties, exact zeros of both signs (the diagonal's included), and in
    # both modes, at k from 0 to every pair
    rng = np.random.default_rng(p)
    tied = np.round(rng.standard_normal((p, p)), 1)
    tied[rng.random((p, p)) < 0.2] = -0.0
    smooth = rng.standard_normal((p, p))
    m = p * (p - 1) // 2
    for B in (tied, smooth):
        M = B.copy()
        below = np.tril_indices(p, -1)
        M[below] = B.T[below]  # a copy, so that each -0.0 keeps its sign
        for k in sorted({0, 1, m // 3, m // 2, m - 1, m} & set(range(m + 1))):
            for mode in ("covariance", "correlation"):
                c = sc.SparsityConstraint(k, mode=mode)
                got, ref = sparsity._project(M, c), _fill_diagonal_project(M, c)
                assert got.tobytes() == ref.tobytes(), (k, mode)


@pytest.mark.parametrize("p", [1, 2, 20, 57, 200])
def test_select_matches_the_projection_bit_for_bit(p):
    # the selection's mask is the nonzero pattern of the projection and its
    # squared distance is ||M - P(M)||^2 summed as the p x p matrix, exactly,
    # on ties, exact zeros of both signs (the diagonal's included) and mixed
    # signs, in both modes, at k of 0, 1, half and every pair
    rng = np.random.default_rng(p)
    tied = np.round(rng.standard_normal((p, p)), 1)
    tied[rng.random((p, p)) < 0.2] = -0.0
    tied[rng.random((p, p)) < 0.1] = 0.0
    m = p * (p - 1) // 2
    for B in (tied, rng.standard_normal((p, p))):
        M = B.copy()
        below = np.tril_indices(p, -1)
        M[below] = B.T[below]
        for k in sorted({0, 1, m // 2, m} & set(range(m + 1))):
            for mode in ("covariance", "correlation"):
                c = sc.SparsityConstraint(k, mode=mode)
                mask, dist2 = sparsity._select(M, c)
                P = sparsity._project(M, c)
                assert mask.dtype == bool and mask.shape == (p, p)
                assert np.array_equal(mask, P != 0)
                assert np.array_equal(mask, _fill_diagonal_project(M, c) != 0)
                assert dist2 == float(((M - P) ** 2).sum()), (k, mode)
                assert sc.squared_distance(M, c) == dist2

import numpy as np
import pytest
from numpy.testing import assert_allclose

import sparsecov as sc


def test_constraint_validation():
    with pytest.raises(ValueError):
        sc.SparsityConstraint(-1)
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


def test_support_mask_tolerance():
    M = np.array([[1.0, 1e-12], [1e-12, 1.0]])
    assert sc.support_mask(M).sum() == 2
    assert sc.support_mask(M, tol=0.0).sum() == 4


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
    for p in (20, 60):
        M = _tied_symmetric(np.round(rng.standard_normal((p, p)), 1))
        m = p * (p - 1) // 2
        cases.append((M, (0, 1, m // 2, m - 1, m)))
    for M, ks in cases:
        for k in ks:
            for mode in ("covariance", "correlation"):
                c = sc.SparsityConstraint(k, mode=mode)
                assert np.array_equal(sc.project(M, c), _reference_project(M, c))

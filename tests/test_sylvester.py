import gc
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import sparsecov as sc
from sparsecov import proxdist, sylvester
from sparsecov.sylvester import KRONECKER_MAX_DIM


def _system(rng, p, rho):
    B = rng.standard_normal((p, p))
    Sigma_k = B @ B.T + p * np.eye(p)
    C = rng.standard_normal((p, p))
    return sc.SurrogateSystem(Sigma_k, (C + C.T) / 2, rho)


def test_diagonal_system_closed_form():
    # Sigma_k = diag(1, 2): denominators rho + 1/(lam_i lam_j)
    system = sc.SurrogateSystem(np.diag([1.0, 2.0]), np.diag([3.0, 6.0]), 1.0)
    X = sc.solve_spectral(system)
    assert_allclose(X, np.diag([1.5, 4.8]), atol=1e-14)


def test_identity_system_closed_form():
    system = sc.SurrogateSystem(np.eye(2), np.eye(2), 3.0)
    assert_allclose(sc.solve_kronecker(system), np.eye(2) / 4.0, atol=1e-14)
    assert_allclose(sc.solve_spectral(system), np.eye(2) / 4.0, atol=1e-14)


def test_residual_zero_only_at_solution():
    rng = np.random.default_rng(5)
    system = _system(rng, 4, 1.0)
    X = sc.solve_spectral(system)
    assert sc.equation_residual(system, X) <= 1e-12
    assert sc.equation_residual(system, X + 0.1 * np.eye(4)) > 1e-3


def test_spectral_matches_kronecker_random():
    rng = np.random.default_rng(6)
    for p in (2, 3, 5, 8):
        for rho in (0.1, 1.0, 10.0):
            system = _system(rng, p, rho)
            assert_allclose(
                sc.solve_spectral(system), sc.solve_kronecker(system), atol=1e-10
            )


def test_kronecker_dimension_guard():
    p = KRONECKER_MAX_DIM + 1
    system = sc.SurrogateSystem(np.eye(p), np.eye(p), 1.0)
    with pytest.raises(ValueError, match="solve_spectral"):
        sc.solve_kronecker(system)


def test_fixed_point_identity_anchor():
    rng = np.random.default_rng(7)
    C = rng.standard_normal((3, 3))
    C = (C + C.T) / 2
    # Sigma_k = I makes the equation (rho + 1) X = c_k exactly
    system = sc.SurrogateSystem(np.eye(3), C, 4.0)
    assert_allclose(sc.solve_fixed_point(system), C / 5.0, atol=1e-9)


def test_fixed_point_diverges_below_condition():
    C = np.eye(2)
    system = sc.SurrogateSystem(np.eye(2), C, 0.5)
    with pytest.raises(sc.NoConvergenceError) as info:
        sc.solve_fixed_point(system)
    assert info.value.iterations > 0
    assert info.value.residual > 0


def test_fixed_point_agrees_with_spectral_when_stable():
    rng = np.random.default_rng(8)
    system = _system(rng, 5, 50.0)
    a2 = np.linalg.norm(system.inverse(), 2) ** 2
    assert a2 < system.rho
    assert_allclose(
        sc.solve_fixed_point(system), sc.solve_spectral(system), atol=1e-8
    )


def test_system_validation():
    with pytest.raises(ValueError):
        sc.SurrogateSystem(np.eye(2), np.array([[0.0, 1.0], [2.0, 0.0]]), 1.0)
    with pytest.raises(ValueError):
        sc.SurrogateSystem(np.eye(2), np.eye(2), 0.0)
    with pytest.raises(sc.NotPositiveDefiniteError):
        sc.SurrogateSystem(np.diag([1.0, -1.0]), np.eye(2), 1.0)
    with pytest.raises(ValueError):
        sc.SurrogateSystem(np.eye(3), np.eye(2), 1.0)


def test_system_inverse_repeatable_and_correct():
    rng = np.random.default_rng(9)
    system = _system(rng, 4, 1.0)
    A1 = system.inverse()
    A2 = system.inverse()
    assert np.array_equal(A1, A2)
    assert_allclose(A1 @ system.sigma_k, np.eye(4), atol=1e-12)


def test_solve_working_set_at_p60():
    # the eigenvectors, the two buffers the GEMMs alternate between, and
    # eigh's workspace; the denominators lam_i lam_j are formed in place,
    # so numpy allocates at most one buffer for a broadcast operand
    rng = np.random.default_rng(60)
    system = _system(rng, 60, 1.0)
    sylvester._solve(system.sigma_k, system.c_k, system.rho)  # warm
    gc.collect()
    tracemalloc.start()
    try:
        X = sylvester._solve(system.sigma_k, system.c_k, system.rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(X, sc.solve_spectral(system))
    assert peak / X.nbytes <= 4.5


def _matmul_solve(sigma_k, c_k, rho):
    # the spectral solve with its four GEMMs through np.matmul and its
    # positivity test through np.all: the reference for _solve
    lam, Q = np.linalg.eigh(sigma_k)
    b = np.matmul(np.matmul(Q.T, c_k), Q)
    denom = 1.0 / np.outer(lam, lam) + rho
    if not np.all(denom > 0):
        raise ValueError("solver denominators are not all positive")
    b = np.matmul(np.matmul(Q, b / denom), Q.T)
    return (b.T + b) / 2.0


@pytest.mark.parametrize("p", [1, 2, 3, 20, 63, 64, 65, 130])
def test_solve_matches_its_reference_bit_for_bit(p):
    system = _system(np.random.default_rng(p), p, 0.7)
    X = sylvester._solve(system.sigma_k, system.c_k, system.rho)
    assert X.tobytes() == _matmul_solve(system.sigma_k, system.c_k, system.rho).tobytes()


@pytest.mark.parametrize("sigma_k, rho", [(np.diag([-1.0, 1.0]), 1.0), (np.eye(2), np.nan)])
def test_solve_rejects_a_nonpositive_or_nan_denominator(sigma_k, rho):
    # diag(-1, 1) at rho = 1 has the denominator 1 / (-1 * 1) + 1 = 0 at
    # (0, 1); a NaN rho makes every denominator NaN
    with pytest.raises(ValueError, match="not all positive"):
        sylvester._solve(sigma_k, np.eye(2), rho)


def _diagonal_start_cases():
    # sample covariances, and their correlations ridged to 1 + delta, with
    # distinct and with tied diagonals, on each side of the inverse's
    # MIRROR_BLOCK and of dstedc's divide-and-conquer cutoff
    for p in (1, 2, 7, 30, 65, 130):
        rng = np.random.default_rng(p)
        S = sc.sample_covariance(rng.standard_normal((2 * p + 3, p)))
        d = np.sqrt(S.diagonal())
        R = S / np.outer(d, d)
        np.fill_diagonal(R, 1.0)
        tied = S.copy()
        np.fill_diagonal(tied, rng.choice([0.5, 1.0, 2.5], size=p))
        yield p, "covariance", S
        yield p, "covariance", tied
        yield p, "correlation", R
        yield p, "correlation", R + 1e-4 * np.eye(p)


@pytest.mark.parametrize("rho", [proxdist.RHO0, 37.0])
def test_diagonal_start_is_its_mm_step_in_closed_form(rho):
    # the schedule's start Diag(S) and its first MM direction in closed
    # form, bit for bit against the factorization, A S A, P(Sigma) and the
    # spectral solve they replace: LAPACK's Cholesky factor and inverse of
    # a diagonal matrix round as the closed form does, and its
    # eigenvectors are a permutation, ties included
    for p, mode, S in _diagonal_start_cases():
        c = sc.SparsityConstraint(min(1, p * (p - 1) // 2), mode)
        it, direction = proxdist._diagonal_start(S, c, rho)
        engine = proxdist._Fit(S, c, None)
        engine.it = ref = proxdist._Iterate(np.diag(S.diagonal()), S, c)
        assert it.sigma.tobytes() == ref.sigma.tobytes()
        assert it.loss == ref.loss and it.dist2 == ref.dist2
        assert np.array_equal(it.mask, ref.mask) and it.inv is None
        assert (it.dist2 == 0.0) == (mode == "covariance" or S[0, 0] == 1.0)
        assert np.isin(sylvester.spectral_decompose(ref.sigma)[1], (-1.0, 0.0, 1.0)).all()
        assert direction.tobytes() == engine._mm_direction(rho).tobytes()

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import sparsecov as sc


def test_cholesky_known_factor():
    M = np.array([[4.0, 2.0], [2.0, 3.0]])
    L = sc.cholesky_pd(M)
    assert_allclose(L, [[2.0, 0.0], [1.0, math.sqrt(2.0)]], atol=1e-14)


def test_cholesky_rejects_indefinite():
    M = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(sc.NotPositiveDefiniteError, match="pivot 1"):
        sc.cholesky_pd(M)


def test_as_symmetric_accepts_roundoff_drift():
    M = np.array([[1.0, 0.5], [0.5 + 1e-15, 1.0]])
    out = sc.as_symmetric(M)
    assert_allclose(out, out.T)


def test_as_symmetric_rejects_true_asymmetry():
    M = np.array([[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(ValueError, match="asymmetric"):
        sc.as_symmetric(M)


def test_as_symmetric_rejects_nonsquare_and_nonfinite():
    with pytest.raises(ValueError):
        sc.as_symmetric(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        sc.as_symmetric(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_sample_covariance_divisor_n_uncentered():
    data = np.array([[1.0], [3.0]])
    assert_allclose(sc.sample_covariance(data), [[5.0]])


def test_sample_covariance_matches_outer_product_sum():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((7, 3))
    expected = data.T @ data / 7
    assert_allclose(sc.sample_covariance(data), expected, atol=1e-14)


def test_is_positive_definite():
    assert sc.is_positive_definite(np.eye(3))
    assert not sc.is_positive_definite(np.diag([1.0, -1.0]))
    assert not sc.is_positive_definite(np.diag([1.0, 0.0]))


def test_log_det_and_inverse():
    M = np.diag([2.0, 3.0])
    assert_allclose(sc.log_det_pd(M), math.log(6.0))
    assert_allclose(sc.inverse_pd(M), np.diag([0.5, 1.0 / 3.0]))


@pytest.mark.parametrize(
    "M",
    [
        # its lower triangle is the identity's, its symmetric part indefinite
        np.array([[1.0, 5.0], [0.0, 1.0]]),
        np.array([[1.0, np.nan], [np.nan, 1.0]]),
        np.ones((2, 3)),
    ],
)
def test_pd_helpers_validate_the_whole_matrix(M):
    # LAPACK's Cholesky reads one triangle, so without validation these
    # would factor the identity or fail inside LAPACK
    for helper in (
        sc.is_positive_definite,
        sc.inverse_pd,
        sc.log_det_pd,
        lambda M: sc.sample_mvn(M, 5, sc.RngStream(seed=0)),
    ):
        with pytest.raises(ValueError):
            helper(M)


def test_inverse_pd_random_roundtrip():
    rng = np.random.default_rng(1)
    B = rng.standard_normal((5, 5))
    M = B @ B.T + 5 * np.eye(5)
    A = sc.inverse_pd(M)
    assert_allclose(A @ M, np.eye(5), atol=1e-12)
    assert np.array_equal(A, A.T)
    # condition number 1e6: the factor's inverse matches a general solver
    Q, _ = np.linalg.qr(rng.standard_normal((30, 30)))
    M = (Q * np.logspace(0, -6, 30)) @ Q.T
    M = (M + M.T) / 2
    A = sc.inverse_pd(M)
    assert np.linalg.cond(M) == pytest.approx(1e6, rel=1e-3)
    assert np.array_equal(A, A.T)
    expected = np.linalg.inv(M)
    assert np.linalg.norm(A - expected) <= 1e-10 * np.linalg.norm(expected)
    # the loss read from the factor matches slogdet plus the trace of a solve
    B = rng.standard_normal((30, 30))
    M = B @ B.T + 30 * np.eye(30)
    B = rng.standard_normal((40, 30))
    S = B.T @ B / 40
    _, logdet = np.linalg.slogdet(M)
    expected = logdet + np.trace(np.linalg.solve(M, S))
    assert sc.negative_loglik_loss(M, S) == pytest.approx(expected, rel=1e-12)


def test_spectral_decompose_reconstructs():
    rng = np.random.default_rng(2)
    B = rng.standard_normal((4, 4))
    M = (B + B.T) / 2
    dec = sc.spectral_decompose(M)
    recon = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.T
    assert_allclose(recon, M, atol=1e-12)
    assert np.all(np.diff(dec.eigenvalues) >= 0)


def test_matrix_csv_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(3)
    B = rng.standard_normal((4, 4))
    M = (B + B.T) / 2
    path = tmp_path / "m.csv"
    sc.save_matrix_csv(path, M)
    back = sc.load_symmetric_csv(path)
    assert np.array_equal(back, M)


def test_load_data_csv_shape(tmp_path):
    data = np.arange(12.0).reshape(6, 2)
    path = tmp_path / "d.csv"
    sc.save_matrix_csv(path, data)
    back = sc.load_data_csv(path)
    assert back.shape == (6, 2)
    assert np.array_equal(back, data)

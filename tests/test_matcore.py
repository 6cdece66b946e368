import math
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

import sparsecov as sc
from sparsecov import matcore


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
    before = M.copy()
    out = sc.as_symmetric(M)
    assert_allclose(out, out.T)
    # drift gets a new, exactly symmetric array, and the input is kept
    assert out is not M
    assert np.array_equal(out, out.T)
    assert np.array_equal(M, before)
    # an exactly symmetric C-contiguous float64 array is returned uncopied
    S = np.array([[2.0, 0.5], [0.5, 1.0]])
    assert sc.as_symmetric(S) is S
    # equal values are not enough: a 0.0 mirrored by a -0.0 gets the copy,
    # whose zeros are both +0.0, as (M + M^T) / 2 makes them
    Z = np.array([[1.0, 0.0], [-0.0, 1.0]])
    out = sc.as_symmetric(Z)
    assert out is not Z
    assert not np.signbit(out).any()
    # entries near the largest float average without overflowing
    big = 1.5e308
    out = sc.as_symmetric(np.array([[1.0, big], [np.nextafter(big, 0.0), 1.0]]))
    assert np.all(np.isfinite(out))
    assert out[0, 1] == out[1, 0] == big / 2 + np.nextafter(big, 0.0) / 2


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


def test_sample_covariance_rejects_data_whose_scale_overflows():
    # finite data whose squares overflow: raised as the data's scale, with
    # no overflow warning (CI runs with -W error::RuntimeWarning)
    with pytest.raises(ValueError, match="scale overflows float64"):
        sc.sample_covariance([[1e155, 1.0], [1e155, 2.0]])
    # just below the limit the result is finite and unscaled
    S = sc.sample_covariance([[1e153, 1.0], [1e153, 2.0]])
    assert_allclose(S, [[1e306, 1.5e153], [1.5e153, 2.5]], rtol=1e-15)


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


@pytest.mark.parametrize("p", [1, 2, 20, 200])
def test_loss_and_inverse_from_one_factor(p):
    # the loss reads log det from the Cholesky factor before the inverse
    # overwrites it; both match slogdet, a solve and numpy's inverse, and
    # the inverse is exactly symmetric and C-contiguous
    rng = np.random.default_rng(p)
    B = rng.standard_normal((p, p))
    M = B @ B.T + p * np.eye(p)
    M = (M + M.T) / 2
    B = rng.standard_normal((2 * p, p))
    S = B.T @ B / (2 * p)
    _, logdet = np.linalg.slogdet(M)
    expected = logdet + np.trace(np.linalg.solve(M, S))
    assert sc.negative_loglik_loss(M, S) == pytest.approx(expected, rel=1e-12)
    A = sc.inverse_pd(M)
    assert np.array_equal(A, A.T)
    assert A.flags.c_contiguous
    expected = np.linalg.inv(M)
    assert np.max(np.abs(A - expected)) <= 1e-12 * np.max(np.abs(expected))


def _spd(p, seed=0):
    B = np.random.default_rng(seed).standard_normal((p, p))
    M = B @ B.T + p * np.eye(p)
    return (M + M.T) / 2


def _bits(A):
    return A.view(np.uint64).tobytes(order="A")


def _reference_factor_and_inverse(M):
    """What the package computed through scipy's LAPACK wrappers."""
    from scipy.linalg.lapack import dpotrf, dpotri

    L, info = dpotrf(M, lower=1, clean=1, overwrite_a=0)
    assert info == 0
    if not M.size:  # dpotri rejects a 0 x 0 matrix, whose inverse is empty
        return L, M.copy()
    X, info = dpotri(L.copy(order="F"), lower=1, overwrite_c=1)
    assert info == 0
    return L, np.tril(X) + np.tril(X, -1).T


def _pivot(M):
    with pytest.raises(sc.NotPositiveDefiniteError) as err:
        sc.cholesky_pd(M)
    return int(str(err.value).split("pivot ")[1].split()[0])


@pytest.fixture(params=["bundled OpenBLAS", "scipy.linalg.lapack"])
def lapack_backend(request, monkeypatch):
    """Install each source of scipy's compiled modules in turn.

    The package calls scipy's f2py module ``scipy.linalg._flapack``, which
    wraps the LAPACK scipy links (OpenBLAS in its wheels), and its CSR
    kernels in ``scipy.sparse._sparsetools``.  It loads each module from
    its file ("bundled OpenBLAS") when its package is not imported, and
    takes the one ``scipy.linalg.lapack`` and ``scipy.sparse`` imported
    when it is.
    """
    if request.param == "bundled OpenBLAS":
        modules = {}
        for name in ("scipy.linalg._flapack", "scipy.sparse._sparsetools"):
            # the file load takes the module out of sys.modules again; keep
            # whatever scipy.linalg or scipy.sparse registered there
            monkeypatch.delitem(sys.modules, name, raising=False)
            modules[name.rpartition(".")[2]] = matcore._from_file(name)
            assert name not in sys.modules
    else:
        from scipy.linalg import lapack
        from scipy.sparse import _sparsetools

        modules = {"_flapack": lapack._flapack, "_sparsetools": _sparsetools}
    for attribute, module in modules.items():
        monkeypatch.setattr(matcore, attribute, module)
    return request.param


@pytest.mark.parametrize("p", [0, 1, 2, 20, 57, 200])
def test_lapack_backends_match_scipy_bit_for_bit(lapack_backend, p):
    M = _spd(p)
    L_ref, inverse_ref = _reference_factor_and_inverse(M)
    L = sc.cholesky_pd(M)
    assert L.flags.f_contiguous and _bits(L) == _bits(L_ref)
    A = sc.inverse_pd(M)
    assert A.flags.c_contiguous and _bits(A) == _bits(inverse_ref)
    assert sc.log_det_pd(M) == float(2.0 * np.sum(np.log(np.diag(L_ref))))
    if p >= 1:
        csr = _sparse_symmetric(p, diagonal=True)
        assert _bits(matcore._csr_times(*csr, M)) == _bits(_reference_csr_times(*csr, M))
    if p >= 2:
        from scipy.linalg.lapack import dpotrf

        for k in (0, p // 2, p - 1):
            N = M.copy()
            N[k, k] = -1.0
            assert _pivot(N) == dpotrf(N, lower=1)[1] - 1 == k


def _sparse_symmetric(p, diagonal, seed=0):
    """CSR arrays ``(indptr, indices, data)`` of a random symmetric p x p
    matrix with about 2% of its pairs nonzero, as the sparse Hessian
    kernel holds one: with its diagonal (covariance mode) or without it
    (correlation mode), where the last row is left empty too."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((p, p)) < 0.02, 1)
    mask = upper | upper.T
    if diagonal:
        np.fill_diagonal(mask, True)
    else:
        mask[-1, :] = mask[:, -1] = False
    indptr = np.zeros(p + 1, dtype=np.intp)
    np.cumsum(np.count_nonzero(mask, axis=1), out=indptr[1:])
    indices = np.flatnonzero(mask) % p
    return indptr, indices, rng.standard_normal(indices.size)


def _reference_csr_times(indptr, indices, data, X):
    """``V X`` as scipy.sparse computes it."""
    from scipy.sparse import csr_array

    p = indptr.size - 1
    return csr_array((data, indices, indptr), shape=(p, p)) @ X


@pytest.mark.parametrize("p", [1, 2, 20, 100, 200])
@pytest.mark.parametrize("mode", ["covariance", "correlation"])
def test_csr_times_matches_scipy_sparse_bit_for_bit(mode, p):
    indptr, indices, data = _sparse_symmetric(p, diagonal=mode == "covariance")
    if mode == "correlation":
        assert np.diff(indptr)[-1] == 0  # a row with no entries
    X = np.random.default_rng(1).standard_normal((p, p))
    for operand in (X, np.asfortranarray(X), X[:, : (p + 1) // 2]):
        V_X = matcore._csr_times(indptr, indices, data, operand)
        reference = _reference_csr_times(indptr, indices, data, operand)
        assert V_X.flags.c_contiguous and _bits(V_X) == _bits(reference)


def test_spectral_decompose_reconstructs(monkeypatch):
    rng = np.random.default_rng(2)
    B = rng.standard_normal((4, 4))
    M = (B + B.T) / 2
    lam, Q = sc.spectral_decompose(M)
    # to round-off, not bits: numpy's and scipy's wheels may bundle
    # different LAPACKs
    assert_allclose(Q @ np.diag(lam) @ Q.T, M, atol=1e-12)
    assert_allclose(Q.T @ Q, np.eye(4), atol=1e-12)
    assert np.all(np.diff(lam) >= 0)
    assert Q.flags.c_contiguous

    class Unconverged:
        @staticmethod
        def dsyevd(a, compute_v, lower):
            return np.zeros(4), np.eye(4), 2

    monkeypatch.setattr(matcore, "_flapack", Unconverged)
    with pytest.raises(np.linalg.LinAlgError, match="info 2"):
        sc.spectral_decompose(M)


# The sizes the kernels' rewrites are checked at: both sides of the
# inverse's mirror block (MIRROR_BLOCK = 64), and the cv_study size.
KERNEL_SIZES = [1, 2, 3, 20, 63, 64, 65, 130]


def _block_mirrored_inverse(L):
    # the inverse mirrored MIRROR_BLOCK columns at a time through a scratch
    # copy of each diagonal block: the mirror _inverse_from_cholesky runs
    # above MIRROR_BLOCK, kept here as the reference for the indexed copy
    a = np.array(L.T)  # C-ordered: the upper triangle of a is L's lower one
    p, block = a.shape[0], matcore.MIRROR_BLOCK
    assert matcore._potri(a) == 0
    for j in range(block, p, block):
        a[j : j + block, :j] = a[:j, j : j + block].T
    lower = np.tril(np.ones((block, block), dtype=bool), -1)
    for j in range(0, p, block):
        b = min(block, p - j)
        diagonal = a[j : j + b, j : j + b]
        np.copyto(diagonal, diagonal.copy().T, where=lower[:b, :b])
    return a


@pytest.mark.parametrize("p", KERNEL_SIZES)
def test_inverse_mirror_matches_the_block_mirror_bit_for_bit(p):
    M = _spd(p, seed=p)
    A = matcore._inverse_from_cholesky(sc.cholesky_pd(M))
    assert A.flags.c_contiguous
    assert _bits(A) == _bits(_block_mirrored_inverse(sc.cholesky_pd(M)))
    assert _bits(A) == _bits(A.T.copy())


@pytest.mark.parametrize("p", KERNEL_SIZES)
def test_log_det_matches_the_sum_of_logs_bit_for_bit(p):
    # one helper reads 2 sum ln L_ii, and the loss's log-det term is it:
    # the loss at S = 0 is that term alone
    M = _spd(p, seed=p) * 10.0 ** (p % 5 - 2)
    L = sc.cholesky_pd(M)
    expected = float(2.0 * np.sum(np.log(np.diag(L))))
    assert matcore._log_det_from_cholesky(L) == expected
    assert sc.log_det_pd(M) == expected
    assert sc.negative_loglik_loss(M, np.zeros((p, p))) == expected


@pytest.mark.parametrize("p", KERNEL_SIZES)
def test_frobenius_norm_as_sqrt_of_dot_matches_numpy_bit_for_bit(p):
    # the finish's ||A||_F is sqrt(x . x) over the flat inverse, which is
    # how np.linalg.norm forms it
    A = sc.inverse_pd(_spd(p, seed=p))
    flat = A.reshape(-1)
    assert math.sqrt(flat.dot(flat)) == float(np.linalg.norm(A))


@pytest.mark.parametrize("p", KERNEL_SIZES)
def test_dot_matches_matmul_bit_for_bit(p):
    # the MM step's, the gradient test's and the dense Hessian product's
    # GEMMs go through ndarray.dot, which skips np.matmul's ufunc
    # dispatch; both call the same BLAS routine, in every layout they meet
    rng = np.random.default_rng(p)
    A, B = rng.standard_normal((2, p, p))
    for X in (A, A.T):
        for Y in (B, B.T):
            out = np.empty((p, p))
            X.dot(Y, out=out)
            assert _bits(X.dot(Y)) == _bits(out) == _bits(np.matmul(X, Y))

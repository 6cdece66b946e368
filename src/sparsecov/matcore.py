"""Dense symmetric-matrix primitives shared by all estimators.

Conventions used throughout the package:

- a "symmetric matrix" is a square, finite ``float64`` ndarray validated by
  :func:`as_symmetric`;
- "positive definite" means exactly "Cholesky factorization succeeds"
  (all pivots strictly positive), which is what every backtracking and
  feasibility check in the package relies on;
- eigenvalues are always returned in ascending order.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotri

__all__ = [
    "NotPositiveDefiniteError",
    "SpectralDecomposition",
    "as_symmetric",
    "sample_covariance",
    "cholesky_pd",
    "is_positive_definite",
    "log_det_pd",
    "inverse_pd",
    "spectral_decompose",
    "save_matrix_csv",
    "load_symmetric_csv",
    "load_data_csv",
]

# Relative asymmetry above this is an input error, below it is round-off
# and gets averaged away.
SYMMETRY_RTOL = 1e-12


class NotPositiveDefiniteError(ValueError):
    """Raised when a matrix required to be positive definite is not."""


class SpectralDecomposition(NamedTuple):
    """Eigendecomposition ``Q diag(eigenvalues) Q^T`` of a symmetric matrix.

    ``eigenvalues`` are ascending; ``eigenvectors`` holds the corresponding
    orthonormal eigenvectors as columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def as_symmetric(M) -> np.ndarray:
    """Validate and canonicalize a symmetric matrix.

    Parameters
    ----------
    M : array-like, shape (p, p)
        Square matrix. Asymmetry up to ``SYMMETRY_RTOL`` (relative to the
        largest absolute entry) is treated as round-off and symmetrized
        away via ``(M + M^T) / 2``; anything larger is rejected.

    Returns
    -------
    ndarray
        Exactly symmetric float64 copy of ``M``.

    Raises
    ------
    ValueError
        If ``M`` is not square, contains non-finite entries, or is
        asymmetric beyond tolerance.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix contains non-finite entries")
    scale = max(1.0, float(np.abs(M).max())) if M.size else 1.0
    asym = float(np.abs(M - M.T).max()) if M.size else 0.0
    if asym > SYMMETRY_RTOL * scale:
        raise ValueError(
            f"matrix is asymmetric beyond tolerance: max |M - M^T| = {asym:.3e}"
        )
    return (M + M.T) / 2.0


def sample_covariance(data) -> np.ndarray:
    """Sample covariance ``(1/n) X^T X`` of an n-by-p data matrix.

    The divisor is ``n``, and columns are used as given (zero-mean
    convention).

    Parameters
    ----------
    data : array-like, shape (n, p)
        Observations in rows.

    Returns
    -------
    ndarray, shape (p, p)
        Symmetric positive semidefinite matrix.
    """
    X = np.asarray(data, dtype=float)
    if X.ndim == 1:
        X = X[np.newaxis, :]
    if X.ndim != 2 or X.size == 0:
        raise ValueError("data must be a nonempty n-by-p matrix")
    if not np.all(np.isfinite(X)):
        raise ValueError("data contains non-finite entries")
    S = X.T @ X / X.shape[0]
    return (S + S.T) / 2.0


def cholesky_pd(M: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a positive definite symmetric matrix.

    Succeeds iff all pivots are strictly positive; this is the positive
    definiteness test used throughout the package.  ``M`` is not
    validated: LAPACK reads only its lower triangle, so it must be an
    exactly symmetric float64 matrix, such as :func:`as_symmetric` returns.

    Returns
    -------
    ndarray
        Lower triangular ``L`` with ``L L^T = M``.

    Raises
    ------
    NotPositiveDefiniteError
        Naming the zero-based index of the first failing pivot.
    """
    L, info = dpotrf(M, lower=1, clean=1, overwrite_a=0)
    if info > 0:
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite (pivot {info - 1} failed)"
        )
    if info < 0:
        raise ValueError(f"invalid input to Cholesky factorization (arg {-info})")
    return L


def is_positive_definite(M: np.ndarray) -> bool:
    """True iff Cholesky factorization of ``M`` succeeds.

    Raises ValueError if ``M`` is not a finite symmetric matrix.
    """
    try:
        cholesky_pd(as_symmetric(M))
    except NotPositiveDefiniteError:
        return False
    return True


def log_det_pd(M: np.ndarray) -> float:
    """Log-determinant ``2 sum_i ln L_ii`` of a positive definite matrix."""
    L = cholesky_pd(as_symmetric(M))
    return float(2.0 * np.sum(np.log(np.diag(L))))


def inverse_pd(M: np.ndarray) -> np.ndarray:
    """Inverse of a positive definite matrix via its Cholesky factor.

    The result is exactly symmetric, so round-off cannot break
    downstream symmetry checks.
    """
    return _inverse_from_cholesky(cholesky_pd(as_symmetric(M)))


def _inverse_from_cholesky(L: np.ndarray) -> np.ndarray:
    """Inverse of ``L L^T`` from the lower factor ``L`` of :func:`cholesky_pd`.

    LAPACK ``potri`` writes the lower triangle of the inverse over a copy
    of ``L``, for less than half the cost of solving against the
    identity.  ``L``'s upper triangle is zero, so ``X + X^T`` with the
    diagonal reset mirrors that triangle into an exactly symmetric
    inverse.
    """
    X, info = dpotri(L, lower=1)
    if info != 0:
        raise ValueError(f"inverting the Cholesky factor failed (LAPACK info {info})")
    inv = X + X.T
    np.fill_diagonal(inv, np.diag(X))
    return inv


def spectral_decompose(M: np.ndarray) -> SpectralDecomposition:
    """Symmetric eigendecomposition with ascending eigenvalues.

    For symmetric matrices this coincides with the (real) Schur form, so it
    doubles as the orthogonal reduction used by the equation solvers.
    ``M`` is not validated: LAPACK reads only one triangle, so it must be
    an exactly symmetric float64 matrix, such as :func:`as_symmetric`
    returns.

    Raises
    ------
    numpy.linalg.LinAlgError
        If the iterative eigenvalue routine fails to converge.
    """
    eigenvalues, eigenvectors = np.linalg.eigh(M)
    return SpectralDecomposition(eigenvalues, eigenvectors)


def save_matrix_csv(path, M: np.ndarray) -> None:
    """Write a matrix as headerless comma-separated rows.

    ``%.17g`` formatting round-trips float64 exactly, so writing and
    re-loading is lossless and byte-deterministic.
    """
    np.savetxt(path, np.atleast_2d(np.asarray(M, dtype=float)), fmt="%.17g", delimiter=",")


def load_symmetric_csv(path) -> np.ndarray:
    """Load a symmetric matrix from headerless CSV, validating symmetry."""
    return as_symmetric(np.loadtxt(path, delimiter=",", ndmin=2))


def load_data_csv(path) -> np.ndarray:
    """Load a rectangular n-by-p data matrix from headerless CSV."""
    X = np.loadtxt(path, delimiter=",", ndmin=2)
    if not np.all(np.isfinite(X)):
        raise ValueError(f"{path}: data contains non-finite entries")
    return X

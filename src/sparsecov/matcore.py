"""Dense symmetric-matrix primitives shared by all estimators.

Conventions used throughout the package:

- a "symmetric matrix" is a square, finite ``float64`` ndarray validated by
  :func:`as_symmetric`;
- "positive definite" means exactly "Cholesky factorization succeeds"
  (all pivots strictly positive), which is what every backtracking and
  feasibility check in the package relies on.  It is not a rank test: a
  singular matrix whose round-off leaves every pivot positive passes it;
- eigenvalues are always returned in ascending order;
- the O(p^3) kernels, the Cholesky factorization, the inverse from it
  and the symmetric eigendecomposition, call LAPACK through one binding,
  scipy's f2py module ``_flapack``.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import sys
import threading
from pathlib import Path

import numpy as np

__all__ = [
    "NotPositiveDefiniteError",
    "as_symmetric",
    "sample_covariance",
    "cholesky_pd",
    "is_positive_definite",
    "log_det_pd",
    "inverse_pd",
    "spectral_decompose",
]

# Relative asymmetry above this is an input error, below it is round-off
# and gets averaged away.
SYMMETRY_RTOL = 1e-12


# _inverse_from_cholesky mirrors its triangle this many columns at a time,
# or, up to this size, in one copy through cached flat indices.  Column by
# column, the mirror took 7.9 us at p = 20, where dpotri itself takes
# 3.4 us, and 88 us at p = 200; in blocks it is 7 and 77 us cheaper, and at
# p = 20 the one indexed copy takes 1.4 us against the blocks' 5.5 us.
MIRROR_BLOCK = 64

# Per-thread scratch for the mirror's diagonal block.  Threads must not
# share it, since numpy's copies run with the interpreter lock released.
_workspace = threading.local()


class NotPositiveDefiniteError(ValueError):
    """Raised when a matrix required to be positive definite is not."""


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
        Exactly symmetric float64 matrix.  When ``M`` already is a
        C-contiguous float64 ndarray whose every entry is bitwise equal
        to its mirror, the result is ``M`` itself, not a copy, so callers
        must not write into it; ``(M + M^T) / 2`` would equal it bit for
        bit.  Otherwise the result is that symmetrized copy.

    Raises
    ------
    ValueError
        If ``M`` is not square, contains non-finite entries, or is
        asymmetric beyond tolerance.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError("matrix contains non-finite entries")
    # bitwise, so that a 0.0 mirrored by a -0.0 still gets the copy
    if M.flags.c_contiguous:
        bits = M.view(np.uint64)
        if (bits == bits.T).all():
            return M
    scale = max(1.0, float(np.abs(M).max())) if M.size else 1.0
    asym = float(np.abs(M - M.T).max()) if M.size else 0.0
    if asym > SYMMETRY_RTOL * scale:
        raise ValueError(
            f"matrix is asymmetric beyond tolerance: max |M - M^T| = {asym:.3e}"
        )
    # halved first, so that entries near the largest float cannot overflow;
    # above the subnormal range this equals (M + M^T) / 2 bit for bit
    return M / 2.0 + M.T / 2.0


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

    Raises
    ------
    ValueError
        If the data are not a nonempty finite matrix, or if their scale
        overflows float64 in the covariance.
    """
    X = np.asarray(data, dtype=float)
    if X.ndim == 1:
        X = X[np.newaxis, :]
    if X.ndim != 2 or X.size == 0:
        raise ValueError("data must be a nonempty n-by-p matrix")
    if not np.isfinite(X).all():
        raise ValueError("data contains non-finite entries")
    with np.errstate(over="ignore"):
        S = X.T @ X / X.shape[0]
        S = (S + S.T) / 2.0
    if not np.isfinite(S).all():
        raise ValueError(
            "the data's scale overflows float64 in the sample covariance; "
            "rescale the data"
        )
    return S


_FLAPACK = "scipy.linalg._flapack"


def _flapack_from_file():
    """scipy's f2py LAPACK module ``scipy.linalg._flapack``, executed from its
    file without importing ``scipy.linalg``, and left out of ``sys.modules``.

    The loader of a single-phase extension module registers it there
    itself; left registered, it would keep a later ``import scipy.linalg``
    from binding its own ``_flapack`` as an attribute of the package.
    """
    scipy = importlib.util.find_spec("scipy")
    roots = scipy.submodule_search_locations if scipy else []
    folders = [str(Path(root) / "linalg") for root in roots]
    spec = importlib.machinery.PathFinder.find_spec(_FLAPACK, folders)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {_FLAPACK!r}", name=_FLAPACK)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(_FLAPACK, None)
    return module


def _load_flapack():
    """``scipy.linalg._flapack``: the imported module if there is one, else
    the module loaded from its file.

    Importing ``scipy.linalg`` for it took 0.3 s of a 0.45 s ``import
    sparsecov`` on a 2-CPU x86-64 host.
    """
    if _FLAPACK in sys.modules:
        return sys.modules[_FLAPACK]
    try:
        return _flapack_from_file()
    except ImportError:
        # scipy's delvewheel-built Windows wheels put the DLLs the module
        # links against on the search path in scipy/__init__, so there the
        # file may load only once the top-level package has run
        importlib.import_module("scipy")
        return _flapack_from_file()


_flapack = _load_flapack()


# LAPACK's Cholesky factorization and inverse from the factor.  Each works
# in place on a nonempty square C-contiguous float64 array ``a``, whose
# memory LAPACK reads as the Fortran-order matrix ``a.T``, on its lower
# triangle, and returns LAPACK's ``info``.  ``_potrf`` zeroes the strict
# upper triangle of ``a.T`` when it succeeds.
# The options go by position, all of them 1, so their order in the
# wrapper's signature does not matter: ``lower``, ``clean`` and
# ``overwrite_a`` for dpotrf, ``lower`` and ``overwrite_c`` for dpotri.
# As keywords they cost the f2py wrapper about 0.6 us more a call.
def _potrf(a: np.ndarray) -> int:
    return _flapack.dpotrf(a.T, 1, 1, 1)[1]


def _potri(a: np.ndarray) -> int:
    return _flapack.dpotri(a.T, 1, 1)[1]


def cholesky_pd(M: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a positive definite symmetric matrix.

    Succeeds iff all pivots are strictly positive; this is the positive
    definiteness test used throughout the package.  ``M`` is not
    validated: LAPACK reads only one triangle, so it must be an exactly
    symmetric float64 matrix, such as :func:`as_symmetric` returns.

    Returns
    -------
    ndarray
        Lower triangular ``L`` with ``L L^T = M``, in Fortran order.

    Raises
    ------
    NotPositiveDefiniteError
        Naming the zero-based index of the first failing pivot.
    """
    # a C-order copy of a symmetric matrix is its Fortran-order copy too
    a = np.array(M, dtype=float, order="C")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    info = _potrf(a) if a.size else 0
    if info > 0:
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite (pivot {info - 1} failed)"
        )
    if info < 0:
        raise ValueError(f"invalid input to Cholesky factorization (arg {-info})")
    return a.T


def is_positive_definite(M: np.ndarray) -> bool:
    """True iff Cholesky factorization of ``M`` succeeds.

    Not a rank test: round-off can leave every pivot of a singular ``M``
    positive.  The sample covariance of 3 rows at p = 5, of rank 3, can
    pass.

    Raises ValueError if ``M`` is not a finite symmetric matrix.
    """
    try:
        cholesky_pd(as_symmetric(M))
    except NotPositiveDefiniteError:
        return False
    return True


def log_det_pd(M: np.ndarray) -> float:
    """Log-determinant ``2 sum_i ln L_ii`` of a positive definite matrix."""
    return _log_det_from_cholesky(cholesky_pd(as_symmetric(M)))


def _log_det_from_cholesky(L: np.ndarray) -> float:
    """``2 sum_i ln L_ii`` from the factor ``L`` of :func:`cholesky_pd`."""
    return 2.0 * float(np.log(L.diagonal()).sum())


def inverse_pd(M: np.ndarray) -> np.ndarray:
    """Inverse of a positive definite matrix via its Cholesky factor.

    The result is exactly symmetric, so round-off cannot break
    downstream symmetry checks.
    """
    return _inverse_from_cholesky(cholesky_pd(as_symmetric(M)))


def _inverse_from_cholesky(L: np.ndarray) -> np.ndarray:
    """Inverse of ``L L^T`` from the lower factor ``L`` of :func:`cholesky_pd`,
    which it consumes: read anything else from ``L`` before the call.

    LAPACK ``potri`` writes the lower triangle of the inverse over ``L``
    itself, for less than half the cost of solving against the identity,
    and the triangle is mirrored in place: in one indexed copy up to
    ``p = MIRROR_BLOCK``, and ``MIRROR_BLOCK`` columns at a time above
    it.  The result is exactly symmetric and C-contiguous: it is the
    transpose of the F-ordered factor's memory, which equals that matrix
    since it is symmetric.
    """
    a = L.T  # the upper triangle of ``a`` is the lower one of ``L``
    p = a.shape[0]
    info = _potri(a) if p else 0
    if info != 0:
        raise ValueError(f"inverting the Cholesky factor failed (LAPACK info {info})")
    if p <= MIRROR_BLOCK:
        upper, lower = _triangle_index(p)
        flat = a.reshape(-1)  # a view: ``a`` is C-contiguous
        flat[lower] = flat[upper]
        return a
    for j in range(MIRROR_BLOCK, p, MIRROR_BLOCK):
        a[j : j + MIRROR_BLOCK, :j] = a[:j, j : j + MIRROR_BLOCK].T
    # A diagonal block overlaps its own transpose, which numpy would copy
    # to a new array on every call; it is copied to this thread's scratch.
    try:
        scratch = _workspace.mirror
    except AttributeError:
        scratch = _workspace.mirror = np.empty((MIRROR_BLOCK, MIRROR_BLOCK))
    lower = _strict_upper(MIRROR_BLOCK).T
    for j in range(0, p, MIRROR_BLOCK):
        b = min(MIRROR_BLOCK, p - j)
        block, copy = a[j : j + b, j : j + b], scratch[:b, :b]
        np.copyto(copy, block)
        np.copyto(block, copy.T, where=lower[:b, :b])
    return a


@functools.lru_cache(maxsize=8)
def _triangle_index(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only flat indices ``(upper, lower)`` of a p x p matrix's strict
    upper triangle in row-major order and of their mirror images: entry
    ``t`` is ``(i, j)``, ``i < j``, at ``upper[t] = i p + j`` and
    ``lower[t] = j p + i``."""
    rows, cols = np.triu_indices(p, 1)
    upper, lower = rows * p + cols, cols * p + rows
    upper.flags.writeable = lower.flags.writeable = False
    return upper, lower


@functools.lru_cache(maxsize=8)
def _strict_upper(p: int) -> np.ndarray:
    """Read-only boolean mask of the strict upper triangle of a p x p matrix."""
    mask = np.triu(np.ones((p, p), dtype=bool), 1)
    mask.flags.writeable = False
    return mask


def spectral_decompose(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric eigendecomposition ``Q diag(eigenvalues) Q^T``.

    For symmetric matrices this coincides with the (real) Schur form, so it
    doubles as the orthogonal reduction used by the equation solvers.
    ``M`` is not validated: LAPACK reads only one triangle, so it must be
    an exactly symmetric float64 matrix, such as :func:`as_symmetric`
    returns.

    Returns
    -------
    (eigenvalues, eigenvectors)
        The eigenvalues ascending, and a C-contiguous matrix whose columns
        are the corresponding orthonormal eigenvectors.

    Raises
    ------
    numpy.linalg.LinAlgError
        If the iterative eigenvalue routine fails to converge.
    """
    # LAPACK dsyevd on the lower triangle, as numpy.linalg.eigh runs it:
    # the transpose of a symmetric matrix is itself, and f2py copies it to
    # the Fortran-order array that dsyevd overwrites.  The eigenvectors
    # come back in Fortran order; the solvers' products on them round as
    # they did under eigh only once they are copied to C order.
    eigenvalues, eigenvectors, info = _flapack.dsyevd(np.asarray(M, dtype=float).T, 1, 1)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"symmetric eigendecomposition failed (LAPACK info {info})"
        )
    return eigenvalues, np.array(eigenvectors, order="C")

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

import ctypes
import functools
import importlib.util
import threading
from pathlib import Path
from typing import NamedTuple

import numpy as np

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


# _inverse_from_cholesky mirrors its triangle this many columns at a time.
# Column by column, the mirror took 7.9 us at p = 20, where dpotri itself
# takes 3.4 us, and 88 us at p = 200; in blocks it is 7 and 77 us cheaper.
MIRROR_BLOCK = 64

# Per-thread scratch: the ctypes backend's LAPACK integers and the mirror's
# diagonal block.  Threads must not share them, since LAPACK and numpy's
# copies run with the interpreter lock released.
_workspace = threading.local()


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
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix contains non-finite entries")
    # bitwise, so that a 0.0 mirrored by a -0.0 still gets the copy
    if M.flags.c_contiguous and np.array_equal(M.view(np.uint64), M.T.view(np.uint64)):
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


def _openblas_libraries(package: str) -> list[Path]:
    """The OpenBLAS copies bundled in ``package``'s wheel, found without
    importing the package.

    numpy's and scipy's wheels bundle ``libscipy_openblas*`` beside the
    package, in ``<package>.libs``, on Linux and Windows, and inside it, in
    ``<package>/.dylibs``, on macOS.  A conda or system install bundles none.
    """
    spec = importlib.util.find_spec(package)
    if spec is None or not spec.submodule_search_locations:
        return []
    root = Path(list(spec.submodule_search_locations)[0])
    return [
        path
        for folder in (root.parent / f"{package}.libs", root / ".dylibs")
        for path in sorted(folder.glob("libscipy_openblas*"))
        if path.suffix in (".so", ".dylib", ".dll")
    ]


def _openblas_functions(package: str, *names: str) -> list[tuple[list, type]]:
    """``scipy_<name><suffix>`` for every name, from each OpenBLAS copy bundled
    in ``package``'s wheel that exports them all, with the integer type of
    its LAPACK interface: the suffix ``64_`` marks an ILP64 build, none an
    LP64 one."""
    found = []
    for path in _openblas_libraries(package):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for suffix, integer in (("64_", ctypes.c_int64), ("", ctypes.c_int)):
            functions = [getattr(lib, f"scipy_{name}{suffix}", None) for name in names]
            if None not in functions:
                found.append((functions, integer))
                break
    return found


def _openblas_lapack():
    """``(potrf, potri)`` bound with ctypes to the OpenBLAS in scipy's wheel,
    the library that scipy's own LAPACK wrappers call; None without one.

    They make the calls those wrappers make, on the same memory, so their
    results are the wrappers' bit for bit; but they import no scipy
    module, where ``scipy.linalg`` took 0.3 s of a 0.45 s ``import
    sparsecov`` on a 2-CPU x86-64 host.
    """
    found = _openblas_functions("scipy", "dpotrf_", "dpotri_", "dlaset_")
    if not found:
        return None
    (dpotrf, dpotri, dlaset), integer = found[0]
    # No argtypes: every argument below is already what the parameter
    # takes (bytes for a character, byref for a pointer, c_size_t for the
    # hidden length of a character), and converting each on every call
    # cost 2.5 us of a 9 us factor-and-invert at p = 20 (2-CPU x86-64 host).
    for function in (dpotrf, dpotri, dlaset):
        function.restype = None
    byref, from_buffer = ctypes.byref, ctypes.c_char.from_buffer
    width = ctypes.sizeof(integer)
    zero = byref(ctypes.c_double(0.0))
    one = ctypes.c_size_t(1)

    def integers(p: int) -> tuple:
        """This thread's integers ``[p, p - 1, info]``, and references to each."""
        try:
            refs = _workspace.lapack
        except AttributeError:
            ints = (integer * 3)()
            refs = _workspace.lapack = (
                ints, byref(ints), byref(ints, width), byref(ints, 2 * width)
            )
        refs[0][0] = p
        refs[0][1] = p - 1
        return refs

    def potrf(a: np.ndarray) -> int:
        ints, n, m, info = integers(a.shape[0])
        buffer = from_buffer(a)
        dpotrf(b"L", n, byref(buffer), n, info, one)
        if ints[2] == 0:
            # the strict upper triangle is the upper triangle of the
            # (p - 1)-square matrix from the second column on
            dlaset(b"U", m, m, zero, zero, byref(buffer, a.strides[0]), n, one)
        return ints[2]

    def potri(a: np.ndarray) -> int:
        ints, n, _, info = integers(a.shape[0])
        dpotri(b"L", n, byref(from_buffer(a)), n, info, one)
        return ints[2]

    return potrf, potri


def _scipy_lapack():
    """``(potrf, potri)`` through ``scipy.linalg.lapack``, for a scipy that
    bundles no OpenBLAS, as conda and system packages do."""
    from scipy.linalg.lapack import dpotrf, dpotri

    def potrf(a: np.ndarray) -> int:
        return dpotrf(a.T, lower=1, clean=1, overwrite_a=1)[1]

    def potri(a: np.ndarray) -> int:
        return dpotri(a.T, lower=1, overwrite_c=1)[1]

    return potrf, potri


# LAPACK's Cholesky factorization and inverse from the factor, chosen once.
# Each works in place on a nonempty square C-contiguous float64 array ``a``,
# whose memory LAPACK reads as the Fortran-order matrix ``a.T``, on its
# lower triangle, and returns LAPACK's ``info``.  ``potrf`` zeroes the
# strict upper triangle of ``a.T`` when it succeeds.
_potrf, _potri = _openblas_lapack() or _scipy_lapack()


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
    """Inverse of ``L L^T`` from the lower factor ``L`` of :func:`cholesky_pd`,
    which it consumes: read anything else from ``L`` before the call.

    LAPACK ``potri`` writes the lower triangle of the inverse over ``L``
    itself, for less than half the cost of solving against the identity,
    and the triangle is mirrored in place, ``MIRROR_BLOCK`` columns at a
    time.  The result is exactly symmetric and C-contiguous: it is the
    transpose of the F-ordered factor's memory, which equals that matrix
    since it is symmetric.
    """
    a = L.T  # the upper triangle of ``a`` is the lower one of ``L``
    p = a.shape[0]
    info = _potri(a) if p else 0
    if info != 0:
        raise ValueError(f"inverting the Cholesky factor failed (LAPACK info {info})")
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
def _strict_upper(p: int) -> np.ndarray:
    """Read-only boolean mask of the strict upper triangle of a p x p matrix."""
    mask = np.triu(np.ones((p, p), dtype=bool), 1)
    mask.flags.writeable = False
    return mask


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

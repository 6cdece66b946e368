"""Sparsity constraint sets, their projections, and the distance penalty.

The covariance constraint set consists of symmetric matrices with at most
``k`` nonzero entries in the strict upper triangle (mirrored below), with
the diagonal left unconstrained.  The correlation variant additionally
forces a unit diagonal.  Projection is hard thresholding: keep the ``k``
largest-magnitude off-diagonal entries, zero the rest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import as_symmetric

__all__ = ["SparsityConstraint", "project", "squared_distance", "support_mask"]

MODES = ("covariance", "correlation")


@dataclass(frozen=True)
class SparsityConstraint:
    """Constraint descriptor: at most ``k`` nonzero strict-upper entries.

    ``mode`` selects the plain covariance set or the unit-diagonal
    correlation set.
    """

    k: int
    mode: str = "covariance"

    def __post_init__(self):
        if int(self.k) != self.k or self.k < 0:
            raise ValueError(f"k must be a nonnegative integer, got {self.k}")
        object.__setattr__(self, "k", int(self.k))
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")

    def check_dimension(self, p: int) -> None:
        limit = p * (p - 1) // 2
        if self.k > limit:
            raise ValueError(
                f"k={self.k} exceeds the {limit} strict-upper entries of a {p}x{p} matrix"
            )


def _project(M: np.ndarray, c: SparsityConstraint) -> np.ndarray:
    """:func:`project` without validation: ``M`` must be exactly symmetric
    and ``c`` must fit its dimension.

    Selects on ``triu(M, 1)`` itself.  A partition of its magnitudes finds
    the k-th largest; entries above it are kept, then the tied entries in
    row-major order, which breaks ties toward the smaller (row, col) so
    the projection is deterministic even on the measure-zero tie set.
    Exactly-zero entries are never kept.
    """
    upper = np.triu(M, 1)
    mags = np.abs(upper).ravel()
    kth = np.partition(mags, mags.size - c.k)[mags.size - c.k] if c.k else np.inf
    keep = mags > kth
    if kth > 0.0:
        ties = np.flatnonzero(mags == kth)[: c.k - np.count_nonzero(keep)]
        keep[ties] = True
    upper[~keep.reshape(upper.shape)] = 0.0
    out = upper + upper.T
    np.fill_diagonal(out, 1.0 if c.mode == "correlation" else np.diag(M))
    return out


def project(M: np.ndarray, c: SparsityConstraint) -> np.ndarray:
    """Euclidean projection of a symmetric matrix onto the constraint set.

    Covariance mode copies the diagonal unchanged; correlation mode sets it
    to ones.  In both modes the ``k`` largest-magnitude strict-upper
    entries survive and are mirrored to the lower triangle.
    """
    M = as_symmetric(M)
    c.check_dimension(M.shape[0])
    return _project(M, c)


def squared_distance(M: np.ndarray, c: SparsityConstraint) -> float:
    """Squared Frobenius distance from ``M`` to the constraint set.

    Zero exactly when ``M`` is a member.
    """
    M = as_symmetric(M)
    c.check_dimension(M.shape[0])
    diff = M - _project(M, c)
    return float(np.sum(diff * diff))


def support_mask(M: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Boolean mask of entries with ``|M_ij| > tol``.

    With ``tol=None`` a reporting default of ``1e-8 * max|M|`` is used;
    pass ``tol=0.0`` to count exact nonzeros (e.g. projector output).
    """
    M = np.asarray(M, dtype=float)
    if tol is None:
        tol = 1e-8 * float(np.abs(M).max()) if M.size else 0.0
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    return np.abs(M) > tol

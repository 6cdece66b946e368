"""Sparsity constraint sets, their projections, and the distance penalty.

The covariance constraint set consists of symmetric matrices with at most
``k`` nonzero entries in the strict upper triangle (mirrored below), with
the diagonal left unconstrained.  The correlation variant additionally
forces a unit diagonal.  Projection is hard thresholding: keep the ``k``
largest-magnitude off-diagonal entries, zero the rest.  A member of the
set holds its support in its exact nonzeros, with no tolerance, and that
is the support the package scores an estimate on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import _strict_upper, as_symmetric

__all__ = ["SparsityConstraint", "project", "squared_distance"]

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
        try:
            whole = int(self.k) == self.k
        except (OverflowError, ValueError):  # an infinite or NaN k
            whole = False
        if not whole or self.k < 0:
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


def _select(M: np.ndarray, c: SparsityConstraint) -> tuple[np.ndarray, float]:
    """The support of ``P(M)`` as a boolean p x p mask, and ``dist(M, C)^2``,
    without validation: ``M`` must be exactly symmetric and ``c`` must fit
    its dimension.  The mask is ``P(M) != 0`` and the distance is
    ``||M - P(M)||_F^2``, both bit for bit, with no ``P(M)`` formed.

    Selects on the strict upper triangle, gathered in row-major order
    through a cached mask.  A partition of its magnitudes finds the k-th
    largest; entries above it are kept, then the tied entries in
    row-major order, which breaks ties toward the smaller (row, col) so
    the projection is deterministic even on the measure-zero tie set.
    Exactly-zero entries are never kept.  The mask holds the kept pairs in
    both triangles and the diagonal of ``P(M)``: ``M``'s nonzero diagonal
    in covariance mode, all of it in correlation mode.

    The distance sums one p x p buffer: ``M * M`` with the masked entries
    zeroed, which are the entries ``M - P(M)`` holds as 0, and in
    correlation mode ``(M_ii - 1)^2`` on the diagonal.  The magnitudes are
    let go before the mask and the buffer are allocated, so that a
    selection peaks at 1.2 p x p buffers, its mask included, as
    :func:`_project` does.
    """
    p = M.shape[0]
    upper = _strict_upper(p)
    vals = M[upper]
    mags = np.abs(vals)
    k = c.k
    kth = np.inf
    if k:
        mags.partition(mags.size - k)
        kth = mags[mags.size - k]
        np.abs(vals, out=mags)  # the partition reordered them
    del vals
    if kth > 0.0:
        keep = mags >= kth
        extra = np.count_nonzero(keep) - k
        if extra:  # more ties than places: the last ones in row-major order go
            ties = np.flatnonzero(mags == kth)
            keep[ties[ties.size - extra :]] = False
    else:
        keep = mags > kth
    del mags
    mask = np.zeros(M.shape, dtype=bool)
    mask[upper] = keep
    mask.T[upper] = keep
    correlation = c.mode == "correlation"
    # a float cast to bool is True where it is nonzero
    mask.reshape(-1)[:: p + 1] = True if correlation else M.diagonal()
    residual = np.multiply(M, M)
    residual[mask] = 0.0
    if correlation:
        off = M.diagonal() - 1.0
        off *= off
        residual.reshape(-1)[:: p + 1] = off
    return mask, float(residual.sum())


def _on_support(M: np.ndarray, mask: np.ndarray, c: SparsityConstraint) -> np.ndarray:
    """``P(M)`` from its support ``mask``, as :func:`_select` returns it."""
    out = np.zeros(M.shape)
    np.copyto(out, M, where=mask)
    out.reshape(-1)[:: M.shape[0] + 1] = 1.0 if c.mode == "correlation" else M.diagonal()
    return out


def _project(M: np.ndarray, c: SparsityConstraint) -> np.ndarray:
    """:func:`project` without validation: ``M`` must be exactly symmetric
    and ``c`` must fit its dimension."""
    return _on_support(M, _select(M, c)[0], c)


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
    return _select(M, c)[1]


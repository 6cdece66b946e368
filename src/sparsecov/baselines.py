"""Thresholding covariance estimators used as comparison baselines.

Entrywise soft and hard thresholding of the sample covariance matrix,
diagonal left untouched.  Thresholding does not stay inside the
positive definite cone, so path entries carry an explicit PD flag
instead of any repair step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .matcore import as_symmetric, is_positive_definite

__all__ = ["ThresholdSpec", "ThresholdPathEntry", "threshold", "threshold_path"]

KINDS = ("soft", "hard")


@dataclass(frozen=True)
class ThresholdSpec:
    """A threshold level ``lam >= 0`` and a kind, ``soft`` or ``hard``."""

    lam: float
    kind: str

    def __post_init__(self):
        if not self.lam >= 0:
            raise ValueError(f"lam must be nonnegative, got {self.lam}")
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")


class ThresholdPathEntry(NamedTuple):
    lam: float
    estimate: np.ndarray
    is_pd: bool
    nnz: int


def threshold(S: np.ndarray, spec: ThresholdSpec) -> np.ndarray:
    """Threshold the off-diagonal entries of ``S``.

    Soft thresholding maps each off-diagonal entry ``s`` to
    ``sign(s) * max(|s| - lam, 0)``; hard thresholding keeps ``s`` when
    ``|s| > lam`` and zeroes it otherwise.  The diagonal is never
    touched.  The result is symmetric but need not be positive
    definite.
    """
    S = as_symmetric(S)
    if spec.kind == "soft":
        out = np.sign(S) * np.maximum(np.abs(S) - spec.lam, 0.0)
    else:
        out = np.where(np.abs(S) > spec.lam, S, 0.0)
    out.reshape(-1)[:: S.shape[0] + 1] = S.diagonal()
    return out


def threshold_path(
    S: np.ndarray, kind: str, grid: list[float] | np.ndarray
) -> list[ThresholdPathEntry]:
    """Evaluate one thresholding estimator along an ascending grid.

    Returns one entry per level with the estimate, a positive
    definiteness flag, and the strict upper-triangular nonzero count.
    The count is nonincreasing along the grid.

    Raises
    ------
    ValueError
        If the grid is empty or not ascending.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    if np.any(np.diff(grid) < 0):
        raise ValueError("grid must be ascending")
    S = as_symmetric(S)
    path = []
    for lam in grid:
        est = threshold(S, ThresholdSpec(lam=float(lam), kind=kind))
        path.append(
            ThresholdPathEntry(
                lam=float(lam),
                estimate=est,
                is_pd=is_positive_definite(est),
                nnz=int(np.count_nonzero(np.triu(est, 1))),
            )
        )
    return path

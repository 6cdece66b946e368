"""The methods under comparison, and their tuning along a grid.

``METHODS`` names them: the proximal distance estimator ``proxdist``,
tuned on sparsity levels k, and the ``soft`` and ``hard`` thresholding
baselines, tuned on threshold levels.  :func:`_estimate` is the one
dispatch from a method and a grid value to an estimate and its support,
which cross-validation and :func:`roc_sweep` read: a fit's
``FitResult.support``, or a threshold's exact nonzeros.

K-fold cross-validation partitions the rows of the data matrix.  For
each grid value the estimator is fit on the training folds' sample
covariance and scored against the held-out folds' sample covariance, by
default in Frobenius norm.  The entropy-loss option scores
``entropy_loss(S_test, estimate)`` and falls back to Frobenius on folds
whose held-out covariance is not positive definite.

Ties in the mean CV loss break toward parsimony: the smallest sparsity
level k, or the largest threshold.  A selected value on either end of
the grid triggers a warning rather than any automatic grid extension.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .baselines import ThresholdSpec, threshold
from .evaluation import _check_same_shape, _support_rates, entropy_loss
from .matcore import (
    NotPositiveDefiniteError,
    as_symmetric,
    is_positive_definite,
    sample_covariance,
)
from .proxdist import FitConfig, fit
from .sparsity import SparsityConstraint

__all__ = ["CvSpec", "CvRow", "kfold_split", "cross_validate", "default_grid", "roc_sweep"]

METHODS = ("proxdist", "soft", "hard")
LOSSES = ("frobenius", "entropy")


def _check_method(method: str) -> None:
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")


@dataclass(frozen=True)
class CvSpec:
    """Cross-validation protocol: fold count, parameter grid, loss, seed."""

    grid: Sequence[float]
    folds: int = 5
    loss: str = "frobenius"
    seed: int = 0

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        if grid.ndim != 1 or grid.size == 0:
            raise ValueError("grid must be a nonempty 1-D sequence")
        if not np.all(np.isfinite(grid)):
            raise ValueError(f"grid values must be finite, got {grid}")
        if np.any(np.diff(grid) < 0):
            raise ValueError("grid must be ascending")
        try:
            operator.index(self.folds)
        except TypeError:
            raise ValueError(f"folds must be an integer, got {self.folds!r}") from None
        if self.folds < 2:
            raise ValueError(f"folds must be at least 2, got {self.folds}")
        if self.loss not in LOSSES:
            raise ValueError(f"loss must be one of {LOSSES}, got {self.loss!r}")


class CvRow(NamedTuple):
    param: float
    mean_loss: float
    stderr: float
    n_folds: int
    boundary: bool


def kfold_split(n: int, folds: int, seed: int) -> list[np.ndarray]:
    """Partition ``range(n)`` into ``folds`` index arrays of near-equal size.

    Sizes differ by at most one; the assignment is a seeded permutation,
    identical across calls with the same arguments.
    """
    if n < folds:
        raise ValueError(f"need n >= folds, got n={n}, folds={folds}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    return list(np.array_split(rng.permutation(n), folds))


def default_grid(method: str, S: np.ndarray, size: int = 40) -> np.ndarray:
    """The standard tuning grid for one method on sample covariance ``S``.

    The distinct sparsity levels of ``round(linspace(0, p(p-1)/2, size))``
    for the penalized estimator, so at most ``size`` of them, fewer when
    p(p-1)/2 < size - 1; threshold levels ``linspace(0, max off-diagonal
    |S|, size)`` for the baselines.
    """
    _check_method(method)
    S = np.asarray(S, dtype=float)
    p = S.shape[0]
    if method == "proxdist":
        # the rounded levels never decrease, so the first of each run of
        # equal ones are the distinct levels; np.unique would load numpy.ma
        levels = np.rint(np.linspace(0, p * (p - 1) // 2, size)).astype(int)
        first = np.ones(levels.size, dtype=bool)
        np.not_equal(levels[1:], levels[:-1], out=first[1:])
        return levels[first]
    off = np.abs(S - np.diag(np.diag(S)))
    return np.linspace(0.0, float(off.max()), size)


def _estimate(
    method: str, S: np.ndarray, param: float, cfg: FitConfig
) -> tuple[np.ndarray, np.ndarray]:
    """``method``'s estimate from ``S`` at grid value ``param``, and its support.

    ``proxdist`` fits at sparsity level ``round(param)`` and passes on the
    fit's ``FitResult.support``; ``soft`` and ``hard`` threshold at level
    ``param``, and their support is the estimate's exact nonzeros.
    """
    if method == "proxdist":
        res = fit(S, SparsityConstraint(k=int(round(param))), cfg)
        return res.sigma_hat, res.support
    est = threshold(S, ThresholdSpec(lam=float(param), kind=method))
    return est, est != 0.0


def _cell_loss(
    method: str,
    S_train: np.ndarray,
    S_test: np.ndarray,
    entropy: bool,
    param: float,
    cfg: FitConfig,
) -> float:
    """One cell's held-out loss; its estimate goes when it returns."""
    est = _estimate(method, S_train, param, cfg)[0]
    if entropy:
        return entropy_loss(S_test, est)
    return float(np.linalg.norm(est - S_test))


def cross_validate(
    data: np.ndarray,
    method: str,
    spec: CvSpec,
    cfg: FitConfig = FitConfig(),
) -> tuple[int | float, list[CvRow]]:
    """Select a tuning parameter by k-fold CV on a data matrix.

    Returns ``(best_param, table)`` where the table has one row per grid
    value with the mean held-out loss and its standard error.  A failed
    fit on a fold scores that cell as +inf with a warning.  The
    ``boundary`` field is set on the selected row when its value is the
    grid's first or last.  Folds are scored one at a time, every grid
    value on one fold's pair of sample covariances before the next pair
    is built, so that one pair is held at a time.

    Parameters
    ----------
    data : ndarray, shape (n, p)
        Raw observations; each fold's sample covariance uses divisor
        n_fold without centering.
    method : str
        One of ``proxdist``, ``soft``, ``hard``.
    spec : CvSpec
        Folds, grid, loss, and fold-assignment seed.
    cfg : FitConfig
        Passed to the penalized fits; ignored by the baselines.
    """
    _check_method(method)
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise ValueError(f"data must be 2-D, got shape {data.shape}")
    grid = np.asarray(spec.grid, dtype=float)
    folds = kfold_split(data.shape[0], spec.folds, spec.seed)

    losses = np.empty((grid.size, len(folds)))
    warned = False
    for fi, test_idx in enumerate(folds):
        mask = np.ones(data.shape[0], dtype=bool)
        mask[test_idx] = False
        S_train = sample_covariance(data[mask])
        S_test = sample_covariance(data[test_idx])
        entropy = spec.loss == "entropy" and is_positive_definite(S_test)
        if spec.loss == "entropy" and not entropy and not warned:
            warnings.warn(
                "held-out sample covariance not positive definite on some folds; "
                "those folds fall back to Frobenius loss",
                stacklevel=2,
            )
            warned = True
        for gi, param in enumerate(grid):
            try:
                losses[gi, fi] = _cell_loss(method, S_train, S_test, entropy, param, cfg)
            except (NotPositiveDefiniteError, RuntimeError, np.linalg.LinAlgError) as exc:
                warnings.warn(
                    f"fold {fi} failed at parameter {param:g} ({exc}); "
                    "scoring the cell as +inf",
                    stacklevel=2,
                )
                losses[gi, fi] = np.inf
        del S_train, S_test  # before the next fold's pair is built

    means = losses.mean(axis=1)
    with np.errstate(invalid="ignore"):
        stderrs = losses.std(axis=1, ddof=1) / np.sqrt(len(folds))
    tied = np.flatnonzero(means == means.min())
    best_idx = int(tied[0]) if method == "proxdist" else int(tied[-1])
    on_boundary = grid[best_idx] in (grid[0], grid[-1])
    if on_boundary:
        warnings.warn(
            f"selected parameter {grid[best_idx]:g} lies on the grid boundary; "
            "consider widening the grid",
            stacklevel=2,
        )

    table = [
        CvRow(
            param=float(grid[gi]),
            mean_loss=float(means[gi]),
            stderr=float(stderrs[gi]),
            n_folds=len(folds),
            boundary=(gi == best_idx and on_boundary),
        )
        for gi in range(grid.size)
    ]
    best_param = int(round(grid[best_idx])) if method == "proxdist" else float(grid[best_idx])
    return best_param, table


def roc_sweep(
    S: np.ndarray,
    Sigma_true: np.ndarray,
    method: str,
    grid,
    cfg: FitConfig = FitConfig(),
) -> list[tuple[float, float]]:
    """Operating points (fpr, tpr) along a regularization grid.

    ``method`` is one of ``proxdist`` (grid of sparsity levels k),
    ``soft``, or ``hard`` (grids of threshold levels).  Each point is
    ``(fp_rate, 1 - fn_rate)`` of the support :func:`_estimate` gives at
    that grid value, against the true support; points are returned
    sorted by fpr.
    """
    _check_method(method)
    S = as_symmetric(S)
    Sigma_true = as_symmetric(Sigma_true)
    _check_same_shape(S, Sigma_true)
    points = []
    for g in np.asarray(grid).ravel():
        fp, fn = _support_rates(Sigma_true, _estimate(method, S, g, cfg)[1])
        points.append((fp, 1.0 - fn))
    return sorted(points)

"""Accuracy and likelihood metrics for covariance estimates.

Conventions, stated once here:

* RMSE divides the squared Frobenius distance by all p^2 entries, so
  symmetric pairs count twice.
* An estimate's support is a mask the caller supplies, such as the one
  ``tuning._estimate`` pairs with each method's estimate: a fit's
  ``FitResult.support``, or a threshold's exact nonzeros.  Without one,
  :func:`compute_report` takes ``support_mask(Sigma_hat)``, and
  :func:`fp_fn_rates` reads ``support_mask(Sigma_hat, tol)``.  False
  positive and false negative rates, ``nnz`` and the information
  criteria's model size all read that one support.
* False positive and false negative rates are computed over strict
  upper-triangular positions only, per class, with 0/0 taken as 0.
* The Gaussian negative log-likelihood drops the (np/2) ln(2*pi)
  constant; model comparisons at fixed data are unaffected.
* Information criteria count q = p + (strict-upper support entries) free
  parameters; EBIC adds 2*gamma*q*ln(p(p+1)/2) with gamma = EBIC_GAMMA
  = 0.5.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .matcore import NotPositiveDefiniteError, as_symmetric, log_det_pd
from .proxdist import negative_loglik_loss
from .sparsity import support_mask

__all__ = [
    "MetricReport",
    "entropy_loss",
    "rmse",
    "fp_fn_rates",
    "gaussian_nll",
    "info_criteria",
    "compute_report",
]

EBIC_GAMMA = 0.5


@dataclass(frozen=True)
class MetricReport:
    """Flat record of all metrics for one (truth, estimate) pair.

    Likelihood-based fields are ``None`` when they cannot be computed:
    ``entropy_loss`` needs a positive definite estimate, and ``nll``,
    ``aic``, ``bic``, ``ebic`` additionally need sample data.
    """

    entropy_loss: float | None
    rmse: float
    fp_rate: float
    fn_rate: float
    nll: float | None
    aic: float | None
    bic: float | None
    ebic: float | None
    nnz: int

    def to_dict(self) -> dict:
        return asdict(self)


def _check_same_shape(A: np.ndarray, B: np.ndarray):
    if A.shape != B.shape:
        raise ValueError(f"dimension mismatch: {A.shape} vs {B.shape}")


def entropy_loss(Sigma_true: np.ndarray, Sigma_hat: np.ndarray) -> float:
    """Entropy loss ``tr(M) - ln det(M) - p`` with ``M = Sigma_true^{-1} Sigma_hat``.

    A Bregman divergence: nonnegative, zero exactly when the estimate
    equals the truth, and not symmetric in its arguments.

    Raises
    ------
    NotPositiveDefiniteError
        If either matrix is not positive definite.
    """
    # tr(M) - ln det M = [ln det Sigma_true + tr(Sigma_true^{-1} Sigma_hat)]
    #                    - ln det Sigma_hat
    loss = negative_loglik_loss(Sigma_true, Sigma_hat)
    return loss - log_det_pd(Sigma_hat) - len(Sigma_hat)


def rmse(Sigma_true: np.ndarray, Sigma_hat: np.ndarray) -> float:
    """Root mean squared entrywise error, ``||Sigma_true - Sigma_hat||_F / p``."""
    Sigma_true = np.asarray(Sigma_true, dtype=float)
    Sigma_hat = np.asarray(Sigma_hat, dtype=float)
    _check_same_shape(Sigma_true, Sigma_hat)
    p = Sigma_true.shape[0]
    return float(np.linalg.norm(Sigma_true - Sigma_hat) / p)


def _support_rates(Sigma_true: np.ndarray, support: np.ndarray) -> tuple[float, float]:
    """False positive and false negative rates of a support mask against
    the exact nonzeros of ``Sigma_true``, over strict-upper entries."""
    iu = np.triu_indices(Sigma_true.shape[0], k=1)
    true_nz = Sigma_true[iu] != 0.0
    est_nz = support[iu]
    n_zero = int(np.sum(~true_nz))
    n_nonzero = int(np.sum(true_nz))
    fp = int(np.sum(est_nz & ~true_nz))
    fn = int(np.sum(~est_nz & true_nz))
    fp_rate = fp / n_zero if n_zero else 0.0
    fn_rate = fn / n_nonzero if n_nonzero else 0.0
    return fp_rate, fn_rate


def fp_fn_rates(
    Sigma_true: np.ndarray,
    Sigma_hat: np.ndarray,
    tol: float | None = None,
) -> tuple[float, float]:
    """False positive and false negative rates over strict-upper entries.

    The true support is taken from exact nonzeros of ``Sigma_true``, the
    estimated one from ``support_mask(Sigma_hat, tol)``; pass ``tol=0.0``
    for estimators that produce exact zeros.  Empty classes give a rate
    of 0.
    """
    Sigma_true = np.asarray(Sigma_true, dtype=float)
    Sigma_hat = np.asarray(Sigma_hat, dtype=float)
    _check_same_shape(Sigma_true, Sigma_hat)
    return _support_rates(Sigma_true, support_mask(Sigma_hat, tol))


def gaussian_nll(Sigma_hat: np.ndarray, S: np.ndarray, n: int) -> float:
    """Negative Gaussian log-likelihood ``(n/2)[ln det Sigma_hat + tr(Sigma_hat^{-1} S)]``.

    Additive constants are dropped.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    return 0.5 * n * negative_loglik_loss(Sigma_hat, S)


def _nnz_upper(M: np.ndarray) -> int:
    """Number of nonzero strict upper-triangular entries of M."""
    return int(np.count_nonzero(np.triu(M, 1)))


def _criteria(nll: float, p: int, nnz: int, n: int) -> tuple[float, float, float]:
    """AIC, BIC and EBIC of a p-variate estimate with ``nnz`` strict-upper
    nonzeros from its negative log-likelihood ``nll`` on ``n`` samples."""
    q = p + nnz
    aic = 2.0 * nll + 2.0 * q
    bic = 2.0 * nll + q * math.log(n)
    ebic = bic + 2.0 * EBIC_GAMMA * q * math.log(p * (p + 1) / 2)
    return aic, bic, ebic


def info_criteria(
    Sigma_hat: np.ndarray,
    S: np.ndarray,
    n: int,
) -> tuple[float, float, float]:
    """AIC, BIC, and EBIC for a sparse covariance estimate.

    Uses ``q = p + nnz_upper`` free parameters (diagonal plus exact
    strict-upper nonzeros of the estimate):

        AIC  = 2 nll + 2 q
        BIC  = 2 nll + q ln n
        EBIC = BIC + 2 gamma q ln(p(p+1)/2),  gamma = EBIC_GAMMA

    To count a separate support mask, such as ``FitResult.support``, use
    :func:`compute_report`.
    """
    Sigma_hat = as_symmetric(Sigma_hat)
    nll = gaussian_nll(Sigma_hat, S, n)
    return _criteria(nll, Sigma_hat.shape[0], _nnz_upper(Sigma_hat), n)


def compute_report(
    Sigma_true: np.ndarray,
    Sigma_hat: np.ndarray,
    S: np.ndarray | None = None,
    n: int | None = None,
    support: np.ndarray | None = None,
) -> MetricReport:
    """Assemble the full metric record for one estimate.

    Support metrics read ``support``, by default ``support_mask(Sigma_hat)``;
    a fit passes ``FitResult.support``, a threshold its exact nonzeros.
    ``entropy_loss`` is ``None`` when the estimate is not positive
    definite; the likelihood fields are also ``None`` when ``S``/``n``
    are absent.
    """
    Sigma_true = as_symmetric(Sigma_true)
    Sigma_hat = as_symmetric(Sigma_hat)
    _check_same_shape(Sigma_true, Sigma_hat)
    if support is None:
        support = support_mask(Sigma_hat)
    else:
        support = np.asarray(support, dtype=bool)
        _check_same_shape(Sigma_hat, support)
    nnz = _nnz_upper(support)
    try:
        ent = entropy_loss(Sigma_true, Sigma_hat)
    except NotPositiveDefiniteError:
        ent = None
    fp, fn = _support_rates(Sigma_true, support)
    nll = aic = bic = ebic = None
    if S is not None and n is not None:
        try:
            nll = gaussian_nll(Sigma_hat, S, n)
            aic, bic, ebic = _criteria(nll, Sigma_hat.shape[0], nnz, n)
        except NotPositiveDefiniteError:
            nll = aic = bic = ebic = None
    return MetricReport(
        entropy_loss=ent,
        rmse=rmse(Sigma_true, Sigma_hat),
        fp_rate=fp,
        fn_rate=fn,
        nll=nll,
        aic=aic,
        bic=bic,
        ebic=ebic,
        nnz=nnz,
    )

"""Accuracy and likelihood metrics for covariance estimates.

Conventions, stated once here:

* RMSE divides the squared Frobenius distance by all p^2 entries, so
  symmetric pairs count twice.
* An estimate's support is its exact nonzeros, ``Sigma_hat != 0``: a
  fit ends on the sparsity set, so its nonzeros are the pairs it kept,
  and a threshold's are the entries it left.  False positive and false
  negative rates, ``nnz`` and the information criteria's model size all
  count that one support, and :func:`compute_report` is the one place
  that scores them, the information criteria AIC, BIC and EBIC included.
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

from .matcore import NotPositiveDefiniteError, _strict_upper, as_symmetric, log_det_pd
from .proxdist import negative_loglik_loss

__all__ = [
    "MetricReport",
    "entropy_loss",
    "rmse",
    "gaussian_nll",
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


def _support_rates(Sigma_true: np.ndarray, Sigma_hat: np.ndarray) -> tuple[float, float, int]:
    """False positive and false negative rates of the exact nonzeros of
    ``Sigma_hat`` against those of ``Sigma_true``, over strict-upper
    entries, and the count of ``Sigma_hat``'s."""
    upper = _strict_upper(Sigma_true.shape[0])
    true_nz = Sigma_true[upper] != 0.0
    est_nz = Sigma_hat[upper] != 0.0
    n_zero = int(np.sum(~true_nz))
    n_nonzero = int(np.sum(true_nz))
    fp = int(np.sum(est_nz & ~true_nz))
    fn = int(np.sum(~est_nz & true_nz))
    fp_rate = fp / n_zero if n_zero else 0.0
    fn_rate = fn / n_nonzero if n_nonzero else 0.0
    return fp_rate, fn_rate, int(np.count_nonzero(est_nz))


def gaussian_nll(Sigma_hat: np.ndarray, S: np.ndarray, n: int) -> float:
    """Negative Gaussian log-likelihood ``(n/2)[ln det Sigma_hat + tr(Sigma_hat^{-1} S)]``.

    Additive constants are dropped.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    return 0.5 * n * negative_loglik_loss(Sigma_hat, S)


def compute_report(
    Sigma_true: np.ndarray,
    Sigma_hat: np.ndarray,
    S: np.ndarray | None = None,
    n: int | None = None,
) -> MetricReport:
    """Assemble the full metric record for one estimate.

    Support metrics count the exact nonzeros of ``Sigma_hat``.
    ``entropy_loss`` is ``None`` when the estimate is not positive
    definite; the likelihood fields are also ``None`` when ``S``/``n``
    are absent.  With ``q`` the model size of the module's conventions,
    the information criteria of the NLL on ``n`` samples are

        AIC  = 2 nll + 2 q
        BIC  = 2 nll + q ln n
        EBIC = BIC + 2 gamma q ln(p(p+1)/2),  gamma = EBIC_GAMMA
    """
    Sigma_true = as_symmetric(Sigma_true)
    Sigma_hat = as_symmetric(Sigma_hat)
    _check_same_shape(Sigma_true, Sigma_hat)
    try:
        ent = entropy_loss(Sigma_true, Sigma_hat)
    except NotPositiveDefiniteError:
        ent = None
    fp, fn, nnz = _support_rates(Sigma_true, Sigma_hat)
    nll = aic = bic = ebic = None
    if S is not None and n is not None:
        try:
            nll = gaussian_nll(Sigma_hat, S, n)
        except NotPositiveDefiniteError:
            pass
        else:
            p = Sigma_hat.shape[0]
            q = p + nnz
            aic = 2.0 * nll + 2.0 * q
            bic = 2.0 * nll + q * math.log(n)
            ebic = bic + 2.0 * EBIC_GAMMA * q * math.log(p * (p + 1) / 2)
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

"""Penalized maximum likelihood covariance estimation by proximal distance.

The estimator minimizes

    h_rho(Sigma) = ln det Sigma + tr(Sigma^{-1} S) + (rho/2) * dist(Sigma, C)^2

where C is the set of symmetric matrices with at most k nonzero strict
upper-triangular entries (diagonal free in covariance mode, fixed to one
in correlation mode).  Each outer iteration majorizes the squared
distance at the current iterate, solves the resulting stationarity
equation in closed form (see :mod:`sparsecov.sylvester`), and
backtracks by step halving until the trial point is positive definite
and strictly decreases the objective.  The penalty weight rho follows a
geometric schedule so that iterates are pushed onto the sparse set as
rho grows.  At the final rho, truncated Newton steps with the same
backtracking drive the penalized gradient to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .matcore import (
    NotPositiveDefiniteError,
    _inverse_from_cholesky,
    as_symmetric,
    cholesky_pd,
)
from .sparsity import SparsityConstraint, _project, support_mask
from .sylvester import _solve

__all__ = [
    "FitConfig",
    "FitResult",
    "BacktrackExhaustedError",
    "negative_loglik_loss",
    "objective",
    "surrogate_gradient",
    "mm_step",
    "fit",
    "fit_correlation",
]

# Relative eigenvalue floor below which S gets an automatic ridge.
RIDGE_EIG_RTOL = 1e-10
# Automatic ridge size, as a multiple of mean variance trace(S)/p.  Must be
# large enough that iterates near the ridged spectrum stay numerically PD
# under the growing penalty; smaller values let rank-deficient fits stall.
RIDGE_SCALE = 1e-4
# Absolute ceiling on rho, below float overflow.
RHO_CEIL = 1e300

# Terminal refinement: the single-step schedule leaves an O(1/rho) lag in
# the coordinates the anchored majorizer pins to the previous iterate, so
# after the schedule exits, Newton steps at the final rho run until the
# penalized gradient G satisfies ||G||_F <= STATIONARITY_RTOL * ||A||_F,
# A = Sigma^{-1}.  Newton converges quadratically near the optimum, so a
# tight tolerance costs a step or two: on criterion 9's k = 0 fit, 1e-3
# leaves a diagonal error of 2.6e-4 and 1e-8 one of 4.6e-8.
STATIONARITY_RTOL = 1e-8


class BacktrackExhaustedError(RuntimeError):
    """No step size in the halving schedule was accepted.

    Raised by :func:`mm_step` when every candidate
    ``Sigma_k + 2^{-s} (Sigma_hat - Sigma_k)`` for ``s = 0..max_halvings``
    fails positive definiteness or strict objective decrease.  The fit
    driver treats this as stationarity at the current penalty weight.
    """

    def __init__(self, message: str, halvings: int):
        super().__init__(message)
        self.halvings = halvings


@dataclass(frozen=True)
class FitConfig:
    """Tuning knobs for the outer MM loop.

    Parameters
    ----------
    rho0 : float
        Initial penalty weight.
    rho_growth : float
        Geometric growth factor applied after every outer iteration.
    rho_max : float
        Cap on the penalty weight, infinite by default.  An uncapped
        schedule is what drives badly conditioned fits (p > n with a
        tiny ridge) onto the constraint set; capping freezes them mid
        descent.  Finite caps remain useful for studying feasibility in
        the growing-rho limit.  The schedule always stops at 1e300 to
        keep the arithmetic finite.
    tol : float
        Relative objective-change threshold for convergence.
    max_outer : int
        Iteration budget, shared by the rho schedule and the terminal
        refinement: the refinement takes only the steps the schedule
        leaves unused.
    max_halvings : int
        Largest step-halving exponent tried per iteration.
    ridge_delta : float
        Explicit ridge added to S before fitting.  Zero means automatic:
        a ridge of ``1e-4 * trace(S)/p`` is applied only when
        ``lambda_min(S) < 1e-10 * lambda_max(S)``.
    """

    rho0: float = 0.1
    rho_growth: float = 1.2
    rho_max: float = math.inf
    tol: float = 1e-6
    max_outer: int = 500
    max_halvings: int = 32
    ridge_delta: float = 0.0

    def __post_init__(self):
        if not self.rho0 > 0:
            raise ValueError(f"rho0 must be positive, got {self.rho0}")
        if not self.rho_growth > 1:
            raise ValueError(f"rho_growth must exceed 1, got {self.rho_growth}")
        if not self.rho_max > 0:
            raise ValueError(f"rho_max must be positive, got {self.rho_max}")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_outer < 1:
            raise ValueError(f"max_outer must be at least 1, got {self.max_outer}")
        if self.max_halvings < 0:
            raise ValueError(
                f"max_halvings must be nonnegative, got {self.max_halvings}"
            )
        if self.ridge_delta < 0:
            raise ValueError(
                f"ridge_delta must be nonnegative, got {self.ridge_delta}"
            )


@dataclass(frozen=True)
class FitResult:
    """Outcome of one fit.

    ``sigma_hat`` is the final iterate, positive definite by
    construction.  ``support`` marks the exact nonzero pattern of its
    projection onto the constraint set, which is the sparsity pattern
    the penalty drove the iterate toward; ``final_penalty`` is the
    squared distance between the two at exit.  ``objective_trace`` holds
    one penalized objective per iteration, at ``rho_trace``'s weight;
    its last entry is the objective at ``sigma_hat``.
    """

    sigma_hat: np.ndarray
    objective_trace: list[float]
    rho_trace: list[float]
    iterations: int
    total_halvings: int
    converged: bool
    final_penalty: float
    support: np.ndarray
    ridge_delta: float = 0.0


def _inverse_and_loss(sigma: np.ndarray, S: np.ndarray) -> tuple[np.ndarray, float]:
    """``(Sigma^{-1}, ln det Sigma + tr(Sigma^{-1} S))`` from one Cholesky
    factorization; raises NotPositiveDefiniteError if Sigma is not PD.

    The trace of the product of two symmetric matrices is the sum of
    their entrywise product, so the loss needs no solve against ``S``.
    """
    L = cholesky_pd(sigma)
    inv = _inverse_from_cholesky(L)
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    return inv, logdet + float(np.vdot(inv, S))


class _Iterate:
    """A positive definite iterate with what an MM step reads from it.

    Built once per line-search candidate, from one Cholesky factorization
    (the PD gate): ``inv = Sigma^{-1}`` by inverting the factor, the loss
    ``2 sum log L_ii + <inv, S>``, the projection ``P(Sigma)`` and
    ``dist(Sigma, C)^2``.  Nothing else factors or solves against
    ``Sigma``.  ``A S A`` is formed on first use, since a rejected
    candidate never needs it.  ``sigma`` must be exactly symmetric;
    construction raises NotPositiveDefiniteError if it is not PD.
    """

    __slots__ = ("sigma", "inv", "loss", "proj", "dist2", "_asa")

    def __init__(self, sigma: np.ndarray, S: np.ndarray, c: SparsityConstraint):
        self.sigma = sigma
        self.inv, self.loss = _inverse_and_loss(sigma, S)
        self.proj = _project(sigma, c)
        diff = sigma - self.proj
        self.dist2 = float(np.sum(diff * diff))
        self._asa = None

    def objective(self, rho: float) -> float:
        return self.loss + 0.5 * rho * self.dist2

    def asa(self, S: np.ndarray) -> np.ndarray:
        if self._asa is None:
            self._asa = self.inv @ S @ self.inv
        return self._asa

    def gradient(self, S: np.ndarray, rho: float) -> np.ndarray:
        """Gradient of ``h_rho`` here, ``A - A S A + rho (Sigma - P(Sigma))``,
        symmetrized against the triple product's O(eps) drift."""
        G = self.inv - self.asa(S) + rho * (self.sigma - self.proj)
        return (G + G.T) / 2.0


def _check_inputs(
    matrices: tuple[np.ndarray, ...],
    c: SparsityConstraint | None = None,
    rho: float = 0.0,
) -> list[np.ndarray]:
    """The public entry points' validation; returns ``matrices`` made
    exactly symmetric.

    Rejects a negative rho, matrices that are not symmetric or not all of
    one shape, and a dimension too small for ``c``'s sparsity level.
    """
    if not rho >= 0:
        raise ValueError(f"rho must be nonnegative, got {rho}")
    out = [as_symmetric(M) for M in matrices]
    for M in out[1:]:
        if M.shape != out[0].shape:
            raise ValueError(f"shape mismatch: {out[0].shape} vs {M.shape}")
    if c is not None:
        c.check_dimension(out[0].shape[0])
    return out


def negative_loglik_loss(Sigma: np.ndarray, S: np.ndarray) -> float:
    """Gaussian negative log-likelihood loss ``ln det Sigma + tr(Sigma^{-1} S)``.

    Raises
    ------
    NotPositiveDefiniteError
        If ``Sigma`` is not positive definite (the loss is +inf there).
    """
    Sigma, S = _check_inputs((Sigma, S))
    return _inverse_and_loss(Sigma, S)[1]


def objective(
    Sigma: np.ndarray, S: np.ndarray, c: SparsityConstraint, rho: float
) -> float:
    """Penalized objective ``negative_loglik_loss + (rho/2) dist(Sigma, C)^2``."""
    Sigma, S = _check_inputs((Sigma, S), c, rho)
    return _Iterate(Sigma, S, c).objective(rho)


def surrogate_gradient(
    Sigma: np.ndarray,
    Sigma_k: np.ndarray,
    S: np.ndarray,
    c: SparsityConstraint,
    rho: float,
) -> np.ndarray:
    """Gradient of the quadratic surrogate anchored at ``Sigma_k``.

    The surrogate replaces the loss by its second-order expansion with
    the Fisher scoring Hessian and the squared distance by the anchored
    majorizer, giving

        grad = A - A S A + A (Sigma - Sigma_k) A + rho (Sigma - P(Sigma_k))

    with ``A = Sigma_k^{-1}`` and ``P`` the constraint projection.  At
    ``Sigma = Sigma_k`` this is the stationarity residual of the full
    objective.
    """
    Sigma, Sigma_k, S = _check_inputs((Sigma, Sigma_k, S), c, rho)
    it = _Iterate(Sigma_k, S, c)
    D = Sigma - Sigma_k
    ADA = it.inv @ D @ it.inv
    return it.gradient(S, rho) + (ADA + ADA.T) / 2.0 + rho * D


def _line_search(
    it: _Iterate,
    direction: np.ndarray,
    S: np.ndarray,
    c: SparsityConstraint,
    rho: float,
    max_halvings: int,
) -> tuple[_Iterate, int]:
    """Accept ``it.sigma + 2^{-s} direction`` for the smallest ``s`` that is
    PD and lowers ``h_rho`` below ``it``'s; returns (next iterate, s).

    ``direction`` must be exactly symmetric, as every MM and Newton
    direction is, so that each candidate is.
    """
    h = it.objective(rho)
    for s in range(max_halvings + 1):
        try:
            nxt = _Iterate(it.sigma + 0.5**s * direction, S, c)
        except NotPositiveDefiniteError:
            continue
        if nxt.objective(rho) < h:
            return nxt, s
    raise BacktrackExhaustedError(
        f"no accepted step within {max_halvings} halvings at rho={rho:.3e}; "
        "iterate is stationary or the update is numerically degenerate",
        halvings=max_halvings,
    )


def _step(
    it: _Iterate,
    S: np.ndarray,
    c: SparsityConstraint,
    rho: float,
    max_halvings: int,
) -> tuple[_Iterate, int]:
    """One accepted MM step from ``it``; returns (next iterate, halvings)."""
    C_k = rho * it.proj + it.asa(S)
    C_k = (C_k + C_k.T) / 2.0  # the triple product drifts by O(eps)
    direction = _solve(it.sigma, C_k, rho) - it.sigma
    return _line_search(it, direction, S, c, rho, max_halvings)


def _hessian(
    it: _Iterate, S: np.ndarray, c: SparsityConstraint, rho: float
) -> Callable[[np.ndarray], np.ndarray]:
    """Hessian-vector product of ``h_rho`` at ``it`` with the support held fixed.

    ``H[V] = -A V A + A V M + M V A + rho * V`` on the penalized entries,
    with ``A = Sigma^{-1}`` and ``M = A S A``: the first three terms are
    the second derivatives of ``ln det Sigma`` and ``tr(Sigma^{-1} S)``.
    The penalized entries are those the projection sets to zero, plus the
    diagonal in correlation mode, where the projection pins it to one.
    """
    A = it.inv
    M = it.asa(S)
    penalized = it.proj == 0.0
    if c.mode == "correlation":
        np.fill_diagonal(penalized, True)

    def product(V: np.ndarray) -> np.ndarray:
        AV = A @ V
        X = AV @ M
        HV = X + X.T - AV @ A + rho * (penalized * V)
        return (HV + HV.T) / 2.0

    return product


def _newton_direction(
    it: _Iterate, S: np.ndarray, c: SparsityConstraint, rho: float, G: np.ndarray
) -> np.ndarray:
    """Truncated Newton direction for ``h_rho`` at ``it``, ``G`` its gradient.

    Conjugate gradients on ``H[D] = -G`` in the Frobenius inner product
    (Nocedal & Wright, Algorithm 7.1), stopped once the residual falls to
    ``min(0.5, sqrt(||G||)) ||G||``.  Negative curvature ends the solve:
    on the first iteration the direction is ``-G``, later it is the
    current iterate.  In exact arithmetic CG ends within the dimension
    ``p(p+1)/2`` of the symmetric matrices, which caps the iterations.
    """
    hess = _hessian(it, S, c, rho)
    g_norm = float(np.linalg.norm(G))
    tol = min(0.5, math.sqrt(g_norm)) * g_norm
    D = np.zeros_like(G)
    r = G.copy()  # residual H[D] + G
    d = -r
    rr = g_norm * g_norm
    p = G.shape[0]
    for j in range(p * (p + 1) // 2):
        Hd = hess(d)
        curvature = float(np.sum(d * Hd))
        if curvature <= 0.0:
            return -G if j == 0 else D
        alpha = rr / curvature
        D = D + alpha * d
        r = r + alpha * Hd
        rr_next = float(np.sum(r * r))
        if math.sqrt(rr_next) <= tol:
            break
        d = -r + (rr_next / rr) * d
        rr = rr_next
    return D


def mm_step(
    Sigma_k: np.ndarray,
    S: np.ndarray,
    c: SparsityConstraint,
    rho: float,
    max_halvings: int = 32,
) -> tuple[np.ndarray, int]:
    """One MM update with positive-definiteness-preserving backtracking.

    Forms ``C_k = rho * P(Sigma_k) + Sigma_k^{-1} S Sigma_k^{-1}``, solves
    the stationarity equation for the unconstrained surrogate minimizer
    ``Sigma_hat``, then returns ``Sigma_k + 2^{-s} (Sigma_hat - Sigma_k)``
    for the smallest ``s`` whose candidate is positive definite and
    strictly decreases the penalized objective.

    Returns
    -------
    (Sigma_next, halvings)
        The accepted iterate and the halving exponent ``s`` used.

    Raises
    ------
    BacktrackExhaustedError
        If no candidate is accepted, which at a stationary point is the
        expected outcome (the full step is a fixed point there).
    """
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    Sigma_k, S = _check_inputs((Sigma_k, S), c, rho)
    it = _Iterate(Sigma_k, S, c)
    nxt, halvings = _step(it, S, c, rho, max_halvings)
    return nxt.sigma, halvings


def _resolve_ridge(S: np.ndarray, cfg: FitConfig) -> tuple[np.ndarray, float]:
    """Apply the explicit or automatic ridge; returns (S_used, delta)."""
    if cfg.ridge_delta > 0:
        delta = cfg.ridge_delta
    else:
        eigvals = np.linalg.eigvalsh(S)
        lam_max = float(eigvals[-1])
        if eigvals[0] < RIDGE_EIG_RTOL * max(lam_max, 0.0):
            delta = RIDGE_SCALE * float(np.trace(S)) / S.shape[0]
        else:
            return S, 0.0
    S_used = S.copy()
    S_used[np.diag_indices_from(S_used)] += delta
    return S_used, delta


def fit(
    S: np.ndarray,
    c: SparsityConstraint,
    cfg: FitConfig = FitConfig(),
    callback: Callable[[dict], None] | None = None,
) -> FitResult:
    """Fit a sparse covariance matrix to the sample covariance ``S``.

    Starts from ``Diag(S)`` (starting from S itself provokes heavy
    backtracking), runs MM steps while growing rho geometrically, and
    stops when the relative objective change falls to ``cfg.tol`` or the
    iteration budget runs out.  A step rejected by backtracking leaves
    the iterate in place; the schedule still advances, so the run
    terminates once rho saturates and the objective freezes.  Truncated
    Newton steps at the final rho then take what is left of the budget
    until the penalized gradient is small relative to ``Sigma^{-1}``.

    Parameters
    ----------
    S : ndarray
        Sample covariance matrix, symmetric positive semidefinite.
        Near-singular S is ridged automatically (see FitConfig).
    c : SparsityConstraint
        Target sparsity level and mode.
    cfg : FitConfig
        Schedule and tolerance settings.
    callback : callable, optional
        Called once per iteration, schedule and refinement alike, with a
        dict of that iteration's state (iteration, rho, sigma,
        objective_before, objective, halvings, accepted).  For tracing
        and tests.

    Raises
    ------
    ValueError
        If S has non-finite entries or shape problems.
    NotPositiveDefiniteError
        If S still has a nonpositive diagonal entry after ridging, so
        the diagonal start is singular.
    """
    S = as_symmetric(S)
    p = S.shape[0]
    c.check_dimension(p)
    S, ridge_delta = _resolve_ridge(S, cfg)
    if np.any(np.diag(S) <= 0):
        raise NotPositiveDefiniteError(
            "S has a nonpositive diagonal entry, so the diagonal start is "
            "singular; set ridge_delta > 0 in FitConfig"
        )

    it = _Iterate(np.diag(np.diag(S)).copy(), S, c)
    rho = cfg.rho0
    objective_trace: list[float] = []
    rho_trace: list[float] = []
    total_halvings = 0
    converged = False
    h_prev: float | None = None

    def record(prev, nxt, rho, halvings, accepted):
        h = nxt.objective(rho)
        objective_trace.append(h)
        rho_trace.append(rho)
        if callback is not None:
            callback(
                {
                    "iteration": len(objective_trace),
                    "rho": rho,
                    "sigma": nxt.sigma,
                    "objective_before": prev.objective(rho),
                    "objective": h,
                    "halvings": halvings,
                    "accepted": accepted,
                }
            )
        return h

    for _ in range(cfg.max_outer):
        try:
            it_next, halvings = _step(it, S, c, rho, cfg.max_halvings)
            accepted = True
        except BacktrackExhaustedError:
            it_next, halvings, accepted = it, 0, False
        h = record(it, it_next, rho, halvings, accepted)
        it = it_next
        total_halvings += halvings
        if h_prev is not None:
            rel_change = abs(h - h_prev) / max(abs(h_prev), 1e-12)
            if rel_change <= cfg.tol:
                converged = True
                break
        h_prev = h
        rho = min(rho * cfg.rho_growth, cfg.rho_max, RHO_CEIL)

    # Refine at the final rho with the budget the schedule left: one step
    # per rho level leaves the iterate short of stationarity, and the
    # anchored majorizer slows the coordinates the penalty never touches
    # by a factor of rho.  Newton steps see the true curvature instead.
    rho = rho_trace[-1]
    for _ in range(cfg.max_outer - len(objective_trace)):
        G = it.gradient(S, rho)
        if np.linalg.norm(G) <= STATIONARITY_RTOL * np.linalg.norm(it.inv):
            break
        direction = _newton_direction(it, S, c, rho, G)
        try:
            it_next, halvings = _line_search(it, direction, S, c, rho, cfg.max_halvings)
        except BacktrackExhaustedError:
            break
        record(it, it_next, rho, halvings, True)
        it = it_next
        total_halvings += halvings

    return FitResult(
        sigma_hat=it.sigma,
        objective_trace=objective_trace,
        rho_trace=rho_trace,
        iterations=len(objective_trace),
        total_halvings=total_halvings,
        converged=converged,
        final_penalty=it.dist2,
        support=support_mask(it.proj, tol=0.0),
        ridge_delta=ridge_delta,
    )


def fit_correlation(
    R: np.ndarray,
    k: int,
    cfg: FitConfig = FitConfig(),
    callback: Callable[[dict], None] | None = None,
) -> FitResult:
    """Fit a sparse correlation matrix to the sample correlation ``R``.

    Same loop as :func:`fit` with the correlation-mode constraint, whose
    projection pins the diagonal to one.  ``R`` is typically
    ``D^{-1/2} S D^{-1/2}`` with ``D = diag(S)``.

    Raises
    ------
    ValueError
        If any diagonal entry of ``R`` differs from 1 by more than 1e-8.
    """
    R = as_symmetric(R)
    if np.max(np.abs(np.diag(R) - 1.0)) > 1e-8:
        raise ValueError("R must have unit diagonal to within 1e-8")
    c = SparsityConstraint(k=k, mode="correlation")
    return fit(R, c, cfg, callback)

"""Sparse maximum likelihood covariance estimation by proximal distance.

The estimator is the limit as rho -> inf of the minimizers of

    h_rho(Sigma) = ln det Sigma + tr(Sigma^{-1} S) + (rho/2) * dist(Sigma, C)^2

where C is the set of symmetric matrices with at most k nonzero strict
upper-triangular entries (diagonal free in covariance mode, fixed to one
in correlation mode).  Each outer iteration majorizes the squared
distance at the current iterate, solves the resulting stationarity
equation in closed form (see :mod:`sparsecov.sylvester`), and
backtracks by step halving until the trial point is positive definite
and strictly decreases the objective.  The penalty weight rho follows a
fixed geometric schedule, which pushes iterates onto the sparse set as
rho grows; its only job is to pick the support.  Once the support of
the projection P(Sigma) has held for a few steps, the limit is the
Gaussian maximum likelihood estimate over the covariance matrices with
that zero pattern (Chaudhuri, Drton & Richardson, Biometrika 2007), so
the schedule stops there, or on the iteration budget, and every fit
finishes at that limit: truncated Newton steps with the same
backtracking on the loss over the support, from a start on the sparse
set, which return an exactly sparse estimate.

:func:`fit` runs that loop and is the only public way to take an MM
step; :func:`objective`, :func:`surrogate_gradient` and
:func:`negative_loglik_loss` evaluate what a step reads.  The only
setting a caller gives is the ridge in :class:`FitConfig`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar

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
    "negative_loglik_loss",
    "objective",
    "surrogate_gradient",
    "fit",
    "fit_correlation",
]

# Relative eigenvalue floor below which S gets an automatic ridge.
RIDGE_EIG_RTOL = 1e-10
# Automatic ridge size, as a multiple of mean variance trace(S)/p.  Must be
# large enough that iterates near the ridged spectrum stay numerically PD
# under the growing penalty; smaller values let rank-deficient fits stall.
RIDGE_SCALE = 1e-4
# The rho schedule: rho_t = RHO0 * RHO_GROWTH^t.  A faster growth of 1.5
# or 2 changes the support the schedule picks, and growth 4 stalls at
# p = 400.
RHO0 = 0.1
RHO_GROWTH = 1.2
# Absolute ceiling on rho, below float overflow: RHO_GROWTH^t overflows a
# float past about 3,900 steps, so the ceiling keeps rho finite should the
# budget FitConfig.max_outer or the growth ever be raised that far.
RHO_CEIL = 1e300

# After the schedule exits, Newton steps on the loss over the support run
# until its gradient G over the entries they move satisfies
# ||G||_F <= STATIONARITY_RTOL * ||A||_F, A = Sigma^{-1}.  Newton converges
# quadratically near the optimum, so a tight tolerance costs a step or
# two: on criterion 9's k = 0 fit, 1e-3 left a diagonal error of 9.8e-6
# and 1e-8 one of 2.0e-10, one step later.
STATIONARITY_RTOL = 1e-8
# The Newton steps also end once the Newton model's decrease -<D, G> is at
# most the unit round-off times |loss|, or once step halving has brought
# it there: a line search cannot certify so small a decrease.  On the
# benchmark's fits, each direction below it that was tried anyway needed
# halvings or exhausted the 32-halving backtrack, and at most halved the
# residual.
DECREASE_RTOL = np.finfo(float).eps / 2.0
# The schedule stops once the support of P(Sigma) has held for this many
# consecutive steps, and the fit finishes at rho = inf on that support.
LOCK_STEPS = 5


@dataclass(frozen=True)
class FitConfig:
    """The ridge for a fit, and the fit's fixed budgets.

    Parameters
    ----------
    ridge_delta : float
        Explicit ridge added to S before fitting.  Zero means automatic:
        a ridge of ``1e-4 * trace(S)/p`` is applied only when
        ``lambda_min(S) < 1e-10 * lambda_max(S)``.

    The budgets are class constants, not fields: ``max_outer`` is the
    iteration budget, shared by the rho schedule and the Newton steps
    after it, which take only the steps the schedule leaves unused, and
    ``max_halvings`` is the largest step-halving exponent tried per
    iteration.
    """

    # Constants, readable as cfg.max_outer and cfg.max_halvings because
    # the benchmark's tracer and its fit_failed check read them there.
    max_outer: ClassVar[int] = 500
    max_halvings: ClassVar[int] = 32
    ridge_delta: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.ridge_delta) and self.ridge_delta >= 0):
            raise ValueError(
                f"ridge_delta must be finite and nonnegative, got {self.ridge_delta}"
            )


@dataclass(frozen=True)
class FitResult:
    """Outcome of one fit.

    ``sigma_hat`` is the final iterate, positive definite by
    construction.  ``support`` marks the exact nonzero pattern of its
    projection onto the constraint set; ``final_penalty`` is the squared
    distance between the two at exit.  Unless the schedule takes the
    whole ``max_outer`` budget, ``sigma_hat`` lies on the set: ``support``
    is its own nonzero pattern and ``final_penalty`` is 0.
    ``objective_trace`` holds one penalized objective per iteration, at
    ``rho_trace``'s weight; its last entry is the objective at
    ``sigma_hat``.  The Newton steps after the schedule repeat its last
    rho.  ``converged`` means those steps stopped on their gradient test
    or their round-off stop.
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
) -> tuple[_Iterate | None, int]:
    """Accept ``it.sigma + 2^{-s} direction`` for the smallest ``s`` that is
    PD and lowers ``h_rho`` below ``it``'s; returns (next iterate, s), or
    ``(None, max_halvings)`` if no ``s <= max_halvings`` is accepted.

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
    return None, max_halvings


def _step(
    it: _Iterate,
    S: np.ndarray,
    c: SparsityConstraint,
    rho: float,
    max_halvings: int,
) -> tuple[_Iterate | None, int]:
    """One MM step from ``it``, with :func:`_line_search`'s return value."""
    C_k = rho * it.proj + it.asa(S)
    C_k = (C_k + C_k.T) / 2.0  # the triple product drifts by O(eps)
    direction = _solve(it.sigma, C_k, rho) - it.sigma
    return _line_search(it, direction, S, c, rho, max_halvings)


class _Hessian:
    """Hessian of the loss over the free entries at an iterate.

    ``H[V] = free o (-A V A + A V M + M V A)`` for ``V`` zero off the
    ``free`` mask, with ``A = Sigma^{-1}`` and ``M = A S A``: the three
    terms are the second derivatives of ``ln det Sigma`` and
    ``tr(Sigma^{-1} S)``, and they equal ``A V N + N V A`` with
    ``N = M - A/2``.

    Applied matrix-free as ``H[V] = free o (Y + Y^T)`` with ``Y = (A V) N``
    and ``N`` symmetrized, so a product costs two GEMMs; ``Y + Y^T`` and
    the mask keep it exactly symmetric.  A product is written to one of
    two buffers kept between products, so it is valid only until the next
    product.
    """

    __slots__ = ("A", "N", "free", "_out", "_tmp")

    def __init__(self, it: _Iterate, S: np.ndarray, free: np.ndarray):
        M = it.asa(S)
        N = M + M.T  # the triple product drifts by O(eps)
        N -= it.inv
        N /= 2.0
        self.A = it.inv
        self.N = N
        self.free = free
        self._out = np.empty_like(N)
        self._tmp = np.empty_like(N)

    def __call__(self, V: np.ndarray) -> np.ndarray:
        """``H[V]`` for an exactly symmetric ``V``, in the output buffer."""
        out, tmp = self._out, self._tmp
        np.matmul(self.A, V, out=out)
        np.matmul(out, self.N, out=tmp)  # Y
        np.add(tmp, tmp.T, out=out)
        out *= self.free
        return out

    def diagonal(self) -> np.ndarray:
        """``<E_ij, H[E_ij]> / <E_ij, E_ij>`` for the symmetric unit matrices
        ``E_ij = e_i e_j^T + e_j e_i^T``, as a symmetric matrix, and one off
        the free entries, where the preconditioner meets only zeros.

        On a free entry off the diagonal that is
        ``A_ii N_jj + A_jj N_ii + 2 A_ij N_ij``, on the diagonal half that.
        The outer products are summed as ``T + T^T`` so that the result is
        exactly symmetric.
        """
        T = np.outer(np.diag(self.A), np.diag(self.N))
        diag = T + T.T
        np.multiply(self.A, self.N, out=T)
        T *= 2.0
        diag += T
        np.fill_diagonal(diag, diag.diagonal() / 2.0)
        diag[~self.free] = 1.0
        return diag


def _newton_direction(
    it: _Iterate, S: np.ndarray, G: np.ndarray, free: np.ndarray
) -> tuple[np.ndarray, int]:
    """Truncated Newton direction for the loss over the ``free`` entries at
    ``it``, ``G`` its gradient there and zero off them; returns (direction,
    Hessian products).  The direction is zero off the free entries.

    Preconditioned conjugate gradients on ``H[D] = -G`` in the Frobenius
    inner product (Nocedal & Wright, Algorithms 5.3 and 7.1), stopped
    once the residual falls to ``min(0.5, sqrt(||G|| / ||A||)) ||G||``,
    unit-free like the stationarity test, ``A = Sigma^{-1}``.  The
    preconditioner is the Jacobi diagonal of ``H`` (:meth:`_Hessian.diagonal`),
    or the identity if that diagonal is not all positive.  Negative
    curvature ends the solve: on the first iteration the direction is
    ``-G``, later it is the current iterate.  In exact arithmetic CG ends
    within the dimension ``p(p+1)/2`` of the symmetric matrices, which
    caps the iterations.  Every buffer is updated elementwise from exactly
    symmetric operands, so the direction is exactly symmetric.
    """
    hess = _Hessian(it, S, free)
    scale = hess.diagonal()  # the preconditioner, inverted in place
    if not np.all(scale > 0.0):
        scale.fill(1.0)
    np.reciprocal(scale, out=scale)
    g_norm = float(np.linalg.norm(G))
    tol = min(0.5, math.sqrt(g_norm / float(np.linalg.norm(it.inv)))) * g_norm
    D = np.zeros_like(G)
    r = G.copy()  # residual H[D] + G
    y = r * scale  # preconditioned residual; scratch once d is updated
    d = -y
    ry = float(np.vdot(r, y))
    p = G.shape[0]
    for j in range(p * (p + 1) // 2):
        Hd = hess(d)
        curvature = float(np.vdot(d, Hd))
        if curvature <= 0.0:
            return (-G if j == 0 else D), j + 1
        alpha = ry / curvature
        D += np.multiply(d, alpha, out=y)
        Hd *= alpha
        r += Hd
        if math.sqrt(float(np.vdot(r, r))) <= tol:
            break
        np.multiply(r, scale, out=y)
        ry_next = float(np.vdot(r, y))
        d *= ry_next / ry
        d -= y
        ry = ry_next
    return D, j + 1


def _resolve_ridge(S: np.ndarray, cfg: FitConfig) -> tuple[np.ndarray, float]:
    """Apply the explicit or automatic ridge; returns (S_used, delta).

    Raises ValueError, before any ridge is added, if S has an eigenvalue
    below ``-RIDGE_EIG_RTOL * lambda_max(S)``: a ridge would hide that S
    is no covariance matrix, and the fit's loss is unbounded below there.
    """
    eigvals = np.linalg.eigvalsh(S)
    lam_min, lam_max = float(eigvals[0]), float(eigvals[-1])
    if lam_min < -RIDGE_EIG_RTOL * lam_max:
        raise ValueError(
            f"S is not positive semidefinite: its eigenvalues span "
            f"{lam_min:.3e} to {lam_max:.3e}"
        )
    if cfg.ridge_delta > 0:
        delta = cfg.ridge_delta
    elif lam_min < RIDGE_EIG_RTOL * lam_max:
        delta = RIDGE_SCALE * float(np.trace(S)) / S.shape[0]
    else:
        return S, 0.0
    S_used = S.copy()
    S_used[np.diag_indices_from(S_used)] += delta
    return S_used, delta


def _finish_start(it: _Iterate, S: np.ndarray, c: SparsityConstraint) -> _Iterate:
    """Where the finish at rho = inf starts: ``P(Sigma)`` if it is PD, else
    ``Diag(S)``, or ``I`` in correlation mode, which lie on every support."""
    try:
        return _Iterate(it.proj, S, c)
    except NotPositiveDefiniteError:
        diag = np.ones(S.shape[0]) if c.mode == "correlation" else np.diag(S)
        return _Iterate(np.diag(diag), S, c)


def fit(
    S: np.ndarray,
    c: SparsityConstraint,
    cfg: FitConfig = FitConfig(),
    callback: Callable[[dict], None] | None = None,
) -> FitResult:
    """Fit a sparse covariance matrix to the sample covariance ``S``.

    The package's one path to the MM step.  Starts from ``Diag(S)``
    (starting from S itself provokes heavy backtracking) and runs MM
    steps while rho grows from ``RHO0`` by the factor ``RHO_GROWTH`` per
    step.  The schedule stops once the support of the projection
    ``P(Sigma)`` has held for ``LOCK_STEPS`` consecutive steps, or when
    the iteration budget ``FitConfig.max_outer`` runs out.  A step
    rejected by backtracking leaves the iterate in place, and so its
    support; rho still grows, so a stalled schedule also ends on the lock.

    Truncated Newton steps then take what is left of the budget and
    finish at rho = inf: from ``P(Sigma)``, or from ``Diag(S)`` (``I`` in
    correlation mode) when that is not positive definite, they minimize
    the loss over the schedule's last support and the covariance
    diagonal, so the estimate is exactly sparse.  They stop once the
    gradient over the entries they move is small relative to
    ``Sigma^{-1}``, or once a direction's model decrease is at the
    round-off level of the loss; step halving also stops at that level.

    Parameters
    ----------
    S : ndarray
        Sample covariance matrix, symmetric positive semidefinite.
        Near-singular S is ridged automatically (see FitConfig).
    c : SparsityConstraint
        Target sparsity level and mode.
    cfg : FitConfig
        The ridge; the budgets are FitConfig's class constants.
    callback : callable, optional
        Called once per iteration, schedule and Newton steps alike, with a
        dict of that iteration's state (iteration, rho, sigma,
        objective_before, objective, halvings, accepted, and cg_products,
        the Hessian products behind a Newton step's direction, 0 on
        schedule steps).  Newton steps repeat the schedule's last rho.  A
        finish that takes no step from a start other than the schedule's
        iterate records that start once, as not accepted.  For tracing
        and tests.

    Raises
    ------
    ValueError
        If S has non-finite entries or shape problems, or is not positive
        semidefinite to within round-off (see :func:`_resolve_ridge`).
    NotPositiveDefiniteError
        If S still has a nonpositive diagonal entry after ridging, so
        the diagonal start is singular.
    """
    (S,) = _check_inputs((S,), c)
    S, ridge_delta = _resolve_ridge(S, cfg)
    if np.any(np.diag(S) <= 0):
        raise NotPositiveDefiniteError(
            "S has a nonpositive diagonal entry, so the diagonal start is "
            "singular; set ridge_delta > 0 in FitConfig"
        )

    it = _Iterate(np.diag(np.diag(S)).copy(), S, c)
    rho = RHO0
    objective_trace: list[float] = []
    rho_trace: list[float] = []
    total_halvings = 0

    def record(prev, nxt, rho, halvings, accepted, cg_products=0):
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
                    "cg_products": cg_products,
                }
            )

    support: np.ndarray | None = None
    held = 0  # consecutive steps that kept the support of P(Sigma)
    for _ in range(cfg.max_outer):
        it_next, halvings = _step(it, S, c, rho, cfg.max_halvings)
        accepted = it_next is not None
        if not accepted:
            it_next, halvings = it, 0
        record(it, it_next, rho, halvings, accepted)
        it = it_next
        total_halvings += halvings
        step_support = it.proj != 0.0
        kept = support is not None and np.array_equal(step_support, support)
        held = held + 1 if kept else 0
        support = step_support
        if held == LOCK_STEPS:
            break
        rho = min(rho * RHO_GROWTH, RHO_CEIL)

    # The finish at rho = inf, with the budget the schedule left: Newton
    # steps on the loss over the free entries, the support of P(Sigma) plus
    # the covariance diagonal, from a start on the sparsity set.  The trace
    # repeats the schedule's last rho, at which a point on the set scores
    # its loss.
    rho = rho_trace[-1]
    free = support  # of the schedule's last iterate
    if c.mode == "correlation":
        np.fill_diagonal(free, False)
    schedule_steps = len(objective_trace)
    moved = it.dist2 > 0.0 and schedule_steps < cfg.max_outer
    if moved:
        it_next = None  # the schedule's iterate goes with the switch
        it = _finish_start(it, S, c)
    converged = False
    for _ in range(cfg.max_outer - schedule_steps):
        G = it.gradient(S, 0.0)
        G *= free
        if np.linalg.norm(G) <= STATIONARITY_RTOL * np.linalg.norm(it.inv):
            converged = True
            break
        direction, products = _newton_direction(it, S, G, free)
        # a model decrease at round-off level is one no line search can
        # certify, so the iterate is as stationary as the arithmetic allows;
        # each halving halves the decrease, so the search stops where it
        # reaches that level too
        decrease = -float(np.vdot(direction, G))
        floor = DECREASE_RTOL * abs(it.loss)
        if decrease <= floor:
            converged = True
            break
        max_halvings = cfg.max_halvings
        if floor > 0.0:
            max_halvings = min(max_halvings, int(math.log2(decrease / floor)))
        it_next, halvings = _line_search(it, direction, S, c, 0.0, max_halvings)
        if it_next is None:
            break
        record(it, it_next, rho, halvings, True, products)
        it = it_next
        total_halvings += halvings
    if moved and len(objective_trace) == schedule_steps:
        # the finish took no step from its start: one entry records the
        # start, so that the trace still ends at the estimate
        record(it, it, rho, 0, False)

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

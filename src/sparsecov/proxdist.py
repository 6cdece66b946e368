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
rho grows; its only job is to pick the support, so it runs only when k
leaves one to pick: not at k = 0, whose one support is the diagonal, nor
at k = p(p-1)/2, every pair.  Once the support of
the projection P(Sigma) has held for a few steps, the limit is the
Gaussian maximum likelihood estimate over the covariance matrices with
that zero pattern (Chaudhuri, Drton & Richardson, Biometrika 2007), so
the schedule stops there, or on the iteration budget, and every fit
finishes at that limit: truncated Newton steps with the same
backtracking on the loss over the support, from a start on the sparse
set, which return an exactly sparse estimate.  Every finish iterate is
zero off the support and has at most k pairs, so it is its own
projection and the finish projects nothing.  Their conjugate gradient
solves run on vectors of the free entries, with Hessian products that
cost O(p m) for m free entries when m is small against p^2, and two
GEMMs otherwise.  CG is preconditioned by the Fisher metric of the
Gaussian model (Anderson, Ann. Statist. 1973), whose inverse
``V -> Sigma V Sigma`` costs two GEMMs beside the dense products, and
beside the sparse ones two sparse products that read ``Sigma`` through
its own nonzeros; a solve near the gradient test aims below it.

One engine, private to this module, runs both phases: it holds the
current iterate, which nothing else keeps, moves it by the one
backtracking line search of the schedule and the finish, and records
every step.  Its finish is the one entry to the rho = inf limit: it
picks its own start and takes what the budget leaves, so a fit is
``finish(schedule())``, and a refit of a given support is ``finish`` on
that support.  :func:`fit` validates ``S``, applies the ridge and runs that
engine, and is the only public way to take an MM step;
:func:`objective`, :func:`surrogate_gradient` and
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
    _csr_times,
    _inverse_from_cholesky,
    _log_det_from_cholesky,
    as_symmetric,
    cholesky_pd,
)
from .sparsity import SparsityConstraint, _on_support, _select
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
# p = 400.  rho stays finite: over the max_outer = 500 budget it peaks
# near 3.2e38.
RHO0 = 0.1
RHO_GROWTH = 1.2

# After the schedule exits, Newton steps on the loss over the support run
# until its gradient G over the entries they move satisfies
# ||G||_F <= STATIONARITY_RTOL * ||A||_F, A = Sigma^{-1}.  Newton converges
# quadratically near the optimum, so a tight tolerance costs a step or
# two: on criterion 9's k = 0 fit, when it still finished from the
# schedule's last iterate, 1e-3 left a diagonal error of 9.8e-6 and 1e-8
# one of 2.0e-10, one step later.
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
# The finish's Hessian products run on the free entries alone once there
# are at most p^2 / SPARSE_PRODUCT_RATIO of them, and as two dense GEMMs
# otherwise.  Each CG iteration takes one Hessian and one preconditioner
# product.  Measured per such pair, dense against sparse, on one BLAS
# thread of a 2-CPU x86-64 host (the least of 7 runs, each the least of 9
# medians): 6.1 against 40 us at p = 20, m = 24; 119 against 118 us at
# p = 100, m = 199, and 118 against 146 us at m = 250; 1.02 against
# 0.48 ms at p = 200, m = 598, 1.02 against 0.73 ms at m = 1000, and 1.05
# against 1.62 ms at m = 2190; 8.0 against 3.3 ms at p = 400, m = 1996.
# At m = p^2 / 40 the sparse pair wins at p = 200 and loses at p = 100,
# where the two tie near m = p^2 / 50, at the criterion-11 fit's m = 199.
SPARSE_PRODUCT_RATIO = 40
# Floats per gathered block of the sparse Hessian product (256 KB): blocks
# twice as large ran its dot products 3x slower at p = 200.  A block also
# holds at most p^2 / 2 floats, so that the two blocks a pass of dot
# products reads hold at most one p x p matrix between them.  Bounded by
# PRODUCT_CHUNK alone, they set the fit's peak below p = 200: p = 100
# finishes peaked 1.5-2.6 p x p matrices above their schedules, and 0.3-0.6
# above with blocks of p^2 floats; with p^2 / 2 they stay 0.4-0.5 below.
PRODUCT_CHUNK = 32768
# A Newton solve whose forcing tolerance falls below AIM_WINDOW times the
# gradient test's bound STATIONARITY_RTOL * ||A||_F runs on to half that
# bound, so that its step lands under the test rather than just above it,
# where only a line search at the round-off floor could end the fit.  On
# the criterion-6 study's 2010 fits, 12 ended unconverged with plain CG,
# 48 with the preconditioner alone and 2 with both.
AIM_WINDOW = 10.0


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
    rho; at ``k = 0`` and ``k = p(p-1)/2`` there is no schedule, and the
    trace starts with the finish's start at ``RHO0``.  ``converged``
    means those steps stopped on their gradient test or their round-off
    stop: ``sigma_hat`` is a stationary point of the loss restricted to
    the support.  On p > n fits that restricted loss
    can have several stationary points, and a converged fit need not
    reach the lowest.
    """

    sigma_hat: np.ndarray
    objective_trace: list[float]
    rho_trace: list[float]
    total_halvings: int
    converged: bool
    final_penalty: float
    support: np.ndarray
    ridge_delta: float = 0.0

    @property
    def iterations(self) -> int:
        """Recorded iterations, schedule and finish steps alike."""
        return len(self.objective_trace)


def _inverse_and_loss(sigma: np.ndarray, S: np.ndarray) -> tuple[np.ndarray, float]:
    """``(Sigma^{-1}, ln det Sigma + tr(Sigma^{-1} S))`` from one Cholesky
    factorization; raises NotPositiveDefiniteError if Sigma is not PD.

    The trace of the product of two symmetric matrices is the sum of
    their entrywise product, so the loss needs no solve against ``S``.
    """
    L = cholesky_pd(sigma)
    logdet = _log_det_from_cholesky(L)  # before L is overwritten
    inv = _inverse_from_cholesky(L)
    return inv, logdet + float(np.vdot(inv, S))


def _asa(A: np.ndarray, S: np.ndarray) -> np.ndarray:
    """``A S A`` in a new array, exactly symmetric: the triple product drifts
    from symmetry by O(eps), and this is the one place that averages it
    out, so that what reads it needs no symmetrization of its own."""
    AS = A.dot(S)
    M = AS.dot(A)
    np.copyto(AS, M.T)  # A S is spent; M^T + M is M + M^T
    AS += M
    AS *= 0.5
    return AS


class _Iterate:
    """A positive definite iterate with what an MM step reads from it.

    Built once per line-search candidate, from one Cholesky factorization
    (the PD gate): ``inv = Sigma^{-1}`` by inverting the factor, the loss
    ``2 sum log L_ii + <inv, S>``, and from :func:`_select` the support
    ``mask`` of the projection ``P(Sigma)`` and ``dist(Sigma, C)^2``: the
    majorizer at ``Sigma`` reads ``P(Sigma)`` only through its support, so
    no iterate holds it dense.  With ``c`` None, ``sigma`` is a point on
    the sparse set, as every point of the finish is: ``mask`` is None, the
    support being ``sigma``'s own, and ``dist2`` is 0.0.  Nothing else
    factors or solves against ``Sigma``; the schedule's start ``Diag(S)``
    is the one iterate built otherwise, in closed form by
    :func:`_diagonal_start`.  ``sigma`` must be exactly
    symmetric; construction raises NotPositiveDefiniteError if it is not
    PD.

    An iterate holds no ``A S A``, since a rejected candidate never needs
    it: each step forms it once, with :func:`_asa` after the first, and
    owns that buffer, which ``c_k`` and the finish's Hessian overwrite.  In the schedule an
    iterate holds its inverse only until its step is formed, so that a
    fit's working set stays near 5.3 p x p matrices: :meth:`_Fit.schedule`
    sets ``inv`` to None before the line search, which reads ``sigma``,
    ``loss`` and ``dist2`` alone.
    """

    __slots__ = ("sigma", "inv", "loss", "mask", "dist2")

    def __init__(self, sigma: np.ndarray, S: np.ndarray, c: SparsityConstraint | None):
        self.sigma = sigma
        self.inv, self.loss = _inverse_and_loss(sigma, S)
        if c is None:
            self.mask, self.dist2 = None, 0.0
        else:
            self.mask, self.dist2 = _select(sigma, c)

    def objective(self, rho: float) -> float:
        return self.loss + 0.5 * rho * self.dist2

    def gradient(self, S: np.ndarray, rho: float, c: SparsityConstraint) -> np.ndarray:
        """Gradient of ``h_rho`` here, ``A - A S A + rho (Sigma - P(Sigma))``,
        exactly symmetric as its terms are; ``c`` is the constraint the
        iterate was built with, whose mode sets the diagonal of ``P(Sigma)``."""
        proj = self.sigma if self.mask is None else _on_support(self.sigma, self.mask, c)
        return self.inv - _asa(self.inv, S) + rho * (self.sigma - proj)


def _diagonal_start(
    S: np.ndarray, c: SparsityConstraint, rho: float
) -> tuple[_Iterate, np.ndarray]:
    """The schedule's start ``Diag(S)`` as an iterate, and its MM direction
    at ``rho``, both in closed form: what :class:`_Iterate`, :func:`_asa`,
    :func:`_on_support` and :func:`_solve` make of that start, bit for
    bit, with no factorization, eigendecomposition or GEMM.

    With ``d = diag(S)`` the Cholesky factor is ``Diag(sqrt(d))`` and the
    inverse ``Diag(a)`` with ``a = (1/sqrt(d))^2`` as LAPACK rounds it;
    the support of ``P(Sigma)``, the diagonal, and the squared distance
    come from :func:`_select`, as the iterate's do.  ``A S A`` is
    ``(a_i S_ij) a_j``, which is what its GEMMs add up, averaged with its
    transpose as :func:`_asa` averages it.  ``Diag(d)``'s eigenvectors are
    a permutation, so the MM step is ``C_ij / (rho + 1/(d_i d_j))`` with
    ``C = A S A + rho P(Sigma)``, ``P(Sigma)`` being ``Diag(d)``, or ``I``
    in correlation mode.  ``<A, S>`` is summed over a p x p buffer, as the
    iterate sums it, so that the two round alike.  The iterate holds no
    inverse, as a schedule iterate does once its step is formed.
    """
    d = S.diagonal()
    p = d.size
    root = np.sqrt(d)  # the Cholesky factor's diagonal
    a = 1.0 / root
    a *= a
    it = object.__new__(_Iterate)
    it.sigma = np.diag(d)
    it.inv = None
    it.loss = 2.0 * float(np.log(root).sum()) + float(np.vdot(np.diag(a), S))
    it.mask, it.dist2 = _select(it.sigma, c)
    projected = 1.0 if c.mode == "correlation" else d
    M = S * a[:, None]
    M *= a  # A S A
    C = M.T.copy()
    C += M
    C *= 0.5
    C.reshape(-1)[:: p + 1] += rho * projected
    denom = M  # d_i d_j, as _solve forms it from the eigenvalues
    denom[...] = d
    denom *= d[:, None]
    np.divide(1.0, denom, out=denom)
    denom += rho
    C /= denom
    del denom, M
    C.reshape(-1)[:: p + 1] -= d
    return it, C


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
    return it.gradient(S, rho, c) + _asa(it.inv, D) + rho * D


class _FreeEntries:
    """The entries the finish moves, fixed for the whole finish: the
    support plus, in covariance mode, the diagonal.

    ``mask`` marks them, and is not kept: a symmetric ``p`` x ``p`` matrix
    zero off them is held as the vector of its m upper-triangle free
    entries, in row-major order; ``upper`` and ``lower`` are their flat
    indices into the matrix and into its transpose.  With ``weights`` 2
    off the diagonal and 1 on it, :meth:`inner` is the Frobenius inner
    product of the matrices.

    ``sparse`` selects :class:`_Hessian`'s product kernel: the sparse one
    once ``m <= p^2 / SPARSE_PRODUCT_RATIO``.  For it, ``rows`` and
    ``cols`` hold the free entries' row and column indices, and
    :meth:`times` multiplies by such a matrix in CSR form, both
    triangles, through :func:`~sparsecov.matcore._csr_times`: ``indptr``
    and the row-major column ``indices`` are built here once, and each
    product writes the vector's entries ``csr_entry`` into ``data``.
    ``fixed`` marks the diagonal entries that are not free, all of them
    in correlation mode, or is None where the whole diagonal is free: a
    finish iterate is zero off the free entries and that diagonal, which
    is how the sparse kernel's :meth:`_Hessian.fisher_inverse` reads it.
    """

    __slots__ = (
        "p", "upper", "lower", "rows", "cols", "weights", "sparse", "indptr", "indices",
        "data", "csr_entry", "fixed",
    )

    def __init__(self, mask: np.ndarray):
        p = self.p = mask.shape[0]
        nz = np.flatnonzero(mask)  # row-major, as CSR stores them
        rows, cols = np.divmod(nz, p)
        upper = rows <= cols
        self.upper = nz[upper]
        free_rows, free_cols = rows[upper], cols[upper]
        self.lower = free_cols * p + free_rows
        self.weights = np.where(free_rows == free_cols, 1.0, 2.0)
        m = self.upper.size
        self.sparse = SPARSE_PRODUCT_RATIO * m <= p * p
        if self.sparse:
            self.rows, self.cols = free_rows, free_cols
            entry = np.zeros(p * p, dtype=np.intp)
            entry[self.upper] = entry[self.lower] = np.arange(m)
            self.csr_entry = entry[nz]
            self.indptr = nz.searchsorted(np.arange(p + 1) * p)  # where rows start
            self.indices, self.data = cols, np.empty(nz.size)
            self.fixed = None if mask.diagonal().all() else ~mask.diagonal()

    def vector(self, M: np.ndarray) -> np.ndarray:
        """The free upper-triangle entries of ``M``."""
        return M.take(self.upper)

    def matrix(self, v: np.ndarray) -> np.ndarray:
        """The exactly symmetric matrix of ``v``, zero off the free entries."""
        M = np.zeros((self.p, self.p))
        flat = M.reshape(-1)
        flat[self.upper] = flat[self.lower] = v
        return M

    def inner(self, u: np.ndarray, v: np.ndarray) -> float:
        """The Frobenius inner product of the matrices of ``u`` and ``v``."""
        return float((self.weights * u).dot(v))

    def times(self, v: np.ndarray, X: np.ndarray) -> np.ndarray:
        """``V X`` for ``V`` the matrix of ``v``, on the sparse kernel."""
        # in range by construction: "clip" writes straight to ``out`` where
        # the default mode buffers a copy.  Called as np.take, it left about
        # 120 bytes a call that only the cycle collector freed, which raised
        # the finish's peak step by step
        v.take(self.csr_entry, out=self.data, mode="clip")
        return _csr_times(self.indptr, self.indices, self.data, X)


class _Hessian:
    """Hessian of the loss over the free entries at an iterate.

    ``H[V] = -A V A + A V M + M V A`` at the free entries, for ``V`` zero
    off them, with ``A = Sigma^{-1}`` and ``M = A S A``: the three terms
    are the second derivatives of ``ln det Sigma`` and
    ``tr(Sigma^{-1} S)``, and they equal ``Y + Y^T`` with ``Y = A V N`` and
    ``N = M - A/2``, exactly symmetric since ``M`` (from :func:`_asa`) and
    ``A`` are.  The caller hands over ``asa``, ``M`` in a buffer it no
    longer reads, and ``N`` is formed in it.  A product maps a vector
    of free entries (:class:`_FreeEntries`) to one, so ``H[V]`` is exactly
    symmetric by construction.

    ``free.sparse`` picks one of two kernels.  The dense one forms
    ``Y = (A V) N`` by two GEMMs, 2 p^3 flops.  The sparse one forms
    ``W = V N`` from ``V`` in CSR form, by :meth:`_FreeEntries.times` and
    :func:`~sparsecov.matcore._csr_times`, in p flops per nonzero of ``V``,
    then ``Y_ij = <A[i, :], W[:, j]>`` at the free entries alone, as
    row-wise dot products of gathered rows of ``A`` and ``W^T``, in chunks
    of at most ``PRODUCT_CHUNK`` and at most ``p^2 / 2`` gathered floats:
    O(p m) against 2 p^3.
    Neither keeps a gather between products, and an operator, which holds
    ``A`` and ``N``, serves one Newton direction, whose conjugate gradient
    solve reads ``H`` through products alone.  The preconditioner
    :meth:`fisher_inverse` is the same product with ``Sigma`` for both
    ``A`` and ``N``: on the dense kernel in the same buffers, and on the
    sparse one through ``Sigma``'s own nonzeros, two CSR products and no
    dense row of ``Sigma``.  The dense kernel's buffers are C-ordered
    whatever the layout of ``A``, so that its flat view is a view.
    """

    __slots__ = ("A", "N", "sigma", "free", "_v", "_flat", "_tmp")

    def __init__(self, it: _Iterate, asa: np.ndarray, free: _FreeEntries):
        self.A = it.inv
        self.N = asa
        self.N -= 0.5 * it.inv
        self.sigma = it.sigma
        self.free = free
        if not free.sparse:
            self._v = np.empty(it.inv.shape)
            self._flat = self._v.reshape(-1)  # a view, indexed faster than .flat
            self._tmp = np.empty(it.inv.shape)

    def __call__(self, v: np.ndarray) -> np.ndarray:
        """``H[V]`` at the free entries, for ``V`` the matrix of ``v``."""
        return self._product(v, self.A, self.N)

    def fisher_inverse(self, v: np.ndarray) -> np.ndarray:
        """``2 Sigma V Sigma`` at the free entries, for ``V`` the matrix of
        ``v``: the inverse of the Fisher metric ``V -> A V A``, which ``H``
        equals where ``S = Sigma``, up to a factor 2 that CG does not see.
        It is self-adjoint and positive definite in :meth:`_FreeEntries.inner`,
        since ``<V, Sigma V Sigma> = ||Sigma^{1/2} V Sigma^{1/2}||^2``.

        The sparse kernel reads ``Sigma`` through its own nonzeros, since a
        finish iterate is zero off the free entries and the diagonal:
        ``W = V Sigma`` by the CSR product, then ``Sigma W`` by the same CSR
        structure holding ``Sigma``'s free entries, read at the free
        entries, plus ``d_i W_ij`` there for each diagonal entry ``d_i``
        that is not free.  Both products cost p flops per nonzero, and
        the two p x p results are all it holds: no transposed copy and no
        gathered rows, which :meth:`__call__` needs for its dense ``A``."""
        f = self.free
        if not f.sparse:
            return self._product(v, self.sigma, self.sigma)
        sigma = self.sigma
        W = f.times(v, sigma)
        if f.fixed is None:
            out = np.zeros(v.size)
        else:
            d = np.where(f.fixed, sigma.diagonal(), 0.0)
            out = d[f.rows] * W.take(f.upper) + d[f.cols] * W.take(f.lower)
        Y = f.times(sigma.take(f.upper), W)
        del W
        out += Y.take(f.upper)
        out += Y.take(f.lower)
        return out

    def _product(self, v: np.ndarray, A: np.ndarray, N: np.ndarray) -> np.ndarray:
        """``Y + Y^T`` at the free entries, ``Y = A V N``, on ``free``'s kernel."""
        f = self.free
        if f.sparse:
            Wt = f.times(v, N).T.copy()  # row j holds W[:, j]
            p = Wt.shape[0]
            out = np.empty_like(v)
            step = max(1, min(PRODUCT_CHUNK, p * p // 2) // p)
            for lo in range(0, v.size, step):
                i, j = f.rows[lo : lo + step], f.cols[lo : lo + step]
                out[lo : lo + step] = np.einsum(
                    "kr,kr->k", A[i], Wt[j]
                ) + np.einsum("kr,kr->k", A[j], Wt[i])
            return out
        V, flat = self._v, self._flat
        V.fill(0.0)
        flat[f.upper] = flat[f.lower] = v
        A.dot(V, out=self._tmp)
        self._tmp.dot(N, out=V)  # Y
        return flat[f.upper] + flat[f.lower]


def _newton_direction(
    it: _Iterate, asa: np.ndarray, g: np.ndarray, g_norm: float, a_norm: float,
    free: _FreeEntries,
) -> tuple[np.ndarray, int]:
    """Truncated Newton direction for the loss over the ``free`` entries at
    ``it``, given ``g``, the loss gradient there; returns (direction,
    Hessian products).  ``g`` and the direction are vectors of the m free
    entries (:class:`_FreeEntries`); write ``G`` and ``D`` for their
    matrices.  The caller's gradient test has formed ``A S A`` and both
    norms: ``asa`` is that buffer, which :class:`_Hessian` overwrites,
    ``g_norm`` is ``||G||_F`` and ``a_norm`` is ``||A||_F``.

    Conjugate gradients on ``H[D] = -G`` in the Frobenius inner product
    (Nocedal & Wright, Algorithms 5.3 and 7.1), run on the vectors
    with :meth:`_FreeEntries.inner`, stopped once the residual
    ``H[D] + G`` falls to ``min(0.5, sqrt(||G|| / ||A||)) ||G||``,
    unit-free like the stationarity test, ``A = Sigma^{-1}``.  Negative
    curvature ends the solve: on the first iteration the direction is the
    first search direction, later it is the current iterate.

    CG is preconditioned by :meth:`_Hessian.fisher_inverse`,
    ``V -> Sigma V Sigma`` at the free entries: the inverse of the Gaussian
    model's Fisher metric, which ``H`` equals on the full space where
    ``S = Sigma``.  The stop still reads the unpreconditioned residual, so
    the forcing term bounds it, and the first search direction is
    ``-Sigma G Sigma`` (up to a factor 2).  A solve also aims below the
    gradient test: once its forcing tolerance is below ``AIM_WINDOW``
    times the test's bound, it stops at no more than half that bound.

    In exact arithmetic CG ends within m iterations, but the cap is the
    dimension ``p(p+1)/2`` of the symmetric matrices: on the ill-conditioned
    finishes of p > n fits, CG in floating point runs past m.  On 18
    random-sparse fits with p = 20-50 and n = 0.4p, a cap of m cut the
    products by 37% but left one of the 4 converging fits unconverged.
    """
    hess = _Hessian(it, asa, free)
    r = g.copy()  # residual H[D] + G
    tol = min(0.5, math.sqrt(g_norm / a_norm)) * g_norm
    if tol < AIM_WINDOW * STATIONARITY_RTOL * a_norm:
        tol = min(tol, 0.5 * STATIONARITY_RTOL * a_norm)
    D = np.zeros(r.size)
    p = free.p
    for j in range(p * (p + 1) // 2):
        y = hess.fisher_inverse(r)
        ry_next = free.inner(r, y)
        if j == 0:
            d = -y
        else:
            d *= ry_next / ry
            d -= y
        ry = ry_next
        Hd = hess(d)
        curvature = free.inner(d, Hd)
        if curvature <= 0.0:
            return (d if j == 0 else D), j + 1
        alpha = ry / curvature
        D += alpha * d
        Hd *= alpha
        r += Hd
        rr = free.inner(r, r)
        if math.sqrt(rr) <= tol:
            break
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
    full_rank = lam_min >= RIDGE_EIG_RTOL * lam_max
    if cfg.ridge_delta > 0:
        delta = cfg.ridge_delta
    elif not full_rank:
        delta = RIDGE_SCALE * float(np.trace(S)) / S.shape[0]
    else:
        return S, 0.0
    S_used = S.copy()
    S_used[np.diag_indices_from(S_used)] += delta
    return S_used, delta


class _Fit:
    """One fit's engine: its current iterate ``it`` and the trace of the
    steps that led there.

    The engine is the only long-lived reference to the iterate, and makes
    the first one itself: :meth:`schedule` starts from ``Diag(S)`` where k
    leaves a support to pick, and :meth:`finish`, given a support by the
    schedule or by a caller, starts from ``P(S)`` on it when no schedule
    step was taken.  ``finish(schedule())`` is a fit, and ``finish`` alone
    on a support is its rho = inf refit.  Both
    phases move it through :meth:`_advance`, the one backtracking search,
    which records each step it accepts: ``objectives`` and ``rhos`` are
    the traces, ``halvings`` their summed halvings, and ``callback`` gets
    each recorded step (see :func:`fit`).  No method keeps a replaced
    iterate, an ``A S A`` or a direction in a local while a candidate is
    built, so that a fit's working set stays near 5.3 p x p matrices, set
    by the finish's Hessian products.
    """

    __slots__ = ("S", "c", "callback", "it", "objectives", "rhos", "halvings")

    def __init__(self, S: np.ndarray, c: SparsityConstraint, callback=None):
        self.S, self.c, self.callback = S, c, callback
        self.it: _Iterate | None = None  # made by schedule or finish
        self.objectives: list[float] = []
        self.rhos: list[float] = []
        self.halvings = 0

    def _record(self, it, before, rho, halvings, accepted, cg_products=0):
        """Trace ``it`` at ``rho`` and hand the step to the callback;
        ``before`` is the objective of the point it left."""
        h = it.objective(rho)
        self.objectives.append(h)
        self.rhos.append(rho)
        self.halvings += halvings
        if self.callback is not None:
            self.callback(
                {
                    "iteration": len(self.objectives),
                    "rho": rho,
                    "sigma": it.sigma,
                    "objective_before": before,
                    "objective": h,
                    "halvings": halvings,
                    "accepted": accepted,
                    "cg_products": cg_products,
                }
            )

    def _advance(self, direction, c, rho, max_halvings, cg_products=0) -> bool:
        """Move to ``sigma + 2^{-s} direction`` for the smallest ``s <=
        max_halvings`` that is PD and lowers ``h_rho``, and record that step;
        returns whether there was one.

        ``direction`` must be exactly symmetric, as every MM and Newton
        direction is, so that each candidate is.  Candidates are built with
        ``c``, or with None in the finish, whose points lie on the sparse
        set.  The search reads ``sigma``, ``loss`` and ``dist2`` alone.
        """
        h = self.it.objective(rho)
        for s in range(max_halvings + 1):
            candidate = direction * 0.5**s
            candidate += self.it.sigma
            try:
                nxt = _Iterate(candidate, self.S, c)
            except NotPositiveDefiniteError:
                continue
            if nxt.objective(rho) < h:
                self._record(nxt, h, rho, s, True, cg_products)
                self.it = nxt
                return True
            nxt = None  # a rejected candidate goes before the next is built
        return False

    def _start_on(self, M: np.ndarray, support: np.ndarray) -> None:
        """Make ``P(M)`` on ``support`` the iterate, a point on the sparse
        set: ``M`` there, with ``M``'s diagonal, or a unit diagonal in
        correlation mode.  Where that is not PD, make it ``P(S)`` on no
        pair, ``Diag(S)`` or ``I``, which lies on every support."""
        try:
            self.it = _Iterate(_on_support(M, support, self.c), self.S, None)
            return
        except NotPositiveDefiniteError:
            pass
        # built after the except block, whose traceback would keep the
        # failed factorization alive
        self.it = _Iterate(_on_support(self.S, False, self.c), self.S, None)

    def _mm_direction(self, rho: float) -> np.ndarray:
        """The MM step from the iterate at ``rho``, less the iterate:
        ``c_k = A S A + rho P(Sigma)`` in a new ``A S A`` buffer,
        ``P(Sigma)`` built from the iterate's support mask, and the
        iterate then lets go of its inverse."""
        it = self.it
        c_k = _asa(it.inv, self.S)
        it.inv = None
        added = _on_support(it.sigma, it.mask, self.c)
        added *= rho
        c_k += added
        del added
        direction = _solve(it.sigma, c_k, rho)
        del c_k
        direction -= it.sigma
        return direction

    def schedule(self) -> np.ndarray:
        """Run the rho schedule from ``Diag(S)``; returns the support of
        ``P(Sigma)`` it locked, or held when the budget ran out.

        The schedule runs only where k leaves a support to pick: at
        ``k = 0`` it returns the diagonal and at ``k = p(p-1)/2`` every
        pair, with no step and no iterate.  The start and its first MM
        step are closed-form
        (:func:`_diagonal_start`): no factorization, eigendecomposition or
        GEMM.  Each later step is :meth:`_mm_direction`, one
        eigendecomposition and a few GEMMs.  A step that backtracking
        rejects rebuilds the iterate from ``sigma``, bit for bit, at the
        cost of one more factorization, and is recorded as not accepted.
        """
        S, c = self.S, self.c
        p = S.shape[0]
        if not 0 < c.k < p * (p - 1) // 2:
            support = np.full(S.shape, c.k > 0)
            np.fill_diagonal(support, True)
            return support
        rho = RHO0
        self.it, direction = _diagonal_start(S, c, rho)
        support = None
        held = 0  # consecutive steps that kept the support of P(Sigma)
        for _ in range(FitConfig.max_outer):
            if direction is None:
                direction = self._mm_direction(rho)
            accepted = self._advance(direction, c, rho, FitConfig.max_halvings)
            direction = None
            if not accepted:
                self.it = _Iterate(self.it.sigma, S, c)
                self._record(self.it, self.it.objective(rho), rho, 0, False)
            mask = self.it.mask
            # two C-ordered boolean masks are equal when their bytes are
            kept = support is not None and mask.tobytes() == support.tobytes()
            held = held + 1 if kept else 0
            if held == LOCK_STEPS:
                return support  # equal to mask; a step replaces the iterate
            support = mask
            rho *= RHO_GROWTH
        return support

    def finish(self, support: np.ndarray) -> bool:
        """Run the finish at rho = inf on ``support`` with the steps that
        ``FitConfig.max_outer`` leaves after the trace; returns whether it
        converged.

        Newton steps on the loss over the free entries, ``support`` plus the
        covariance diagonal, from a start on the sparse set.  With no
        iterate, no schedule step was taken, and the start is ``P(S)`` on
        ``support``, recorded once at ``RHO0``, as not accepted, so that the
        steps have a rho to repeat; in correlation mode ``S`` is first
        scaled to unit diagonal, which leaves a correlation matrix as it is.
        Otherwise the start is the iterate itself if it is on the set, which
        is not factored again, else ``P(Sigma)``.  Where the start is not PD
        it is ``Diag(S)``, or ``I`` in correlation mode, which lie on every
        support.  With no step left the finish returns at once, before it
        moves the iterate.  The start is made before the free entries are,
        and nothing after projects.  The steps search and record at the
        trace's last rho, where a point on the set scores its loss exactly.
        In correlation mode ``support``'s diagonal is cleared in place.  The
        finish keeps no p x p mask: :class:`_FreeEntries` keeps index
        vectors, and a start other than the iterate holds no mask.

        The scaling matters for a ridged correlation matrix ``R + delta I``
        on every pair: ``P`` of it is ``R``, singular where ``R`` needed
        the ridge.  From ``I`` instead, p > n fits at p = 20-50 took
        222-401 steps and one ended unconverged; from the scaled ``S`` each
        took 2 Newton steps to the same loss.
        """
        S = self.S
        if self.it is None:
            if self.c.mode == "correlation":
                scale = 1.0 / np.sqrt(S.diagonal())
                S = S * np.outer(scale, scale)  # exactly symmetric, as S is
            self._start_on(S, support)
            S = self.S  # the scaled copy goes before the steps
            self._record(self.it, self.it.objective(RHO0), RHO0, 0, False)
        rho, steps = self.rhos[-1], len(self.rhos)
        if steps >= FitConfig.max_outer:
            return False
        moved = self.it.dist2 > 0.0
        if moved:
            self.it.inv = None
            self._start_on(self.it.sigma, self.it.mask)
        if self.c.mode == "correlation":
            np.fill_diagonal(support, False)
        free = _FreeEntries(support)
        del support
        converged = False
        for _ in range(FitConfig.max_outer - steps):
            # the loss gradient A - A S A on the free entries
            asa = _asa(self.it.inv, S)
            g = free.vector(self.it.inv) - free.vector(asa)
            g_norm = math.sqrt(free.inner(g, g))
            flat_inv = self.it.inv.reshape(-1)  # ||A||_F as np.linalg.norm forms it
            a_norm = math.sqrt(flat_inv.dot(flat_inv))
            if g_norm <= STATIONARITY_RTOL * a_norm:
                converged = True
                break
            d, products = _newton_direction(self.it, asa, g, g_norm, a_norm, free)
            del asa  # spent as the Hessian's N
            # a model decrease at round-off level is one no line search can
            # certify, so the iterate is as stationary as the arithmetic allows;
            # each halving halves the decrease, so the search stops where it
            # reaches that level too
            decrease = -free.inner(d, g)
            floor = DECREASE_RTOL * abs(self.it.loss)
            if decrease <= floor:
                converged = True
                break
            max_halvings = FitConfig.max_halvings
            if floor > 0.0:
                max_halvings = min(max_halvings, int(math.log2(decrease / floor)))
            if not self._advance(free.matrix(d), None, rho, max_halvings, products):
                break
        if moved and len(self.rhos) == steps:
            # the finish took no step from its start: one entry records the
            # start, so that the trace still ends at the estimate
            self._record(self.it, self.it.objective(rho), rho, 0, False)
        return converged


def fit(
    S: np.ndarray,
    c: SparsityConstraint,
    cfg: FitConfig = FitConfig(),
    callback: Callable[[dict], None] | None = None,
) -> FitResult:
    """Fit a sparse covariance matrix to the sample covariance ``S``.

    The package's one path to the MM step.  Where k leaves a support to
    pick, starts from ``Diag(S)`` (starting from S itself provokes heavy
    backtracking) and runs MM
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

    The schedule runs only when ``0 < k < p(p-1)/2``: at ``k = 0`` the one
    support is the diagonal, and at ``k = p(p-1)/2`` it is every pair, so
    there is none to pick.  Those fits start the finish at ``P(S)``,
    ``Diag(S)`` or ``S``, where ``S`` is the ridged matrix the fit works
    on, scaled to unit diagonal in correlation mode (so ``I`` or ``R``),
    and record that start once at ``RHO0``, as not accepted.  That start
    is the loss's minimizer over the support, so the gradient test
    certifies it with no Newton step.  Only a ridged ``R + delta I`` at
    ``k = p(p-1)/2`` has no closed form; Newton steps run from its start.

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
        schedule steps; the preconditioner's products are not counted).
        Newton steps repeat the schedule's last rho.  A finish that takes
        no step from a start other than the schedule's iterate records
        that start once, as not accepted, and so does a fit that runs no
        schedule, before any Newton step.  For tracing and tests.

    Raises
    ------
    ValueError
        If S is empty, has non-finite entries or shape problems, is not
        positive semidefinite to within round-off (see
        :func:`_resolve_ridge`), or, in correlation mode, has a diagonal
        entry that differs from 1 by more than 1e-8 before any ridge.
    NotPositiveDefiniteError
        If S still has a nonpositive diagonal entry after ridging, so
        the diagonal start is singular.
    """
    (S,) = _check_inputs((S,), c)
    if not S.size:
        raise ValueError(f"S must have at least one variable, got shape {S.shape}")
    if c.mode == "correlation" and (np.abs(S.diagonal() - 1.0) > 1e-8).any():
        raise ValueError("a correlation-mode S must have unit diagonal to within 1e-8")
    S, ridge_delta = _resolve_ridge(S, cfg)
    if (S.diagonal() <= 0).any():
        raise NotPositiveDefiniteError(
            "S has a nonpositive diagonal entry, so the diagonal start is "
            "singular; set ridge_delta > 0 in FitConfig"
        )

    engine = _Fit(S, c, callback)
    # the schedule's support goes straight to the finish, which lets it go
    # once its free entries are built
    converged = engine.finish(engine.schedule())
    it = engine.it
    return FitResult(
        sigma_hat=it.sigma,
        objective_trace=engine.objectives,
        rho_trace=engine.rhos,
        total_halvings=engine.halvings,
        converged=converged,
        final_penalty=it.dist2,
        support=it.sigma != 0.0 if it.mask is None else it.mask,
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
        If ``R`` is empty, or any diagonal entry of ``R`` differs from 1 by
        more than 1e-8.
    """
    return fit(R, SparsityConstraint(k, "correlation"), cfg, callback)

"""Solvers for the surrogate stationarity equation.

Each MM subproblem reduces to the linear matrix equation

    rho * X + A X A = C,        A = sigma_k^{-1}  (symmetric positive definite)

which is a Sylvester equation in disguise: multiplying through by sigma_k
puts it in the classical ``A1 X + X B1 = C1`` form.  Because both
coefficient matrices here share the eigenbasis of ``sigma_k``, the Schur
reduction of the general Bartels-Stewart method collapses to a single
symmetric eigendecomposition followed by an elementwise divide, keeping
the O(p^3) cost:

    sigma_k = Q diag(lam) Q^T
    X = Q * [ (Q^T C Q)_ij / (rho + 1/(lam_i lam_j)) ] * Q^T

Three solvers are provided: the fast spectral solver above, a dense
Kronecker-system reference solver (O(p^6), test oracle only), and a
fixed-point iteration that converges when ``||sigma_k^{-1}||_2^2 < rho``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import as_symmetric, cholesky_pd, inverse_pd, spectral_decompose

__all__ = [
    "SurrogateSystem",
    "NoConvergenceError",
    "solve_spectral",
    "solve_kronecker",
    "solve_fixed_point",
    "equation_residual",
]

KRONECKER_MAX_DIM = 64
# solve_fixed_point stops at this relative equation residual, or fails
# after this many iterations.
FIXED_POINT_TOL = 1e-10
FIXED_POINT_MAX_ITER = 1000


class NoConvergenceError(RuntimeError):
    """Fixed-point iteration failed to converge.

    Attributes
    ----------
    residual : float
        Relative equation residual at the last iterate.
    iterations : int
        Number of iterations performed.
    """

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class SurrogateSystem:
    """One subproblem instance: ``rho * X + sigma_k^{-1} X sigma_k^{-1} = c_k``.

    ``sigma_k`` must be symmetric positive definite, ``c_k`` symmetric, and
    ``rho`` strictly positive; all three are validated at construction.
    """

    sigma_k: np.ndarray
    c_k: np.ndarray
    rho: float

    def __post_init__(self):
        # stored, so copied: as_symmetric may return the caller's array
        sigma_k = np.array(as_symmetric(self.sigma_k))
        c_k = np.array(as_symmetric(self.c_k))
        if sigma_k.shape != c_k.shape:
            raise ValueError(
                f"sigma_k and c_k dimensions differ: {sigma_k.shape} vs {c_k.shape}"
            )
        if not self.rho > 0:
            raise ValueError(f"rho must be positive, got {self.rho}")
        cholesky_pd(sigma_k)  # raises NotPositiveDefiniteError otherwise
        object.__setattr__(self, "sigma_k", sigma_k)
        object.__setattr__(self, "c_k", c_k)
        object.__setattr__(self, "rho", float(self.rho))

    @property
    def p(self) -> int:
        return self.sigma_k.shape[0]

    def inverse(self) -> np.ndarray:
        """``sigma_k^{-1}``."""
        return inverse_pd(self.sigma_k)


def equation_residual(sys: SurrogateSystem, X: np.ndarray) -> float:
    """Relative Frobenius residual of the equation at candidate ``X``."""
    A = sys.inverse()
    R = sys.rho * X + A @ X @ A - sys.c_k
    return float(np.linalg.norm(R) / max(1.0, np.linalg.norm(sys.c_k)))


def solve_spectral(sys: SurrogateSystem) -> np.ndarray:
    """Solve the equation through the eigenbasis of ``sigma_k``.

    Cost is one symmetric eigendecomposition plus four dense products,
    O(p^3) overall.  The result is exactly symmetric.
    """
    return _solve(sys.sigma_k, sys.c_k, sys.rho)


def _solve(sigma_k: np.ndarray, c_k: np.ndarray, rho: float) -> np.ndarray:
    """:func:`solve_spectral` without validation, for the MM loop.

    The caller guarantees what :class:`SurrogateSystem` would check:
    ``sigma_k`` exactly symmetric and positive definite, ``c_k`` exactly
    symmetric of the same shape, and ``rho > 0``.

    Beside the eigenvectors it holds two p x p buffers: the four GEMMs
    alternate between them, and the denominators are formed in place in
    the one the second GEMM has spent.  The result is the last of them.
    """
    lam, Q = spectral_decompose(sigma_k)
    a = Q.T.dot(c_k)
    b = a.dot(Q)
    denom = a  # lam_i lam_j, without np.outer's buffers for its operands
    denom[...] = lam
    denom *= lam[:, None]
    np.divide(1.0, denom, out=denom)
    denom += rho
    if not denom.min() > 0.0:  # a NaN entry makes the minimum NaN, which fails
        raise ValueError(
            "solver denominators are not all positive; "
            "sigma_k is numerically singular or indefinite"
        )
    b /= denom
    Q.dot(b, out=a)
    a.dot(Q.T, out=b)
    np.copyto(a, b.T)  # then a same-order add, which needs no buffer
    a += b
    a /= 2.0
    return a


def solve_kronecker(sys: SurrogateSystem) -> np.ndarray:
    """Reference solver via the vectorized p^2-by-p^2 linear system.

    Solves ``[rho I + sigma_k^{-1} (kron) sigma_k^{-1}] vec(X) = vec(c_k)``
    directly.  O(p^6): kept as an independent oracle for the spectral
    solver, with a hard dimension guard against accidental large use.
    """
    if sys.p > KRONECKER_MAX_DIM:
        raise ValueError(
            f"Kronecker reference solver is limited to p <= {KRONECKER_MAX_DIM} "
            f"(got p = {sys.p}); use solve_spectral"
        )
    A = sys.inverse()
    system = np.kron(A, A)
    system[np.diag_indices_from(system)] += sys.rho
    x = np.linalg.solve(system, sys.c_k.reshape(-1))
    X = x.reshape(sys.p, sys.p)
    return (X + X.T) / 2.0


def solve_fixed_point(sys: SurrogateSystem) -> np.ndarray:
    """Solve the equation by the iteration ``X <- (c_k - A X A) / rho``.

    The map contracts with factor ``||sigma_k^{-1}||_2^2 / rho``, so the
    iteration converges whenever ``||sigma_k^{-1}||_2^2 < rho``.  The
    right-hand side is the same ``c_k`` as in the direct solvers.  It
    stops once the relative equation residual is at most
    ``FIXED_POINT_TOL``, within ``FIXED_POINT_MAX_ITER`` iterations.

    Raises
    ------
    NoConvergenceError
        On iterate blowup (norm growth by 1e6 over the first iterate) or
        when the budget is exhausted; carries the last residual.
    """
    A = sys.inverse()
    C = sys.c_k
    cnorm = max(1.0, float(np.linalg.norm(C)))
    X = C / sys.rho
    norm0 = max(1.0, float(np.linalg.norm(X)))
    residual = np.inf
    for it in range(1, FIXED_POINT_MAX_ITER + 1):
        AXA = A @ X @ A
        residual = float(np.linalg.norm(sys.rho * X + AXA - C)) / cnorm
        if residual <= FIXED_POINT_TOL:
            return (X + X.T) / 2.0
        X = (C - AXA) / sys.rho
        if np.linalg.norm(X) > 1e6 * norm0:
            raise NoConvergenceError(
                f"fixed-point iteration diverged after {it} iterations "
                f"(residual {residual:.3e})",
                residual=residual,
                iterations=it,
            )
    raise NoConvergenceError(
        f"fixed-point iteration did not reach tol={FIXED_POINT_TOL:.1e} in "
        f"{FIXED_POINT_MAX_ITER} iterations (residual {residual:.3e})",
        residual=residual,
        iterations=FIXED_POINT_MAX_ITER,
    )

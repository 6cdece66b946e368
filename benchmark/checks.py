"""Output checks the benchmark applies, computed apart from the package.

Everything here uses plain numpy on the estimates the package returns:
the top-k projection, the penalized objective, the entropy loss, the
stationarity residual and the failure rule are written out again rather
than imported from ``sparsecov``, so a fault in the package's own
versions shows up as a disagreement.
"""

from __future__ import annotations

import numpy as np


def is_pd(M: np.ndarray) -> bool:
    """True when ``numpy.linalg.cholesky`` accepts ``M``."""
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return False
    return True


def top_k_pairs(M: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the ``k`` largest-magnitude strict-upper entries.

    Exact zeros are never kept.  Equal magnitudes go to the smaller
    (row, col) position, the package's documented tie rule.
    """
    rows, cols = np.triu_indices(M.shape[0], 1)
    mags = np.abs(M[rows, cols])
    # lexsort sorts by its last key first: magnitude descending, then position
    order = np.lexsort((np.arange(mags.size), -mags))[:k]
    order = order[mags[order] > 0.0]
    return rows[order], cols[order]


def project(M: np.ndarray, k: int) -> np.ndarray:
    """Projection onto the covariance-mode sparsity set: free diagonal, top-k pairs."""
    out = np.diag(np.diag(M))
    rows, cols = top_k_pairs(M, k)
    out[rows, cols] = M[rows, cols]
    out[cols, rows] = M[rows, cols]
    return out


def penalized_objective(Sigma: np.ndarray, S: np.ndarray, k: int, rho: float) -> float:
    """``ln det Sigma + tr(Sigma^{-1} S) + (rho/2) dist(Sigma, C_k)^2`` by slogdet and solve."""
    sign, logdet = np.linalg.slogdet(Sigma)
    if sign <= 0:
        return float("inf")
    diff = Sigma - project(Sigma, k)
    return float(logdet + np.trace(np.linalg.solve(Sigma, S)) + 0.5 * rho * np.sum(diff * diff))


def entropy_loss(truth: np.ndarray, estimate: np.ndarray) -> float:
    """``tr(T^{-1} E) - ln det(T^{-1} E) - p`` by solve and slogdet."""
    M = np.linalg.solve(truth, estimate)
    _, logdet_est = np.linalg.slogdet(estimate)
    _, logdet_true = np.linalg.slogdet(truth)
    return float(np.trace(M) - (logdet_est - logdet_true) - truth.shape[0])


def stationarity_residual(Sigma: np.ndarray, S: np.ndarray, k: int, rho: float) -> float:
    """``||G||_F / ||A||_F`` with ``G = A - A S A + rho (Sigma - P(Sigma))``, ``A = Sigma^{-1}``."""
    A = np.linalg.inv(Sigma)
    G = A - A @ S @ A + rho * (Sigma - project(Sigma, k))
    return float(np.linalg.norm(G) / np.linalg.norm(A))


def ridged(S: np.ndarray, delta: float) -> np.ndarray:
    """``S + delta I``, the matrix a fit with ridge ``delta`` works on."""
    return S + delta * np.eye(S.shape[0])


def fit_failed(result, max_outer: int) -> bool:
    """The benchmark's failure rule for a returned fit.

    A fit fails when its estimate is not positive definite or when its
    ``rho_trace`` grows at every one of the first ``max_outer`` entries,
    which means the rho schedule ran out its budget without the
    objective settling.  (A fit that raises fails too; callers count
    that themselves.)  The rule reads ``rho_trace``, not ``converged``.
    """
    if not is_pd(result.sigma_hat):
        return True
    rho = np.asarray(result.rho_trace[:max_outer], dtype=float)
    return rho.size >= max_outer and bool(np.all(np.diff(rho) > 0))


def fit_problems(result, S: np.ndarray, k: int) -> list[str]:
    """Disagreements between a fit that did not fail and the checks above.

    ``S`` is the sample covariance given to the fit; the fit's own ridge
    is added here.
    """
    problems = []
    Sigma = result.sigma_hat
    if not is_pd(Sigma):
        problems.append("estimate is not positive definite")
        return problems
    support = np.abs(project(Sigma, k)) > 0.0
    if not np.array_equal(support, np.asarray(result.support)):
        problems.append("support differs from the benchmark's top-k projection")
    if np.count_nonzero(np.triu(support, 1)) > k:
        problems.append(f"support keeps more than k={k} pairs")
    h = penalized_objective(Sigma, ridged(S, result.ridge_delta), k, result.rho_trace[-1])
    last = result.objective_trace[-1]
    if not abs(h - last) <= 1e-9 * max(abs(last), 1.0):
        problems.append(f"objective {h!r} at the final rho differs from the trace's last {last!r}")
    return problems

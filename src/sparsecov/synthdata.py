"""Ground-truth covariance designs, normal sampling, and replicate studies.

Four designs: independent (identity), moving_average (unit diagonal,
one off-diagonal band), cliques (block diagonal), and random_sparse (a
fixed count of random strict-upper entries).  Deterministic designs are
repaired to positive definiteness by a diagonal shift; random_sparse
keeps its unit diagonal and redraws instead.

Randomness comes from PCG64 seeded through SeedSequence with the stream
id as spawn key, with normal draws from the generator's standard
ziggurat method, so every draw is reproducible from (seed, stream_id)
alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .baselines import ThresholdSpec, threshold
from .evaluation import (
    MetricReport,
    _nnz_upper,
    compute_report,
    entropy_loss,
    fp_fn_rates,
    gaussian_nll,
    info_criteria,
    rmse,
)
from .matcore import cholesky_pd, is_positive_definite, sample_covariance
from .proxdist import FitConfig, fit
from .sparsity import SparsityConstraint
from .tuning import CvSpec, cross_validate, default_grid

__all__ = [
    "SimDesign",
    "RngStream",
    "ReplicateTable",
    "make_design",
    "sample_mvn",
    "run_replicates",
]

KINDS = ("independent", "moving_average", "cliques", "random_sparse")
MAX_REDRAWS = 1000


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible random stream.

    Two streams with the same (seed, stream_id) produce identical draws
    on every platform; distinct stream_ids are statistically
    independent.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.stream_id < 0:
            raise ValueError(f"stream_id must be nonnegative, got {self.stream_id}")

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.PCG64(seq))


def _derive_seed(seed: int, key: tuple[int, ...]) -> int:
    """A 64-bit seed that is a pure function of (seed, key)."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return int(seq.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class SimDesign:
    """Parameters of one ground-truth covariance design."""

    kind: str
    p: int
    sparsity_frac: float = 0.02
    band_value: float = 0.4
    block_size: int = 5
    block_value: float = 0.4
    magnitude_range: tuple[float, float] = (0.3, 0.6)
    pd_shift_margin: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.p < 2:
            raise ValueError(f"p must be at least 2, got {self.p}")
        if not 0 < self.sparsity_frac <= 1:
            raise ValueError(
                f"sparsity_frac must lie in (0, 1], got {self.sparsity_frac}"
            )
        if self.block_size < 1:
            raise ValueError(f"block_size must be at least 1, got {self.block_size}")
        lo, hi = self.magnitude_range
        if not 0 < lo <= hi:
            raise ValueError(f"magnitude_range must satisfy 0 < lo <= hi, got {lo, hi}")
        if self.pd_shift_margin < 0:
            raise ValueError(
                f"pd_shift_margin must be nonnegative, got {self.pd_shift_margin}"
            )
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


def _random_sparse(d: SimDesign) -> np.ndarray:
    rng = RngStream(d.seed).generator()
    n_upper = d.p * (d.p - 1) // 2
    m = math.ceil(d.sparsity_frac * n_upper)
    iu = np.triu_indices(d.p, k=1)
    lo, hi = d.magnitude_range
    for _ in range(MAX_REDRAWS):
        M = np.eye(d.p)
        sel = rng.choice(n_upper, size=m, replace=False)
        vals = rng.uniform(lo, hi, size=m) * (2 * rng.integers(0, 2, size=m) - 1)
        M[iu[0][sel], iu[1][sel]] = vals
        M[iu[1][sel], iu[0][sel]] = vals
        if np.linalg.eigvalsh(M)[0] > 0:
            return M
    raise ValueError(
        f"no positive definite draw in {MAX_REDRAWS} attempts; "
        "reduce sparsity_frac or magnitude_range"
    )


def make_design(d: SimDesign) -> np.ndarray:
    """Construct the ground-truth covariance matrix for a design.

    Deterministic kinds are shifted on the diagonal by
    ``pd_shift_margin - lambda_min`` if their smallest eigenvalue is not
    positive; random_sparse redraws until positive definite, keeping the
    unit diagonal exact.

    Raises
    ------
    ValueError
        If no positive definite matrix can be produced.
    """
    if d.kind == "random_sparse":
        return _random_sparse(d)
    if d.kind == "independent":
        M = np.eye(d.p)
    elif d.kind == "moving_average":
        M = np.eye(d.p)
        band = np.arange(d.p - 1)
        M[band, band + 1] = d.band_value
        M[band + 1, band] = d.band_value
    else:
        M = np.eye(d.p)
        for start in range(0, d.p, d.block_size):
            stop = min(start + d.block_size, d.p)
            M[start:stop, start:stop] = d.block_value
        M[np.diag_indices(d.p)] = 1.0
    lam_min = float(np.linalg.eigvalsh(M)[0])
    if lam_min <= 0:
        M = M + (d.pd_shift_margin - lam_min) * np.eye(d.p)
    if not is_positive_definite(M):
        raise ValueError(
            f"design {d.kind!r} is not positive definite even after the "
            "diagonal shift; adjust its parameters"
        )
    return M


def sample_mvn(Sigma: np.ndarray, n: int, rng: RngStream) -> np.ndarray:
    """Draw ``n`` rows from N(0, Sigma) as ``z L^T`` with ``L`` the Cholesky factor.

    Raises
    ------
    NotPositiveDefiniteError
        If Sigma is not positive definite.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    L = cholesky_pd(Sigma)
    Z = rng.generator().standard_normal((n, Sigma.shape[0]))
    return Z @ L.T


def _proxdist_report(
    truth: np.ndarray, S: np.ndarray, n: int, k: int, cfg: FitConfig
) -> MetricReport:
    """Fit at sparsity level k and score: value metrics from the
    positive definite iterate, support metrics from its projection."""
    c = SparsityConstraint(k=k)
    res = fit(S, c, cfg)
    projected = c.project(res.sigma_hat)
    nnz = _nnz_upper(projected)
    fp, fn = fp_fn_rates(truth, projected, tol=0.0)
    nll = gaussian_nll(res.sigma_hat, S, n)
    aic, bic, ebic = info_criteria(res.sigma_hat, S, n, support_nnz=nnz)
    return MetricReport(
        entropy_loss=entropy_loss(truth, res.sigma_hat),
        rmse=rmse(truth, res.sigma_hat),
        fp_rate=fp,
        fn_rate=fn,
        nll=nll,
        aic=aic,
        bic=bic,
        ebic=ebic,
        nnz=nnz,
    )


@dataclass(frozen=True)
class ReplicateTable:
    """Per-replicate metric reports and their aggregation."""

    design: SimDesign
    n: int
    reps: int
    methods: tuple[str, ...]
    reports: dict[str, list[MetricReport]]
    best_params: dict[str, list[float]]
    metrics: tuple[str, ...] = (
        "entropy_loss",
        "rmse",
        "fp_rate",
        "fn_rate",
        "nll",
        "aic",
        "bic",
        "ebic",
        "nnz",
    )

    def mean(self, method: str, metric: str) -> float:
        vals = self._values(method, metric)
        return float(np.mean(vals)) if vals else float("nan")

    def stderr(self, method: str, metric: str) -> float:
        vals = self._values(method, metric)
        if len(vals) < 2:
            return 0.0
        return float(np.std(vals, ddof=1) / math.sqrt(len(vals)))

    def _values(self, method: str, metric: str) -> list[float]:
        out = []
        for rep in self.reports[method]:
            v = getattr(rep, metric)
            if v is not None and np.isfinite(v):
                out.append(float(v))
        return out

    def summary_rows(self) -> list[dict]:
        rows = []
        for method in self.methods:
            for metric in self.metrics:
                rows.append(
                    {
                        "method": method,
                        "metric": metric,
                        "mean": self.mean(method, metric),
                        "stderr": self.stderr(method, metric),
                        "reps": self.reps,
                        "kind": self.design.kind,
                        "p": self.design.p,
                        "n": self.n,
                        "sparsity_frac": self.design.sparsity_frac,
                        "seed": self.design.seed,
                    }
                )
        return rows

    def to_csv(self, path) -> None:
        rows = self.summary_rows()
        cols = list(rows[0].keys())
        with open(path, "w") as fh:
            fh.write(",".join(cols) + "\n")
            for row in rows:
                fh.write(",".join(_csv_cell(row[c]) for c in cols) + "\n")


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def run_replicates(
    design: SimDesign,
    n: int,
    reps: int,
    methods: Sequence[str] = ("proxdist", "soft", "hard"),
    tuner: CvSpec | None = None,
    cfg: FitConfig = FitConfig(),
    grid_size: int = 40,
) -> ReplicateTable:
    """Run a tuned simulation study and aggregate metrics per method.

    Each replicate draws a fresh ground truth for random_sparse designs
    (deterministic kinds reuse one), samples an n-row dataset, selects
    each method's parameter by cross-validation, refits on the full
    sample covariance, and scores against the truth.  Replicates use
    disjoint streams derived from the design seed and the replicate
    index, so results do not depend on execution order.

    Parameters
    ----------
    tuner : CvSpec, optional
        Protocol override applied verbatim to every method and
        replicate.  Default: 5-fold Frobenius CV on each method's
        standard grid of ``grid_size`` values, folds reseeded per
        replicate.
    """
    if reps < 1:
        raise ValueError(f"reps must be at least 1, got {reps}")
    methods = tuple(methods)
    fixed_truth = None
    if design.kind != "random_sparse":
        fixed_truth = make_design(design)

    def one_replicate(r: int) -> dict:
        if fixed_truth is None:
            truth = make_design(
                replace(design, seed=_derive_seed(design.seed, (r, 0)))
            )
        else:
            truth = fixed_truth
        data = sample_mvn(
            truth, n, RngStream(seed=_derive_seed(design.seed, (r, 1)))
        )
        S = sample_covariance(data)
        cv_seed = _derive_seed(design.seed, (r, 2))
        out = {}
        for method in methods:
            spec = tuner
            if spec is None:
                spec = CvSpec(
                    grid=default_grid(method, S, grid_size), seed=cv_seed
                )
            best, _ = cross_validate(data, method, spec, cfg)
            if method == "proxdist":
                report = _proxdist_report(truth, S, n, int(best), cfg)
            else:
                est = threshold(S, ThresholdSpec(lam=float(best), kind=method))
                report = compute_report(truth, est, S=S, n=n, tol=0.0)
            out[method] = (float(best), report)
        return out

    results = [one_replicate(r) for r in range(reps)]
    reports = {m: [res[m][1] for res in results] for m in methods}
    best_params = {m: [res[m][0] for res in results] for m in methods}
    return ReplicateTable(
        design=design,
        n=n,
        reps=reps,
        methods=methods,
        reports=reports,
        best_params=best_params,
    )

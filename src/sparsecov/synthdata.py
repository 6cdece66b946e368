"""Ground-truth covariance designs, normal sampling, and replicate studies.

Four designs, all with unit diagonal: independent (identity),
moving_average (one off-diagonal band of BAND_VALUE), cliques (diagonal
blocks of BLOCK_SIZE at BLOCK_VALUE), and random_sparse (a fixed count of
random strict-upper entries, magnitudes uniform in MAGNITUDE_RANGE with
random signs).  The deterministic designs are positive definite by
construction; random_sparse redraws until ``matcore.cholesky_pd``
succeeds, which is the package's one definition of positive definite.

Randomness comes from PCG64 seeded through SeedSequence with the stream
id as spawn key, with normal draws from the generator's standard
ziggurat method, so every draw is reproducible from (seed, stream_id)
alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import ClassVar, Sequence

import numpy as np

from .evaluation import MetricReport, compute_report
from .matcore import (
    NotPositiveDefiniteError,
    as_symmetric,
    cholesky_pd,
    sample_covariance,
)
from .proxdist import FitConfig, fit
from .sparsity import SparsityConstraint
from .tuning import METHODS, CvSpec, _estimate, cross_validate, default_grid

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
# moving_average's band and cliques' blocks.  With the unit diagonal,
# moving_average's smallest eigenvalue is 1 - 0.8 cos(pi/(p+1)) > 0.2 and
# cliques' is 0.6 at every p >= 2, so both designs are positive definite.
BAND_VALUE = 0.4
BLOCK_SIZE = 5
BLOCK_VALUE = 0.4
# Range of random_sparse's entry magnitudes; signs are drawn separately.
MAGNITUDE_RANGE = (0.3, 0.6)


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
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


def _random_sparse(d: SimDesign) -> np.ndarray:
    rng = RngStream(d.seed).generator()
    n_upper = d.p * (d.p - 1) // 2
    m = math.ceil(d.sparsity_frac * n_upper)
    iu = np.triu_indices(d.p, k=1)
    lo, hi = MAGNITUDE_RANGE
    for _ in range(MAX_REDRAWS):
        M = np.eye(d.p)
        sel = rng.choice(n_upper, size=m, replace=False)
        vals = rng.uniform(lo, hi, size=m) * (2 * rng.integers(0, 2, size=m) - 1)
        M[iu[0][sel], iu[1][sel]] = vals
        M[iu[1][sel], iu[0][sel]] = vals
        # M is exactly symmetric, since both triangles hold the same vals
        try:
            cholesky_pd(M)
        except NotPositiveDefiniteError:
            continue
        return M
    raise ValueError(
        f"no positive definite draw in {MAX_REDRAWS} attempts; "
        "reduce sparsity_frac"
    )


def make_design(d: SimDesign) -> np.ndarray:
    """Construct the ground-truth covariance matrix for a design.

    Every design has unit diagonal and is positive definite: the
    deterministic kinds by construction, random_sparse by redrawing
    until ``cholesky_pd`` succeeds, which is the package's one
    definition of positive definite.

    Raises
    ------
    ValueError
        If random_sparse finds no positive definite draw.
    """
    if d.kind == "random_sparse":
        return _random_sparse(d)
    M = np.eye(d.p)
    if d.kind == "moving_average":
        band = np.arange(d.p - 1)
        M[band, band + 1] = BAND_VALUE
        M[band + 1, band] = BAND_VALUE
    elif d.kind == "cliques":
        for start in range(0, d.p, BLOCK_SIZE):
            stop = min(start + BLOCK_SIZE, d.p)
            M[start:stop, start:stop] = BLOCK_VALUE
        M[np.diag_indices(d.p)] = 1.0
    return M


def sample_mvn(Sigma: np.ndarray, n: int, rng: RngStream) -> np.ndarray:
    """Draw ``n`` rows from N(0, Sigma) as ``z L^T`` with ``L`` the Cholesky factor.

    Raises
    ------
    ValueError
        If Sigma is not a finite symmetric matrix.
    NotPositiveDefiniteError
        If Sigma is not positive definite.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    L = cholesky_pd(as_symmetric(Sigma))
    Z = rng.generator().standard_normal((n, Sigma.shape[0]))
    return Z @ L.T


@dataclass(frozen=True)
class ReplicateTable:
    """Per-replicate metric reports and their aggregation."""

    design: SimDesign
    n: int
    reps: int
    methods: tuple[str, ...]
    reports: dict[str, list[MetricReport]]
    best_params: dict[str, list[float]]
    metrics: ClassVar[tuple[str, ...]] = tuple(f.name for f in fields(MetricReport))

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
    methods: Sequence[str] = METHODS,
    cfg: FitConfig = FitConfig(),
    grid_size: int = 40,
) -> ReplicateTable:
    """Run a tuned simulation study and aggregate metrics per method.

    Each replicate draws a fresh ground truth for random_sparse designs
    (deterministic kinds reuse one), samples an n-row dataset, selects
    each method's parameter by cross-validation, refits on the full
    sample covariance, and scores against the truth.  Replicates use
    disjoint streams derived from the design seed and the replicate
    index, so results do not depend on execution order.  Each method is
    tuned by 5-fold Frobenius CV on its standard grid of ``grid_size``
    values, with the folds reseeded per replicate.
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
            spec = CvSpec(grid=default_grid(method, S, grid_size), seed=cv_seed)
            best, _ = cross_validate(data, method, spec, cfg)
            if method == "proxdist":
                # this module's fit, not tuning's, so that benchmark/workloads.py
                # can wrap the refits apart from the cross-validation cells
                res = fit(S, SparsityConstraint(k=int(best)), cfg)
                est, support = res.sigma_hat, res.support
            else:
                est, support = _estimate(method, S, best, cfg)
            report = compute_report(truth, est, S=S, n=n, support=support)
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

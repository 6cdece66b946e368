"""The benchmark's workloads: their inputs, one round of operations, and checks.

A round is the unit a run repeats: the same operations on the same
inputs, so every round attempts and fails the same number of operations.
An operation is one fit, or one cross-validation cell or refit.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

import sparsecov
from sparsecov import proxdist, synthdata, tuning

import checks

FIT_CFG = proxdist.FitConfig()


def derive_seed(seed: int, key: tuple[int, ...]) -> int:
    """A replicate's stream seed as ``run_replicates`` derives it: SeedSequence(seed, spawn_key=key)."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return int(seq.generate_state(1, np.uint64)[0])


@dataclass
class Case:
    """One fit: sample covariance ``S``, sparsity level ``k``, and the truth behind ``S``."""

    S: np.ndarray
    k: int
    truth: np.ndarray


@dataclass
class Outcome:
    """What a round produced, reduced to what the checks and metrics read."""

    attempted: int
    failed: int
    estimates: list = field(default_factory=list)  # (FitResult, Case) of fits that did not fail
    fingerprint: str = ""  # compared across rounds for bit-identical results
    problems: list = field(default_factory=list)


def _fingerprint(results) -> str:
    return "|".join(
        f"{r.sigma_hat.tobytes().hex()}:{r.objective_trace!r}:{r.rho_trace!r}" for r in results
    )


def _estimate_problems(result, case: Case) -> list[str]:
    return [f"k={case.k}: {p}" for p in checks.fit_problems(result, case.S, case.k)]


class FitWorkload:
    """Plain ``fit`` calls on fixed cases."""

    def __init__(self, name: str, build):
        self.name = name
        self._build = build

    def build(self, seed: int) -> list[Case]:
        return self._build(seed)

    def run(self, cases: list[Case], callback=None) -> list:
        out = []
        for case in cases:
            try:
                out.append(proxdist.fit(case.S, sparsecov.SparsityConstraint(case.k), FIT_CFG, callback))
            except Exception as exc:  # a raising fit is a failed operation
                out.append(exc)
        return out

    def outcome(self, cases: list[Case], results: list) -> Outcome:
        o = Outcome(attempted=len(cases), failed=0)
        for case, res in zip(cases, results):
            if isinstance(res, Exception) or checks.fit_failed(res, FIT_CFG.max_outer):
                o.failed += 1
                continue
            o.estimates.append((res, case))
            o.problems += _estimate_problems(res, case)
        o.fingerprint = _fingerprint(r for r in results if not isinstance(r, Exception))
        return o


def _moving_average_p200(seed: int) -> list[Case]:
    # criterion-11 design: banded truth, n = 500, k = 2% of the pairs
    p, n = 200, 500
    truth = synthdata.make_design(synthdata.SimDesign(kind="moving_average", p=p))
    data = synthdata.sample_mvn(truth, n, synthdata.RngStream(seed=seed, stream_id=p))
    S = sparsecov.sample_covariance(data)
    return [Case(S, round(0.02 * p * (p - 1) / 2), truth)]


RANKDEF_SEED = 0


def _rank_deficient(seed: int) -> list[Case]:
    # p > n with the automatic ridge.  Fixed inputs: the k = 398 fit stalls
    # (kept as a failing operation), and the k = 100 fit's entropy loss
    # ranges from 91 to 15158 over seeds 1-12, so a seeded draw would not
    # give a steady figure.
    design = synthdata.SimDesign(kind="random_sparse", p=200, sparsity_frac=0.005, seed=RANKDEF_SEED)
    truth = synthdata.make_design(design)
    data = synthdata.sample_mvn(truth, 80, synthdata.RngStream(seed=RANKDEF_SEED, stream_id=1))
    S = sparsecov.sample_covariance(data)
    return [Case(S, 100, truth), Case(S, 398, truth)]


@dataclass
class StudyInputs:
    design: object
    n: int
    reps: int
    methods: tuple
    grid_size: int
    folds: int
    replicates: list  # per replicate: (truth, data, fold seed)


class Recorder:
    """Keeps what ``run_replicates`` does not return: each cell fit's verdict,
    the refits and the cross-validation tables.

    Installed over the ``fit`` and ``cross_validate`` names that ``tuning``
    and ``synthdata`` bind; the verdict costs one Cholesky of a p = 20
    matrix per fit.  ``callback`` is passed to every fit.
    """

    def __init__(self, callback=None):
        self.callback = callback
        self.cell_failed = 0
        self.refits: list = []
        self.tables: list = []

    @contextmanager
    def installed(self):
        cell_fit, refit, cv = tuning.fit, synthdata.fit, synthdata.cross_validate

        def record_cell(S, c, cfg=FIT_CFG, callback=None):
            res = cell_fit(S, c, cfg, callback or self.callback)
            self.cell_failed += checks.fit_failed(res, cfg.max_outer)
            return res

        def record_refit(S, c, cfg=FIT_CFG, callback=None):
            res = refit(S, c, cfg, callback or self.callback)
            self.refits.append((res, S, c.k))
            return res

        def record_cv(data, method, spec, *args, **kwargs):
            best, table = cv(data, method, spec, *args, **kwargs)
            self.tables.append((method, spec, best, table))
            return best, table

        tuning.fit, synthdata.fit, synthdata.cross_validate = record_cell, record_refit, record_cv
        try:
            yield self
        finally:
            tuning.fit, synthdata.fit, synthdata.cross_validate = cell_fit, refit, cv


class StudyWorkload:
    """The tuned replicate study: ``run_replicates`` with CV over three methods."""

    name = "cv_study"
    # criterion-6 instance.  Fixed inputs: over seeds 2025 and 0-5 one
    # replicate took 11.3-16.9 s and its entropy loss ranged 0.21-0.70,
    # wider than any bound the benchmark may set.
    SEED = 2025
    # 10-point grids keep a round near 3 s, so a run times several rounds
    # and reports their median; one 40-point round took 11-15 s.
    GRID_SIZE = 10

    def build(self, seed: int) -> StudyInputs:
        design = synthdata.SimDesign(kind="random_sparse", p=20, sparsity_frac=0.02, seed=self.SEED)
        n, reps = 100, 1
        replicates = []
        for r in range(reps):
            truth = synthdata.make_design(replace(design, seed=derive_seed(design.seed, (r, 0))))
            data = synthdata.sample_mvn(
                truth, n, synthdata.RngStream(seed=derive_seed(design.seed, (r, 1)))
            )
            replicates.append((truth, data, derive_seed(design.seed, (r, 2))))
        return StudyInputs(design, n, reps, ("proxdist", "soft", "hard"), self.GRID_SIZE, 5, replicates)

    def run(self, inp: StudyInputs, callback=None):
        recorder = Recorder(callback)
        with recorder.installed(), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                table = synthdata.run_replicates(
                    inp.design, inp.n, inp.reps, inp.methods, cfg=FIT_CFG, grid_size=inp.grid_size
                )
            except Exception as exc:  # the whole study failed
                table = exc
        raised_cells = sum("failed at parameter" in str(w.message) for w in caught)
        return table, recorder, raised_cells

    def outcome(self, inp: StudyInputs, produced) -> Outcome:
        table, rec, raised_cells = produced
        cells = inp.reps * len(inp.methods) * inp.grid_size * inp.folds
        refits = inp.reps * len(inp.methods)
        o = Outcome(attempted=cells + refits, failed=0)
        if isinstance(table, Exception):
            o.failed = o.attempted
            return o
        o.failed = raised_cells + rec.cell_failed
        for r, (res, S, k) in enumerate(rec.refits):
            if checks.fit_failed(res, FIT_CFG.max_outer):
                o.failed += 1
                continue
            truth = inp.replicates[r][0]
            o.estimates.append((res, Case(S, k, truth)))
            o.problems += _estimate_problems(res, Case(S, k, truth))
            reported = table.reports["proxdist"][r].entropy_loss
            own = checks.entropy_loss(truth, res.sigma_hat)
            if not abs(reported - own) <= 1e-9 * max(abs(own), 1.0):
                o.problems.append(f"replicate {r}: entropy loss {reported!r} differs from {own!r}")
        o.problems += self._table_problems(inp, rec.tables)
        o.fingerprint = repr((table.best_params, table.reports, rec.tables)) + _fingerprint(
            res for res, _, _ in rec.refits
        )
        return o

    def _table_problems(self, inp: StudyInputs, tables: list) -> list[str]:
        """Every CV cell finite; the selected row's loss recomputed from the fold split."""
        problems = []
        if len(tables) != inp.reps * len(inp.methods):
            return [f"recorded {len(tables)} cross-validation tables"]
        for i, (method, spec, best, rows) in enumerate(tables):
            r = i // len(inp.methods)
            if not all(np.isfinite(row.mean_loss) for row in rows):
                problems.append(f"replicate {r} {method}: a CV cell is not finite")
                continue
            _, data, fold_seed = inp.replicates[r]
            row = next(row for row in rows if row.param == float(best))
            own = heldout_frobenius(data, method, float(best), spec.folds, fold_seed)
            if not abs(row.mean_loss - own) <= 1e-9 * max(abs(own), 1.0):
                problems.append(
                    f"replicate {r} {method}: held-out loss {row.mean_loss!r} at {best} "
                    f"differs from {own!r}"
                )
        return problems


def fold_split(n: int, folds: int, seed: int) -> list[np.ndarray]:
    """The seeded k-fold partition as ``tuning.kfold_split`` draws it, written out again."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    return np.array_split(rng.permutation(n), folds)


def heldout_frobenius(data: np.ndarray, method: str, param: float, folds: int, seed: int) -> float:
    """Mean over folds of ``||estimate(train) - S(test)||_F`` at one grid value."""
    losses = []
    for test_idx in fold_split(data.shape[0], folds, seed):
        mask = np.ones(data.shape[0], dtype=bool)
        mask[test_idx] = False
        S_train = sparsecov.sample_covariance(data[mask])
        S_test = sparsecov.sample_covariance(data[test_idx])
        if method == "proxdist":
            est = proxdist.fit(S_train, sparsecov.SparsityConstraint(int(round(param))), FIT_CFG).sigma_hat
        else:
            off = S_train - np.diag(np.diag(S_train))
            if method == "soft":
                off = np.sign(off) * np.maximum(np.abs(off) - param, 0.0)
            else:
                off = np.where(np.abs(off) > param, off, 0.0)
            est = off + np.diag(np.diag(S_train))
        losses.append(float(np.linalg.norm(est - S_test)))
    return float(np.mean(losses))


WORKLOADS = {
    w.name: w
    for w in (
        FitWorkload("fit_p200", _moving_average_p200),
        FitWorkload("fit_rankdef", _rank_deficient),
        StudyWorkload(),
    )
}

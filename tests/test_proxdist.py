import gc
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import sparsecov as sc
from sparsecov import proxdist, sylvester, synthdata, tuning
from sparsecov.proxdist import LOCK_STEPS, RHO0, RHO_GROWTH, STATIONARITY_RTOL


def _sample_problem(p, n, seed, frac=0.05):
    design = sc.SimDesign(kind="random_sparse", p=p, sparsity_frac=frac, seed=seed)
    truth = sc.make_design(design)
    data = sc.sample_mvn(truth, n, sc.RngStream(seed=seed, stream_id=1))
    return sc.sample_covariance(data)


KERNELS = ("dense", "sparse")
# each mode on each Hessian product kernel; the dense cases keep the ids
# the tests had before the sparse kernel
MODES_AND_KERNELS = pytest.mark.parametrize(
    "mode, kernel",
    [
        pytest.param("covariance", "dense", id="covariance"),
        pytest.param("correlation", "dense", id="correlation"),
        pytest.param("covariance", "sparse", id="covariance-sparse"),
        pytest.param("correlation", "sparse", id="correlation-sparse"),
    ],
)


def _schedule_length(rhos):
    # the schedule grows rho at every step and the finish repeats its last
    # rho, so the first repeated rho ends the schedule: the benchmark
    # tracer's phase split
    return next((i for i in range(1, len(rhos)) if rhos[i] == rhos[i - 1]), len(rhos))


def _use_kernel(monkeypatch, kernel):
    # every support takes the named Hessian product kernel
    ratio = 0.0 if kernel == "sparse" else math.inf
    monkeypatch.setattr(proxdist, "SPARSE_PRODUCT_RATIO", ratio)


def test_config_validation():
    for delta in (-1e-3, math.inf, math.nan):
        with pytest.raises(ValueError, match="ridge_delta"):
            sc.FitConfig(ridge_delta=delta)


def test_config_budgets_are_read_only_constants():
    # the ridge is the one field; the benchmark reads the budgets off an
    # instance
    with pytest.raises(TypeError):
        sc.FitConfig(max_outer=3)
    with pytest.raises(TypeError):
        sc.FitConfig(max_halvings=3)
    cfg = sc.FitConfig()
    assert cfg.max_outer == 500
    assert cfg.max_halvings == 32


def test_objective_known_value():
    Sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
    S = np.eye(2)
    # ln det + tr(inv S) = ln 0.75 + 8/3; penalty (2/2) * 2 * 0.25
    expected = math.log(0.75) + 8.0 / 3.0 + 0.5
    got = sc.objective(Sigma, S, sc.SparsityConstraint(0), rho=2.0)
    assert got == pytest.approx(expected, abs=1e-12)


def test_objective_rejects_negative_rho():
    with pytest.raises(ValueError):
        sc.objective(np.eye(2), np.eye(2), sc.SparsityConstraint(0), rho=-1.0)


def test_loss_minimized_at_sample_covariance():
    S = _sample_problem(4, 40, 0)
    at_S = sc.negative_loglik_loss(S, S)
    assert at_S == pytest.approx(sc.log_det_pd(S) + 4.0, abs=1e-10)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((4, 4))
        other = B @ B.T + np.eye(4)
        assert sc.negative_loglik_loss(other, S) >= at_S - 1e-10


def test_gradient_zero_at_unconstrained_stationary_point():
    # Sigma = Sigma_k = S with a full constraint set: every term cancels
    S = _sample_problem(3, 30, 1)
    G = sc.surrogate_gradient(S, S, S, sc.SparsityConstraint(3), rho=2.0)
    assert np.max(np.abs(G)) <= 1e-12


def test_gradient_known_value():
    Sigma_k = 2.0 * np.eye(2)
    G = sc.surrogate_gradient(
        Sigma_k, Sigma_k, np.eye(2), sc.SparsityConstraint(0), rho=1.0
    )
    assert_allclose(G, 0.25 * np.eye(2), atol=1e-14)


def test_fit_records_a_rejected_schedule_step():
    # diagonal S is its own optimum on every support: after one accepted
    # step no candidate lowers the objective, so the schedule records a
    # rejected step that keeps the iterate and still grows rho
    events = []
    result = sc.fit(np.diag([2.0, 5.0, 1.0]), sc.SparsityConstraint(1), callback=events.append)
    rejected = [i for i, ev in enumerate(events) if not ev["accepted"]]
    assert rejected and rejected[0] > 0
    for i in rejected:
        ev, prev = events[i], events[i - 1]
        assert ev["halvings"] == 0
        assert np.array_equal(ev["sigma"], prev["sigma"])
        assert ev["objective"] == ev["objective_before"]
        assert ev["rho"] == prev["rho"] * RHO_GROWTH
    assert result.total_halvings == sum(ev["halvings"] for ev in events)
    assert result.converged


ENTRY_POINTS = {
    "objective": lambda A, B, rho: sc.objective(A, B, sc.SparsityConstraint(1), rho),
    "surrogate_gradient": lambda A, B, rho: sc.surrogate_gradient(
        A, B, np.eye(B.shape[0]), sc.SparsityConstraint(1), rho
    ),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_points_reject_negative_rho(name):
    with pytest.raises(ValueError, match="rho"):
        ENTRY_POINTS[name](np.eye(3), np.eye(3), -1.0)


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_points_reject_shape_mismatch(name):
    with pytest.raises(ValueError, match="shape"):
        ENTRY_POINTS[name](np.eye(3), np.eye(2), 1.0)


def test_loss_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        sc.negative_loglik_loss(np.eye(3), np.eye(2))


def test_fit_diagonal_limit():
    # with k = 0 the finish lands on the diagonal support, whose
    # likelihood maximizer is Diag(S) itself
    S = _sample_problem(5, 50, 3)
    result = sc.fit(S, sc.SparsityConstraint(0))
    assert result.converged
    assert_allclose(result.sigma_hat, np.diag(np.diag(S)), atol=1e-6)
    assert result.support.sum() == 5
    assert result.final_penalty <= 1e-12


def test_fit_unconstrained_recovers_sample_covariance():
    S = _sample_problem(4, 80, 4)
    result = sc.fit(S, sc.SparsityConstraint(6))
    rel = np.linalg.norm(result.sigma_hat - S) / np.linalg.norm(S)
    assert rel <= 1e-3


def test_fit_result_traces_consistent():
    S = _sample_problem(6, 60, 5)
    result = sc.fit(S, sc.SparsityConstraint(4))
    assert result.iterations == len(result.objective_trace)
    assert result.iterations == len(result.rho_trace)
    assert result.rho_trace[0] == RHO0
    ratios = np.array(result.rho_trace[1:]) / np.array(result.rho_trace[:-1])
    assert np.all(ratios <= RHO_GROWTH + 1e-12)
    assert result.total_halvings >= 0
    # support counts the projected pattern: k pairs at most, plus diagonal
    off = result.support.sum() - S.shape[0]
    assert off <= 2 * 4


def test_fit_callback_contract():
    S = _sample_problem(5, 50, 6)
    events = []
    sc.fit(S, sc.SparsityConstraint(2), callback=events.append)
    assert [ev["iteration"] for ev in events] == list(range(1, len(events) + 1))
    rhos = [ev["rho"] for ev in events]
    assert all(b >= a for a, b in zip(rhos, rhos[1:]))
    for ev in events:
        assert set(ev) == {
            "iteration",
            "rho",
            "sigma",
            "objective_before",
            "objective",
            "halvings",
            "accepted",
            "cg_products",
        }
    # the schedule raises rho at every step and the refinement repeats it;
    # only refinement steps make Hessian products
    refining = [False] + [b == a for a, b in zip(rhos, rhos[1:])]
    for ev, refine in zip(events, refining):
        assert (ev["cg_products"] >= 1) if refine else (ev["cg_products"] == 0)


def test_objective_trace_ends_at_estimate():
    # k = all pairs but one: the refinement takes Newton steps after the
    # schedule, each traced, so the trace must end at the returned estimate
    S = _sample_problem(20, 40, 0)
    c = sc.SparsityConstraint(189)
    result = sc.fit(S, c)
    S_used = S + result.ridge_delta * np.eye(20)
    at_estimate = sc.objective(result.sigma_hat, S_used, c, result.rho_trace[-1])
    assert result.objective_trace[-1] == pytest.approx(at_estimate, rel=1e-12)
    assert result.iterations == len(result.objective_trace)


def _correlation(S):
    # exactly symmetric, with an exactly unit diagonal
    scale = 1.0 / np.sqrt(np.diag(S))
    R = S * np.outer(scale, scale)
    np.fill_diagonal(R, 1.0)
    return R


def _no_schedule_step(monkeypatch):
    def refused(*args):
        raise AssertionError("an MM step was taken")

    monkeypatch.setattr(proxdist, "_solve", refused)


END_PROBLEMS = {
    "full-rank": (lambda: _sample_problem(20, 100, 3), sc.FitConfig()),
    "auto-ridge": (lambda: _sample_problem(20, 10, 3), sc.FitConfig()),
    "explicit-ridge": (lambda: _sample_problem(20, 100, 3), sc.FitConfig(ridge_delta=0.5)),
}


END_CASES = [
    (mode, case, end)
    for mode in ("covariance", "correlation")
    for case in sorted(END_PROBLEMS)
    for end in ("diagonal", "every-pair")
    # R + delta I is no correlation matrix, so its fit on every pair has no
    # closed form (test_ridged_correlation_fit_on_every_pair)
    if mode == "covariance" or case == "full-rank" or end == "diagonal"
]


@pytest.mark.parametrize("mode, case, end", END_CASES)
def test_fit_at_either_end_of_k_takes_no_schedule_step(monkeypatch, mode, case, end):
    # k = 0 leaves the diagonal as the one support and k = p(p-1)/2 every
    # pair, so there is no support for the schedule to pick: the fit starts
    # at P(S_used), records it once at RHO0, and the finish's gradient test
    # certifies it, Diag(S_used) or S_used (I or R) exactly
    make, cfg = END_PROBLEMS[case]
    S = make()
    if mode == "correlation":
        S = _correlation(S)
    p = S.shape[0]
    c = sc.SparsityConstraint(0 if end == "diagonal" else p * (p - 1) // 2, mode)
    _no_schedule_step(monkeypatch)
    events = []
    result = sc.fit(S, c, cfg, callback=events.append)
    assert (result.ridge_delta > 0.0) == (case != "full-rank")
    S_used = S.copy()
    S_used[np.diag_indices(p)] += result.ridge_delta
    if end == "diagonal":
        expected = np.eye(p) if mode == "correlation" else np.diag(np.diag(S_used))
    else:
        expected = S_used
    assert np.array_equal(result.sigma_hat, expected)
    assert result.rho_trace == [RHO0] and result.iterations == 1
    [event] = events
    assert not event["accepted"] and event["halvings"] == 0
    assert event["objective"] == event["objective_before"] == result.objective_trace[-1]
    assert result.converged
    assert result.final_penalty == 0.0
    assert np.array_equal(result.support, expected != 0.0)
    at_estimate = sc.objective(result.sigma_hat, S_used, c, result.rho_trace[-1])
    assert result.objective_trace[-1] == at_estimate


@pytest.mark.parametrize("case", ["auto-ridge", "explicit-ridge"])
def test_ridged_correlation_fit_on_every_pair(monkeypatch, case):
    # P(R + delta I) = R is singular where R needed the ridge, so the start
    # is R + delta I scaled to unit diagonal, which is PD; the finish then
    # takes Newton steps at RHO0 to the unit-diagonal fit
    make, cfg = END_PROBLEMS[case]
    R = _correlation(make())
    c = sc.SparsityConstraint(190, "correlation")
    _no_schedule_step(monkeypatch)
    events = []
    result = sc.fit(R, c, cfg, callback=events.append)
    assert result.ridge_delta > 0.0
    assert sc.is_positive_definite(result.sigma_hat)
    assert np.array_equal(np.diag(result.sigma_hat), np.ones(20))
    assert result.converged and result.final_penalty == 0.0
    assert set(result.rho_trace) == {RHO0}
    assert not events[0]["accepted"]
    assert all(ev["accepted"] and ev["cg_products"] for ev in events[1:])
    assert len(events) <= 10
    R_used = R + result.ridge_delta * np.eye(20)
    at_estimate = sc.objective(result.sigma_hat, R_used, c, result.rho_trace[-1])
    assert result.objective_trace[-1] == pytest.approx(at_estimate, rel=1e-12)


def test_fit_reports_exact_objectives_with_one_eigh_per_step(monkeypatch):
    # the loop carries each iterate's loss and projection instead of
    # recomputing them; what it reports must still be the public objective,
    # a step must cost one eigendecomposition and each candidate one
    # Cholesky factorization
    S = _sample_problem(20, 100, 11)
    c = sc.SparsityConstraint(12)
    calls = []
    factorizations = []
    decompose = sylvester.spectral_decompose
    cholesky = proxdist.cholesky_pd

    def counted(M):
        calls.append(M.shape)
        return decompose(M)

    def counted_cholesky(M):
        factorizations.append(M.shape)
        return cholesky(M)

    monkeypatch.setattr(sylvester, "spectral_decompose", counted)
    monkeypatch.setattr(proxdist, "cholesky_pd", counted_cholesky)
    events = []
    result = sc.fit(S, c, callback=events.append)
    assert result.ridge_delta == 0.0
    assert len(events) > 10
    candidates = sum(
        ev["halvings"] + 1 if ev["accepted"] else sc.FitConfig().max_halvings + 1
        for ev in events
    )
    # one more each for the diagonal start and the finish's start, the
    # projection of the schedule's last iterate
    assert len(factorizations) == candidates + 2
    for ev in events:
        expected = sc.objective(ev["sigma"], S, c, ev["rho"])
        assert ev["objective"] == pytest.approx(expected, rel=1e-12)
    assert len(calls) <= len(events) + 1


def test_finish_reuses_a_schedule_iterate_already_on_the_sparse_set(monkeypatch):
    # five 4 x 4 diagonal blocks hold k = 30 pairs, and every schedule
    # iterate is block diagonal too, so it is its own projection: the
    # finish starts from the schedule's last iterate without factoring it
    # again, one factorization per line-search candidate and one for the
    # diagonal start
    blocks = np.kron(np.eye(5, dtype=bool), np.ones((4, 4), dtype=bool))
    S = np.where(blocks, _sample_problem(20, 40, 0), 0.0)
    factorizations = []
    cholesky = proxdist.cholesky_pd

    def counted_cholesky(M):
        factorizations.append(M.shape)
        return cholesky(M)

    monkeypatch.setattr(proxdist, "cholesky_pd", counted_cholesky)
    events = []
    result = sc.fit(S, sc.SparsityConstraint(30), callback=events.append)
    schedule = _schedule_length([ev["rho"] for ev in events])
    assert result.converged and result.ridge_delta == 0.0
    assert result.final_penalty == 0.0
    assert schedule < len(events)
    assert all(ev["accepted"] for ev in events)
    assert events[schedule]["objective_before"] == events[schedule - 1]["objective"]
    candidates = sum(ev["halvings"] + 1 for ev in events)
    assert len(factorizations) == candidates + 1


def test_fit_respects_max_outer(monkeypatch):
    monkeypatch.setattr(sc.FitConfig, "max_outer", 3)
    S = _sample_problem(6, 60, 7)
    result = sc.fit(S, sc.SparsityConstraint(3))
    assert result.iterations == 3
    assert not result.converged
    # the schedule used the whole budget, so no finish put the estimate on
    # the sparse set: a report scores its own dense nonzeros, not the
    # projection's 3 pairs in FitResult.support
    assert result.final_penalty > 0.0
    assert np.count_nonzero(np.triu(result.support, 1)) == 3
    dense = np.count_nonzero(np.triu(result.sigma_hat, 1))
    assert dense > 3
    assert sc.compute_report(S, result.sigma_hat).nnz == dense


@pytest.mark.parametrize("mode", ["covariance", "correlation"])
@pytest.mark.parametrize("n", [60, 8])  # full rank, and p > n with the auto ridge
def test_finished_fit_is_its_own_support(mode, n):
    # a fit whose finish ran ends on the sparse set, so FitResult.support
    # is the estimate's exact nonzeros, the support every scorer counts;
    # test_fit_at_either_end_of_k_takes_no_schedule_step checks the same
    # at k = 0 and k = p(p-1)/2
    S = _sample_problem(12, n, 4)
    if mode == "correlation":
        S = _correlation(S)
    result = sc.fit(S, sc.SparsityConstraint(24, mode))
    assert (result.ridge_delta > 0.0) == (n < 12)
    assert result.final_penalty == 0.0
    assert np.array_equal(result.support, result.sigma_hat != 0.0)
    assert np.count_nonzero(np.triu(result.sigma_hat, 1)) == 24


def test_refinement_shares_the_iteration_budget(monkeypatch):
    # with max_outer equal to the schedule's length the schedule runs in
    # full and leaves the refinement no steps
    S = _sample_problem(20, 100, 11)
    c = sc.SparsityConstraint(12)
    full = sc.fit(S, c)
    rhos = full.rho_trace
    schedule = _schedule_length(rhos)
    monkeypatch.setattr(sc.FitConfig, "max_outer", schedule)
    capped = sc.fit(S, c)
    assert capped.iterations == schedule
    assert capped.objective_trace == full.objective_trace[:schedule]


def _criterion6_training_fold():
    # one training fold of the criterion-6 design at p = 20
    design = sc.SimDesign(kind="random_sparse", p=20, sparsity_frac=0.02, seed=2025)
    data = sc.sample_mvn(sc.make_design(design), 100, sc.RngStream(seed=2025, stream_id=1))
    return sc.sample_covariance(data[:80])


def test_each_step_forms_a_s_a_once(monkeypatch):
    # A S A is formed once per schedule step, for c_k, and once per gradient
    # test of the finish, whose Newton direction reads that same buffer; a
    # finish left no budget builds no free entries
    asa, free_entries = proxdist._asa, proxdist._FreeEntries
    formed, built = [], []

    def counted_asa(A, S):
        formed.append(1)
        return asa(A, S)

    def counted_free_entries(mask):
        built.append(1)
        return free_entries(mask)

    monkeypatch.setattr(proxdist, "_asa", counted_asa)
    monkeypatch.setattr(proxdist, "_FreeEntries", counted_free_entries)
    fold = _criterion6_training_fold()
    for S, c in ((fold, sc.SparsityConstraint(21)), _bench_instance()):
        formed.clear()
        built.clear()
        events = []
        result = sc.fit(S, c, callback=events.append)
        assert result.converged
        rhos = [ev["rho"] for ev in events]
        schedule = _schedule_length(rhos)
        newton_steps = sum(1 for ev in events if ev["cg_products"])
        # each accepted Newton step, and the gradient test that ends the fit
        assert newton_steps >= 1
        assert len(formed) == schedule + newton_steps + 1
        assert len(built) == 1
        with monkeypatch.context() as m:
            m.setattr(sc.FitConfig, "max_outer", schedule)
            formed.clear()
            built.clear()
            capped = sc.fit(S, c)
        assert capped.iterations == schedule
        assert len(formed) == schedule
        assert not built
    # the surrogate's gradient forms A S A once, and its curvature term
    # A (Sigma - Sigma_k) A through the same routine
    formed.clear()
    sc.surrogate_gradient(fold, fold, fold, sc.SparsityConstraint(21), 1.0)
    assert len(formed) == 2


@pytest.mark.parametrize("mode", ["covariance", "correlation"])
def test_schedule_forms_c_k_from_the_support_bit_for_bit(monkeypatch, mode):
    # each MM step's c_k, rho Sigma added to A S A on the support of P(Sigma)
    # alone, is A S A + rho P(Sigma) byte for byte, A formed again from the
    # step's Sigma; on a full-rank fold and on a p > n fit whose line
    # searches reject candidates
    solve = proxdist._solve
    steps = []

    def recorded(sigma, c_k, rho):
        steps.append((sigma, c_k.copy(), rho))
        return solve(sigma, c_k, rho)

    monkeypatch.setattr(proxdist, "_solve", recorded)
    for S, k in ((_criterion6_training_fold(), 21), (_sample_problem(57, 20, 1, frac=0.01), 30)):
        if mode == "correlation":
            d = np.sqrt(np.diag(S))
            S = S / np.outer(d, d)
            np.fill_diagonal(S, 1.0)
        c = sc.SparsityConstraint(k, mode)
        steps.clear()
        sc.fit(S, c)
        S_used = proxdist._resolve_ridge(S, sc.FitConfig())[0]
        assert len(steps) >= LOCK_STEPS
        for sigma, c_k, rho in steps:
            A = proxdist._inverse_and_loss(sigma, S_used)[0]
            expected = proxdist._asa(A, S_used) + rho * sc.project(sigma, c)
            assert c_k.tobytes() == expected.tobytes()


def _bench_instance():
    # the criterion-11 instance at p = 200
    p = 200
    truth = sc.make_design(sc.SimDesign(kind="moving_average", p=p, seed=0))
    data = sc.sample_mvn(truth, 500, sc.RngStream(seed=0, stream_id=p))
    return sc.sample_covariance(data), sc.SparsityConstraint(398)


def _assert_finished_on_support(result, S, k, mode="covariance"):
    # exactly on the sparse set, and stationary for the loss over the
    # support, the diagonal included in covariance mode
    Sigma, mask = result.sigma_hat, result.support
    assert result.converged
    assert result.final_penalty == 0.0
    assert np.all(Sigma[~mask] == 0.0)
    assert np.count_nonzero(np.triu(Sigma, 1)) == np.count_nonzero(np.triu(mask, 1)) == k
    A = np.linalg.inv(Sigma)
    S_used = S + result.ridge_delta * np.eye(S.shape[0])
    G = mask * (A - A @ S_used @ A)
    if mode == "correlation":
        np.fill_diagonal(G, 0.0)
    assert np.linalg.norm(G) <= STATIONARITY_RTOL * np.linalg.norm(A)


def test_fit_finishes_on_the_support_of_the_bench_instance():
    # the default fit finishes at rho = inf: the maximum likelihood
    # estimate with the schedule's last support, k pairs exactly
    S, c = _bench_instance()
    result = sc.fit(S, c)
    _assert_finished_on_support(result, S, c.k)
    rhos = result.rho_trace
    schedule = _schedule_length(rhos)
    assert schedule <= 40
    assert result.objective_trace[-1] == sc.negative_loglik_loss(result.sigma_hat, S)


def _fit_peak_matrices(S, c, callback=None):
    # a fit, and its tracemalloc peak above its start in p x p float64
    # matrices; LAPACK's own workspace is not traced.  The sparse Hessian
    # kernel imports scipy.sparse on first use, so it is imported first
    import scipy.sparse  # noqa: F401

    gc.collect()
    tracemalloc.start()
    try:
        result = sc.fit(S, c, callback=callback)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak / S.nbytes


def test_fit_working_set_full_rank():
    # the criterion-11 instance at p = 200, 5.6 p x p matrices: the finish's
    # Hessian products hold Sigma, its inverse, N, W^T and the gathered rows,
    # and the schedule's line search peaks just under them with the
    # iterate's sigma, the step direction, and the candidate with its
    # inverse, its support mask and the selection's buffer; each iterate
    # lets go of its inverse and A S A once its step is formed, no iterate
    # holds P(Sigma) dense, and an exactly symmetric S is not copied
    S, c = _bench_instance()
    result, matrices = _fit_peak_matrices(S, c)
    assert result.converged and result.ridge_delta == 0.0
    assert matrices <= 5.93


def test_fit_working_set_p_above_n(monkeypatch):
    # p = 200 > n = 80 with the automatic ridge, the benchmark's
    # rank-deficient k = 100 fit: its schedule's line searches reject
    # candidates at the PD gate and on the descent test, and a rejected
    # candidate goes before the next one is built: 6.3 p x p matrices, one
    # of them the ridged copy of S
    S = _sample_problem(200, 80, 0, frac=0.005)
    steps = []  # the rho of each recorded step
    failed_at = []  # steps recorded when a candidate failed the PD gate
    cholesky = proxdist.cholesky_pd

    def counted_cholesky(M):
        try:
            return cholesky(M)
        except sc.NotPositiveDefiniteError:
            failed_at.append(len(steps))
            raise

    monkeypatch.setattr(proxdist, "cholesky_pd", counted_cholesky)
    result, matrices = _fit_peak_matrices(
        S, sc.SparsityConstraint(100), callback=lambda ev: steps.append(ev["rho"])
    )
    schedule = _schedule_length(steps)
    assert result.ridge_delta > 0.0
    assert any(n < schedule for n in failed_at)
    assert matrices <= 6.65


def test_sparse_kernel_finish_stays_under_the_schedule_peak(monkeypatch):
    # a p = 100 random-sparse fit at k = 100 (m = 200 free entries): the
    # sparse Hessian product's gathered blocks hold at most p^2 / 2 floats,
    # so the finish's peak stays under the schedule's, 5.6 against 6.0
    # p x p matrices.  Blocks of PRODUCT_CHUNK floats alone put it at 8.6,
    # blocks of p^2 floats at 6.6.  Each step's peak is read at its
    # callback, the last finish segment's after the fit
    S = _sample_problem(100, 300, 1, frac=0.005)
    c = sc.SparsityConstraint(100)
    kernels = []
    free_entries = proxdist._FreeEntries

    def recorded_free_entries(mask):
        free = free_entries(mask)
        kernels.append(free.sparse)
        return free

    monkeypatch.setattr(proxdist, "_FreeEntries", recorded_free_entries)
    sc.fit(S, c)  # caches and scipy.sparse's first-use state, untraced
    rhos, peaks = [], []

    def step_peak(ev):
        rhos.append(ev["rho"])
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()

    gc.collect()
    tracemalloc.start()
    try:
        result = sc.fit(S, c, callback=step_peak)
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    schedule = _schedule_length(rhos)
    assert result.converged and kernels == [True, True]
    assert max(peaks[schedule:]) <= max(peaks[:schedule])


def test_finish_makes_no_projection(monkeypatch):
    # every finish iterate is zero off the free entries and has at most k
    # pairs, so it is its own projection: once the free entries are fixed,
    # the fit selects no support and forms no projection, and still reports
    # its estimate's support with a zero penalty
    S, c = _bench_instance()
    calls = []  # per selection or projection: whether the finish had started
    finishing = []
    select, on_support = proxdist._select, proxdist._on_support
    free_entries = proxdist._FreeEntries

    def counted_select(M, c):
        calls.append(bool(finishing))
        return select(M, c)

    def counted_on_support(M, mask, c):
        calls.append(bool(finishing))
        return on_support(M, mask, c)

    def started(mask):
        finishing.append(True)
        return free_entries(mask)

    monkeypatch.setattr(proxdist, "_select", counted_select)
    monkeypatch.setattr(proxdist, "_on_support", counted_on_support)
    monkeypatch.setattr(proxdist, "_FreeEntries", started)
    result = sc.fit(S, c)
    assert finishing and calls and not any(calls)
    assert np.array_equal(result.support, result.sigma_hat != 0.0)
    _assert_finished_on_support(result, S, c.k)


def test_finish_kernel_selection_on_the_benchmark_sizes(monkeypatch):
    # the criterion-11 instance at p = 200 finishes on the sparse product
    # kernel, and a p = 20 cross-validation cell fit, on one training fold
    # of the criterion-6 design, on the dense one
    kernels = []
    newton = proxdist._newton_direction

    def recorded(it, asa, g, g_norm, a_norm, free):
        kernels.append(free.sparse)
        return newton(it, asa, g, g_norm, a_norm, free)

    monkeypatch.setattr(proxdist, "_newton_direction", recorded)
    S, c = _bench_instance()
    sc.fit(S, c)
    assert kernels and all(kernels)
    S_train = _criterion6_training_fold()
    for k in (4, 21):  # the design's 4 pairs, and a cell of the 10-point grid
        kernels.clear()
        sc.fit(S_train, sc.SparsityConstraint(k))
        assert kernels and not any(kernels)


def test_finish_starts_from_the_diagonal_when_the_projection_is_not_pd(monkeypatch):
    # p > n: the projection of the schedule's last iterate is not PD, so the
    # finish starts from Diag(S) and still reaches the support's estimate;
    # the start is the iterate of the finish's first Newton direction
    S = _sample_problem(20, 8, 1, frac=0.01)
    starts, directions_at = [], []
    finish, newton = proxdist._Fit.finish, proxdist._newton_direction

    def recorded(engine, support, budget):
        projection_pd = sc.is_positive_definite(sc.project(engine.it.sigma, engine.c))
        converged = finish(engine, support, budget)
        starts.append((projection_pd, directions_at[0], engine.S))
        return converged

    def recorded_newton(it, *args):
        directions_at.append(it.sigma)
        return newton(it, *args)

    monkeypatch.setattr(proxdist._Fit, "finish", recorded)
    monkeypatch.setattr(proxdist, "_newton_direction", recorded_newton)
    events = []
    result = sc.fit(S, sc.SparsityConstraint(10), callback=events.append)
    assert result.ridge_delta > 0.0
    [(projection_pd, start, S_used)] = starts
    assert not projection_pd
    assert np.array_equal(start, np.diag(np.diag(S_used)))
    first = next(ev for ev in events if ev["cg_products"])
    assert first["objective_before"] == sc.negative_loglik_loss(start, S_used)
    _assert_finished_on_support(result, S, 10)


def test_newton_operator_matches_fd_of_gradient(monkeypatch):
    # the finish's Hessian product on each kernel, the loss alone on the
    # entries P keeps, against central differences of the loss gradient on
    # those entries
    h = 1e-6
    p = 4
    for kernel in KERNELS:
        _use_kernel(monkeypatch, kernel)
        rng = np.random.default_rng(3)
        for mode in ("covariance", "correlation"):
            for _ in range(10):
                B = rng.standard_normal((p, p))
                Sigma = B @ B.T + p * np.eye(p)
                Sigma = (Sigma + Sigma.T) / 2.0
                B = rng.standard_normal((p, p))
                S = B @ B.T + p * np.eye(p)
                c = sc.SparsityConstraint(int(rng.integers(0, p * (p - 1) // 2 + 1)), mode)
                mask = sc.project(Sigma, c) != 0.0
                if mode == "correlation":
                    np.fill_diagonal(mask, False)

                def grad(X):
                    A = np.linalg.inv(X)
                    return A - A @ S @ A

                it = proxdist._Iterate(Sigma, S, c)
                free = proxdist._FreeEntries(mask)
                assert free.sparse == (kernel == "sparse")
                hess = proxdist._Hessian(it, proxdist._asa(it.inv, S), free)
                for _ in range(3):
                    v = rng.standard_normal(free.upper.size)
                    V = free.matrix(v)
                    fd = (grad(Sigma + h * V) - grad(Sigma - h * V)) / (2 * h)
                    error = np.max(np.abs(hess(v) - free.vector(fd)), initial=0.0)
                    assert error <= 1e-5


def _iterate_near_its_optimum(rng, p, mode):
    # a well-conditioned iterate on a random symmetric support, and an S
    # that it nearly fits, so that its Newton solve aims below the gradient
    # test, takes several products even preconditioned and meets no
    # negative curvature; in correlation mode no diagonal entry is free, so
    # rows off the support hold no free entry
    mask = rng.random((p, p)) < 0.05
    mask = mask | mask.T
    np.fill_diagonal(mask, mode == "covariance")
    Sigma = np.where(mask, rng.standard_normal((p, p)), 0.0)
    Sigma = (Sigma + Sigma.T) / 2.0
    Sigma += 1.05 * np.abs(Sigma).sum(axis=1).max() * np.eye(p)
    E = rng.standard_normal((p, p))
    S = Sigma + 1e-7 * (E + E.T)
    return proxdist._Iterate(Sigma, S, sc.SparsityConstraint(0, mode)), S, mask


def _newton_direction_at(it, S, g, free):
    # the finish's Newton direction with what its gradient test forms:
    # A S A, ||G|| and ||A||
    g_norm = math.sqrt(free.inner(g, g))
    a_norm = float(np.linalg.norm(it.inv))
    return proxdist._newton_direction(it, proxdist._asa(it.inv, S), g, g_norm, a_norm, free)


@pytest.mark.parametrize("p", [1, 3, 20, 65])
def test_finish_kernels_match_their_references_bit_for_bit(monkeypatch, p):
    # the finish's free entries found without np.triu, and its inner
    # product, A S A and the dense Hessian product's GEMMs through
    # ndarray.dot, each bit for bit against its np.triu, np.dot, @ or
    # np.matmul form
    _use_kernel(monkeypatch, "dense")
    rng = np.random.default_rng(p)
    S = sc.sample_covariance(rng.standard_normal((3 * p, p)))
    mask = rng.random((p, p)) < 0.3
    mask = mask | mask.T | np.eye(p, dtype=bool)
    free = proxdist._FreeEntries(mask)
    upper = np.flatnonzero(np.triu(mask))
    rows, cols = np.divmod(upper, p)
    weights = np.where(rows == cols, 1.0, 2.0)
    assert np.array_equal(free.upper, upper)
    assert np.array_equal(free.lower, cols * p + rows)
    assert free.weights.tobytes() == weights.tobytes()
    u, v = rng.standard_normal((2, upper.size))
    assert free.inner(u, v) == float(np.dot(weights * u, v))

    it = proxdist._Iterate(S, S, None)
    A = it.inv
    M = A @ S @ A
    asa = proxdist._asa(A, S)
    assert asa.tobytes() == ((M.T + M) * 0.5).tobytes()
    N = asa - 0.5 * A
    hess = proxdist._Hessian(it, asa, free)
    for left, right, product in ((A, N, hess), (S, S, hess.fisher_inverse)):
        V = np.zeros((p, p))
        V.flat[upper] = V.flat[cols * p + rows] = v
        Y = np.matmul(np.matmul(left, V), right)
        assert product(v).tobytes() == (Y.flat[upper] + Y.flat[cols * p + rows]).tobytes()


def test_gradient_test_reads_numpys_frobenius_norm(monkeypatch):
    # the finish's ||A||_F, sqrt(x . x) over the flat inverse, is
    # np.linalg.norm's value bit for bit at every Newton direction
    newton = proxdist._newton_direction
    norms = []

    def recorded(it, asa, g, g_norm, a_norm, free):
        norms.append((a_norm, float(np.linalg.norm(it.inv))))
        return newton(it, asa, g, g_norm, a_norm, free)

    monkeypatch.setattr(proxdist, "_newton_direction", recorded)
    rng = np.random.default_rng(5)
    for p, k in ((3, 1), (20, 12), (65, 60)):
        S = sc.sample_covariance(rng.standard_normal((3 * p, p)))
        sc.fit(S, sc.SparsityConstraint(k))
    assert len(norms) >= 6
    assert all(ours == numpys for ours, numpys in norms)


@pytest.mark.parametrize("p", [30, 60])
@pytest.mark.parametrize("mode", ["covariance", "correlation"])
def test_hessian_kernels_agree(monkeypatch, mode, p):
    # the dense and the sparse product kernel on random supports: products
    # to 1e-12 relative, whole Newton directions to 1e-10; the iterate's
    # A S A and gradient, which both kernels read, are exactly symmetric
    rng = np.random.default_rng(p)
    products = []
    for _ in range(3):
        it, S, mask = _iterate_near_its_optimum(rng, p, mode)
        M, G = proxdist._asa(it.inv, S), it.gradient(S, 1.0, sc.SparsityConstraint(0, mode))
        assert np.array_equal(M, M.T) and np.array_equal(G, G.T)
        if mode == "correlation":
            assert not mask.any(axis=1).all()  # empty CSR rows
        v = rng.standard_normal(np.count_nonzero(np.triu(mask)))
        out = {}
        for kernel in KERNELS:
            _use_kernel(monkeypatch, kernel)
            free = proxdist._FreeEntries(mask)
            assert free.sparse == (kernel == "sparse")
            hess = proxdist._Hessian(it, proxdist._asa(it.inv, S), free)
            g = free.vector(it.gradient(S, 0.0, sc.SparsityConstraint(0, mode)))
            D, count = _newton_direction_at(it, S, g, free)
            out[kernel] = hess(v), D
        products.append(count)
        for rtol, dense, sparse in zip((1e-12, 1e-10), out["dense"], out["sparse"]):
            assert np.max(np.abs(sparse - dense)) <= rtol * np.max(np.abs(dense))
    assert min(products) >= 3


@pytest.mark.parametrize("p", [30, 60])
@pytest.mark.parametrize("mode", ["covariance", "correlation"])
def test_fisher_preconditioner_is_sigma_v_sigma(monkeypatch, mode, p):
    # the preconditioner on each product kernel, against a dense
    # mask * (Sigma V Sigma) up to one positive scale; it is self-adjoint
    # and positive definite in the inner product CG runs in
    rng = np.random.default_rng(p + 1)
    for _ in range(3):
        it, S, mask = _iterate_near_its_optimum(rng, p, mode)
        u, v = rng.standard_normal((2, np.count_nonzero(np.triu(mask))))
        for kernel in KERNELS:
            _use_kernel(monkeypatch, kernel)
            free = proxdist._FreeEntries(mask)
            assert free.sparse == (kernel == "sparse")
            hess = proxdist._Hessian(it, proxdist._asa(it.inv, S), free)
            fisher_inverse = hess.fisher_inverse
            Pu, Pv = fisher_inverse(u), fisher_inverse(v)
            reference = free.vector(it.sigma @ free.matrix(v) @ it.sigma)
            scale = free.inner(Pv, reference) / free.inner(reference, reference)
            assert scale > 0.0
            assert np.max(np.abs(Pv - scale * reference)) <= 1e-12 * np.max(np.abs(Pv))
            bound = math.sqrt(free.inner(u, u) * free.inner(Pv, Pv))
            assert abs(free.inner(u, Pv) - free.inner(Pu, v)) <= 1e-12 * bound
            assert free.inner(u, Pu) > 0.0 and free.inner(v, Pv) > 0.0


@pytest.mark.parametrize("mode", ["covariance", "correlation"])
def test_dense_kernel_does_not_depend_on_the_inverse_layout(monkeypatch, mode):
    # with an F-ordered inverse the dense kernel's buffers stay C-ordered,
    # so that its flat view writes through: its products still match
    # -A V A + A V M + M V A with M = A S A, and its preconditioner
    # 2 Sigma V Sigma
    _use_kernel(monkeypatch, "dense")
    rng = np.random.default_rng(5)
    it, S, mask = _iterate_near_its_optimum(rng, 30, mode)
    it.inv = np.asfortranarray(it.inv)
    assert not it.inv.flags.c_contiguous
    A, Sigma = it.inv, it.sigma
    M = A @ S @ A
    free = proxdist._FreeEntries(mask)
    assert not free.sparse
    hess = proxdist._Hessian(it, proxdist._asa(it.inv, S), free)
    for _ in range(3):
        v = rng.standard_normal(free.upper.size)
        V = free.matrix(v)
        for got, expected in (
            (hess(v), -A @ V @ A + A @ V @ M + M @ V @ A),
            (hess.fisher_inverse(v), 2.0 * Sigma @ V @ Sigma),
        ):
            expected = free.vector(expected)
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def _plain_cg_direction(it, asa, g, g_norm, a_norm, free):
    # the finish's conjugate gradients without the preconditioner or the
    # aimed stop, ended on the forcing term alone
    hess = proxdist._Hessian(it, asa, free)
    r = g.copy()
    rr = free.inner(r, r)
    tol = min(0.5, math.sqrt(g_norm / a_norm)) * g_norm
    D = np.zeros_like(r)
    d = -r
    p = free.p
    for j in range(p * (p + 1) // 2):
        Hd = hess(d)
        curvature = free.inner(d, Hd)
        if curvature <= 0.0:
            return (-g if j == 0 else D), j + 1
        alpha = rr / curvature
        D += alpha * d
        Hd *= alpha
        r += Hd
        rr_next = free.inner(r, r)
        if math.sqrt(rr_next) <= tol:
            break
        d *= rr_next / rr
        d -= r
        rr = rr_next
    return D, j + 1


@pytest.mark.parametrize("kernel", KERNELS)
def test_every_finish_direction_is_preconditioned(monkeypatch, kernel):
    # rank-deficient S (p > n, with the automatic ridge or an explicit one)
    # and full-rank S run the same CG: each iteration of every direction
    # applies the preconditioner once, each fit converges, and it takes
    # fewer Hessian products in all than with plain CG patched in
    _use_kernel(monkeypatch, kernel)
    fisher_inverse = proxdist._Hessian.fisher_inverse
    newton = proxdist._newton_direction
    calls = []
    directions = []  # per direction: (preconditioner calls, products)

    def counted_fisher_inverse(hess, v):
        calls.append(1)
        return fisher_inverse(hess, v)

    def counted_newton(it, asa, g, g_norm, a_norm, free):
        calls.clear()
        D, products = newton(it, asa, g, g_norm, a_norm, free)
        directions.append((len(calls), products))
        return D, products

    monkeypatch.setattr(proxdist._Hessian, "fisher_inverse", counted_fisher_inverse)
    deficient = _sample_problem(20, 8, 1, frac=0.01)
    full = _sample_problem(20, 100, 11)
    for S, cfg, k in (
        (deficient, sc.FitConfig(), 10),
        (deficient, sc.FitConfig(ridge_delta=0.5), 10),
        (full, sc.FitConfig(), 12),
    ):
        directions.clear()
        totals = []
        for direction in (counted_newton, _plain_cg_direction):
            monkeypatch.setattr(proxdist, "_newton_direction", direction)
            events = []
            result = sc.fit(S, sc.SparsityConstraint(k), cfg, callback=events.append)
            assert result.converged
            totals.append(sum(ev["cg_products"] for ev in events))
        assert len(directions) >= 2
        assert all(applied == products for applied, products in directions)
        assert totals[0] < totals[1]


def test_finish_aims_its_last_solve_below_the_gradient_test():
    # two cross-validation cells of the criterion-6 study, replicate 7,
    # whose last Newton step landed just above the gradient test, where
    # only the round-off stop could end the fit, and which ended
    # unconverged: fold 3 at k = 44 (||G|| / ||A|| = 1.3e-8) with plain CG
    # and the forcing term, fold 0 at k = 49 (1.3e-8) with the
    # preconditioner and the forcing term alone.  The aimed solve lands
    # both under the test.
    derive = synthdata._derive_seed
    design = sc.SimDesign(kind="random_sparse", p=20, sparsity_frac=0.02, seed=2025)
    truth = sc.make_design(replace(design, seed=derive(design.seed, (7, 0))))
    data = sc.sample_mvn(truth, 100, sc.RngStream(seed=derive(design.seed, (7, 1))))
    folds = tuning.kfold_split(100, 5, derive(design.seed, (7, 2)))
    for fold, k in ((3, 44), (0, 49)):
        S_train = sc.sample_covariance(np.delete(data, folds[fold], axis=0))
        _assert_finished_on_support(sc.fit(S_train, sc.SparsityConstraint(k)), S_train, k)


def test_newton_direction_on_zero_curvature_is_steepest_descent():
    # at Sigma = I, S = I/2 the loss has zero curvature along the free
    # diagonal: CG stops on the nonpositive curvature of its first
    # iteration with its first search direction rather than dividing by
    # zero: the preconditioned steepest descent direction -2g, since the
    # preconditioner is 2 Sigma V Sigma = 2 V there
    c = sc.SparsityConstraint(0)
    S = 0.5 * np.eye(3)
    it = proxdist._Iterate(np.eye(3), S, c)
    free = proxdist._FreeEntries(np.eye(3, dtype=bool))
    g = free.vector(it.gradient(S, 0.0, c))
    D, products = _newton_direction_at(it, S, g, free)
    assert np.array_equal(D, -2.0 * g)
    assert products == 1


@MODES_AND_KERNELS
def test_refinement_directions_are_symmetric_descent_directions(monkeypatch, mode, kernel):
    # every CG direction of the finish meets the unit-free forcing
    # tolerance of truncated Newton on the free entries within CG's
    # iteration cap and descends, and iterates stay exactly symmetric, on
    # an instance whose supports select each product kernel and whose
    # finish meets no negative curvature
    p, n, seed, frac, k = {
        "dense": (20, 100, 11, 0.05, 12),
        "sparse": (60, 300, 7, 0.02, 20),
    }[kernel]
    S = _sample_problem(p, n, seed, frac)
    if mode == "correlation":
        d = np.sqrt(np.diag(S))
        S = S / np.outer(d, d)
        np.fill_diagonal(S, 1.0)
    c = sc.SparsityConstraint(k, mode)
    directions = []
    newton = proxdist._newton_direction

    def recorded(it, asa, g, g_norm, a_norm, free):
        M = asa.copy()  # the Hessian overwrites asa
        D, products = newton(it, asa, g, g_norm, a_norm, free)
        directions.append((it, M, g, free, D, products))
        return D, products

    monkeypatch.setattr(proxdist, "_newton_direction", recorded)
    events = []
    sc.fit(S, c, callback=events.append)
    assert len(directions) >= 2
    for it, M, g, free, D, products in directions:
        assert free.sparse == (kernel == "sparse")
        assert free.inner(D, g) < 0.0
        g_norm = math.sqrt(free.inner(g, g))
        residual = proxdist._Hessian(it, M, free)(D) + g
        forcing = min(0.5, math.sqrt(g_norm / np.linalg.norm(it.inv))) * g_norm
        assert math.sqrt(free.inner(residual, residual)) <= 1.001 * forcing
        assert 1 <= products <= p * (p + 1) // 2
    for ev in events:
        assert np.array_equal(ev["sigma"], ev["sigma"].T)
    # a direction the round-off stop or an exhausted backtrack ends the
    # finish on is the one not recorded
    finish = [ev["cg_products"] for ev in events if ev["cg_products"]]
    assert len(directions) - 1 <= len(finish) <= len(directions)
    assert finish == [d[-1] for d in directions[: len(finish)]]


@pytest.mark.parametrize("mode", ["covariance", "correlation"])
def test_finish_directions_stay_on_the_support(monkeypatch, mode):
    # each finish direction, as the matrix the line search takes, is exactly
    # symmetric and zero off the free entries, whose mask is symmetric and
    # leaves the correlation diagonal out; the fit ends exactly on the
    # support
    S = _sample_problem(20, 100, 11)
    if mode == "correlation":
        d = np.sqrt(np.diag(S))
        S = S / np.outer(d, d)
        np.fill_diagonal(S, 1.0)
    c = sc.SparsityConstraint(12, mode)
    directions = []
    newton = proxdist._newton_direction

    def recorded(it, asa, g, g_norm, a_norm, free):
        D, products = newton(it, asa, g, g_norm, a_norm, free)
        mask = np.zeros(free.p * free.p, dtype=bool)  # the free entries'
        mask[free.upper] = mask[free.lower] = True
        directions.append((mask.reshape(free.p, free.p), free.matrix(D)))
        return D, products

    monkeypatch.setattr(proxdist, "_newton_direction", recorded)
    result = sc.fit(S, c)
    assert len(directions) >= 2
    for mask, D in directions:
        assert np.array_equal(mask, mask.T)
        assert np.array_equal(D, D.T)
        assert np.all(D[~mask] == 0.0)
        if mode == "correlation":
            assert not np.diag(mask).any()
    if mode == "correlation":
        assert np.all(np.diag(result.sigma_hat) == 1.0)
    _assert_finished_on_support(result, S, 12, mode)


def test_finish_that_takes_no_step_records_its_start(monkeypatch):
    # directions whose model decrease is below the round-off bound end the
    # finish before any line search; the trace then records the start, so
    # that it still ends at the returned, exactly sparse estimate
    S = _sample_problem(20, 100, 11)
    c = sc.SparsityConstraint(12)
    newton = proxdist._newton_direction

    def scaled(it, asa, g, g_norm, a_norm, free):
        D, products = newton(it, asa, g, g_norm, a_norm, free)
        bound = proxdist.DECREASE_RTOL * abs(it.loss)
        return D * (0.5 * bound / -free.inner(D, g)), products

    monkeypatch.setattr(proxdist, "_newton_direction", scaled)
    events = []
    result = sc.fit(S, c, callback=events.append)
    assert all(ev["cg_products"] == 0 for ev in events)
    last, schedule_last = events[-1], events[-2]
    assert last["rho"] == schedule_last["rho"]
    assert not last["accepted"] and last["halvings"] == 0
    assert last["objective"] == last["objective_before"] == result.objective_trace[-1]
    assert np.array_equal(last["sigma"], result.sigma_hat)
    assert result.converged
    assert result.final_penalty == 0.0
    assert np.count_nonzero(np.triu(result.sigma_hat, 1)) == 12


@pytest.mark.parametrize("factor", [0.5, 4.0])
def test_refinement_stops_on_a_roundoff_model_decrease(monkeypatch, factor):
    # directions scaled so that the model decrease -<D, G> is `factor` times
    # the round-off bound: below the bound the finish ends before any
    # line search, above it the line search runs, but halves the step only
    # while the halved decrease stays above the bound
    S = _sample_problem(20, 100, 11)
    c = sc.SparsityConstraint(12)
    newton = proxdist._newton_direction

    def scaled(it, asa, g, g_norm, a_norm, free):
        D, products = newton(it, asa, g, g_norm, a_norm, free)
        bound = proxdist.DECREASE_RTOL * abs(it.loss)
        return D * (factor * bound / -free.inner(D, g)), products

    factorizations = []
    cholesky = proxdist.cholesky_pd

    def counted_cholesky(M):
        factorizations.append(M.shape)
        return cholesky(M)

    monkeypatch.setattr(proxdist, "_newton_direction", scaled)
    monkeypatch.setattr(proxdist, "cholesky_pd", counted_cholesky)
    events = []
    sc.fit(S, c, callback=events.append)
    rhos = [ev["rho"] for ev in events]
    schedule = _schedule_length(rhos)
    candidates = sum(
        ev["halvings"] + 1 if ev["accepted"] else sc.FitConfig().max_halvings + 1
        for ev in events[:schedule]
    )
    # a finish entry not accepted records its start and searched nothing
    candidates += sum(ev["halvings"] + 1 for ev in events[schedule:] if ev["accepted"])
    # one more each for the diagonal start and the finish's start
    searched = len(factorizations) - 2 - candidates  # by unrecorded line searches
    if factor < 1.0:
        assert searched == 0
        assert all(ev["cg_products"] == 0 for ev in events)
    else:
        assert 0 < searched <= 3
        assert all(ev["halvings"] <= 2 for ev in events if ev["cg_products"])


@pytest.mark.parametrize("scale", [1e-3, 1e3])
def test_schedule_stops_on_the_support_lock_whatever_the_units(scale):
    # the schedule ends only on the lock or the budget: rescaled data must
    # not stop it before the support of P(Sigma) has held for LOCK_STEPS
    design = sc.SimDesign(kind="random_sparse", p=20, sparsity_frac=0.02, seed=2025)
    data = sc.sample_mvn(sc.make_design(design), 100, sc.RngStream(seed=1, stream_id=1))
    S = scale * sc.sample_covariance(data)
    c = sc.SparsityConstraint(40)
    events = []
    sc.fit(S, c, callback=events.append)
    rhos = [ev["rho"] for ev in events]
    schedule = _schedule_length(rhos)
    assert schedule >= LOCK_STEPS + 1
    supports = [sc.project(ev["sigma"], c) != 0.0 for ev in events[:schedule]]
    assert all(np.array_equal(m, supports[-1]) for m in supports[-(LOCK_STEPS + 1) :])


@pytest.mark.parametrize(
    "p, n, k", [(20, 100, 40), (12, 200, 8), (30, 15, 20), (15, 60, 0), (10, 100, 45)]
)
def test_fit_is_permutation_equivariant(p, n, k):
    # relabelling the variables relabels the estimate and its support
    seed = p + n + k
    S = _sample_problem(p, n, seed)
    perm = np.random.default_rng(seed).permutation(p)
    back = np.ix_(np.argsort(perm), np.argsort(perm))
    c = sc.SparsityConstraint(k)
    result = sc.fit(S, c)
    permuted = sc.fit(S[np.ix_(perm, perm)], c)
    assert np.array_equal(permuted.support[back], result.support)
    diff = np.linalg.norm(permuted.sigma_hat[back] - result.sigma_hat)
    assert diff <= 1e-6 * np.linalg.norm(result.sigma_hat)


def test_auto_ridge_fires_only_when_rank_deficient():
    S = _sample_problem(5, 50, 9)
    assert sc.fit(S, sc.SparsityConstraint(2)).ridge_delta == 0.0
    data = sc.sample_mvn(np.eye(6), 3, sc.RngStream(seed=9, stream_id=2))
    S_deficient = sc.sample_covariance(data)
    result = sc.fit(S_deficient, sc.SparsityConstraint(2))
    expected = 1e-4 * np.trace(S_deficient) / 6
    assert result.ridge_delta == pytest.approx(expected)


def test_explicit_ridge_used_verbatim():
    data = sc.sample_mvn(np.eye(5), 3, sc.RngStream(seed=10, stream_id=2))
    S = sc.sample_covariance(data)
    result = sc.fit(S, sc.SparsityConstraint(2), sc.FitConfig(ridge_delta=0.5))
    assert result.ridge_delta == 0.5
    assert result.converged


def test_zero_matrix_rejected():
    with pytest.raises(sc.NotPositiveDefiniteError, match="ridge_delta"):
        sc.fit(np.zeros((3, 3)), sc.SparsityConstraint(0))


def test_fit_rejects_an_indefinite_covariance():
    # eigenvalues -1 and 3: the loss is unbounded below, and no ridge,
    # automatic or explicit, may hide that
    S = np.array([[1.0, 2.0], [2.0, 1.0]])
    for cfg in (sc.FitConfig(), sc.FitConfig(ridge_delta=5.0)):
        with pytest.raises(ValueError, match="not positive semidefinite") as info:
            sc.fit(S, sc.SparsityConstraint(1), cfg)
        assert not isinstance(info.value, sc.NotPositiveDefiniteError)
    # a singular S whose eigenvalues fall below zero by round-off is ridged
    v = np.array([1.0, -1.0, 2.0])
    S = np.outer(v, v)
    assert np.linalg.eigvalsh(S)[0] < 0.0
    assert sc.fit(S, sc.SparsityConstraint(1)).ridge_delta > 0.0


def test_fit_rejects_an_empty_covariance():
    with pytest.raises(ValueError, match=r"\(0, 0\)"):
        sc.fit(np.zeros((0, 0)), sc.SparsityConstraint(0))
    # the loss and the objective of the empty matrix stay 0
    assert sc.negative_loglik_loss(np.zeros((0, 0)), np.zeros((0, 0))) == 0.0
    assert sc.objective(np.zeros((0, 0)), np.zeros((0, 0)), sc.SparsityConstraint(0), 1.0) == 0.0


def test_fit_correlation_rejects_an_empty_correlation():
    with pytest.raises(ValueError, match=r"\(0, 0\)"):
        sc.fit_correlation(np.zeros((0, 0)), k=0)


def test_fit_correlation_requires_unit_diagonal():
    R = np.array([[1.0, 0.2], [0.2, 1.1]])
    with pytest.raises(ValueError, match="unit diagonal"):
        sc.fit_correlation(R, k=1)


def test_fit_correlation_identity_limit():
    R = 0.7 * np.eye(5) + 0.3 * np.ones((5, 5))
    result = sc.fit_correlation(R, k=0)
    assert result.converged
    assert np.max(np.abs(result.sigma_hat - np.eye(5))) <= 1e-3
    assert result.final_penalty <= 1e-6


def test_fit_correlation_keeps_requested_pairs():
    R = np.eye(4)
    R[0, 1] = R[1, 0] = 0.6
    R[2, 3] = R[3, 2] = 0.4
    result = sc.fit_correlation(R, k=2)
    assert result.converged
    assert result.support[0, 1] and result.support[2, 3]
    assert not result.support[0, 2]


def test_fit_checks_the_unit_diagonal_of_a_correlation_mode_s():
    # the check reads the caller's S, before any ridge: a sample covariance
    # with variances from 0.6 to 30 is no correlation matrix, whether it
    # reaches the correlation-mode fit through fit or fit_correlation
    rng = np.random.default_rng(0)
    X = rng.standard_normal((40, 5)) * np.arange(1.0, 6.0)
    S = sc.sample_covariance(X)
    assert np.abs(np.diag(S) - 1.0).max() > 1.0
    for call in (
        lambda: sc.fit(S, sc.SparsityConstraint(2, "correlation")),
        lambda: sc.fit_correlation(S, 2),
    ):
        with pytest.raises(ValueError, match="unit diagonal"):
            call()
    d = np.sqrt(np.diag(S))
    R = S / np.outer(d, d)
    np.fill_diagonal(R, 1.0)
    assert np.all(np.diag(sc.fit(R, sc.SparsityConstraint(2, "correlation")).sigma_hat) == 1.0)

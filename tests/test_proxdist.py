import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import sparsecov as sc
from sparsecov import proxdist, sylvester
from sparsecov.proxdist import LOCK_STEPS, RHO0, RHO_CEIL, RHO_GROWTH, STATIONARITY_RTOL


def _sample_problem(p, n, seed, frac=0.05):
    design = sc.SimDesign(kind="random_sparse", p=p, sparsity_frac=frac, seed=seed)
    truth = sc.make_design(design)
    data = sc.sample_mvn(truth, n, sc.RngStream(seed=seed, stream_id=1))
    return sc.sample_covariance(data)


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
    # diagonal S with k = 0 is its own optimum: after one accepted step no
    # candidate lowers the objective, so the schedule records a rejected
    # step that keeps the iterate and still grows rho
    events = []
    result = sc.fit(np.diag([2.0, 5.0, 1.0]), sc.SparsityConstraint(0), callback=events.append)
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
    # k = all pairs: the refinement takes Newton steps after the schedule,
    # each traced, so the trace must end at the returned estimate
    S = _sample_problem(20, 40, 0)
    c = sc.SparsityConstraint(190)
    result = sc.fit(S, c)
    S_used = S + result.ridge_delta * np.eye(20)
    at_estimate = sc.objective(result.sigma_hat, S_used, c, result.rho_trace[-1])
    assert result.objective_trace[-1] == pytest.approx(at_estimate, rel=1e-12)
    assert result.iterations == len(result.objective_trace)


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


def test_fit_respects_max_outer(monkeypatch):
    monkeypatch.setattr(sc.FitConfig, "max_outer", 3)
    S = _sample_problem(6, 60, 7)
    result = sc.fit(S, sc.SparsityConstraint(3))
    assert result.iterations == 3
    assert not result.converged


def test_refinement_shares_the_iteration_budget(monkeypatch):
    # with max_outer equal to the schedule's length the schedule runs in
    # full and leaves the refinement no steps
    S = _sample_problem(20, 100, 11)
    c = sc.SparsityConstraint(12)
    full = sc.fit(S, c)
    rhos = full.rho_trace
    schedule = next(i for i in range(1, len(rhos)) if rhos[i] == rhos[i - 1])
    monkeypatch.setattr(sc.FitConfig, "max_outer", schedule)
    capped = sc.fit(S, c)
    assert capped.iterations == schedule
    assert capped.objective_trace == full.objective_trace[:schedule]


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
    schedule = next(i for i in range(1, len(rhos)) if rhos[i] == rhos[i - 1])
    assert schedule <= 40
    assert result.objective_trace[-1] == sc.negative_loglik_loss(result.sigma_hat, S)


def test_finish_starts_from_the_diagonal_when_the_projection_is_not_pd(monkeypatch):
    # p > n: the projection of the schedule's last iterate is not PD, so the
    # finish starts from Diag(S) and still reaches the support's estimate
    S = _sample_problem(20, 8, 1, frac=0.01)
    starts = []
    finish_start = proxdist._finish_start

    def recorded(it, S_used, c):
        start = finish_start(it, S_used, c)
        starts.append((sc.is_positive_definite(it.proj), start.sigma, S_used))
        return start

    monkeypatch.setattr(proxdist, "_finish_start", recorded)
    events = []
    result = sc.fit(S, sc.SparsityConstraint(10), callback=events.append)
    assert result.ridge_delta > 0.0
    [(projection_pd, start, S_used)] = starts
    assert not projection_pd
    assert np.array_equal(start, np.diag(np.diag(S_used)))
    first = next(ev for ev in events if ev["cg_products"])
    assert first["objective_before"] == sc.negative_loglik_loss(start, S_used)
    _assert_finished_on_support(result, S, 10)


def test_newton_operator_matches_fd_of_gradient():
    # the finish's Hessian product, the loss alone on the entries P keeps,
    # against central differences of the loss gradient on those entries
    rng = np.random.default_rng(3)
    h = 1e-6
    p = 4
    for mode in ("covariance", "correlation"):
        for _ in range(10):
            B = rng.standard_normal((p, p))
            Sigma = B @ B.T + p * np.eye(p)
            Sigma = (Sigma + Sigma.T) / 2.0
            B = rng.standard_normal((p, p))
            S = B @ B.T + p * np.eye(p)
            c = sc.SparsityConstraint(int(rng.integers(0, p * (p - 1) // 2 + 1)), mode)
            free = sc.project(Sigma, c) != 0.0
            if mode == "correlation":
                np.fill_diagonal(free, False)

            def grad(X):
                A = np.linalg.inv(X)
                return A - A @ S @ A

            it = proxdist._Iterate(Sigma, S, c)
            hess = proxdist._Hessian(it, S, free)
            for _ in range(3):
                V = rng.standard_normal((p, p))
                V = (V + V.T) / 2.0
                V *= free
                fd = (grad(Sigma + h * V) - grad(Sigma - h * V)) / (2 * h)
                assert np.max(np.abs(hess(V) - free * fd)) <= 1e-5


def _random_iterate(rng, p, mode):
    B = rng.standard_normal((p, p))
    Sigma = B @ B.T + p * np.eye(p)
    Sigma = (Sigma + Sigma.T) / 2.0
    B = rng.standard_normal((p, p))
    S = B @ B.T + p * np.eye(p)
    S = (S + S.T) / 2.0
    c = sc.SparsityConstraint(int(rng.integers(0, p * (p - 1) // 2 + 1)), mode)
    return proxdist._Iterate(Sigma, S, c), S, c


@pytest.mark.parametrize("mode", ["covariance", "correlation"])
def test_hessian_diagonal_is_the_product_on_unit_matrices(mode):
    # the Jacobi preconditioner: <E_ij, H[E_ij]> / <E_ij, E_ij> for the
    # symmetric unit matrices on the free entries, read through the product
    # itself, and one off them
    rng = np.random.default_rng(5)
    p = 5
    for _ in range(5):
        it, S, c = _random_iterate(rng, p, mode)
        free = rng.random((p, p)) < 0.5
        free = free | free.T
        hess = proxdist._Hessian(it, S, free)
        diag = hess.diagonal()
        assert np.array_equal(diag, diag.T)
        for i in range(p):
            for j in range(i, p):
                E = np.zeros((p, p))
                E[i, j] = E[j, i] = 1.0
                expected = np.vdot(E, hess(E)) / np.vdot(E, E) if free[i, j] else 1.0
                assert diag[i, j] == pytest.approx(expected, rel=1e-12)


def test_newton_direction_without_a_positive_diagonal():
    # at Sigma = I, S = I/2 the loss has zero curvature along the free
    # diagonal, so the Jacobi diagonal has zeros: CG runs unpreconditioned
    # and stops on the nonpositive curvature with the steepest descent
    # direction rather than dividing by zero
    c = sc.SparsityConstraint(0)
    S = 0.5 * np.eye(3)
    free = np.eye(3, dtype=bool)
    it = proxdist._Iterate(np.eye(3), S, c)
    assert not np.all(proxdist._Hessian(it, S, free).diagonal() > 0.0)
    G = it.gradient(S, 0.0) * free
    D, products = proxdist._newton_direction(it, S, G, free)
    assert np.array_equal(D, -G)
    assert products == 1


@pytest.mark.parametrize("mode", ["covariance", "correlation"])
def test_refinement_directions_are_symmetric_descent_directions(monkeypatch, mode):
    # every preconditioned CG direction of the finish meets the unit-free
    # forcing tolerance of truncated Newton on the free entries within CG's
    # iteration cap and descends, and directions and iterates stay exactly
    # symmetric
    S = _sample_problem(20, 100, 11)
    if mode == "correlation":
        d = np.sqrt(np.diag(S))
        S = S / np.outer(d, d)
        np.fill_diagonal(S, 1.0)
    c = sc.SparsityConstraint(12, mode)
    directions = []
    newton = proxdist._newton_direction

    def recorded(it, S_used, G, free):
        D, products = newton(it, S_used, G, free)
        directions.append((it, S_used, G, free.copy(), D, products))
        return D, products

    monkeypatch.setattr(proxdist, "_newton_direction", recorded)
    events = []
    sc.fit(S, c, callback=events.append)
    assert len(directions) >= 2
    for it, S_used, G, free, D, products in directions:
        assert np.array_equal(D, D.T)
        assert np.vdot(D, G) < 0.0
        g = np.linalg.norm(G)
        residual = proxdist._Hessian(it, S_used, free)(D) + G
        forcing = min(0.5, math.sqrt(g / np.linalg.norm(it.inv))) * g
        assert np.linalg.norm(residual) <= 1.001 * forcing
        assert 1 <= products <= 20 * 21 // 2
    for ev in events:
        assert np.array_equal(ev["sigma"], ev["sigma"].T)
    # a direction the round-off stop or an exhausted backtrack ends the
    # finish on is the one not recorded
    finish = [ev["cg_products"] for ev in events if ev["cg_products"]]
    assert len(directions) - 1 <= len(finish) <= len(directions)
    assert finish == [d[-1] for d in directions[: len(finish)]]


@pytest.mark.parametrize("mode", ["covariance", "correlation"])
def test_finish_directions_stay_on_the_support(monkeypatch, mode):
    # each finish direction and its gradient are zero off the free entries,
    # whose mask is symmetric, and the fit ends exactly on the support
    S = _sample_problem(20, 100, 11)
    if mode == "correlation":
        d = np.sqrt(np.diag(S))
        S = S / np.outer(d, d)
        np.fill_diagonal(S, 1.0)
    c = sc.SparsityConstraint(12, mode)
    directions = []
    newton = proxdist._newton_direction

    def recorded(it, S_used, G, free):
        D, products = newton(it, S_used, G, free)
        directions.append((G, free.copy(), D))
        return D, products

    monkeypatch.setattr(proxdist, "_newton_direction", recorded)
    result = sc.fit(S, c)
    assert len(directions) >= 2
    for G, free, D in directions:
        assert np.array_equal(free, free.T)
        assert np.all(D[~free] == 0.0) and np.all(G[~free] == 0.0)
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

    def scaled(it, S_used, G, free):
        D, products = newton(it, S_used, G, free)
        bound = proxdist.DECREASE_RTOL * abs(it.loss)
        return D * (0.5 * bound / -np.vdot(D, G)), products

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

    def scaled(it, S_used, G, free):
        D, products = newton(it, S_used, G, free)
        bound = proxdist.DECREASE_RTOL * abs(it.loss)
        return D * (factor * bound / -np.vdot(D, G)), products

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
    schedule = next(i for i in range(1, len(rhos)) if rhos[i] == rhos[i - 1])
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


def test_fast_schedule_stops_at_the_overflow_guard(monkeypatch):
    # a growth factor that would overflow rho in two steps: the schedule
    # holds rho at RHO_CEIL and the finish still lands on the sparse set
    monkeypatch.setattr(proxdist, "RHO_GROWTH", 1e200)
    S = _sample_problem(5, 50, 8)
    result = sc.fit(S, sc.SparsityConstraint(2))
    assert max(result.rho_trace) == RHO_CEIL
    assert all(math.isfinite(rho) for rho in result.rho_trace)
    assert sc.is_positive_definite(result.sigma_hat)
    assert result.final_penalty == 0.0


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
    schedule = next((i for i in range(1, len(rhos)) if rhos[i] == rhos[i - 1]), len(rhos))
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

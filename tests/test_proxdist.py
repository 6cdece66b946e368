import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import sparsecov as sc
from sparsecov import proxdist, sylvester
from sparsecov.proxdist import RHO_CEIL, STATIONARITY_RTOL


def _sample_problem(p, n, seed, frac=0.05):
    design = sc.SimDesign(kind="random_sparse", p=p, sparsity_frac=frac, seed=seed)
    truth = sc.make_design(design)
    data = sc.sample_mvn(truth, n, sc.RngStream(seed=seed, stream_id=1))
    return sc.sample_covariance(data)


def test_config_validation():
    for kwargs in (
        {"rho0": 0.0},
        {"rho_growth": 1.0},
        {"rho_max": 0.0},
        {"tol": 0.0},
        {"max_outer": 0},
        {"max_halvings": -1},
        {"ridge_delta": -1e-3},
    ):
        with pytest.raises(ValueError):
            sc.FitConfig(**kwargs)


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


def test_mm_step_descends():
    S = _sample_problem(6, 60, 2)
    c = sc.SparsityConstraint(3)
    Sigma_k = np.diag(np.diag(S))
    rho = 0.5
    before = sc.objective(Sigma_k, S, c, rho)
    Sigma_next, halvings = sc.mm_step(Sigma_k, S, c, rho)
    assert sc.is_positive_definite(Sigma_next)
    assert sc.objective(Sigma_next, S, c, rho) < before
    assert halvings >= 0


def test_mm_step_exhausts_at_stationary_point():
    # diagonal S with k = 0: the diagonal itself is the global optimum,
    # so the solver returns a zero direction and no strict decrease exists
    S = np.diag([2.0, 5.0, 1.0])
    with pytest.raises(sc.BacktrackExhaustedError) as info:
        sc.mm_step(S, S, sc.SparsityConstraint(0), rho=1.0)
    assert info.value.halvings == 32


def test_mm_step_validates_inputs():
    c = sc.SparsityConstraint(1)
    with pytest.raises(ValueError, match="rho"):
        sc.mm_step(np.eye(3), np.eye(3), c, rho=0.0)
    with pytest.raises(ValueError, match="shape"):
        sc.mm_step(np.eye(3), np.eye(2), c, rho=1.0)
    with pytest.raises(sc.NotPositiveDefiniteError):
        sc.mm_step(np.diag([1.0, -1.0, 1.0]), np.eye(3), c, rho=1.0)


def test_fit_diagonal_limit():
    # off-support entries settle at O(1/rho), so a tight tolerance is
    # needed to let rho run high enough before the change test fires
    S = _sample_problem(5, 50, 3)
    result = sc.fit(S, sc.SparsityConstraint(0), sc.FitConfig(tol=1e-9))
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
    cfg = sc.FitConfig()
    result = sc.fit(S, sc.SparsityConstraint(4), cfg)
    assert result.iterations == len(result.objective_trace)
    assert result.iterations == len(result.rho_trace)
    assert result.rho_trace[0] == cfg.rho0
    ratios = np.array(result.rho_trace[1:]) / np.array(result.rho_trace[:-1])
    assert np.all(ratios <= cfg.rho_growth + 1e-12)
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
        }


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
    # a step must cost one eigendecomposition, each candidate one Cholesky
    # factorization, and nothing may solve against the factor
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

    def no_solve(*args, **kwargs):
        raise AssertionError("the fit solved against a Cholesky factor")

    monkeypatch.setattr(sylvester, "spectral_decompose", counted)
    monkeypatch.setattr(proxdist, "cholesky_pd", counted_cholesky)
    monkeypatch.setattr(proxdist, "cho_solve", no_solve)
    events = []
    result = sc.fit(S, c, callback=events.append)
    assert result.ridge_delta == 0.0
    assert len(events) > 10
    candidates = sum(
        ev["halvings"] + 1 if ev["accepted"] else sc.FitConfig().max_halvings + 1
        for ev in events
    )
    assert len(factorizations) == candidates + 1
    for ev in events:
        expected = sc.objective(ev["sigma"], S, c, ev["rho"])
        assert ev["objective"] == pytest.approx(expected, rel=1e-12)
    assert len(calls) <= len(events) + 1


def test_fit_respects_max_outer():
    S = _sample_problem(6, 60, 7)
    result = sc.fit(S, sc.SparsityConstraint(3), sc.FitConfig(max_outer=3))
    assert result.iterations == 3
    assert not result.converged


def test_refinement_shares_the_iteration_budget():
    # with max_outer equal to the schedule's length the schedule runs in
    # full and leaves the refinement no steps
    S = _sample_problem(20, 100, 11)
    c = sc.SparsityConstraint(12)
    full = sc.fit(S, c)
    rhos = full.rho_trace
    schedule = next(i for i in range(1, len(rhos)) if rhos[i] == rhos[i - 1])
    capped = sc.fit(S, c, sc.FitConfig(max_outer=schedule))
    assert capped.iterations == schedule
    assert capped.objective_trace == full.objective_trace[:schedule]


def test_fit_ends_stationary_on_bench_instance():
    # the criterion-11 instance at p = 200: the refinement must reach a
    # stationary point of the penalized objective, support pairs included
    p = 200
    truth = sc.make_design(sc.SimDesign(kind="moving_average", p=p, seed=0))
    data = sc.sample_mvn(truth, 500, sc.RngStream(seed=0, stream_id=p))
    S = sc.sample_covariance(data)
    c = sc.SparsityConstraint(398)
    result = sc.fit(S, c)
    Sigma = result.sigma_hat
    A = np.linalg.inv(Sigma)
    S_used = S + result.ridge_delta * np.eye(p)
    G = A - A @ S_used @ A + result.rho_trace[-1] * (Sigma - sc.project(Sigma, c))
    assert np.linalg.norm(G) / np.linalg.norm(A) <= STATIONARITY_RTOL


def test_newton_operator_matches_fd_of_gradient():
    # the refinement's Hessian product against central differences of the
    # penalized gradient with the support held at the base point's
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
            rho = float(rng.uniform(0.5, 5.0))
            P = sc.project(Sigma, c)
            penalized = P == 0.0
            if mode == "correlation":
                np.fill_diagonal(penalized, True)

            def grad(X):
                A = np.linalg.inv(X)
                return A - A @ S @ A + rho * np.where(penalized, X - P, 0.0)

            it = proxdist._Iterate(Sigma, S, c)
            hess = proxdist._hessian(it, S, c, rho)
            for _ in range(3):
                V = rng.standard_normal((p, p))
                V = (V + V.T) / 2.0
                fd = (grad(Sigma + h * V) - grad(Sigma - h * V)) / (2 * h)
                assert np.max(np.abs(hess(V) - fd)) <= 1e-5


def test_fit_rho_max_caps_schedule():
    S = _sample_problem(5, 50, 8)
    result = sc.fit(S, sc.SparsityConstraint(2), sc.FitConfig(rho_max=10.0))
    assert max(result.rho_trace) <= 10.0


def test_default_schedule_unbounded_below_overflow_guard():
    assert sc.FitConfig().rho_max == math.inf
    assert RHO_CEIL < math.inf


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

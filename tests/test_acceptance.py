"""Acceptance gate: thirteen end-to-end checks, one summary line each.

Every check builds its own problem from seeded generators, so the gate
is deterministic.  The two timed checks (solver equivalence, the tuned
replicate study) assert wall-clock budgets as well as numerics.
"""

import time
from itertools import combinations

import numpy as np
import pytest

import sparsecov as sc
from _criteria import criterion


def _random_pd(rng, p, shift=None):
    B = rng.standard_normal((p, p))
    M = B @ B.T
    return M + (p if shift is None else shift) * np.eye(p)


def _random_sym(rng, p):
    B = rng.standard_normal((p, p))
    return (B + B.T) / 2.0


def _sample_cov(design, n, seed):
    truth = sc.make_design(design)
    data = sc.sample_mvn(truth, n, sc.RngStream(seed=seed, stream_id=1))
    return truth, sc.sample_covariance(data)


def test_criterion_01_solver_equivalence():
    with criterion(1, "spectral solver matches Kronecker reference to 1e-8"):
        rng = np.random.default_rng(11)
        start = time.perf_counter()
        for i in range(50):
            p = int(rng.integers(2, 9))
            rho = (0.1, 1.0, 10.0)[i % 3]
            system = sc.SurrogateSystem(_random_pd(rng, p), _random_sym(rng, p), rho)
            X_spec = sc.solve_spectral(system)
            X_kron = sc.solve_kronecker(system)
            denom = max(np.linalg.norm(X_kron), 1.0)
            assert np.linalg.norm(X_spec - X_kron) / denom <= 1e-8
            assert sc.equation_residual(system, X_spec) <= 1e-8
            assert sc.equation_residual(system, X_kron) <= 1e-8
        assert time.perf_counter() - start < 5.0


def test_criterion_02_descent_and_pd_trajectory():
    with criterion(2, "accepted steps descend and every iterate is PD (20 fits)"):
        for seed in range(10):
            for p, k in ((5, 2), (20, 8)):
                design = sc.SimDesign(kind="random_sparse", p=p, seed=seed)
                _, S = _sample_cov(design, 4 * p, seed)
                events = []
                sc.fit(S, sc.SparsityConstraint(k), callback=events.append)
                assert events
                for ev in events:
                    assert sc.is_positive_definite(ev["sigma"])
                    if ev["accepted"]:
                        assert ev["objective"] < ev["objective_before"]


def test_criterion_03_surrogate_gradient_matches_fd():
    def q(Sigma, Sigma_k, S, c, rho):
        A = sc.inverse_pd(Sigma_k)
        D = Sigma - Sigma_k
        P = sc.project(Sigma_k, c)
        return (
            np.trace(A @ Sigma)
            - np.trace(A @ S @ A @ Sigma)
            + 0.5 * np.trace(A @ D @ A @ D)
            + 0.5 * rho * np.sum((Sigma - P) ** 2)
        )

    with criterion(3, "surrogate gradient matches central differences to 1e-5"):
        rng = np.random.default_rng(3)
        h = 1e-6
        p = 4
        for _ in range(20):
            Sigma_k = _random_pd(rng, p)
            S = _random_pd(rng, p)
            Sigma = Sigma_k + 0.1 * _random_sym(rng, p)
            c = sc.SparsityConstraint(int(rng.integers(0, p * (p - 1) // 2 + 1)))
            rho = float(rng.uniform(0.5, 5.0))
            G = sc.surrogate_gradient(Sigma, Sigma_k, S, c, rho)
            for i in range(p):
                for j in range(i, p):
                    E = np.zeros((p, p))
                    E[i, j] = E[j, i] = 1.0
                    fd = (
                        q(Sigma + h * E, Sigma_k, S, c, rho)
                        - q(Sigma - h * E, Sigma_k, S, c, rho)
                    ) / (2 * h)
                    directional = G[i, j] if i == j else 2 * G[i, j]
                    assert abs(directional - fd) <= 1e-5


def test_criterion_04_projection_matches_brute_force():
    with criterion(4, "projection attains the brute-force optimum (p <= 4, all k)"):
        rng = np.random.default_rng(4)
        for t in range(100):
            p = 2 + t % 3
            M = _random_sym(rng, p)
            pairs = list(combinations(range(p), 2))
            sq = {pair: 2.0 * M[pair] ** 2 for pair in pairs}
            total = sum(sq.values())
            for k in range(len(pairs) + 1):
                best = min(
                    total - sum(sq[pair] for pair in keep)
                    for keep in combinations(pairs, k)
                )
                got = sc.squared_distance(M, sc.SparsityConstraint(k))
                assert abs(got - best) <= 1e-12


def test_criterion_05_penalty_vanishes_as_rho_grows():
    with criterion(5, "penalty falls along the rho schedule and ends at 0 (<= 1e-6)"):
        design = sc.SimDesign(kind="random_sparse", p=10, sparsity_frac=0.1, seed=5)
        _, S = _sample_cov(design, 200, 5)
        c = sc.SparsityConstraint(5)
        events = []
        result = sc.fit(S, c, callback=events.append)
        # the schedule's steps are those before the first repeated rho,
        # where the finish at rho = inf starts
        rhos = [ev["rho"] for ev in events]
        steps = next(i for i in range(1, len(rhos)) if rhos[i] == rhos[i - 1])
        schedule = [sc.squared_distance(ev["sigma"], c) for ev in events[:steps]]
        pens = [schedule[0], schedule[len(schedule) // 2], schedule[-1]]
        assert pens[0] > pens[1] > pens[2]
        assert result.final_penalty == 0.0


@pytest.fixture(scope="module")
def replicate_study():
    design = sc.SimDesign(kind="random_sparse", p=20, sparsity_frac=0.02, seed=2025)
    start = time.perf_counter()
    table = sc.run_replicates(design, n=100, reps=10)
    return table, time.perf_counter() - start


def test_criterion_06_support_recovery_rates(replicate_study):
    with criterion(6, "tuned study: FP <= 2%, FN <= 5%, soft FP >= 5x, < 10 min"):
        table, elapsed = replicate_study
        fp = table.mean("proxdist", "fp_rate")
        fn = table.mean("proxdist", "fn_rate")
        soft_fp = table.mean("soft", "fp_rate")
        assert fp <= 0.02
        assert fn <= 0.05
        assert soft_fp >= 5.0 * fp
        assert elapsed < 600.0


def test_criterion_07_entropy_loss_ordering(replicate_study):
    with criterion(7, "entropy loss in [0.1, 0.6] and below both baselines"):
        table, _ = replicate_study
        ent = table.mean("proxdist", "entropy_loss")
        assert 0.1 <= ent <= 0.6
        assert ent < table.mean("soft", "entropy_loss")
        assert ent < table.mean("hard", "entropy_loss")


def test_criterion_08_rmse_ordering(replicate_study):
    with criterion(8, "RMSE in [0.02, 0.10] and below both baselines"):
        table, _ = replicate_study
        r = table.mean("proxdist", "rmse")
        assert 0.02 <= r <= 0.10
        assert r < table.mean("soft", "rmse")
        assert r < table.mean("hard", "rmse")


def test_criterion_09_unconstrained_and_diagonal_limits():
    with criterion(9, "k = max recovers S to 1e-3; k = 0 returns Diag(S) to 1e-6"):
        rng = np.random.default_rng(9)
        p = 6
        data = rng.standard_normal((100, p))
        S = sc.sample_covariance(data)
        k_max = p * (p - 1) // 2
        full = sc.fit(S, sc.SparsityConstraint(k_max))
        rel = np.linalg.norm(full.sigma_hat - S) / np.linalg.norm(S)
        assert rel <= 1e-3
        # with k = 0 the finish lands on the diagonal support, whose
        # likelihood maximizer is Diag(S) itself
        diag = sc.fit(S, sc.SparsityConstraint(0))
        assert np.max(np.abs(diag.sigma_hat - np.diag(np.diag(S)))) <= 1e-6


def test_criterion_10_rank_deficient_fit_with_auto_ridge():
    with criterion(10, "p = 50, n = 20 fit converges PD with auto-ridge logged"):
        design = sc.SimDesign(
            kind="random_sparse", p=50, sparsity_frac=0.004, seed=0
        )
        _, S = _sample_cov(design, 20, 0)
        result = sc.fit(S, sc.SparsityConstraint(10))
        assert result.converged
        assert sc.is_positive_definite(result.sigma_hat)
        assert result.ridge_delta > 0.0


def test_criterion_11_runtime_scaling(tmp_path):
    from sparsecov.cli import main as cli_main

    with criterion(11, "bench: log-log slope in [2, 4], p = 400 under 5 min"):
        code = cli_main(
            [
                "bench",
                "--p-list",
                "50,100,200,400",
                "--n",
                "500",
                "--reps",
                "1",
                "--seed",
                "0",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        rows = np.loadtxt(tmp_path / "bench.csv", delimiter=",", skiprows=1)
        assert rows.shape[0] == 4
        slope = np.polyfit(np.log(rows[:, 0]), np.log(rows[:, 1]), 1)[0]
        assert 2.0 <= slope <= 4.0
        assert rows[3, 1] < 300.0


def test_criterion_12_correlation_mode_identity_limit():
    with criterion(12, "equicorrelation(5, 0.3) with k = 0 converges to identity"):
        R = 0.7 * np.eye(5) + 0.3 * np.ones((5, 5))
        result = sc.fit_correlation(R, k=0)
        assert np.max(np.abs(result.sigma_hat - np.eye(5))) <= 1e-3
        assert result.final_penalty <= 1e-6


def test_criterion_13_fixed_point_condition():
    with criterion(13, "fixed point matches spectral when stable, errors when not"):
        rng = np.random.default_rng(13)
        Sigma_k = _random_pd(rng, 6)
        C = _random_sym(rng, 6)
        A = sc.inverse_pd(Sigma_k)
        a2 = np.linalg.norm(A, 2) ** 2
        good = sc.SurrogateSystem(Sigma_k, C, 2.0 * a2)
        X_fp = sc.solve_fixed_point(good)
        X_sp = sc.solve_spectral(good)
        denom = max(np.linalg.norm(X_sp), 1.0)
        assert np.linalg.norm(X_fp - X_sp) / denom <= 1e-8
        bad = sc.SurrogateSystem(Sigma_k, C, 0.5 * a2)
        with pytest.raises(sc.NoConvergenceError):
            sc.solve_fixed_point(bad)

"""Tests of the benchmark's own checkers and tracer.

    python3 -m pytest benchmark -q
"""

from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import sparsecov
from tracer import TRACED, Tracer


def _brute_force_projection(M, k):
    """Closest member of the sparsity set, by trying every support of at most k pairs."""
    p = M.shape[0]
    pairs = list(zip(*np.triu_indices(p, 1)))
    best, best_dist = None, np.inf
    for size in range(min(k, len(pairs)) + 1):
        for support in combinations(pairs, size):
            P = np.diag(np.diag(M))
            for i, j in support:
                P[i, j] = P[j, i] = M[i, j]
            dist = float(np.sum((M - P) ** 2))
            if dist < best_dist - 1e-12:
                best, best_dist = P, dist
    return best


@pytest.mark.parametrize("p", [2, 3, 4])
def test_top_k_projection_matches_brute_force(p):
    rng = np.random.default_rng(p)
    for _ in range(5):
        B = rng.standard_normal((p, p))
        M = (B + B.T) / 2.0
        for k in range(p * (p - 1) // 2 + 1):
            P = checks.project(M, k)
            np.testing.assert_array_equal(P, _brute_force_projection(M, k))
            assert np.count_nonzero(np.triu(P, 1)) <= k


def test_top_k_ties_go_to_the_smaller_position_and_zeros_are_dropped():
    M = np.array([[1.0, 0.5, -0.5], [0.5, 1.0, 0.0], [-0.5, 0.0, 1.0]])
    rows, cols = checks.top_k_pairs(M, 1)
    assert (rows.tolist(), cols.tolist()) == ([0], [1])
    rows, cols = checks.top_k_pairs(M, 3)
    assert list(zip(rows.tolist(), cols.tolist())) == [(0, 1), (0, 2)]


def test_objective_matches_closed_form_at_the_diagonal_start():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((30, 6))
    S = X.T @ X / 30
    D = np.diag(np.diag(S))
    closed_form = float(np.sum(np.log(np.diag(S)))) + 6
    for rho in (0.0, 1.0, 1e6):
        assert checks.penalized_objective(D, S, 0, rho) == pytest.approx(closed_form, rel=1e-12)


def _result(sigma, rho_trace):
    return SimpleNamespace(sigma_hat=sigma, rho_trace=rho_trace)


def test_failure_rule():
    rho = [0.1 * 1.2**t for t in range(10)]
    assert not checks.fit_failed(_result(np.eye(3), rho), max_outer=20)
    # the schedule stopped growing rho inside the budget: refinement repeats
    assert not checks.fit_failed(_result(np.eye(3), rho + [rho[-1]] * 5), max_outer=10 + 5)
    # non-PD estimate
    assert checks.fit_failed(_result(np.diag([1.0, -1.0, 1.0]), rho), max_outer=20)
    # rho grew at every entry of the budget, with or without refinement after it
    assert checks.fit_failed(_result(np.eye(3), rho), max_outer=10)
    assert checks.fit_failed(_result(np.eye(3), rho + [rho[-1]] * 3), max_outer=10)


def test_tracer_counts_nested_calls_and_restores_bindings():
    from sparsecov import matcore, proxdist

    before = {(mod, name): getattr(sparsecov, mod).__dict__.get(name)
              for _, name, mods in TRACED for mod in mods if hasattr(sparsecov, mod)}
    rng = np.random.default_rng(1)
    X = rng.standard_normal((40, 5))
    S = sparsecov.sample_covariance(X)
    tracer = Tracer(sparsecov)
    with tracer.installed():
        res = proxdist.fit(S, sparsecov.SparsityConstraint(2))
    assert tracer.missing == []
    assert tracer.stats["proxdist.fit"].calls == 1
    assert tracer.stats["matcore.cholesky_pd"].calls > tracer.stats["matcore.inverse_pd"].calls
    fit_stat = tracer.stats["proxdist.fit"]
    assert 0 < fit_stat.self_s < fit_stat.total_s
    log = tracer.fits[0]
    assert log.result is res and len(log.stamps) == len(res.rho_trace)
    assert log.bad_steps == 0 and log.non_pd == 0
    phases = tracer.phases()
    assert phases["schedule.steps"] + phases["refine.steps"] == len(res.rho_trace)
    after = {(mod, name): getattr(sparsecov, mod).__dict__.get(name) for mod, name in before}
    assert after == before
    assert matcore.cholesky_pd.__module__ == "sparsecov.matcore"


def test_host_clock_times_rounds_net_of_its_probes():
    import time

    import hostspeed

    def busy(tick, seconds=0.4):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            tick()
        return "done"

    start = time.perf_counter()
    produced, net, probes = hostspeed.HostClock().time(busy)
    gross = time.perf_counter() - start
    assert produced == "done"
    # one probe at the start, then one per interval of the busy loop
    assert 2 <= len(probes) <= 1 + 0.4 / hostspeed.INTERVAL_S + 1
    assert net == pytest.approx(gross - sum(probes), abs=0.01)
    assert hostspeed.rescaled(2.0, [hostspeed.REFERENCE_S] * 3) == pytest.approx(2.0)

import math

import numpy as np
import pytest

import sparsecov as sc


def test_entropy_loss_known_value():
    got = sc.entropy_loss(np.eye(2), 2.0 * np.eye(2))
    assert got == pytest.approx(2.0 - 2.0 * math.log(2.0), abs=1e-12)


def test_entropy_loss_zero_at_truth():
    rng = np.random.default_rng(0)
    B = rng.standard_normal((5, 5))
    Sigma = B @ B.T + 5 * np.eye(5)
    assert sc.entropy_loss(Sigma, Sigma) == pytest.approx(0.0, abs=1e-10)
    assert sc.entropy_loss(Sigma, 1.3 * Sigma) > 0


def test_entropy_loss_requires_pd_estimate():
    with pytest.raises(sc.NotPositiveDefiniteError):
        sc.entropy_loss(np.eye(2), np.diag([1.0, -1.0]))


def test_rmse_normalizes_by_dimension():
    assert sc.rmse(np.zeros((4, 4)), np.eye(4)) == pytest.approx(0.5)
    assert sc.rmse(np.eye(3), np.eye(3)) == 0.0


def _rates(truth, est):
    report = sc.compute_report(truth, est)
    return report.fp_rate, report.fn_rate


def test_fp_fn_perfect_recovery():
    M = np.eye(4)
    M[0, 1] = M[1, 0] = 0.5
    assert _rates(M, M) == (0.0, 0.0)


def test_fp_fn_dense_estimate_of_diagonal_truth():
    fp, fn = _rates(np.eye(3), np.ones((3, 3)))
    assert fp == 1.0
    assert fn == 0.0  # no true edges: 0/0 convention


def test_fp_fn_hand_count():
    truth = np.eye(4)
    truth[0, 1] = truth[1, 0] = 0.5
    truth[2, 3] = truth[3, 2] = 0.4
    est = np.eye(4)
    est[0, 1] = est[1, 0] = 0.3  # hits one true edge
    est[0, 2] = est[2, 0] = 0.2  # spurious
    fp, fn = _rates(truth, est)
    assert fp == pytest.approx(1.0 / 4.0)
    assert fn == pytest.approx(1.0 / 2.0)


def test_fp_fn_counts_roundoff_entries():
    # an estimate's support is its exact nonzeros, with no tolerance
    truth = np.eye(3)
    est = np.eye(3)
    est[0, 1] = est[1, 0] = 1e-13
    assert _rates(truth, est)[0] == pytest.approx(1.0 / 3.0)


def test_gaussian_nll_known_value():
    assert sc.gaussian_nll(np.eye(1), np.eye(1), n=3) == pytest.approx(1.5)


def _aic_bic_ebic(Sigma_hat, S, n):
    # compute_report's AIC, BIC and EBIC, on the estimate's own nonzeros
    report = sc.compute_report(Sigma_hat, Sigma_hat, S=S, n=n)
    return report.aic, report.bic, report.ebic


def test_info_criteria_known_values():
    aic, bic, ebic = _aic_bic_ebic(np.eye(1), np.eye(1), n=3)
    assert aic == pytest.approx(5.0)
    assert bic == pytest.approx(3.0 + math.log(3.0))
    # one candidate parameter: the extended term vanishes at p = 1
    assert ebic == pytest.approx(bic)
    # p = 2: q = 2 of 3 candidate parameters, at gamma = 0.5
    aic, bic, ebic = _aic_bic_ebic(np.eye(2), np.eye(2), n=3)
    assert sc.evaluation.EBIC_GAMMA == 0.5
    assert aic == pytest.approx(10.0)
    assert bic == pytest.approx(6.0 + 2.0 * math.log(3.0))
    assert ebic == pytest.approx(bic + 2.0 * math.log(3.0))


def test_info_criteria_counts_support():
    Sigma = np.eye(3)
    Sigma[0, 1] = Sigma[1, 0] = 0.4
    aic, _, _ = _aic_bic_ebic(Sigma, np.eye(3), n=10)
    Sigma[0, 2] = Sigma[2, 0] = 1e-13
    wider, _, _ = _aic_bic_ebic(Sigma, np.eye(3), n=10)
    # q goes from 3 + 1 to 3 + 2, and the tiny entry barely moves the
    # NLL, so AIC rises by 2
    assert wider - aic == pytest.approx(2.0)


def test_ebic_grows_with_gamma(monkeypatch):
    Sigma = np.eye(4)
    Sigma[0, 1] = Sigma[1, 0] = 0.4
    monkeypatch.setattr(sc.evaluation, "EBIC_GAMMA", 0.0)
    _, bic_lo, ebic_lo = _aic_bic_ebic(Sigma, np.eye(4), n=20)
    monkeypatch.setattr(sc.evaluation, "EBIC_GAMMA", 1.0)
    _, _, ebic_hi = _aic_bic_ebic(Sigma, np.eye(4), n=20)
    assert ebic_hi > ebic_lo
    assert ebic_lo == pytest.approx(bic_lo)


def test_compute_report_full():
    rng = np.random.default_rng(1)
    B = rng.standard_normal((4, 4))
    truth = B @ B.T + 4 * np.eye(4)
    data = sc.sample_mvn(truth, 50, sc.RngStream(seed=1, stream_id=1))
    S = sc.sample_covariance(data)
    report = sc.compute_report(truth, S, S=S, n=50)
    assert report.entropy_loss is not None and report.entropy_loss >= 0
    assert report.rmse > 0
    assert report.nll is not None
    assert report.aic is not None
    d = report.to_dict()
    assert set(d) >= {"entropy_loss", "rmse", "fp_rate", "fn_rate", "nnz"}


def test_compute_report_reads_each_gaussian_loss_once(monkeypatch):
    # one loss for the entropy loss, one for the NLL that AIC, BIC and
    # EBIC all read
    calls = []
    loss = sc.evaluation.negative_loglik_loss

    def counting(*args):
        calls.append(args)
        return loss(*args)

    monkeypatch.setattr(sc.evaluation, "negative_loglik_loss", counting)
    rng = np.random.default_rng(2)
    B = rng.standard_normal((5, 5))
    truth = B @ B.T + 5 * np.eye(5)
    S = sc.sample_covariance(sc.sample_mvn(truth, 40, sc.RngStream(seed=2, stream_id=1)))
    est = S + np.eye(5)
    report = sc.compute_report(truth, est, S=S, n=40)
    assert len(calls) == 2
    # the estimate is dense, so its own nonzeros are the report's support
    assert report.nnz == 10


def test_compute_report_degrades_without_pd_or_data():
    truth = np.eye(3)
    flat = np.diag([1.0, 1.0, 0.0])  # singular estimate
    report = sc.compute_report(truth, flat)
    assert report.entropy_loss is None
    assert report.nll is None and report.aic is None
    assert report.rmse == pytest.approx(1.0 / 3.0)
    pd_but_no_data = sc.compute_report(truth, np.eye(3))
    assert pd_but_no_data.entropy_loss == pytest.approx(0.0)
    assert pd_but_no_data.nll is None


def test_compute_report_counts_nnz_and_aic_on_the_fp_fn_support():
    truth = np.eye(3)
    est = np.eye(3)
    est[0, 1] = est[1, 0] = 1e-13  # a round-off entry counts like any other
    report = sc.compute_report(truth, est, S=np.eye(3), n=10)
    assert report.fp_rate == pytest.approx(1.0 / 3.0)
    assert report.nnz == 1
    assert report.aic == pytest.approx(38.0)  # 2 * 15 + 2 * (3 + 1)


def test_roc_sweep_soft_path():
    design = sc.SimDesign(kind="random_sparse", p=10, sparsity_frac=0.1, seed=3)
    truth = sc.make_design(design)
    data = sc.sample_mvn(truth, 80, sc.RngStream(seed=3, stream_id=1))
    S = sc.sample_covariance(data)
    grid = np.linspace(0.0, np.abs(S - np.diag(np.diag(S))).max(), 8)
    points = sc.roc_sweep(S, truth, "soft", grid)
    assert len(points) == 8
    fprs = [fpr for fpr, _ in points]
    assert all(0.0 <= f <= 1.0 for f in fprs)
    assert fprs == sorted(fprs)
    assert all(0.0 <= t <= 1.0 for _, t in points)
    # the supports shrink along the ascending grid, to none at its top
    tprs = [tpr for _, tpr in points]
    assert tprs == sorted(tprs)
    assert points[0] == (0.0, 0.0)


def test_roc_sweep_proxdist_small():
    design = sc.SimDesign(kind="random_sparse", p=6, sparsity_frac=0.1, seed=4)
    truth = sc.make_design(design)
    data = sc.sample_mvn(truth, 60, sc.RngStream(seed=4, stream_id=1))
    S = sc.sample_covariance(data)
    points = sc.roc_sweep(S, truth, "proxdist", np.array([0, 2, 5]))
    assert len(points) == 3
    # zero capacity keeps nothing: the first point is the origin
    assert points[0] == (0.0, 0.0)


def test_roc_sweep_rejects_unknown_method_before_the_grid():
    with pytest.raises(ValueError, match="unknown method"):
        sc.roc_sweep(np.eye(3), np.eye(3), "lasso", [])

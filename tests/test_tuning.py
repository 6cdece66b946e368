import gc
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import sparsecov as sc


def _dataset(p=6, n=48, seed=0, frac=0.1):
    design = sc.SimDesign(kind="random_sparse", p=p, sparsity_frac=frac, seed=seed)
    truth = sc.make_design(design)
    return sc.sample_mvn(truth, n, sc.RngStream(seed=seed, stream_id=1))


def test_kfold_partitions_everything():
    folds = sc.kfold_split(23, 5, seed=0)
    assert len(folds) == 5
    sizes = [f.size for f in folds]
    assert max(sizes) - min(sizes) <= 1
    merged = np.sort(np.concatenate(folds))
    assert np.array_equal(merged, np.arange(23))


def test_kfold_deterministic_and_seed_sensitive():
    a = sc.kfold_split(30, 4, seed=1)
    b = sc.kfold_split(30, 4, seed=1)
    c = sc.kfold_split(30, 4, seed=2)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_default_grid_shapes():
    S = sc.sample_covariance(_dataset())
    kg = sc.default_grid("proxdist", S, 10)
    assert kg.dtype.kind == "i"
    assert kg[0] == 0 and kg[-1] == 15
    assert np.all(np.diff(kg) > 0)
    # at most size levels, each once: p = 6 has 16 levels to draw from
    assert np.array_equal(sc.default_grid("proxdist", S, 40), np.arange(16))
    lg = sc.default_grid("soft", S, 10)
    assert lg[0] == 0.0
    off = np.abs(S - np.diag(np.diag(S)))
    assert lg[-1] == pytest.approx(off.max())
    with pytest.raises(ValueError):
        sc.default_grid("lasso", S)


@pytest.mark.parametrize("method", sc.tuning.METHODS)
def test_default_grid_validates_s(method):
    # as every public entry point does: a 1-D, an asymmetric and a NaN S
    for S in (np.ones(3), np.array([[1.0, 5.0], [0.0, 1.0]]), np.full((2, 2), np.nan)):
        with pytest.raises(ValueError):
            sc.default_grid(method, S)


def test_default_grid_levels_are_those_np_unique_keeps():
    for p in (0, 1, 2, 3, 6, 20, 57, 200):
        S = np.eye(p)
        for size in (0, 1, 2, 3, 10, 40, 41, 1000):
            levels = np.rint(np.linspace(0, p * (p - 1) // 2, size)).astype(int)
            grid = sc.default_grid("proxdist", S, size)
            assert grid.dtype == levels.dtype
            assert np.array_equal(grid, np.unique(levels))


def test_cv_spec_validation():
    with pytest.raises(ValueError):
        sc.CvSpec(grid=np.array([]))
    with pytest.raises(ValueError):
        sc.CvSpec(grid=np.array([0.3, 0.1]))
    with pytest.raises(ValueError):
        sc.CvSpec(grid=np.array([0.1, 0.3]), folds=1)
    with pytest.raises(ValueError):
        sc.CvSpec(grid=np.array([0.1, 0.3]), loss="mse")
    for grid in ([0.0, np.nan, 0.2], [0.0, np.inf], [-np.inf, 0.0]):
        with pytest.raises(ValueError, match="finite"):
            sc.CvSpec(grid=grid)
    with pytest.raises(ValueError, match="integer"):
        sc.CvSpec(grid=np.array([0.1, 0.3]), folds=2.5)


def test_cross_validate_proxdist_basic():
    data = _dataset()
    grid = np.array([0, 1, 2, 3, 5, 8])
    best, table = sc.cross_validate(data, "proxdist", sc.CvSpec(grid=grid, folds=4))
    assert isinstance(best, int)
    assert best in grid
    assert len(table) == grid.size
    for row in table:
        assert row.n_folds == 4
        assert np.isfinite(row.mean_loss)
        assert row.stderr >= 0.0


def test_cross_validate_threshold_returns_float():
    data = _dataset(seed=1)
    S = sc.sample_covariance(data)
    grid = sc.default_grid("soft", S, 8)
    best, table = sc.cross_validate(data, "soft", sc.CvSpec(grid=grid, folds=4))
    assert isinstance(best, float)
    assert any(row.param == best for row in table)


def test_cross_validate_boundary_warning():
    data = _dataset(seed=2)
    # true support needs k >= 1, so a {0, 1} grid selects the top end
    grid = np.array([0, 1])
    with pytest.warns(UserWarning, match="boundary"):
        best, table = sc.cross_validate(
            data, "proxdist", sc.CvSpec(grid=grid, folds=4)
        )
    flagged = [row for row in table if row.boundary]
    assert len(flagged) == 1
    assert flagged[0].param == best


def test_cross_validate_boundary_is_a_value_not_an_index():
    # p = 3 has 4 sparsity levels, so a 40-point grid repeats them; CV
    # picks the largest, k = 3, which is on the boundary however often
    # the grid holds it
    truth = np.array([[1.0, 0.6, 0.5], [0.6, 1.0, 0.4], [0.5, 0.4, 1.0]])
    data = sc.sample_mvn(truth, 200, sc.RngStream(0))
    S = sc.sample_covariance(data)
    for grid in (sc.default_grid("proxdist", S, 40), np.rint(np.linspace(0, 3, 40))):
        with pytest.warns(UserWarning, match="boundary"):
            best, table = sc.cross_validate(
                data, "proxdist", sc.CvSpec(grid=grid, folds=5)
            )
        assert best == 3
        assert [row.param for row in table if row.boundary] == [3.0]


def test_cross_validate_failed_cells_become_inf():
    data = _dataset(p=5, n=20, seed=3)
    data[:] = 0.0  # S = 0 defeats the ridge too: every proxdist fit raises
    grid = np.array([0, 1])
    # every cell ties at +inf, so the sparsest value, on the boundary, wins
    with pytest.warns(UserWarning, match="inf"), pytest.warns(UserWarning, match="boundary"):
        best, table = sc.cross_validate(
            data, "proxdist", sc.CvSpec(grid=grid, folds=4)
        )
    assert all(np.isinf(row.mean_loss) for row in table)


def test_cross_validate_nll_scores_singular_test_folds():
    # n = 12 over 4 folds leaves 3-row test folds: rank-deficient S_test,
    # on which the held-out NLL needs only the estimate to be PD
    data = _dataset(p=5, n=12, seed=4)
    grid = np.array([0, 1, 2])
    for idx in sc.kfold_split(12, 4, 0):
        assert np.linalg.matrix_rank(sc.sample_covariance(data[idx])) == 3
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, table = sc.cross_validate(data, "proxdist", sc.CvSpec(grid=grid, folds=4, loss="nll"))
    assert all(np.isfinite(row.mean_loss) and np.isfinite(row.stderr) for row in table)
    assert not any("Frobenius" in str(w.message) for w in caught)


def test_cv_spec_refuses_the_retired_entropy_loss():
    # "entropy" scored Stein's loss against S_test; it must not quietly
    # come to mean the held-out NLL
    with pytest.raises(ValueError, match="nll"):
        sc.CvSpec(grid=[0, 1], loss="entropy")


def test_cross_validate_ties_prefer_sparser_proxdist():
    # with two identical rows duplicated the loss surface can tie; the
    # documented rule keeps the smaller k, checked on a grid of one value
    data = _dataset(seed=5)
    grid = np.array([2])
    with pytest.warns(UserWarning, match="boundary"):
        best, table = sc.cross_validate(data, "proxdist", sc.CvSpec(grid=grid, folds=3))
    assert best == 2
    assert table[0].boundary


def _grid_major_cv(data, method, spec):
    # the table and selection cross_validate must give, built grid value
    # by grid value from the package's parts
    folds = sc.kfold_split(data.shape[0], spec.folds, spec.seed)
    grid = np.asarray(spec.grid, dtype=float)
    losses = np.empty((grid.size, len(folds)))
    for gi, param in enumerate(grid):
        for fi, test_idx in enumerate(folds):
            S_train = sc.sample_covariance(np.delete(data, test_idx, axis=0))
            S_test = sc.sample_covariance(data[test_idx])
            if method == "proxdist":
                est = sc.fit(S_train, sc.SparsityConstraint(int(round(param)))).sigma_hat
            else:
                est = sc.threshold(S_train, sc.ThresholdSpec(float(param), method))
            if spec.loss == "nll":
                losses[gi, fi] = sc.negative_loglik_loss(est, S_test)
            else:
                losses[gi, fi] = np.linalg.norm(est - S_test)
    means = losses.mean(axis=1)
    stderrs = losses.std(axis=1, ddof=1) / math.sqrt(len(folds))
    tied = np.flatnonzero(means == means.min())
    best = tied[0] if method == "proxdist" else tied[-1]
    rows = [(float(g), float(m), float(e)) for g, m, e in zip(grid, means, stderrs)]
    return float(grid[best]), rows


@pytest.mark.parametrize(
    "method, loss", [("proxdist", "frobenius"), ("proxdist", "nll"), ("soft", "frobenius")]
)
def test_cross_validate_matches_a_grid_major_reference(method, loss):
    # scoring fold by fold changes no cell, mean, standard error or choice
    data = _dataset(seed=6)
    if method == "proxdist":
        grid = np.array([0, 1, 2, 4, 8])
    else:
        grid = sc.default_grid(method, sc.sample_covariance(data), 6)
    spec = sc.CvSpec(grid=grid, folds=4, loss=loss, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a boundary choice warns
        best, table = sc.cross_validate(data, method, spec)
        ref_best, ref_rows = _grid_major_cv(data, method, spec)
    assert best == ref_best
    assert [(row.param, row.mean_loss, row.stderr) for row in table] == ref_rows


def test_cross_validate_holds_one_fold_at_a_time():
    # 5-fold CV at p = 25, n = 50: the peak is one fit's working set beside
    # its fold's S_train and S_test, 10.8 p x p matrices in all; holding
    # every fold's pair from the start peaked at 20.3.  A fit first makes
    # the caches a fit makes once.
    p = 25
    data = _dataset(p=p, n=2 * p, seed=0, frac=0.02)
    spec = sc.CvSpec(grid=np.array([0, p]), folds=5)
    sc.fit(sc.sample_covariance(data), sc.SparsityConstraint(p))
    gc.collect()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a boundary choice warns
        tracemalloc.start()
        try:
            sc.cross_validate(data, "proxdist", spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak / (p * p * 8) <= 11.8


@pytest.mark.parametrize("method", sc.tuning.METHODS)
def test_estimate_pairs_each_method_with_the_support_it_is_scored_on(method):
    # the estimate alone, whose exact nonzeros are the support it is
    # scored on: a fit's equal its FitResult.support.  At the grid's empty
    # end (k = 0, or a threshold above every off-diagonal |s_ij|) and at
    # an interior value
    design = sc.SimDesign(kind="random_sparse", p=8, sparsity_frac=0.15, seed=5)
    truth = sc.make_design(design)
    S = sc.sample_covariance(sc.sample_mvn(truth, 60, sc.RngStream(seed=5, stream_id=1)))
    off_max = np.abs(S - np.diag(np.diag(S))).max()
    grid = (0, 6) if method == "proxdist" else (1.5 * off_max, 0.5 * off_max)
    cfg = sc.FitConfig()
    pairs = []
    for param in grid:
        est = sc.tuning._estimate(method, S, param, cfg)
        if method == "proxdist":
            res = sc.fit(S, sc.SparsityConstraint(param), cfg)
            assert est.tobytes() == res.sigma_hat.tobytes()
            assert np.array_equal(est != 0.0, res.support)
        else:
            assert est.tobytes() == sc.threshold(S, sc.ThresholdSpec(param, method)).tobytes()
        assert np.all(np.diag(est) != 0.0)
        pairs.append(np.count_nonzero(np.triu(est, 1)))
    assert pairs[0] == 0
    assert 0 < pairs[1] < 28
    if method == "proxdist":
        assert pairs[1] == 6


def test_every_method_is_checked_by_one_rule():
    for call in (
        lambda: sc.default_grid("lasso", np.eye(3)),
        lambda: sc.cross_validate(np.ones((6, 3)), "lasso", sc.CvSpec(grid=[0.0], folds=2)),
        lambda: sc.roc_sweep(np.eye(3), np.eye(3), "lasso", [0.0]),
    ):
        with pytest.raises(ValueError, match="unknown method 'lasso'"):
            call()

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import sparsecov as sc
from sparsecov import synthdata


def test_rng_stream_validation():
    with pytest.raises(ValueError):
        sc.RngStream(seed=-1)
    with pytest.raises(ValueError):
        sc.RngStream(seed=2**64)
    with pytest.raises(ValueError):
        sc.RngStream(seed=0, stream_id=-1)


def test_integer_fields_reject_non_integers_at_construction():
    # a float that is whole is still no seed, stream id or dimension
    for value in (2.5, 3.0, math.nan, "3", None):
        with pytest.raises(ValueError, match="seed"):
            sc.RngStream(seed=value)
        with pytest.raises(ValueError, match="stream_id"):
            sc.RngStream(seed=0, stream_id=value)
        with pytest.raises(ValueError, match="p must"):
            sc.SimDesign(kind="independent", p=value)
        with pytest.raises(ValueError, match="seed"):
            sc.SimDesign(kind="random_sparse", p=5, seed=value)
    # NumPy integers pass, and give the draws their Python values give
    for cast in (np.int64, np.uint64, np.int32):
        stream = sc.RngStream(seed=cast(42), stream_id=cast(1))
        draws = stream.generator().standard_normal(5)
        assert np.array_equal(draws, sc.RngStream(42, 1).generator().standard_normal(5))
        design = sc.SimDesign(kind="random_sparse", p=cast(8), sparsity_frac=0.1, seed=cast(3))
        expected = sc.SimDesign(kind="random_sparse", p=8, sparsity_frac=0.1, seed=3)
        assert np.array_equal(sc.make_design(design), sc.make_design(expected))


def test_rng_stream_determinism_and_independence():
    a = sc.RngStream(seed=42).generator().standard_normal(5)
    b = sc.RngStream(seed=42).generator().standard_normal(5)
    c = sc.RngStream(seed=42, stream_id=1).generator().standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_design_validation():
    with pytest.raises(ValueError):
        sc.SimDesign(kind="banded", p=5)
    with pytest.raises(ValueError):
        sc.SimDesign(kind="random_sparse", p=5, sparsity_frac=0.0)
    with pytest.raises(ValueError):
        sc.SimDesign(kind="random_sparse", p=5, sparsity_frac=1.5)
    with pytest.raises(ValueError):
        sc.SimDesign(kind="independent", p=0)


def test_independent_design_is_identity():
    assert_allclose(sc.make_design(sc.SimDesign(kind="independent", p=4)), np.eye(4))


def test_moving_average_design_band():
    M = sc.make_design(sc.SimDesign(kind="moving_average", p=3))
    expected = np.array([[1.0, 0.4, 0.0], [0.4, 1.0, 0.4], [0.0, 0.4, 1.0]])
    assert_allclose(M, expected)
    lam_min = np.linalg.eigvalsh(M)[0]
    assert lam_min == pytest.approx(1.0 - 0.4 * math.sqrt(2.0), abs=1e-12)


def test_cliques_design_blocks():
    M = sc.make_design(sc.SimDesign(kind="cliques", p=10))
    assert_allclose(np.diag(M), np.ones(10))
    assert M[0, 4] == pytest.approx(0.4)
    assert M[0, 5] == 0.0
    assert sc.is_positive_definite(M)


def test_deterministic_designs_are_positive_definite_without_repair():
    # moving_average's smallest eigenvalue is 1 - 0.8 cos(pi / (p + 1)),
    # cliques' is 1 - 0.4 once a block has two members
    for p in range(2, 61):
        for kind, floor in (("moving_average", 0.2), ("cliques", 0.6 - 1e-12)):
            M = sc.make_design(sc.SimDesign(kind=kind, p=p))
            assert np.array_equal(np.diag(M), np.ones(p))
            assert np.linalg.eigvalsh(M)[0] >= floor


def test_random_sparse_exact_count_and_range():
    design = sc.SimDesign(kind="random_sparse", p=20, sparsity_frac=0.02, seed=0)
    M = sc.make_design(design)
    iu = np.triu_indices(20, 1)
    nonzero = M[iu][M[iu] != 0]
    assert nonzero.size == 4  # ceil(0.02 * 190)
    assert np.all((np.abs(nonzero) >= 0.3) & (np.abs(nonzero) <= 0.6))
    assert_allclose(np.diag(M), np.ones(20))
    assert sc.is_positive_definite(M)


def _eigenvalue_gated_design(d):
    """random_sparse gated by its smallest eigenvalue: the same stream and
    the same three draws per attempt, accepted once that eigenvalue is
    positive.  None if no draw is accepted."""
    rng = sc.RngStream(d.seed).generator()
    n_upper = d.p * (d.p - 1) // 2
    m = math.ceil(d.sparsity_frac * n_upper)
    iu = np.triu_indices(d.p, k=1)
    for _ in range(synthdata.MAX_REDRAWS):
        M = np.eye(d.p)
        sel = rng.choice(n_upper, size=m, replace=False)
        vals = rng.uniform(0.3, 0.6, size=m) * (2 * rng.integers(0, 2, size=m) - 1)
        M[iu[0][sel], iu[1][sel]] = vals
        M[iu[1][sel], iu[0][sel]] = vals
        if np.linalg.eigvalsh(M)[0] > 0:
            return M
    return None


def _no_eigensolver(*args, **kwargs):
    raise AssertionError("make_design called an eigensolver")


def test_random_sparse_matches_the_eigenvalue_gate_bit_for_bit(monkeypatch):
    designs = [
        sc.SimDesign(kind="random_sparse", p=p, sparsity_frac=frac, seed=seed)
        for p in (5, 10, 20, 50)
        for frac in (0.01, 0.02, 0.05, 0.1)
        for seed in range(6)
    ]
    designs += [
        # the benchmark's rank-deficient fit and acceptance criterion 6
        sc.SimDesign(kind="random_sparse", p=200, sparsity_frac=0.005, seed=0),
        sc.SimDesign(kind="random_sparse", p=20, sparsity_frac=0.02, seed=2025),
    ]
    expected = [_eigenvalue_gated_design(d) for d in designs]
    # the Cholesky gate alone decides, with no eigensolver behind it
    monkeypatch.setattr(np.linalg, "eigvalsh", _no_eigensolver)
    monkeypatch.setattr(np.linalg, "eigh", _no_eigensolver)
    exhausted = 0
    for d, M in zip(designs, expected):
        if M is None:
            exhausted += 1
            with pytest.raises(ValueError, match="no positive definite draw"):
                sc.make_design(d)
        else:
            assert np.array_equal(sc.make_design(d), M), d
    assert 0 < exhausted < len(designs)


def test_random_sparse_exhaustion_raises_a_plain_value_error():
    # every strict-upper entry is drawn, so no draw at p = 30 is positive
    # definite; NotPositiveDefiniteError subclasses ValueError, so its type
    # is checked exactly
    design = sc.SimDesign(kind="random_sparse", p=30, sparsity_frac=1.0, seed=0)
    with pytest.raises(ValueError, match="no positive definite draw in 1000 attempts") as err:
        sc.make_design(design)
    assert type(err.value) is ValueError


def test_make_design_deterministic_per_seed():
    d = sc.SimDesign(kind="random_sparse", p=12, sparsity_frac=0.05, seed=9)
    assert np.array_equal(sc.make_design(d), sc.make_design(d))
    other = sc.SimDesign(kind="random_sparse", p=12, sparsity_frac=0.05, seed=10)
    assert not np.array_equal(sc.make_design(d), sc.make_design(other))


def test_sample_mvn_shape_and_determinism():
    Sigma = sc.make_design(sc.SimDesign(kind="moving_average", p=4))
    X1 = sc.sample_mvn(Sigma, 30, sc.RngStream(seed=5, stream_id=1))
    X2 = sc.sample_mvn(Sigma, 30, sc.RngStream(seed=5, stream_id=1))
    assert X1.shape == (30, 4)
    assert np.array_equal(X1, X2)


def test_sample_mvn_reads_an_array_like_sigma():
    # the dimension comes from the validated factor, so a nested list
    # draws what the same matrix as an ndarray draws
    Sigma = sc.make_design(sc.SimDesign(kind="moving_average", p=4))
    X = sc.sample_mvn(Sigma, 30, sc.RngStream(seed=5, stream_id=1))
    listed = sc.sample_mvn(Sigma.tolist(), 30, sc.RngStream(seed=5, stream_id=1))
    assert listed.tobytes() == X.tobytes()
    identity = sc.sample_mvn([[1.0, 0.0], [0.0, 1.0]], 3, sc.RngStream(0))
    assert identity.shape == (3, 2)


def test_sample_mvn_covariance_consistency():
    Sigma = np.array([[2.0, 0.8], [0.8, 1.0]])
    X = sc.sample_mvn(Sigma, 40000, sc.RngStream(seed=6, stream_id=1))
    S = sc.sample_covariance(X)
    assert np.max(np.abs(S - Sigma)) < 0.06


def test_run_replicates_smoke():
    design = sc.SimDesign(kind="random_sparse", p=8, sparsity_frac=0.08, seed=3)
    table = sc.run_replicates(
        design, n=60, reps=2, methods=("proxdist", "soft"), grid_size=6
    )
    assert table.methods == ("proxdist", "soft")
    assert len(table.reports["proxdist"]) == 2
    assert len(table.best_params["soft"]) == 2
    assert np.isfinite(table.mean("proxdist", "rmse"))
    assert table.stderr("proxdist", "rmse") >= 0.0
    fp = table.mean("proxdist", "fp_rate")
    assert 0.0 <= fp <= 1.0


def test_replicate_table_single_rep_stderr_zero():
    design = sc.SimDesign(kind="moving_average", p=5, seed=2)
    with pytest.warns(UserWarning, match="boundary"):
        table = sc.run_replicates(design, n=40, reps=1, methods=("hard",), grid_size=4)
    assert table.stderr("hard", "rmse") == 0.0

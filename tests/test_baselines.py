import numpy as np
import pytest
from numpy.testing import assert_allclose

import sparsecov as sc


def test_threshold_spec_validation():
    with pytest.raises(ValueError):
        sc.ThresholdSpec(kind="clip", lam=0.1)
    with pytest.raises(ValueError):
        sc.ThresholdSpec(kind="soft", lam=-0.1)
    with pytest.raises(ValueError):
        sc.ThresholdSpec(kind="soft", lam=float("nan"))


def test_soft_shrinks_off_diagonal():
    S = np.array([[1.0, 0.3], [0.3, 1.0]])
    out = sc.threshold(S, sc.ThresholdSpec(kind="soft", lam=0.1))
    assert_allclose(out, [[1.0, 0.2], [0.2, 1.0]], atol=1e-15)


def test_hard_zeroes_below_cut():
    S = np.array([[1.0, 0.3], [0.3, 1.0]])
    out = sc.threshold(S, sc.ThresholdSpec(kind="hard", lam=0.4))
    assert_allclose(out, np.eye(2))
    kept = sc.threshold(S, sc.ThresholdSpec(kind="hard", lam=0.2))
    assert_allclose(kept, S)


def test_diagonal_never_thresholded():
    S = np.array([[0.5, 0.3], [0.3, 0.2]])
    for kind in ("soft", "hard"):
        out = sc.threshold(S, sc.ThresholdSpec(kind=kind, lam=1.0))
        assert_allclose(np.diag(out), np.diag(S))


@pytest.mark.parametrize("p", [1, 2, 20, 65])
def test_threshold_matches_its_reference_bit_for_bit(p):
    # the diagonal is written through a strided view of the flat result,
    # bit for bit the np.diag_indices_from form, whatever the input layout
    rng = np.random.default_rng(p)
    S = sc.sample_covariance(rng.standard_normal((3 * p, p)))
    for given in (S, np.asfortranarray(S), np.kron(S, np.ones((2, 2)))[::2, ::2]):
        for kind in ("soft", "hard"):
            spec = sc.ThresholdSpec(kind=kind, lam=0.1)
            if kind == "soft":
                expected = np.sign(S) * np.maximum(np.abs(S) - spec.lam, 0.0)
            else:
                expected = np.where(np.abs(S) > spec.lam, S, 0.0)
            expected[np.diag_indices_from(expected)] = np.diag(S)
            assert sc.threshold(given, spec).tobytes() == expected.tobytes()


def test_soft_sign_preserved():
    S = np.array([[1.0, -0.5], [-0.5, 1.0]])
    out = sc.threshold(S, sc.ThresholdSpec(kind="soft", lam=0.2))
    assert out[0, 1] == pytest.approx(-0.3)


def test_shrinkage_dominance():
    rng = np.random.default_rng(0)
    B = rng.standard_normal((6, 6))
    S = B @ B.T / 6 + np.eye(6)
    for lam in (0.05, 0.2, 0.5):
        soft = sc.threshold(S, sc.ThresholdSpec(kind="soft", lam=lam))
        hard = sc.threshold(S, sc.ThresholdSpec(kind="hard", lam=lam))
        off = ~np.eye(6, dtype=bool)
        assert np.all(np.abs(soft[off]) <= np.abs(hard[off]) + 1e-15)


def test_hard_support_matches_top_k_projection():
    rng = np.random.default_rng(1)
    for _ in range(10):
        B = rng.standard_normal((5, 5))
        S = (B + B.T) / 2
        lam = float(rng.uniform(0.2, 1.5))
        hard = sc.threshold(S, sc.ThresholdSpec(kind="hard", lam=lam))
        iu = np.triu_indices(5, 1)
        nnz = int(np.count_nonzero(hard[iu]))
        proj = sc.project(S, sc.SparsityConstraint(nnz))
        assert np.array_equal(hard[iu] != 0, proj[iu] != 0)

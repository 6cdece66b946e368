"""Thresholding covariance estimators used as comparison baselines.

Entrywise soft and hard thresholding of the sample covariance matrix,
diagonal left untouched.  Thresholding does not stay inside the
positive definite cone, and no repair step puts it back: the metrics
that need a positive definite estimate report ``None`` instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import as_symmetric

__all__ = ["ThresholdSpec", "threshold"]

KINDS = ("soft", "hard")


@dataclass(frozen=True)
class ThresholdSpec:
    """A threshold level ``lam >= 0`` and a kind, ``soft`` or ``hard``."""

    lam: float
    kind: str

    def __post_init__(self):
        if not self.lam >= 0:
            raise ValueError(f"lam must be nonnegative, got {self.lam}")
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")


def threshold(S: np.ndarray, spec: ThresholdSpec) -> np.ndarray:
    """Threshold the off-diagonal entries of ``S``.

    Soft thresholding maps each off-diagonal entry ``s`` to
    ``sign(s) * max(|s| - lam, 0)``; hard thresholding keeps ``s`` when
    ``|s| > lam`` and zeroes it otherwise.  The diagonal is never
    touched.  The result is symmetric but need not be positive
    definite.
    """
    S = as_symmetric(S)
    if spec.kind == "soft":
        out = np.sign(S) * np.maximum(np.abs(S) - spec.lam, 0.0)
    else:
        out = np.where(np.abs(S) > spec.lam, S, 0.0)
    out.reshape(-1)[:: S.shape[0] + 1] = S.diagonal()
    return out

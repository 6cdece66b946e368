"""Sparse covariance and correlation estimation by proximal distance.

The core estimator maximizes the Gaussian likelihood under a bound on
the number of nonzero off-diagonal covariance entries, by distance
penalization with a closed-form matrix update and positive definiteness
preserved throughout.  Thresholding baselines, synthetic designs,
evaluation metrics, and cross-validation tuning round out the package;
the ``sparsecov`` command line exposes reproducible workflows.
"""

from .matcore import (
    NotPositiveDefiniteError,
    as_symmetric,
    cholesky_pd,
    inverse_pd,
    is_positive_definite,
    log_det_pd,
    sample_covariance,
    spectral_decompose,
)
from .sparsity import SparsityConstraint, project, squared_distance
from .sylvester import (
    NoConvergenceError,
    SurrogateSystem,
    equation_residual,
    solve_fixed_point,
    solve_kronecker,
    solve_spectral,
)
from .proxdist import (
    FitConfig,
    FitResult,
    fit,
    fit_correlation,
    negative_loglik_loss,
    objective,
    surrogate_gradient,
)
from .baselines import ThresholdSpec, threshold
from .evaluation import (
    MetricReport,
    compute_report,
    entropy_loss,
    gaussian_nll,
    rmse,
)
from .synthdata import (
    ReplicateTable,
    RngStream,
    SimDesign,
    make_design,
    run_replicates,
    sample_mvn,
)
from .tuning import CvRow, CvSpec, cross_validate, default_grid, kfold_split, roc_sweep

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "NotPositiveDefiniteError",
    "as_symmetric",
    "cholesky_pd",
    "inverse_pd",
    "is_positive_definite",
    "log_det_pd",
    "sample_covariance",
    "spectral_decompose",
    "SparsityConstraint",
    "project",
    "squared_distance",
    "NoConvergenceError",
    "SurrogateSystem",
    "equation_residual",
    "solve_fixed_point",
    "solve_kronecker",
    "solve_spectral",
    "FitConfig",
    "FitResult",
    "fit",
    "fit_correlation",
    "negative_loglik_loss",
    "objective",
    "surrogate_gradient",
    "ThresholdSpec",
    "threshold",
    "MetricReport",
    "compute_report",
    "entropy_loss",
    "gaussian_nll",
    "rmse",
    "roc_sweep",
    "ReplicateTable",
    "RngStream",
    "SimDesign",
    "make_design",
    "run_replicates",
    "sample_mvn",
    "CvRow",
    "CvSpec",
    "cross_validate",
    "default_grid",
    "kfold_split",
]

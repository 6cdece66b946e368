"""Sparse covariance and correlation estimation by proximal distance.

The core estimator maximizes the Gaussian likelihood under a bound on
the number of nonzero off-diagonal covariance entries, by distance
penalization with a closed-form matrix update and positive definiteness
preserved throughout.  Thresholding baselines, synthetic designs,
evaluation metrics, and cross-validation tuning round out the package;
the ``sparsecov`` command line exposes reproducible workflows.
"""

from .matcore import *
from .sparsity import *
from .sylvester import *
from .proxdist import *
from .baselines import *
from .evaluation import *
from .synthdata import *
from .tuning import *

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names.  Importing a
# submodule binds it here, so the package exports their union.
__all__ = [
    "__version__",
    *matcore.__all__,
    *sparsity.__all__,
    *sylvester.__all__,
    *proxdist.__all__,
    *baselines.__all__,
    *evaluation.__all__,
    *synthdata.__all__,
    *tuning.__all__,
]

import ast
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import sparsecov

MODULES = sorted(Path(sparsecov.__file__).parent.glob("*.py"))


def _imported_names(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name == "*":
                    # a star import binds the names in its module's __all__
                    names |= _exported_names(path.with_name(f"{node.module}.py"))
                else:
                    names.add(alias.asname or alias.name)
    return names


def _exported_names(path: Path) -> set[str]:
    """A module's literal ``__all__``; the package's is built from its
    modules' at import, so it is read from the package itself."""
    if path.stem == "__init__":
        return set(sparsecov.__all__)
    for node in ast.parse(path.read_text()).body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_public_name_has_a_docstring_and_one_owning_module():
    owners = {}
    for path in MODULES:
        if path.stem != "__init__":
            for name in _exported_names(path):
                owners.setdefault(name, []).append(path.stem)
    assert len(sparsecov.__all__) == len(set(sparsecov.__all__))
    assert set(sparsecov.__all__) == {"__version__", *owners}
    for name, modules in owners.items():
        assert len(modules) == 1, f"{name} is exported by {modules}"
        obj = getattr(sparsecov, name)
        assert obj.__module__ == f"sparsecov.{modules[0]}"
        # a dataclass or NamedTuple without a docstring gets its signature
        doc = obj.__doc__ or ""
        assert doc.strip() and not doc.startswith(f"{name}("), f"{name} has no docstring"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_every_import_is_used_or_exported(path):
    # a name imported only to be reachable from outside the module is dead
    # weight in it; re-exports belong in __all__
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = _imported_names(path) - used - _exported_names(path)
    assert not unused, f"{path.name} imports names it never uses: {sorted(unused)}"


def _loaded_in_fresh_interpreter(code: str) -> list[str]:
    """The scipy and numpy.ma modules loaded after ``code`` runs in a new
    interpreter that imports ``sparsecov`` from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(sparsecov.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    script = (
        f"{code}\nimport sys\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy' "
        "or m == 'numpy.ma' or m.startswith('numpy.ma.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.strip().splitlines()[-1])


def test_import_leaves_scipy_sparse_unloaded():
    # matcore loads scipy's LAPACK wrappers and CSR kernels from their files,
    # without scipy.linalg, which took 0.3 s of a 0.45 s import
    assert _loaded_in_fresh_interpreter("import sparsecov") == []


def test_small_fit_and_grid_load_no_scipy_or_numpy_ma():
    # nor does a fit import scipy.sparse, which took 0.1-0.25 s of the first
    # fit that ran the finish's sparse Hessian kernel: here a p = 100 fit at
    # k = 99, with m = 199 free entries
    code = (
        "import numpy as np, sparsecov\n"
        "X = np.random.default_rng(0).standard_normal((60, 20))\n"
        "S = sparsecov.sample_covariance(X)\n"
        "grid = sparsecov.default_grid('proxdist', S, 10)\n"
        "assert sparsecov.fit(S, sparsecov.SparsityConstraint(int(grid[1]))).converged\n"
        "from sparsecov import proxdist\n"
        "kernels = []\n"
        "class FreeEntries(proxdist._FreeEntries):\n"
        "    def __init__(self, mask):\n"
        "        super().__init__(mask)\n"
        "        kernels.append((self.upper.size, self.sparse))\n"
        "proxdist._FreeEntries = FreeEntries\n"
        "design = sparsecov.SimDesign(kind='moving_average', p=100)\n"
        "rng = sparsecov.RngStream(seed=0, stream_id=100)\n"
        "data = sparsecov.sample_mvn(sparsecov.make_design(design), 500, rng)\n"
        "S = sparsecov.sample_covariance(data)\n"
        "assert sparsecov.fit(S, sparsecov.SparsityConstraint(99)).converged\n"
        "assert kernels == [(199, True)], kernels\n"
    )
    assert _loaded_in_fresh_interpreter(code) == []


def test_cli_help_loads_no_scipy():
    code = (
        "import contextlib, io, sparsecov.cli\n"
        "with contextlib.suppress(SystemExit), contextlib.redirect_stdout(io.StringIO()):\n"
        "    sparsecov.cli.main(['--help'])\n"
    )
    assert _loaded_in_fresh_interpreter(code) == []


# The package's factor and inverse against scipy.linalg.lapack's, and its
# CSR product against scipy.sparse's, bit for bit, after scipy.linalg and
# scipy.sparse have bound their own _flapack and _sparsetools.
_MATCHES_SCIPY = """
import numpy as np
from scipy.linalg.lapack import dpotrf, dpotri
from scipy.sparse import csr_array
assert scipy.linalg._flapack.dpotrf is dpotrf
B = np.random.default_rng(0).standard_normal((20, 20))
M = B @ B.T + 20 * np.eye(20)
M = (M + M.T) / 2
L, info = dpotrf(M, lower=1, clean=1)
assert info == 0
X, info = dpotri(L, lower=1)
assert info == 0
X = np.tril(X) + np.tril(X, -1).T
bits = lambda A: A.view(np.uint64).tobytes(order="A")
assert bits(sc.cholesky_pd(M)) == bits(L)
assert bits(sc.inverse_pd(M)) == bits(X)
indptr, indices = np.array([0, 2, 3, 4] + [4] * 17), np.array([0, 2, 1, 0])
data = np.array([1.5, -0.5, 2.0, -0.5])
V_M = csr_array((data, indices, indptr), shape=(20, 20)) @ M
assert bits(sc.matcore._csr_times(indptr, indices, data, M)) == bits(V_M)
"""


@pytest.mark.parametrize("first", ["scipy.linalg", "sparsecov"])
def test_scipy_linalg_imports_before_and_after_the_package(first):
    imports = ["import scipy.linalg, scipy.sparse", "import sparsecov as sc"]
    if first == "sparsecov":
        imports.reverse()
    else:  # the package binds the modules scipy imported
        imports.append(
            "assert sc.matcore._flapack is scipy.linalg._flapack\n"
            "assert sc.matcore._sparsetools is scipy.sparse._sparsetools"
        )
    loaded = _loaded_in_fresh_interpreter("\n".join(imports) + _MATCHES_SCIPY)
    assert "scipy.linalg._flapack" in loaded
    assert "scipy.sparse._sparsetools" in loaded


def test_lapack_file_load_retries_after_importing_scipy():
    # as on a Windows wheel whose DLLs scipy/__init__ puts on the search
    # path: each module's first file load fails, _flapack's before the
    # retry has imported scipy and _sparsetools' after it
    code = (
        "import importlib.machinery, sys\n"
        "Loader = importlib.machinery.ExtensionFileLoader\n"
        "create, failed = Loader.create_module, {}\n"
        "def create_once(self, spec):\n"
        "    if spec.name.rpartition('.')[2] in ('_flapack', '_sparsetools') "
        "and spec.name not in failed:\n"
        "        failed[spec.name] = 'scipy' in sys.modules\n"
        "        raise ImportError('DLL load failed')\n"
        "    return create(self, spec)\n"
        "Loader.create_module = create_once\n"
        "import numpy as np, sparsecov as sc\n"
        "assert failed == {'scipy.linalg._flapack': False, "
        "'scipy.sparse._sparsetools': True}, failed\n"
        "L = sc.cholesky_pd(np.array([[4.0, 2.0], [2.0, 3.0]]))\n"
        "assert L[0, 0] == 2.0 and L[1, 0] == 1.0 and L[0, 1] == 0.0\n"
        "V = (np.array([0, 1, 2]), np.array([1, 0]), np.array([2.0, 3.0]))\n"
        "assert sc.matcore._csr_times(*V, np.eye(2)).tolist() == [[0, 2], [3, 0]]\n"
    )
    loaded = _loaded_in_fresh_interpreter(code)
    assert "scipy" in loaded
    assert not any(m.startswith(("scipy.linalg", "scipy.sparse")) for m in loaded)


def _inputs():
    # a p = 6 problem whose matrices are exactly symmetric and C-contiguous,
    # the inputs as_symmetric passes through without a copy
    truth = sparsecov.make_design(
        sparsecov.SimDesign(kind="random_sparse", p=6, sparsity_frac=0.2, seed=0)
    )
    data = sparsecov.sample_mvn(truth, 40, sparsecov.RngStream(seed=0, stream_id=1))
    S = sparsecov.sample_covariance(data)
    d = np.sqrt(np.diag(S))
    return {
        "data": data,
        "truth": truth,
        "S": S,
        "R": S / np.outer(d, d),
        "Sigma": np.diag(np.diag(S)),
        "grid": np.array([0.0, 2.0, 4.0]),
    }


C = sparsecov.SparsityConstraint(3)
ENTRY_POINTS = {
    "fit": lambda a: sparsecov.fit(a["S"], C),
    "fit_correlation": lambda a: sparsecov.fit_correlation(a["R"], 3),
    "project": lambda a: sparsecov.project(a["S"], C),
    "squared_distance": lambda a: sparsecov.squared_distance(a["S"], C),
    "objective": lambda a: sparsecov.objective(a["Sigma"], a["S"], C, 1.0),
    "surrogate_gradient": lambda a: sparsecov.surrogate_gradient(
        a["S"], a["Sigma"], a["truth"], C, 1.0
    ),
    "threshold": lambda a: sparsecov.threshold(a["S"], sparsecov.ThresholdSpec(0.1, "soft")),
    "default_grid": lambda a: sparsecov.default_grid("soft", a["S"], 5),
    "cross_validate": lambda a: sparsecov.cross_validate(
        a["data"], "proxdist", sparsecov.CvSpec(grid=a["grid"], folds=4)
    ),
    "cross_validate_nll": lambda a: sparsecov.cross_validate(
        a["data"], "proxdist", sparsecov.CvSpec(grid=a["grid"], folds=4, loss="nll")
    ),
    "spectral_decompose": lambda a: sparsecov.spectral_decompose(a["S"]),
    "compute_report": lambda a: sparsecov.compute_report(a["truth"], a["Sigma"], S=a["S"], n=40),
    "roc_sweep": lambda a: sparsecov.roc_sweep(a["S"], a["truth"], "proxdist", a["grid"]),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_points_leave_their_inputs_unchanged(name):
    # as_symmetric returns an exactly symmetric input itself, so an entry
    # point that wrote into what it returned would write into the caller's
    # array: every input is read-only, and comes back bit for bit
    inputs = _inputs()
    before = {key: value.tobytes() for key, value in inputs.items()}
    for value in inputs.values():
        value.flags.writeable = False
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a boundary choice in CV warns
        ENTRY_POINTS[name](inputs)
    assert {key: value.tobytes() for key, value in inputs.items()} == before

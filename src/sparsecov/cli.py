"""Command-line workflows: simulate, estimate, cv, eval, bench, rerun.

Every command writes its outputs plus a manifest.json recording the
command, its parameters, the seed, and the library version; ``rerun``
replays a manifest and reproduces all outputs byte for byte (only the
manifest timestamp differs), or refuses it with exit code 2 where this
version cannot: a retired rho-schedule setting; the retired CV loss
``entropy``, which scored Stein's loss against the held-out covariance
where ``nll`` scores the held-out Gaussian likelihood; or ``eval``'s
retired ``--support`` mask, since ``eval`` scores an estimate's exact
nonzeros.  Matrices travel as headerless CSV, full p-by-p even when
symmetric, with ``%.17g`` entries that round-trip float64 exactly;
structured results are JSON.  This module is the one that reads and
writes files: the library takes and returns arrays.

Exit codes: 0 success, 2 usage or validation error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.util
import json
import sys
import time
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .matcore import NotPositiveDefiniteError, as_symmetric, sample_covariance
from .evaluation import compute_report
from .proxdist import RHO0, RHO_GROWTH, FitConfig, fit, fit_correlation
from .sparsity import SparsityConstraint
from .synthdata import RngStream, SimDesign, make_design, sample_mvn
from .tuning import LOSSES, METHODS, CvSpec, _estimate, cross_validate, default_grid

DESIGN_ALIASES = {
    "independent": "independent",
    "ma": "moving_average",
    "cliques": "cliques",
    "random": "random_sparse",
}

# Schedule settings that ``estimate`` manifests carried while the rho
# schedule took flags, with the only values that the fixed schedule
# replays.
RETIRED_SETTINGS = {"rho0": RHO0, "rho_growth": RHO_GROWTH, "tol": 1e-6}


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _jsonable(obj):
    """Recursively convert numpy scalars and non-finite floats for JSON."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _save_matrix_csv(path, M: np.ndarray, fmt: str = "%.17g") -> None:
    """Write a matrix as headerless comma-separated rows."""
    np.savetxt(path, np.atleast_2d(np.asarray(M, dtype=float)), fmt=fmt, delimiter=",")


def _load_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def _load_symmetric_csv(path) -> np.ndarray:
    """A symmetric matrix from headerless CSV, checked by ``as_symmetric``."""
    return as_symmetric(_load_csv(path))


def _load_data_csv(path) -> np.ndarray:
    """A finite n-by-p data matrix from headerless CSV."""
    X = _load_csv(path)
    if not np.all(np.isfinite(X)):
        raise ValueError(f"{path}: data contains non-finite entries")
    return X


def _load_grid(path) -> np.ndarray:
    """A ``cv`` grid from headerless CSV: one row, or one value per line."""
    M = _load_csv(path)
    if min(M.shape) > 1:
        raise ValueError(
            f"{path}: a grid is one row or one value per line, not a "
            f"{M.shape[0]} x {M.shape[1]} table"
        )
    return M.reshape(-1)


def _ensure_dir(path: str) -> Path:
    """Create the output directory; each command calls it once its
    parameters are checked, so a rejected command leaves none behind."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _run_simulate(params: dict, out: str) -> None:
    design = SimDesign(
        kind=DESIGN_ALIASES[params["design"]],
        p=params["p"],
        sparsity_frac=params["sparsity"],
        seed=params["seed"],
    )
    truth = make_design(design)
    data = sample_mvn(truth, params["n"], RngStream(seed=design.seed, stream_id=1))
    out_dir = _ensure_dir(out)
    _save_matrix_csv(out_dir / "truth.csv", truth)
    _save_matrix_csv(out_dir / "data.csv", data)


def _load_covariance(params: dict) -> np.ndarray:
    """The working covariance: the given matrix, or the data's sample covariance."""
    if params["cov"]:
        return _load_symmetric_csv(params["cov"])
    return sample_covariance(_load_data_csv(params["input"]))


def _run_estimate(params: dict, out: str) -> None:
    S = _load_covariance(params)
    ridge = params["ridge"]
    cfg = FitConfig(ridge_delta=0.0 if ridge == "auto" else float(ridge))
    k = params["k"]
    if params["mode"] == "corr":
        var = np.diag(S)
        zero = np.flatnonzero(var <= 0)
        if zero.size:
            raise ValueError(
                "correlation mode needs positive variances; zero-based "
                f"column(s) {', '.join(map(str, zero))} have no positive variance"
            )
        d = np.sqrt(var)
        R = S / np.outer(d, d)
        R[np.diag_indices_from(R)] = 1.0
        result = fit_correlation(R, k, cfg)
    else:
        result = fit(S, SparsityConstraint(k=k), cfg)
    out_dir = _ensure_dir(out)
    _save_matrix_csv(out_dir / "sigma_hat.csv", result.sigma_hat)
    _save_matrix_csv(out_dir / "support.csv", result.support, fmt="%d")
    _write_json(
        out_dir / "fit.json",
        {
            "objective_trace": result.objective_trace,
            "rho_trace": result.rho_trace,
            "iterations": result.iterations,
            "halvings": result.total_halvings,
            "converged": result.converged,
            "final_penalty": result.final_penalty,
            "ridge_delta": result.ridge_delta,
        },
    )


def _run_cv(params: dict, out: str) -> None:
    data = _load_data_csv(params["input"])
    S = sample_covariance(data)
    method = params["method"]
    if params["grid_file"]:
        grid = _load_grid(params["grid_file"])
    else:
        grid = default_grid(method, S, params["grid_size"])
    spec = CvSpec(
        grid=grid, folds=params["folds"], loss=params["loss"], seed=params["seed"]
    )
    best, table = cross_validate(data, method, spec)
    sigma_hat = _estimate(method, S, best, FitConfig())
    out_dir = _ensure_dir(out)
    with open(out_dir / "cv_table.csv", "w") as fh:
        fh.write("param,mean_loss,stderr,n_folds,boundary_flag\n")
        for row in table:
            fh.write(
                f"{row.param:.17g},{row.mean_loss:.17g},{row.stderr:.17g},"
                f"{row.n_folds},{int(row.boundary)}\n"
            )
    boundary = any(row.boundary for row in table)
    _write_json(
        out_dir / "best_param.json",
        {"method": method, "best_param": best, "boundary": boundary},
    )
    _save_matrix_csv(out_dir / "sigma_hat.csv", sigma_hat)


def _run_eval(params: dict, out: str) -> None:
    truth = _load_symmetric_csv(params["truth"])
    estimate = _load_symmetric_csv(params["estimate"])
    S = None
    n = None
    if params["data"]:
        data = _load_data_csv(params["data"])
        S = sample_covariance(data)
        n = data.shape[0]
    report = compute_report(truth, estimate, S=S, n=n)
    out_dir = _ensure_dir(out)
    _write_json(out_dir / "metrics.json", report.to_dict())


def _openblas_thread_counters(package: str) -> list[tuple]:
    """``(get, set)``, ``scipy_openblas_{get,set}_num_threads<suffix>``, of
    each OpenBLAS copy bundled in ``package``'s wheel that exports both,
    found without importing the package.

    numpy's and scipy's wheels bundle ``libscipy_openblas*`` beside the
    package, in ``<package>.libs``, on Linux and Windows, and inside it, in
    ``<package>/.dylibs``, on macOS; a conda or system install bundles none.
    The suffix is ``64_`` in an ILP64 build and empty in an LP64 one.
    """
    spec = importlib.util.find_spec(package)
    if spec is None or not spec.submodule_search_locations:
        return []
    root = Path(list(spec.submodule_search_locations)[0])
    found = []
    for folder in (root.parent / f"{package}.libs", root / ".dylibs"):
        for path in sorted(folder.glob("libscipy_openblas*")):
            if path.suffix not in (".so", ".dylib", ".dll"):
                continue
            try:
                lib = ctypes.CDLL(str(path))
            except OSError:
                continue
            for suffix in ("64_", ""):
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    get.restype, get.argtypes = ctypes.c_int, []
                    set_.restype, set_.argtypes = None, [ctypes.c_int]
                    found.append((get, set_))
                    break
    return found


@contextmanager
def _single_blas_thread():
    """Run the block with the OpenBLAS copies bundled in numpy and scipy on
    one thread each, then restore their previous thread counts.

    With several threads, thread start-up dominates the small fits of a
    bench and flattens its scaling curve.  A library without the
    ``scipy_openblas_{get,set}_num_threads[64_]`` symbols is left alone.
    """
    restore = []
    for package in ("numpy", "scipy"):
        for get, set_ in _openblas_thread_counters(package):
            restore.append((set_, get()))
            set_(1)
    try:
        yield
    finally:
        for set_, threads in restore:
            set_(threads)


def _run_bench(params: dict, out: str) -> None:
    p_list = params["p_list"]
    n = params["n"]
    reps = params["reps"]
    if reps < 1:
        raise ValueError(f"--reps must be at least 1, got {reps}")
    seed = params["seed"]
    rows = []
    # One BLAS thread for the whole loop, data generation included: an idle
    # OpenBLAS worker left spinning by a threaded call slows the fits
    # beside it, the small ones most.
    with _single_blas_thread():
        for p in p_list:
            # Banded truth: positive definite at every dimension, unlike
            # random sparse draws whose rejection step stalls for large p.
            design = SimDesign(kind="moving_average", p=p, seed=seed)
            truth = make_design(design)
            data = sample_mvn(truth, n, RngStream(seed=seed, stream_id=p))
            S = sample_covariance(data)
            k = max(1, round(0.02 * p * (p - 1) / 2))
            times = []
            iterations = 0
            # The first fit of a size runs slower than the ones after it
            # and would flatten the scaling curve at its small end, so an
            # untimed fit goes first.  It alone reports its finish steps
            # and Hessian products through the callback, so that the timed
            # fits run without one.
            events = []
            fit(S, SparsityConstraint(k=k), callback=events.append)
            products = [ev["cg_products"] for ev in events]
            finish = sum(1 for count in products if count), sum(products)
            for _ in range(reps):
                start = time.perf_counter()
                result = fit(S, SparsityConstraint(k=k))
                times.append(time.perf_counter() - start)
                iterations = result.iterations
            rows.append((p, float(np.median(times)), iterations, *finish))
    out_dir = _ensure_dir(out)
    with open(out_dir / "bench.csv", "w") as fh:
        fh.write("p,median_seconds,iterations,finish_steps,cg_products\n")
        for p, secs, iters, steps, products in rows:
            fh.write(f"{p},{secs:.17g},{iters},{steps},{products}\n")
    if len(rows) >= 2:
        logs = np.log([r[0] for r in rows]), np.log([r[1] for r in rows])
        slope = float(np.polyfit(logs[0], logs[1], 1)[0])
        print(f"log-log slope of seconds vs p: {slope:.3f}")


COMMANDS = {
    "simulate": _run_simulate,
    "estimate": _run_estimate,
    "cv": _run_cv,
    "eval": _run_eval,
    "bench": _run_bench,
}


def _run(command: str, params: dict, out: str) -> None:
    """Run one command into ``out``, then record its manifest there."""
    COMMANDS[command](params, out)
    _write_json(
        Path(out) / "manifest.json",
        {
            "command": command,
            "parameters": params,
            "seed": params.get("seed", 0),
            "library_version": __version__,
            "timestamp": _utc_now(),
        },
    )


def _run_rerun(manifest_path: str, override_dir: str | None) -> None:
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    command = manifest["command"]
    if command not in COMMANDS:
        raise ValueError(f"manifest names unknown command {command!r}")
    params = manifest["parameters"]
    # a replay must not drop a setting that changed the fit or the scores
    for key, value in RETIRED_SETTINGS.items():
        recorded = params.pop(key, value)
        if recorded != value:
            raise ValueError(
                f"manifest sets {key}={recorded!r}, but the rho schedule is "
                f"fixed and replays only {key}={value!r}"
            )
    if params.get("support") is not None:
        raise ValueError(
            f"manifest scores on the mask {params['support']!r}, but eval's "
            "--support is retired: an estimate's support is its exact nonzeros"
        )
    _run(command, params, override_dir or params["out_dir"])


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsecov",
        description="Sparse covariance estimation workflows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a ground truth and dataset")
    p_sim.add_argument("--design", required=True, choices=sorted(DESIGN_ALIASES))
    p_sim.add_argument("--p", type=int, required=True)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--sparsity", type=float, default=0.02)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out-dir", required=True)

    p_est = sub.add_parser("estimate", help="fit a sparse covariance matrix")
    src = p_est.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="data matrix CSV, one row per observation")
    src.add_argument("--cov", help="sample covariance CSV")
    p_est.add_argument("--k", type=int, required=True)
    p_est.add_argument("--mode", choices=("cov", "corr"), default="cov")
    p_est.add_argument("--ridge", default="auto", help='"auto" or a ridge value')
    p_est.add_argument("--out", dest="out_dir", required=True, help="output directory")

    p_cv = sub.add_parser("cv", help="cross-validate a tuning parameter")
    p_cv.add_argument("--input", required=True)
    p_cv.add_argument("--method", required=True, choices=METHODS)
    p_cv.add_argument("--folds", type=int, default=5)
    grid = p_cv.add_mutually_exclusive_group()
    grid.add_argument("--grid-size", type=int, default=40)
    grid.add_argument("--grid-file", help="grid CSV: one row, or one value per line")
    p_cv.add_argument(
        "--loss",
        choices=LOSSES,
        default="frobenius",
        help="held-out score of each fold: the Frobenius distance to its sample "
        "covariance, or nll, its Gaussian negative log-likelihood",
    )
    p_cv.add_argument("--seed", type=int, default=0)
    p_cv.add_argument("--out", dest="out_dir", required=True, help="output directory")

    p_eval = sub.add_parser("eval", help="score an estimate against a truth")
    p_eval.add_argument("--truth", required=True)
    p_eval.add_argument("--estimate", required=True)
    p_eval.add_argument("--data", help="optional data CSV for likelihood criteria")
    p_eval.add_argument("--out", dest="out_dir", required=True, help="output directory")

    p_bench = sub.add_parser("bench", help="time fits across dimensions")
    p_bench.add_argument(
        "--p-list",
        type=_int_list,
        required=True,
        help="comma-separated dimensions, e.g. 50,100,200",
    )
    p_bench.add_argument("--n", type=int, required=True)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--reps", type=int, default=3)
    p_bench.add_argument("--out-dir", default=".")

    p_rerun = sub.add_parser("rerun", help="replay a recorded manifest")
    p_rerun.add_argument("manifest")
    p_rerun.add_argument("--out-dir", help="override the output directory")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "rerun":
            _run_rerun(args.manifest, args.out_dir)
        else:
            # The output directory stays among the parameters, so the
            # manifest alone suffices to replay the command.
            params = vars(args)
            command = params.pop("command")
            _run(command, params, params["out_dir"])
    except (NotPositiveDefiniteError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

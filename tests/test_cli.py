import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import sparsecov as sc
from sparsecov import cli
from sparsecov.cli import main


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture()
def sim_dir(tmp_path):
    out = tmp_path / "sim"
    code = main(
        [
            "simulate",
            "--design",
            "random",
            "--p",
            "12",
            "--n",
            "60",
            "--sparsity",
            "0.05",
            "--seed",
            "3",
            "--out-dir",
            str(out),
        ]
    )
    assert code == 0
    return out


def test_simulate_outputs(sim_dir):
    truth = sc.load_symmetric_csv(sim_dir / "truth.csv")
    data = sc.load_data_csv(sim_dir / "data.csv")
    assert truth.shape == (12, 12)
    assert data.shape == (60, 12)
    manifest = _read_json(sim_dir / "manifest.json")
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 3
    assert manifest["library_version"] == sc.__version__
    assert "timestamp" in manifest
    assert manifest["parameters"]["p"] == 12


def test_simulate_deterministic(tmp_path):
    args = ["simulate", "--design", "ma", "--p", "6", "--n", "20", "--seed", "7"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out-dir", str(a)]) == 0
    assert main(args + ["--out-dir", str(b)]) == 0
    assert (a / "data.csv").read_bytes() == (b / "data.csv").read_bytes()


def test_estimate_from_data(sim_dir, tmp_path):
    out = tmp_path / "est"
    code = main(
        ["estimate", "--input", str(sim_dir / "data.csv"), "--k", "3", "--out", str(out)]
    )
    assert code == 0
    est = sc.load_symmetric_csv(out / "sigma_hat.csv")
    assert sc.is_positive_definite(est)
    info = _read_json(out / "fit.json")
    assert info["converged"] is True
    assert info["iterations"] == len(info["objective_trace"])
    assert info["iterations"] == len(info["rho_trace"])
    assert info["final_penalty"] >= 0.0
    assert info["ridge_delta"] == 0.0


def test_estimate_correlation_mode(sim_dir, tmp_path):
    out = tmp_path / "corr"
    code = main(
        [
            "estimate",
            "--input",
            str(sim_dir / "data.csv"),
            "--k",
            "2",
            "--mode",
            "corr",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    est = sc.load_symmetric_csv(out / "sigma_hat.csv")
    # the raw iterate meets the unit-diagonal constraint in the rho limit
    np.testing.assert_allclose(np.diag(est), np.ones(12), atol=1e-4)


def test_estimate_from_covariance_matrix(tmp_path):
    cov_path = tmp_path / "cov.csv"
    sc.save_matrix_csv(cov_path, np.diag([2.0, 3.0, 4.0]))
    out = tmp_path / "est"
    code = main(["estimate", "--cov", str(cov_path), "--k", "0", "--out", str(out)])
    assert code == 0
    est = sc.load_symmetric_csv(out / "sigma_hat.csv")
    np.testing.assert_allclose(est, np.diag([2.0, 3.0, 4.0]), atol=1e-8)


def test_rerun_replays_byte_identical(sim_dir, tmp_path):
    first = tmp_path / "fit1"
    assert (
        main(
            [
                "estimate",
                "--input",
                str(sim_dir / "data.csv"),
                "--k",
                "3",
                "--out",
                str(first),
            ]
        )
        == 0
    )
    second = tmp_path / "fit2"
    code = main(["rerun", str(first / "manifest.json"), "--out-dir", str(second)])
    assert code == 0
    assert (first / "sigma_hat.csv").read_bytes() == (second / "sigma_hat.csv").read_bytes()
    m1 = _read_json(first / "manifest.json")
    m2 = _read_json(second / "manifest.json")
    m1.pop("timestamp")
    m2.pop("timestamp")
    assert m1 == m2


def test_cv_outputs(sim_dir, tmp_path):
    out = tmp_path / "cv"
    code = main(
        [
            "cv",
            "--input",
            str(sim_dir / "data.csv"),
            "--method",
            "soft",
            "--folds",
            "3",
            "--grid-size",
            "6",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = (out / "cv_table.csv").read_text().strip().splitlines()
    assert lines[0] == "param,mean_loss,stderr,n_folds,boundary_flag"
    assert len(lines) == 1 + 6
    best = _read_json(out / "best_param.json")
    assert best["method"] == "soft"
    assert isinstance(best["best_param"], float)
    est = sc.load_symmetric_csv(out / "sigma_hat.csv")
    assert est.shape == (12, 12)


def test_eval_outputs(sim_dir, tmp_path):
    est_dir = tmp_path / "est"
    main(
        [
            "estimate",
            "--input",
            str(sim_dir / "data.csv"),
            "--k",
            "3",
            "--out",
            str(est_dir),
        ]
    )
    out = tmp_path / "ev"
    code = main(
        [
            "eval",
            "--truth",
            str(sim_dir / "truth.csv"),
            "--estimate",
            str(est_dir / "sigma_hat.csv"),
            "--data",
            str(sim_dir / "data.csv"),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    metrics = _read_json(out / "metrics.json")
    for key in ("entropy_loss", "rmse", "fp_rate", "fn_rate", "aic", "bic", "ebic", "nnz"):
        assert key in metrics
    assert metrics["rmse"] >= 0.0

    # the fit's own support holds its k pairs; the estimate is exactly
    # sparse on it, so the default tolerance counts the same k
    support = np.loadtxt(est_dir / "support.csv", delimiter=",")
    assert set(np.unique(support)) <= {0.0, 1.0}
    assert np.count_nonzero(np.triu(support, 1)) == 3
    scored = tmp_path / "ev_support"
    args = ["eval", "--truth", str(sim_dir / "truth.csv"),
            "--estimate", str(est_dir / "sigma_hat.csv"), "--out", str(scored)]
    assert main(args + ["--support", str(est_dir / "support.csv")]) == 0
    assert _read_json(scored / "metrics.json")["nnz"] == 3
    assert metrics["nnz"] == 3

    bad = tmp_path / "bad_support.csv"
    np.savetxt(bad, np.full((12, 12), 0.5), delimiter=",")
    assert main(args + ["--support", str(bad)]) == 2


def test_bench_outputs(tmp_path, monkeypatch):
    fit_sizes = []
    fit = cli.fit

    def counted(S, *args, **kwargs):
        fit_sizes.append(S.shape[0])
        return fit(S, *args, **kwargs)

    monkeypatch.setattr(cli, "fit", counted)
    out = tmp_path / "bench"
    code = main(
        [
            "bench",
            "--p-list",
            "10,20",
            "--n",
            "80",
            "--reps",
            "1",
            "--out-dir",
            str(out),
        ]
    )
    assert code == 0
    lines = (out / "bench.csv").read_text().strip().splitlines()
    assert lines[0] == "p,median_seconds,iterations"
    assert len(lines) == 3
    manifest = _read_json(out / "manifest.json")
    assert manifest["parameters"]["p_list"] == [10, 20]
    # one untimed warm-up fit per p, then the timed reps
    assert fit_sizes == [10, 10, 20, 20]


def test_bench_rejects_zero_reps(tmp_path, monkeypatch):
    fits = []
    monkeypatch.setattr(cli, "fit", lambda *args, **kwargs: fits.append(args))
    out = tmp_path / "bench"
    code = main(["bench", "--p-list", "10", "--n", "80", "--reps", "0", "--out-dir", str(out)])
    assert code == 2
    assert fits == []
    assert not (out / "bench.csv").exists()


def test_rerun_replays_a_manifest_with_the_retired_schedule_settings(sim_dir, tmp_path):
    # manifests written while the schedule took flags carry their defaults;
    # a replay drops them and reproduces a fresh estimate byte for byte
    fresh = tmp_path / "fresh"
    argv = ["estimate", "--input", str(sim_dir / "data.csv"), "--k", "3", "--out", str(fresh)]
    assert main(argv) == 0
    manifest = _read_json(fresh / "manifest.json")
    manifest["parameters"].update({"rho0": 0.1, "rho_growth": 1.2, "tol": 1e-06})
    old = tmp_path / "old_manifest.json"
    old.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    replay = tmp_path / "replay"
    assert main(["rerun", str(old), "--out-dir", str(replay)]) == 0
    names = sorted(path.name for path in fresh.iterdir())
    assert names == sorted(path.name for path in replay.iterdir())
    for name in names:
        ours, theirs = ((d / name).read_bytes().splitlines() for d in (fresh, replay))
        if name == "manifest.json":
            ours, theirs = ([ln for ln in lines if b'"timestamp"' not in ln] for lines in (ours, theirs))
        assert ours == theirs, name


def test_rejected_command_creates_no_output_directory(sim_dir, tmp_path, capsys):
    out = tmp_path / "od" / "x"
    assert main(["bench", "--p-list", "10", "--n", "50", "--reps", "0", "--out-dir", str(out)]) == 2
    missing = str(tmp_path / "nope.csv")
    assert main(["estimate", "--input", missing, "--k", "1", "--out", str(out)]) == 2
    data = str(sim_dir / "data.csv")
    argv = ["estimate", "--input", data, "--k", "1", "--ridge", "nan", "--out", str(out)]
    assert main(argv) == 2
    grid = tmp_path / "grid.csv"
    grid.write_text("0\nnan\n0.2\n")
    argv = ["cv", "--input", data, "--method", "soft", "--grid-file", str(grid), "--out", str(out)]
    assert main(argv) == 2
    # a replay that would drop a schedule setting the fixed schedule lacks
    manifest = tmp_path / "manifest.json"
    params = {"input": data, "cov": None, "k": 1, "mode": "cov", "ridge": "auto"}
    params.update({"out_dir": str(out), "rho0": 0.5, "rho_growth": 1.2, "tol": 1e-06})
    manifest.write_text(json.dumps({"command": "estimate", "parameters": params}))
    assert main(["rerun", str(manifest)]) == 2
    # an indefinite covariance, eigenvalues -1 and 3
    indefinite = tmp_path / "indefinite.csv"
    sc.save_matrix_csv(indefinite, np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert main(["estimate", "--cov", str(indefinite), "--k", "1", "--out", str(out)]) == 2
    # correlation mode on data with an all-zero column
    zero_column = tmp_path / "zero_column.csv"
    np.savetxt(zero_column, [[1.0, 0.0, 2.0], [2.0, 0.0, 1.0], [-1.0, 0.0, 3.0]], delimiter=",")
    argv = ["estimate", "--input", str(zero_column), "--k", "1", "--mode", "corr", "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    assert "column(s) 1 " in capsys.readouterr().err
    assert not (tmp_path / "od").exists()


def test_missing_input_is_usage_error(tmp_path):
    code = main(
        ["estimate", "--input", str(tmp_path / "nope.csv"), "--k", "1", "--out", str(tmp_path)]
    )
    assert code == 2


def test_numerical_failure_exit_code(tmp_path):
    cov_path = tmp_path / "zero.csv"
    sc.save_matrix_csv(cov_path, np.zeros((3, 3)))
    code = main(["estimate", "--cov", str(cov_path), "--k", "0", "--out", str(tmp_path)])
    assert code == 3


def test_console_script_help():
    """The declared ``sparsecov`` console script prints help listing every command.

    The target comes from ``[project.scripts]`` and runs in a fresh interpreter
    the way an installed wrapper script runs it, against the package imported
    here, so the check needs no install step and cannot pick up another copy.
    """
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["sparsecov"]
    module, func = (part.strip() for part in target.split(":"))
    wrapper = (
        "import sys\n"
        f"from {module} import {func}\n"
        "sys.argv[0] = 'sparsecov'\n"
        f"sys.exit({func}())\n"
    )
    src_root = str(Path(sc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src_root, os.environ.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "--help"],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: sparsecov")
    listed = re.search(r"\{([\w,-]+)\}", proc.stdout)
    assert listed, proc.stdout
    commands = set(listed.group(1).split(","))
    assert {"simulate", "estimate", "cv", "eval", "bench", "rerun"} <= commands

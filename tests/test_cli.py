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


def test_matrix_csv_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(3)
    B = rng.standard_normal((4, 4))
    M = (B + B.T) / 2
    path = tmp_path / "m.csv"
    cli._save_matrix_csv(path, M)
    back = cli._load_symmetric_csv(path)
    assert np.array_equal(back, M)


def test_load_data_csv_shape(tmp_path):
    data = np.arange(12.0).reshape(6, 2)
    path = tmp_path / "d.csv"
    cli._save_matrix_csv(path, data)
    back = cli._load_data_csv(path)
    assert back.shape == (6, 2)
    assert np.array_equal(back, data)


def test_csv_loaders_reject_asymmetric_and_non_finite_input(tmp_path):
    asymmetric = tmp_path / "asymmetric.csv"
    cli._save_matrix_csv(asymmetric, np.array([[1.0, 5.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="asymmetric"):
        cli._load_symmetric_csv(asymmetric)
    nan = tmp_path / "nan.csv"
    cli._save_matrix_csv(nan, np.array([[1.0, np.nan], [0.5, 2.0]]))
    with pytest.raises(ValueError, match="non-finite"):
        cli._load_data_csv(nan)
    argv = ["eval", "--truth", str(asymmetric), "--estimate", str(asymmetric)]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2


def test_simulate_outputs(sim_dir):
    truth = cli._load_symmetric_csv(sim_dir / "truth.csv")
    data = cli._load_data_csv(sim_dir / "data.csv")
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
    est = cli._load_symmetric_csv(out / "sigma_hat.csv")
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
    est = cli._load_symmetric_csv(out / "sigma_hat.csv")
    # the raw iterate meets the unit-diagonal constraint in the rho limit
    np.testing.assert_allclose(np.diag(est), np.ones(12), atol=1e-4)


def test_estimate_from_covariance_matrix(tmp_path):
    cov_path = tmp_path / "cov.csv"
    cli._save_matrix_csv(cov_path, np.diag([2.0, 3.0, 4.0]))
    out = tmp_path / "est"
    code = main(["estimate", "--cov", str(cov_path), "--k", "0", "--out", str(out)])
    assert code == 0
    est = cli._load_symmetric_csv(out / "sigma_hat.csv")
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
    est = cli._load_symmetric_csv(out / "sigma_hat.csv")
    assert est.shape == (12, 12)


def test_cv_reads_a_grid_csv_as_one_row_or_one_value_per_line(sim_dir, tmp_path, capsys):
    data = str(sim_dir / "data.csv")
    tables = []
    for name, text in (("row", "0,2,66\n"), ("column", "0\n2\n66\n")):
        grid = tmp_path / f"{name}.csv"
        grid.write_text(text)
        out = tmp_path / name
        argv = ["cv", "--input", data, "--method", "proxdist", "--folds", "3"]
        assert main([*argv, "--grid-file", str(grid), "--out", str(out)]) == 0
        tables.append((out / "cv_table.csv").read_text())
    assert tables[0] == tables[1]
    params = [line.split(",")[0] for line in tables[0].splitlines()[1:]]
    assert params == ["0", "2", "66"]
    table = tmp_path / "table.csv"
    table.write_text("0,2\n4,6\n")
    argv = ["cv", "--input", data, "--method", "proxdist", "--grid-file", str(table)]
    assert main([*argv, "--out", str(tmp_path / "rejected")]) == 2
    assert str(table) in capsys.readouterr().err
    assert not (tmp_path / "rejected").exists()


def test_cv_and_its_replay_refuse_the_retired_entropy_loss(sim_dir, tmp_path, capsys):
    # "entropy" scored Stein's loss against the held-out covariance; nll
    # scores the held-out likelihood, so neither a new run nor a replay of
    # an old manifest may quietly swap one for the other
    data = str(sim_dir / "data.csv")
    argv = ["cv", "--input", data, "--method", "proxdist", "--folds", "3", "--grid-size", "3"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--loss", "entropy", "--out", str(tmp_path / "old")])
    assert exc.value.code == 2
    assert "nll" in capsys.readouterr().err
    fresh = tmp_path / "fresh"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a boundary choice warns
        assert main([*argv, "--loss", "nll", "--out", str(fresh)]) == 0
    manifest = _read_json(fresh / "manifest.json")
    manifest["parameters"]["loss"] = "entropy"
    old = tmp_path / "old_manifest.json"
    old.write_text(json.dumps(manifest))
    assert main(["rerun", str(old), "--out-dir", str(tmp_path / "replay")]) == 2
    assert "nll" in capsys.readouterr().err
    assert not (tmp_path / "replay").exists()


def test_eval_and_its_replay_refuse_the_retired_support_mask(sim_dir, tmp_path, capsys):
    # eval scores an estimate's exact nonzeros, so neither a new run nor a
    # replay of an old manifest may score a support.csv mask instead
    est_dir = tmp_path / "est"
    assert main(["estimate", "--input", str(sim_dir / "data.csv"), "--k", "3",
                 "--out", str(est_dir)]) == 0
    mask = str(est_dir / "support.csv")
    argv = ["eval", "--truth", str(sim_dir / "truth.csv"),
            "--estimate", str(est_dir / "sigma_hat.csv")]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--support", mask, "--out", str(tmp_path / "old")])
    assert exc.value.code == 2
    assert "--support" in capsys.readouterr().err
    assert not (tmp_path / "old").exists()
    fresh = tmp_path / "fresh"
    assert main([*argv, "--out", str(fresh)]) == 0
    manifest = _read_json(fresh / "manifest.json")
    manifest["parameters"]["support"] = mask
    old = tmp_path / "old_manifest.json"
    old.write_text(json.dumps(manifest))
    assert main(["rerun", str(old), "--out-dir", str(tmp_path / "replay")]) == 2
    assert "--support" in capsys.readouterr().err
    assert not (tmp_path / "replay").exists()
    # a manifest that recorded the flag unset still replays byte for byte
    manifest["parameters"]["support"] = None
    old.write_text(json.dumps(manifest))
    assert main(["rerun", str(old), "--out-dir", str(tmp_path / "plain")]) == 0
    assert (tmp_path / "plain" / "metrics.json").read_bytes() == (
        fresh / "metrics.json"
    ).read_bytes()


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

    # the fit's own support holds its k pairs and is the estimate's exact
    # nonzeros, which eval counts
    support = np.loadtxt(est_dir / "support.csv", delimiter=",")
    assert set(np.unique(support)) <= {0.0, 1.0}
    assert np.count_nonzero(np.triu(support, 1)) == 3
    sigma_hat = np.loadtxt(est_dir / "sigma_hat.csv", delimiter=",")
    assert np.array_equal(support == 1.0, sigma_hat != 0.0)
    assert metrics["nnz"] == 3


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
    assert lines[0] == "p,median_seconds,iterations,finish_steps,cg_products"
    assert len(lines) == 3
    for line in lines[1:]:
        p, _, iterations, steps, products = line.split(",")
        assert 0 < int(steps) <= int(iterations) and int(steps) <= int(products)
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
    cli._save_matrix_csv(indefinite, np.array([[1.0, 2.0], [2.0, 1.0]]))
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
    cli._save_matrix_csv(cov_path, np.zeros((3, 3)))
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


def test_single_blas_thread_sets_and_restores_the_bundled_openblas():
    counters = [
        counter
        for package in ("numpy", "scipy")
        for counter in cli._openblas_thread_counters(package)
    ]
    if not counters:
        pytest.skip("neither numpy nor scipy bundles OpenBLAS")
    before = [get() for get, _ in counters]
    try:
        for _, set_ in counters:
            set_(2)
        with cli._single_blas_thread():
            assert [get() for get, _ in counters] == [1] * len(counters)
        assert [get() for get, _ in counters] == [2] * len(counters)
    finally:
        for (_, set_), threads in zip(counters, before):
            set_(threads)

"""Run one benchmark workload against the package in ``src/``.

    python3 benchmark/run.py --workload fit_p200 --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run times whole rounds of the workload for up to
``--seconds`` seconds, rescales the times to the reference host speed that
``hostspeed`` measures, and prints the end-to-end metrics; with ``--trace 1``
it runs one round under the per-layer tracer and prints the per-layer
metrics.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A copy with the
host description goes to ``benchmark/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One compute thread, set before numpy loads: the 2-CPU reference host
# times the tuned study at 30-38 s with the default thread pool and 26 s
# with one worker, so more threads would time the scheduler.
THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "SPARSECOV_THREADS": "1",
}
os.environ.update(THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 7  # this process plus six fresh interpreters
SETUP_PROBES = 10  # host-speed probes after each set-up


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import the package, build the inputs, print the seconds taken")
    return ap.parse_args(argv)


def setup(name: str, seed: int):
    """Import the package and build the workload's inputs; return (workload, inputs, seconds)."""
    start = time.perf_counter()
    from workloads import WORKLOADS

    if name not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[name]
    inputs = workload.build(seed)
    return workload, inputs, time.perf_counter() - start


def setup_in_child(name: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.split()[-1])


def host_info() -> dict:
    import ctypes
    import glob

    import numpy
    import scipy

    blas = []
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "libscipy_openblas*.so"))):
            entry = {"package": pkg.__name__, "library": Path(path).name}
            lib = ctypes.CDLL(path)
            for suffix in ("64_", ""):
                getter = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
                if getter is not None:
                    getter.restype, getter.argtypes = ctypes.c_int, []
                    entry["threads"] = getter()
                if config is not None:
                    config.restype, config.argtypes = ctypes.c_char_p, []
                    entry["config"] = config().decode()
                if getter is not None:
                    break
            blas.append(entry)
    return {
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "env": {k: os.environ.get(k) for k in THREADS},
    }


def run_round(workload, inputs, clock=None):
    """One round after a garbage collection: (produced, seconds, probes).

    With a ``HostClock`` the seconds are net of the probes it ran.
    """
    import gc

    gc.collect()
    if clock is not None:
        return clock.time(lambda tick: workload.run(inputs, tick))
    start = time.perf_counter()
    produced = workload.run(inputs)
    return produced, time.perf_counter() - start, []


def end_to_end(workload, inputs, seconds: float, own_setup: float, args) -> tuple[dict, list, dict]:
    import tracemalloc

    import checks
    from hostspeed import HostClock, probe_seconds, rescaled

    # the set-ups run in fresh interpreters that no callback reaches, so
    # the probes right after each one stand for the host's speed during it
    setups, setup_probes = [own_setup], [[probe_seconds() for _ in range(SETUP_PROBES)]]
    for _ in range(SETUP_REPEATS - 1):
        setups.append(setup_in_child(args.workload, args.seed))
        setup_probes.append([probe_seconds() for _ in range(SETUP_PROBES)])
    clock = HostClock()
    outcomes, walls, nets, probes = [], [], [], []
    started, round_s = time.perf_counter(), 0.0
    # whole rounds only, and none that would end past the deadline, so a
    # round longer than the run is timed exactly once
    while not walls or time.perf_counter() - started + round_s <= seconds:
        round_start = time.perf_counter()
        produced, net, round_probes = run_round(workload, inputs, clock)
        round_s = time.perf_counter() - round_start
        walls.append(rescaled(net, round_probes))
        nets.append(net)
        probes.append(round_probes)
        outcomes.append(workload.outcome(inputs, produced))

    # memory is measured on a round of its own: tracemalloc slows the
    # interpreter, so it stays off while rounds are timed
    tracemalloc.start()
    produced, _, _ = run_round(workload, inputs)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    outcomes.append(workload.outcome(inputs, produced))

    problems = []
    if any(o.fingerprint != outcomes[0].fingerprint for o in outcomes):
        problems.append("rounds on the same inputs gave results that are not bit-identical")
    losses = [checks.entropy_loss(case.truth, res.sigma_hat) for res, case in outcomes[0].estimates]
    metrics = {
        "setup_s": (statistics.median(map(rescaled, setups, setup_probes)), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "entropy_loss": (statistics.fmean(losses) if losses else float("nan"), "nats"),
        "peak_mb": (peak / 1e6, "MB"),
    }
    detail = {
        "setup_s_samples": setups,
        "setup_probe_s_samples": setup_probes,
        "wall_s_samples": walls,
        "round_net_s_samples": nets,
        "round_probe_s_samples": probes,
        "peak_bytes": peak,
    }
    return metrics, outcomes, {"problems": problems, **detail}


def per_layer(workload, args) -> tuple[dict, list, dict]:
    import sparsecov

    import checks
    from tracer import Stat, Tracer

    tracer = Tracer(sparsecov)
    with tracer.installed():  # set-up again, so that synthdata is traced
        inputs = workload.build(args.seed)
        produced, wall, _ = run_round(workload, inputs)
    outcome = workload.outcome(inputs, produced)

    problems, cell_problems = [], []
    for log in tracer.fits:
        if log.bad_steps:
            problems.append(f"k={log.k}: {log.bad_steps} accepted steps did not descend")
        if log.non_pd:
            problems.append(f"k={log.k}: {log.non_pd} iterates are not positive definite")
    # every fit of the round gets the estimate checks; for the study's
    # CV cells they are recorded but do not decide correctness
    estimates = {id(res) for res, _ in outcome.estimates}
    residuals = []
    for log in tracer.fits:
        res = log.result
        if res is None or checks.fit_failed(res, log.max_outer):
            continue
        S_used = checks.ridged(log.S, res.ridge_delta)
        residuals.append(checks.stationarity_residual(res.sigma_hat, S_used, log.k, res.rho_trace[-1]))
        if id(res) not in estimates:
            cell_problems += [f"k={log.k}: {p}" for p in checks.fit_problems(res, log.S, log.k)]

    def stat(key):
        return tracer.stats.get(key) or Stat()

    layer = {}
    for key in ("sparsity.project", "sparsity.squared_distance", "matcore.spectral_decompose",
                "matcore.inverse_pd", "matcore.cholesky_pd", "matcore.as_symmetric",
                "sylvester.solve_spectral", "sylvester.SurrogateSystem", "proxdist.cho_solve",
                "proxdist.fit", "tuning.cross_validate", "baselines.threshold"):
        layer[f"{key}.calls"] = (stat(key).calls, "count")
        layer[f"{key}.self_s"] = (stat(key).self_s, "s")
    fits = [log for log in tracer.fits if log.result is not None]
    accepted = sum(len(log.stamps) - log.rejected for log in fits)
    candidates = sum(log.candidates for log in fits)
    phases = tracer.phases()
    layer.update({
        "proxdist.halvings": (sum(log.halvings for log in fits), "count"),
        "proxdist.rejected_steps": (sum(log.rejected for log in fits), "count"),
        "proxdist.step_accept_ratio": (accepted / candidates if candidates else 0.0, "ratio"),
        "proxdist.schedule.steps": (phases["schedule.steps"], "count"),
        "proxdist.schedule.s": (phases["schedule.s"], "s"),
        "proxdist.refine.steps": (phases["refine.steps"], "count"),
        "proxdist.refine.s": (phases["refine.s"], "s"),
        "proxdist.residual": (statistics.fmean(residuals) if residuals else 0.0, "ratio"),
        "tuning.cells": (tracer.cells, "count"),
        "workers.parallel_map.calls": (stat("workers.parallel_map").calls, "count"),
        "workers.parallel_map.items": (stat("workers.parallel_map").items, "count"),
        "evaluation.self_s": (stat("evaluation").self_s, "s"),
        "synthdata.make_design.s": (stat("synthdata.make_design").total_s, "s"),
        "synthdata.sample_mvn.s": (stat("synthdata.sample_mvn").total_s, "s"),
        "traced_wall_s": (wall - tracer.check_s, "s"),
    })
    detail = {
        "problems": problems,
        "cell_fit_problems": cell_problems,
        "missing_bindings": tracer.missing,
        "functions": {k: vars_of(s) for k, s in sorted(tracer.stats.items())},
    }
    return layer, [outcome], detail


def vars_of(stat) -> dict:
    return {name: getattr(stat, name) for name in stat.__slots__}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sparsecov" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'sparsecov'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.setup_only:
        _, _, seconds = setup(args.workload, args.seed)
        print(repr(seconds))
        return 0
    workload, inputs, own_setup = setup(args.workload, args.seed)
    import sparsecov

    if Path(sparsecov.__file__).resolve().parent != SRC / "sparsecov":
        print(f"error: imported sparsecov from {sparsecov.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.trace:
        metrics, outcomes, detail = per_layer(workload, args)
    else:
        metrics, outcomes, detail = end_to_end(workload, inputs, args.seconds, own_setup, args)
    problems = detail["problems"] + [p for o in outcomes for p in o.problems]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:12s} {name:34s} {value:.6g} {unit}")
    if not args.trace:
        probes = [p for round_probes in detail["round_probe_s_samples"] for p in round_probes]
        print(f"{args.workload:12s} as measured: set-up {statistics.median(detail['setup_s_samples']):.6g} s, "
              f"round {statistics.median(detail['round_net_s_samples']):.6g} s, "
              f"probe {statistics.median(probes):.6g} s")
    print(f"{args.workload:12s} operations attempted {attempted}, failed {failed}")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    summary = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    record = {"args": vars(args), "host": host_info(), **summary, **detail}
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=repr) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer tracing by wrapping the package's functions from outside.

Each traced function is replaced, in every module that binds it by name,
by a wrapper that counts calls and keeps a stack of open spans, so that a
function's self time is its duration minus the time spent in the traced
functions it called.  Bindings are swapped only inside ``Tracer.installed``
and restored on exit; nothing under ``src/`` is changed.

The stack assumes one thread, which the benchmark guarantees by running
with ``SPARSECOV_THREADS=1``.
"""

from __future__ import annotations

import importlib
import threading
import time
from contextlib import contextmanager

import numpy as np

import checks

# (stat key, attribute name, modules that bind the attribute).  A key
# shared by several attributes (``evaluation``) sums their self times.
TRACED = [
    ("sparsity.project", "project", ["sparsity"]),
    ("sparsity.squared_distance", "squared_distance", ["sparsity"]),
    ("matcore.spectral_decompose", "spectral_decompose", ["matcore", "sylvester"]),
    ("matcore.inverse_pd", "inverse_pd", ["matcore", "proxdist", "sylvester"]),
    ("matcore.cholesky_pd", "cholesky_pd",
     ["matcore", "proxdist", "sylvester", "synthdata", "evaluation"]),
    ("matcore.as_symmetric", "as_symmetric",
     ["matcore", "sparsity", "sylvester", "proxdist", "baselines", "evaluation"]),
    ("sylvester.solve_spectral", "solve_spectral", ["sylvester", "proxdist"]),
    ("sylvester.SurrogateSystem", "SurrogateSystem", ["proxdist"]),
    ("proxdist.cho_solve", "cho_solve", ["proxdist"]),
    ("proxdist.fit", "fit", ["proxdist", "tuning", "synthdata", "evaluation"]),
    ("tuning.cross_validate", "cross_validate", ["tuning", "synthdata"]),
    ("workers.parallel_map", "parallel_map", ["_workers", "tuning", "synthdata"]),
    ("baselines.threshold", "threshold", ["baselines", "tuning", "synthdata", "evaluation"]),
    ("synthdata.make_design", "make_design", ["synthdata"]),
    ("synthdata.sample_mvn", "sample_mvn", ["synthdata"]),
    ("evaluation", "entropy_loss", ["evaluation", "synthdata", "tuning"]),
] + [
    ("evaluation", name, ["evaluation", "synthdata"])
    for name in ("rmse", "fp_fn_rates", "gaussian_nll", "info_criteria", "compute_report")
]


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "items")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.items = 0


class FitLog:
    """What the benchmark learns about one traced ``fit`` from its callback."""

    def __init__(self, k: int, S: np.ndarray, max_outer: int, max_halvings: int):
        self.k = k
        self.S = S
        self.max_outer = max_outer
        self.max_halvings = max_halvings
        self.start = 0.0
        self.end = 0.0
        self.stamps: list[float] = []  # clock at each callback, check time removed
        self.halvings = 0
        self.rejected = 0
        self.candidates = 0
        self.bad_steps = 0  # accepted steps that did not descend
        self.non_pd = 0  # iterates numpy's Cholesky rejects
        self.result = None  # stays None when the fit raised


class Tracer:
    def __init__(self, package):
        self.package = package
        self.stats: dict[str, Stat] = {}
        self.fits: list[FitLog] = []
        self.cells = 0
        self.missing: list[str] = []
        self._stack: list[list[float]] = []  # [start, child seconds]
        self.check_s = 0.0  # benchmark-side check time spent inside traced fits
        self._thread = threading.get_ident()

    def stat(self, key: str) -> Stat:
        return self.stats.setdefault(key, Stat())

    def _enter(self) -> list[float]:
        if threading.get_ident() != self._thread:
            raise RuntimeError("traced call from a second thread; set SPARSECOV_THREADS=1")
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, key: str, frame: list[float]) -> None:
        elapsed = time.perf_counter() - frame[0]
        self._stack.pop()
        stat = self.stat(key)
        stat.calls += 1
        stat.total_s += elapsed
        stat.self_s += elapsed - frame[1]
        if self._stack:
            self._stack[-1][1] += elapsed

    def _wrap(self, key: str, fn):
        def traced(*args, **kwargs):
            frame = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(key, frame)

        return traced

    def _wrap_parallel_map(self, key: str, fn):
        inner = self._wrap(key, fn)

        def traced(f, items):
            self.stat(key).items += len(items)
            return inner(f, items)

        return traced

    def _wrap_cross_validate(self, key: str, fn):
        inner = self._wrap(key, fn)

        def traced(data, method, spec, *args, **kwargs):
            self.cells += len(spec.grid) * spec.folds
            return inner(data, method, spec, *args, **kwargs)

        return traced

    def _wrap_fit(self, key: str, fn):
        """Trace ``fit`` and follow its steps through the callback argument."""
        inner = self._wrap(key, fn)
        default_cfg = self.package.FitConfig()

        def traced(S, c, cfg=default_cfg, callback=None):
            log = FitLog(c.k, S, cfg.max_outer, cfg.max_halvings)
            self.fits.append(log)

            def on_step(event):
                check_start = time.perf_counter()
                log.stamps.append(check_start - self.check_s)
                halvings = event["halvings"]
                if event["accepted"]:
                    log.halvings += halvings
                    log.candidates += halvings + 1
                    if not event["objective"] < event["objective_before"]:
                        log.bad_steps += 1
                else:
                    log.rejected += 1
                    log.candidates += log.max_halvings + 1
                if not checks.is_pd(event["sigma"]):
                    log.non_pd += 1
                if callback is not None:
                    callback(event)
                self._pause(time.perf_counter() - check_start)

            log.start = time.perf_counter() - self.check_s
            try:
                log.result = inner(S, c, cfg, on_step)
            finally:
                log.end = time.perf_counter() - self.check_s
            return log.result

        return traced

    def _pause(self, seconds: float) -> None:
        """Keep benchmark-side work done inside open spans out of their times."""
        self.check_s += seconds
        for frame in self._stack:
            frame[0] += seconds

    @contextmanager
    def installed(self):
        """Swap every traced binding for its wrapper; restore them on exit."""
        special = {
            "fit": self._wrap_fit,
            "parallel_map": self._wrap_parallel_map,
            "cross_validate": self._wrap_cross_validate,
        }
        saved = []
        try:
            for key, name, modules in TRACED:
                wrapper = None
                for mod_name in modules:
                    try:
                        module = importlib.import_module(f"{self.package.__name__}.{mod_name}")
                    except ImportError:
                        self.missing.append(mod_name)
                        continue
                    original = getattr(module, name, None)
                    if original is None:
                        self.missing.append(f"{mod_name}.{name}")
                        continue
                    if wrapper is None or wrapper.__wrapped__ is not original:
                        wrapper = special.get(name, self._wrap)(key, original)
                        wrapper.__wrapped__ = original
                    saved.append((module, name, original))
                    setattr(module, name, wrapper)
            yield self
        finally:
            for module, name, original in reversed(saved):
                setattr(module, name, original)

    def phases(self) -> dict[str, float]:
        """Schedule and refinement steps and seconds, summed over traced fits.

        The schedule multiplies rho at every step and the refinement
        repeats the final rho, so the first repeated ``rho_trace`` entry
        marks the split.  Refinement time runs from the last schedule
        callback to the return, so it includes the final polish.
        """
        out = {"schedule.steps": 0, "schedule.s": 0.0, "refine.steps": 0, "refine.s": 0.0}
        for log in self.fits:
            if log.result is None:
                continue
            rho = log.result.rho_trace
            n_sched = next((i for i in range(1, len(rho)) if rho[i] == rho[i - 1]), len(rho))
            split = log.stamps[n_sched - 1]
            out["schedule.steps"] += n_sched
            out["refine.steps"] += len(rho) - n_sched
            out["schedule.s"] += split - log.start
            out["refine.s"] += log.end - split
        return out

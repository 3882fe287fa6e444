"""Span recording around the program's public functions, from outside it.

`Tracer.install()` rebinds each target function, wherever a module of the
`identity_channel` package holds it under a global name (so names imported
into `cli`, `experiments`, `equilibrium` and `estimator` are covered), to a
wrapper that records one span per call: name, start, end, parent span and
job id.  Spans stay in memory, in flat arrays, until `save()` writes them.
`uninstall()` restores the original bindings.  The program's source is not
changed.
"""

from __future__ import annotations

import array
import functools
import importlib
import time
import tracemalloc

import numpy as np

PACKAGE = "identity_channel"
MODULES = ("model", "receiver", "equilibrium", "estimator", "experiments", "cli")

#: (module, attribute) of every traced function.  A dotted attribute is a
#: method of a class defined in that module.
TARGETS = (
    ("model", "population_from_params"),
    ("receiver", "belief_residuals"),
    ("receiver", "believes"),
    ("receiver", "best_response"),
    ("equilibrium", "augmented_params"),
    ("equilibrium", "closed_form_equilibrium"),
    ("equilibrium", "full_lp_oracle"),
    ("equilibrium", "check_equivalence"),
    ("estimator", "estimate_k"),
    ("estimator", "strategy_from_estimates"),
    ("estimator", "GroundTruthOracle.query"),
    ("experiments", "run_sweep"),
    ("experiments", "write_sweep_csv"),
    ("experiments", "monte_carlo_accuracy"),
    ("experiments", "write_simulation_csv"),
    ("cli", "load_config"),
    ("cli", "main"),
)

#: Functions whose peak traced allocation is recorded with tracemalloc.
ALLOC_TARGETS = {"experiments.monte_carlo_accuracy"}

JOB_SPAN = "bench.job"


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.job = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.peak_alloc: dict[str, list[int]] = {}
        self.job_id = 0
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """Return `fn` wrapped so every call records one span named `name`."""
        nid = self.name_id(name)
        names, parents, jobs = self.name, self.parent, self.job
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            jobs.append(tracer.job_id)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def _wrap_alloc(self, name: str, fn):
        """Record the peak traced allocation of each call, then the span."""
        peaks = self.peak_alloc.setdefault(name, [])

        def measured(*args, **kwargs):
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                if started:
                    tracemalloc.stop()

        return self.wrap(name, functools.update_wrapper(measured, fn))

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        for modname, attr in TARGETS:
            owner = importlib.import_module(f"{PACKAGE}.{modname}")
            name = f"{modname}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                bindings = [(cls, meth)]
            else:
                original = getattr(owner, attr)
                bindings = [
                    (mod, key)
                    for mod in modules
                    for key, value in vars(mod).items()
                    if value is original
                ]
            wrapped = (
                self._wrap_alloc(name, original)
                if name in ALLOC_TARGETS
                else self.wrap(name, original)
            )
            for holder, key in bindings:
                self._restore.append((holder, key, original))
                setattr(holder, key, wrapped)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    def columns(self) -> dict[str, np.ndarray]:
        """Copies of the span columns as numpy arrays."""
        return {
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "job": np.array(self.job, dtype=np.int32),
            "start": np.array(self.start, dtype=np.int64),
            "end": np.array(self.end, dtype=np.int64),
        }

    def save(self, path) -> None:
        """Write every span as flat columns plus the name table (`.npz`)."""
        np.savez(path, names=np.array(self.names), **self.columns())


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover (ns).

    Spans nest on one thread, so a span's children never overlap and the
    time they cover is the sum of their durations.
    """
    dur = end - start
    has_parent = parent >= 0
    covered = np.zeros(len(dur), dtype=np.int64)
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


def layer_stats(tracer: Tracer) -> dict[str, dict[str, object]]:
    """Per span name: calls, total self and busy time (ns), all durations."""
    cols = tracer.columns()
    dur = cols["end"] - cols["start"]
    own = self_times(cols["parent"], cols["start"], cols["end"])
    stats = {}
    for nid, name in enumerate(tracer.names):
        mask = cols["name"] == nid
        stats[name] = {
            "calls": int(mask.sum()),
            "self_ns": int(own[mask].sum()),
            "busy_ns": int(dur[mask].sum()),
            "durations_ns": dur[mask],
        }
    return stats


def tail_percentile(samples: np.ndarray) -> tuple[float | None, float | None]:
    """The highest of p99.9/p99/p90/p75/p50 with at least ten samples beyond.

    Returns (percentile, value); (None, None) with fewer than 20 samples.
    """
    n = len(samples)
    for pct in (99.9, 99.0, 90.0, 75.0, 50.0):
        if n * (100.0 - pct) / 100.0 >= 10.0:
            return pct, float(np.percentile(samples, pct))
    return None, None

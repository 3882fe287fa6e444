"""Child process of the benchmark: runs one workload's closed loop.

Usage: python3 perfbench/worker.py SPEC.json

SPEC names the workload, its generated inputs, the measuring time, whether
to trace, and where to write the result.  Jobs call
`identity_channel.cli.main(argv)` in this process with stdout and stderr
captured, one at a time.  With tracing, every other job runs with the span
wrappers installed (until MAX_SPANS spans are held), so traced and untraced
jobs interleave over the same period; the untraced jobs alone give the
end-to-end numbers.  The first job warms caches and lazy imports: it is
checked like every other job but not timed.  Host-speed probes
(`hostspeed.py`) run before the first job and after every job.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import hostspeed
from spans import JOB_SPAN, Tracer, layer_stats, tail_percentile
from workloads import WORKLOADS, parse_report

#: Jobs stop being traced once this many spans are held (about 56 MB).
MAX_SPANS = 2_000_000

TAIL_METRICS = (
    "equilibrium.full_lp_oracle",
    "equilibrium.closed_form_equilibrium",
)


def run_job(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def measure(workload, inputs, seconds, tracer):
    """Closed loop: the next job starts only when the previous one ended."""
    from identity_channel import cli

    jobs = inputs["jobs"]
    outputs = []
    probe = hostspeed.probe(workload.probe)
    start = time.perf_counter()
    while True:
        k = len(outputs)
        traced = tracer is not None and k % 2 == 1 and len(tracer.start) < MAX_SPANS
        out = {"job": k % len(jobs), "warmup": k == 0, "traced": traced,
               "rc": None, "error": None}
        call = run_job
        if traced:
            tracer.job_id = k
            tracer.install()
            call = tracer.wrap(JOB_SPAN, run_job)
        t0 = time.perf_counter_ns()
        try:
            out["rc"], out["stdout"], out["stderr"] = call(cli, jobs[out["job"]])
        except Exception:  # a job that raises is a failed op; the run goes on
            out["error"] = traceback.format_exc()
        out["ns"] = time.perf_counter_ns() - t0
        if traced:
            tracer.uninstall()
        out["probe_before"], probe = probe, hostspeed.probe(workload.probe)
        out["probe_after"] = probe
        if out["error"] is None:
            out.update(workload.after_job(inputs))
        outputs.append(out)

        # Stop before a job that would likely end past the measuring time.
        elapsed = time.perf_counter() - start
        enough = len(outputs) >= (2 if tracer is None else 3)
        if enough and elapsed * (len(outputs) + 1) / len(outputs) > seconds:
            return outputs


def layer_metrics(tracer, workload, inputs, outputs):
    """Per-layer metrics from the traced jobs, per job where they are counts."""
    stats = layer_stats(tracer)
    traced = [o for o in outputs if o["traced"]]
    jobs = len(traced)
    empty = {"calls": 0, "self_ns": 0, "busy_ns": 0, "durations_ns": np.zeros(0)}

    def get(name):
        return stats.get(name, empty)

    def us_p50(name):
        d = get(name)["durations_ns"]
        return float(np.median(d)) / 1e3 if len(d) else 0.0

    m, tails = {}, {}
    for name in ("equilibrium.full_lp_oracle", "equilibrium.closed_form_equilibrium",
                 "equilibrium.augmented_params", "receiver.believes",
                 "receiver.belief_residuals", "model.population_from_params",
                 "estimator.estimate_k"):
        m[f"{name}.calls"] = get(name)["calls"] / jobs
        m[f"{name}.us_p50"] = us_p50(name)
    for name in ("equilibrium.full_lp_oracle", "equilibrium.closed_form_equilibrium",
                 "equilibrium.check_equivalence", "experiments.run_sweep",
                 "estimator.estimate_k", "cli.main"):
        m[f"{name}.self_s"] = get(name)["self_ns"] / jobs / 1e9
    for name in TAIL_METRICS:
        d = get(name)["durations_ns"]
        pct, value = tail_percentile(d)
        m[f"{name}.us_tail"] = value / 1e3 if value is not None else 0.0
        tails[f"{name}.us_tail"] = {"percentile": pct, "samples": len(d)}

    solves = get("equilibrium.closed_form_equilibrium")["calls"]
    m["receiver.believes.calls_per_solve"] = (
        get("receiver.believes")["calls"] / solves if solves else 0.0)

    reports = [r for r in map(parse_report, traced) if r is not None]
    cells = sum(r.get("rows", 0) + r.get("skipped", 0) for r in reports)
    m["experiments.run_sweep.cells"] = cells / jobs
    m["experiments.run_sweep.skipped"] = sum(r.get("skipped", 0) for r in reports) / jobs
    sweep_busy = get("experiments.run_sweep")["busy_ns"]
    m["experiments.sweep_cell_us"] = sweep_busy / cells / 1e3 if cells else 0.0
    m["experiments.write_sweep_csv.busy_s"] = (
        get("experiments.write_sweep_csv")["busy_ns"] / jobs / 1e9)
    m["experiments.write_sweep_csv.bytes"] = (
        sum(o.get("csv_bytes", 0) for o in traced) / jobs)

    mc = get("experiments.monte_carlo_accuracy")
    samples = sum(r.get("N", 0) for r in reports if "accuracy" in r)
    m["experiments.monte_carlo_accuracy.busy_s"] = mc["busy_ns"] / jobs / 1e9
    m["experiments.monte_carlo_accuracy.ns_per_sample"] = (
        mc["busy_ns"] / samples if samples else 0.0)
    peaks = tracer.peak_alloc.get("experiments.monte_carlo_accuracy", [])
    m["experiments.monte_carlo_accuracy.peak_alloc_mb"] = (
        float(np.median(peaks)) / 2**20 if peaks else 0.0)

    m["estimator.queries"] = sum(
        r.get("steps_A", 0) + r.get("steps_B", 0) for r in reports) / jobs
    m["estimator.query_us"] = us_p50("estimator.GroundTruthOracle.query")
    believed = [o["believed"] for o in outputs if "believed" in o]
    m["estimator.believed_ratio"] = sum(believed) / len(believed) if believed else 0.0

    m["cli.load_config.us_p50"] = us_p50("cli.load_config")

    def rate(group):
        return statistics.median(workload.ops(inputs) / (o["ns"] / 1e9) for o in group)

    m["trace.overhead_ratio"] = 1.0 - rate(traced) / rate(
        [o for o in outputs if not (o["traced"] or o.get("warmup"))])
    root = get(JOB_SPAN)
    accounted = {
        "job_wall_s": root["busy_ns"] / jobs / 1e9,
        "layers_self_s": sum(s["self_ns"] for s in stats.values()) / jobs / 1e9,
        "unwrapped_self_s": root["self_ns"] / jobs / 1e9,
    }
    return m, tails, accounted


def main(spec_path: str) -> int:
    with open(spec_path) as handle:
        spec = json.load(handle)
    workload = WORKLOADS[spec["workload"]]()
    inputs = spec["inputs"]
    tracer = Tracer() if spec["trace"] else None

    outputs = measure(workload, inputs, spec["seconds"], tracer)
    maxrss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failed = workload.check(inputs, outputs)

    result = {
        "jobs": [
            {"job": o["job"], "warmup": o["warmup"], "traced": o["traced"],
             "ns": o["ns"],
             "scaled_ns": hostspeed.scale(o["ns"], workload.probe, o["probe_before"],
                                              o["probe_after"]),
             "probe_before": o["probe_before"], "probe_after": o["probe_after"],
             "rc": o["rc"], "failed": f, "error": o["error"]}
            for o, f in zip(outputs, failed)
        ],
        "ops_per_job": workload.ops(inputs),
        "maxrss_kib": maxrss_kib,
        "checks": {k: v for k, v in vars(workload).items() if not k.startswith("_")},
    }
    if tracer is not None:
        result["layers"], result["tails"], result["accounted"] = layer_metrics(
            tracer, workload, inputs, outputs)
        tracer.save(spec["spans_path"])
    with open(spec["result_path"], "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

"""Benchmark of the identity-channel CLI: one command, four workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all

For each workload the benchmark generates its inputs from the seed, times
set-up in fresh interpreters (`setup_s`), then runs the workload's jobs in
a child process, one at a time, through `identity_channel.cli.main` with
output captured, checks every output, and prints one line per metric
(name, unit, median, quartiles, sample count).  The last line of stdout is
one JSON object: `correct`, `attempted`, `failed` and `metrics`, holding the
end-to-end metrics with `--trace 0` and the per-layer metrics of a traced
run with `--trace 1`.  A result file with provenance is written for every
run under `perfbench/out/results/`.

Times are scaled to a reference host speed by probes of fixed work timed
just before and after each job and each set-up spawn (`hostspeed.py`): on a
shared host the wall times of one run move together by up to a third from
minute to minute, and the scaled ones by a few percent.  `ops_per_s` and
`setup_s` are scaled; the wall-clock figures are printed beside them as
`ops_per_s_wall` and `setup_s_wall` and kept in the result file.  The first
job of a run warms caches and lazy imports and is checked but not timed.

The program is imported from `src/` of the checkout; BLAS and OpenMP
threads are pinned to one.  Metric names and units come from
`BENCHMARK.json`, which lists the workloads on which no op fails (sweep and
simulate); `perfbench/predictions.json` holds the predictions of which
layer moves which end-to-end metric, and why verify and estimate are not
listed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

import hostspeed
from workloads import WORKLOADS

#: Pinned in every child process; the children do all the measured work.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Fresh interpreters started per run to time set-up; the median is reported.
SETUP_SPAWNS = 21
#: Every run must end within this many seconds.
RUN_LIMIT_S = 170.0

#: Fresh interpreter to ready: import the CLI, parse the first job's
#: arguments and load its config.
SETUP_CODE = """\
import json, sys
from identity_channel import cli
args = cli.build_parser().parse_args(json.loads(sys.argv[1]))
if getattr(args, "config", None):
    cli.load_config(args.config)
"""


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def quartiles(values: list[float]) -> dict:
    values = sorted(values)
    if len(values) >= 2:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def tree_digest(root: Path, pattern: str) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob(pattern)):
        if "out" in path.relative_to(root).parts or "__pycache__" in path.parts:
            continue
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "commit": commit,
        "src_sha256": tree_digest(SRC, "*.py"),
        "bench_sha256": tree_digest(HERE, "*"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": THREAD_ENV,
        "seed": seed,
        "generator": "closed loop, one client, one job at a time",
        "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def time_setup(argv: list[str], deadline: float) -> tuple[list[float], list[float]]:
    """Times of fresh interpreters from spawn to exit: scaled, and wall.

    The end is taken when the child's output pipe closes: `wait(timeout)`
    polls with sleeps of up to 50 ms, which would quantise the samples.
    Each time is scaled to the reference host by the `spawn` probes just
    before and just after it (see hostspeed.py).
    """
    samples, scaled = [], []
    probe = hostspeed.probe("spawn")
    for _ in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CODE, json.dumps(argv)],
                              env=child_env(), cwd=ROOT, stdout=subprocess.PIPE) as proc:
            try:
                proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
            samples.append(time.perf_counter() - t0)
        if proc.returncode:
            raise subprocess.CalledProcessError(proc.returncode, proc.args)
        before, probe = probe, hostspeed.probe("spawn")
        scaled.append(hostspeed.scale(samples[-1], "spawn", before, probe))
    return scaled, samples


def load_metric_units() -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 units: dict[str, str], deadline: float) -> dict:
    workload = WORKLOADS[name]()
    run_dir = OUT / "run" / name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "spans").mkdir(parents=True, exist_ok=True)
    inputs = workload.make_inputs(seed, str(run_dir))

    setup, setup_wall = ([], []) if trace else time_setup(inputs["jobs"][0], deadline)

    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    tag = f"{name}-seed{seed}-trace{int(trace)}-{stamp}-{os.getpid()}"
    spec_path = run_dir / "spec.json"
    worker_result = run_dir / "worker.json"
    spec = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "inputs": inputs, "result_path": str(worker_result),
        "spans_path": str(OUT / "spans" / f"{name}.npz"),
    }
    spec_path.write_text(json.dumps(spec))
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                   env=child_env(), check=True, cwd=ROOT, stdout=sys.stderr,
                   timeout=max(1.0, deadline - time.monotonic()))
    worker = json.loads(worker_result.read_text())

    jobs = worker["jobs"]
    ops = worker["ops_per_job"]
    attempted = ops * len(jobs)
    failed = sum(j["failed"] for j in jobs)
    summary = {
        "failed_ratio": {"failed": failed, "attempted": attempted,
                         "value": failed / attempted}}
    lines = []
    if trace:
        metrics = {k: {"value": v, "unit": units[k]} for k, v in worker["layers"].items()}
        for key, value in worker["layers"].items():
            extra = ""
            if key in worker["tails"]:
                t = worker["tails"][key]
                extra = f"  percentile=p{t['percentile']} samples={t['samples']}"
            lines.append(f"{key}  {units[key]}  {value:.6g}{extra}")
        summary["accounted"] = worker["accounted"]
        traced = sum(j["traced"] for j in jobs)
        lines.append(f"traced jobs {traced} of {len(jobs)}; per traced job: " + "  ".join(
            f"{k}={v:.6g}" for k, v in worker["accounted"].items()))
    else:
        timed = [j for j in jobs if not j["warmup"]]
        summary["setup_s"] = quartiles(setup)
        summary["ops_per_s"] = quartiles([ops / (j["scaled_ns"] / 1e9) for j in timed])
        summary["peak_rss_mb"] = quartiles([worker["maxrss_kib"] / 1024.0])
        # As measured, before scaling to the reference host; not gated.
        summary["setup_s_wall"] = quartiles(setup_wall)
        summary["ops_per_s_wall"] = quartiles([ops / (j["ns"] / 1e9) for j in timed])
        metrics = {k: {"value": summary[k]["median"], "unit": units[k]}
                   for k in ("setup_s", "ops_per_s", "peak_rss_mb")}
        for key in ("setup_s", "ops_per_s", "peak_rss_mb", "setup_s_wall", "ops_per_s_wall"):
            s = summary[key]
            unit = units[key.removesuffix("_wall")]
            lines.append(f"{key}  {unit}  median={s['median']:.6g}  "
                         f"q1={s['q1']:.6g}  q3={s['q3']:.6g}  n={s['n']}")
    lines.append(f"failed_ratio  failed/attempted  {failed}/{attempted} = "
                 f"{failed / attempted:.6g}")
    for line in lines:
        print(f"[{name}] {line}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": name, "why": workload.why, "trace": trace, "seconds": seconds,
        "provenance": provenance(seed), "configs": inputs["configs"],
        "result": result, "summary": summary, "checks": worker["checks"],
        "jobs": jobs,
    }
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (SRC / "identity_channel" / "cli.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    units = load_metric_units()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            limit = deadline if len(names) == 1 else time.monotonic() + RUN_LIMIT_S
            result = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                  units, limit)
            print(json.dumps(result))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

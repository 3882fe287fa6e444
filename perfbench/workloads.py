"""The four benchmark workloads: seeded inputs, job argv and output checks.

Each workload turns a seed into input files and a list of `identity-channel`
argument vectors (one per job).  After the measured loop, `check` decides
for every job how many of its ops failed: a job that raised or exited with
an unexpected code fails all its ops, otherwise each op is judged from the
program's printed output against references computed here, independently of
the code under test where that is possible.

Printed reals carry 12 significant digits, so a printed strategy counts as
believed when every belief residual is >= 0 somewhere inside the rounding
interval of the printed coordinates (see `believed_as_printed`).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os

import numpy as np

PARAM_NAMES = (
    "lambda_a_A", "lambda_s_A", "delta_I_A", "delta_O_A",
    "lambda_a_B", "lambda_s_B", "delta_I_B", "delta_O_B",
)

#: The README's balanced configuration.
BALANCED = {
    "lambda_a_A": 0.55, "lambda_s_A": 0.45, "delta_I_A": 1.0, "delta_O_A": 2.0,
    "lambda_a_B": 0.55, "lambda_s_B": 0.45, "delta_I_B": 1.0, "delta_O_B": 3.5,
}

VERIFY_TRIALS = 10_000
SWEEP_AXES = ("delta_O_A", "delta_O_B")
SWEEP_LO, SWEEP_HI, SWEEP_RES = 0.0, 6.0, 201
SWEEP_WEIGHT_JITTER = 0.05
SWEEP_LP_SAMPLE = 64
SIMULATE_N = 10_000_000
ESTIMATE_DELTA = 1e-6
ESTIMATE_POPULATIONS = 500
GAP_TOL = 1e-9


def half_unit(x: float) -> float:
    """Half a unit in the 12th significant digit of `x` (0 for 0)."""
    if x == 0.0:
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(x))) - 11)


def residual_rows(p: dict) -> tuple[np.ndarray, np.ndarray]:
    """Belief residuals g = G z + c over z = (m_A, m_B, n_A, n_B).

    Rows are g_A_a, g_A_b, g_B_a, g_B_b, each the receiver type's expected
    advantage of believing the message, times the message probability and
    the prior mass; a type believes when both its residuals are >= 0.
    Arrays broadcast over the parameter values.
    """
    la_A, ls_A, dI_A, dO_A = (np.asarray(p[k], float) for k in PARAM_NAMES[:4])
    la_B, ls_B, dI_B, dO_B = (np.asarray(p[k], float) for k in PARAM_NAMES[4:])
    row_A = [la_A - ls_A * dI_A, la_A + ls_A * dO_A, la_A + ls_A * dI_A,
             la_A - ls_A * dO_A]
    row_B = [la_B + ls_B * dO_B, la_B - ls_B * dI_B, la_B - ls_B * dO_B,
             la_B + ls_B * dI_B]
    G = np.stack([np.stack(np.broadcast_arrays(*r), -1)
                  for r in (row_A, row_A, row_B, row_B)], -2)
    c = np.stack(np.broadcast_arrays(
        ls_A * (dO_A - dI_A) - 2.0 * la_A,
        ls_A * (dI_A - dO_A) - 2.0 * la_A,
        ls_B * (dO_B - dI_B) - 2.0 * la_B,
        ls_B * (dI_B - dO_B) - 2.0 * la_B,
    ), -1)
    return G, c


def belief_margins(p: dict, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of the strategies `z` (shape [..., 4]) and their print slack.

    The slack of a residual is the most that moving every coordinate within
    its 12-digit rounding interval can change it.
    """
    G, c = residual_rows(p)
    z = np.asarray(z, float)
    h = np.vectorize(half_unit, otypes=[float])(z)
    g = np.einsum("...ij,...j->...i", G, z) + c
    return g, np.einsum("...ij,...j->...i", np.abs(G), h)


def believed_as_printed(p: dict, z: np.ndarray) -> np.ndarray:
    """Whether both types believe the printed strategies `z`, to print precision."""
    g, slack = belief_margins(p, z)
    return (g + slack >= 0.0).all(axis=-1)


def augmented(p: dict) -> tuple[float, float]:
    """(k_A, k_B) from their defining ratios; inf where a denominator is 0."""
    num_A = p["lambda_s_A"] * p["delta_I_A"] + p["lambda_a_A"]
    den_A = p["lambda_s_A"] * p["delta_O_A"] - p["lambda_a_A"]
    num_B = p["lambda_s_B"] * p["delta_O_B"] - p["lambda_a_B"]
    den_B = p["lambda_s_B"] * p["delta_I_B"] + p["lambda_a_B"]
    k_A = num_A / den_A if den_A != 0.0 else math.inf
    k_B = num_B / den_B if den_B != 0.0 else math.inf
    return k_A, k_B


def draw_restricted(rng: np.random.Generator) -> dict:
    """A population drawn like `random_restricted_population`.

    Weights uniform on [0, 1], in-group penalties uniform on [0, 2],
    out-group penalties the in-group value plus uniform [0, 3].
    """
    params = {}
    for side in ("A", "B"):
        d_in = 2.0 * rng.random()
        params[f"lambda_a_{side}"] = float(rng.random())
        params[f"lambda_s_{side}"] = float(rng.random())
        params[f"delta_I_{side}"] = float(d_in)
        params[f"delta_O_{side}"] = float(d_in + 3.0 * rng.random())
    return params


def write_json(path: str, obj) -> str:
    """Write `obj` as JSON and return the sha256 of the bytes written."""
    data = json.dumps(obj, indent=2, sort_keys=True).encode()
    with open(path, "wb") as handle:
        handle.write(data)
    return hashlib.sha256(data).hexdigest()


def parse_report(out: dict) -> dict | None:
    try:
        return json.loads(out["stdout"])
    except (KeyError, TypeError, ValueError):
        return None


class Workload:
    """One workload: inputs from a seed, job argv, ops per job, checks."""

    name = ""
    index = 0
    why = ""
    ok_codes = (0,)
    #: Host-speed probe that tracks this workload's kind of work (hostspeed.py).
    probe = "python"

    def rng(self, seed: int) -> np.random.Generator:
        return np.random.default_rng([seed, self.index])

    def make_inputs(self, seed: int, run_dir: str) -> dict:
        raise NotImplementedError

    def ops(self, inputs: dict) -> int:
        raise NotImplementedError

    def after_job(self, inputs: dict) -> dict:
        """Facts about the job's files, taken before the next job overwrites them."""
        return {}

    def check_job(self, inputs: dict, report: dict, out: dict) -> int:
        """Failed ops of one job whose call returned an expected exit code."""
        raise NotImplementedError

    def prepare_check(self, inputs: dict, outputs: list[dict]) -> None:
        """Run-level checks shared by all jobs (e.g. of a CSV written once)."""

    def check(self, inputs: dict, outputs: list[dict]) -> list[int]:
        """Failed ops per job."""
        self.prepare_check(inputs, outputs)
        failed = []
        for out in outputs:
            report = parse_report(out)
            if out.get("error") or out["rc"] not in self.ok_codes or report is None:
                failed.append(self.ops(inputs))
            else:
                failed.append(min(self.ops(inputs), self.check_job(inputs, report, out)))
        return failed


class Verify(Workload):
    name = "verify"
    index = 1
    ok_codes = (0, 1)
    why = ("closed form vs 495-vertex LP on 10k populations; the LP oracle does "
           "~90% of the work, no I/O; where LP and solver-core changes show")

    def make_inputs(self, seed, run_dir):
        trial_seed = int(self.rng(seed).integers(2**31))
        argv = ["verify", "--trials", str(VERIFY_TRIALS), "--seed", str(trial_seed)]
        digest = hashlib.sha256(json.dumps(argv).encode()).hexdigest()
        return {"jobs": [argv], "configs": {"argv": digest}, "trial_seed": trial_seed}

    def ops(self, inputs):
        return VERIFY_TRIALS

    def check_job(self, inputs, report, out):
        if report.get("trials") != VERIFY_TRIALS:
            return VERIFY_TRIALS
        gaps_ok = max(report["max_quality_gap"], report["max_coordinate_gap"]) <= GAP_TOL
        failed = len(report["failures"])
        return failed if gaps_ok or failed else VERIFY_TRIALS


class Sweep(Workload):
    name = "sweep"
    index = 2
    why = ("201x201 sweep over delta_O_A x delta_O_B with ~28k CSV rows; closed "
           "form per cell, ~31% of cells skipped, never the LP; compute and write")

    def make_inputs(self, seed, run_dir):
        rng = self.rng(seed)
        base = dict(BALANCED)
        for key in ("lambda_a_A", "lambda_s_A", "lambda_a_B", "lambda_s_B"):
            base[key] = float(base[key] + rng.uniform(-1.0, 1.0) * SWEEP_WEIGHT_JITTER)
        config = {
            "population": base,
            "sweep": {"axes": [
                {"name": axis, "lo": SWEEP_LO, "hi": SWEEP_HI, "resolution": SWEEP_RES}
                for axis in SWEEP_AXES
            ]},
        }
        path = os.path.join(run_dir, "sweep.json")
        csv_path = os.path.join(run_dir, "sweep.csv")
        return {
            "jobs": [["sweep", "--config", path, "--out", csv_path]],
            "configs": {"sweep.json": write_json(path, config)},
            "base": base,
            "csv": csv_path,
            "lp_sample_seed": int(rng.integers(2**31)),
        }

    def ops(self, inputs):
        return SWEEP_RES * SWEEP_RES

    def after_job(self, inputs):
        with open(inputs["csv"], "rb") as handle:
            data = handle.read()
        return {"csv_sha256": hashlib.sha256(data).hexdigest(), "csv_bytes": len(data)}

    def prepare_check(self, inputs, outputs):
        """Check every row of the CSV on disk once; jobs compare by digest."""
        self.row_failures = None
        self.csv_sha256 = None
        self.unbelieved_exact = None
        if not os.path.exists(inputs["csv"]):
            return
        with open(inputs["csv"], "rb") as handle:
            data = handle.read()
        self.csv_sha256 = hashlib.sha256(data).hexdigest()
        rows = list(csv.DictReader(io.StringIO(data.decode())))

        base = inputs["base"]
        values = np.linspace(SWEEP_LO, SWEEP_HI, SWEEP_RES)
        v1, v2 = (g.ravel() for g in np.meshgrid(values, values, indexing="ij"))
        keep = (v1 >= base["delta_I_A"]) & (v2 >= base["delta_I_B"])
        v1, v2 = v1[keep], v2[keep]
        if len(rows) != len(v1):
            self.row_failures = self.ops(inputs)
            return
        def printed(key):
            return np.array([float(r[key]) for r in rows])

        n_A, n_B, Q = printed("n_A"), printed("n_B"), printed("Q")
        axes_ok = (printed("axis1") == [float(f"{v:.12g}") for v in v1]) & (
            printed("axis2") == [float(f"{v:.12g}") for v in v2])
        params = dict(base, delta_O_A=v1, delta_O_B=v2)
        z = np.stack([np.ones_like(n_A), np.ones_like(n_A), n_A, n_B], -1)
        g, slack = belief_margins(params, z)
        ok = axes_ok & (g + slack >= 0.0).all(-1) & (np.abs(Q - z.sum(-1)) <= GAP_TOL)
        # Rows believed only up to print precision: the CSV's 12-digit
        # rounding crossed a belief boundary.  Reported, not failed.
        self.unbelieved_exact = int((~(g >= 0.0).all(-1)).sum())

        from identity_channel.equilibrium import full_lp_oracle
        from identity_channel.model import population_from_params

        rng = np.random.default_rng(inputs["lp_sample_seed"])
        for i in rng.choice(len(rows), size=min(SWEEP_LP_SAMPLE, len(rows)), replace=False):
            cell = dict(base, delta_O_A=float(v1[i]), delta_O_B=float(v2[i]))
            lp_q = full_lp_oracle(population_from_params(cell)).quality
            ok[i] &= abs(lp_q - Q[i]) <= GAP_TOL
        self.row_failures = int((~ok).sum())

    def check_job(self, inputs, report, out):
        if (self.row_failures is None
                or out.get("csv_sha256") != self.csv_sha256
                or report.get("rows", 0) + report.get("skipped", 0) != self.ops(inputs)):
            return self.ops(inputs)
        return self.row_failures


class Simulate(Workload):
    name = "simulate"
    index = 3
    probe = "memory"
    why = ("Monte Carlo of Q/4 with N=1e7: numpy RNG and memory, solvers idle; "
           "the only workload whose memory grows with input (peak_rss_mb)")

    def make_inputs(self, seed, run_dir):
        rng = self.rng(seed)
        population = draw_restricted(rng)
        sim_seed = int(rng.integers(2**31))
        config = {"population": population, "simulate": {"N": SIMULATE_N, "seed": sim_seed}}
        path = os.path.join(run_dir, "simulate.json")
        csv_path = os.path.join(run_dir, "simulate.csv")
        return {
            "jobs": [["simulate", "--config", path, "--out", csv_path]],
            "configs": {"simulate.json": write_json(path, config)},
            "population": population,
            "sim_seed": sim_seed,
            "csv": csv_path,
        }

    def ops(self, inputs):
        return SIMULATE_N

    def after_job(self, inputs):
        with open(inputs["csv"]) as handle:
            return {"csv_text": handle.read()}

    def prepare_check(self, inputs, outputs):
        from identity_channel.equilibrium import full_lp_oracle
        from identity_channel.model import population_from_params

        self.lp_q = full_lp_oracle(population_from_params(inputs["population"])).quality

    def check_job(self, inputs, report, out):
        rows = list(csv.reader(io.StringIO(out.get("csv_text", ""))))
        keys = ("N", "seed", "accuracy", "std_error", "expected")
        csv_ok = (
            len(rows) == 2
            and rows[0] == list(keys)
            and all(float(v) == report[k] for k, v in zip(keys, rows[1]))
        )
        ok = (
            csv_ok
            and report["N"] == SIMULATE_N
            and report["seed"] == inputs["sim_seed"]
            and abs(report["accuracy"] - report["expected"]) <= 5.0 * report["std_error"]
            and abs(4.0 * report["expected"] - self.lp_q) <= GAP_TOL
        )
        return 0 if ok else SIMULATE_N


class Estimate(Workload):
    name = "estimate"
    index = 4
    why = ("bisection estimate of k_A, k_B at delta=1e-6 on seeded populations; "
           "Python query loop plus per-job CLI cost; never the LP")

    def make_inputs(self, seed, run_dir):
        rng = self.rng(seed)
        jobs, configs, populations = [], {}, []
        for i in range(ESTIMATE_POPULATIONS):
            population = draw_restricted(rng)
            name = f"estimate-{i:04d}.json"
            path = os.path.join(run_dir, name)
            config = {"population": population, "estimator": {"delta": ESTIMATE_DELTA}}
            configs[name] = write_json(path, config)
            jobs.append(["estimate", "--config", path])
            populations.append(population)
        return {"jobs": jobs, "configs": configs, "populations": populations}

    def ops(self, inputs):
        return 1

    def prepare_check(self, inputs, outputs):
        from identity_channel.estimator import DEFAULT_SEARCH_BOUND

        self.search_bound = DEFAULT_SEARCH_BOUND

    def check_job(self, inputs, report, out):
        p = inputs["populations"][out["job"]]
        for k_true, key in zip(augmented(p), ("k_hat_A", "k_hat_B")):
            k_hat = report[key]
            if 0.0 <= k_true <= self.search_bound and not (
                abs(k_hat - k_true) <= ESTIMATE_DELTA + half_unit(k_hat)
            ):
                return 1
        z = np.array([report[k] for k in ("m_A", "m_B", "n_A", "n_B")])
        out["believed"] = bool(believed_as_printed(p, z))
        return 0 if out["believed"] else 1


#: Workload classes by name; each run makes its own instance, which holds
#: the run-level check results.
WORKLOADS = {cls.name: cls for cls in (Verify, Sweep, Simulate, Estimate)}

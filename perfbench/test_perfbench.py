"""Tests of the benchmark itself.  Run with: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import hostspeed  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, Estimate, believed_as_printed  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_determines_inputs(name, tmp_path):
    workload = WORKLOADS[name]()
    digests = []
    for seed, sub in ((1, "a"), (1, "b"), (2, "c")):
        (tmp_path / sub).mkdir()
        digests.append(workload.make_inputs(seed, str(tmp_path / sub))["configs"])
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def test_self_times_sum_to_parent():
    tracer = spans.Tracer()
    leaf = tracer.wrap("leaf", lambda: time.sleep(0.002))

    def middle_body():
        leaf()
        time.sleep(0.001)
        leaf()

    middle = tracer.wrap("middle", middle_body)

    def job_body():
        middle()
        time.sleep(0.001)

    tracer.wrap(spans.JOB_SPAN, job_body)()
    cols = tracer.columns()
    own = spans.self_times(cols["parent"], cols["start"], cols["end"])
    dur = cols["end"] - cols["start"]
    names = [tracer.names[i] for i in cols["name"]]
    root = names.index(spans.JOB_SPAN)
    assert own.sum() == dur[root]
    mid = names.index("middle")
    children = cols["parent"] == mid
    assert children.sum() == 2
    assert own[mid] == dur[mid] - dur[children].sum()
    assert (own >= 0).all()


def test_install_rebinds_imported_names_and_restores():
    from identity_channel import cli, equilibrium, experiments, receiver

    original = receiver.believes
    tracer = spans.Tracer()
    tracer.install()
    try:
        for module in (receiver, equilibrium, experiments, cli):
            assert module.believes is not original
        assert cli.main.__wrapped__ is not None
    finally:
        tracer.uninstall()
    for module in (receiver, equilibrium, experiments, cli):
        assert module.believes is original


def test_nudged_strategy_raises_failed_ratio(tmp_path, monkeypatch):
    """A strategy pushed out of receiver B's band must count as failed."""
    from identity_channel import cli
    from identity_channel.model import SenderStrategy

    workload = Estimate()
    inputs = workload.make_inputs(7, str(tmp_path))
    inputs["jobs"] = inputs["jobs"][:40]

    def failed_ratio():
        outputs = worker.measure(workload, inputs, 0.2, None)
        return sum(workload.check(inputs, outputs)) / len(outputs)

    honest = failed_ratio()
    real = cli.strategy_from_estimates

    def nudged(k_hat_A, k_hat_B):
        s = real(k_hat_A, k_hat_B)
        # Lower n_B below k_hat_B * n_A: receiver B stops believing.
        return SenderStrategy(s.m_A, s.m_B, s.n_A, 0.5 * min(1.0, k_hat_B) * s.n_A)

    monkeypatch.setattr(cli, "strategy_from_estimates", nudged)
    assert failed_ratio() > honest


def test_print_precision_band():
    pop = {"lambda_a_A": 0.55, "lambda_s_A": 0.45, "delta_I_A": 1.0, "delta_O_A": 2.0,
           "lambda_a_B": 0.55, "lambda_s_B": 0.45, "delta_I_B": 1.0, "delta_O_B": 3.5}
    k_B = 1.025
    inside = np.array([1.0, 1.0, 1.0 / k_B, 1.0])
    rounded_up = inside.copy()
    rounded_up[2] = float(f"{1.0 / k_B:.12g}")
    outside = inside.copy()
    outside[2] = 1.0 / k_B * (1.0 + 1e-9)
    assert believed_as_printed(pop, inside)
    assert believed_as_printed(pop, rounded_up)
    assert not believed_as_printed(pop, outside)


def test_metric_names_match_benchmark_and_predictions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    predictions = json.loads((HERE / "predictions.json").read_text())
    tracer = spans.Tracer()
    tracer.wrap(spans.JOB_SPAN, lambda: None)()
    outputs = [{"traced": False, "ns": 2_000}, {"traced": True, "ns": 3_000}]
    metrics, _, _ = worker.layer_metrics(tracer, Estimate(), {}, outputs)
    names = [m["name"] for m in spec["per_layer"]]
    assert sorted(names) == sorted(metrics) == sorted(predictions["layers"])
    gated = {w["name"] for w in spec["workloads"]}
    assert gated <= set(WORKLOADS)


def test_host_probes_scale_times():
    for kind in hostspeed.REFERENCE_NS:
        assert hostspeed.probe(kind) > 0
    ref = hostspeed.REFERENCE_NS["python"]
    # A host twice as slow as the reference halves the scaled time.
    assert hostspeed.scale(3.0, "python", 2 * ref, 2 * ref) == 1.5
    assert hostspeed.scale(3.0, "python", ref, ref) == 3.0

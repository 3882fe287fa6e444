"""The names the benchmark harness in `perfbench/` reaches into the package by.

The harness traces the functions in `spans.TARGETS`, and its workloads read
a few more names; a rename or deletion in the package would break
`perfbench/run.py` without failing any other test.
"""

import importlib
import json
import math
from pathlib import Path

import pytest

from identity_channel import cli, equilibrium, estimator, experiments, model
from identity_channel.cli import EXIT_OK, main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_on_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    original = experiments.run_sweep
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert experiments.run_sweep is not original
    finally:
        tracer.uninstall()
    assert experiments.run_sweep is original


def test_workload_names_resolve(balanced_population, balanced_params):
    assert 2.0 <= equilibrium.full_lp_oracle(balanced_population).quality <= 4.0
    # The sweep and simulate workloads check their results by this call.
    cell = dict(balanced_params, delta_O_A=2.5, delta_O_B=3.0)
    population = model.population_from_params(cell)
    assert 2.0 <= equilibrium.full_lp_oracle(population).quality <= 4.0
    assert callable(cli.strategy_from_estimates)
    assert 1.0 < estimator.DEFAULT_SEARCH_BOUND < math.inf


def test_sweep_report_counts_every_cell(capsys, tmp_path, balanced_params):
    # The sweep workload checks that a job's rows and skipped cells add up
    # to its grid.
    axes = [{"name": "delta_I_A", "lo": 0.0, "hi": 4.0, "resolution": 5}]
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"population": balanced_params, "sweep": {"axes": axes}}))
    code = main(["sweep", "--config", str(path), "--out", str(tmp_path / "o.csv")])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert (report["rows"], report["skipped"]) == (3, 2)


@pytest.mark.parametrize("command", ["sweep", "simulate", "estimate"])
def test_setup_code_loads_a_config_by_path_alone(tmp_path, balanced_params, command):
    # `perfbench/run.py`'s SETUP_CODE times this sequence as `setup_s`: the
    # job's argv parsed by the shared parser, then its config loaded by path.
    path = tmp_path / "c.json"
    axes = [{"name": "delta_I_A", "lo": 0.0, "hi": 4.0, "resolution": 5}]
    config = {
        "population": balanced_params,
        "estimator": {"delta": 0.01},
        "sweep": {"axes": axes},
        "simulate": {"N": 100, "seed": 1},
    }
    path.write_text(json.dumps(config))
    argv = [command, "--config", str(path)]
    if command != "estimate":
        argv += ["--out", str(tmp_path / "o.csv")]
    args = cli.build_parser().parse_args(argv)
    cli.load_config(args.config)

"""Tests for the command-line interface: exit codes, reports, artifacts."""

import argparse
import hashlib
import json
import math
import os
import stat
import subprocess
import sys
import threading

import numpy as np
import pytest

import identity_channel
from identity_channel.cli import (
    EXIT_DOMAIN_ERROR,
    EXIT_OK,
    EXIT_PROPERTY_FAILURE,
    EXIT_USAGE,
    build_parser,
    load_config,
    main,
)
from identity_channel.equilibrium import (
    AssumptionViolated,
    IndeterminateParams,
    NoFeasibleEncoding,
    random_restricted_params,
)
from identity_channel.estimator import InvalidResolution
from identity_channel.experiments import NonBelievingReceiver
from identity_channel.model import PARAM_NAMES, DomainError


MAX = sys.float_info.max


def population_block(*row):
    """A config's population block from eight parameters in `PARAM_NAMES` order."""
    return dict(zip(PARAM_NAMES, row))


def run_cli_process(args, cwd=None):
    """Run the CLI in a process of its own, to see its whole stderr.

    NumPy warnings bypass `capsys`, so only a separate process shows
    whether the CLI writes any.
    """
    src = os.path.dirname(os.path.dirname(identity_channel.__file__))
    return subprocess.run(
        [sys.executable, "-m", "identity_channel.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=src),
    )


@pytest.fixture
def balanced_config(tmp_path, balanced_params):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "population": balanced_params,
                "estimator": {"delta": 0.01, "M": 10000},
                "simulate": {"N": 20000, "seed": 3},
                "sweep": {
                    "axes": [
                        {"name": "lambda_s_A", "lo": 0.0, "hi": 1.0, "resolution": 21}
                    ]
                },
            }
        )
    )
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestConfigLoading:
    def test_unknown_top_level_key(self, tmp_path, balanced_params):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"population": balanced_params, "bogus": 1}))
        assert main(["equilibrium", "--config", str(path)]) == EXIT_USAGE

    def test_unknown_population_key(self, tmp_path, balanced_params):
        params = dict(balanced_params, typo=1.0)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"population": params}))
        assert main(["equilibrium", "--config", str(path)]) == EXIT_USAGE

    BAD_POPULATIONS = {
        "numeric-string": {"lambda_a_A": "0.55"},
        "bool": {"lambda_s_B": True},
        "null": {"delta_I_A": None},
        "list": {"delta_O_B": [3.5]},
        "huge-int": {"delta_O_A": 10**400},
    }

    @pytest.mark.parametrize(
        "fields", BAD_POPULATIONS.values(), ids=BAD_POPULATIONS.keys()
    )
    @pytest.mark.parametrize("command", ["equilibrium", "estimate"])
    def test_population_reals_must_be_json_numbers(
        self, capsys, monkeypatch, tmp_path, balanced_params, fields, command
    ):
        from identity_channel import cli

        def no_solve(*args):
            raise AssertionError("solved before the config was checked")

        monkeypatch.setattr(cli, "closed_form_equilibrium", no_solve)
        monkeypatch.setattr(cli, "estimate_k", no_solve)
        path = tmp_path / "c.json"
        path.write_text(
            json.dumps(
                {"population": {**balanced_params, **fields},
                 "estimator": {"delta": 0.01, "M": 100}}
            )
        )
        assert main([command, "--config", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: population ")

    def test_population_must_be_object(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"population": [0.55] * 8}))
        assert main(["equilibrium", "--config", str(path)]) == EXIT_USAGE

    def test_integer_population_reals_accepted(self, tmp_path, balanced_params):
        params = dict(balanced_params, delta_I_A=1, delta_O_A=2)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"population": params}))
        population = load_config(str(path))[0]
        assert population.delta_O_A == 2.0
        assert isinstance(population.delta_O_A, float)

    def test_missing_file(self):
        assert main(["equilibrium", "--config", "/nonexistent.json"]) == EXIT_USAGE

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        assert main(["equilibrium", "--config", str(path)]) == EXIT_USAGE

    MALFORMED_FILES = {
        "not-utf-8": b"\xff\xfe{\"population\": {}}",
        "int-over-digit-limit": b'{"N": 1' + b"0" * 5000 + b"}",
        "nested-too-deep": b"[" * 100000,
    }

    @pytest.mark.parametrize(
        "content", MALFORMED_FILES.values(), ids=MALFORMED_FILES.keys()
    )
    def test_malformed_file_usage_error(self, capsys, tmp_path, content):
        path = tmp_path / "c.json"
        path.write_bytes(content)
        assert main(["equilibrium", "--config", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: ")

    @pytest.mark.parametrize("key", ["population", "lambda_a_A", "lo"])
    def test_repeated_key_usage_error(self, capsys, tmp_path, balanced_params, key):
        # json.loads alone keeps the last value, here a valid one after a bad one.
        population = json.dumps(balanced_params)
        axis = '"name": "delta_O_A", "lo": 0, "hi": 2, "resolution": 3'
        if key == "population":
            population = '{}, "population": ' + population
        elif key == "lambda_a_A":
            population = '{"lambda_a_A": -5, ' + population[1:]
        else:
            axis = '"lo": "x", ' + axis
        text = '{"population": %s, "sweep": {"axes": [{%s}]}}' % (population, axis)
        path = tmp_path / "c.json"
        path.write_text(text)
        assert main(["sweep", "--config", str(path), "--out", os.devnull]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"usage error: config repeats the key {key!r}\n"

    def test_loads_blocks(self, balanced_config):
        estimator = load_config(balanced_config, "estimator")[1]
        assert estimator == {"delta": 0.01, "M": 10000}
        assert load_config(balanced_config, "simulate")[1] == {"N": 20000, "seed": 3}


class TestEquilibriumCommand:
    def test_balanced_report(self, capsys, balanced_config):
        code, report = run_json(capsys, ["equilibrium", "--config", balanced_config])
        assert code == EXIT_OK
        assert report["case"] == "k_A>k_B>1"
        assert report["Q"] == pytest.approx(3.9756, abs=1e-4)
        assert report["believes_A"] is True
        assert report["believes_B"] is True

    def test_no_identity_full_truth(self, capsys, tmp_path, balanced_params):
        params = dict(balanced_params, lambda_s_A=0.0, lambda_s_B=0.0)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"population": params}))
        code, report = run_json(capsys, ["equilibrium", "--config", str(path)])
        assert code == EXIT_OK
        assert report["Q"] == 4.0

    def test_infinite_k_report_is_standard_json(
        self, capsys, tmp_path, balanced_params
    ):
        # Type A's k = (ls dI + la) / (ls dO - la) has a zero denominator at
        # lambda_a_A = 0.9, and JSON has no number for the infinite k_A.
        params = dict(balanced_params, lambda_a_A=0.9)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"population": params}))
        assert main(["equilibrium", "--config", str(path)]) == EXIT_OK

        def strict(constant):
            raise ValueError(f"{constant} is not standard JSON")

        report = json.loads(capsys.readouterr().out, parse_constant=strict)
        assert report["k_A"] == "inf"
        assert report["case"] == "k_A>k_B>1"

    def test_assumption_violation_exits_2(self, tmp_path, balanced_params):
        params = dict(balanced_params, delta_I_A=3.0)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"population": params}))
        assert main(["equilibrium", "--config", str(path)]) == EXIT_DOMAIN_ERROR

    @pytest.mark.parametrize(
        "params, command, code, error",
        # Type A has no weights and type B violates the restriction: the
        # restriction is checked first, by every command.
        [
            (
                dict(lambda_a_A=0.0, lambda_s_A=0.0, delta_I_B=2.0, delta_O_B=1.0),
                command,
                EXIT_DOMAIN_ERROR,
                "error: receiver type B has in_group_penalty > out_group_penalty",
            )
            for command in ("equilibrium", "verify", "estimate", "simulate")
        ]
        # Type A's k overflows and type B has no weights: type A is named
        # first.  The estimator checks only the restriction, so it runs.
        + [
            (
                dict(
                    lambda_a_A=0.5e300, lambda_s_A=1e300, delta_I_A=1e10,
                    delta_O_A=2e10, lambda_a_B=0.0, lambda_s_B=0.0,
                ),
                command,
                EXIT_OK if command == "estimate" else EXIT_DOMAIN_ERROR,
                None if command == "estimate" else "error: receiver type A overflows",
            )
            for command in ("equilibrium", "verify", "estimate", "simulate")
        ],
    )
    def test_error_order_when_checks_fail_together(
        self, capsys, tmp_path, balanced_params, params, command, code, error
    ):
        path = tmp_path / "c.json"
        path.write_text(
            json.dumps(
                {
                    "population": dict(balanced_params, **params),
                    "estimator": {"delta": 1e-6},
                    "simulate": {"N": 1000, "seed": 1},
                }
            )
        )
        argv = [command, "--config", str(path)]
        if command == "simulate":
            argv += ["--out", str(tmp_path / "sim.csv")]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith(error) if error else err == ""

    def test_overflowing_weights_exit_2_naming_the_overflow(
        self, capsys, tmp_path, balanced_params
    ):
        # ls * dO overflows, so k_A is inf/inf; the weights are not zero.
        params = dict(
            balanced_params,
            lambda_a_A=0.5e300,
            lambda_s_A=1e300,
            delta_I_A=1e10,
            delta_O_A=2e10,
        )
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"population": params}))
        assert main(["equilibrium", "--config", str(path)]) == EXIT_DOMAIN_ERROR
        err = capsys.readouterr().err
        assert "receiver type A overflows float64" in err
        assert "zero" not in err

    def test_report_roundtrips_through_believes(self, capsys, balanced_config):
        from identity_channel.model import SenderStrategy
        from identity_channel.receiver import believes

        code, report = run_json(capsys, ["equilibrium", "--config", balanced_config])
        population, _ = load_config(balanced_config)
        strat = SenderStrategy(
            report["m_A"], report["m_B"], report["n_A"], report["n_B"]
        )
        bel = believes(strat, population)
        assert bel == (report["believes_A"], report["believes_B"])


class TestVerifyCommand:
    def test_random_trials(self, capsys):
        code, report = run_json(capsys, ["verify", "--trials", "50", "--seed", "4"])
        assert code == EXIT_OK
        assert report["max_quality_gap"] <= 1e-9
        assert report["failures"] == []

    def test_config_single(self, capsys, balanced_config):
        code, report = run_json(capsys, ["verify", "--config", balanced_config])
        assert code == EXIT_OK
        assert report["trials"] == 1

    def test_zero_trials_usage_error(self):
        assert main(["verify", "--trials", "0"]) == EXIT_USAGE

    def test_trials_too_many_to_draw_usage_error(self, capsys):
        # Rejected before the draw, so nothing is allocated.
        assert main(["verify", "--trials", str(10**19)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"usage error: --trials must be in [1, {2**60 - 1}], got {10**19}\n"
        )

    @pytest.mark.parametrize("seed", ["-1", "2.5"])
    def test_bad_seed_usage_error(self, seed):
        assert main(["verify", "--trials", "1", "--seed", seed]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "flags", [["--trials", "7"], ["--seed", "3"], ["--trials", "7", "--seed", "3"]]
    )
    def test_flags_ignored_by_config_usage_error(
        self, capsys, balanced_config, monkeypatch, flags
    ):
        from identity_channel import cli

        def no_comparison(params):
            raise AssertionError("compared a population despite the flags")

        monkeypatch.setattr(cli, "compare_batch", no_comparison)
        assert main(["verify", "--config", balanced_config] + flags) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "do not apply with --config" in captured.err

    def test_default_trials_and_seed(self, capsys):
        assert run_json(capsys, ["verify"]) == run_json(
            capsys, ["verify", "--trials", "100", "--seed", "0"]
        )

    def test_lp_oracle_without_encoding_exits_2(self, capsys, tmp_path):
        # Restricted, and the closed form solves it (Q = 2, case k_B>k_A>0),
        # but at these scales the LP oracle's absolute 1e-9 tolerance finds
        # no believed vertex.
        params = {
            "lambda_a_A": 1502063.5125848716,
            "lambda_s_A": 200898296.5778057,
            "delta_I_A": 1.9039177785812147e-09,
            "delta_O_A": 875121.2011196348,
            "lambda_a_B": 0.1887004702975436,
            "lambda_s_B": 6.625242742900015e-05,
            "delta_I_B": 420019.12047061854,
            "delta_O_B": 192058681.4687015,
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"population": params}))
        assert main(["verify", "--config", str(path)]) == EXIT_DOMAIN_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


    def test_config_unrestricted_population_exits_2(
        self, capsys, tmp_path, balanced_params
    ):
        # Type A has delta_I > delta_O.  The LP oracle solves it, but the
        # closed form's error comes first.
        params = dict(
            balanced_params,
            lambda_a_A=0.1,
            lambda_s_A=1.0,
            delta_I_A=3.0,
            delta_O_A=1.0,
        )
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"population": params}))
        assert main(["verify", "--config", str(path)]) == EXIT_DOMAIN_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "type A" in captured.err

    @pytest.mark.parametrize(
        "type_A",
        [(1.0, 4.149515568880993e180, 1e150, 2e150), (0.5e300, 1e300, 1e10, 2e10)],
        ids=["products-overflow", "weights-overflow"],
    )
    def test_overflowing_config_writes_the_error_line_alone(
        self, tmp_path, balanced_params, type_A
    ):
        # Type A's k is inf/inf, and the LP oracle, which runs before the
        # closed form's error is raised, overflows on its products.  NumPy
        # warnings would go to stderr ahead of the error, so this runs the
        # CLI in a process of its own to see its whole stderr.
        names = ("lambda_a_A", "lambda_s_A", "delta_I_A", "delta_O_A")
        path = tmp_path / "c.json"
        path.write_text(
            json.dumps({"population": dict(balanced_params, **dict(zip(names, type_A)))})
        )
        run = run_cli_process(["verify", "--config", str(path)])
        assert run.returncode == EXIT_DOMAIN_ERROR
        assert run.stdout == ""
        assert len(run.stderr.splitlines()) == 1
        assert run.stderr.startswith("error: receiver type A overflows float64")


@pytest.mark.parametrize(
    "config, command, code, stderr",
    [
        (
            {"population": population_block(
                4, 4, 5e-324, MAX, 1.5, 0.1, MAX, MAX)},
            ["equilibrium"],
            EXIT_DOMAIN_ERROR,
            "error: no analytic candidate is feasible\n",
        ),
        (
            {
                "population": population_block(
                    1.43e-76, 1.31e78, 0, 4.53e170, 6.90e-132, 1.32e199, 0, 2.47e-93
                ),
                "sweep": {"axes": [{"name": "delta_O_A", "lo": 1e300,
                                    "hi": 1.7e308, "resolution": 5}]},
            },
            ["sweep", "--out", "s.csv"],
            EXIT_OK,
            "",
        ),
        (
            {"population": population_block(5e-324, 0, 0, 0, 0, 0, 0, 0)},
            ["verify"],
            EXIT_DOMAIN_ERROR,
            "error: receiver type B has zero accuracy and identity weights\n",
        ),
        (
            {
                "population": population_block(0, 0, 0, 0, 0, 0, 0, 0),
                "sweep": {"axes": [{"name": "lambda_a_A", "lo": 0, "hi": MAX,
                                    "resolution": 7}],
                          "simplex_constrained": True},
            },
            ["sweep", "--out", "s.csv"],
            EXIT_OK,
            "",
        ),
    ],
    ids=["equilibrium-infeasible", "sweep", "subnormal-lp-determinants",
         "sweep-axis-to-max"],
)
def test_overflowing_belief_tests_write_no_warnings(
    tmp_path, config, command, code, stderr
):
    # The closed form's belief residuals overflow to inf and NaN, which
    # reject the points without NumPy warnings on stderr.  So do the LP
    # oracle's determinants of a subnormal row, which NumPy takes as the
    # exp of a log of 0, and the last value of an axis ending at the
    # largest float, which overflows before it is replaced by hi.
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    run = run_cli_process([*command, "--config", str(path)], cwd=tmp_path)
    assert run.returncode == code
    assert run.stderr == stderr


def _axis(name):
    return {"name": name, "lo": 0.5, "hi": 1.0, "resolution": 3}


#: Config errors of each block, as (command, config of the population, message).
CONFIG_ERRORS = {
    "not-an-object": ("sweep", lambda p: [p], "config must be a JSON object"),
    "no-population": (
        "sweep",
        lambda p: {"sweep": {"axes": [_axis("lambda_s_A")]}},
        "config is missing the 'population' block",
    ),
    "negative-parameter": (
        "sweep",
        lambda p: {"population": dict(p, lambda_a_A=-1.0),
                   "sweep": {"axes": [_axis("lambda_s_A")]}},
        "bad population block: lambda_a_A must be finite and >= 0, got -1.0",
    ),
    "sweep-not-an-object": (
        "sweep",
        lambda p: {"population": p, "sweep": [_axis("lambda_s_A")]},
        "config block 'sweep' must be a JSON object",
    ),
    "no-sweep": ("sweep", lambda p: {"population": p},
                 "config is missing the 'sweep' block"),
    "no-axes": ("sweep", lambda p: {"population": p, "sweep": {"axes": []}},
                "sweep block must list one or two axes"),
    "axis-not-an-object": (
        "sweep",
        lambda p: {"population": p, "sweep": {"axes": [["lambda_s_A", 0.5, 1.0, 3]]}},
        "each sweep axis must be a JSON object",
    ),
    "no-simulate": ("simulate", lambda p: {"population": p},
                    "config is missing the 'simulate' block"),
    "three-axes": (
        "sweep",
        lambda p: {"population": p, "sweep": {"axes": [
            _axis(name) for name in ("lambda_s_A", "delta_O_A", "delta_O_B")]}},
        "a sweep takes one or two axes",
    ),
    "repeated-axis": (
        "sweep",
        lambda p: {"population": p,
                   "sweep": {"axes": [_axis("delta_O_A"), _axis("delta_O_A")]}},
        "sweep axes must be distinct",
    ),
}


@pytest.mark.parametrize(
    "command, make_config, message", CONFIG_ERRORS.values(), ids=CONFIG_ERRORS.keys()
)
def test_config_error_exits_64_with_its_line_alone(
    capsys, tmp_path, balanced_params, command, make_config, message
):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(make_config(balanced_params)))
    out = tmp_path / "out.csv"
    code = main([command, "--config", str(path), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == f"usage error: {message}\n"
    # Neither the CSV nor a temporary file beside it was made.
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


class TestEstimateCommand:
    def test_example_report(self, capsys, balanced_config):
        code, report = run_json(capsys, ["estimate", "--config", balanced_config])
        assert code == EXIT_OK
        assert round(report["k_hat_A"], 3) == 2.855
        assert round(report["k_hat_B"], 3) == 1.024
        assert report["steps_A"] == 21
        assert report["steps_B"] == 21

    def test_reported_strategy_believed(self, capsys, balanced_config):
        from identity_channel.model import SenderStrategy
        from identity_channel.receiver import believes

        code, report = run_json(capsys, ["estimate", "--config", balanced_config])
        assert code == EXIT_OK
        strat = SenderStrategy(
            report["m_A"], report["m_B"], report["n_A"], report["n_B"]
        )
        population = load_config(balanced_config)[0]
        assert believes(strat, population) == (True, True)

    @pytest.mark.parametrize("rows", [[32], range(200)], ids=["row-32", "all-200"])
    def test_printed_strategy_believed_at_fine_resolution(self, capsys, tmp_path, rows):
        """At delta = 1e-12 a certified band point lies within one 12-digit
        step of a belief boundary, and the printed strategy is still
        believed by both types (row 32's n_A rounds up across B's)."""
        from identity_channel.model import SenderStrategy
        from identity_channel.receiver import believes

        params = random_restricted_params(np.random.default_rng(2), 200)
        path = tmp_path / "c.json"
        for i in rows:
            population = population_block(*params[i].tolist())
            config = {"population": population, "estimator": {"delta": 1e-12}}
            path.write_text(json.dumps(config))
            code, report = run_json(capsys, ["estimate", "--config", str(path)])
            assert code == EXIT_OK
            strat = SenderStrategy(
                report["m_A"], report["m_B"], report["n_A"], report["n_B"]
            )
            population = load_config(str(path))[0]
            assert believes(strat, population) == (True, True), i

    def test_missing_block(self, capsys, tmp_path, balanced_params):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"population": balanced_params}))
        assert main(["estimate", "--config", str(path)]) == EXIT_USAGE

    def test_bad_delta_exits_2(self, tmp_path, balanced_params):
        path = tmp_path / "c.json"
        path.write_text(
            json.dumps(
                {"population": balanced_params, "estimator": {"delta": -1, "M": 100}}
            )
        )
        assert main(["estimate", "--config", str(path)]) == EXIT_DOMAIN_ERROR

    #: A field value that removes the field from the estimator block.
    MISSING = object()

    BAD_ESTIMATORS = {
        "delta-missing": {"delta": MISSING},
        "delta-string": {"delta": "abc"},
        "delta-numeric-string": {"delta": "0.01"},
        "delta-list": {"delta": [1]},
        "delta-null": {"delta": None},
        "M-bool": {"M": True},
        "M-string": {"M": "100"},
        "M-huge-int": {"M": 10**400},
    }

    @pytest.mark.parametrize(
        "fields", BAD_ESTIMATORS.values(), ids=BAD_ESTIMATORS.keys()
    )
    def test_bad_estimator_field_usage_error(
        self, capsys, monkeypatch, tmp_path, balanced_params, fields
    ):
        from identity_channel.estimator import GroundTruthOracle

        def no_query(*args):
            raise AssertionError("queried before the config was checked")

        monkeypatch.setattr(GroundTruthOracle, "query", no_query)
        estimator = {"delta": 0.01, "M": 100}
        estimator.update(fields)
        estimator = {k: v for k, v in estimator.items() if v is not self.MISSING}
        path = tmp_path / "c.json"
        path.write_text(
            json.dumps({"population": balanced_params, "estimator": estimator})
        )
        assert main(["estimate", "--config", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: estimator ")

    def test_infinite_search_bound_exits_2(self, capsys, tmp_path, balanced_params):
        path = tmp_path / "c.json"
        path.write_text(
            json.dumps(
                {"population": balanced_params,
                 "estimator": {"delta": 0.01, "M": math.inf}}
            )
        )
        assert main(["estimate", "--config", str(path)]) == EXIT_DOMAIN_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite M" in captured.err

    def test_unrestricted_population_exits_2(
        self, capsys, monkeypatch, tmp_path, balanced_params
    ):
        # Type A has delta_I > delta_O.  Bisection takes m_A = m_B = 1 for
        # granted, and the strategy it synthesizes here (Q = 3.972) is one
        # type A rejects, so the command must refuse before any query.
        from identity_channel.estimator import GroundTruthOracle

        def no_query(*args):
            raise AssertionError("queried an unrestricted population")

        monkeypatch.setattr(GroundTruthOracle, "query", no_query)
        params = dict(
            balanced_params,
            lambda_a_A=0.1,
            lambda_s_A=1.0,
            delta_I_A=3.0,
            delta_O_A=1.0,
        )
        path = tmp_path / "c.json"
        path.write_text(
            json.dumps({"population": params, "estimator": {"delta": 0.01}})
        )
        assert main(["estimate", "--config", str(path)]) == EXIT_DOMAIN_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "type A" in captured.err


class TestSweepCommand:
    def test_sweep_writes_csv(self, capsys, tmp_path, balanced_config):
        out = tmp_path / "sweep.csv"
        code, report = run_json(
            capsys, ["sweep", "--config", balanced_config, "--out", str(out)]
        )
        assert code == EXIT_OK
        assert report["rows"] == 21
        assert 2.0 <= report["min_Q"] <= report["max_Q"] <= 4.0
        assert out.read_text().splitlines()[0] == "axis1,axis2,k_A,k_B,case,n_A,n_B,Q"

    def test_audit_passes_on_lambda_axis(self, capsys, tmp_path, balanced_config):
        out = tmp_path / "sweep.csv"
        code, report = run_json(
            capsys,
            ["sweep", "--config", balanced_config, "--out", str(out), "--audit"],
        )
        assert code == EXIT_OK
        assert report["audit_violations"] == []

    def test_audit_solves_the_sweep_once(
        self, capsys, tmp_path, balanced_config, monkeypatch
    ):
        from identity_channel import experiments

        calls = []
        solve = experiments.solve_cells

        def counted(k_A, k_B, params):
            calls.append(len(k_A))
            return solve(k_A, k_B, params)

        monkeypatch.setattr(experiments, "solve_cells", counted)
        out = tmp_path / "sweep.csv"
        code, report = run_json(
            capsys,
            ["sweep", "--config", balanced_config, "--out", str(out), "--audit"],
        )
        assert code == EXIT_OK
        assert calls == [21]

    def test_audit_of_two_axes_rejected_before_the_sweep(
        self, tmp_path, balanced_params
    ):
        path = tmp_path / "c.json"
        axes = [
            {"name": name, "lo": 0.1, "hi": 0.9, "resolution": 3}
            for name in ("lambda_s_A", "lambda_a_A")
        ]
        path.write_text(
            json.dumps({"population": balanced_params, "sweep": {"axes": axes}})
        )
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", str(path), "--out", str(out), "--audit"])
        assert code == EXIT_USAGE
        assert not out.exists()

    def test_audit_of_axis_without_direction_rejected_before_the_sweep(
        self, capsys, tmp_path, balanced_params
    ):
        path = tmp_path / "c.json"
        axes = [{"name": "delta_I_A", "lo": 0.5, "hi": 1.0, "resolution": 3}]
        path.write_text(
            json.dumps({"population": balanced_params, "sweep": {"axes": axes}})
        )
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", str(path), "--out", str(out), "--audit"])
        assert code == EXIT_USAGE
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "delta_I_A" in captured.err

    def test_resolution_one_rejected(self, tmp_path, balanced_params):
        path = tmp_path / "c.json"
        path.write_text(
            json.dumps(
                {
                    "population": balanced_params,
                    "sweep": {
                        "axes": [
                            {"name": "lambda_s_A", "lo": 0, "hi": 1, "resolution": 1}
                        ]
                    },
                }
            )
        )
        out = tmp_path / "o.csv"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == EXIT_USAGE

    BAD_SWEEPS = {
        "resolution-fraction": ({"resolution": 2.7}, {}),
        "resolution-float": ({"resolution": 3.0}, {}),
        "resolution-bool": ({"resolution": True}, {}),
        "resolution-string": ({"resolution": "3"}, {}),
        "simplex-string": ({}, {"simplex_constrained": "false"}),
        "simplex-int": ({}, {"simplex_constrained": 1}),
        "lo-string": ({"lo": "0.1"}, {}),
        "hi-bool": ({"hi": True}, {}),
        "hi-list": ({"hi": [0.9]}, {}),
        "lo-huge-int": ({"lo": -(10**400)}, {}),
        "span-overflow": ({"lo": -1e308, "hi": 1e308}, {}),
    }

    @pytest.mark.parametrize(
        "axis_fields, sweep_fields", BAD_SWEEPS.values(), ids=BAD_SWEEPS.keys()
    )
    def test_bad_sweep_field_usage_error(
        self, capsys, tmp_path, balanced_params, axis_fields, sweep_fields
    ):
        axis = {"name": "lambda_s_A", "lo": 0.1, "hi": 0.9, "resolution": 3}
        axis.update(axis_fields)
        path = tmp_path / "c.json"
        path.write_text(
            json.dumps(
                {"population": balanced_params,
                 "sweep": {"axes": [axis], **sweep_fields}}
            )
        )
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", str(path), "--out", str(out)])
        assert code == EXIT_USAGE
        assert not out.exists()
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "resolutions", [(10**18, 10**18), (10**20,)], ids=["two-axes", "one-axis"]
    )
    def test_grid_too_large_to_index_usage_error(
        self, capsys, tmp_path, balanced_params, resolutions
    ):
        axes = [
            {"name": name, "lo": 0.0, "hi": 6.0, "resolution": resolution}
            for name, resolution in zip(("delta_O_A", "delta_O_B"), resolutions)
        ]
        path = tmp_path / "c.json"
        path.write_text(
            json.dumps({"population": balanced_params, "sweep": {"axes": axes}})
        )
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", str(path), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err.startswith("usage error: ")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        assert "too large" in captured.err
        # Neither the CSV nor a temporary file beside it was made.
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    @pytest.mark.parametrize("names", [("lambda_s_A", "lambda_a_A"),
                                       ("lambda_a_B", "lambda_s_B")])
    def test_simplex_sweep_over_both_weights_of_one_type_rejected(
        self, capsys, tmp_path, balanced_params, names
    ):
        axes = [{"name": name, "lo": 0, "hi": 1, "resolution": 3} for name in names]
        path = tmp_path / "c.json"
        path.write_text(
            json.dumps(
                {"population": balanced_params,
                 "sweep": {"axes": axes, "simplex_constrained": True}}
            )
        )
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "complement" in captured.err

    def test_audit_of_descending_axis(self, capsys, tmp_path, balanced_params):
        reports = []
        for lo, hi in ((0.0, 1.0), (1.0, 0.0)):
            axis = {"name": "lambda_s_B", "lo": lo, "hi": hi, "resolution": 11}
            path = tmp_path / "c.json"
            path.write_text(
                json.dumps({"population": balanced_params, "sweep": {"axes": [axis]}})
            )
            argv = ["sweep", "--config", str(path), "--out", str(tmp_path / "o.csv")]
            code, report = run_json(capsys, argv + ["--audit"])
            assert code == EXIT_OK
            reports.append(report)
        assert reports[0]["audit_violations"] == reports[1]["audit_violations"] == []

    def test_unwritable_path_exits_2(self, balanced_config, monkeypatch):
        from identity_channel import experiments

        def no_solve(k_A, k_B, params):
            raise AssertionError("solved a sweep it cannot write")

        monkeypatch.setattr(experiments, "solve_cells", no_solve)
        code = main(
            ["sweep", "--config", balanced_config, "--out", "/nonexistent/dir/o.csv"]
        )
        assert code == EXIT_DOMAIN_ERROR

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_written_directly(self, capsys, tmp_path, balanced_config):
        # A pipe (or a device such as /dev/null) cannot be replaced by a
        # finished file: the rows go straight into it.
        pipe, copy = tmp_path / "pipe", tmp_path / "copy.csv"
        os.mkfifo(pipe)
        read = []
        reader = threading.Thread(
            target=lambda: read.append(pipe.read_bytes()), daemon=True
        )
        reader.start()
        code, report = run_json(
            capsys, ["sweep", "--config", balanced_config, "--out", str(pipe)]
        )
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert code == EXIT_OK and report["rows"] == 21
        assert stat.S_ISFIFO(os.stat(pipe).st_mode)
        assert main(["sweep", "--config", balanced_config, "--out", str(copy)]) == 0
        assert read == [copy.read_bytes()]

    @pytest.mark.parametrize("existing", [None, b"an earlier sweep\n"])
    def test_failure_part_way_leaves_no_partial_csv(
        self, capsys, tmp_path, balanced_params, monkeypatch, existing
    ):
        from identity_channel import experiments
        from identity_channel.equilibrium import NoFeasibleEncoding

        solve = experiments.solve_cells
        calls = []

        def fail_on_second_block(k_A, k_B, params):
            calls.append(len(k_A))
            if len(calls) == 2:
                raise NoFeasibleEncoding("no encoding in the second block")
            return solve(k_A, k_B, params)

        monkeypatch.setattr(experiments, "solve_cells", fail_on_second_block)
        axis = {"name": "delta_O_B", "lo": 1.0, "hi": 3.5,
                "resolution": experiments._SWEEP_BLOCK + 5}
        path = tmp_path / "c.json"
        path.write_text(
            json.dumps({"population": balanced_params, "sweep": {"axes": [axis]}})
        )
        out = tmp_path / "sweep.csv"
        if existing is not None:
            out.write_bytes(existing)
        code = main(["sweep", "--config", str(path), "--out", str(out)])
        assert code == EXIT_DOMAIN_ERROR
        assert calls == [experiments._SWEEP_BLOCK, 5]
        assert capsys.readouterr().out == ""
        if existing is None:
            assert not out.exists()
        else:
            assert out.read_bytes() == existing
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["c.json"] + ([] if existing is None else ["sweep.csv"])
        )

    def test_stale_temporary_files_left_alone(self, capsys, tmp_path, balanced_config):
        # Sweeps killed before their move leave temporary files behind; a
        # later run with the same process id must neither fail on them nor
        # touch them.
        out, copy = tmp_path / "sweep.csv", tmp_path / "copy.csv"
        pid = os.getpid()
        stale = [tmp_path / f"sweep.csv.{pid}.tmp"]
        stale += [tmp_path / f"sweep.csv.{pid}.{n}.tmp" for n in range(3)]
        for path in stale:
            path.write_bytes(b"a killed sweep\n")
        assert main(["sweep", "--config", balanced_config, "--out", str(out)]) == 0
        assert [path.read_bytes() for path in stale] == [b"a killed sweep\n"] * 4
        for path in stale:
            path.unlink()
        assert main(["sweep", "--config", balanced_config, "--out", str(copy)]) == 0
        capsys.readouterr()
        assert out.read_bytes() == copy.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "config.json", "copy.csv", "sweep.csv"
        ]

    def test_audit_across_block_edges(self, capsys, tmp_path, balanced_params):
        from identity_channel.experiments import (
            _SWEEP_BLOCK,
            Direction,
            SweepAxis,
            SweepSpec,
            stream_sweep,
        )
        from identity_channel.model import population_from_params

        # Q = 3 + 1/k_B falls once delta_O_B passes ~3.44, across the block
        # edge at grid position 8192 of the ascending axis.
        assert 8192 % _SWEEP_BLOCK == 0
        resolution = 8197
        spec = SweepSpec(
            population_from_params(balanced_params),
            (SweepAxis("delta_O_B", 1.0, 3.5, resolution),),
        )
        summary = stream_sweep(spec, os.devnull, direction=Direction.NONDECREASING)
        expected = [
            {key: float(f"{value:.12g}") for key, value in vars(v).items()}
            for v in summary.violations
        ]
        reports = []
        for lo, hi in ((1.0, 3.5), (3.5, 1.0)):
            axis = {"name": "delta_O_B", "lo": lo, "hi": hi, "resolution": resolution}
            path = tmp_path / "c.json"
            path.write_text(
                json.dumps({"population": balanced_params, "sweep": {"axes": [axis]}})
            )
            argv = ["sweep", "--config", str(path), "--out", str(tmp_path / "o.csv")]
            code, report = run_json(capsys, argv + ["--audit"])
            assert code == EXIT_PROPERTY_FAILURE
            assert report["audit_violations"] == expected
            assert len(expected) == 183
            code, plain = run_json(capsys, argv)
            assert code == EXIT_OK
            assert {k: report[k] for k in plain} == plain
            reports.append(report)
        assert reports[0] == reports[1]


class TestSimulateCommand:
    def test_simulate_report_and_csv(self, capsys, tmp_path, balanced_config):
        out = tmp_path / "sim.csv"
        code, report = run_json(
            capsys, ["simulate", "--config", balanced_config, "--out", str(out)]
        )
        assert code == EXIT_OK
        assert abs(report["accuracy"] - report["expected"]) < 0.01
        lines = out.read_text().splitlines()
        assert lines[0] == "N,seed,accuracy,std_error,expected"

    def test_byte_identical_reruns(self, capsys, tmp_path, balanced_config):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert (
                main(["simulate", "--config", balanced_config, "--out", str(out)])
                == EXIT_OK
            )
            outs.append(out.read_bytes())
        capsys.readouterr()
        assert outs[0] == outs[1]

    def test_unwritable_path_exits_2(self, balanced_config, monkeypatch):
        from identity_channel import cli

        def no_sampling(strategy, population, N, seed):
            raise AssertionError("sampled a simulation it cannot write")

        monkeypatch.setattr(cli, "monte_carlo_accuracy", no_sampling)
        code = main(
            ["simulate", "--config", balanced_config, "--out", "/nonexistent/dir/s.csv"]
        )
        assert code == EXIT_DOMAIN_ERROR

    @pytest.mark.parametrize("existing", [None, b"an earlier simulation\n"])
    def test_failure_leaves_no_partial_csv(
        self, capsys, tmp_path, balanced_config, monkeypatch, existing
    ):
        from identity_channel import cli
        from identity_channel.experiments import NonBelievingReceiver

        def not_believed(strategy, population, N, seed):
            raise NonBelievingReceiver("failed while sampling")

        monkeypatch.setattr(cli, "monte_carlo_accuracy", not_believed)
        out = tmp_path / "sim.csv"
        if existing is not None:
            out.write_bytes(existing)
        code = main(["simulate", "--config", balanced_config, "--out", str(out)])
        assert code == EXIT_DOMAIN_ERROR
        assert capsys.readouterr().out == ""
        if existing is None:
            assert not out.exists()
        else:
            assert out.read_bytes() == existing
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["config.json"] + ([] if existing is None else ["sim.csv"])
        )

    BAD_BLOCKS = {
        "N-zero": {"N": 0},
        "N-negative": {"N": -5},
        "N-fraction": {"N": 2.7},
        "N-float": {"N": 1e3},
        "N-bool": {"N": True},
        "N-string": {"N": "100"},
        "N-missing": {"seed": 3},
        "seed-negative": {"N": 100, "seed": -1},
        "seed-fraction": {"N": 100, "seed": 2.5},
        "seed-bool": {"N": 100, "seed": False},
    }

    @pytest.mark.parametrize("block", BAD_BLOCKS.values(), ids=BAD_BLOCKS.keys())
    def test_bad_block_usage_error(self, tmp_path, balanced_params, block):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"population": balanced_params, "simulate": block}))
        out = tmp_path / "sim.csv"
        code = main(["simulate", "--config", str(path), "--out", str(out)])
        assert code == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("N", [2**63, 10**23])
    def test_N_beyond_int64_usage_error(self, capsys, tmp_path, balanced_params, N):
        path = tmp_path / "c.json"
        path.write_text(
            json.dumps({"population": balanced_params, "simulate": {"N": N}})
        )
        out = tmp_path / "sim.csv"
        code = main(["simulate", "--config", str(path), "--out", str(out)])
        assert code == EXIT_USAGE
        assert f"must be <= {2**63 - 1}" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_flag_usage_error(self, tmp_path, balanced_config):
        out = tmp_path / "sim.csv"
        argv = ["simulate", "--config", balanced_config, "--out", str(out)]
        assert main(argv + ["--seed", "-1"]) == EXIT_USAGE

    @pytest.mark.parametrize("flag", ["5", "3"])
    def test_seed_flag_and_config_seed_usage_error(
        self, capsys, tmp_path, balanced_config, flag
    ):
        # The config gives seed 3; --seed is refused even when it agrees.
        out = tmp_path / "sim.csv"
        argv = ["simulate", "--config", balanced_config, "--out", str(out)]
        assert main(argv + ["--seed", flag]) == EXIT_USAGE
        assert "seed is given twice" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, seed", [([], 0), (["--seed", "5"], 5)])
    def test_seed_flag_without_config_seed(
        self, capsys, tmp_path, balanced_params, flags, seed
    ):
        path = tmp_path / "c.json"
        path.write_text(
            json.dumps({"population": balanced_params, "simulate": {"N": 100}})
        )
        out = tmp_path / "sim.csv"
        argv = ["simulate", "--config", str(path), "--out", str(out)] + flags
        code, report = run_json(capsys, argv)
        assert code == EXIT_OK
        assert report["seed"] == seed
        assert out.read_text().splitlines()[1].split(",")[1] == str(seed)


class TestDomainErrors:
    @pytest.mark.parametrize(
        "error, base",
        [
            (AssumptionViolated, ValueError),
            (IndeterminateParams, ValueError),
            (NoFeasibleEncoding, RuntimeError),
            (InvalidResolution, ValueError),
            (NonBelievingReceiver, ValueError),
        ],
        ids=lambda value: value.__name__,
    )
    def test_every_domain_error_exits_2(
        self, capsys, monkeypatch, balanced_config, error, base
    ):
        # Each keeps its own base, so no `except` elsewhere changes what it
        # catches, and the CLI maps all of them to exit 2 through DomainError.
        from identity_channel import cli

        assert issubclass(error, DomainError) and issubclass(error, base)

        def fail(population):
            raise error("raised by the solver")

        monkeypatch.setattr(cli, "closed_form_equilibrium", fail)
        assert main(["equilibrium", "--config", balanced_config]) == EXIT_DOMAIN_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: raised by the solver\n"


class TestUsage:
    def test_unknown_subcommand(self):
        assert main(["bogus"]) == EXIT_USAGE

    def test_missing_required_flag(self):
        assert main(["equilibrium"]) == EXIT_USAGE


class TestSharedParser:
    def test_parser_built_once(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        main(["verify", "--trials", "1"])
        built.clear()
        for _ in range(3):
            assert main(["verify", "--trials", "1"]) == EXIT_OK
            assert main(["bogus"]) == EXIT_USAGE
        assert built == []
        assert build_parser() is build_parser()

    def test_no_state_leaks_between_calls(self, capsys, tmp_path, balanced_params):
        path = tmp_path / "c.json"
        path.write_text(
            json.dumps(
                {
                    "population": balanced_params,
                    "simulate": {"N": 100},
                    "sweep": {
                        "axes": [
                            {"name": "lambda_s_A", "lo": 0.0, "hi": 1.0,
                             "resolution": 3}
                        ]
                    },
                }
            )
        )
        sim = ["simulate", "--config", str(path), "--out", str(tmp_path / "s.csv")]
        code, report = run_json(capsys, sim + ["--seed", "5"])
        assert (code, report["seed"]) == (EXIT_OK, 5)
        code, report = run_json(capsys, sim)
        assert (code, report["seed"]) == (EXIT_OK, 0)

        assert main(["verify", "--trials", "0"]) == EXIT_USAGE
        capsys.readouterr()
        code, report = run_json(capsys, ["verify", "--trials", "1", "--seed", "2"])
        assert (code, report["trials"]) == (EXIT_OK, 1)

        sweep = ["sweep", "--config", str(path), "--out", str(tmp_path / "w.csv")]
        code, report = run_json(capsys, sweep + ["--audit"])
        assert (code, report["audit_violations"]) == (EXIT_OK, [])
        code, report = run_json(capsys, sweep)
        assert code == EXIT_OK
        assert not [key for key in report if key.startswith("audit_")]


def _balanced_with(**blocks):
    """A config built from the balanced one: its population, edited by
    `blocks["population"]`, plus the other given blocks."""
    edits = blocks.pop("population", {})
    return lambda config: {"population": dict(config["population"], **edits), **blocks}


#: Whole reports, byte for byte, `{out}` standing for the --out path: the
#: command, its config made from the balanced one (None: no --config), the
#: exit code, stdout, and the CSV for `simulate`.
REPORT_PINS = {
    "equilibrium": (["equilibrium"], dict, EXIT_OK, """\
{
  "Q": 3.9756097561,
  "believes_A": true,
  "believes_B": true,
  "case": "k_A>k_B>1",
  "k_A": 2.85714285714,
  "k_B": 1.025,
  "m_A": 1.0,
  "m_B": 1.0,
  "n_A": 0.975609756097,
  "n_B": 1.0
}
""", None),
    "estimate": (["estimate"], dict, EXIT_OK, """\
{
  "Q": 3.97218825244,
  "hit_upper_bound_A": false,
  "hit_upper_bound_B": false,
  "k_hat_A": 2.85471105576,
  "k_hat_B": 1.02383947372,
  "m_A": 1.0,
  "m_B": 1.0,
  "n_A": 0.972188252441,
  "n_B": 1.0,
  "steps_A": 21,
  "steps_B": 21
}
""", None),
    "verify-config": (["verify"], dict, EXIT_OK, """\
{
  "failures": [],
  "max_coordinate_gap": 1.11022302463e-16,
  "max_quality_gap": 0.0,
  "trials": 1
}
""", None),
    "simulate": (["simulate"], dict, EXIT_OK, """\
{
  "N": 20000,
  "accuracy": 0.9947,
  "expected": 0.993902439024,
  "out": "{out}",
  "seed": 3,
  "std_error": 0.000513415523723
}
""", b"N,seed,accuracy,std_error,expected\n"
     b"20000,3,0.9947,0.000513415523723,0.993902439024\n"),
    # k_A == k_B, where the closed form misses the LP's optimum.
    "verify-degenerate-band": (
        ["verify"],
        _balanced_with(
            population=dict(lambda_a_A=0.25, lambda_s_A=0.75, delta_O_B=3.0)
        ),
        EXIT_PROPERTY_FAILURE, """\
{
  "failures": [
    {
      "coordinate_gap": 1.0,
      "population": {
        "delta_I_A": 1.0,
        "delta_I_B": 1.0,
        "delta_O_A": 2.0,
        "delta_O_B": 3.0,
        "lambda_a_A": 0.25,
        "lambda_a_B": 0.55,
        "lambda_s_A": 0.75,
        "lambda_s_B": 0.45
      },
      "quality_gap": 1.8
    }
  ],
  "max_coordinate_gap": 1.0,
  "max_quality_gap": 1.8,
  "trials": 1
}
""", None),
    # Quality falls along delta_O_B, which the audit reads as violations.
    "sweep-audit": (
        ["sweep", "--audit"],
        _balanced_with(
            sweep={
                "axes": [{"name": "delta_O_B", "lo": 1.0, "hi": 3.5, "resolution": 201}]
            }
        ),
        EXIT_PROPERTY_FAILURE, """\
{
  "audit_direction": "nondecreasing",
  "audit_violations": [
    {
      "axis_hi": 3.45,
      "axis_lo": 3.4375,
      "q_hi": 3.99750623441,
      "q_lo": 4.0
    },
    {
      "axis_hi": 3.4625,
      "axis_lo": 3.45,
      "q_hi": 3.99194048357,
      "q_lo": 3.99750623441
    },
    {
      "axis_hi": 3.475,
      "axis_lo": 3.4625,
      "q_hi": 3.98643649815,
      "q_lo": 3.99194048357
    },
    {
      "axis_hi": 3.4875,
      "axis_lo": 3.475,
      "q_hi": 3.98099325567,
      "q_lo": 3.98643649815
    },
    {
      "axis_hi": 3.5,
      "axis_lo": 3.4875,
      "q_hi": 3.9756097561,
      "q_lo": 3.98099325567
    }
  ],
  "max_Q": 4.0,
  "min_Q": 3.9756097561,
  "out": "{out}",
  "rows": 201,
  "skipped": 0
}
""", None),
    "verify-trials": (["verify", "--trials", "1000", "--seed", "1"], None, EXIT_OK, """\
{
  "failures": [],
  "max_coordinate_gap": 2.30867974308e-13,
  "max_quality_gap": 4.37871960912e-13,
  "trials": 1000
}
""", None),
}


@pytest.mark.parametrize("name", REPORT_PINS)
def test_whole_report_is_pinned(capsys, tmp_path, balanced_config, name):
    command, make_config, code, stdout, csv = REPORT_PINS[name]
    argv = list(command)
    if make_config is not None:
        with open(balanced_config) as handle:
            config = make_config(json.load(handle))
        path = tmp_path / "pinned.json"
        path.write_text(json.dumps(config))
        argv[1:1] = ["--config", str(path)]
    out = str(tmp_path / "out.csv")
    if command[0] in ("simulate", "sweep"):
        argv += ["--out", out]
    assert main(argv) == code
    assert capsys.readouterr().out.replace(out, "{out}") == stdout
    if csv is not None:
        assert (tmp_path / "out.csv").read_bytes() == csv


def test_downward_audit_across_block_edge_is_pinned(capsys, tmp_path, balanced_config):
    # delta_O_B runs from 3.5 down to 1.0 at 8197 points, so the audit
    # carries the last solved cell across the block edge at position 8192
    # and reverses the list of a downward axis; Q = 3 + 1/k_B falls in the
    # tail past ~3.44, which the audit reads as 183 violations.
    with open(balanced_config) as handle:
        population = json.load(handle)["population"]
    axis = {"name": "delta_O_B", "lo": 3.5, "hi": 1.0, "resolution": 8197}
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"population": population, "sweep": {"axes": [axis]}}))

    def sweep(*flags):
        out = str(tmp_path / "out.csv")
        code = main(["sweep", "--config", str(path), "--out", out, *flags])
        with open(out, "rb") as handle:
            return code, capsys.readouterr().out.replace(out, "{out}"), handle.read()

    code, stdout, csv = sweep("--audit")
    assert code == EXIT_PROPERTY_FAILURE
    assert len(json.loads(stdout)["audit_violations"]) == 183
    assert hashlib.sha256(stdout.encode()).hexdigest() == (
        "1982cd8b10b1cd69dba37d8114c7d640adc61d7d1a49fbe1fa3f89a41f3f8969"
    )
    assert hashlib.sha256(csv).hexdigest() == (
        "ca5a295b013daf82eac90f271ec6c3e8bc34f40b6f9a9e07a0448a23527f663c"
    )
    code, _, plain = sweep()
    assert code == EXIT_OK
    assert plain == csv


def test_rounding_twice_is_rounding_once():
    """The printer rounds every report real, including those that
    `_printable_strategy` has already rounded; that must change no bit."""
    from identity_channel.cli import _round12

    rng = np.random.default_rng(29)
    values = np.frombuffer(rng.bytes(8 * 50_000), dtype=np.float64)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, MAX, -MAX]
    for value in [*values[np.isfinite(values)].tolist(), *special]:
        once = _round12(value)
        assert _round12(once).hex() == once.hex(), value


def test_printed_strategy_is_the_one_tested():
    """`_printable_strategy` checks `believes` on the fields it returns, so
    each must already be a 12-digit value that the printer leaves as it is."""
    from identity_channel.cli import _printable_strategy, _round12
    from identity_channel.estimator import (
        GroundTruthOracle,
        certified_estimates,
        estimate_k,
        strategy_from_estimates,
    )
    from identity_channel.model import Group, Population, SenderStrategy
    from identity_channel.receiver import believes

    wrong = []
    for i, row in enumerate(random_restricted_params(np.random.default_rng(2), 500)):
        population = Population(*row.tolist())
        oracle = GroundTruthOracle(population)
        res_A, res_B = (estimate_k(oracle, group, 1e-12) for group in Group)
        strategy = strategy_from_estimates(*certified_estimates(res_A, res_B))
        fields, kept = _printable_strategy(strategy, population)
        printed = all(_round12(v) == v for v in fields.values())
        if not printed or believes(SenderStrategy(**fields), population) != kept:
            wrong.append(i)
    assert wrong == []

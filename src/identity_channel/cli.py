"""Command-line front door.

Subcommands: equilibrium, verify, estimate, sweep, simulate.  Configs are
JSON documents; reports are JSON on stdout with reals at 12 significant
digits; sweeps and simulations additionally write CSV artifacts.

Exit codes: 0 success, 1 property failure, 2 domain error, 64 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .equilibrium import (
    MAX_TRIALS,
    UNRESTRICTED,
    check_equivalence,
    check_population,
    closed_form_equilibrium,
    compare_batch,
)
from .estimator import (
    DEFAULT_SEARCH_BOUND,
    GroundTruthOracle,
    certified_estimates,
    estimate_k,
    strategy_from_estimates,
)
from .experiments import (
    MAX_PLAYS,
    SweepAxis,
    SweepSpec,
    expected_direction,
    monte_carlo_accuracy,
    replace_on_success,
    stream_sweep,
    write_simulation_csv,
)
from .model import (
    PARAM_NAMES,
    DomainError,
    Group,
    Population,
    SenderStrategy,
    population_from_params,
    quality,
)
from .receiver import believes

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_DOMAIN_ERROR = 2
EXIT_USAGE = 64


class UsageError(Exception):
    """Bad flags or malformed config; mapped to exit code 64."""


class _Parser(argparse.ArgumentParser):
    """argparse parser that raises instead of exiting, so errors map to 64."""

    def error(self, message):
        raise UsageError(message)


def _round12(value: float) -> float:
    return float(f"{value:.12g}")


#: The keys of each optional per-command config block.
_BLOCK_KEYS = {
    "estimator": {"delta", "M"},
    "sweep": {"axes", "simplex_constrained"},
    "simulate": {"N", "seed"},
}
_AXIS_KEYS = {"name", "lo", "hi", "resolution"}


def _check_keys(block: dict, allowed: set, where: str) -> None:
    unknown = set(block) - allowed
    if unknown:
        raise UsageError(f"unknown keys in {where}: {sorted(unknown)}")


def load_config(path: str, block: str | None = None) -> tuple[Population, dict | None]:
    """The config at `path`: its population, and its `block` block (None if unnamed).

    Every block present is checked.  A named block that is absent or null
    is a usage error, raised after all other checks.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read config {path!r}: {exc}") from exc
    try:
        raw = json.loads(data)
    except ValueError as exc:
        # JSONDecodeError, UnicodeDecodeError and integers over the int
        # digit limit are all ValueErrors.
        raise UsageError(f"config {path!r} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise UsageError(f"config {path!r} nests too deeply") from exc
    if not isinstance(raw, dict):
        raise UsageError("config must be a JSON object")
    _check_keys(raw, {"population", *_BLOCK_KEYS}, "config")
    if "population" not in raw:
        raise UsageError("config is missing the 'population' block")
    params = raw["population"]
    if not isinstance(params, dict):
        raise UsageError("config block 'population' must be a JSON object")
    _check_keys(params, set(PARAM_NAMES), "config block 'population'")
    try:
        population = population_from_params(
            {name: _config_real("population", name, v) for name, v in params.items()}
        )
    except ValueError as exc:
        raise UsageError(f"bad population block: {exc}") from exc
    for name, keys in _BLOCK_KEYS.items():
        if raw.get(name) is not None:
            if not isinstance(raw[name], dict):
                raise UsageError(f"config block {name!r} must be a JSON object")
            _check_keys(raw[name], keys, f"config block {name!r}")
    if block is not None and raw.get(block) is None:
        raise UsageError(f"config is missing the {block!r} block")
    return population, raw.get(block)


def _rounded(value):
    """`value` with every float in it, through dicts and lists, at 12 digits."""
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_rounded(item) for item in value]
    return _round12(value) if isinstance(value, float) else value


def _print_report(report: dict) -> None:
    print(json.dumps(_rounded(report), indent=2, sort_keys=True))


def _printable_strategy(strategy, population) -> tuple[dict, tuple[bool, bool]]:
    """A report's m and n fields of `strategy`, and `believes` of what they print.

    The lie probabilities are rounded to 12 significant digits.  Where that
    crosses a belief boundary (e.g. rounds 1/k_B up), the offending
    coordinate drops to the adjacent 12-digit value below, so the fields
    keep each type's belief and round-trip through `believes`.
    """
    flags = believes(strategy, population)

    def variants(x):
        r = _round12(x)
        step = 10.0 ** (math.floor(math.log10(r)) - 11) if r > 0.0 else 0.0
        return dict.fromkeys([r, max(0.0, r - step)])

    candidates = [
        SenderStrategy(strategy.m_A, strategy.m_B, n_A, n_B)
        for n_A in variants(strategy.n_A)
        for n_B in variants(strategy.n_B)
    ]
    # The nearest rounding is printed when no candidate keeps the belief.
    for printed in [*candidates, candidates[0]]:
        if (kept := believes(printed, population)) == flags:
            break
    return vars(printed), kept


def cmd_equilibrium(args) -> int:
    population, _ = load_config(args.config)
    result = closed_form_equilibrium(population)
    fields, (bel_A, bel_B) = _printable_strategy(result.strategy, population)
    _print_report(
        {
            "k_A": result.params.k_A,
            "k_B": result.params.k_B,
            "case": result.case_label,
            **fields,
            "Q": result.quality,
            "believes_A": bel_A,
            "believes_B": bel_B,
        }
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.config is not None:
        if args.trials is not None or args.seed is not None:
            raise UsageError("--trials and --seed do not apply with --config")
        report = compare_batch([list(load_config(args.config)[0])])
    else:
        trials = 100 if args.trials is None else args.trials
        if not 1 <= trials <= MAX_TRIALS:
            raise UsageError(f"--trials must be in [1, {MAX_TRIALS}], got {trials}")
        report = check_equivalence(trials, args.seed or 0)
    _print_report(
        {
            "trials": len(report.params),
            "max_quality_gap": report.quality_gap.max(),
            "max_coordinate_gap": report.coordinate_gap.max(),
            "failures": [
                {
                    "population": dict(zip(PARAM_NAMES, report.params[i])),
                    "quality_gap": report.quality_gap[i],
                    "coordinate_gap": report.coordinate_gap[i],
                }
                for i in report.failures
            ],
        }
    )
    return EXIT_OK if report.ok else EXIT_PROPERTY_FAILURE


def cmd_estimate(args) -> int:
    population, estimator = load_config(args.config, "estimator")
    if "delta" not in estimator:
        raise UsageError("estimator block is missing 'delta'")
    delta = _config_real("estimator", "delta", estimator["delta"])
    M = _config_real("estimator", "M", estimator.get("M", DEFAULT_SEARCH_BOUND))
    # Bisection announces m_A = m_B = 1, optimal only under the restriction.
    check_population(population, UNRESTRICTED)
    oracle = GroundTruthOracle(population)
    res_A = estimate_k(oracle, Group.A, delta, M)
    res_B = estimate_k(oracle, Group.B, delta, M)
    strat = strategy_from_estimates(*certified_estimates(res_A, res_B))
    _print_report(
        {
            "k_hat_A": res_A.k_hat,
            "steps_A": res_A.steps,
            "hit_upper_bound_A": res_A.hit_upper_bound,
            "k_hat_B": res_B.k_hat,
            "steps_B": res_B.steps,
            "hit_upper_bound_B": res_B.hit_upper_bound,
            **_printable_strategy(strat, population)[0],
            "Q": quality(strat),
        }
    )
    return EXIT_OK


def _config_int(where: str, name: str, value, minimum: int) -> int:
    """A config count as given: a JSON integer (not a bool) >= minimum."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise UsageError(f"{where} {name!r} must be an integer, got {value!r}")
    if value < minimum:
        raise UsageError(f"{where} {name!r} must be >= {minimum}, got {value}")
    return value


def _config_real(where: str, name: str, value) -> float:
    """A config real as given: a JSON number (not a bool), as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise UsageError(f"{where} {name!r} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise UsageError(f"{where} {name!r} is out of range: {exc}") from exc


def _sweep_spec_from_config(population: Population, block: dict) -> SweepSpec:
    raw_axes = block.get("axes")
    if not isinstance(raw_axes, list) or not raw_axes:
        raise UsageError("sweep block must list one or two axes")
    axes = []
    for raw in raw_axes:
        if not isinstance(raw, dict):
            raise UsageError("each sweep axis must be a JSON object")
        _check_keys(raw, _AXIS_KEYS, "sweep axis")
        try:
            axis = SweepAxis(
                name=str(raw["name"]),
                lo=_config_real("sweep axis", "lo", raw["lo"]),
                hi=_config_real("sweep axis", "hi", raw["hi"]),
                resolution=_config_int(
                    "sweep axis", "resolution", raw.get("resolution"), minimum=2
                ),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise UsageError(f"bad sweep axis: {exc}") from exc
        axes.append(axis)
    simplex = block.get("simplex_constrained", False)
    if not isinstance(simplex, bool):
        raise UsageError(
            f"sweep 'simplex_constrained' must be true or false, got {simplex!r}"
        )
    try:
        return SweepSpec(base=population, axes=tuple(axes), simplex_constrained=simplex)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_sweep(args) -> int:
    spec = _sweep_spec_from_config(*load_config(args.config, "sweep"))
    direction = None
    if args.audit:
        if len(spec.axes) != 1:
            raise UsageError("--audit requires a single sweep axis")
        try:
            direction = expected_direction(spec.axes[0].name)
        except ValueError as exc:
            raise UsageError(f"--audit: {exc}") from exc
    try:
        summary = stream_sweep(spec, args.out, direction)
    except OSError as exc:
        print(f"error: cannot write {args.out!r}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN_ERROR
    report = {
        "rows": summary.rows,
        "skipped": summary.skipped,
        "min_Q": summary.min_Q,
        "max_Q": summary.max_Q,
        "out": args.out,
    }
    exit_code = EXIT_OK
    if args.audit:
        report["audit_direction"] = direction.value
        report["audit_violations"] = [vars(v) for v in summary.violations]
        if summary.violations:
            exit_code = EXIT_PROPERTY_FAILURE
    _print_report(report)
    return exit_code


def cmd_simulate(args) -> int:
    population, simulate = load_config(args.config, "simulate")
    N = _config_int("simulate", "N", simulate.get("N"), minimum=1)
    if N > MAX_PLAYS:
        raise UsageError(f"simulate 'N' must be <= {MAX_PLAYS}, got {N}")
    if args.seed is not None and "seed" in simulate:
        raise UsageError("the seed is given twice: by --seed and by simulate 'seed'")
    seed = _config_int(
        "simulate", "seed", simulate.get("seed", args.seed or 0), minimum=0
    )
    result = closed_form_equilibrium(population)
    expected = result.quality / 4.0
    try:
        with replace_on_success(args.out) as handle:
            accuracy, std_error = monte_carlo_accuracy(
                result.strategy, population, N, seed
            )
            write_simulation_csv(handle, N, seed, accuracy, std_error, expected)
    except OSError as exc:
        print(f"error: cannot write {args.out!r}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN_ERROR
    _print_report(
        {
            "N": N,
            "seed": seed,
            "accuracy": accuracy,
            "std_error": std_error,
            "expected": expected,
            "out": args.out,
        }
    )
    return EXIT_OK


def _seed(text: str) -> int:
    """argparse type of --seed: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built on first use and then shared.

    Every later call in the process returns the same parser, so callers
    must not change it; parsing leaves it as it was and gives each call a
    fresh namespace.
    """
    parser = _Parser(
        prog="identity-channel",
        description="Solve, verify, estimate and simulate the identity channel game.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eq = sub.add_parser("equilibrium", help="closed-form equilibrium for a config")
    p_eq.add_argument("--config", required=True)
    p_eq.set_defaults(func=cmd_equilibrium)

    p_ver = sub.add_parser(
        "verify", help="closed form vs LP oracle on random or configured populations"
    )
    p_ver.add_argument("--config", default=None)
    # None marks a flag not given, which --config must not have: the
    # defaults, 100 trials and seed 0, are applied in cmd_verify.
    p_ver.add_argument("--trials", type=int, default=None)
    p_ver.add_argument("--seed", type=_seed, default=None)
    p_ver.set_defaults(func=cmd_verify)

    p_est = sub.add_parser("estimate", help="bisection estimation against the config")
    p_est.add_argument("--config", required=True)
    p_est.set_defaults(func=cmd_estimate)

    p_sw = sub.add_parser("sweep", help="parameter sweep to CSV")
    p_sw.add_argument("--config", required=True)
    p_sw.add_argument("--out", required=True)
    p_sw.add_argument("--audit", action="store_true")
    p_sw.set_defaults(func=cmd_sweep)

    p_sim = sub.add_parser("simulate", help="Monte Carlo accuracy to CSV")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--seed", type=_seed, default=None)
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN_ERROR


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()

"""Acceptance checks: eight end-to-end criteria at their stated tolerances.

Each criterion test evaluates exactly one criterion and prints a single
"CRITERION n: PASS/FAIL" line before asserting, so a verbose run reads as
a checklist.  Two further tests check analytically what criterion 5's
delta_O_B and delta_O_A audits meet instead of its expectation, and one
checks the weight axes against the same case formulas.  Failing
criteria reflect genuine gaps between the model's behavior and the written
expectation; the assertions are not weakened to hide them (see the
repository README for the known failures).
"""

import math

import numpy as np
import pytest

from identity_channel.cli import main
from identity_channel.equilibrium import (
    CASE_LABELS,
    IndeterminateParams,
    augmented_params,
    check_equivalence,
    closed_form_equilibrium,
    random_restricted_population,
)
from identity_channel.estimator import (
    GroundTruthOracle,
    certified_estimates,
    estimate_k,
    strategy_from_estimates,
)
from identity_channel.experiments import (
    Direction,
    SweepAxis,
    SweepSpec,
    monte_carlo_accuracy,
    run_sweep,
    stream_sweep,
)
from identity_channel.model import Group, population_from_params, quality
from identity_channel.receiver import believes

SEED = 20240824

#: The optimal quality in each closed-form case: Q = 3 + 1/k_B where
#: (1, 1, 1/k_B, 1) is optimal, 3 + k_A in case 1>k_A>k_B, 4 where
#: (1, 1, 1, 1) is believed and 2 where only the truth is.
CASE_QUALITY = {
    "k_A<0,k_B<0": lambda k_A, k_B: 4.0,
    "k_B>k_A>0": lambda k_A, k_B: 2.0,
    "1>k_A>k_B": lambda k_A, k_B: 3.0 + k_A,
    "k_A>1>k_B": lambda k_A, k_B: 4.0,
    "k_A>k_B>1": lambda k_A, k_B: 3.0 + 1.0 / k_B,
    "k_B>0>k_A": lambda k_A, k_B: 3.0 + min(1.0, 1.0 / k_B),
}


def report(number: int, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"CRITERION {number}: {status}{suffix}")
    return ok


@pytest.fixture(scope="session")
def equivalence_10k():
    return check_equivalence(10000, SEED)


class TestAcceptance:
    def test_criterion_1_example_reproduction(self, balanced_population):
        params = augmented_params(balanced_population)
        oracle = GroundTruthOracle(balanced_population)
        res_A = estimate_k(oracle, Group.A, 0.01, 1e4)
        res_B = estimate_k(oracle, Group.B, 0.01, 1e4)
        ok = (
            round(params.k_A, 3) == 2.857
            and round(params.k_B, 3) == 1.025
            and abs(res_A.k_hat - 2.857) < 0.01
            and abs(res_B.k_hat - 1.025) < 0.01
            and res_A.steps == 21
            and res_B.steps == 21
        )
        assert report(
            1,
            ok,
            f"k_hat_A={res_A.k_hat:.4f} in {res_A.steps} steps, "
            f"k_hat_B={res_B.k_hat:.4f} in {res_B.steps} steps",
        )

    def test_criterion_2_step_bound(self):
        rng = np.random.default_rng(SEED)
        failures = []
        populations = []
        while len(populations) < 1000:
            pop = random_restricted_population(rng)
            try:
                params = augmented_params(pop)
            except IndeterminateParams:
                continue
            populations.append((pop, params))
        for M, delta in ((1e4, 1e-2), (1e2, 1e-4)):
            bound = math.ceil(math.log2(M / delta)) + 1
            for pop, params in populations:
                oracle = GroundTruthOracle(pop)
                for side, k in ((Group.A, params.k_A), (Group.B, params.k_B)):
                    if not (0.0 < k < M):
                        continue
                    res = estimate_k(oracle, side, delta, M)
                    if res.steps > bound or abs(res.k_hat - k) >= delta:
                        failures.append((M, delta, side, k, res.k_hat, res.steps))
        assert report(2, not failures, f"{len(failures)} violations")

    def test_criterion_3_verify_cli(self):
        code = main(["verify", "--trials", "10000", "--seed", str(SEED)])
        assert report(3, code == 0, f"exit code {code}")

    def test_criterion_4_structural_theorems(self, equivalence_10k):
        closed, lp = equivalence_10k.closed, equivalence_10k.lp
        quality = closed[:, 0] + closed[:, 1] + closed[:, 2] + closed[:, 3]
        bel_A, bel_B = believes(closed.T, equivalence_10k.params.T)
        violation = (
            (closed[:, 0] != 1.0)
            | (closed[:, 1] != 1.0)
            | (quality < 2.0 - 1e-12)
            | ~(bel_A & bel_B)
            | ((lp[:, 3] > 0.0) & (np.abs(lp[:, 0] - 1.0) > 1e-9))
        )
        violations = int(violation.sum())
        assert report(
            4, violations == 0, f"{violations} violations over 10000 populations"
        )

    def test_criterion_5_monotonicity_audit(
        self, high_accuracy_params, balanced_params, low_accuracy_params
    ):
        axis_plans = [
            ("lambda_s_A", 0.0, 1.0, Direction.NONINCREASING),
            ("lambda_s_B", 0.0, 1.0, Direction.NONINCREASING),
            ("lambda_a_A", 0.0, 1.0, Direction.NONDECREASING),
            ("lambda_a_B", 0.0, 1.0, Direction.NONDECREASING),
            ("delta_O_A", 1.0, 2.0, Direction.NONDECREASING),
            ("delta_O_B", 1.0, 3.5, Direction.NONDECREASING),
        ]
        configs = [
            ("high-accuracy", high_accuracy_params),
            ("balanced", balanced_params),
            ("low-accuracy", low_accuracy_params),
        ]
        failing = []
        for config_name, params in configs:
            base = population_from_params(params)
            for axis, lo, hi, direction in axis_plans:
                spec = SweepSpec(base=base, axes=(SweepAxis(axis, lo, hi, 201),))
                violations = stream_sweep(spec, direction=direction).violations
                if violations:
                    worst = max(
                        violations,
                        key=lambda v: abs(v.q_hi - v.q_lo),
                    )
                    failing.append(
                        f"{config_name}/{axis}: {len(violations)} pairs, "
                        f"worst dQ={worst.q_hi - worst.q_lo:+.4f}"
                    )
        assert report(5, not failing, "; ".join(failing) or "all 18 audits clean")

    def test_criterion_6_heatmap_spot_checks(self, balanced_population, whole_sweep):
        spec = SweepSpec(
            base=balanced_population,
            axes=(
                SweepAxis("lambda_s_A", 0.0, 1.0, 101),
                SweepAxis("lambda_a_A", 0.0, 1.0, 101),
            ),
        )
        result = whole_sweep(spec)
        axis1, axis2 = (a.values(i) for a, i in zip(spec.axes, result.index))

        def cell_Q(ls, la):
            return float(result.Q[np.argmin(abs(axis1 - ls) + abs(axis2 - la))])

        negative_region_ok = all(
            Q == pytest.approx(4.0, abs=1e-12)
            for Q in result.Q[(result.k_A < 0.0) & (result.k_B < 0.0)]
        )
        spot_Q = cell_Q(0.1, 0.9)
        spot_ok = spot_Q == pytest.approx(4.0, abs=1e-12)
        balanced_Q = cell_Q(0.45, 0.55)
        balanced_ok = abs(balanced_Q - (2.0 + 1.0 + 1.0 / 1.025)) <= 1e-6
        ok = negative_region_ok and spot_ok and balanced_ok
        assert report(
            6,
            ok,
            f"cell(la=0.9,ls=0.1) Q={spot_Q:.4f} (want 4), "
            f"cell(la=0.55,ls=0.45) Q={balanced_Q:.6f}",
        )

    def test_quality_falls_with_delta_O_B_analytically(self, balanced_population):
        # What criterion 5's delta_O_B audit meets instead of its expectation:
        # raising delta_O_B raises k_B, and in case k_A>k_B>1 the optimum is
        # (1, 1, 1/k_B, 1), so Q = 3 + 1/k_B falls.  Not a criterion.
        spec = SweepSpec(
            base=balanced_population, axes=(SweepAxis("delta_O_B", 1.0, 3.5, 201),)
        )
        result = run_sweep(spec, 0)
        banded = result.case == CASE_LABELS.index("k_A>k_B>1")
        assert banded.any()
        for Q, k_B in zip(result.Q[banded], result.k_B[banded]):
            assert abs(Q - (3.0 + 1.0 / k_B)) <= 1e-12
        assert len(result.Q) == 201
        assert all(b <= a for a, b in zip(result.Q, result.Q[1:]))

    def test_quality_falls_with_delta_O_A_analytically(self, request):
        # Along delta_O_A, k_A falls from -inf through +inf to 0 while k_B
        # stays fixed, and each solved cell's Q must be its case's formula
        # (`CASE_QUALITY`).  So Q never rises.  Not a criterion.
        seen = set()
        for config in ("high_accuracy", "balanced", "low_accuracy"):
            population = request.getfixturevalue(f"{config}_population")
            spec = SweepSpec(
                base=population, axes=(SweepAxis("delta_O_A", 1.0, 6.0, 201),)
            )
            result = run_sweep(spec, 0)
            assert len(result.Q) == 201
            for case, k_A, k_B, Q in zip(
                result.case.tolist(), result.k_A, result.k_B, result.Q
            ):
                label = CASE_LABELS[case]
                seen.add(label)
                assert abs(Q - CASE_QUALITY[label](k_A, k_B)) <= 1e-12
            assert all(b <= a for a, b in zip(result.Q, result.Q[1:]))
        assert seen == set(CASE_LABELS) - {"k_A<0,k_B<0"}

    @pytest.mark.parametrize("simplex_constrained", [False, True])
    @pytest.mark.parametrize(
        "axis", ["lambda_s_A", "lambda_a_A", "lambda_s_B", "lambda_a_B"]
    )
    def test_quality_follows_weights_analytically(
        self, request, axis, simplex_constrained
    ):
        # The paper's headline result, checked cell by cell: each solved
        # cell's Q is its case's formula, and Q never rises with an identity
        # weight nor falls with an accuracy weight.  Not a criterion.
        rises = axis.startswith("lambda_a")
        for config in ("high_accuracy", "balanced", "low_accuracy"):
            spec = SweepSpec(
                base=request.getfixturevalue(f"{config}_population"),
                axes=(SweepAxis(axis, 0.0, 1.0, 201),),
                simplex_constrained=simplex_constrained,
            )
            result = run_sweep(spec, 0)
            assert len(result.Q) == 201
            for case, k_A, k_B, Q in zip(
                result.case.tolist(), result.k_A, result.k_B, result.Q
            ):
                assert abs(Q - CASE_QUALITY[CASE_LABELS[case]](k_A, k_B)) <= 1e-12
            step = np.diff(result.Q)
            assert (step >= 0.0).all() if rises else (step <= 0.0).all()

    def test_criterion_7_monte_carlo_identity(self, balanced_population):
        result = closed_form_equilibrium(balanced_population)
        N = 10**6
        acc, _ = monte_carlo_accuracy(result.strategy, balanced_population, N, SEED)
        expected = result.quality / 4.0
        tol = 3.0 * math.sqrt(0.25 / N)
        ok = abs(acc - expected) <= tol
        assert report(7, ok, f"|{acc:.6f} - {expected:.6f}| vs 3-sigma {tol:.6f}")

    def test_criterion_8_end_to_end_pipeline(self, balanced_population):
        oracle = GroundTruthOracle(balanced_population)
        res_A = estimate_k(oracle, Group.A, 0.01, 1e4)
        res_B = estimate_k(oracle, Group.B, 0.01, 1e4)
        strat = strategy_from_estimates(*certified_estimates(res_A, res_B))
        closed_q = closed_form_equilibrium(balanced_population).quality
        quality_ok = abs(quality(strat) - closed_q) <= 0.05
        bel = believes(strat, balanced_population)
        believed_ok = bel == (True, True)
        assert report(
            8,
            quality_ok and believed_ok,
            f"Q={quality(strat):.4f} vs {closed_q:.4f}, believes={bel}",
        )

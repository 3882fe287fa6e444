"""Tests for the closed-form equilibrium and the independent LP oracle."""

import math

import numpy as np
import pytest

from identity_channel.equilibrium import (
    AssumptionViolated,
    IndeterminateParams,
    NoFeasibleEncoding,
    augmented_params,
    check_equivalence,
    closed_form_equilibrium,
    compare_on,
    full_lp_oracle,
    random_restricted_population,
    solve_batch,
)
from identity_channel.model import IdentityProfile, Population, population_params
from identity_channel.receiver import belief_residuals, believes


def make_population(la_A, ls_A, dI_A, dO_A, la_B, ls_B, dI_B, dO_B):
    return Population(
        IdentityProfile(la_A, ls_A, dI_A, dO_A),
        IdentityProfile(la_B, ls_B, dI_B, dO_B),
    )


class TestAugmentedParams:
    def test_balanced_values(self, balanced_population):
        params = augmented_params(balanced_population)
        assert params.k_A == pytest.approx(1.0 / 0.35)
        assert round(params.k_A, 3) == 2.857
        assert params.k_B == pytest.approx(1.025)

    def test_zero_identity_weight(self):
        pop = make_population(0.5, 0.0, 1, 2, 0.5, 0.0, 1, 2)
        params = augmented_params(pop)
        assert params.k_A == pytest.approx(-1.0)
        assert params.k_B == pytest.approx(-1.0)

    def test_infinite_k_A(self):
        # denominator ls*dO - la exactly zero with positive numerator
        pop = make_population(0.5, 0.25, 1, 2, 0.5, 0.45, 1, 3.5)
        assert augmented_params(pop).k_A == math.inf

    def test_indeterminate(self):
        pop = make_population(0.0, 0.0, 1, 2, 0.5, 0.45, 1, 3.5)
        with pytest.raises(IndeterminateParams):
            augmented_params(pop)


class TestClosedForm:
    def test_balanced_equilibrium(self, balanced_population):
        result = closed_form_equilibrium(balanced_population)
        assert result.case_label == "k_A>k_B>1"
        assert result.strategy.m_A == 1.0
        assert result.strategy.m_B == 1.0
        assert result.strategy.n_A == pytest.approx(1.0 / 1.025, abs=1e-12)
        assert result.strategy.n_B == pytest.approx(1.0, abs=1e-12)
        assert result.quality == pytest.approx(2.0 + 1.0 + 1.0 / 1.025, abs=1e-9)
        assert believes(result.strategy, balanced_population) == (True, True)

    def test_pure_accuracy_seekers(self):
        pop = make_population(0.5, 0.0, 1, 2, 0.7, 0.0, 1, 3.5)
        result = closed_form_equilibrium(pop)
        assert result.case_label == "k_A<0,k_B<0"
        assert result.quality == 4.0

    def test_middle_band_case(self):
        # k_A ~ 0.1647 with k_B = -1 lands in the 1>k_A>k_B case.
        pop = make_population(0.1, 0.9, 0.2, 2, 0.5, 0.0, 1, 2)
        result = closed_form_equilibrium(pop)
        k_A = augmented_params(pop).k_A
        assert k_A == pytest.approx(0.28 / 1.7)
        assert result.case_label == "1>k_A>k_B"
        assert result.strategy.n_A == pytest.approx(1.0, abs=1e-12)
        assert result.strategy.n_B == pytest.approx(k_A, abs=1e-12)
        assert result.quality == pytest.approx(3.0 + k_A, abs=1e-9)

    def test_straddling_band(self, high_accuracy_population):
        # k_B = 0.8 < 1 < k_A: full truth-telling survives.
        result = closed_form_equilibrium(high_accuracy_population)
        assert result.case_label == "k_A>1>k_B"
        assert result.quality == 4.0

    def test_empty_band(self):
        # k_B > k_A > 0 forces silence on bad news.
        pop = make_population(0.1, 0.9, 1, 1.2, 0.1, 0.9, 1, 3.5)
        params = augmented_params(pop)
        assert 0.0 < params.k_A < params.k_B
        result = closed_form_equilibrium(pop)
        assert result.case_label == "k_B>k_A>0"
        assert result.strategy.n_A == 0.0
        assert result.strategy.n_B == 0.0
        assert result.quality == 2.0

    def test_assumption_violation_names_type(self):
        pop = make_population(0.55, 0.45, 2.0, 1.0, 0.55, 0.45, 1, 3.5)
        with pytest.raises(AssumptionViolated, match="type A"):
            closed_form_equilibrium(pop)

    def test_boundary_k_A_equals_one(self):
        # ls=1, la=0.5, dI=1, dO=2 gives k_A = 1.5/1.5 = 1 exactly.
        pop = make_population(0.5, 1.0, 1, 2, 0.5, 0.0, 1, 2)
        result = closed_form_equilibrium(pop)
        assert result.quality == pytest.approx(4.0)

    def test_boundary_point_hundreds_of_ulps_from_believed(self):
        # Population 1152 of `verify --trials 10000 --seed 104845948`: k_B is
        # about 173.  While the b-residual of type B evaluated n_A + 1 - m_A,
        # it rounded n_A to multiples of 2.2e-16, about 255 ulps of n_A, so
        # backing n_A off by single ulps never reached a believed point.
        pop = make_population(
            0.8572832905325746, 0.9943759072365624,
            0.09368713684178509, 0.223035029367617,
            0.0005203164989626696, 0.32615995072801907,
            0.013527085397700755, 2.6191529035618517,
        )
        result = closed_form_equilibrium(pop)
        assert believes(result.strategy, pop) == (True, True)
        assert abs(result.quality - full_lp_oracle(pop).quality) <= 1e-9

    def test_equilibrium_believed(self, balanced_population, low_accuracy_population):
        for pop in (balanced_population, low_accuracy_population):
            result = closed_form_equilibrium(pop)
            assert believes(result.strategy, pop) == (True, True)


class TestLpOracle:
    def test_matches_closed_form_on_balanced(self, balanced_population):
        closed = closed_form_equilibrium(balanced_population)
        lp = full_lp_oracle(balanced_population)
        assert lp.quality == pytest.approx(closed.quality, abs=1e-9)
        assert lp.strategy.n_A == pytest.approx(closed.strategy.n_A, abs=1e-9)
        assert lp.strategy.n_B == pytest.approx(closed.strategy.n_B, abs=1e-9)

    def test_full_truth_when_no_identity(self):
        pop = make_population(0.5, 0.0, 1, 2, 0.5, 0.0, 1, 2)
        lp = full_lp_oracle(pop)
        assert lp.quality == pytest.approx(4.0, abs=1e-12)

    def test_unrestricted_population_supported(self):
        # The oracle needs no penalty-ordering restriction.
        pop = make_population(0.55, 0.45, 2.0, 1.0, 0.55, 0.45, 1.5, 1.0)
        lp = full_lp_oracle(pop)
        assert 0.0 <= lp.quality <= 4.0
        assert believes(lp.strategy, pop) == (True, True)

    def test_matches_highs_on_unrestricted_populations(self):
        # HiGHS solves the LP written from the four residuals of
        # `belief_residuals`, not from the oracle's one row per type.
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(20240824)
        basis = tuple(np.vstack([np.zeros(4), np.eye(4)]).T)
        infeasible = 0
        for _ in range(300):
            weights = rng.random((2, 2)).tolist()
            penalties = (3.0 * rng.random((2, 2))).tolist()
            pop = make_population(
                *weights[0], *penalties[0], *weights[1], *penalties[1]
            )
            res = belief_residuals(basis, pop)
            g = np.array([res.g_A_a, res.g_A_b, res.g_B_a, res.g_B_b])
            c, G = g[:, 0], g[:, 1:] - g[:, :1]
            highs = optimize.linprog(
                -np.ones(4), A_ub=-G, b_ub=c, bounds=[(0.0, 1.0)] * 4,
                method="highs",
            )
            assert highs.status in (0, 2), highs.message
            if highs.status == 2:
                infeasible += 1
                with pytest.raises(NoFeasibleEncoding):
                    full_lp_oracle(pop)
            else:
                assert abs(full_lp_oracle(pop).quality + highs.fun) <= 1e-9
        assert 0 < infeasible < 300


class TestEquivalence:
    def test_random_equivalence(self):
        report = check_equivalence(300, seed=20240824)
        assert report.ok, report.failures[:3]
        assert report.max_quality_gap <= 1e-9
        assert report.max_coordinate_gap <= 1e-9

    def test_compare_on_single(self, balanced_population):
        case = compare_on(balanced_population)
        assert case.quality_gap <= 1e-9
        assert case.coordinate_gap <= 1e-9

    def test_structural_properties_random(self):
        rng = np.random.default_rng(99)
        pops = [random_restricted_population(rng) for _ in range(300)]
        batch = solve_batch(
            np.array([list(population_params(p).values()) for p in pops])
        )
        for i, pop in enumerate(pops):
            if not batch.solved[i]:
                with pytest.raises(IndeterminateParams):
                    closed_form_equilibrium(pop)
                continue
            result = batch.result(i)
            assert result.strategy.m_A == 1.0
            assert result.strategy.m_B == 1.0
            assert 2.0 - 1e-12 <= result.quality <= 4.0
            assert believes(result.strategy, pop) == (True, True)
            lp = full_lp_oracle(pop)
            if lp.strategy.n_B > 0.0:
                assert lp.strategy.m_A == pytest.approx(1.0, abs=1e-9)

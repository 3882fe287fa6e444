"""Tests for bisection estimation and strategy synthesis."""

import math

import numpy as np
import pytest

from identity_channel.equilibrium import (
    augmented_params,
    closed_form_equilibrium,
    random_restricted_population,
    IndeterminateParams,
)
from identity_channel.estimator import (
    DEFAULT_SEARCH_BOUND,
    GroundTruthOracle,
    InvalidResolution,
    certified_estimates,
    estimate_k,
    strategy_from_estimates,
)
from identity_channel.model import Group, SenderStrategy, quality
from identity_channel.receiver import believes


class TestGroundTruthOracle:
    def test_examples(self, balanced_population):
        oracle = GroundTruthOracle(balanced_population)
        assert oracle.query(Group.A, 1.0, 1.0) is True
        assert oracle.query(Group.B, 1.0, 0.9) is False
        assert oracle.query(Group.A, 0.0, 0.0) is True
        assert oracle.query(Group.B, 0.0, 0.0) is True

    @staticmethod
    def answers(population, n_A, n_B):
        oracle = GroundTruthOracle(population)
        return oracle.query(Group.A, n_A, n_B), oracle.query(Group.B, n_A, n_B)

    def test_origin_always_believed(
        self, balanced_population, low_accuracy_population
    ):
        for pop in (balanced_population, low_accuracy_population):
            assert self.answers(pop, 0.0, 0.0) == (True, True)

    def test_truth_rejected_by_B(self, balanced_population):
        assert self.answers(balanced_population, 1.0, 1.0) == (True, False)

    def test_band_edge(self, balanced_population):
        # n_A = 0.9756 is just below 1/k_B = 0.97561, so n_B/n_A lies just
        # above k_B = 1.025 and below k_A = 2.857: inside both bands.
        assert self.answers(balanced_population, 0.9756, 1.0) == (True, True)


class TestEstimateK:
    def test_example_values(self, balanced_population):
        oracle = GroundTruthOracle(balanced_population)
        res_A = estimate_k(oracle, Group.A, 0.01, 1e4)
        res_B = estimate_k(oracle, Group.B, 0.01, 1e4)
        assert round(res_A.k_hat, 3) == 2.855
        assert round(res_B.k_hat, 3) == 1.024
        assert res_A.steps == 21
        assert res_B.steps == 21
        assert abs(res_A.k_hat - 2.857) < 0.01
        assert abs(res_B.k_hat - 1.025) < 0.01
        assert not res_A.hit_upper_bound
        assert not res_B.hit_upper_bound

    def test_invalid_resolution(self, balanced_population):
        oracle = GroundTruthOracle(balanced_population)
        with pytest.raises(InvalidResolution):
            estimate_k(oracle, Group.A, 0.0, 1e4)
        with pytest.raises(InvalidResolution):
            estimate_k(oracle, Group.A, -1.0, 1e4)
        with pytest.raises(InvalidResolution):
            estimate_k(oracle, Group.A, 2e4, 1e4)

    @pytest.mark.parametrize("M", [math.inf, math.nan])
    def test_non_finite_search_bound(self, balanced_population, M):
        # An infinite bound would report k_hat = inf after one query.
        oracle = GroundTruthOracle(balanced_population)
        with pytest.raises(InvalidResolution):
            estimate_k(oracle, Group.B, 0.01, M)

    def test_always_believing_side_climbs_to_bound(self):
        from identity_channel.model import Population

        # identity weight 0 gives k_A = -1 < 0: side A always believes.
        profile = (0.5, 0.0, 1.0, 2.0)
        pop = Population(*profile, *profile)
        res = estimate_k(GroundTruthOracle(pop), Group.A, 0.5, 100.0)
        assert res.k_hat > 100.0 - 0.5
        assert res.hit_upper_bound

    def test_never_lying_side_B_drops_to_zero(self):
        from identity_channel.model import Population

        profile = (0.5, 0.0, 1.0, 2.0)
        pop = Population(*profile, *profile)
        res = estimate_k(GroundTruthOracle(pop), Group.B, 0.01, 1e4)
        assert res.k_hat < 0.01

    def test_bracket_monotone_and_contains_true_k(self, balanced_population):
        truth = GroundTruthOracle(balanced_population)
        true_k = augmented_params(balanced_population).k_A
        queries = []

        class RecordingOracle:
            def query(self, side, n_A, n_B):
                answer = truth.query(side, n_A, n_B)
                queries.append((n_A, n_B, answer))
                return answer

        res = estimate_k(RecordingOracle(), Group.A, 1e-4, 1e4)
        # Rebuild each step's bracket from the answers: the first probe is
        # 1, each next one the bracket's midpoint, and A's "believe" raises
        # the lower end to the probe while "not" lowers the upper end.
        lower, upper, eta = 0.0, 1e4, 1.0
        brackets = []
        for n_A, n_B, believe in queries:
            assert (n_A, n_B) == (min(1.0, 1.0 / eta), min(1.0, eta))
            if believe:
                lower = eta
            else:
                upper = eta
            brackets.append((lower, upper))
            eta = (lower + upper) / 2.0
        assert (lower, upper, len(queries)) == (res.lower, res.upper, res.steps)
        lowers = [b[0] for b in brackets]
        uppers = [b[1] for b in brackets]
        assert lowers == sorted(lowers)
        assert uppers == sorted(uppers, reverse=True)
        for lo, up in brackets:
            assert lo <= true_k <= up

    def test_step_bound_and_accuracy_random(self):
        rng = np.random.default_rng(5)
        for M, delta in ((1e4, 1e-2), (1e2, 1e-4)):
            bound = math.ceil(math.log2(M / delta)) + 1
            count = 0
            while count < 50:
                pop = random_restricted_population(rng)
                try:
                    params = augmented_params(pop)
                except IndeterminateParams:
                    continue
                oracle = GroundTruthOracle(pop)
                for side, k in ((Group.A, params.k_A), (Group.B, params.k_B)):
                    if not (0.0 < k < M):
                        continue
                    res = estimate_k(oracle, side, delta, M)
                    assert res.steps <= bound
                    assert abs(res.k_hat - k) < delta
                count += 1

    def test_delta_below_float_spacing_stops_within_bound(self, balanced_population):
        # The bracket cannot narrow below the float spacing near k, so a
        # delta of 1e-20 must end the search when the midpoint stops moving.
        oracle = GroundTruthOracle(balanced_population)
        params = augmented_params(balanced_population)
        M, delta = 1e4, 1e-20
        bound = math.ceil(math.log2(M / delta)) + 1
        for side, k in ((Group.A, params.k_A), (Group.B, params.k_B)):
            res = estimate_k(oracle, side, delta, M)
            assert res.steps <= bound
            assert (res.lower + res.upper) / 2.0 in (res.lower, res.upper)
            assert abs(res.k_hat - k) <= 2.0 * math.ulp(k)


class TestStrategyFromEstimates:
    def test_example_estimates(self):
        strat = strategy_from_estimates(2.855, 1.024)
        assert strat.m_A == 1.0 and strat.m_B == 1.0
        assert strat.n_B == 1.0
        assert strat.n_A == pytest.approx(1.0 / 1.024, rel=1e-9)

    def test_empty_band(self):
        assert strategy_from_estimates(0.5, 0.9) == SenderStrategy(1, 1, 0, 0)

    def test_band_containing_one(self):
        strat = strategy_from_estimates(2.0, 0.5)
        assert strat == SenderStrategy(1, 1, 1, 1)
        assert quality(strat) == 4.0

    def test_negative_estimates_mean_unconstrained(self):
        # Negative k_A removes the upper ratio limit; negative k_B the lower.
        assert strategy_from_estimates(-1.0, -1.0) == SenderStrategy(1, 1, 1, 1)
        strat = strategy_from_estimates(-1.0, 2.0)
        assert strat.n_B == 1.0
        assert strat.n_A == pytest.approx(0.5, rel=1e-9)

    def test_special_values_pinned(self, special_k):
        """Every pair of special values, bit for bit, -0.0 and signs included.

        Row i holds k_hat_A = special_k[i]; its entries are (n_A, n_B) for
        k_hat_B over `special_k`.  k_hat_A = -0.0 is not negative, so it
        caps the band at ratio 0 and still gives n_A = 1.
        """
        one, silent = (1.0, 1.0), (0.0, 0.0)
        near, tiny = (0.9999999999999898, 1.0), (9.9999999999999e-301, 1.0)
        zero = (0.0, 1.0)
        expected = [
            [one] * 7 + [near, tiny, zero],
            [one] * 7 + [near, tiny, zero],
            [(1.0, -0.0)] * 4 + [silent] * 6,
            [(1.0, 0.0)] * 4 + [silent] * 6,
            [(1.0, 5e-324)] * 5 + [silent] * 5,
            [(1.0, 0.9999999999999899)] * 6 + [silent] * 4,
            [one] * 7 + [silent] * 3,
            [one] * 7 + [near] + [silent] * 2,
            [one] * 7 + [near, tiny, silent],
            [one] * 7 + [near, tiny, zero],
        ]
        for k_hat_A, row in zip(special_k, expected):
            for k_hat_B, point in zip(special_k, row):
                strat = strategy_from_estimates(k_hat_A, k_hat_B)
                assert (strat.m_A, strat.m_B) == (1.0, 1.0)
                got = [strat.n_A.hex(), strat.n_B.hex()]
                assert got == [v.hex() for v in point], (k_hat_A, k_hat_B)

    def test_true_params_believed(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 200:
            pop = random_restricted_population(rng)
            try:
                params = augmented_params(pop)
            except IndeterminateParams:
                continue
            if math.isinf(params.k_A) or math.isinf(params.k_B):
                continue
            strat = strategy_from_estimates(params.k_A, params.k_B)
            assert believes(strat, pop) == (True, True)
            checked += 1

    @pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-12])
    def test_certified_estimates_believed(self, delta):
        rng = np.random.default_rng(17)
        for _ in range(300):
            pop = random_restricted_population(rng)
            oracle = GroundTruthOracle(pop)
            res_A = estimate_k(oracle, Group.A, delta, 1e4)
            res_B = estimate_k(oracle, Group.B, delta, 1e4)
            strat = strategy_from_estimates(*certified_estimates(res_A, res_B))
            assert believes(strat, pop) == (True, True)

    def test_never_believing_sides_give_silent_strategy(self):
        class NeverBelieves:
            def query(self, side, n_A, n_B):
                return False

        res_A = estimate_k(NeverBelieves(), Group.A, 0.01)
        res_B = estimate_k(NeverBelieves(), Group.B, 0.01)
        assert certified_estimates(res_A, res_B) == (0.0, DEFAULT_SEARCH_BOUND)
        strat = strategy_from_estimates(*certified_estimates(res_A, res_B))
        assert strat == SenderStrategy(1, 1, 0, 0)

    def test_end_to_end_quality_near_optimum(self):
        rng = np.random.default_rng(13)
        delta = 1e-4
        checked = 0
        while checked < 100:
            pop = random_restricted_population(rng)
            try:
                params = augmented_params(pop)
            except IndeterminateParams:
                continue
            # Stay away from case boundaries, where a delta-sized estimate
            # error can flip the selected case.
            if not (0.0 < params.k_A < 1e3 and 0.0 < params.k_B < 1e3):
                continue
            if abs(params.k_A - params.k_B) < 3 * delta:
                continue
            if abs(params.k_A - 1.0) < 3 * delta or abs(params.k_B - 1.0) < 3 * delta:
                continue
            oracle = GroundTruthOracle(pop)
            k_hat_A = estimate_k(oracle, Group.A, delta, 1e4).k_hat
            k_hat_B = estimate_k(oracle, Group.B, delta, 1e4).k_hat
            strat = strategy_from_estimates(k_hat_A, k_hat_B)
            opt = closed_form_equilibrium(pop).quality
            assert quality(strat) >= opt - 10 * delta
            checked += 1

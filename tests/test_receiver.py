"""Tests for belief residuals and the receiver best response.

The sign-agreement test rebuilds the expected-utility derivative by direct
posterior enumeration over the four source states, independently of the
residual formulas, and checks that both computations agree in sign.
"""

import pytest
from hypothesis import given, settings, strategies as st

from identity_channel.model import (
    Group,
    Population,
    SenderStrategy,
    receiver_utility,
)
from identity_channel.receiver import belief_residuals, believes, best_response

probs = st.floats(0.0, 1.0, allow_nan=False)
weights = st.floats(0.0, 3.0, allow_nan=False)
penalties = st.floats(0.0, 4.0, allow_nan=False)


def brute_force_derivative(strategy, population, theta_bar, message):
    """d(expected receiver utility)/d(decode prob) for one message.

    Enumerates the uniform prior over (x, theta) and the message kernel;
    the decode probability enters linearly so its derivative is the
    utility advantage of believing over disbelieving, weighted by the
    joint probability of the message.
    """
    row = tuple(population)
    profile = row[:4] if theta_bar is Group.A else row[4:]
    total = 0.0
    for x in (0, 1):
        for theta in Group:
            p_joint = 0.25
            p_msg = strategy.prob_message_a(x, theta)
            if message == "b":
                p_msg = 1.0 - p_msg
            # Believing message a means x_hat=1; believing b means x_hat=0.
            x_hat_believe = 1 if message == "a" else 0
            advantage = receiver_utility(
                x, x_hat_believe, theta, theta_bar, profile
            ) - receiver_utility(x, 1 - x_hat_believe, theta, theta_bar, profile)
            total += p_joint * p_msg * advantage
    return total


def residual_for(strategy, population, theta_bar, message):
    res = belief_residuals(strategy, population)
    return getattr(res, f"g_{theta_bar.value}_{message}")


class TestResiduals:
    def test_truthful_residuals(self, balanced_population):
        res = belief_residuals(SenderStrategy(1, 1, 1, 1), balanced_population)
        assert res.g_A_a == pytest.approx(0.45 * (2.0 - 1.0) + 0.55 * 2.0)
        assert res.g_B_b == pytest.approx(0.45 * (1.0 - 3.5) + 1.1)
        assert res.g_B_b < 0.0

    def test_accuracy_only_reduces_to_quality(self):
        profile = (0.7, 0.0, 1.0, 2.0)
        pop = Population(*profile, *profile)
        for strat in (
            SenderStrategy(1, 1, 1, 1),
            SenderStrategy(0.2, 0.9, 0.4, 0.1),
            SenderStrategy(0, 0, 0, 0),
        ):
            res = belief_residuals(strat, pop)
            expected = 0.7 * (
                strat.m_A + strat.m_B + strat.n_A + strat.n_B - 2.0
            )
            for value in (res.g_A_a, res.g_A_b, res.g_B_a, res.g_B_b):
                assert value == pytest.approx(expected)

    def test_b_message_lie_probability_unrounded(self):
        # At m = 1 a b-message term is the lie probability itself, so one far
        # below the float spacing near 1 still enters the residual.
        profile = (0.0, 1.0, 1.0, 1.0)
        res = belief_residuals(
            SenderStrategy(1.0, 1.0, 1e-17, 0.0), Population(*profile, *profile)
        )
        assert res.g_A_b == 1e-17
        assert res.g_B_b == -1e-17

    def test_accuracy_lie_probabilities_unrounded(self):
        # At m = 1 the accuracy term is the sum of the lie probabilities, so
        # ones far below the float spacing near 1 still enter every residual.
        profile = (1.0, 0.0, 1.0, 1.0)
        res = belief_residuals(
            SenderStrategy(1.0, 1.0, 1e-17, 3e-17), Population(*profile, *profile)
        )
        assert (res.g_A_a, res.g_A_b, res.g_B_a, res.g_B_b) == (4e-17,) * 4

    def test_slope_in_n_B(self, balanced_population):
        # The residual is affine; its slope in n_B is lambda_a - lambda_s*dO.
        s0 = SenderStrategy(1, 1, 0.5, 0.2)
        s1 = SenderStrategy(1, 1, 0.5, 0.7)
        g0 = belief_residuals(s0, balanced_population).g_A_a
        g1 = belief_residuals(s1, balanced_population).g_A_a
        assert (g1 - g0) / 0.5 == pytest.approx(0.55 - 0.45 * 2.0)

    @settings(max_examples=300)
    @given(
        m_A=probs,
        m_B=probs,
        n_A=probs,
        n_B=probs,
        la_A=weights,
        ls_A=weights,
        dI_A=penalties,
        dO_A=penalties,
        la_B=weights,
        ls_B=weights,
        dI_B=penalties,
        dO_B=penalties,
        theta_bar=st.sampled_from(list(Group)),
        message=st.sampled_from(["a", "b"]),
    )
    def test_sign_agreement_with_brute_force(
        self,
        m_A,
        m_B,
        n_A,
        n_B,
        la_A,
        ls_A,
        dI_A,
        dO_A,
        la_B,
        ls_B,
        dI_B,
        dO_B,
        theta_bar,
        message,
    ):
        strategy = SenderStrategy(m_A, m_B, n_A, n_B)
        population = Population(la_A, ls_A, dI_A, dO_A, la_B, ls_B, dI_B, dO_B)
        res = residual_for(strategy, population, theta_bar, message)
        deriv = brute_force_derivative(strategy, population, theta_bar, message)
        # The residual is the derivative times a positive constant (4 under
        # the uniform prior), so signs must agree away from rounding noise.
        assert res == pytest.approx(4.0 * deriv, abs=1e-9)
        if abs(deriv) > 1e-9:
            assert (res > 0) == (deriv > 0)


class TestBestResponse:
    def test_pure_accuracy_seekers_believe_truth(self):
        profile = (1.0, 0.0, 1.0, 2.0)
        pop = Population(*profile, *profile)
        for g in Group:
            br = best_response(SenderStrategy(1, 1, 1, 1), pop, g)
            assert (br.p, br.q) == (1.0, 1.0)

    def test_truthful_not_believed_by_B(self, balanced_population):
        br = best_response(SenderStrategy(1, 1, 1, 1), balanced_population, Group.B)
        assert br.q == 0.0
        assert br.p == 1.0

    def test_equilibrium_strategy_believed(self, balanced_population):
        strat = SenderStrategy(1, 1, 0.9756, 1)
        for g in Group:
            br = best_response(strat, balanced_population, g)
            assert (br.p, br.q) == (1.0, 1.0)

    def test_tie_resolves_to_believe(self):
        # All-zero weights give residuals exactly 0 for every strategy.
        profile = (0.0, 0.0, 0.0, 0.0)
        pop = Population(*profile, *profile)
        br = best_response(SenderStrategy(0.5, 0.5, 0.5, 0.5), pop, Group.A)
        assert (br.p, br.q) == (1.0, 1.0)

    @settings(max_examples=200)
    @given(
        m_A=probs,
        m_B=probs,
        n_A=probs,
        n_B=probs,
        la=weights,
        ls=weights,
        dI=penalties,
        dO=penalties,
        theta_bar=st.sampled_from(list(Group)),
    )
    def test_best_response_is_pure(
        self, m_A, m_B, n_A, n_B, la, ls, dI, dO, theta_bar
    ):
        profile = (la, ls, dI, dO)
        pop = Population(*profile, *profile)
        br = best_response(SenderStrategy(m_A, m_B, n_A, n_B), pop, theta_bar)
        assert br.p in (0.0, 1.0)
        assert br.q in (0.0, 1.0)


class TestBelieves:
    def test_truthful_balanced(self, balanced_population):
        assert believes(SenderStrategy(1, 1, 1, 1), balanced_population) == (
            True,
            False,
        )

    def test_silence_always_believed(self, balanced_population, low_accuracy_population):
        strat = SenderStrategy(1, 1, 0, 0)
        for pop in (balanced_population, low_accuracy_population):
            assert believes(strat, pop) == (True, True)

    def test_consistent_with_best_response(self, balanced_population):
        for strat in (
            SenderStrategy(1, 1, 1, 1),
            SenderStrategy(1, 1, 0.9756, 1),
            SenderStrategy(0.3, 0.8, 0.2, 0.9),
        ):
            bel = believes(strat, balanced_population)
            for idx, g in enumerate(Group):
                br = best_response(strat, balanced_population, g)
                assert bel[idx] == (br.p == 1.0 and br.q == 1.0)

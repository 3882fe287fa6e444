"""Tests for domain types and raw utility functions."""

import math

import pytest
from hypothesis import given, strategies as st

from identity_channel.model import (
    PARAM_NAMES,
    Group,
    Population,
    ReceiverStrategy,
    SenderStrategy,
    accuracy_utility,
    identity_utility,
    population_from_params,
    quality,
    receiver_utility,
)

probs = st.floats(0.0, 1.0, allow_nan=False)


def make_profile(la=0.55, ls=0.45, dI=1.0, dO=2.0):
    return (la, ls, dI, dO)


class TestTypes:
    def test_profile_rejects_negative(self):
        with pytest.raises(ValueError, match="lambda_a_A must be finite"):
            Population(*make_profile(la=-0.1), *make_profile())
        with pytest.raises(ValueError, match="delta_O_B must be finite"):
            Population(*make_profile(), *make_profile(dO=math.inf))

    def test_strategy_bounds(self):
        with pytest.raises(ValueError):
            SenderStrategy(1.1, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            ReceiverStrategy(p=-0.2, q=0.5)

    def test_params_roundtrip(self, balanced_params):
        pop = population_from_params(balanced_params)
        assert dict(zip(PARAM_NAMES, pop)) == balanced_params

    def test_params_rejects_unknown_and_missing(self, balanced_params):
        bad = dict(balanced_params)
        bad["typo"] = 1.0
        with pytest.raises(ValueError):
            population_from_params(bad)
        del bad["typo"]
        del bad["lambda_a_A"]
        with pytest.raises(ValueError):
            population_from_params(bad)


class TestUtilities:
    def test_accuracy_utility(self):
        assert accuracy_utility(1, 1) == 1.0
        assert accuracy_utility(1, 0) == 0.0
        assert accuracy_utility(0, 0) == 1.0

    def test_identity_utility(self):
        profile = make_profile(dI=1.0, dO=2.0)
        assert identity_utility(1, Group.A, Group.A, profile) == -1.0
        assert identity_utility(0, Group.B, Group.A, profile) == -2.0
        assert identity_utility(1, Group.B, Group.A, profile) == 0.0
        assert identity_utility(0, Group.A, Group.A, profile) == 0.0

    def test_receiver_utility_values(self):
        profile = make_profile()
        assert receiver_utility(1, 1, Group.A, Group.A, profile) == pytest.approx(0.10)
        assert receiver_utility(0, 0, Group.B, Group.A, profile) == pytest.approx(-0.35)

    def test_receiver_utility_accuracy_only(self):
        profile = make_profile(ls=0.0)
        for x in (0, 1):
            for x_hat in (0, 1):
                assert receiver_utility(
                    x, x_hat, Group.A, Group.A, profile
                ) == 0.55 * accuracy_utility(x, x_hat)

    def test_quality_examples(self):
        assert quality(SenderStrategy(1, 1, 1, 1)) == 4.0
        assert quality(SenderStrategy(0, 0, 0, 0)) == 0.0
        assert quality(SenderStrategy(1, 1, 0.9756, 1)) == pytest.approx(3.9756)

    @given(m_A=probs, m_B=probs, n_A=probs, n_B=probs)
    def test_quality_bounds(self, m_A, m_B, n_A, n_B):
        q = quality(SenderStrategy(m_A, m_B, n_A, n_B))
        assert 0.0 <= q <= 4.0

    @given(
        la=st.floats(0.0, 5.0),
        ls=st.floats(0.0, 5.0),
        x=st.integers(0, 1),
        x_hat=st.integers(0, 1),
    )
    def test_receiver_utility_affine_in_weights(self, la, ls, x, x_hat):
        base = make_profile(la=la, ls=ls)
        doubled = make_profile(la=2 * la, ls=ls)
        diff = receiver_utility(x, x_hat, Group.A, Group.A, doubled) - receiver_utility(
            x, x_hat, Group.A, Group.A, base
        )
        assert diff == pytest.approx(la * accuracy_utility(x, x_hat))


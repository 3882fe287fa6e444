"""The exact belief reference (`tests/exact.py`) against the float belief test.

The reference decides each residual's sign over `Fraction`s.  Where a
float residual lies beyond its forward error bound, its sign is certain
and must match the reference; nearer zero, only the reference decides.
"""

from fractions import Fraction

import numpy as np
import pytest

from exact import exact_band_optimum, exact_believes, k_ties
from identity_channel.equilibrium import random_restricted_params, solve_batch
from identity_channel.model import SenderStrategy
from identity_channel.receiver import belief_residuals, believes

#: A float residual is at most six roundings deep, each off by at most
#: 2^-53 of a partial sum no larger than `_scale`'s bound, so it is within
#: 16 * 2^-53 * scale of the exact value.
_ERROR_BOUND = 16 * 2.0**-53

#: Closed-form outputs on `random_restricted_params(default_rng(0), 3000)`
#: that one type exactly disbelieves, though the float test believes them.
_DISBELIEVED_AT_SEED_0 = 228

#: Rows of `k_ties(default_rng(5), 3000)` where the closed form gives Q = 2
#: though the exact band is not empty: real degenerate-band misses.  Of
#: the 3000, 1483 have an exactly empty band, where Q = 2 is right.
_REAL_TIE_MISSES_AT_SEED_5 = 92


def _scale(rows: np.ndarray) -> np.ndarray:
    """Per row and residual (A a, A b, B a, B b), a bound on its terms' magnitudes.

    With every probability in [0, 1], a residual's identity part sums
    terms of at most 3 * lambda_s * (delta_I + delta_O), and its accuracy
    part at most 6 * lambda_a.
    """
    la, ls, d_I, d_O = rows.reshape(-1, 2, 4).transpose(2, 0, 1)
    return np.repeat(3.0 * ls * (d_I + d_O) + 6.0 * la, 2, axis=1)


@pytest.fixture(scope="module")
def draws():
    """(strategies, rows, exact): closed-form outputs, then random strategies.

    The first 3000 are the closed form's strategies on seed 0's restricted
    draws; 1000 uniform strategies on seed 1's draws follow.  `exact` holds
    `exact_believes` of each, one row of four flags per draw.
    """
    rows = random_restricted_params(np.random.default_rng(0), 3000)
    batch = solve_batch(rows)
    assert batch.solved.all()
    closed = np.stack([np.ones(3000), np.ones(3000), batch.n_A, batch.n_B], axis=1)
    rng = np.random.default_rng(1)
    strategies = np.concatenate([closed, rng.random((1000, 4))])
    rows = np.concatenate([rows, random_restricted_params(rng, 1000)])
    exact = np.array(
        [
            exact_believes(SenderStrategy(*strategy), row)
            for strategy, row in zip(strategies.tolist(), rows.tolist())
        ]
    )
    return strategies, rows, exact


def test_reference_agrees_with_believes_off_the_error_bound(draws):
    strategies, rows, exact = draws
    res = belief_residuals(strategies.T, rows.T)
    g = np.stack([res.g_A_a, res.g_A_b, res.g_B_a, res.g_B_b], axis=1)
    decided = np.abs(g) > _ERROR_BOUND * _scale(rows)
    assert ((g >= 0.0) == exact)[decided].all()
    # The check is not vacuous: most residuals are decided, of both signs.
    assert decided.mean() > 0.5
    assert exact[decided].any() and not exact[decided].all()
    # Where a type's two residuals are both decided, so is its belief.
    types = decided.reshape(-1, 2, 2).all(axis=2)
    floats = np.stack(believes(strategies.T, rows.T), axis=1)
    assert (floats == exact.reshape(-1, 2, 2).all(axis=2))[types].all()


def test_closed_form_outputs_exactly_disbelieved_at_most_measured(draws):
    strategies, rows, exact = draws
    closed, rows, exact = strategies[:3000], rows[:3000], exact[:3000]
    # The float test believes every one of them ...
    bel_A, bel_B = believes(closed.T, rows.T)
    assert (bel_A & bel_B).all()
    # ... but some pass only by rounding.
    disbelieved = int((~exact.all(axis=1)).sum())
    assert disbelieved <= _DISBELIEVED_AT_SEED_0


def test_believed_closed_form_outputs_at_most_exact_band_optimum(draws):
    """Where a closed-form output is exactly believed, no believed encoding beats it.

    Its exact Q is at most the exact optimum, and short of it by at most
    2^-50, two ulps of a Q in [2, 4), so a poor strategy cannot pass.
    """
    strategies, rows, exact = draws
    believed = exact[:3000].all(axis=1)
    assert believed.sum() >= 3000 - _DISBELIEVED_AT_SEED_0
    for strategy, row in zip(strategies[:3000][believed].tolist(),
                             rows[:3000][believed].tolist()):
        Q = 2 + Fraction(strategy[2]) + Fraction(strategy[3])
        assert 0 <= exact_band_optimum(row) - Q <= 2.0**-50


def test_real_tie_misses_at_most_measured():
    rows = k_ties(np.random.default_rng(5), 3000)
    assert len(rows) == 3000
    batch = solve_batch(rows)
    assert batch.solved.all()
    misses = sum(
        Q == 2.0 and exact_band_optimum(row) > 2
        for Q, row in zip(batch.quality.tolist(), rows.tolist())
    )
    assert misses <= _REAL_TIE_MISSES_AT_SEED_5

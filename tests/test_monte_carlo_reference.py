"""The blocked Monte Carlo sampler against a whole-array reference.

The reference below draws every block's random numbers from the same
per-block streams (block b from the b-th child of `SeedSequence(seed)`),
joins them into length-N arrays, decodes each cell index into its three
fair bits and samples the plays with the plain per-play formulas.  Both do
the same comparisons on the same floats, so `(accuracy, std_error)` must be
equal, not merely close.
"""

import math
import tracemalloc

import numpy as np
import pytest

from identity_channel.equilibrium import closed_form_equilibrium
from identity_channel.experiments import _MC_BLOCK, monte_carlo_accuracy
from identity_channel.model import (
    Group,
    IdentityProfile,
    Population,
    SenderStrategy,
    population_from_params,
)
from identity_channel.receiver import best_response

B = _MC_BLOCK


def reference_accuracy(strategy, population, N, seed):
    children = np.random.SeedSequence(seed).spawn(math.ceil(N / B))
    cells, u_message, u_decode = [], [], []
    for b, child in enumerate(children):
        n = min(B, N - b * B)
        rng = np.random.default_rng(child)
        cells.append(rng.integers(0, 8, n, dtype=np.uint8))
        u = rng.random((2, n))
        u_message.append(u[0])
        u_decode.append(u[1])
    cell = np.concatenate(cells)
    u_message = np.concatenate(u_message)
    u_decode = np.concatenate(u_decode)

    x = (cell >> 2).astype(int)
    theta_is_b = ((cell >> 1) & 1).astype(bool)
    receiver_is_b = (cell & 1).astype(bool)
    p_msg_a = np.where(
        x == 1,
        np.where(theta_is_b, strategy.m_B, strategy.m_A),
        np.where(theta_is_b, 1.0 - strategy.n_B, 1.0 - strategy.n_A),
    )
    msg_is_a = u_message < p_msg_a

    br_A = best_response(strategy, population, Group.A)
    br_B = best_response(strategy, population, Group.B)
    p = np.where(receiver_is_b, br_B.p, br_A.p)
    q = np.where(receiver_is_b, br_B.q, br_A.q)
    x_hat = np.where(
        msg_is_a, (u_decode < p).astype(int), 1 - (u_decode < q).astype(int)
    )

    accuracy = float(np.mean(x_hat == x))
    std_error = math.sqrt(max(accuracy * (1.0 - accuracy), 0.0) / N)
    return accuracy, std_error


def _balanced():
    population = population_from_params(
        {
            "lambda_a_A": 0.55,
            "lambda_s_A": 0.45,
            "delta_I_A": 1.0,
            "delta_O_A": 2.0,
            "lambda_a_B": 0.55,
            "lambda_s_B": 0.45,
            "delta_I_B": 1.0,
            "delta_O_B": 3.5,
        }
    )
    return closed_form_equilibrium(population).strategy, population


def _silent():
    profile = IdentityProfile(1.0, 0.0, 1.0, 2.0)
    return SenderStrategy(1, 1, 0, 0), Population(profile, profile)


def _noiseless():
    profile = IdentityProfile(1.0, 0.0, 1.0, 2.0)
    return SenderStrategy(1, 1, 1, 1), Population(profile, profile)


@pytest.mark.parametrize("case", [_balanced, _silent, _noiseless])
@pytest.mark.parametrize(
    "N", [1, B - 1, B, B + 1, 5 * B // 2], ids=["1", "B-1", "B", "B+1", "2.5B"]
)
def test_blocked_sampler_matches_reference(case, N):
    strategy, population = case()
    for seed in (0, 611):
        assert monte_carlo_accuracy(strategy, population, N, seed) == (
            reference_accuracy(strategy, population, N, seed)
        )


def _peak_traced_bytes(strategy, population, N):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        monte_carlo_accuracy(strategy, population, N, 0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_bounded_in_N():
    strategy, population = _balanced()
    monte_carlo_accuracy(strategy, population, 1, 0)  # first-call set-up
    one_block = _peak_traced_bytes(strategy, population, B)
    eight_blocks = _peak_traced_bytes(strategy, population, 8 * B)
    # Later blocks may overlap the previous block's arrays by a few bytes per
    # play; a whole-array sampler peaks at ~67 bytes per play of all N.
    assert eight_blocks <= one_block + 4 * B

"""The blocked Monte Carlo sampler against a whole-array reference.

The reference below draws every block's raw PCG64 words from the same
per-block streams (block b from the b-th child of `SeedSequence(seed)`),
joins them into length-N arrays, decodes each word's low 3 bits into the
play's three fair bits and its top 53 bits into the float message uniform
u = k 2^-53, and samples the plays with the plain per-play formulas.  The
sampler compares integers where the reference compares floats, and the two
comparisons agree exactly, so `(accuracy, std_error)` must be equal, not
merely close.
"""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from identity_channel import experiments
from identity_channel.equilibrium import closed_form_equilibrium
from identity_channel.experiments import (
    _MC_BLOCK,
    _uniform_threshold,
    monte_carlo_accuracy,
)
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
    raw = np.concatenate(
        [
            np.random.PCG64(child).random_raw(min(B, N - b * B))
            for b, child in enumerate(children)
        ]
    )

    x = ((raw >> 2) & 1).astype(int)
    theta_is_b = ((raw >> 1) & 1).astype(bool)
    receiver_is_b = (raw & 1).astype(bool)
    u_message = (raw >> 11) * 2.0**-53
    p_msg_a = np.where(
        x == 1,
        np.where(theta_is_b, strategy.m_B, strategy.m_A),
        np.where(theta_is_b, 1.0 - strategy.n_B, 1.0 - strategy.n_A),
    )
    msg_is_a = u_message < p_msg_a

    # Best responses are pure: believe a message (decode a as 1, b as 0)
    # with probability p or q in {0, 1}.
    br_A = best_response(strategy, population, Group.A)
    br_B = best_response(strategy, population, Group.B)
    p = np.where(receiver_is_b, br_B.p, br_A.p)
    q = np.where(receiver_is_b, br_B.q, br_A.q)
    x_hat = np.where(msg_is_a, p, 1.0 - q)

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


def _middle_band():
    # 1>k_A>k_B: n_B = k_A ~ 0.1647 is fractional, n_A = 1.
    population = Population(
        IdentityProfile(0.1, 0.9, 0.2, 2.0), IdentityProfile(0.5, 0.0, 1.0, 2.0)
    )
    result = closed_form_equilibrium(population)
    assert result.case_label == "1>k_A>k_B"
    return result.strategy, population


def _silent():
    profile = IdentityProfile(1.0, 0.0, 1.0, 2.0)
    return SenderStrategy(1, 1, 0, 0), Population(profile, profile)


def _noiseless():
    profile = IdentityProfile(1.0, 0.0, 1.0, 2.0)
    return SenderStrategy(1, 1, 1, 1), Population(profile, profile)


@pytest.mark.parametrize("case", [_balanced, _middle_band, _silent, _noiseless])
@pytest.mark.parametrize(
    "N", [1, B - 1, B, B + 1, 5 * B // 2], ids=["1", "B-1", "B", "B+1", "2.5B"]
)
def test_blocked_sampler_matches_reference(case, N):
    strategy, population = case()
    for seed in (0, 611):
        assert monte_carlo_accuracy(strategy, population, N, seed) == (
            reference_accuracy(strategy, population, N, seed)
        )


def test_balanced_golden_value():
    """Pins the sampler's stream: PCG64's raw output, stable under NEP 19.

    A change to how plays are drawn must fail here, even when it keeps the
    sampler and the reference in step.
    """
    strategy, population = _balanced()
    assert monte_carlo_accuracy(strategy, population, 5 * B // 2, 0) == (
        0.99381103515625,
        0.00019375411975699417,
    )


@pytest.mark.parametrize(
    "p",
    [
        0.0,
        2.0**-1074,
        2.0**-53,
        np.nextafter(0.5, 0.0),
        0.5,
        np.nextafter(1.0, 0.0),
        1.0,
    ],
)
def test_uniform_threshold_is_exact(p):
    T = int(_uniform_threshold(p))
    for k in (0, T - 1, T, T + 1, 2**53 - 1):
        if 0 <= k < 2**53:
            assert (k < T) == (k * 2.0**-53 < p), (p, k, T)


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
    for blocks in (8, 64):
        workers = min(experiments._usable_cpus(), blocks)
        peak = _peak_traced_bytes(strategy, population, blocks * B)
        # Each worker holds one block at a time, and a later block may
        # overlap its worker's previous arrays by a few bytes per play; a
        # whole-array sampler peaks at ~67 bytes per play of all N.
        assert peak <= workers * one_block + 4 * B, (blocks, workers)


def _started_threads(monkeypatch):
    """Every thread started from now on, in a list that grows as they start."""
    started = []
    start = threading.Thread.start

    def recording_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    return started


@pytest.mark.parametrize("cpus", [1, 2, 3, 8])
def test_result_independent_of_worker_count(monkeypatch, cpus):
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
    started = _started_threads(monkeypatch)
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the interpreter lock over often
    sizes = (1, B - 1, B, B + 1, 5 * B // 2, 7 * B + 3)
    try:
        for case in (_balanced, _middle_band):
            strategy, population = case()
            for N in sizes:
                assert monte_carlo_accuracy(strategy, population, N, 611) == (
                    reference_accuracy(strategy, population, N, 611)
                ), (case.__name__, N)
        test_balanced_golden_value()
    finally:
        sys.setswitchinterval(switch_interval)
    # min(cpus, blocks) workers per call, the calling thread among them.
    threads = [min(cpus, math.ceil(N / B)) - 1 for N in sizes]
    assert len(started) == 2 * sum(threads) + min(cpus, 3) - 1
    assert all(not thread.is_alive() for thread in started)


def test_one_block_starts_no_thread(monkeypatch):
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 8)
    started = _started_threads(monkeypatch)
    strategy, population = _balanced()
    for N in (1, B - 1, B):
        monte_carlo_accuracy(strategy, population, N, 0)
    assert started == []
    monte_carlo_accuracy(strategy, population, B + 1, 0)
    assert len(started) == 1


class _BlockFailure(RuntimeError):
    pass


@pytest.mark.parametrize(
    "failure, block",
    [(_BlockFailure, 0), (_BlockFailure, 1), (_BlockFailure, 4), (KeyboardInterrupt, 0)],
    ids=["main-first", "thread-first", "thread-later", "interrupt-main"],
)
def test_worker_exception_reaches_caller(monkeypatch, failure, block):
    # Three workers over 3000 blocks: block 0 is the calling thread's first,
    # block 1 the first thread's first and block 4 its second.
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 3)
    started = _started_threads(monkeypatch)
    pcg64 = np.random.PCG64
    drawn = []

    def failing_pcg64(stream):
        if stream.spawn_key == (block,):
            raise failure(f"block {block}")
        drawn.append(stream.spawn_key)
        return pcg64(stream)

    monkeypatch.setattr(np.random, "PCG64", failing_pcg64)
    strategy, population = _balanced()
    with pytest.raises(failure, match=f"block {block}"):
        monte_carlo_accuracy(strategy, population, 3000 * B, 0)
    assert len(started) == 2
    for thread in started:
        thread.join(timeout=10.0)
        assert not thread.is_alive()
    # The other workers stop at their next block; left to run on, they
    # would draw 2000 blocks.
    assert len(drawn) <= 300

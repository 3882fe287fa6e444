"""The counting Monte Carlo sampler against a per-play reference.

The reference below draws the same raw PCG64 words in the same order as
the sampler, but gives every play its own bits.  A play's cell is
2 x + [source is B], and it hits when k < H for its cell, H = T where
x = 1 and 2^53 - T where x = 0, since the x = 0 cells walk 2^53 - 1 - k
in place of k.  So every play draws one u in [0, 2^55), which the
sampler walks against the sum of the four H from bit 54 down: each play
whose u is still tied with the sum gets the next bit from a fair split of
the tied plays, which takes the next ceil(m / 64) raw words for m tied
plays, read from bit 0 up, play j of the split (in play order) getting
bit j.  A side stream, which the sampler does not have, fills the bits of
u that the walk left open and picks each play's receiver type.  u maps one
to one onto (cell, walked k): below the sum lie the hits, cell by cell,
with k < H; the misses follow, cell by cell, with k >= H.  The reference
then compares k with the cell's own T and decodes with the best responses
and the plain per-play formulas, so `(accuracy, std_error)` must be equal,
not merely close, and the two must leave the stream at the same word.
"""

import math
import threading
import tracemalloc

import numpy as np
import pytest

from identity_channel import experiments
from identity_channel.equilibrium import closed_form_equilibrium
from identity_channel.experiments import (
    MAX_PLAYS,
    _count_below,
    _fair_split,
    _uniform_threshold,
    monte_carlo_accuracy,
)
from identity_channel.model import (
    Group,
    Population,
    SenderStrategy,
    population_from_params,
)
from identity_channel.receiver import best_response


def _next_bits(bits, n):
    """The next n fair bits of `bits`: ceil(n / 64) raw words, bit 0 first."""
    words = bits.random_raw(-(-n // 64)).astype("<u8")
    return np.unpackbits(words.view(np.uint8), bitorder="little")[:n]


def reference_accuracy(strategy, population, N, seed):
    """The sampler's `(accuracy, std_error)`, one play at a time, and its stream."""
    bits = np.random.PCG64(np.random.SeedSequence(seed))
    side = np.random.default_rng([seed, 1976])
    # Cell 2 x + [source is B]: the message is a when k < T.
    T = _uniform_threshold(
        [1.0 - strategy.n_A, 1.0 - strategy.n_B, strategy.m_A, strategy.m_B]
    )
    H = np.concatenate([2**53 - T[:2], T[2:]])
    total = int(H.sum())

    # Each play's u is tied while its bits so far agree with total's.
    # Every u is below 2^55 and none below 0.
    live = np.full(N, 0 < total < 2**55)
    prefix = np.zeros(N, dtype=np.int64)
    known = np.zeros(N, dtype=np.int64)
    for i in range(54, -1, -1):
        # A tie on every bit of total that is set: u is at least total.
        live &= total % (2 << i) != 0
        if not live.any():
            break
        bit = np.zeros(N, dtype=np.int64)
        bit[live] = _next_bits(bits, int(live.sum()))
        prefix = np.where(live, 2 * prefix + bit, prefix)
        known += live
        live &= prefix == total >> i
    free = 55 - known
    u = (prefix << free) | (side.integers(0, 2**55, size=N) & ((1 << free) - 1))
    receiver_is_b = side.integers(0, 2, size=N) == 1

    # u < total takes the hits of cells 0 to 3 in turn, each H wide; the
    # misses of cells 0 to 3 follow, each 2^53 - H wide, from k = H up.
    miss = u >= total
    width = np.where(miss[:, None], 2**53 - H, H)
    end = np.cumsum(width, axis=1)
    v = u - np.where(miss, total, 0)
    cell = (v[:, None] >= end).sum(axis=1)
    walked = v - (end - width)[np.arange(N), cell] + np.where(miss, H[cell], 0)
    x = cell >> 1
    # The walked k is k where x = 1 and 2^53 - 1 - k where x = 0.
    k = np.where(x == 1, walked, 2**53 - 1 - walked)
    msg_is_a = k < T[cell]

    # Best responses are pure: believe a message (decode a as 1, b as 0)
    # with probability p or q in {0, 1}.
    br_A = best_response(strategy, population, Group.A)
    br_B = best_response(strategy, population, Group.B)
    p = np.where(receiver_is_b, br_B.p, br_A.p)
    q = np.where(receiver_is_b, br_B.q, br_A.q)
    x_hat = np.where(msg_is_a, p, 1.0 - q)

    accuracy = float(np.mean(x_hat == x))
    std_error = math.sqrt(max(accuracy * (1.0 - accuracy), 0.0) / N)
    return (accuracy, std_error), bits


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
    population = Population(0.1, 0.9, 0.2, 2.0, 0.5, 0.0, 1.0, 2.0)
    result = closed_form_equilibrium(population)
    assert result.case_label == "1>k_A>k_B"
    return result.strategy, population


def _silent():
    profile = (1.0, 0.0, 1.0, 2.0)
    return SenderStrategy(1, 1, 0, 0), Population(*profile, *profile)


def _noiseless():
    profile = (1.0, 0.0, 1.0, 2.0)
    return SenderStrategy(1, 1, 1, 1), Population(*profile, *profile)


def _two_lies():
    # Accuracy-only receivers believe; both x = 0 cells lie now and then,
    # so the sum of H has set and clear bits all the way down to bit 0.
    profile = (1.0, 0.0, 1.0, 2.0)
    return SenderStrategy(1, 1, 0.3, 0.6), Population(*profile, *profile)


def _half_lies():
    # The x = 0 source A cell's T = 2^52 has one bit set; the other cell's
    # T still gives the sum of H many bits.
    profile = (1.0, 0.0, 1.0, 2.0)
    return SenderStrategy(1, 1, 0.5, 0.6), Population(*profile, *profile)


def _uneven_truths():
    # Accuracy-only receivers believe; every T has many bits set, but they
    # cancel in the sum of H = 5 2^52, so the walk stops after bit 52 with
    # plays still tied.
    profile = (1.0, 0.0, 1.0, 2.0)
    return SenderStrategy(0.9, 0.7, 0.3, 0.6), Population(*profile, *profile)


@pytest.fixture
def recorded_streams(monkeypatch):
    """Every PCG64 made from now on, in a list that grows as they are made."""
    made = []
    pcg64 = np.random.PCG64

    def recording_pcg64(seed):
        made.append(pcg64(seed))
        return made[-1]

    monkeypatch.setattr(np.random, "PCG64", recording_pcg64)
    return made


B = 2**16

SIZES = {
    "1": 1, "63": 63, "64": 64, "65": 65, "1000": 1000,
    "B-1": B - 1, "B": B, "B+1": B + 1, "2.5B": 5 * B // 2,
}


@pytest.mark.parametrize(
    "case",
    [_balanced, _middle_band, _silent, _noiseless, _two_lies, _half_lies, _uneven_truths],
)
@pytest.mark.parametrize("N", SIZES.values(), ids=SIZES.keys())
def test_blocked_sampler_matches_reference(case, N, recorded_streams):
    """The sampler, drawing its raw words in blocks of at most `_MC_CHUNK`."""
    strategy, population = case()
    for seed in (0, 611):
        expected, reference_bits = reference_accuracy(strategy, population, N, seed)
        recorded_streams.clear()
        assert monte_carlo_accuracy(strategy, population, N, seed) == expected
        (bits,) = recorded_streams
        assert bits.state == reference_bits.state


def test_balanced_golden_value():
    """Pins the sampler's stream: PCG64's raw output, stable under NEP 19.

    A change to how the bits are drawn must fail here, even when it keeps
    the sampler and the reference in step.
    """
    strategy, population = _balanced()
    assert monte_carlo_accuracy(strategy, population, 5 * B // 2, 0) == (
        0.993719482421875,
        0.00019517296073302002,
    )


@pytest.mark.parametrize("chunk", [1, 2, 3, 64])
def test_result_independent_of_chunk_size(monkeypatch, chunk):
    # Splits cross chunk edges at any size; the words drawn stay in order.
    monkeypatch.setattr(experiments, "_MC_CHUNK", chunk)
    for case in (_two_lies, _middle_band):
        strategy, population = case()
        for N in (65, 1000, 5 * B // 2):
            expected, _ = reference_accuracy(strategy, population, N, 611)
            assert monte_carlo_accuracy(strategy, population, N, 611) == expected


def test_starts_no_thread(monkeypatch):
    started = []
    monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
    strategy, population = _middle_band()
    for N in (1, 5 * B // 2, 2**24):
        monte_carlo_accuracy(strategy, population, N, 0)
    assert started == []


@pytest.mark.parametrize("N", [MAX_PLAYS + 1, 10**23])
def test_rejects_N_beyond_int64(N):
    strategy, population = _balanced()
    with pytest.raises(ValueError, match="N must be in"):
        monte_carlo_accuracy(strategy, population, N, 0)


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


def _binomial_p_value(draws, n, p):
    """Chi-squared p-value of `draws` against Binomial(n, p).

    Bins expected to hold fewer than 5 draws are pooled into the tails, or
    into one bin where only one bin is expected to hold 5.
    """
    stats = pytest.importorskip("scipy.stats")
    pmf = np.array([math.comb(n, j) * p**j * (1.0 - p) ** (n - j) for j in range(n + 1)])
    expected = len(draws) * pmf
    observed = np.bincount(draws, minlength=n + 1).astype(float)
    big = np.flatnonzero(expected >= 5.0)
    lo, hi = big[0], big[-1]

    if lo == hi:
        # One bin holds nearly every draw: test it against all the others.
        def pool(a):
            return np.array([a[lo], np.delete(a, lo).sum()])
    else:
        def pool(a):
            return np.concatenate(([a[: lo + 1].sum()], a[lo + 1 : hi], [a[hi:].sum()]))

    observed, expected = pool(observed), pool(expected)
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    return stats.chi2.sf(chi2, len(expected) - 1)


@pytest.mark.parametrize("n", [7, 70])
@pytest.mark.parametrize("p", [0.3, 1.0 / 3.0, 0.5, 0.9])
def test_count_below_is_binomial(n, p):
    """The count has the Binomial(n, H 2^-55) pmf, over 40000 calls.

    H = ceil(p 2^55) has set bits all the way down for p = 0.3 and 1/3.
    n = 70 spans two words per split.
    """
    H = int(np.ceil(p * 2.0**55))
    bits = np.random.PCG64(np.random.SeedSequence(1976))
    draws = np.array([_count_below(bits, n, H) for _ in range(40000)])
    assert _binomial_p_value(draws, n, H * 2.0**-55) > 1e-3


@pytest.mark.parametrize("n", [7, 70])
@pytest.mark.parametrize("H", [1, 2**55 - 1], ids=["1", "2^55-1"])
def test_count_below_is_binomial_at_the_extremes(n, H):
    """At H = 1 and 2^55 - 1, one bit of the walk's last split decides.

    2^55 - 1 has all 55 bits set, so ties run from bit 54 to bit 0.  Its
    misses, n - count, are tested as Binomial(n, (2^55 - H) 2^-55), the
    same law, as 1 - 2^-55 is not a float.
    """
    bits = np.random.PCG64(np.random.SeedSequence(1976))
    draws = np.array([_count_below(bits, n, H) for _ in range(40000)])
    if H > 2**54:
        draws, H = n - draws, 2**55 - H
    assert _binomial_p_value(draws, n, H * 2.0**-55) > 1e-3


@pytest.mark.parametrize(
    "H, tied, below", [(1, 0, 7), (2**55 - 1, 7, 0)], ids=["1", "2^55-1"]
)
def test_count_below_walks_to_bit_0(monkeypatch, H, tied, below):
    # A split that keeps every tied play tied for H's next bit: the walk
    # makes one split per bit, 54 to 0, and only bit 0 decides the count.
    splits = []

    def split(bits, n):
        splits.append(n)
        return tied

    monkeypatch.setattr(experiments, "_fair_split", split)
    assert _count_below(None, 7, H) == below
    assert splits == [7] * 55


@pytest.mark.parametrize("n", [3, 65])
def test_fair_splits_are_binomial_half(n):
    bits = np.random.PCG64(np.random.SeedSequence(1976))
    draws = np.array([_fair_split(bits, n) for _ in range(16000)])
    assert _binomial_p_value(draws, n, 0.5) > 1e-3


def _hit_probability(strategy):
    """a: the mean over the (x, source) cells of T 2^-53 where x = 1 and
    1 - T 2^-53 where x = 0, the chance that a play is decoded correctly."""
    cells = [(x, source) for x in (0, 1) for source in Group]
    T = _uniform_threshold([strategy.prob_message_a(x, s) for x, s in cells])
    return float(np.where(np.arange(4) >= 2, T * 2.0**-53, 1.0 - T * 2.0**-53).mean())


def test_accuracy_mean_and_variance_over_seeds():
    """Over 4000 seeds at N = 1000, accuracy has Binomial(N, a) / N moments.

    Plays are independent, each decoded correctly with probability a; n_B
    is fractional here, so T has many bits set.  With 4000 seeds the mean's
    z-score is held within 4 and the variance ratio within 0.1 (about 4.5
    of its standard errors).
    """
    strategy, population = _middle_band()
    a = _hit_probability(strategy)
    assert 0.6 < a < 0.99
    N, seeds = 1000, 4000
    accuracy = np.array(
        [monte_carlo_accuracy(strategy, population, N, s)[0] for s in range(seeds)]
    )
    variance = a * (1.0 - a) / N
    assert abs(accuracy.mean() - a) <= 4.0 * math.sqrt(variance / seeds)
    assert abs(accuracy.var(ddof=1) / variance - 1.0) <= 0.1


@pytest.mark.parametrize("N", [7, 70])
@pytest.mark.parametrize("case", [_two_lies, _half_lies, _middle_band, _uneven_truths])
def test_hits_are_binomial_over_seeds(case, N):
    """Over 4000 seeds, the whole sampler's hits have the Binomial(N, a) pmf.

    This is the law of the summed H and the walk together: an x = 0 cell
    counted below T in place of 2^53 - T, or a walk that skips a bit of the
    sum, moves the pmf.  N = 70 spans two words per split.
    """
    strategy, population = case()
    hits = [
        round(monte_carlo_accuracy(strategy, population, N, seed)[0] * N)
        for seed in range(4000)
    ]
    assert _binomial_p_value(np.array(hits), N, _hit_probability(strategy)) > 1e-3


def _words_drawn(bits, seed):
    """How many raw words `bits` drew since it was made from SeedSequence(seed)."""
    fresh = np.random.PCG64(np.random.SeedSequence(seed))
    for drawn in range(10_000):
        if fresh.state == bits.state:
            return drawn
        fresh.random_raw()
    raise AssertionError("more than 10000 words drawn")


def test_count_below_draws_only_what_T_needs():
    m = [100, 0, 64, 65, 1, 200, 7, 129]
    # H = 0 and H = 2^55 decide every play without a word.
    bits = np.random.PCG64(np.random.SeedSequence(5))
    assert [_count_below(bits, n, 0) for n in m] == [0] * 8
    assert [_count_below(bits, n, 2**55) for n in m] == m
    assert _words_drawn(bits, 5) == 0
    # H = 2^54 has bit 54 set and no other: one split, whose zeros are below.
    bits = np.random.PCG64(np.random.SeedSequence(5))
    below = [_count_below(bits, n, 2**54) for n in m]
    twin = np.random.PCG64(np.random.SeedSequence(5))
    assert below == [n - _fair_split(twin, n) for n in m]
    assert bits.state == twin.state
    assert _words_drawn(bits, 5) == sum(-(-n // 64) for n in m)
    # H = 2^54 + 2^53: the ones of bit 54 stay tied for one more split only.
    bits = np.random.PCG64(np.random.SeedSequence(5))
    below = [_count_below(bits, n, 3 * 2**53) for n in m]
    twin = np.random.PCG64(np.random.SeedSequence(5))
    ones = [_fair_split(twin, _fair_split(twin, n)) for n in m]
    assert below == [n - k for n, k in zip(m, ones)]
    assert bits.state == twin.state


@pytest.mark.parametrize(
    "case, words", [(_silent, 16), (_noiseless, 0)], ids=["_silent", "_noiseless"]
)
def test_decided_cells_draw_only_the_top_split(case, words, recorded_streams):
    # Every cell's H is 0 or 2^53, so their sum is a multiple of 2^53.  All
    # four H are 2^53 when noiseless, a sum of 2^55: every play hits and
    # nothing is drawn.  When silent the x = 0 cells' H are 0 and the x = 1
    # cells' 2^53, a sum of 2^54: the 1000 plays are split once, at bit 54,
    # in ceil(1000 / 64) words.
    strategy, population = case()
    monte_carlo_accuracy(strategy, population, 1000, 3)
    (bits,) = recorded_streams
    assert _words_drawn(bits, 3) == words


def _peak_traced_bytes(strategy, population, N):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        monte_carlo_accuracy(strategy, population, N, 0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_bounded_in_N():
    strategy, population = _middle_band()
    monte_carlo_accuracy(strategy, population, 1, 0)  # first-call set-up
    small = _peak_traced_bytes(strategy, population, 2**20)
    large = _peak_traced_bytes(strategy, population, 2**28)
    # 2^20 plays are split in blocks of 2^14 words, 2^28 plays in blocks of
    # 2^16: two blocks of 512 KiB are held at most, the last while the next
    # is drawn, so 1 MiB bounds the difference.  A sampler holding one
    # word per play would need 2 GiB.
    assert large <= small + 2**20, (small, large)

"""The counting Monte Carlo sampler against a per-play reference.

The reference below draws the same raw PCG64 words in the same order as
the sampler, but gives every play its own bits.  Each fair split of m plays
takes the next ceil(m / 64) raw words, read from bit 0 up: play j of the
split (in play order) gets bit j.  A play's cell is 2 x + [source is B],
and a play hits when k < H for its cell, H = T where x = 1 and 2^53 - T
where x = 0, since the x = 0 cells walk 2^53 - 1 - k in place of k.  Every
play starts in the group of all 4 cells; twice, each group whose cells' H
differ is split in halves by one fair split, groups in order.  Then, from
bit 52 down, each play whose k is still tied with its group's H gets the
next bit from a split of its group's tied plays, groups in order.  A side
stream, which the sampler does not have, picks each play's cell within
its group, its receiver type, and the bits of k that the walk left open.
The reference then compares k with the cell's own T and decodes with the
best responses and the plain per-play formulas, so `(accuracy, std_error)`
must be equal, not merely close, and the two must leave the stream at the
same word.
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
    _fair_splits,
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


def _next_bits(bits, n):
    """The next n fair bits of `bits`: ceil(n / 64) raw words, bit 0 first."""
    words = bits.random_raw(-(-n // 64)).astype("<u8")
    return np.unpackbits(words.view(np.uint8), bitorder="little")[:n]


def _deal(bits, group):
    """A fair bit for each play of group >= 0, dealt group by group in play order."""
    bit = np.zeros(len(group), dtype=np.int64)
    for g in np.unique(group[group >= 0]):
        plays = np.flatnonzero(group == g)
        bit[plays] = _next_bits(bits, len(plays))
    return bit


def reference_accuracy(strategy, population, N, seed):
    """The sampler's `(accuracy, std_error)`, one play at a time, and its stream."""
    bits = np.random.PCG64(np.random.SeedSequence(seed))
    side = np.random.default_rng([seed, 1976])
    # Cell 2 x + [source is B]: the message is a when k < T.
    T = _uniform_threshold(
        [1.0 - strategy.n_A, 1.0 - strategy.n_B, strategy.m_A, strategy.m_B]
    )
    H = np.concatenate([2**53 - T[:2], T[2:]])

    # Each play's group is the cells lo .. lo + width - 1.
    lo = np.zeros(N, dtype=np.int64)
    width = np.full(N, 4)
    for _ in range(2):
        split = np.zeros(N, dtype=bool)
        for g in np.unique(lo):
            in_g = lo == g
            w = width[in_g][0]
            split |= in_g & (H[g : g + w].min() != H[g : g + w].max())
        bit = _deal(bits, np.where(split, lo, -1))
        width = np.where(split, width // 2, width)
        lo = lo + bit * width
    cell = lo + side.integers(0, width)
    x = cell >> 1
    theta_is_b = cell & 1 == 1
    receiver_is_b = side.integers(0, 2, size=N) == 1

    # The walked uniform is k where x = 1 and 2^53 - 1 - k where x = 0.
    # Every value is below 2^53 and none below 0; otherwise it is tied
    # while its bits above the next agree with H's.
    h = H[lo]
    live = (h > 0) & (h < 2**53)
    prefix = np.zeros(N, dtype=np.int64)
    known = np.zeros(N, dtype=np.int64)
    for i in range(52, -1, -1):
        # A tie on every bit of H that is set: the value is at least H.
        live &= h % (2 << i) != 0
        if not live.any():
            break
        bit = _deal(bits, np.where(live, lo, -1))
        prefix = np.where(live, 2 * prefix + bit, prefix)
        known += live
        live &= prefix == h >> i
    free = 53 - known
    walked = (prefix << free) | (side.integers(0, 2**53, size=N) & ((1 << free) - 1))
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


def _two_lies():
    # Accuracy-only receivers believe; all four x = 0 cells are undecided
    # for a few bits, so a cell with no tied plays can sit between two
    # with some.
    profile = IdentityProfile(1.0, 0.0, 1.0, 2.0)
    return SenderStrategy(1, 1, 0.3, 0.6), Population(profile, profile)


def _half_lies():
    # The source A cells' T = 2^52 has one bit set: one split decides them.
    profile = IdentityProfile(1.0, 0.0, 1.0, 2.0)
    return SenderStrategy(1, 1, 0.5, 0.6), Population(profile, profile)


def _uneven_truths():
    # Accuracy-only receivers believe; m_A != m_B, so the x = 1 plays are
    # split by source too, and every H has many bits set.
    profile = IdentityProfile(1.0, 0.0, 1.0, 2.0)
    return SenderStrategy(0.9, 0.7, 0.3, 0.6), Population(profile, profile)


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
        0.993768310546875,
        0.00019441756686496608,
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

    Bins expected to hold fewer than 5 draws are pooled into the tails.
    """
    stats = pytest.importorskip("scipy.stats")
    pmf = np.array([math.comb(n, j) * p**j * (1.0 - p) ** (n - j) for j in range(n + 1)])
    expected = len(draws) * pmf
    observed = np.bincount(draws, minlength=n + 1).astype(float)
    big = np.flatnonzero(expected >= 5.0)
    lo, hi = big[0], big[-1]

    def pool(a):
        return np.concatenate(([a[: lo + 1].sum()], a[lo + 1 : hi], [a[hi:].sum()]))

    observed, expected = pool(observed), pool(expected)
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    return stats.chi2.sf(chi2, len(expected) - 1)


@pytest.mark.parametrize("n", [7, 70])
@pytest.mark.parametrize("p", [0.3, 1.0 / 3.0, 0.5, 0.9])
def test_count_below_is_binomial(n, p):
    """The per-cell count has the Binomial(n, T 2^-53) pmf.

    Each call counts 8 independent cells, so 5000 calls give 40000 draws.
    n = 70 spans two words per split.
    """
    T = _uniform_threshold([p] * 8).tolist()
    bits = np.random.PCG64(np.random.SeedSequence(1976))
    draws = np.concatenate(
        [_count_below(bits, [n] * 8, T) for _ in range(5000)]
    )
    assert _binomial_p_value(draws, n, T[0] * 2.0**-53) > 1e-3


@pytest.mark.parametrize("n", [3, 65])
def test_fair_splits_are_binomial_half(n):
    bits = np.random.PCG64(np.random.SeedSequence(1976))
    draws = np.concatenate(
        [_fair_splits(bits, [n] * 8) for _ in range(2000)]
    )
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

    This is the law of the splits, the H of the x = 0 cells and the walk
    together: a group merged across cells whose H differ, or an x = 0 cell
    counted below T in place of 2^53 - T, moves the pmf.  `_uneven_truths`
    splits both sides by source; N = 70 spans two words per split.
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
    # T = 0 and T = 2^53 decide every play without a word.
    bits = np.random.PCG64(np.random.SeedSequence(5))
    assert _count_below(bits, m, [0, 2**53] * 4) == [0, 0, 0, 65, 0, 200, 0, 129]
    assert _words_drawn(bits, 5) == 0
    # T = 2^52 has bit 52 set and no other: one split, whose zeros are below.
    bits = np.random.PCG64(np.random.SeedSequence(5))
    below = _count_below(bits, m, [2**52] * 8)
    twin = np.random.PCG64(np.random.SeedSequence(5))
    assert below == [n - k for n, k in zip(m, _fair_splits(twin, m))]
    assert bits.state == twin.state
    assert _words_drawn(bits, 5) == sum(-(-n // 64) for n in m)
    # T = 2^52 + 2^51: the ones of bit 52 stay tied for one more split only.
    bits = np.random.PCG64(np.random.SeedSequence(5))
    below = _count_below(bits, m, [3 * 2**51] * 8)
    twin = np.random.PCG64(np.random.SeedSequence(5))
    ones = _fair_splits(twin, _fair_splits(twin, m))
    assert below == [n - k for n, k in zip(m, ones)]
    assert bits.state == twin.state


@pytest.mark.parametrize(
    "case, words", [(_silent, 16), (_noiseless, 0)], ids=["_silent", "_noiseless"]
)
def test_decided_cells_draw_only_the_cell_split(case, words, recorded_streams):
    # Every cell's H is 0 or 2^53, so the walk draws nothing.  All four H
    # are 2^53 when noiseless, so nothing is split either; when silent the
    # x = 0 cells' H are 0 and the x = 1 cells' 2^53, so the 1000 plays
    # are split once, by x, in ceil(1000 / 64) words.
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

"""An exact reference for the receivers' belief test, over `Fraction`s.

Every float is an exact rational, so whether a receiver type takes a
message at face value has one exact answer.  The residuals here are built
from the definitional utilities, `model.receiver_utility` and
`SenderStrategy.prob_message_a`, not from `receiver.belief_residuals`, so
the reference shares no formula with the code it judges.  The exact best
encoding at m = 1 (`exact_band_optimum`) comes from each type's linear
condition, not from the closed form's k; `k_ties` draws the rows whose
two float k are equal.
"""

from fractions import Fraction

import numpy as np

from identity_channel.equilibrium import random_restricted_params, type_ratio
from identity_channel.model import Group, SenderStrategy, receiver_utility


def exact_residuals(strategy: SenderStrategy, row) -> tuple[Fraction, ...]:
    """The exact (g_A_a, g_A_b, g_B_a, g_B_b) of `strategy` under parameter `row`.

    `row` holds the eight parameters in `PARAM_NAMES` order.  A residual
    is a receiver type's gain from decoding a message at face value (a as
    x = 1, b as x = 0) rather than the other way, summed over the four
    equally likely (state, source) cells weighted by the message's
    probability: four times the gain in expected utility, as
    `belief_residuals` scales it.
    """
    strategy = SenderStrategy(
        *(Fraction(getattr(strategy, name)) for name in ("m_A", "m_B", "n_A", "n_B"))
    )
    row = [Fraction(value) for value in row]
    residuals = []
    for theta_bar, params in zip(Group, (row[:4], row[4:])):
        for x_hat in (1, 0):
            total = Fraction(0)
            for x in (0, 1):
                for theta in Group:
                    p_a = strategy.prob_message_a(x, theta)
                    gain = receiver_utility(
                        x, x_hat, theta, theta_bar, params
                    ) - receiver_utility(x, 1 - x_hat, theta, theta_bar, params)
                    total += (p_a if x_hat == 1 else 1 - p_a) * gain
            # A float from a utility would have made the sum a rounded float.
            assert isinstance(total, Fraction), f"inexact residual {total!r}"
            residuals.append(total)
    return tuple(residuals)


def exact_believes(strategy: SenderStrategy, row) -> tuple[bool, ...]:
    """Whether each of the four exact residuals is >= 0, in `exact_residuals` order."""
    return tuple(g >= 0 for g in exact_residuals(strategy, row))


def exact_band_optimum(row) -> Fraction:
    """The exact best Q = 2 + n_A + n_B over (n_A, n_B) in [0, 1]^2 both types believe.

    Both types are taken to believe m_A = m_B = 1.  `row` holds a
    restricted population's eight parameters (delta_O >= delta_I for both
    types), under which a type believes exactly when its b-message residual
    is >= 0: (lambda_a + lambda_s delta_I) n_A >= (lambda_s delta_O -
    lambda_a) n_B for A, and its mirror, A and B swapped, for B.  Both
    conditions are homogeneous, so the believed set is a cone cut by the
    box.  Its vertices are among the origin, the box's corners and the
    points where a condition's line meets the edge n_A = 1 or n_B = 1, and
    the best is the largest believed one.
    """
    la_A, ls_A, dI_A, dO_A, la_B, ls_B, dI_B, dO_B = map(Fraction, row)
    assert dO_A >= dI_A and dO_B >= dI_B, "the conditions need the restriction"
    P_A, R_A = la_A + ls_A * dI_A, ls_A * dO_A - la_A  # A: P_A n_A >= R_A n_B
    P_B, R_B = la_B + ls_B * dI_B, ls_B * dO_B - la_B  # B: P_B n_B >= R_B n_A
    points = [(0, 0), (1, 0), (0, 1), (1, 1)]
    points += [(1, P_A / R_A)] if R_A else []
    points += [(R_A / P_A, 1)] if P_A else []
    points += [(1, R_B / P_B)] if P_B else []
    points += [(P_B / R_B, 1)] if R_B else []
    return 2 + max(
        n_A + n_B
        for n_A, n_B in points
        if 0 <= n_A <= 1 and 0 <= n_B <= 1
        and P_A * n_A >= R_A * n_B and P_B * n_B >= R_B * n_A
    )


def k_ties(rng: np.random.Generator, n: int) -> np.ndarray:
    """n restricted parameter rows whose float k_B equals their float k_A > 0.

    Draws rows with `random_restricted_params`, n at a time, and sets each
    lambda_s_B to lambda_a_B (1 + k_A) / (delta_O_B - k_A delta_I_B), which
    makes k_B = k_A in exact arithmetic.  It keeps the rows where k_A > 0,
    lambda_s_B is finite and >= 0, and `type_ratio` gives k_B == k_A, until
    n are kept.
    """
    kept = []
    while sum(map(len, kept)) < n:
        rows = random_restricted_params(rng, n)
        _, k_A = type_ratio(Group.A, rows[:, :4].T)
        la_B, dI_B, dO_B = rows[:, 4], rows[:, 6], rows[:, 7]
        with np.errstate(divide="ignore", invalid="ignore"):
            rows[:, 5] = la_B * (1.0 + k_A) / (dO_B - k_A * dI_B)
            _, k_B = type_ratio(Group.B, rows[:, 4:].T)
        ls_B = rows[:, 5]
        keep = (k_A > 0.0) & np.isfinite(ls_B) & (ls_B >= 0.0) & (k_B == k_A)
        kept.append(rows[keep])
    return np.concatenate(kept)[:n]

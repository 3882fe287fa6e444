"""An exact reference for the receivers' belief test, over `Fraction`s.

Every float is an exact rational, so whether a receiver type takes a
message at face value has one exact answer.  The residuals here are built
from the definitional utilities, `model.receiver_utility` and
`SenderStrategy.prob_message_a`, not from `receiver.belief_residuals`, so
the reference shares no formula with the code it judges.
"""

from fractions import Fraction

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

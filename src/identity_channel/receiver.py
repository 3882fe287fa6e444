"""Receiver best response and the belief constraint residuals.

The receiver's expected-utility comparison for each message reduces to the
sign of an affine residual in the sender's encoding probabilities.  The
residuals here are the expectation multiplied through by the message
probability and the prior mass, so strategies that never emit a message
yield a vacuously satisfied (zero) residual instead of a division by zero.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Group, Population, ReceiverStrategy, SenderStrategy


@dataclass(frozen=True)
class BeliefResiduals:
    """Rescaled belief-advantage of each (receiver type, message) pair.

    A nonnegative residual means the type's best response is to take the
    message at face value.  Residuals of columns are arrays.
    """

    g_A_a: float
    g_A_b: float
    g_B_a: float
    g_B_b: float


def _type_residuals(ls, la, dI, dO, m_own, m_other, n_own, n_other, acc):
    """One receiver type's (a, b) residuals; `other` is the out-group source.

    `acc` sums the lie probabilities apart and a b-message term is
    (1 - m) + n, so at m = 1 each lie probability enters unrounded.
    """
    return (
        ls * (dO * (m_other + 1.0 - n_other) - dI * (m_own + 1.0 - n_own)) + la * acc,
        ls * (dI * ((1.0 - m_own) + n_own) - dO * ((1.0 - m_other) + n_other))
        + la * acc,
    )


def belief_residuals(strategy, population) -> BeliefResiduals:
    """Residuals of a strategy under a population.

    Either argument may instead be given as columns, which is how the batch
    solver tests many candidates at once: `strategy` as (m_A, m_B, n_A, n_B)
    and `population` as its eight parameters in `PARAM_NAMES` order (which a
    `Population` unpacks as), each a float or an array.  Arrays broadcast,
    and the residuals are then arrays.
    """
    if isinstance(strategy, SenderStrategy):
        strategy = (strategy.m_A, strategy.m_B, strategy.n_A, strategy.n_B)
    m_A, m_B, n_A, n_B = strategy
    la_A, ls_A, dI_A, dO_A, la_B, ls_B, dI_B, dO_B = population
    acc = (m_A + m_B - 2.0) + (n_A + n_B)
    return BeliefResiduals(
        *_type_residuals(ls_A, la_A, dI_A, dO_A, m_A, m_B, n_A, n_B, acc),
        *_type_residuals(ls_B, la_B, dI_B, dO_B, m_B, m_A, n_B, n_A, acc),
    )


def best_response(
    strategy: SenderStrategy, population: Population, theta_bar: Group
) -> ReceiverStrategy:
    """Pure-strategy best response of one receiver type.

    Believe a message iff its residual is >= 0; the comparison is exact and
    ties resolve to believing.
    """
    res = belief_residuals(strategy, population)
    a, b = (res.g_A_a, res.g_A_b) if theta_bar is Group.A else (res.g_B_a, res.g_B_b)
    return ReceiverStrategy(
        p=1.0 if a >= 0.0 else 0.0,
        q=1.0 if b >= 0.0 else 0.0,
    )


def believes(strategy, population) -> tuple[bool, bool]:
    """Whether each receiver type's best response is to believe both messages.

    Takes the arguments of `belief_residuals`; given columns, the two
    answers are boolean arrays.
    """
    res = belief_residuals(strategy, population)
    return (
        (res.g_A_a >= 0.0) & (res.g_A_b >= 0.0),
        (res.g_B_a >= 0.0) & (res.g_B_b >= 0.0),
    )

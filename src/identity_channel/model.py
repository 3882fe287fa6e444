"""Core domain types and utility functions for the information channel game.

A source emits a boolean state together with a group type, a sender encodes
the pair into a boolean message, and a receiver (who also carries a group
type) decodes the message into a state estimate.  Receivers weigh decoding
accuracy against the social status cost of believing bad news about their
own group or good news about the other group.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from typing import Mapping


class DomainError(Exception):
    """Base of the typed errors for valid inputs outside a command's domain (exit 2)."""


class Group(str, enum.Enum):
    """Identity group of the source or of a receiver."""

    A = "A"
    B = "B"


def _check_prob(value: float, name: str) -> None:
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must be a probability in [0, 1], got {value!r}")


@dataclass(frozen=True)
class Population:
    """The receiver population: each identity type's four parameters.

    Per type: lambda_a and lambda_s weigh the accuracy and status parts of
    the utility; delta_I is the status cost of believing the in-group is in
    the bad state, delta_O that of believing the out-group is in the good
    state.  A population iterates over its fields in order, so it unpacks
    as its parameter row.
    """

    lambda_a_A: float
    lambda_s_A: float
    delta_I_A: float
    delta_O_A: float
    lambda_a_B: float
    lambda_s_B: float
    delta_I_B: float
    delta_O_B: float

    def __post_init__(self) -> None:
        for name in PARAM_NAMES:
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")

    def __iter__(self):
        return (getattr(self, name) for name in PARAM_NAMES)


#: The parameter names of a population in row order, used by config files
#: and parameter sweeps.
PARAM_NAMES = tuple(field.name for field in fields(Population))


def population_from_params(params: Mapping[str, float]) -> Population:
    """Build a population from the eight canonical parameter names."""
    missing = set(PARAM_NAMES) - set(params)
    extra = set(params) - set(PARAM_NAMES)
    if missing or extra:
        raise ValueError(
            f"population parameters must be exactly {PARAM_NAMES}; "
            f"missing={sorted(missing)} unknown={sorted(extra)}"
        )
    return Population(**{name: float(params[name]) for name in PARAM_NAMES})


@dataclass(frozen=True)
class SenderStrategy:
    """Encoding probabilities.

    m_A = Pr(Y=a | X=1, type=A), m_B = Pr(Y=a | X=1, type=B),
    n_A = Pr(Y=b | X=0, type=A), n_B = Pr(Y=b | X=0, type=B).
    """

    m_A: float
    m_B: float
    n_A: float
    n_B: float

    def __post_init__(self) -> None:
        for name in ("m_A", "m_B", "n_A", "n_B"):
            _check_prob(getattr(self, name), name)

    def prob_message_a(self, x: int, source_type: Group) -> float:
        """Probability the sender emits message `a` for source (x, type)."""
        if x == 1:
            return self.m_A if source_type is Group.A else self.m_B
        return (1 - self.n_A) if source_type is Group.A else (1 - self.n_B)


@dataclass(frozen=True)
class ReceiverStrategy:
    """Decoding probabilities: p = Pr(est=1 | Y=a), q = Pr(est=0 | Y=b)."""

    p: float
    q: float

    def __post_init__(self) -> None:
        _check_prob(self.p, "p")
        _check_prob(self.q, "q")


def accuracy_utility(x: int, x_hat: int) -> float:
    """1 when the estimate matches the true state, else 0."""
    return 1 if x == x_hat else 0


def identity_utility(x_hat: int, theta: Group, theta_bar: Group, params) -> float:
    """Status dis-utility of the estimate, independent of the true state.

    `params` is the receiver type's (lambda_a, lambda_s, delta_I, delta_O).
    Believing the in-group is in the bad state costs delta_I; believing the
    out-group is in the good state costs delta_O.
    """
    _, _, delta_I, delta_O = params
    if x_hat == 1 and theta is theta_bar:
        return -delta_I
    if x_hat == 0 and theta is not theta_bar:
        return -delta_O
    return 0


def receiver_utility(
    x: int, x_hat: int, theta: Group, theta_bar: Group, params
) -> float:
    """lambda_a times accuracy plus lambda_s times status, for the type's `params`."""
    lambda_a, lambda_s, _, _ = params
    return lambda_a * accuracy_utility(x, x_hat) + lambda_s * identity_utility(
        x_hat, theta, theta_bar, params
    )


def quality(strategy: SenderStrategy) -> float:
    """Quality of information: the sum of the four truthful probabilities.

    Ranges over [0, 4]; 4 means the sender is fully truthful and the state
    is perfectly recoverable.
    """
    return strategy.m_A + strategy.m_B + strategy.n_A + strategy.n_B

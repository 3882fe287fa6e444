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

#: Canonical parameter names for a two-type population, used by config files
#: and parameter sweeps.
PARAM_NAMES = (
    "lambda_a_A",
    "lambda_s_A",
    "delta_I_A",
    "delta_O_A",
    "lambda_a_B",
    "lambda_s_B",
    "delta_I_B",
    "delta_O_B",
)


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
class IdentityProfile:
    """Behavioral parameters of one receiver type.

    accuracy_weight and identity_weight scale the accuracy and status parts
    of the utility; in_group_penalty is the status cost of believing the
    in-group is in the bad state, out_group_penalty the cost of believing
    the out-group is in the good state.
    """

    accuracy_weight: float
    identity_weight: float
    in_group_penalty: float
    out_group_penalty: float

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{field.name} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True)
class Population:
    """The pair of receiver profiles, one per identity group."""

    profile_A: IdentityProfile
    profile_B: IdentityProfile


def population_from_params(params: Mapping[str, float]) -> Population:
    """Build a population from the eight canonical parameter names."""
    missing = set(PARAM_NAMES) - set(params)
    extra = set(params) - set(PARAM_NAMES)
    if missing or extra:
        raise ValueError(
            f"population parameters must be exactly {PARAM_NAMES}; "
            f"missing={sorted(missing)} unknown={sorted(extra)}"
        )
    return Population(
        profile_A=IdentityProfile(
            accuracy_weight=float(params["lambda_a_A"]),
            identity_weight=float(params["lambda_s_A"]),
            in_group_penalty=float(params["delta_I_A"]),
            out_group_penalty=float(params["delta_O_A"]),
        ),
        profile_B=IdentityProfile(
            accuracy_weight=float(params["lambda_a_B"]),
            identity_weight=float(params["lambda_s_B"]),
            in_group_penalty=float(params["delta_I_B"]),
            out_group_penalty=float(params["delta_O_B"]),
        ),
    )


def population_params(population: Population) -> dict[str, float]:
    """Inverse of :func:`population_from_params`."""
    a, b = population.profile_A, population.profile_B
    return {
        "lambda_a_A": a.accuracy_weight,
        "lambda_s_A": a.identity_weight,
        "delta_I_A": a.in_group_penalty,
        "delta_O_A": a.out_group_penalty,
        "lambda_a_B": b.accuracy_weight,
        "lambda_s_B": b.identity_weight,
        "delta_I_B": b.in_group_penalty,
        "delta_O_B": b.out_group_penalty,
    }


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
        return (1.0 - self.n_A) if source_type is Group.A else (1.0 - self.n_B)


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
    return 1.0 if x == x_hat else 0.0


def identity_utility(
    x_hat: int, theta: Group, theta_bar: Group, profile: IdentityProfile
) -> float:
    """Status dis-utility of the estimate, independent of the true state.

    Believing the in-group is in the bad state costs in_group_penalty;
    believing the out-group is in the good state costs out_group_penalty.
    """
    if x_hat == 1 and theta is theta_bar:
        return -profile.in_group_penalty
    if x_hat == 0 and theta is not theta_bar:
        return -profile.out_group_penalty
    return 0.0


def receiver_utility(
    x: int, x_hat: int, theta: Group, theta_bar: Group, profile: IdentityProfile
) -> float:
    """Accuracy-weight times accuracy plus identity-weight times status."""
    return profile.accuracy_weight * accuracy_utility(
        x, x_hat
    ) + profile.identity_weight * identity_utility(x_hat, theta, theta_bar, profile)


def quality(strategy: SenderStrategy) -> float:
    """Quality of information: the sum of the four truthful probabilities.

    Ranges over [0, 4]; 4 means the sender is fully truthful and the state
    is perfectly recoverable.
    """
    return strategy.m_A + strategy.m_B + strategy.n_A + strategy.n_B

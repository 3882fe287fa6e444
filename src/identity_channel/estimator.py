"""Bisection estimation of the augmented identity parameters.

The sender announces candidate encodings with m_A = m_B = 1 and receives a
noiseless believe / not-believe answer per receiver type.  Because belief
depends only on the ratio n_B/n_A through the band [k_B, k_A], bisecting on
that ratio recovers each augmented parameter to any resolution.  The
bracket ends each bisection has certified (A's lower end, B's upper end;
see `certified_estimates`) synthesize an encoding that both types believe
and whose quality approaches the optimum as the resolution shrinks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

from .equilibrium import band_point
from .model import DomainError, Group, Population, SenderStrategy
from .receiver import believes

#: Default search upper bound for the augmented parameters.
DEFAULT_SEARCH_BOUND = 1.0e4

#: Relative inward bias applied to synthesized boundary coordinates so the
#: exact believe comparison is robust to rounding of the ratio arithmetic.
_BOUNDARY_BIAS = 1e-14


class InvalidResolution(ValueError, DomainError):
    """A resolution or search bound the bisection cannot use.

    Raised for a non-positive resolution, one at least the search bound, or
    a search bound that is not a finite number above 1.
    """


class BelieveOracle(Protocol):
    """Answers whether one receiver type believes an announced encoding.

    Answers must be deterministic and consistent with the type's belief
    constraint at (n_A, n_B) with m_A = m_B = 1.
    """

    def query(self, side: Group, n_A: float, n_B: float) -> bool: ...


@dataclass(frozen=True)
class GroundTruthOracle:
    """Oracle answering from a known population's belief constraints."""

    population: Population

    def query(self, side: Group, n_A: float, n_B: float) -> bool:
        ok_A, ok_B = believes((1.0, 1.0, n_A, n_B), self.population)
        return ok_A if side is Group.A else ok_B


@dataclass(frozen=True)
class EstimationResult:
    """Bisection output: the estimate is the final bracket midpoint.

    The bracket ends are not symmetric.  Type A believes a ratio iff it is
    at most k_A, so A's "believe" answers move `lower` up: every value
    `lower` takes was answered "believe", or is the never-probed start 0.
    Type B believes a ratio iff it is at least k_B, so B's "believe"
    answers move `upper` down: every value `upper` takes was answered
    "believe", or is the never-probed start `search_bound`.  The midpoint
    `k_hat` is within the resolution of the true value but carries no
    such certificate.
    """

    k_hat: float
    lower: float
    upper: float
    steps: int
    search_bound: float

    @property
    def hit_upper_bound(self) -> bool:
        """True when no query ever rejected, i.e. the true value may exceed
        the search bound (or is effectively unbounded for this side)."""
        return self.upper == self.search_bound


def estimate_k(
    oracle: BelieveOracle,
    side: Group,
    delta: float,
    M: float = DEFAULT_SEARCH_BOUND,
) -> EstimationResult:
    """Bisection search for one augmented identity parameter.

    Starting from the bracket [0, M] and the probe ratio 1, each step
    announces n_B = min(1, ratio), n_A = min(1, 1/ratio) and tightens the
    bracket according to the believe answer; the next probe is the bracket
    midpoint.  Terminates when the bracket is narrower than delta, or when
    its midpoint rounds to one of its ends (delta below the float spacing
    near the parameter).  When the true parameter lies in [0, M] the
    estimate is within delta of it, or a bracket end one float spacing from
    it, in at most ceil(log2(M/delta)) + 1 queries.  A side that always believes
    drives the estimate to M; a side-B parameter below zero drives it to 0.
    """
    if not (delta > 0.0) or not (1.0 < M < math.inf) or delta >= M:
        raise InvalidResolution(
            "need 0 < delta < M and a finite M > 1, "
            f"got delta={delta!r}, M={M!r}"
        )
    lower, upper = 0.0, float(M)
    eta = 1.0
    steps = 0
    while upper - lower >= delta:
        believe = oracle.query(side, min(1.0, 1.0 / eta), min(1.0, eta))
        # A believes ratios up to k_A and B ratios from k_B up, so "believe"
        # from A and "not" from B both put the parameter above the probe.
        if bool(believe) == (side is Group.A):
            lower = eta
        else:
            upper = eta
        steps += 1
        eta = (lower + upper) / 2.0
        if eta in (lower, upper):
            break
    return EstimationResult(
        k_hat=(lower + upper) / 2.0,
        lower=lower,
        upper=upper,
        steps=steps,
        search_bound=float(M),
    )


def certified_estimates(
    res_A: EstimationResult, res_B: EstimationResult
) -> tuple[float, float]:
    """The (k_A, k_B) to synthesize from: the ends each bisection certified.

    Returns A's `lower` and B's `upper`.  A answered "believe" at its
    `lower`, so it believes every smaller ratio; B answered "believe" at its
    `upper`, so it believes every larger one.  Both therefore believe every
    ratio in [B's upper, A's lower], and `strategy_from_estimates` on this
    pair gives an encoding both types believe.  Where the true values lie in
    [0, M] each end is within delta of its own, so where the pair has a
    non-empty band the quality is within O(delta) of the optimum.  Two
    cases yield the silent strategy (n_A, n_B) = (0, 0), which every
    population believes:

    * One bisection never answered "believe": B's `upper` is still the
      never-probed search bound M (true k_B >= M), or A's `lower` is still
      the never-probed 0.  A's `lower` is always below M and B's `upper`
      always above 0, so the pair has an empty band.
    * The true band is narrow (k_A - k_B < 2 delta, which takes in every
      band narrower than the resolution): the certified ends can cross
      although the true band is not empty, and the encodings in it are
      lost.
    """
    return res_A.lower, res_B.upper


def strategy_from_estimates(k_hat_A: float, k_hat_B: float) -> SenderStrategy:
    """Synthesize the sender's encoding from estimated augmented parameters.

    Treats the estimates as the true parameters.  A midpoint `k_hat` is
    within the resolution of the truth but may lie on the rejected side of
    it, so its encoding may not be believed (e.g. k_hat_B just below k_B);
    pass `certified_estimates` for an encoding that is.  Negative inputs
    (which bisection never produces, but true parameters can be) denote a side
    that believes every encoding: for A that removes the upper ratio limit,
    for B the lower one.  The encoding is the `band_point` of that band,
    each coordinate below 1 lowered by the relative `_BOUNDARY_BIAS`.
    """
    point = band_point(max(k_hat_B, 0.0), math.inf if k_hat_A < 0.0 else k_hat_A)
    n_A, n_B = (float(n * (1.0 - _BOUNDARY_BIAS) if n < 1.0 else n) for n in point[1:])
    return SenderStrategy(1.0, 1.0, n_A, n_B)

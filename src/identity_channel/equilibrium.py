"""Sender-optimal encoding: closed form and an independent LP oracle.

Two code paths compute the same equilibrium.  `solve_batch` evaluates the
analytic case table on the augmented parameters (k_A, k_B) of many
populations at once, as whole-array operations, and is restricted to
populations where the out-group penalty dominates the in-group penalty;
`closed_form_equilibrium` is its one-population case.  `full_lp_oracle`
solves the underlying four-variable linear program by enumerating all
candidate vertices and needs no restriction; it exists as an independent
cross-check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .model import Group, Population, SenderStrategy, population_params, quality
from .receiver import believes


class IndeterminateParams(ValueError):
    """A receiver type with all weights zero has no augmented parameter."""


class AssumptionViolated(ValueError):
    """Closed form requires out_group_penalty >= in_group_penalty for both types."""


class NoFeasibleEncoding(RuntimeError):
    """The vertex enumeration found no encoding both receiver types believe."""


#: Case labels of the analytic solution, in table order.
CASE_LABELS = (
    "k_A<0,k_B<0",
    "k_B>k_A>0",
    "1>k_A>k_B",
    "k_A>1>k_B",
    "k_A>k_B>1",
    "k_B>0>k_A",
)


@dataclass(frozen=True)
class AugmentedParams:
    """The two weight ratios that fully determine receiver believability.

    Feasible encodings are exactly those whose lie-probability ratio
    n_B/n_A lies in the band [k_B, k_A] (when both are positive).
    """

    k_A: float
    k_B: float


@dataclass(frozen=True)
class EquilibriumResult:
    strategy: SenderStrategy
    quality: float
    case_label: str
    params: AugmentedParams


@dataclass(frozen=True)
class LpSolution:
    strategy: SenderStrategy
    quality: float


def _augmented(params):
    """(k_A, k_B) of parameter columns; NaN where a receiver has no weights.

    Division by a zero denominator gives +inf (the numerator is then
    non-negative) or, over a zero numerator, NaN; callers silence the
    floating-point warnings.
    """
    la_A, ls_A, dI_A, dO_A, la_B, ls_B, dI_B, dO_B = params
    return (
        (ls_A * dI_A + la_A) / (ls_A * dO_A - la_A),
        (ls_B * dO_B - la_B) / (ls_B * dI_B + la_B),
    )


def augmented_params(population: Population) -> AugmentedParams:
    """Compute (k_A, k_B); degenerate all-zero receivers raise."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ks = _augmented(np.array(list(population_params(population).values())))
    for group, k in zip(Group, ks):
        if np.isnan(k):
            raise IndeterminateParams(
                f"receiver type {group.value} has zero accuracy and identity weights"
            )
    return AugmentedParams(k_A=float(ks[0]), k_B=float(ks[1]))


#: Nudge iterations; the step doubles each time, so 64 reach any coordinate.
_NUDGE_STEPS = 64


@dataclass(frozen=True)
class BatchEquilibrium:
    """Closed-form equilibria of N populations, one array entry each.

    Every encoding has m_A = m_B = 1.  Where `solved` is False the
    population failed validation or the restriction, or has a receiver with
    no weights, and the other entries are meaningless.  `case` indexes
    `CASE_LABELS`.
    """

    solved: np.ndarray
    k_A: np.ndarray
    k_B: np.ndarray
    case: np.ndarray
    n_A: np.ndarray
    n_B: np.ndarray
    quality: np.ndarray

    def result(self, i: int) -> EquilibriumResult:
        """Population `i`'s solution, which must be solved."""
        strategy = SenderStrategy(1.0, 1.0, float(self.n_A[i]), float(self.n_B[i]))
        return EquilibriumResult(
            strategy=strategy,
            quality=quality(strategy),
            case_label=CASE_LABELS[self.case[i]],
            params=AugmentedParams(k_A=float(self.k_A[i]), k_B=float(self.k_B[i])),
        )


def _ulps_down(n: np.ndarray, ulps: float) -> np.ndarray:
    """`n` lowered by `ulps` of its spacing below, stopping at 0 (exact)."""
    return np.maximum(n - ulps * (n - np.nextafter(n, 0.0)), 0.0)


def _nudge(a, b, pts, bel_A, bel_B) -> np.ndarray:
    """Back points (1, 1, a, b) off in place until both types believe them.

    While type A rejects a point, its b moves toward 0, else while type B
    rejects it, its a does, by 1, 2, 4, ... ulps (doubling each iteration,
    at most 64); only the points the last iteration moved are tested again.
    `bel_A` and `bel_B` are the points' first test; returns whether both
    types believe each point at the end.
    """
    for step in range(_NUDGE_STEPS):
        lower_B = ~bel_A & (b > 0.0)
        lower_A = ~lower_B & ~bel_B & (a > 0.0)
        (moved,) = np.nonzero(lower_A | lower_B)
        if not len(moved):
            break
        b[lower_B] = _ulps_down(b[lower_B], 2.0**step)
        a[lower_A] = _ulps_down(a[lower_A], 2.0**step)
        bel_A[moved], bel_B[moved] = believes(
            (1.0, 1.0, a[moved], b[moved]), pts[:, moved]
        )
    return bel_A & bel_B


def _run_starts(ids: np.ndarray) -> np.ndarray:
    """Mask of the first entry of each run of equal values in `ids`."""
    starts = np.ones(len(ids), dtype=bool)
    np.not_equal(ids[1:], ids[:-1], out=starts[1:])
    return starts


def solve_batch(params: np.ndarray) -> BatchEquilibrium:
    """Analytic equilibria of populations given as rows of their parameters.

    `params` has shape (N, 8), columns in `PARAM_NAMES` order.  A row is
    solved when its parameters are finite and non-negative, both receiver
    types satisfy the penalty-ordering restriction, and neither has all
    weights zero.

    Each case of the table whose closure contains (k_A, k_B) proposes an
    (n_A, n_B) point; boundary and infinite-parameter inputs fall in several
    closures.  Only solved rows are cased, and their candidates form one
    flat list of (cell, case) pairs, cell-major, so each cell's candidates
    are contiguous and in table order; a point is computed only for its own
    case.  A point sitting exactly on a constraint boundary can round to a
    residual a few ulps below zero, so the points that a type rejects at
    the first test are backed off by `_nudge`.  Within each cell's run of
    candidates the believed point of maximal quality wins, the first in
    table order on exact quality ties.  Raises NoFeasibleEncoding if a
    solved row has no believed point.
    """
    p = np.ascontiguousarray(np.asarray(params, dtype=float).T)
    _, _, dI_A, dO_A, _, _, dI_B, dO_B = p
    with np.errstate(divide="ignore", invalid="ignore"):
        k_A, k_B = _augmented(p)
        solved = (
            (np.isfinite(p) & (p >= 0.0)).all(axis=0)
            & (dO_A >= dI_A)
            & (dO_B >= dI_B)
            & ~np.isnan(k_A)
            & ~np.isnan(k_B)
        )
    (rows,) = np.nonzero(solved)
    kA, kB = k_A[rows], k_B[rows]
    # Closure of each case in CASE_LABELS order, one row per solved cell;
    # its flat nonzero positions are the (cell, case) pairs, cell-major.
    closure = np.stack([
        (kA <= 0.0) & (kB <= 0.0),
        (kB >= kA) & (kA >= 0.0),
        (0.0 <= kA) & (kA <= 1.0) & (kA >= kB),
        (kA >= 1.0) & (1.0 >= kB),
        (kA >= kB) & (kB >= 1.0),
        (kB >= 0.0) & (0.0 >= kA),
    ], axis=1)
    cell, case = np.divmod(np.flatnonzero(closure), len(CASE_LABELS))
    kA, kB = kA[cell], kB[cell]
    # Each candidate's point for its own case: (1, 1), (0, 0), (1, k_A),
    # (1, 1), (1/k_B, 1) and (min(1, 1/k_B), 1), which is 1 at k_B = 0.
    with np.errstate(divide="ignore"):
        a = np.where(case >= 4, np.minimum(1.0, 1.0 / kB), case != 1)
    b = np.where(case == 2, kA, case != 1)

    pts = np.take(p, rows[cell], axis=1)
    bel_A, bel_B = believes((1.0, 1.0, a, b), pts)
    ok = bel_A & bel_B
    (rejected,) = np.nonzero(~ok)
    a_r, b_r = a[rejected], b[rejected]
    ok[rejected] = _nudge(
        a_r, b_r, pts[:, rejected], bel_A[rejected], bel_B[rejected]
    )
    a[rejected], b[rejected] = a_r, b_r

    n_A, n_B = np.zeros_like(k_A), np.zeros_like(k_A)
    best_case = np.zeros(len(k_A), dtype=np.intp)
    if len(rows):
        q = np.where(ok, 2.0 + a + b, -np.inf)
        best = np.maximum.reduceat(q, np.flatnonzero(_run_starts(cell)))
        if len(best) < len(rows) or best.min() == -np.inf:
            raise NoFeasibleEncoding("no analytic candidate is feasible")
        (top,) = np.nonzero(q == best[cell])
        win = top[_run_starts(cell[top])]
        best_case[rows], n_A[rows], n_B[rows] = case[win], a[win], b[win]
    return BatchEquilibrium(
        solved=solved,
        k_A=k_A,
        k_B=k_B,
        case=best_case,
        n_A=n_A,
        n_B=n_B,
        quality=2.0 + n_A + n_B,
    )


def _params_rows(populations) -> np.ndarray:
    return np.array([list(population_params(p).values()) for p in populations])


def require_restricted(population: Population) -> None:
    """Raise AssumptionViolated unless both types satisfy the restriction.

    The restriction (out-group penalty at least the in-group penalty) makes
    m_A = m_B = 1 optimal, which the closed form and the estimator's
    bisection both take for granted.
    """
    for group in Group:
        if not population.profile(group).restricted:
            raise AssumptionViolated(
                f"receiver type {group.value} has in_group_penalty > "
                "out_group_penalty; the closed form and the estimator "
                "do not apply"
            )


def closed_form_equilibrium(population: Population) -> EquilibriumResult:
    """Analytic equilibrium encoding under the penalty-ordering restriction.

    The one-population case of `solve_batch`: always reports m_A = m_B = 1,
    with (n_A, n_B) from the case table on (k_A, k_B).
    """
    require_restricted(population)
    augmented_params(population)  # raises for a receiver with no weights
    return solve_batch(_params_rows([population])).result(0)


def _constraint_rows(population: Population) -> tuple[np.ndarray, np.ndarray]:
    """Affine belief constraints G z + c >= 0 over z = (m_A, m_B, n_A, n_B).

    A type's a-message and b-message constraints share one gradient, and
    their constants differ by 2 ls (dO - dI), so the type believes iff the
    one with the smaller constant holds: one row per type.
    """
    pa = population.profile_A
    pb = population.profile_B
    la_A, ls_A = pa.accuracy_weight, pa.identity_weight
    dI_A, dO_A = pa.in_group_penalty, pa.out_group_penalty
    la_B, ls_B = pb.accuracy_weight, pb.identity_weight
    dI_B, dO_B = pb.in_group_penalty, pb.out_group_penalty

    row_A = [la_A - ls_A * dI_A, la_A + ls_A * dO_A, la_A + ls_A * dI_A,
             la_A - ls_A * dO_A]
    row_B = [la_B + ls_B * dO_B, la_B - ls_B * dI_B, la_B - ls_B * dO_B,
             la_B + ls_B * dI_B]
    G = np.array([row_A, row_B], dtype=float)
    c = np.array(
        [
            -ls_A * abs(dO_A - dI_A) - 2.0 * la_A,
            -ls_B * abs(dO_B - dI_B) - 2.0 * la_B,
        ],
        dtype=float,
    )
    return G, c


#: Four active rows out of the two belief rows, the faces z_i = 0 (rows
#: 2..5) and the faces z_i = 1 (rows 6..9), never both faces of one
#: coordinate: the 104 systems that are not singular by construction.
_ACTIVE_COMBOS = np.array(
    [
        combo
        for combo in itertools.combinations(range(10), 4)
        if not any(2 + i in combo and 6 + i in combo for i in range(4))
    ],
    dtype=int,
)

_FEAS_TOL = 1e-9


def full_lp_oracle(population: Population) -> LpSolution:
    """Maximize quality over all encodings both receiver types believe.

    Enumerates every choice of four active constraints out of the two
    belief hyperplanes and eight box faces that never takes both faces of
    one coordinate (104 systems), solves the nondegenerate ones, filters
    by feasibility at tolerance 1e-9, and returns the maximal-quality
    vertex (lexicographically smallest strategy on exact quality ties).
    Deliberately shares no code with the closed form.
    """
    G, c = _constraint_rows(population)
    rows = np.vstack([G, np.eye(4), np.eye(4)])
    rhs = np.concatenate([-c, np.zeros(4), np.ones(4)])

    A = rows[_ACTIVE_COMBOS]
    b = rhs[_ACTIVE_COMBOS]
    dets = np.linalg.det(A)
    # Hadamard-style scale so near-singular detection is size-independent.
    scale = np.prod(np.linalg.norm(A, axis=2), axis=1)
    solvable = np.abs(dets) > 1e-12 * np.maximum(scale, 1e-300)
    if not solvable.any():
        raise NoFeasibleEncoding("all candidate systems are degenerate")

    z = np.linalg.solve(A[solvable], b[solvable][..., None])[..., 0]

    in_box = ((z >= -_FEAS_TOL) & (z <= 1.0 + _FEAS_TOL)).all(axis=1)
    residuals = z @ G.T + c
    feasible = in_box & (residuals >= -_FEAS_TOL).all(axis=1)
    if not feasible.any():
        raise NoFeasibleEncoding("no vertex satisfies the belief constraints")

    z = np.clip(z[feasible], 0.0, 1.0)
    q = z.sum(axis=1)
    order = np.lexsort((z[:, 3], z[:, 2], z[:, 1], z[:, 0], -q))
    best = order[0]
    strategy = SenderStrategy(*(float(v) for v in z[best]))
    return LpSolution(strategy=strategy, quality=quality(strategy))


@dataclass(frozen=True)
class EquivalenceCase:
    """One closed-form vs LP-oracle comparison."""

    population: Population
    closed: EquilibriumResult
    lp: LpSolution

    @property
    def quality_gap(self) -> float:
        return abs(self.closed.quality - self.lp.quality)

    @property
    def coordinate_gap(self) -> float:
        s, t = self.closed.strategy, self.lp.strategy
        return max(
            abs(s.m_A - t.m_A),
            abs(s.m_B - t.m_B),
            abs(s.n_A - t.n_A),
            abs(s.n_B - t.n_B),
        )


@dataclass(frozen=True)
class EquivalenceReport:
    cases: tuple[EquivalenceCase, ...]
    tolerance: float = 1e-9

    @property
    def max_quality_gap(self) -> float:
        return max((c.quality_gap for c in self.cases), default=0.0)

    @property
    def max_coordinate_gap(self) -> float:
        return max((c.coordinate_gap for c in self.cases), default=0.0)

    @property
    def failures(self) -> tuple[EquivalenceCase, ...]:
        return tuple(
            c
            for c in self.cases
            if c.quality_gap > self.tolerance or c.coordinate_gap > self.tolerance
        )

    @property
    def ok(self) -> bool:
        return not self.failures


def random_restricted_population(rng: np.random.Generator) -> Population:
    """Draw a population satisfying the penalty-ordering restriction.

    Weights are uniform on [0, 1], in-group penalties uniform on [0, 2],
    out-group penalties the in-group value plus uniform [0, 3].
    """
    from .model import IdentityProfile

    def draw() -> IdentityProfile:
        d_in = 2.0 * rng.random()
        return IdentityProfile(
            accuracy_weight=rng.random(),
            identity_weight=rng.random(),
            in_group_penalty=d_in,
            out_group_penalty=d_in + 3.0 * rng.random(),
        )

    return Population(profile_A=draw(), profile_B=draw())


def check_equivalence(trials: int, seed: int) -> EquivalenceReport:
    """Compare closed form and LP oracle on random restricted populations.

    The closed form solves all populations in one batch.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    populations = [random_restricted_population(rng) for _ in range(trials)]
    batch = solve_batch(_params_rows(populations))
    return EquivalenceReport(
        cases=tuple(
            EquivalenceCase(
                population=population,
                # An unsolved population raises its typed error here.
                closed=batch.result(i)
                if batch.solved[i]
                else closed_form_equilibrium(population),
                lp=full_lp_oracle(population),
            )
            for i, population in enumerate(populations)
        )
    )


def compare_on(population: Population) -> EquivalenceCase:
    """Run both solvers on one population."""
    return EquivalenceCase(
        population=population,
        closed=closed_form_equilibrium(population),
        lp=full_lp_oracle(population),
    )

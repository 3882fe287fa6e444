"""Sender-optimal encoding: closed form and an independent LP oracle.

Two code paths compute the same equilibrium, each over many populations
at once as whole-array operations.  `solve_batch` gives each population
the most informative encoding in the band of ratios that the augmented
parameters (k_A, k_B) let both receiver types believe, and is restricted
to populations where the out-group penalty dominates the in-group one;
`closed_form_equilibrium` is its one-population case.  `lp_oracle_batch`
solves the underlying four-variable linear program by enumerating all
candidate vertices and needs no restriction; it exists as an independent
cross-check, and `full_lp_oracle` is its one-population case.
`compare_batch` runs both.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .model import DomainError, Group, Population, SenderStrategy, quality
from .receiver import believes

#: Each receiver type's four parameters within a row in `PARAM_NAMES` order.
_COLUMNS = {Group.A: slice(0, 4), Group.B: slice(4, 8)}


class IndeterminateParams(ValueError, DomainError):
    """A receiver type whose k is 0/0 or inf/inf has no augmented parameter."""


class AssumptionViolated(ValueError, DomainError):
    """Closed form requires out_group_penalty >= in_group_penalty for both types."""


class NoFeasibleEncoding(RuntimeError, DomainError):
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


#: Bits of a receiver type's status, packed in this order by `type_ratio`; 0 = solvable.
UNRESTRICTED, NAN_K, INVALID = 1, 2, 4


def type_ratio(group: Group, params) -> tuple[np.ndarray, np.ndarray]:
    """Status and augmented ratio k of one receiver type's parameters.

    The first stage of `solve_batch`.  `params` holds the type's four
    parameters in `PARAM_NAMES` order (accuracy weight, identity weight,
    in-group and out-group penalty), each a float or an array.  A column's
    status sets UNRESTRICTED where the in-group penalty exceeds the
    out-group one, NAN_K where k is 0/0 (no weights, or no accuracy weight
    and zero identity weight x penalty products) or inf/inf (those products
    overflow float64), and INVALID where a parameter is negative or not
    finite.  Division by a zero denominator gives +inf where the numerator
    is positive.
    """
    params = np.asarray(params, dtype=float)
    la, ls, dI, dO = params
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if group is Group.A:
            k = (ls * dI + la) / (ls * dO - la)
        else:
            k = (ls * dO - la) / (ls * dI + la)
    invalid = ~(np.isfinite(params) & (params >= 0.0)).all(axis=0)
    return np.packbits([dI > dO, np.isnan(k), invalid], axis=0, bitorder="little")[0], k


def raise_for_status(row, status) -> None:
    """Raise the typed error of parameter row `row` for its (A, B) `status`.

    `status` comes from `type_ratio`, masked to the bits the caller checks.
    The order is invalid parameters (`Population`'s ValueError), the
    restriction (AssumptionViolated), then k 0/0 or inf/inf
    (IndeterminateParams, its cause found from the row), type A first.
    """
    if (status[0] | status[1]) & INVALID:  # the constructor raises, naming it
        Population(*row.tolist())
    for group, bits in zip(_COLUMNS, status):
        if bits & UNRESTRICTED:
            raise AssumptionViolated(
                f"receiver type {group.value} has in_group_penalty > "
                "out_group_penalty; the closed form and the estimator "
                "do not apply"
            )
    for (group, cols), bits in zip(_COLUMNS.items(), status):
        if bits & NAN_K:
            la, ls, _, dO = row[cols].tolist()
            if la == 0.0 and ls == 0.0:
                reason = "has zero accuracy and identity weights"
            elif np.isinf(ls * dO):
                reason = (
                    f"overflows float64: identity weight x out-group penalty = "
                    f"{ls!r} x {dO!r}, so k is inf/inf"
                )
            else:
                reason = (
                    "has no accuracy weight and zero identity weight x penalty "
                    "products, so k is 0/0"
                )
            raise IndeterminateParams(f"receiver type {group.value} {reason}")


def check_population(population: Population, bits: int) -> tuple[float, float]:
    """(k_A, k_B) of the population; raises for its status `bits` that are set."""
    row = _row(population)
    (status_A, k_A), (status_B, k_B) = (type_ratio(g, row[_COLUMNS[g]]) for g in Group)
    raise_for_status(row, (status_A & bits, status_B & bits))
    return float(k_A), float(k_B)


def augmented_params(population: Population) -> AugmentedParams:
    """Compute (k_A, k_B); a type whose k is 0/0 or inf/inf raises."""
    return AugmentedParams(*check_population(population, NAN_K))


#: Nudge iterations; the step doubles each time, so 64 reach any coordinate.
_NUDGE_STEPS = 64


@dataclass(frozen=True)
class BatchEquilibrium:
    """Closed-form equilibria of N populations, one array entry each.

    Every encoding has m_A = m_B = 1.  `status_A` and `status_B` are the
    types' statuses from `type_ratio`; a population is solved where both
    are 0, and elsewhere (invalid parameters, the restriction violated, or
    k 0/0 or inf/inf) the other entries are meaningless.  `case` indexes
    `CASE_LABELS`.
    """

    solved: np.ndarray
    status_A: np.ndarray
    status_B: np.ndarray
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


def solve_batch(params: np.ndarray) -> BatchEquilibrium:
    """Analytic equilibria of populations given as rows of their parameters.

    `params` has shape (N, 8), columns in `PARAM_NAMES` order.  A row is
    solved when both receiver types' statuses from `type_ratio`, which also
    gives (k_A, k_B), are 0; `solve_cells` then solves the solved rows.
    Raises NoFeasibleEncoding if a solved row has no believed point.
    """
    p = np.ascontiguousarray(np.asarray(params, dtype=float).T)
    status_A, k_A = type_ratio(Group.A, p[_COLUMNS[Group.A]])
    status_B, k_B = type_ratio(Group.B, p[_COLUMNS[Group.B]])
    solved = (status_A | status_B) == 0
    (rows,) = np.nonzero(solved)
    n_A, n_B = np.zeros((2, len(k_A)))
    case = np.zeros(len(k_A), dtype=np.intp)
    case[rows], n_A[rows], n_B[rows] = solve_cells(
        k_A[rows], k_B[rows], p[:, rows]
    )
    return BatchEquilibrium(
        solved=solved,
        status_A=status_A,
        status_B=status_B,
        k_A=k_A,
        k_B=k_B,
        case=case,
        n_A=n_A,
        n_B=n_B,
        quality=2.0 + n_A + n_B,
    )


def band_point(lo, hi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(silent, n_A, n_B): the most informative encoding in a band of ratios.

    Both receiver types believe an encoding with m_A = m_B = 1 iff its
    ratio n_B/n_A is in the band [lo, hi]: lo = max(k_B, 0), and hi = k_A,
    or inf where type A believes every ratio.  Where hi < lo the band is
    empty and the point is the silent (0, 0).  Elsewhere it is at the
    band's ratio nearest 1, γ = min(max(lo, 1), hi), with the larger
    coordinate 1: (n_A, n_B) = (1 / max(γ, 1), min(γ, 1)).  Unlike
    min(1, 1/γ), this n_A is 1, not -inf, at γ = -0.0.  Takes floats or
    arrays and returns arrays.
    """
    silent = np.less(hi, lo)
    gamma = np.minimum(np.maximum(lo, 1.0), hi)
    n_A = np.where(silent, 0.0, 1.0 / np.maximum(gamma, 1.0))
    return silent, n_A, np.where(silent, 0.0, np.minimum(gamma, 1.0))


def solve_cells(k_A, k_B, params) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(case, n_A, n_B) of M valid populations: the second stage of `solve_batch`.

    `k_A` and `k_B` are the populations' augmented ratios from `type_ratio`
    and `params` their eight parameters as (8, M) columns in `PARAM_NAMES`
    order.  Each cell takes the `band_point` of [max(k_B, 0), k_A], the band
    unbounded above where k_A <= 0.  Its `CASE_LABELS` index is 1 where
    silent, else the first that holds of k_A, k_B <= 0 (0), k_A <= 0 (5),
    k_A <= 1 (2), k_B <= 1 (3), or 4.  A point on a constraint boundary can
    round to a residual a few ulps below zero, so the points a type rejects
    at the first test are backed off by `_nudge`.
    Where k_B >= k_A >= 0 the silent point is in the cell's case closures
    too: it replaces a point of cases 2 to 5 that stays unbelieved or ties
    it at quality 2, if both types believe it.
    Raises NoFeasibleEncoding if a cell has no believed point.
    """
    silent, a, b = band_point(np.maximum(k_B, 0.0), np.where(k_A <= 0.0, np.inf, k_A))
    # Off the silent cells, k_B <= k_A where k_A > 0, so cases 2, 3 and 4
    # are 2 plus the count of k_A and k_B above 1.
    case = np.where(
        silent, 1, np.where(k_A <= 0.0, 5 * (k_B > 0.0), 2 + (k_A > 1.0) + (k_B > 1.0))
    )
    # Overflowing rows round their residuals to inf or NaN, and are
    # rejected by the comparisons without a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        bel_A, bel_B = believes((1.0, 1.0, a, b), params)
        ok = bel_A & bel_B
        (rejected,) = np.nonzero(~ok)
        if len(rejected):
            a_r, b_r = a[rejected], b[rejected]
            ok[rejected] = _nudge(
                a_r, b_r, params[:, rejected], bel_A[rejected], bel_B[rejected]
            )
            a[rejected], b[rejected] = a_r, b_r
        (quiet,) = np.nonzero(
            (k_B >= k_A) & (k_A >= 0.0) & (case > 1) & (~ok | (2.0 + a + b == 2.0))
        )
        if len(quiet):
            bel_A, bel_B = believes((1.0, 1.0, 0.0, 0.0), params[:, quiet])
            quiet = quiet[bel_A & bel_B]
            case[quiet], a[quiet], b[quiet], ok[quiet] = 1, 0.0, 0.0, True
    if not ok.all():
        raise NoFeasibleEncoding("no analytic candidate is feasible")
    return case, a, b


def _row(population: Population) -> np.ndarray:
    """The population's eight parameters in `PARAM_NAMES` order."""
    return np.array(list(population))


def closed_form_equilibrium(population: Population) -> EquilibriumResult:
    """Analytic equilibrium encoding under the penalty-ordering restriction.

    The one-population case of `solve_batch`, or its `raise_for_status`
    error: m_A = m_B = 1, with (n_A, n_B) the band point of (k_A, k_B)
    that `solve_cells` gives.
    """
    row = _row(population)
    batch = solve_batch(row[None])
    if not batch.solved[0]:
        raise_for_status(row, (batch.status_A[0], batch.status_B[0]))
    return batch.result(0)


def _constraint_rows(p) -> tuple[np.ndarray, np.ndarray]:
    """Affine belief constraints G z + c >= 0 over z = (m_A, m_B, n_A, n_B).

    `p` holds n populations' eight parameter columns; G is (n, 2, 4) and c
    (n, 2).  A type's a-message and b-message constraints share one
    gradient, and their constants differ by 2 ls (dO - dI), so the type
    believes iff the one with the smaller constant holds: one row per type.
    """
    la_A, ls_A, dI_A, dO_A, la_B, ls_B, dI_B, dO_B = p
    row_A = [la_A - ls_A * dI_A, la_A + ls_A * dO_A, la_A + ls_A * dI_A,
             la_A - ls_A * dO_A]
    row_B = [la_B + ls_B * dO_B, la_B - ls_B * dI_B, la_B - ls_B * dO_B,
             la_B + ls_B * dI_B]
    G = np.stack([np.stack(row_A, axis=-1), np.stack(row_B, axis=-1)], axis=1)
    c = np.stack([-ls_A * np.abs(dO_A - dI_A) - 2.0 * la_A,
                  -ls_B * np.abs(dO_B - dI_B) - 2.0 * la_B], axis=-1)
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

#: Populations per block of `lp_oracle_batch`, whose working arrays (104
#: 4x4 systems per population) are then a few MB whatever N is.
_LP_BLOCK = 256


def lp_oracle_batch(params) -> np.ndarray:
    """Maximal-quality encodings both receiver types believe, per population.

    `params` has shape (N, 8), columns in `PARAM_NAMES` order; returns the
    (N, 4) strategies (m_A, m_B, n_A, n_B), NaN where none is believed.
    Each population's 104 vertex systems take four of its two belief
    hyperplanes and eight box faces, never both faces of one coordinate.
    The nondegenerate ones are solved and kept if feasible at tolerance
    1e-9; the maximal-quality vertex wins, the lexicographically smallest
    on exact ties.  Runs `_LP_BLOCK` rows at a time, each row on its own.
    Deliberately shares no code with the closed form.
    """
    p = np.asarray(params, dtype=float)
    out = np.full((len(p), 4), np.nan)
    # Silent on overflowing rows, and on subnormal ones whose determinants
    # NumPy takes as the exp of a log of 0.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for start in range(0, len(p), _LP_BLOCK):
            _lp_block(p[start:start + _LP_BLOCK], out[start:start + _LP_BLOCK])
    return out


def _lp_block(p: np.ndarray, out: np.ndarray) -> None:
    """Write the `lp_oracle_batch` rows of parameter rows `p` into `out`."""
    G, c = _constraint_rows(p.T)
    n = len(G)
    eye = np.broadcast_to(np.eye(4), (n, 4, 4))
    rows = np.concatenate([G, eye, eye], axis=1)
    rhs = np.concatenate([-c, np.zeros((n, 4)), np.ones((n, 4))], axis=1)
    A = np.take(rows, _ACTIVE_COMBOS, axis=1).reshape(-1, 4, 4)
    b = np.take(rhs, _ACTIVE_COMBOS, axis=1).reshape(-1, 4)
    dets = np.linalg.det(A)
    # Hadamard-style scale so near-singular detection is size-independent.
    scale = np.prod(np.linalg.norm(A, axis=2), axis=1)
    (solvable,) = np.nonzero(np.abs(dets) > 1e-12 * np.maximum(scale, 1e-300))
    pop = solvable // len(_ACTIVE_COMBOS)
    z = np.linalg.solve(A[solvable], b[solvable][..., None])[..., 0]

    in_box = ((z >= -_FEAS_TOL) & (z <= 1.0 + _FEAS_TOL)).all(axis=1)
    # One (104, 4) @ (4, 2) product per population, as for a lone one: how
    # the product rounds depends on its shape, and feasibility at the 1e-9
    # tolerance on the rounding.
    padded = np.zeros((len(A), 4))
    padded[solvable] = z
    products = padded.reshape(n, -1, 4) @ G.transpose(0, 2, 1)
    residuals = products.reshape(-1, 2)[solvable] + c[pop]
    feasible = in_box & (residuals >= -_FEAS_TOL).all(axis=1)

    z, pop = np.clip(z[feasible], 0.0, 1.0), pop[feasible]
    order = np.lexsort((z[:, 3], z[:, 2], z[:, 1], z[:, 0], -z.sum(axis=1), pop))
    rows, first = np.unique(pop[order], return_index=True)
    out[rows] = z[order[first]]


def full_lp_oracle(population: Population) -> LpSolution:
    """Maximize quality over all encodings both receiver types believe.

    The one-population case of `lp_oracle_batch`; raises
    NoFeasibleEncoding where no vertex is believed.  Needs no restriction.
    """
    z = lp_oracle_batch(_row(population)[None])[0]
    if np.isnan(z[0]):
        raise NoFeasibleEncoding("no vertex satisfies the belief constraints")
    strategy = SenderStrategy(*(float(v) for v in z))
    return LpSolution(strategy=strategy, quality=quality(strategy))


#: Largest quality or coordinate gap between the solvers that passes.
GAP_TOLERANCE = 1e-9


@dataclass(frozen=True)
class EquivalenceReport:
    """Closed form vs LP oracle on N populations, one row each.

    `params` holds the parameters in `PARAM_NAMES` order, `closed` and `lp`
    the two strategies as (m_A, m_B, n_A, n_B).
    """

    params: np.ndarray
    closed: np.ndarray
    lp: np.ndarray
    quality_gap: np.ndarray
    coordinate_gap: np.ndarray

    @property
    def failures(self) -> np.ndarray:
        """Indices of the rows with a gap above `GAP_TOLERANCE`."""
        gap = np.maximum(self.quality_gap, self.coordinate_gap)
        return np.flatnonzero(gap > GAP_TOLERANCE)

    @property
    def ok(self) -> bool:
        return not len(self.failures)


def compare_batch(params) -> EquivalenceReport:
    """Run both solvers on populations given as rows of their parameters.

    If either solver fails on a row, the first such row raises: the closed
    form's typed error from its status (`raise_for_status`), else the LP
    oracle's NoFeasibleEncoding.
    """
    params = np.asarray(params, dtype=float)
    closed = solve_batch(params)
    lp = lp_oracle_batch(params)
    (bad,) = np.nonzero(~closed.solved | np.isnan(lp[:, 0]))
    if len(bad):
        i = bad[0]
        raise_for_status(params[i], (closed.status_A[i], closed.status_B[i]))
        raise NoFeasibleEncoding("no vertex satisfies the belief constraints")
    strategy = np.column_stack([np.ones((len(lp), 2)), closed.n_A, closed.n_B])
    return EquivalenceReport(
        params=params,
        closed=strategy,
        lp=lp,
        quality_gap=np.abs(closed.quality - lp.sum(axis=1)),
        coordinate_gap=np.abs(strategy - lp).max(axis=1),
    )


def random_restricted_params(rng: np.random.Generator, n: int) -> np.ndarray:
    """Parameter rows of n populations satisfying the penalty restriction.

    Per type: weights uniform on [0, 1], in-group penalty uniform on
    [0, 2], out-group penalty the in-group value plus uniform [0, 3].  The
    draws are the same as n calls of `random_restricted_population`.
    """
    u = rng.random((n, 2, 4))
    d_in = 2.0 * u[..., 0]
    rows = np.stack([u[..., 1], u[..., 2], d_in, d_in + 3.0 * u[..., 3]], axis=2)
    return rows.reshape(n, 8)


def random_restricted_population(rng: np.random.Generator) -> Population:
    """One population drawn as by `random_restricted_params`."""
    return Population(*random_restricted_params(rng, 1)[0].tolist())


#: Most trials `check_equivalence` takes; `np.intp` indexes their (trials, 2, 4) draw.
MAX_TRIALS = np.iinfo(np.intp).max // 8


def check_equivalence(trials: int, seed: int) -> EquivalenceReport:
    """Compare closed form and LP oracle on random restricted populations."""
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must be in [1, {MAX_TRIALS}], got {trials}")
    return compare_batch(random_restricted_params(np.random.default_rng(seed), trials))

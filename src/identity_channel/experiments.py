"""Parameter sweeps, monotonicity audits and Monte Carlo validation.

Sweeps evaluate the closed-form equilibrium on a 1-D or 2-D parameter grid
and serialize the results to CSV; the audit checks the expected direction
of the equilibrium quality along single-parameter sweeps; the Monte Carlo
routine validates that realized decoding accuracy matches quality / 4 for
believing receivers.
"""

from __future__ import annotations

import csv
import enum
import io
import math
from dataclasses import dataclass

import numpy as np

from .equilibrium import CASE_LABELS, solve_batch
from .model import (
    PARAM_NAMES,
    Group,
    Population,
    SenderStrategy,
    population_params,
)
from .receiver import believes, best_response

_AUDIT_TOL = 1e-9

#: Grid cells solved per batch: bounds a sweep's working arrays whatever the
#: grid size, and is large enough that per-batch overhead is negligible.
_SWEEP_BLOCK = 4096


class NonBelievingReceiver(ValueError):
    """Monte Carlo accuracy requires a strategy both receiver types believe."""


class Direction(str, enum.Enum):
    NONDECREASING = "nondecreasing"
    NONINCREASING = "nonincreasing"


def expected_direction(axis: str) -> Direction:
    """Direction in which equilibrium quality is audited along one axis.

    Quality is audited as nonincreasing in identity weights, nondecreasing
    in accuracy weights, and nondecreasing in out-group penalties (in-group
    penalties fixed).
    """
    if axis.startswith("lambda_s"):
        return Direction.NONINCREASING
    if axis.startswith("lambda_a"):
        return Direction.NONDECREASING
    if axis.startswith("delta_O"):
        return Direction.NONDECREASING
    raise ValueError(f"no audited direction for axis {axis!r}")


@dataclass(frozen=True)
class SweepAxis:
    name: str
    lo: float
    hi: float
    resolution: int

    def __post_init__(self) -> None:
        if self.name not in PARAM_NAMES:
            raise ValueError(f"unknown sweep axis {self.name!r}")
        if self.resolution < 1:
            raise ValueError(f"resolution must be >= 1, got {self.resolution}")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("axis range must be finite")

    def values(self) -> np.ndarray:
        if self.resolution == 1:
            return np.array([self.lo])
        return np.linspace(self.lo, self.hi, self.resolution)


_COMPLEMENT = {
    "lambda_a_A": "lambda_s_A",
    "lambda_s_A": "lambda_a_A",
    "lambda_a_B": "lambda_s_B",
    "lambda_s_B": "lambda_a_B",
}


@dataclass(frozen=True)
class SweepSpec:
    """A 1-D or 2-D grid around a base population.

    With simplex_constrained set, sweeping a weight axis also sets the
    complementary weight of the same receiver type to one minus the swept
    value, so weight pairs stay on the unit simplex.
    """

    base: Population
    axes: tuple[SweepAxis, ...]
    simplex_constrained: bool = False

    def __post_init__(self) -> None:
        if len(self.axes) not in (1, 2):
            raise ValueError("a sweep takes one or two axes")
        if len({axis.name for axis in self.axes}) != len(self.axes):
            raise ValueError("sweep axes must be distinct")


@dataclass(frozen=True)
class SweepRecord:
    axis1: float
    axis2: float | None
    k_A: float
    k_B: float
    case: str
    n_A: float
    n_B: float
    Q: float


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    records: tuple[SweepRecord, ...]
    skipped: tuple[tuple[float, float | None], ...]


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the closed-form equilibrium on every grid cell, row-major.

    Cells are solved in blocks of at most `_SWEEP_BLOCK` by the batch
    solver.  Cells whose parameters are invalid (e.g. a negative simplex
    complement), that violate the penalty-ordering restriction, or whose
    swept receiver has all weights zero are skipped and reported separately.
    """
    axis_values = [axis.values() for axis in spec.axes]
    shape = tuple(len(values) for values in axis_values)
    cells = math.prod(shape)
    base = np.array(list(population_params(spec.base).values()))

    records: list[SweepRecord] = []
    skipped: list[tuple[float, float | None]] = []
    for start in range(0, cells, _SWEEP_BLOCK):
        index = np.unravel_index(
            np.arange(start, min(start + _SWEEP_BLOCK, cells)), shape
        )
        coords = [values[i] for values, i in zip(axis_values, index)]
        params = np.repeat(base[:, None], len(coords[0]), axis=1)
        for axis, values in zip(spec.axes, coords):
            params[PARAM_NAMES.index(axis.name)] = values
            if spec.simplex_constrained and axis.name in _COMPLEMENT:
                params[PARAM_NAMES.index(_COMPLEMENT[axis.name])] = 1.0 - values
        if len(coords) == 1:
            coords.append(np.full(len(coords[0]), None))
        batch = solve_batch(params.T)

        ok = batch.solved
        records.extend(
            map(
                SweepRecord,
                coords[0][ok].tolist(),
                coords[1][ok].tolist(),
                batch.k_A[ok].tolist(),
                batch.k_B[ok].tolist(),
                map(CASE_LABELS.__getitem__, batch.case[ok].tolist()),
                batch.n_A[ok].tolist(),
                batch.n_B[ok].tolist(),
                batch.quality[ok].tolist(),
            )
        )
        skipped.extend(zip(coords[0][~ok].tolist(), coords[1][~ok].tolist()))
    return SweepResult(spec=spec, records=tuple(records), skipped=tuple(skipped))


def _fmt(value: float | None) -> str:
    if value is None:
        return ""
    return f"{value:.12g}"


def _csv_field(text: str) -> str:
    """`text` as csv.writer writes it, quoted where it must be."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="").writerow([text])
    return buffer.getvalue()


def write_sweep_csv(result: SweepResult, path) -> None:
    """Serialize a sweep, one row per computed cell, 12 significant digits.

    Each row is one format string.  The case label is the only field that
    can need CSV quoting (it may contain a comma), so each label is quoted
    once by csv.writer; the bytes are those csv.writer would write.
    """
    cases = {label: _csv_field(label) for label in CASE_LABELS}
    row = "{:.12g},{},{:.12g},{:.12g},{},{:.12g},{:.12g},{:.12g}\n".format
    with open(path, "w", newline="") as handle:
        handle.write("axis1,axis2,k_A,k_B,case,n_A,n_B,Q\n")
        handle.writelines(
            row(r.axis1, _fmt(r.axis2), r.k_A, r.k_B, cases[r.case], r.n_A, r.n_B, r.Q)
            for r in result.records
        )


@dataclass(frozen=True)
class MonotonicityViolation:
    axis_lo: float
    axis_hi: float
    q_lo: float
    q_hi: float


def audit_monotonicity(
    spec: SweepSpec, axis: str, direction: Direction
) -> tuple[MonotonicityViolation, ...]:
    """Run a 1-D sweep along `axis` and check it with `monotonicity_violations`."""
    if len(spec.axes) != 1 or spec.axes[0].name != axis:
        raise ValueError(f"spec must be a 1-D sweep along {axis!r}")
    return monotonicity_violations(run_sweep(spec).records, direction)


def monotonicity_violations(
    records: tuple[SweepRecord, ...], direction: Direction
) -> tuple[MonotonicityViolation, ...]:
    """Check quality ordering of adjacent cells of a 1-D sweep's records.

    Reports every adjacent pair whose quality moves against `direction` by
    more than 1e-9.  Skipped cells are excluded, so comparisons are between
    consecutive computed cells.
    """
    violations = []
    for prev, cur in zip(records, records[1:]):
        delta = cur.Q - prev.Q
        bad = (
            delta < -_AUDIT_TOL
            if direction is Direction.NONDECREASING
            else delta > _AUDIT_TOL
        )
        if bad:
            violations.append(
                MonotonicityViolation(
                    axis_lo=prev.axis1, axis_hi=cur.axis1, q_lo=prev.Q, q_hi=cur.Q
                )
            )
    return tuple(violations)


def monte_carlo_accuracy(
    strategy: SenderStrategy,
    population: Population,
    N: int,
    seed: int,
) -> tuple[float, float]:
    """Empirical decoding accuracy over N sampled plays and its standard error.

    Each play draws the source uniformly, the receiver type uniformly, and
    decodes with the type's best response.  For a strategy both types
    believe, the expectation equals quality(strategy) / 4.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    bel_A, bel_B = believes(strategy, population)
    if not (bel_A and bel_B):
        raise NonBelievingReceiver(
            "strategy is not believed by both receiver types "
            f"(A={bel_A}, B={bel_B}); the accuracy identity does not apply"
        )
    br_A = best_response(strategy, population, Group.A)
    br_B = best_response(strategy, population, Group.B)

    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, N)
    theta_is_b = rng.integers(0, 2, N).astype(bool)
    receiver_is_b = rng.integers(0, 2, N).astype(bool)

    p_msg_a = np.where(
        x == 1,
        np.where(theta_is_b, strategy.m_B, strategy.m_A),
        np.where(theta_is_b, 1.0 - strategy.n_B, 1.0 - strategy.n_A),
    )
    msg_is_a = rng.random(N) < p_msg_a

    p = np.where(receiver_is_b, br_B.p, br_A.p)
    q = np.where(receiver_is_b, br_B.q, br_A.q)
    u = rng.random(N)
    x_hat = np.where(msg_is_a, (u < p).astype(int), 1 - (u < q).astype(int))

    accuracy = float(np.mean(x_hat == x))
    std_error = math.sqrt(max(accuracy * (1.0 - accuracy), 0.0) / N)
    return accuracy, std_error


def write_simulation_csv(
    path, N: int, seed: int, accuracy: float, std_error: float, expected: float
) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["N", "seed", "accuracy", "std_error", "expected"])
        writer.writerow([N, seed, _fmt(accuracy), _fmt(std_error), _fmt(expected)])

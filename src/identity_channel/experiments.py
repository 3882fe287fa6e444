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

#: Monte Carlo plays sampled per block, each block from its own random
#: stream: bounds the sampler's working arrays whatever N is, and keeps them
#: small enough to stay in cache.
_MC_BLOCK = 1 << 16


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


class _AxisText(dict):
    """`_fmt` of each axis value, converted once per distinct value.

    Zeros are formatted every time: 0.0 and -0.0 are one dict key but print
    as "0" and "-0".
    """

    def __missing__(self, value: float) -> str:
        text = _fmt(value)
        if value:
            self[value] = text
        return text


def write_sweep_csv(result: SweepResult, path) -> None:
    """Serialize a sweep, one row per computed cell, 12 significant digits.

    Each row is one format string.  An axis repeats each of its values in
    many rows, so axis values are converted to text once.  The case label is
    the only field that can need CSV quoting (it may contain a comma), so
    each label is quoted once by csv.writer; the bytes are those csv.writer
    would write.
    """
    cases = {label: _csv_field(label) for label in CASE_LABELS}
    axis_text = _AxisText({None: ""})
    row = "{},{},{:.12g},{:.12g},{},{:.12g},{:.12g},{:.12g}\n".format
    with open(path, "w", newline="") as handle:
        handle.write("axis1,axis2,k_A,k_B,case,n_A,n_B,Q\n")
        handle.writelines(
            row(
                axis_text[r.axis1],
                axis_text[r.axis2],
                r.k_A,
                r.k_B,
                cases[r.case],
                r.n_A,
                r.n_B,
                r.Q,
            )
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

    Plays are sampled in blocks of `_MC_BLOCK`.  Block b draws from the b-th
    child of `np.random.SeedSequence(seed)`, so the result depends only on
    `(N, seed)` and memory only on the block size.  A play draws its three
    fair bits as one cell index 4 x + 2 [source is B] + [receiver is B],
    then one uniform for the message and one for the decode.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    bel_A, bel_B = believes(strategy, population)
    if not (bel_A and bel_B):
        raise NonBelievingReceiver(
            "strategy is not believed by both receiver types "
            f"(A={bel_A}, B={bel_B}); the accuracy identity does not apply"
        )
    br = {group: best_response(strategy, population, group) for group in Group}
    cells = [(x, source, rcv) for x in (0, 1) for source in Group for rcv in Group]
    p_message_a = np.array([strategy.prob_message_a(x, src) for x, src, _ in cells])
    # Indexed by 2 cell + [message is a]: the chance the receiver decodes
    # x = 0 (after b) or x = 1 (after a), and whether that decode is correct.
    p_decode = np.array([p for *_, rcv in cells for p in (br[rcv].q, br[rcv].p)])
    decode_correct = np.array([hit for x, *_ in cells for hit in (x == 0, x == 1)])

    root = np.random.SeedSequence(seed)
    hits = 0
    for start in range(0, N, _MC_BLOCK):
        n = min(_MC_BLOCK, N - start)
        rng = np.random.default_rng(root.spawn(1)[0])
        cell = rng.integers(0, 8, n, dtype=np.uint8)
        u_message, u_decode = rng.random((2, n))
        index = (cell << 1) | (u_message < p_message_a.take(cell))
        correct = (u_decode < p_decode.take(index)) == decode_correct.take(index)
        hits += int(np.count_nonzero(correct))

    accuracy = hits / N
    std_error = math.sqrt(max(accuracy * (1.0 - accuracy), 0.0) / N)
    return accuracy, std_error


def write_simulation_csv(
    path, N: int, seed: int, accuracy: float, std_error: float, expected: float
) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["N", "seed", "accuracy", "std_error", "expected"])
        writer.writerow([N, seed, _fmt(accuracy), _fmt(std_error), _fmt(expected)])

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
import os
import threading
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
from .receiver import believes

_AUDIT_TOL = 1e-9

#: Grid cells solved per batch: bounds a sweep's working arrays whatever the
#: grid size, and is large enough that per-batch overhead is negligible.
_SWEEP_BLOCK = 4096

#: Monte Carlo plays sampled per block, each block from its own random
#: stream: bounds each worker's working arrays whatever N is, and keeps them
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
    value, so weight pairs stay on the unit simplex.  Such a sweep cannot
    take both weights of one type as axes: each would overwrite the other.
    """

    base: Population
    axes: tuple[SweepAxis, ...]
    simplex_constrained: bool = False

    def __post_init__(self) -> None:
        if len(self.axes) not in (1, 2):
            raise ValueError("a sweep takes one or two axes")
        names = [axis.name for axis in self.axes]
        if len(set(names)) != len(names):
            raise ValueError("sweep axes must be distinct")
        if self.simplex_constrained and _COMPLEMENT.get(names[0]) in names:
            raise ValueError(
                f"a simplex-constrained sweep cannot take both {names[0]!r} "
                f"and its complement {names[1]!r} as axes"
            )

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(axis.resolution for axis in self.axes)


@dataclass(frozen=True, eq=False)
class SweepResult:
    """A sweep's solved cells as columns, in row-major grid order.

    `solved` and `skipped` are flat row-major positions in the grid of
    `spec` (see `coordinates`).  The other arrays hold one entry per solved
    cell, aligned with `solved`; `case` indexes `CASE_LABELS`.  Every encoding
    has m_A = m_B = 1.
    """

    spec: SweepSpec
    solved: np.ndarray
    skipped: np.ndarray
    k_A: np.ndarray
    k_B: np.ndarray
    case: np.ndarray
    n_A: np.ndarray
    n_B: np.ndarray
    Q: np.ndarray

    def coordinates(self, positions: np.ndarray) -> list[np.ndarray]:
        """Axis values at flat grid `positions`, one array per axis."""
        index = np.unravel_index(positions, self.spec.shape)
        return [axis.values()[i] for axis, i in zip(self.spec.axes, index)]


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the closed-form equilibrium on every grid cell, row-major.

    Cells are solved in blocks of at most `_SWEEP_BLOCK` by the batch
    solver, and each block's solved cells are appended to the result's
    columns, so the result holds about 56 bytes per solved cell and 8 per
    skipped one.  Cells whose parameters are invalid (e.g. a negative
    simplex complement), that violate the penalty-ordering restriction, or
    whose swept receiver has all weights zero are skipped and reported by
    grid position.
    """
    axis_values = [axis.values() for axis in spec.axes]
    cells = math.prod(spec.shape)
    base = np.array(list(population_params(spec.base).values()))

    blocks = []
    for start in range(0, cells, _SWEEP_BLOCK):
        position = np.arange(start, min(start + _SWEEP_BLOCK, cells))
        index = np.unravel_index(position, spec.shape)
        params = np.repeat(base[:, None], len(position), axis=1)
        for axis, values, i in zip(spec.axes, axis_values, index):
            params[PARAM_NAMES.index(axis.name)] = values[i]
            if spec.simplex_constrained and axis.name in _COMPLEMENT:
                params[PARAM_NAMES.index(_COMPLEMENT[axis.name])] = 1.0 - values[i]
        batch = solve_batch(params.T)
        ok = batch.solved
        fields = (batch.k_A, batch.k_B, batch.case, batch.n_A, batch.n_B, batch.quality)
        blocks.append([position[ok], position[~ok], *(f[ok] for f in fields)])
    return SweepResult(spec, *map(np.concatenate, zip(*blocks)))


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _csv_field(text: str) -> str:
    """`text` as csv.writer writes it, quoted where it must be."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="").writerow([text])
    return buffer.getvalue()


def _distinct_text(column: np.ndarray) -> np.ndarray:
    """Each float of `column` as `_fmt` bytes, each distinct value formatted once.

    A sweep's columns repeat: k_A depends on type A's parameters only and
    k_B on type B's, n_A is 0, 1 or a function of k_B, n_B is 0, 1 or k_A,
    and no case moves both, so Q = 2 + n_A + n_B follows one k at a time.
    A block of a sweep over both types' parameters thus holds a few
    percent distinct values per column; one over a single type's
    parameters at most three columns of distinct values, the other two
    constant.
    Values are told apart by their bits, so -0.0 and 0.0 keep their own text.
    """
    bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
    text = np.array([_fmt(v) for v in bits.view(np.float64).tolist()], dtype="S")
    return text[inverse]


def _csv_lines(fields: list[np.ndarray]) -> bytes:
    """One comma-separated line per row of the aligned bytes columns `fields`.

    Each field sits NUL-padded at a fixed offset of a uint8 grid, followed
    by its separator.  Float text and the quoted case labels hold no NUL, so
    dropping the NULs leaves the lines; an all-NUL field comes out empty.
    """
    widths = [field.itemsize for field in fields]
    grid = np.zeros((len(fields[0]), sum(widths) + len(widths)), dtype=np.uint8)
    end = 0
    for field, width in zip(fields, widths):
        grid[:, end : end + width] = field.view(np.uint8).reshape(-1, width)
        grid[:, end + width] = ord(",")
        end += width + 1
    grid[:, -1] = ord("\n")
    return grid[grid != 0].tobytes()


def write_sweep_csv(result: SweepResult, path) -> None:
    """Serialize a sweep, one row per solved cell, 12 significant digits.

    Rows are written `_SWEEP_BLOCK` at a time.  Within a block each float
    column is converted to text once per distinct value (by bits, so -0.0
    stays "-0"; `_distinct_text` says why values repeat), and each axis
    value once per grid position; a 1-D sweep's axis2 is empty.  The case
    label is the only field that can need CSV quoting (it may contain a
    comma), so each label is quoted once by csv.writer; the bytes are those
    csv.writer would write.
    """
    cases = np.array([_csv_field(label) for label in CASE_LABELS], dtype="S")
    axes = [_distinct_text(axis.values()) for axis in result.spec.axes]
    with open(path, "wb") as handle:
        handle.write(b"axis1,axis2,k_A,k_B,case,n_A,n_B,Q\n")
        for start in range(0, len(result.solved), _SWEEP_BLOCK):
            block = slice(start, start + _SWEEP_BLOCK)
            index = np.unravel_index(result.solved[block], result.spec.shape)
            fields = [text[i] for text, i in zip(axes, index)]
            if len(fields) == 1:
                fields.append(np.zeros(len(fields[0]), dtype="S1"))
            fields += [
                _distinct_text(result.k_A[block]),
                _distinct_text(result.k_B[block]),
                cases[result.case[block]],
                _distinct_text(result.n_A[block]),
                _distinct_text(result.n_B[block]),
                _distinct_text(result.Q[block]),
            ]
            handle.write(_csv_lines(fields))


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
    return monotonicity_violations(run_sweep(spec), direction)


def monotonicity_violations(
    result: SweepResult, direction: Direction
) -> tuple[MonotonicityViolation, ...]:
    """Check quality ordering of adjacent solved cells of a sweep.

    Reports every adjacent pair whose quality moves against `direction` by
    more than 1e-9, with the first axis's values.  Skipped cells are
    excluded, so comparisons are between consecutive solved cells.  Each
    step is judged along increasing axis value: an axis that runs from a
    higher `lo` down to a lower `hi` is read in reverse, so it gives the
    same verdict as the ascending sweep.
    """
    axis = result.coordinates(result.solved)[0]
    Q = result.Q
    if result.spec.axes[0].hi < result.spec.axes[0].lo:
        axis, Q = axis[::-1], Q[::-1]
    step = np.diff(Q)
    if direction is Direction.NONINCREASING:
        step = -step
    (bad,) = np.nonzero(step < -_AUDIT_TOL)
    return tuple(
        map(
            MonotonicityViolation,
            axis[bad].tolist(),
            axis[bad + 1].tolist(),
            Q[bad].tolist(),
            Q[bad + 1].tolist(),
        )
    )


def _uniform_threshold(p) -> np.ndarray:
    """Integer thresholds T = ceil(p 2^53) for probabilities p in [0, 1].

    For every integer k in [0, 2^53), k < T exactly when the uniform
    k 2^-53 < p: scaling by a power of two is exact in float64, and an
    integer is below a real number exactly when it is below its ceiling.
    """
    return np.ceil(np.asarray(p, dtype=np.float64) * 2.0**53).astype(np.int64)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    `(N, seed)`.  Each play is one raw 64-bit output of `np.random.PCG64` on
    that child; NumPy keeps these raw streams stable across releases
    (NEP 19), so the result does not depend on the NumPy version either.
    The word's low 3 bits are the play's cell 4 x + 2 [source is B] +
    [receiver is B]; its top 53 bits are an integer k, and u = k 2^-53 is
    the message uniform (the float `Generator.random` makes from the same
    word).  The message is a when u < p, tested exactly on integers as
    k < `_uniform_threshold(p)`.  Both types believe, so each best response
    decodes a as x = 1 and b as x = 0, and a play is decoded correctly when
    its message is a exactly when x = 1.

    The blocks are shared among W = min(usable CPUs, blocks) workers: the
    calling thread is worker 0 and W - 1 daemon threads are the others, so
    N within one block starts no thread.  Worker t samples blocks t, t + W,
    t + 2W, ...; NumPy releases the interpreter lock while it draws and
    compares, so the workers run at once.  Their hit counts are exact
    integers, so the result does not depend on W or on the CPU count, and
    memory is bounded by W blocks whatever N is.  An exception in any
    worker stops the others at their next block and is raised here.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    bel_A, bel_B = believes(strategy, population)
    if not (bel_A and bel_B):
        raise NonBelievingReceiver(
            "strategy is not believed by both receiver types "
            f"(A={bel_A}, B={bel_B}); the accuracy identity does not apply"
        )
    cells = [(x, source) for x in (0, 1) for source in Group for _ in Group]
    threshold = _uniform_threshold(
        [strategy.prob_message_a(x, src) for x, src in cells]
    )

    blocks = -(-N // _MC_BLOCK)
    workers = min(_usable_cpus(), blocks)
    # None until a worker has counted all its blocks, so a worker that
    # stopped early can never pass for one that counted no hits.
    counts: list[int | None] = [None] * workers
    errors: list[BaseException] = []
    stop = threading.Event()

    def work(t: int) -> None:
        # A block's arrays live until the next block's replace them, so the
        # allocator reuses their pages rather than handing them back to the
        # OS and faulting them in again: with all of a block's arrays freed
        # at once, 1e7 plays took 2.5 times as long, in page faults.
        hits = 0
        for b in range(t, blocks, workers):
            if stop.is_set():
                return
            n = min(_MC_BLOCK, N - b * _MC_BLOCK)
            stream = np.random.SeedSequence(seed, spawn_key=(b,))
            word = np.random.PCG64(stream).random_raw(n)
            cell = (word & 7).view(np.int64)
            word >>= 11  # k in place: one block array fewer
            message_a = word.view(np.int64) < threshold.take(cell)
            hits += int(np.count_nonzero(message_a == (cell >= 4)))
        counts[t] = hits

    def work_in_thread(t: int) -> None:
        try:
            work(t)
        except BaseException as error:  # raised again in the calling thread
            errors.append(error)
            stop.set()

    threads = [
        threading.Thread(target=work_in_thread, args=(t,), daemon=True)
        for t in range(1, workers)
    ]
    try:
        for thread in threads:
            thread.start()
        work(0)
        for thread in threads:
            thread.join()
    finally:
        stop.set()  # on an exception or interrupt here, the threads stop too
    if errors:
        raise errors[0]
    hits = sum(counts)

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

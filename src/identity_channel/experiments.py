"""Parameter sweeps, monotonicity audits and Monte Carlo validation.

Sweeps evaluate the closed-form equilibrium on a 1-D or 2-D parameter grid,
one block at a time, and serialize the results to CSV; the audit checks the
expected direction of the equilibrium quality along single-parameter sweeps;
the Monte Carlo routine validates that realized decoding accuracy matches
quality / 4 for believing receivers.
"""

from __future__ import annotations

import contextlib
import csv
import enum
import io
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .equilibrium import CASE_LABELS, solve_cells, type_ratio
from .model import PARAM_NAMES, DomainError, Group, Population, SenderStrategy
from .receiver import believes

_AUDIT_TOL = 1e-9

#: Grid cells solved per block: bounds a sweep's working arrays (a traced
#: peak of about 2.7 MiB at 8192 cells) whatever the grid size.  Each block
#: also costs about 0.4 ms whatever its size, beside about 0.26 us per cell
#: (a fit over blocks of 512 to 8192 cells of the 201x201 benchmark grid
#: written to /dev/null, 2-CPU host; two runs gave 0.44 and 0.37 ms, 0.24
#: and 0.28 us), so at 8192 cells that fixed cost is about a sixth of a block.
_SWEEP_BLOCK = 8192

#: Raw words drawn and counted at a time by `_fair_split`: bounds the Monte
#: Carlo's working arrays whatever N is, to a traced peak of about 1 MiB
#: (one block of words is still kept while the next is drawn).
_MC_CHUNK = 1 << 16

#: The largest N `monte_carlo_accuracy` takes, the int64 range.  Sampling
#: 2^63 plays, at about 0.03 raw words a play, would take decades.
MAX_PLAYS = 2**63 - 1


class NonBelievingReceiver(ValueError, DomainError):
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
        if not math.isfinite(self.hi - self.lo):
            raise ValueError(
                f"axis span hi - lo overflows: {self.hi!r} - {self.lo!r}"
            )

    def values(self, index: np.ndarray) -> np.ndarray:
        """The axis values at grid `index`, computed for those indices only.

        Each equals `np.linspace(lo, hi, resolution)[index]`, by the same
        operations: i * step + lo, or i / (resolution - 1) * (hi - lo) + lo
        where the step underflows to zero, and hi itself at the last index.
        So a block of a long axis costs memory for its own cells only.
        """
        index = np.asarray(index)
        if self.resolution == 1:
            return np.full(index.shape, float(self.lo))
        div = self.resolution - 1
        lo, hi = float(self.lo), float(self.hi)
        step = (hi - lo) / div
        i = index.astype(np.float64)
        # i * step can overflow at the last index only, which is hi.
        with np.errstate(over="ignore"):
            value = (i * step if step != 0.0 else i / div * (hi - lo)) + lo
        return np.where(index == div, hi, value)


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
    A grid's cells are numbered row-major as `np.intp`, so a grid cannot
    hold more cells than that type counts.
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
        cells = math.prod(self.shape)
        if cells > np.iinfo(np.intp).max:
            raise ValueError(f"a sweep grid of {cells} cells is too large to index")

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(axis.resolution for axis in self.axes)


@dataclass(frozen=True, eq=False)
class SweepResult:
    """One block of a sweep's solved cells as columns, in row-major grid order.

    A solved cell is named by `index`, its index along each axis of `spec`
    (see `SweepAxis.values`); `skipped` counts the block's cells that were
    not solved.  The other arrays hold one entry per solved cell; `case`
    indexes `CASE_LABELS`.  Every encoding has m_A = m_B = 1.  `k_rows`
    holds, for receiver types A and B, the first of the type rows the
    block's cells use and k of each row from there on (see `_type_rows`),
    whether or not a cell using it was solved, and `rows` holds the solved
    cells' type rows for A and B, counted from that first row.
    """

    spec: SweepSpec
    skipped: int
    k_A: np.ndarray
    k_B: np.ndarray
    case: np.ndarray
    n_A: np.ndarray
    n_B: np.ndarray
    Q: np.ndarray
    k_rows: tuple[tuple[int, np.ndarray], tuple[int, np.ndarray]]
    index: tuple[np.ndarray, ...]
    rows: tuple[np.ndarray, np.ndarray]


def _moving(spec: SweepSpec, group: Group) -> list[int]:
    """The axes along which receiver type `group`'s parameters change.

    An axis moves the type its name ends in; its simplex complement is the
    same type's other weight.
    """
    suffix = f"_{group.value}"
    return [k for k, axis in enumerate(spec.axes) if axis.name.endswith(suffix)]


def _type_rows(spec: SweepSpec, group: Group, index) -> np.ndarray:
    """The row of receiver type `group`'s parameters at each cell of grid `index`.

    A type's parameters depend only on the indices of the axes that move
    it, so its rows number those indices row-major: all 0 for a type no
    axis moves, an axis's index for a type one axis moves, and the grid
    position for a type both axes move.  `index` holds the cells' index
    along each axis; the index of the one axis moving a type is returned
    as it is.
    """
    moving = _moving(spec, group)
    if not moving:
        return np.zeros_like(index[0])
    row = index[moving[0]]
    for k in moving[1:]:
        row = row * spec.shape[k] + index[k]
    return row


def _type_params(spec: SweepSpec, group: Group, rows: np.ndarray) -> np.ndarray:
    """Receiver type `group`'s four parameters, as columns, at its `rows`."""
    names = [name for name in PARAM_NAMES if name.endswith(f"_{group.value}")]
    base = [getattr(spec.base, name) for name in names]
    params = np.repeat(np.array(base)[:, None], len(rows), 1)
    moving = _moving(spec, group)
    index = np.unravel_index(rows, [spec.shape[k] for k in moving]) if moving else ()
    for k, i in zip(moving, index):
        axis = spec.axes[k]
        values = axis.values(i)
        params[names.index(axis.name)] = values
        if spec.simplex_constrained and axis.name in _COMPLEMENT:
            params[names.index(_COMPLEMENT[axis.name])] = 1.0 - values
    return params


def run_sweep(spec: SweepSpec, start: int) -> SweepResult:
    """Evaluate the closed-form equilibrium on one block of the grid.

    The block is grid positions [start, start + `_SWEEP_BLOCK`) in row-major
    order, cut at the grid's end.  Each receiver type's parameters, their
    status and k are computed once per type row in the block's range
    (`_type_rows`) by `type_ratio`; a cell takes its types' rows, and the
    cells whose types both have status 0 are solved at once by
    `solve_cells`.  The others are skipped and counted: a parameter is
    negative or not finite (e.g. a negative simplex complement), a type
    violates the penalty-ordering restriction, or a type's k is 0/0 or
    inf/inf.  The block depends on `spec` and `start` alone; `stream_sweep`
    runs every block of a grid.
    """
    position = np.arange(start, min(start + _SWEEP_BLOCK, math.prod(spec.shape)))
    index = np.unravel_index(position, spec.shape)
    ok = np.ones(len(position), dtype=bool)
    rows, params, k_rows = [], [], []
    for group in Group:
        row = _type_rows(spec, group, index)
        first = int(row.min())
        p = _type_params(spec, group, np.arange(first, int(row.max()) + 1))
        status, k = type_ratio(group, p)
        row = row - first
        ok &= (status == 0)[row]
        rows.append(row)
        params.append(p)
        k_rows.append((first, k))
    rows = tuple(row[ok] for row in rows)
    # The solved cells' eight parameter columns, each type's four gathered
    # into its half; the rows are in range, and mode="clip" writes to `out`
    # without the bounds-checked mode's buffer.
    cells = np.empty((2, 4, len(rows[0])))
    for p, row, out in zip(params, rows, cells):
        np.take(p, row, axis=1, out=out, mode="clip")
    k_A, k_B = (k[row] for (_, k), row in zip(k_rows, rows))
    case, n_A, n_B = solve_cells(k_A, k_B, cells.reshape(8, -1))
    return SweepResult(
        spec, len(ok) - len(k_A), k_A, k_B, case, n_A, n_B, 2.0 + n_A + n_B,
        tuple(k_rows), tuple(i[ok] for i in index), rows,
    )


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _csv_field(text: str) -> str:
    """`text` as csv.writer writes it, quoted where it must be."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="").writerow([text])
    return buffer.getvalue()


#: The sweep CSV's header line; `write_sweep_csv` writes the rows under it.
SWEEP_CSV_HEADER = b"axis1,axis2,k_A,k_B,case,n_A,n_B,Q\n"

#: Each case label as csv.writer writes it: the only field that can need
#: quoting (a label may contain a comma).
_CASE_TEXT = np.array([_csv_field(label) for label in CASE_LABELS], dtype="S")


def _distinct_text(column: np.ndarray) -> np.ndarray:
    """Each float of `column` as `_fmt` bytes, each distinct value formatted once.

    n_A, n_B and Q repeat within a sweep block: n_A is 0, 1 or a function
    of k_B, n_B is 0, 1 or k_A, and no case moves both, so Q = 2 + n_A +
    n_B follows one k at a time, and each k takes one value per type row.
    The distinct values are the starts of the runs of the sorted int64
    bits, and `np.searchsorted` finds each entry's among them; told apart
    by bits, -0.0 and 0.0 keep their own text.
    """
    bits = column.view(np.int64)
    ordered = np.sort(bits)
    starts = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    distinct = ordered[starts]
    text = np.array([_fmt(v) for v in distinct.view(np.float64).tolist()], dtype="S")
    return text[np.searchsorted(distinct, bits)]


def _span_text(held: dict, key, span: tuple[int, int], values) -> np.ndarray:
    """`_fmt` bytes of `values(span)`, formatted again only when `span` changes.

    `held` keeps each key's last span and text across the blocks of a sweep.
    """
    if key not in held or held[key][0] != span:
        text = [_fmt(v) for v in values(span).tolist()]
        held[key] = (span, np.array(text, dtype="S"))
    return held[key][1]


def _csv_lines(fields: list[np.ndarray]) -> np.ndarray:
    """One comma-separated line per row of the aligned bytes columns `fields`.

    Each row is one record of a structured array: a NUL-padded field per
    column, each followed by a one-byte separator field.  The array is
    filled from one record holding the separators, then each column is
    written into its field.  Float text and the quoted case labels hold no
    NUL, so dropping the NULs leaves the lines, as a uint8 array; an
    all-NUL field comes out empty.
    """
    names = [f"f{k}" for k in range(len(fields))]
    layout = []
    for name, field in zip(names, fields):
        layout += [(name, field.dtype), (f"{name}_end", "S1")]
    layout = np.dtype(layout)
    record = np.zeros(layout.itemsize, dtype=np.uint8)
    for name in names:
        record[layout.fields[f"{name}_end"][1]] = ord(",")
    record[-1] = ord("\n")
    # Copied as bytes: NumPy copies a structured record field by field.
    flat = np.empty((len(fields[0]), layout.itemsize), dtype=np.uint8)
    flat[:] = record
    grid = flat.view(layout)[:, 0]
    for name, field in zip(names, fields):
        grid[name] = field
    flat = flat.ravel()
    return flat[flat != 0]


def write_sweep_csv(result: SweepResult, handle, held: dict) -> None:
    """Write one block's CSV rows, one per solved cell, to the binary file `handle`.

    Rows carry 12 significant digits under `SWEEP_CSV_HEADER`; a 1-D
    sweep's axis2 is empty.  Each axis value is converted to text once per
    grid index in the block's range, k_A and k_B once per type row of
    `result.k_rows`, and n_A, n_B and Q once per distinct value of the
    block (by bits, so -0.0 stays "-0"; `_distinct_text` says why values
    repeat).  Each column's text is gathered into one field of the block's
    record array (`_csv_lines`), whose bytes less their padding go to
    `handle` in one write, so the writer's memory is bounded by the block
    whatever the grid size.  The case labels are quoted by csv.writer; the
    bytes are those csv.writer would write.

    `held`, a dict kept across the blocks of one sweep, holds each axis's
    and each receiver type's last formatted range: a 2-D sweep's second
    axis, and the type it moves, span the same range in block after block,
    so their text is formatted once.  It is all that solving and writing
    carry from one block to the next.  Each cell's axis indices and type
    rows come from `result.index` and `result.rows`.
    """
    if len(result.Q) == 0:
        return
    fields = []
    for k, (axis, i) in enumerate(zip(result.spec.axes, result.index)):
        # A block's cells are consecutive grid positions, so each axis's
        # indices span a range no longer than the block or the axis.
        span = (int(i.min()), int(i.max()) + 1)
        text = _span_text(held, k, span, lambda s: axis.values(np.arange(*s)))
        fields.append(text[i - span[0]])
    if len(fields) == 1:
        fields.append(np.zeros(len(result.Q), dtype="S1"))
    for group, (first, ratios), row in zip(Group, result.k_rows, result.rows):
        span = (first, first + len(ratios))
        text = _span_text(held, group, span, lambda _: ratios)
        fields.append(text[row])
    fields += [
        _CASE_TEXT[result.case],
        _distinct_text(result.n_A),
        _distinct_text(result.n_B),
        _distinct_text(result.Q),
    ]
    handle.write(_csv_lines(fields))


@dataclass(frozen=True)
class MonotonicityViolation:
    axis_lo: float
    axis_hi: float
    q_lo: float
    q_hi: float


@dataclass(frozen=True)
class SweepSummary:
    """What a streamed sweep reports once its last block is done.

    `min_Q` and `max_Q` are None when no cell was solved; `violations` is
    empty unless the sweep was audited.
    """

    rows: int
    skipped: int
    min_Q: float | None
    max_Q: float | None
    violations: tuple[MonotonicityViolation, ...]


@contextlib.contextmanager
def replace_on_success(path):
    """A binary file to write in place of `path`, moved onto it on success.

    The output goes to a new file beside the target first, so a run that
    fails part-way leaves `path` absent or, if it existed, unchanged; and
    a path that cannot be written fails before any work.  The new file is
    named `<target>.<pid>.<n>.tmp` with the first n whose name is free, so
    a file left by a run that was killed, whatever its process id, is left
    alone.  A symbolic link is followed, so the file it names is replaced.
    A device or pipe (`/dev/null`, `/dev/stdout`) cannot be replaced and
    is written directly.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "wb") as handle:
            yield handle
        return
    target = os.path.realpath(path)
    for n in itertools.count():
        temporary = f"{target}.{os.getpid()}.{n}.tmp"
        with contextlib.suppress(FileExistsError):
            handle = open(temporary, "xb")
            break
    try:
        with handle:
            yield handle
        os.replace(temporary, target)
    except BaseException:
        os.unlink(temporary)
        raise


def stream_sweep(
    spec: SweepSpec, out, direction: Direction | None = None
) -> SweepSummary:
    """Run a sweep one block at a time: solve, write, count, audit, then drop it.

    Each block of `_SWEEP_BLOCK` cells is solved by `run_sweep`, its rows
    written by `write_sweep_csv` to the CSV at `out`, and its solved and
    skipped cells counted and its Q range taken into running totals.  Only
    one block is held at a time, so memory is bounded whatever the grid
    size.  Each block is solved from `spec` and its start alone; the
    writer's `held` text is all that solving and writing carry from one
    block to the next.  The CSV is written to a file beside `out` and
    moved onto it at the end, so a sweep that fails part-way leaves no
    partial CSV.

    With a `direction`, the sweep is audited along its one axis (a
    two-axis spec raises `ValueError` before `out` is opened): every pair
    of adjacent solved cells (skipped cells are passed over) whose Q moves
    against `direction` by more than `_AUDIT_TOL` is a violation.  The
    last solved cell of a block is carried into the next, so the pair
    across a block edge is judged too.  Each pair is judged and listed
    along increasing axis value, so an axis that runs from a higher `lo`
    down to a lower `hi` gives the same verdict as the ascending sweep.
    """
    if direction is not None and len(spec.axes) != 1:
        raise ValueError("a sweep audit takes a single axis")
    rows = skipped = 0
    min_Q, max_Q = math.inf, -math.inf
    axis0 = spec.axes[0]
    downward = axis0.hi < axis0.lo
    # A step along the grid goes against `direction` when sign * dQ < -tol.
    sign = -1.0 if (direction is Direction.NONINCREASING) != downward else 1.0
    last = (np.empty(0), np.empty(0))  # the last solved cell's axis value and Q
    found = []
    held = {}
    with replace_on_success(out) as handle:
        handle.write(SWEEP_CSV_HEADER)
        for start in range(0, math.prod(spec.shape), _SWEEP_BLOCK):
            block = run_sweep(spec, start)
            write_sweep_csv(block, handle, held)
            rows += len(block.Q)
            skipped += block.skipped
            if len(block.Q):
                min_Q = min(min_Q, float(block.Q.min()))
                max_Q = max(max_Q, float(block.Q.max()))
                if direction is not None:
                    axis = np.concatenate((last[0], axis0.values(block.index[0])))
                    Q = np.concatenate((last[1], block.Q))
                    (bad,) = np.nonzero(sign * np.diff(Q) < -_AUDIT_TOL)
                    lo, hi = (bad + 1, bad) if downward else (bad, bad + 1)
                    pairs = (axis[lo], axis[hi], Q[lo], Q[hi])
                    found += map(MonotonicityViolation, *(p.tolist() for p in pairs))
                    last = (axis[-1:], Q[-1:])
            del block  # so the next block is solved with only itself held
    if downward:
        found.reverse()  # listed in grid order, that is by decreasing axis value
    return SweepSummary(
        rows,
        skipped,
        min_Q if rows else None,
        max_Q if rows else None,
        tuple(found),
    )


def _uniform_threshold(p) -> np.ndarray:
    """Integer thresholds T = ceil(p 2^53) for probabilities p in [0, 1].

    For every integer k in [0, 2^53), k < T exactly when the uniform
    k 2^-53 < p: scaling by a power of two is exact in float64, and an
    integer is below a real number exactly when it is below its ceiling.
    """
    return np.ceil(np.asarray(p, dtype=np.float64) * 2.0**53).astype(np.int64)


def _fair_split(bits: np.random.PCG64, n: int) -> int:
    """How many of n fair bits are 1: a Binomial(n, 1/2) draw.

    It takes the next ceil(n / 64) raw words of `bits`, the last masked to
    its low n mod 64 bits, and counts their set bits.  The words are drawn
    and counted `_MC_CHUNK` at a time, so memory is bounded whatever n is;
    one word is counted as a Python int, several times faster than an array.
    """
    if 0 < n <= 64:
        return (bits.random_raw() & ((1 << n) - 1)).bit_count()
    ones = 0
    for start in range(0, n, 64 * _MC_CHUNK):
        size = min(64 * _MC_CHUNK, n - start)
        words = bits.random_raw(-(-size // 64))
        if size % 64:
            words[-1] &= (1 << (size % 64)) - 1
        ones += int(np.bitwise_count(words).sum())
    return ones


def _count_below(bits: np.random.PCG64, n: int, H: int) -> int:
    """How many of n uniform u in [0, 2^55) fall below H, for H in [0, 2^55].

    The u are compared with H bit by bit from bit 54 down, as in Knuth and
    Yao (1976): the u that agree with H on the bits above i are tied, and
    one fair split of them gives their bit i.  Where H's bit is 1 the zeros
    fall below and the ones stay tied; where it is 0 the ones lie above and
    the zeros stay tied.  Once H's bits from i down are all 0, the tied u
    are at least H and the walk stops.  So H = 0 and H = 2^55 (every u is
    below) draw no bits.
    """
    below = n if H == 2**55 else 0
    for i in range(54, -1, -1):
        if not n or H % (2 << i) == 0:
            break
        ones = _fair_split(bits, n)
        if H >> i & 1:
            below += n - ones
            n = ones
        else:
            n -= ones
    return below


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

    No play is drawn one by one: the hits are counted exactly from fair
    bits.  A play's message is a when its uniform k 2^-53, k in [0, 2^53),
    is below the p of its state x and source, that is when k < T =
    `_uniform_threshold(p)`.  Both types believe and decode a as x = 1, so
    a play hits when k < T where x = 1, and where x = 0 when k >= T, that
    is when 2^53 - 1 - k < 2^53 - T.  As 2^53 - 1 - k has k's law, a play
    hits when k < H, with H = T where x = 1 and 2^53 - T where x = 0, and
    H ignores the receiver type.  The (x, source) cell is uniform, so of
    the 2^55 equally likely (cell, k) pairs, the sum of the four H hit:
    a play hits exactly when a uniform u in [0, 2^55) is below that sum,
    and `_count_below` counts the N plays' hits in one walk.

    All bits come from one `np.random.PCG64(np.random.SeedSequence(seed))`
    stream, whose raw words NumPy keeps stable across releases (NEP 19),
    so the result depends only on `(N, seed)`.  The walk takes at most 2
    fair bits per play on average, about 0.03 raw words, in memory bounded
    by `_MC_CHUNK` words; N <= `MAX_PLAYS`.
    """
    if not 1 <= N <= MAX_PLAYS:
        raise ValueError(f"N must be in [1, {MAX_PLAYS}], got {N}")
    bel_A, bel_B = believes(strategy, population)
    if not (bel_A and bel_B):
        raise NonBelievingReceiver(
            "strategy is not believed by both receiver types "
            f"(A={bel_A}, B={bel_B}); the accuracy identity does not apply"
        )
    T = _uniform_threshold(
        [strategy.prob_message_a(x, source) for x in (0, 1) for source in Group]
    ).tolist()
    H = 2**54 - T[0] - T[1] + T[2] + T[3]  # the four cells' H summed
    hits = _count_below(np.random.PCG64(np.random.SeedSequence(seed)), N, H)

    accuracy = hits / N
    std_error = math.sqrt(max(accuracy * (1.0 - accuracy), 0.0) / N)
    return accuracy, std_error


def write_simulation_csv(
    handle, N: int, seed: int, accuracy: float, std_error: float, expected: float
) -> None:
    """Write the simulation CSV, a header and one row, to the binary file `handle`.

    The reals carry 12 significant digits; no field needs quoting, so the
    bytes are those csv.writer would write.
    """
    row = ",".join([str(N), str(seed), _fmt(accuracy), _fmt(std_error), _fmt(expected)])
    handle.write(f"N,seed,accuracy,std_error,expected\n{row}\n".encode())

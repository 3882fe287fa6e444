"""The batch solver, sweep and CSV writer against the per-cell scalar reference.

The reference below is the closed form written one population at a time in
plain Python: the augmented parameters, the six-case table and the boundary
nudge (1, 2, 4, ... ulps per iteration, at most 64).  The batch code must
reproduce it exactly, since both do the same IEEE operations in the same
order: per-cell records are compared with ==, CSVs byte for byte.
"""

import csv
import hashlib
import io
import math
import struct
import sys
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from identity_channel.equilibrium import (
    CASE_LABELS,
    AssumptionViolated,
    AugmentedParams,
    EquilibriumResult,
    IndeterminateParams,
    NoFeasibleEncoding,
    closed_form_equilibrium,
    random_restricted_population,
    solve_batch,
)
from identity_channel.experiments import (
    _SWEEP_BLOCK,
    SWEEP_CSV_HEADER,
    SweepAxis,
    SweepResult,
    SweepSpec,
    _type_rows,
    stream_sweep,
    write_sweep_csv,
)
from identity_channel.model import (
    PARAM_NAMES,
    DomainError,
    Group,
    SenderStrategy,
    population_from_params,
    quality,
)
from identity_channel.receiver import believes


def reference_augmented(population):
    p = population
    num_A = p.lambda_s_A * p.delta_I_A + p.lambda_a_A
    den_A = p.lambda_s_A * p.delta_O_A - p.lambda_a_A
    if den_A != 0.0:
        k_A = num_A / den_A
    elif num_A > 0.0:
        k_A = math.inf
    else:
        raise IndeterminateParams("type A")
    num_B = p.lambda_s_B * p.delta_O_B - p.lambda_a_B
    den_B = p.lambda_s_B * p.delta_I_B + p.lambda_a_B
    if den_B != 0.0:
        k_B = num_B / den_B
    elif num_B != 0.0:
        k_B = math.copysign(math.inf, num_B)
    else:
        raise IndeterminateParams("type B")
    if math.isnan(k_A) or math.isnan(k_B):  # inf/inf: the products overflow
        raise IndeterminateParams("inf/inf")
    return AugmentedParams(k_A=k_A, k_B=k_B)


def reference_candidates(k_A, k_B):
    cands = []
    if k_A <= 0.0 and k_B <= 0.0:
        cands.append(("k_A<0,k_B<0", (1.0, 1.0)))
    if k_B >= k_A >= 0.0:
        cands.append(("k_B>k_A>0", (0.0, 0.0)))
    if 0.0 <= k_A <= 1.0 and k_A >= k_B:
        cands.append(("1>k_A>k_B", (1.0, k_A)))
    if k_A >= 1.0 >= k_B:
        cands.append(("k_A>1>k_B", (1.0, 1.0)))
    if k_A >= k_B >= 1.0:
        cands.append(("k_A>k_B>1", (1.0 / k_B, 1.0)))
    if k_B >= 0.0 >= k_A:
        n_A = min(1.0, 1.0 / k_B) if k_B > 0.0 else 1.0
        cands.append(("k_B>0>k_A", (n_A, 1.0)))
    return cands


def reference_ulps_down(n, ulps):
    return max(n - ulps * (n - math.nextafter(n, 0.0)), 0.0)


def reference_nudge(n_A, n_B, population):
    for step in range(64):
        bel_A, bel_B = believes(SenderStrategy(1.0, 1.0, n_A, n_B), population)
        if bel_A and bel_B:
            break
        if not bel_A and n_B > 0.0:
            n_B = reference_ulps_down(n_B, 2.0**step)
        elif not bel_B and n_A > 0.0:
            n_A = reference_ulps_down(n_A, 2.0**step)
        else:
            break
    return SenderStrategy(1.0, 1.0, n_A, n_B)


def reference_closed_form(population):
    for group in Group:
        g = group.value
        if getattr(population, f"delta_O_{g}") < getattr(population, f"delta_I_{g}"):
            raise AssumptionViolated(group.value)
    params = reference_augmented(population)
    best = None
    for label, (n_A, n_B) in reference_candidates(params.k_A, params.k_B):
        strategy = reference_nudge(n_A, n_B, population)
        if believes(strategy, population) != (True, True):
            continue
        if best is None or quality(strategy) > quality(best[1]):
            best = (label, strategy)
    if best is None:
        raise NoFeasibleEncoding("no analytic candidate is feasible")
    label, strategy = best
    return EquilibriumResult(strategy, quality(strategy), label, params)


_COMPLEMENT = {"lambda_a_A": "lambda_s_A", "lambda_s_A": "lambda_a_A",
               "lambda_a_B": "lambda_s_B", "lambda_s_B": "lambda_a_B"}


Record = namedtuple("Record", "axis1 axis2 k_A k_B case n_A n_B Q")


def linspace(axis):
    """Every value of a sweep axis, as np.linspace makes the whole grid."""
    return np.linspace(axis.lo, axis.hi, axis.resolution)


def reference_sweep(spec):
    """Records, solved and skipped cells' axis indices, and skip reasons.

    Cells are solved one at a time in row-major order.
    """
    axis2 = spec.axes[1] if len(spec.axes) == 2 else None
    records, solved, skipped, reasons = [], [], [], set()
    for i1, v1 in enumerate(linspace(spec.axes[0])):
        for i2, v2 in enumerate(linspace(axis2) if axis2 is not None else [None]):
            cell = (i1, i2)[: len(spec.axes)]
            params = dict(zip(PARAM_NAMES, spec.base))
            values = [(spec.axes[0].name, float(v1))]
            if axis2 is not None:
                values.append((axis2.name, float(v2)))
            for name, value in values:
                params[name] = value
                if spec.simplex_constrained and name in _COMPLEMENT:
                    params[_COMPLEMENT[name]] = 1.0 - value
            v2 = None if v2 is None else float(v2)
            try:
                result = reference_closed_form(population_from_params(params))
            except ValueError as exc:
                skipped.append(cell)
                reasons.add(type(exc).__name__)
                continue
            solved.append(cell)
            records.append(Record(
                float(v1), v2, result.params.k_A, result.params.k_B,
                result.case_label, result.strategy.n_A, result.strategy.n_B,
                result.quality,
            ))
    return records, solved, skipped, reasons


def records_of(result):
    """The result's columns as one Record per solved cell.

    Each cell's axis values come from its axis indices; axis2 is None on a
    1-D sweep.
    """
    coords = [a.values(i).tolist() for a, i in zip(result.spec.axes, result.index)]
    if len(coords) == 1:
        coords.append([None] * len(result.Q))
    labels = [CASE_LABELS[c] for c in result.case.tolist()]
    k_A, k_B, n_A, n_B, Q = (
        c.tolist() for c in (result.k_A, result.k_B, result.n_A, result.n_B, result.Q)
    )
    cells = zip(*coords)
    return [
        Record(*cell, *fields)
        for cell, *fields in zip(cells, k_A, k_B, labels, n_A, n_B, Q)
    ]


def _fmt(value):
    return "" if value is None else f"{value:.12g}"


def reference_csv(records, path):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["axis1", "axis2", "k_A", "k_B", "case", "n_A", "n_B", "Q"])
        for rec in records:
            writer.writerow([_fmt(rec.axis1), _fmt(rec.axis2), _fmt(rec.k_A),
                             _fmt(rec.k_B), rec.case, _fmt(rec.n_A),
                             _fmt(rec.n_B), _fmt(rec.Q)])


BASE = {
    "lambda_a_A": 0.55, "lambda_s_A": 0.45, "delta_I_A": 1.0, "delta_O_A": 2.0,
    "lambda_a_B": 0.55, "lambda_s_B": 0.45, "delta_I_B": 1.0, "delta_O_B": 3.5,
}

#: (base overrides, axes, simplex_constrained, features the grid must show).
GRIDS = {
    "six-cases-and-negative-complement": (
        {}, [("lambda_a_A", 0.0, 1.5, 31), ("delta_O_B", 0.0, 4.0, 41)], True,
        {*CASE_LABELS, "AssumptionViolated", "ValueError"},
    ),
    "infinite-k_A": (
        {"lambda_s_A": 0.25}, [("lambda_a_A", 0.0, 1.0, 5), ("delta_O_B", 0.0, 4.0, 9)],
        False, {"inf", "AssumptionViolated"},
    ),
    "indeterminate-2d": (
        {}, [("lambda_s_A", 0.0, 1.0, 11), ("lambda_a_A", 0.0, 1.0, 11)], False,
        {"IndeterminateParams"},
    ),
    "indeterminate-1d": (
        {"lambda_a_B": 0.0}, [("lambda_s_B", 0.0, 1.0, 21)], False,
        {"IndeterminateParams", "1-D"},
    ),
    "restriction-1d": (
        {}, [("delta_I_A", 0.0, 4.0, 5)], False, {"AssumptionViolated", "1-D"},
    ),
    "signed-zero-axis": (
        {}, [("lambda_s_A", 0.0, -0.0, 3), ("lambda_a_A", 0.5, 1.0, 3)], False,
        {"-0"},
    ),
    "several-blocks": (
        {}, [("delta_O_A", 0.0, 6.0, 121), ("delta_O_B", 0.0, 6.0, 81)], False,
        {"several blocks", "AssumptionViolated"},
    ),
    # k_A = 1/(delta_O_A - 0.5) and k_B = delta_O_B - 0.5 land exactly on
    # 0, 1, infinity and on each other, so cells lie on several closures.
    "closure-ties": (
        {"lambda_a_A": 0.5, "lambda_s_A": 1.0, "delta_I_A": 0.5,
         "lambda_a_B": 0.5, "lambda_s_B": 1.0, "delta_I_B": 0.5},
        [("delta_O_A", 0.0, 4.0, 17), ("delta_O_B", 0.0, 4.0, 17)], False,
        {"inf", "k_A=1", "k_B=1", "k_B=0", "k_A=k_B", "several closures"},
    ),
    # Its first two delta_O_A rows, 8194 cells, violate the restriction.
    "first-block-skipped": (
        {}, [("delta_O_A", 0.0, 2.0, 5), ("delta_O_B", 0.0, 4.0, 4097)], False,
        {"first block skipped", "several blocks", "AssumptionViolated"},
    ),
    # Each receiver type's parameters follow the axes that move it: here
    # type B's follow the first axis and type A's the second.
    "type-B-then-type-A": (
        {}, [("delta_O_B", 0.0, 6.0, 61), ("lambda_s_A", 0.0, 1.0, 151)], False,
        {"several blocks", "AssumptionViolated"},
    ),
    # Type B's parameters change with every cell and type A's never.
    "both-axes-type-B": (
        {"lambda_a_B": 0.0},
        [("lambda_s_B", 0.0, 1.0, 91), ("delta_O_B", 0.0, 4.0, 91)], False,
        {"several blocks", "AssumptionViolated", "IndeterminateParams"},
    ),
    "simplex-type-B-weight": (
        {}, [("delta_O_A", 0.0, 4.0, 41), ("lambda_s_B", 0.0, 1.5, 61)], True,
        {"AssumptionViolated", "ValueError"},
    ),
}


def spec_of(overrides, axes, simplex):
    return SweepSpec(
        base=population_from_params({**BASE, **overrides}),
        axes=tuple(SweepAxis(*axis) for axis in axes),
        simplex_constrained=simplex,
    )


#: The README's balanced configuration over delta_O_A x delta_O_B.
BALANCED_GRID = ({}, [("delta_O_A", 0.0, 6.0, 201), ("delta_O_B", 0.0, 6.0, 201)], False)

#: sha256 of the streamed CSV of every grid above and of `BALANCED_GRID`,
#: so the bytes cannot change unnoticed: a change of the sweep output that
#: is meant updates these and says so in CHANGES.md.
CSV_SHA256 = {
    "six-cases-and-negative-complement":
        "32ca9121b1c7b00bc6dd2fc8d029dad90c0b9753fe2bea3eab955fed185c7308",
    "infinite-k_A":
        "de856bcf53d047dffef8c69cdd9978f3b40654a564ee9aa10fca000cb785d879",
    "indeterminate-2d":
        "69691776012df650cf551f08cd28cb96bb6a94b8fbd6d8610449d0c4e9cc9190",
    "indeterminate-1d":
        "cbe6ae918d3c0cb18f2f20ee63b1ba7fc22750f8d0e59edc3d91cbec86b17a67",
    "restriction-1d":
        "f46a548fe39d6d3c41d48fd3f4fbda115fdecdce463ce64a84aa21f328949f0b",
    "signed-zero-axis":
        "0860f0cce45731eff8c1c3910c105d96b3cf12dc0826b09e0293af9bb26510ad",
    "several-blocks":
        "48268ca3c1f71de003e4b8db62db73a17ded3bbc95b5844284209e891fcd88a9",
    "closure-ties":
        "a55f5b84b17c3ef8a97cdb57e76b321026b4f08390a488cea0e7147a1f77fd38",
    "first-block-skipped":
        "5f384e18081a0ab8af88a507a02c91ee9a7a1a684f8a37687ae547d3be53f417",
    "type-B-then-type-A":
        "5bd04f7e80b9e5f1a7b7ddd6e7664157f0a0b49de939bc55275bb58e90357f16",
    "both-axes-type-B":
        "0900175e25d7b5b74fffb2fe962048e9b891a10faa9e949d06f59a8722eb5791",
    "simplex-type-B-weight":
        "f8f7434bc2021be411b6a002239944a15e3a46bdaf17c30080da848dcd5a7641",
    "balanced-201x201":
        "5b1cdd63b44157ac47ff14388baa4e7679177ae277943b24c64965da817fd571",
}


@pytest.mark.parametrize("name", list(CSV_SHA256))
def test_sweep_csv_digest(name, tmp_path):
    grid = GRIDS[name][:3] if name in GRIDS else BALANCED_GRID
    out = tmp_path / "sweep.csv"
    stream_sweep(spec_of(*grid), out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CSV_SHA256[name]


#: Strategies printed in the `BALANCED_GRID` CSV that type A, and
#: separately type B, does not believe (README): the CSV's n_A and n_B are
#: 12-digit display values with no belief check.
UNBELIEVED_BALANCED_ROWS = 2367


def test_balanced_csv_strategies_not_believed_at_most_measured(tmp_path):
    """The printed n_A, n_B, judged at each cell's unprinted axis values."""
    spec = spec_of(*BALANCED_GRID)
    out = tmp_path / "sweep.csv"
    stream_sweep(spec, out)
    with open(out, newline="") as handle:
        records = list(csv.DictReader(handle))
    assert len(records) == 27889
    params = np.repeat(np.array(list(spec.base))[:, None], len(records), 1)
    for column, axis in zip(("axis1", "axis2"), spec.axes):
        grid = axis.values(np.arange(axis.resolution)).tolist()
        unprinted = {f"{value:.12g}": value for value in grid}
        assert len(unprinted) == len(grid)
        params[PARAM_NAMES.index(axis.name)] = [unprinted[r[column]] for r in records]
    n_A, n_B = (np.array([float(r[name]) for r in records]) for name in ("n_A", "n_B"))
    bel_A, bel_B = believes((1.0, 1.0, n_A, n_B), params)
    assert (~bel_A).sum() <= UNBELIEVED_BALANCED_ROWS
    assert (~bel_B).sum() <= UNBELIEVED_BALANCED_ROWS


@pytest.mark.parametrize("name", list(GRIDS))
def test_sweep_matches_reference(name, tmp_path, whole_sweep):
    overrides, axes, simplex, features = GRIDS[name]
    spec = spec_of(overrides, axes, simplex)
    expected, solved, skipped, reasons = reference_sweep(spec)
    result = whole_sweep(spec)
    records = records_of(result)
    assert records == expected
    assert list(zip(*(i.tolist() for i in result.index))) == solved
    assert result.skipped == len(skipped)

    seen = reasons | {rec.case for rec in records}
    for feature, holds in {
        "inf": lambda rec: rec.k_A == math.inf,
        "k_A=1": lambda rec: rec.k_A == 1.0,
        "k_B=1": lambda rec: rec.k_B == 1.0,
        "k_B=0": lambda rec: rec.k_B == 0.0,
        "k_A=k_B": lambda rec: rec.k_A == rec.k_B,
        "several closures": lambda rec: len(reference_candidates(rec.k_A, rec.k_B)) > 1,
    }.items():
        if any(map(holds, records)):
            seen.add(feature)
    if any(str(rec.axis1) == "-0.0" for rec in records):
        seen.add("-0")
    if len(axes) == 1:
        seen.add("1-D")
    if len(records) + result.skipped > _SWEEP_BLOCK:
        seen.add("several blocks")
    if np.ravel_multi_index(result.index, spec.shape).min() >= _SWEEP_BLOCK:
        seen.add("first block skipped")
    assert features <= seen

    ours, theirs = tmp_path / "batch.csv", tmp_path / "reference.csv"
    summary = stream_sweep(spec, ours)
    reference_csv(expected, theirs)
    assert ours.read_bytes() == theirs.read_bytes()
    Q = [rec.Q for rec in expected]
    assert (summary.rows, summary.skipped) == (len(expected), len(skipped))
    assert (summary.min_Q, summary.max_Q) == (min(Q), max(Q))


def test_csv_text_of_distinct_bits(tmp_path):
    """Columns holding values that compare or print alike, over several blocks.

    The writer formats k_A and k_B once per type row, cached while a type's
    rows repeat from block to block, and each other float column once per
    distinct value of a block; values equal as floats but not as bits (0.0
    and -0.0) must keep their own text.
    """
    straddle = 0.1234567890125
    values = np.array([
        0.0, -0.0, math.inf, -math.inf,
        1.0, math.nextafter(1.0, 2.0),  # one ulp apart, printed alike
        straddle, math.nextafter(straddle, 1.0),  # one ulp apart, printed apart
    ])
    assert _fmt(values[4]) == _fmt(values[5])
    assert _fmt(values[6]) != _fmt(values[7])

    # Type A's rows follow the first axis, type B's the second; the second
    # block repeats the first block's type-B rows and the third holds one.
    rows_B = 2 * _SWEEP_BLOCK // 3 + 1
    spec = SweepSpec(
        base=population_from_params(BASE),
        axes=(SweepAxis("delta_O_A", 0.0, 1.0, 3), SweepAxis("delta_O_B", 0.0, 1.0, rows_B)),
    )
    cells = math.prod(spec.shape)
    assert 2 * _SWEEP_BLOCK < cells < 2 * _SWEEP_BLOCK + rows_B
    k_rows = (values[[1, 4, 7]], values[np.arange(rows_B) % 8])
    position = np.arange(cells)
    solved = position[position % 7 != 3]
    i = np.arange(len(solved))
    row_A, row_B = np.unravel_index(solved, spec.shape)
    columns = dict(
        k_A=k_rows[0][row_A], k_B=k_rows[1][row_B], case=i % len(CASE_LABELS),
        n_A=values[i // 2 % 8], n_B=values[i // 3 % 8], Q=values[i // 5 % 8],
    )
    result = SweepResult(
        spec, len(position) - len(solved), **columns,
        k_rows=((0, k_rows[0]), (0, k_rows[1])), index=(row_A, row_B),
        rows=(row_A, row_B),
    )

    ours, theirs = tmp_path / "batch.csv", tmp_path / "reference.csv"
    held = {}
    with open(ours, "wb") as handle:
        handle.write(SWEEP_CSV_HEADER)
        for start in range(0, cells, _SWEEP_BLOCK):
            block = (solved >= start) & (solved < start + _SWEEP_BLOCK)
            index = np.unravel_index(
                np.arange(start, min(start + _SWEEP_BLOCK, cells)), spec.shape
            )
            spans = [(int(i.min()), int(i.max()) + 1) for i in index]
            solved_index = (row_A[block], row_B[block])
            write_sweep_csv(
                SweepResult(
                    spec, 0, *(column[block] for column in columns.values()),
                    k_rows=tuple((lo, k[lo:hi]) for k, (lo, hi) in zip(k_rows, spans)),
                    index=solved_index,
                    rows=tuple(i - lo for i, (lo, _) in zip(solved_index, spans)),
                ),
                handle,
                held,
            )
    reference_csv(records_of(result), theirs)
    text = ours.read_bytes()
    assert text == theirs.read_bytes()
    assert b",-0," in text and b",0," in text and b",-inf," in text


#: Floats whose text is easy to get wrong: signed zeros and infinities, NaN,
#: the subnormal range's ends and the smallest normal, and values one ulp
#: apart that print alike or apart at 12 digits.
SPECIAL_FLOATS = [
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
    2.2250738585072009e-308, 2.2250738585072014e-308, 1.0, 0.1234567890125,
]

float_bits = st.integers(-(2**63), 2**63 - 1).map(
    lambda bits: struct.unpack("<d", struct.pack("<q", bits))[0]
)

#: A few floats, each with its neighbour one ulp up, for a grid's cells to
#: share: a sweep block's columns repeat values.
float_pools = st.lists(
    st.one_of(st.sampled_from(SPECIAL_FLOATS), float_bits), min_size=1, max_size=4
).map(lambda xs: np.array(xs + [math.nextafter(x, math.inf) for x in xs]))


@st.composite
def written_sweeps(draw):
    """A grid's columns, solved cells and block edges, drawn freely.

    Returns the whole grid as one `SweepResult` and its blocks, each as
    `run_sweep` would cut it: consecutive grid positions with each receiver
    type's k over the type rows those positions use.  Which pool value each
    entry takes, which cells are solved and their cases come from a drawn
    seed, so an example costs a few draws whatever the grid size.
    """
    names = draw(st.lists(st.sampled_from(PARAM_NAMES), min_size=1, max_size=2,
                          unique=True))
    ends = st.floats(-1e300, 1e300)
    axes = tuple(
        SweepAxis(name, draw(ends), draw(ends), draw(st.integers(1, 60 // len(names))))
        for name in names
    )
    spec = SweepSpec(population_from_params(BASE), axes)
    cells = math.prod(spec.shape)
    pool = draw(float_pools)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    position = np.arange(cells)
    index = np.unravel_index(position, spec.shape)
    rows = [_type_rows(spec, group, index)[1] for group in Group]  # first is 0
    k = [rng.choice(pool, r.max() + 1) for r in rows]
    is_solved = rng.random(cells) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    solved = position[is_solved]
    columns = dict(
        k_A=k[0][rows[0][solved]], k_B=k[1][rows[1][solved]],
        case=rng.integers(0, len(CASE_LABELS), len(solved)),
        **{name: rng.choice(pool, len(solved)) for name in ("n_A", "n_B", "Q")},
    )
    solved_index = tuple(i[solved] for i in index)
    solved_rows = tuple(r[solved] for r in rows)
    whole = SweepResult(spec, cells - len(solved), **columns,
                        k_rows=((0, k[0]), (0, k[1])), index=solved_index,
                        rows=solved_rows)
    edges = sorted(draw(st.sets(st.integers(1, cells), max_size=4)) - {cells})
    blocks = []
    for start, end in zip([0] + edges, edges + [cells]):
        part = (solved >= start) & (solved < end)
        spans = [(int(r[start:end].min()), int(r[start:end].max()) + 1) for r in rows]
        blocks.append(SweepResult(
            spec, int((~is_solved[start:end]).sum()),
            *(column[part] for column in columns.values()),
            k_rows=tuple((lo, ks[lo:hi]) for ks, (lo, hi) in zip(k, spans)),
            index=tuple(i[part] for i in solved_index),
            rows=tuple(r[part] - lo for r, (lo, _) in zip(solved_rows, spans)),
        ))
    return whole, blocks


@settings(derandomize=True, max_examples=100, deadline=None)
@given(sweep=written_sweeps())
def test_writer_matches_csv_writer(sweep, tmp_path_factory):
    """`write_sweep_csv` writes the bytes csv.writer writes, on any column bits.

    The writer formats each distinct value once and assembles fixed-width
    records, so its text must not depend on which values share a block,
    on where the block edges fall, or on the values' bits.
    """
    whole, blocks = sweep
    ours = io.BytesIO()
    ours.write(SWEEP_CSV_HEADER)
    held = {}
    for block in blocks:
        write_sweep_csv(block, ours, held)
    theirs = tmp_path_factory.getbasetemp() / "writer-reference.csv"
    reference_csv(records_of(whole), theirs)
    assert ours.getvalue() == theirs.read_bytes()


#: Populations on case boundaries, each in two closures: k_A = 1 > k_B = 0.5,
#: k_A > 1 = k_B, k_A = 0 < k_B = 0.5, k_A < 0 = k_B, k_A = k_B = 0.5 and
#: k_A = k_B = inf.
BOUNDARY_ROWS = [
    (0.5, 1.0, 1.0, 2.0, 0.5, 1.0, 1.5, 1.5),
    (0.55, 0.45, 1.0, 2.0, 1.0, 1.0, 1.0, 3.0),
    (0.0, 1.0, 0.0, 2.0, 0.5, 1.0, 1.5, 1.5),
    (1.0, 0.1, 1.0, 2.0, 0.5, 0.5, 1.0, 1.0),
    (0.0, 1.0, 1.0, 2.0, 0.5, 1.0, 1.5, 1.5),
    (1.0, 0.5, 1.0, 2.0, 0.0, 1.0, 0.0, 2.0),
]


def test_block_mixing_boundary_and_interior_cells_matches_reference():
    """Cells on a case boundary and interior cells in one block each match the reference."""
    rng = np.random.default_rng(7)
    populations = [random_restricted_population(rng) for _ in range(200)]
    for i, row in enumerate(BOUNDARY_ROWS):
        populations.insert(37 * i, population_from_params(dict(zip(PARAM_NAMES, row))))
    for row in BOUNDARY_ROWS:
        k = reference_augmented(population_from_params(dict(zip(PARAM_NAMES, row))))
        assert len(reference_candidates(k.k_A, k.k_B)) == 2
    batch = solve_batch(
        np.array([list(p) for p in populations])
    )
    assert batch.solved.all()
    for i, population in enumerate(populations):
        assert batch.result(i) == reference_closed_form(population)


def test_batch_matches_reference_on_random_populations():
    rng = np.random.default_rng(2024)
    populations = [random_restricted_population(rng) for _ in range(2000)]
    batch = solve_batch(
        np.array([list(p) for p in populations])
    )
    assert batch.solved.all()
    for i, population in enumerate(populations):
        assert batch.result(i) == reference_closed_form(population)


MAX = sys.float_info.max

#: Rows at the edges of `solve_cells`' band-point rule.  The first two have
#: k_A = 0 (an identity weight times a penalty underflows), which needs
#: its `k_A <= 0` test and its silent fallback.  The third overflows in its
#: belief tests and has no believed point.
PINNED_ROWS = {
    "tiny-weights-c0": ((0, 5e-324, 0, 4, 1e-300, 5e-324, 0.25, 3),
                        ("k_A<0,k_B<0", 1.0, 1.1102230246251565e-16)),
    "silent-c1": ((0, 5e-324, 0.25, 3, 0, 0.5, 3, 4), ("k_B>k_A>0", 0.0, 0.0)),
    "overflowing-infeasible": ((4, 4, 5e-324, MAX, 1.5, 0.1, MAX, MAX),
                               NoFeasibleEncoding),
    "nudged-c5": ((0, 5e-324, 0.5, 1, 0, 1e300, 3, 4),
                  ("k_B>0>k_A", 0.0, 0.2500000000000001)),
}

#: Parameter values from 0 through the smallest subnormal and normal floats
#: to 1e300 and the largest float.
SPECIAL_VALUES = [0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 0.25, 0.5, 1.0,
                  1.5, 2.0, 3.0, 4.0, 1e300, MAX]


def outcome(solve, row):
    """`solve`'s result on the population of `row`, or its domain error's class."""
    try:
        return solve(population_from_params(dict(zip(PARAM_NAMES, row))))
    except DomainError as exc:
        return type(exc)


@pytest.mark.parametrize("row, expected", PINNED_ROWS.values(), ids=PINNED_ROWS.keys())
def test_pinned_boundary_rows_match_reference(row, expected):
    ours = outcome(closed_form_equilibrium, row)
    assert ours == outcome(reference_closed_form, row)
    if isinstance(expected, type):
        assert ours is expected
    else:
        assert (ours.case_label, ours.strategy.n_A, ours.strategy.n_B) == expected


def test_special_value_rows_match_reference():
    """Each row alone and all solved rows in one block give the reference's outcome."""
    rows = np.random.default_rng(24).choice(SPECIAL_VALUES, (2400, 8))
    rows[::2, 2:4].sort(axis=1)  # delta_O_A >= delta_I_A on every other row
    rows[::2, 6:8].sort(axis=1)
    expected = [outcome(reference_closed_form, row) for row in rows]
    assert [outcome(closed_form_equilibrium, row) for row in rows] == expected
    kinds = {e if isinstance(e, type) else "solved" for e in expected}
    assert kinds == {"solved", AssumptionViolated, IndeterminateParams,
                     NoFeasibleEncoding}
    solved = [i for i, e in enumerate(expected) if not isinstance(e, type)]
    batch = solve_batch(rows[solved])
    assert [batch.result(j) for j in range(len(solved))] == [expected[i] for i in solved]

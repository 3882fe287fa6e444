"""Tests for sweeps, monotonicity audits and Monte Carlo accuracy."""

import csv
import io
import itertools
import math
import os
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from identity_channel.equilibrium import CASE_LABELS
from identity_channel.experiments import (
    _SWEEP_BLOCK,
    Direction,
    MonotonicityViolation,
    NonBelievingReceiver,
    SweepAxis,
    SweepSpec,
    _type_rows,
    expected_direction,
    monte_carlo_accuracy,
    run_sweep,
    stream_sweep,
    write_simulation_csv,
    write_sweep_csv,
)
from identity_channel.model import (
    Group,
    Population,
    SenderStrategy,
    population_from_params,
)


class TestSweepAxis:
    def test_values(self):
        axis = SweepAxis("lambda_a_A", 0.0, 1.0, 5)
        assert list(axis.values(np.arange(5))) == [0.0, 0.25, 0.5, 0.75, 1.0]

    @pytest.mark.parametrize(
        "lo, hi, resolution",
        [
            (0.0, 6.0, 201),
            (1.0, 3.5, 8197),
            (3.5, 1.0, 8197),
            (0.0, -0.0, 3),
            (-0.0, 0.0, 4),
            (0.0, 5e-324, 3),  # the step underflows to zero
            (2.0, 2.0, 7),
            (-8e307, 8e307, 9),
            (0.1, 0.7, 1),
        ],
    )
    def test_values_equal_linspace_bitwise(self, lo, hi, resolution):
        axis = SweepAxis("delta_O_B", lo, hi, resolution)
        index = np.arange(resolution)
        expected = np.linspace(lo, hi, resolution)
        assert axis.values(index).tobytes() == expected.tobytes()
        picked = index[::-3]
        assert axis.values(picked).tobytes() == expected[picked].tobytes()

    def test_values_up_to_the_largest_float_do_not_warn(self):
        # i * step overflows at the last index only, which is hi itself.
        axis = SweepAxis("lambda_a_A", 0.0, sys.float_info.max, 7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = axis.values(np.arange(7))
        with np.errstate(over="ignore"):
            expected = np.linspace(0.0, sys.float_info.max, 7)
        assert values.tobytes() == expected.tobytes()
        assert np.isfinite(values).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepAxis("bogus", 0.0, 1.0, 5)
        with pytest.raises(ValueError):
            SweepAxis("lambda_a_A", 0.0, 1.0, 0)
        with pytest.raises(ValueError):
            SweepAxis("lambda_a_A", 0.0, math.inf, 5)

    def test_span_overflow_rejected(self):
        # np.linspace(-1e308, 1e308, 5) is [nan, inf, inf, inf, 1e308]: its
        # interior cells would be skipped as invalid without a word.
        with pytest.raises(ValueError, match="overflows"):
            SweepAxis("delta_O_A", -1e308, 1e308, 5)
        with pytest.raises(ValueError, match="overflows"):
            SweepAxis("delta_O_A", 1.7e308, -1.7e308, 2)


class TestRunSweep:
    def test_degenerate_grid_equals_closed_form(self, balanced_population):
        from identity_channel.equilibrium import closed_form_equilibrium

        spec = SweepSpec(
            base=balanced_population,
            axes=(SweepAxis("lambda_a_A", 0.55, 0.55, 1),),
        )
        result = run_sweep(spec, 0)
        assert len(result.Q) == 1
        base = closed_form_equilibrium(balanced_population)
        assert result.Q[0] == pytest.approx(base.quality, abs=1e-12)
        assert CASE_LABELS[result.case[0]] == base.case_label

    def test_2d_sweep_shape_and_bounds(self, balanced_population):
        spec = SweepSpec(
            base=balanced_population,
            axes=(
                SweepAxis("lambda_s_A", 0.0, 1.0, 11),
                SweepAxis("lambda_a_A", 0.0, 1.0, 11),
            ),
        )
        result = run_sweep(spec, 0)
        # The (0, 0) cell has a type-A receiver with no weights at all and
        # is skipped; every computed cell keeps at least half the quality.
        assert len(result.Q) + result.skipped == 121
        solved = set(zip(*(i.tolist() for i in result.index)))
        (skipped,) = set(itertools.product(range(11), repeat=2)) - solved
        assert [float(a.values(i)) for a, i in zip(spec.axes, skipped)] == [0.0, 0.0]
        for Q in result.Q:
            assert 2.0 - 1e-12 <= Q <= 4.0 + 1e-12

    def test_restriction_violating_cells_skipped(self, balanced_population):
        spec = SweepSpec(
            base=balanced_population,
            axes=(SweepAxis("delta_I_A", 0.0, 4.0, 5),),
        )
        result = run_sweep(spec, 0)
        # delta_I_A in {3, 4} exceeds delta_O_A = 2 and must be skipped.
        assert result.skipped == 2
        assert len(result.Q) == 3

    @pytest.mark.parametrize(
        "axes, simplex",
        [
            ((SweepAxis("delta_O_B", 0.0, 6.0, 2 * _SWEEP_BLOCK + 1234),), False),
            ((SweepAxis("delta_O_A", 0.0, 6.0, 150),
              SweepAxis("delta_O_B", 0.0, 6.0, 133)), False),
            ((SweepAxis("lambda_s_A", 0.0, 2.0, 150),
              SweepAxis("delta_O_A", 0.0, 6.0, 133)), False),
            ((SweepAxis("lambda_a_A", -0.2, 1.2, 97),
              SweepAxis("lambda_s_B", 0.0, 1.3, 211)), True),
        ],
        ids=["1-D", "one axis per type", "both axes one type", "simplex"],
    )
    def test_blocks_carry_cell_to_row_map(self, balanced_population, axes, simplex):
        """Each block's axis indices and type rows are its solved cells' own.

        A block depends on (spec, start) alone: solving the blocks in
        reverse order gives the same blocks, bit for bit.
        """
        spec = SweepSpec(balanced_population, axes, simplex)
        cells = math.prod(spec.shape)
        assert cells % _SWEEP_BLOCK  # the last block is cut short
        starts = range(0, cells, _SWEEP_BLOCK)
        blocks = [run_sweep(spec, start) for start in starts]
        skipped = 0
        for start, block in zip(starts, blocks):
            skipped += block.skipped
            assert len(block.index) == len(spec.axes)
            # The solved cells' grid positions: in the block, in order, and
            # with the skipped cells making up the rest of the block.
            position = np.ravel_multi_index(block.index, spec.shape)
            assert len(position)
            assert start <= position[0] and position[-1] < start + _SWEEP_BLOCK
            assert (np.diff(position) > 0).all()
            stop = min(start + _SWEEP_BLOCK, cells)
            assert len(position) + block.skipped == stop - start
            for group, (first, k), rows, k_cells in zip(
                Group, block.k_rows, block.rows, (block.k_A, block.k_B)
            ):
                np.testing.assert_array_equal(
                    rows, _type_rows(spec, group, block.index) - first
                )
                assert k[rows].tobytes() == k_cells.tobytes()
        assert skipped
        for start, block in reversed(list(zip(starts, blocks))):
            again = run_sweep(spec, start)
            assert again.skipped == block.skipped
            for name in ("k_A", "k_B", "case", "n_A", "n_B", "Q"):
                assert getattr(again, name).tobytes() == getattr(block, name).tobytes()
            assert len(again.index) == len(block.index)
            for ours, theirs in zip(again.index + again.rows, block.index + block.rows):
                assert ours.tobytes() == theirs.tobytes()
            for (first, k), (block_first, block_k) in zip(again.k_rows, block.k_rows):
                assert first == block_first and k.tobytes() == block_k.tobytes()

    def test_row_major_and_deterministic_csv(
        self, balanced_population, tmp_path, whole_sweep
    ):
        spec = SweepSpec(
            base=balanced_population,
            axes=(
                SweepAxis("lambda_s_A", 0.1, 0.9, 3),
                SweepAxis("lambda_a_A", 0.1, 0.9, 3),
            ),
        )
        result = whole_sweep(spec)
        firsts = spec.axes[0].values(result.index[0]).tolist()
        assert firsts == sorted(firsts)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        stream_sweep(spec, p1)
        stream_sweep(spec, p2)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == "axis1,axis2,k_A,k_B,case,n_A,n_B,Q"

    def test_simplex_constrained_weights(self, balanced_params):
        base = population_from_params(balanced_params)
        spec = SweepSpec(
            base=base,
            axes=(SweepAxis("lambda_s_A", 0.0, 1.0, 3),),
            simplex_constrained=True,
        )
        result = run_sweep(spec, 0)
        # At lambda_s_A = 1 the complementary lambda_a_A becomes 0.
        assert len(result.Q) == 3
        axis1 = spec.axes[0].values(result.index[0])
        assert axis1[-1] == 1.0

    def test_grid_must_fit_an_index(self, balanced_population):
        # A block's cells are numbered by grid position as np.intp.
        top = np.iinfo(np.intp).max
        one = (SweepAxis("delta_O_B", 1.0, 3.5, top),)
        spec = SweepSpec(balanced_population, one)
        assert len(run_sweep(spec, top - 3).Q) == 3
        for axes in (
            (SweepAxis("delta_O_B", 1.0, 3.5, top + 1),),
            (SweepAxis("delta_O_A", 0.0, 6.0, 10**18),
             SweepAxis("delta_O_B", 0.0, 6.0, 10**18)),
        ):
            with pytest.raises(ValueError, match="too large"):
                SweepSpec(balanced_population, axes)

    @pytest.mark.parametrize(
        "names",
        [("lambda_s_A", "lambda_a_A"), ("lambda_a_A", "lambda_s_A"),
         ("lambda_s_B", "lambda_a_B")],
    )
    def test_simplex_sweep_over_both_weights_of_one_type_rejected(
        self, balanced_population, names
    ):
        # Each axis would set the other's weight to its complement, so the
        # second axis overwrites the first and cells carry wrong labels.
        axes = tuple(SweepAxis(name, 0.0, 1.0, 3) for name in names)
        with pytest.raises(ValueError, match="complement"):
            SweepSpec(balanced_population, axes, simplex_constrained=True)
        SweepSpec(balanced_population, axes)  # without the simplex: fine

    def test_simplex_sweep_over_weights_of_two_types_allowed(
        self, balanced_population
    ):
        axes = tuple(
            SweepAxis(name, 0.0, 1.0, 3) for name in ("lambda_s_A", "lambda_a_B")
        )
        result = run_sweep(
            SweepSpec(balanced_population, axes, simplex_constrained=True), 0
        )
        assert len(result.Q) + result.skipped == 9

    def test_result_memory_bounded_per_cell(self, balanced_population):
        axes = (
            SweepAxis("delta_O_A", 0.0, 6.0, 201),
            SweepAxis("delta_O_B", 0.0, 6.0, 201),
        )
        spec = SweepSpec(balanced_population, axes)
        run_sweep(SweepSpec(balanced_population, axes[:1]), 0)  # first-call set-up
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = run_sweep(spec, 0)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # Columns hold 80 bytes per solved cell (six values, two axis
        # indices and two type rows) and none per skipped one; a Python
        # object per cell would take several times that.
        assert retained <= 100 * _SWEEP_BLOCK
        assert len(result.Q) + result.skipped == _SWEEP_BLOCK
        last = run_sweep(spec, 201 * 201 - 1)
        assert len(last.Q) + last.skipped == 1

    def test_csv_writer_memory_bounded_in_rows(self, balanced_population, tmp_path):
        def peak_traced_bytes(resolution):
            axes = tuple(
                SweepAxis(name, 1.0, 6.0, resolution)
                for name in ("delta_O_A", "delta_O_B")
            )
            spec = SweepSpec(balanced_population, axes)
            blocks = [
                run_sweep(spec, start)
                for start in range(0, resolution**2, _SWEEP_BLOCK)
            ]
            assert sum(len(block.Q) for block in blocks) == resolution**2
            axis_text = {}
            with open(tmp_path / "sweep.csv", "wb") as handle:
                tracemalloc.start()
                try:
                    tracemalloc.reset_peak()
                    for block in blocks:
                        write_sweep_csv(block, handle, axis_text)
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        peak_traced_bytes(8)  # first-call set-up
        one_block = peak_traced_bytes(math.isqrt(_SWEEP_BLOCK))
        eight_blocks = peak_traced_bytes(math.isqrt(8 * _SWEEP_BLOCK))
        # The writer holds one block's text at a time, so blocks differ
        # only in field widths; a writer holding every row's text peaks
        # at ~200 bytes per row of all rows.
        assert eight_blocks <= one_block + 8 * _SWEEP_BLOCK

    @pytest.mark.parametrize(
        "names, one_block, eight_blocks",
        [
            (("delta_O_A", "delta_O_B"), math.isqrt(_SWEEP_BLOCK),
             math.isqrt(8 * _SWEEP_BLOCK)),
            (("delta_O_B",), _SWEEP_BLOCK, 8 * _SWEEP_BLOCK),
            # Both axes move type A, whose rows then change with every cell.
            (("lambda_s_A", "delta_O_A"), math.isqrt(_SWEEP_BLOCK),
             math.isqrt(8 * _SWEEP_BLOCK)),
        ],
        ids=["2-D", "1-D", "2-D-one-type"],
    )
    def test_sweep_memory_bounded_in_blocks(
        self, balanced_population, tmp_path, names, one_block, eight_blocks
    ):
        def peak_traced_bytes(resolution):
            axes = tuple(SweepAxis(name, 1.0, 6.0, resolution) for name in names)
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                summary = stream_sweep(
                    SweepSpec(balanced_population, axes), tmp_path / "sweep.csv"
                )
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert summary.rows == resolution ** len(names)
            return peak

        peak_traced_bytes(8)  # first-call set-up
        one = peak_traced_bytes(one_block)
        eight = peak_traced_bytes(eight_blocks)
        # Solving and writing hold one block at a time, so blocks differ
        # only in field widths; a sweep holding every solved cell's columns,
        # every row's axis text, or a receiver type's parameters, k or k
        # text for every row of its own, peaks at tens of bytes per row of
        # all rows.
        assert eight <= one + 8 * _SWEEP_BLOCK


class TestAudit:
    def test_expected_directions(self):
        assert expected_direction("lambda_s_A") is Direction.NONINCREASING
        assert expected_direction("lambda_a_B") is Direction.NONDECREASING
        assert expected_direction("delta_O_A") is Direction.NONDECREASING
        with pytest.raises(ValueError):
            expected_direction("delta_I_A")

    def test_lambda_s_A_nonincreasing(self, balanced_population):
        spec = SweepSpec(
            base=balanced_population,
            axes=(SweepAxis("lambda_s_A", 0.0, 1.0, 101),),
        )
        summary = stream_sweep(spec, os.devnull, direction=Direction.NONINCREASING)
        assert summary.violations == ()

    def test_lambda_a_A_nondecreasing(self, balanced_population):
        spec = SweepSpec(
            base=balanced_population,
            axes=(SweepAxis("lambda_a_A", 0.0, 1.0, 101),),
        )
        summary = stream_sweep(spec, os.devnull, direction=Direction.NONDECREASING)
        assert summary.violations == ()

    def test_constant_plateau_passes_both_directions(self):
        profile = (0.9, 0.05, 1.0, 2.0)
        pop = Population(*profile, *profile)
        spec = SweepSpec(
            base=pop, axes=(SweepAxis("lambda_a_A", 0.8, 1.0, 21),)
        )
        for direction in Direction:
            assert stream_sweep(spec, os.devnull, direction=direction).violations == ()

    def test_violations_are_adjacent_solved_cells(self, balanced_population):
        # Q = 3 + 1/k_B falls along delta_O_B; each violation must name the
        # two adjacent solved cells and their qualities, as a pairwise loop
        # over the columns finds them.
        spec = SweepSpec(
            base=balanced_population,
            axes=(SweepAxis("delta_O_B", 1.0, 3.5, 201),),
        )
        result = run_sweep(spec, 0)
        axis = spec.axes[0].values(result.index[0]).tolist()
        Q = result.Q.tolist()
        expected = tuple(
            MonotonicityViolation(axis_lo, axis_hi, q_lo, q_hi)
            for axis_lo, axis_hi, q_lo, q_hi in zip(axis, axis[1:], Q, Q[1:])
            if q_hi - q_lo < -1e-9
        )
        assert len(expected) == 5
        summary = stream_sweep(spec, os.devnull, direction=Direction.NONDECREASING)
        assert summary.violations == expected

    @pytest.mark.parametrize(
        "lo, hi, edge",
        [(1.0, 3.5, 2 * _SWEEP_BLOCK), (3.5, 1.0, None), (3.5, 3.4, _SWEEP_BLOCK)],
    )
    def test_audit_across_block_edges(
        self, balanced_population, whole_sweep, lo, hi, edge
    ):
        # Q = 3 + 1/k_B falls once delta_O_B passes ~3.44.  Over 1.0..3.5 at
        # 2 * _SWEEP_BLOCK + 5 points that tail spans the block edge at
        # position 2 * _SWEEP_BLOCK; over 3.5 down to 3.4, the edge at
        # _SWEEP_BLOCK.  The streamed audit, which carries the last solved
        # cell across each edge, must find what one pairwise pass over the
        # joined blocks finds.
        spec = SweepSpec(
            base=balanced_population,
            axes=(SweepAxis("delta_O_B", lo, hi, 2 * _SWEEP_BLOCK + 5),),
        )
        result = whole_sweep(spec)
        axis = spec.axes[0].values(result.index[0]).tolist()
        Q = result.Q.tolist()
        pairs = list(zip(axis, axis[1:], Q, Q[1:]))
        if hi < lo:  # judged along increasing axis value
            pairs = [(a_hi, a_lo, q_hi, q_lo) for a_lo, a_hi, q_lo, q_hi in pairs[::-1]]
        expected = tuple(
            MonotonicityViolation(*pair) for pair in pairs if pair[3] - pair[2] < -1e-9
        )
        assert len(expected) > 100
        summary = stream_sweep(spec, os.devnull, direction=Direction.NONDECREASING)
        found = summary.violations
        assert found == expected
        if edge is not None:
            at_edge = sorted(axis[edge - 1 : edge + 1])
            assert any(at_edge == [v.axis_lo, v.axis_hi] for v in found)

    def test_audit_of_two_axes_rejected_before_out_is_opened(
        self, balanced_population, tmp_path
    ):
        # Judged along the grid, a 5x5 delta_O_A x delta_O_B sweep would
        # report steps along delta_O_B as pairs with axis_lo == axis_hi.
        spec = SweepSpec(
            base=balanced_population,
            axes=(
                SweepAxis("delta_O_A", 1.0, 3.5, 5),
                SweepAxis("delta_O_B", 1.0, 3.5, 5),
            ),
        )
        out = tmp_path / "sweep.csv"
        with pytest.raises(ValueError, match="single axis"):
            stream_sweep(spec, out, direction=Direction.NONDECREASING)
        assert list(tmp_path.iterdir()) == []
        assert stream_sweep(spec, out).rows == 25

    def test_descending_axis_judged_along_increasing_values(
        self, balanced_population
    ):
        def audit(name, lo, hi, resolution, direction):
            spec = SweepSpec(
                base=balanced_population,
                axes=(SweepAxis(name, lo, hi, resolution),),
            )
            return stream_sweep(spec, os.devnull, direction=direction).violations

        down = Direction.NONINCREASING
        assert audit("lambda_s_B", 0.0, 1.0, 11, down) == ()
        assert audit("lambda_s_B", 1.0, 0.0, 11, down) == ()

        # Q = 3 + 1/k_B falls along delta_O_B either way the axis runs, on
        # one block and across the block edge at grid position 8192.
        assert 8192 % _SWEEP_BLOCK == 0
        up = Direction.NONDECREASING
        for resolution, violations in ((201, 5), (8197, 183)):
            ascending = audit("delta_O_B", 1.0, 3.5, resolution, up)
            descending = audit("delta_O_B", 3.5, 1.0, resolution, up)
            assert len(ascending) == len(descending) == violations
            for a, d in zip(ascending, descending):
                assert d.axis_lo < d.axis_hi and d.q_lo > d.q_hi
                assert d.axis_lo == pytest.approx(a.axis_lo, abs=1e-12)
                assert d.q_hi == pytest.approx(a.q_hi, abs=1e-12)


class TestMonteCarlo:
    def test_noiseless_channel_exact(self):
        profile = (1.0, 0.0, 1.0, 2.0)
        pop = Population(*profile, *profile)
        acc, se = monte_carlo_accuracy(SenderStrategy(1, 1, 1, 1), pop, 5000, 0)
        assert acc == 1.0
        assert se == 0.0

    def test_silence_is_a_coin_flip(self):
        # With accuracy-only receivers the (1,1,0,0) residuals are exactly 0,
        # so both types still (tie-break) believe and accuracy is Q/4 = 1/2.
        profile = (1.0, 0.0, 1.0, 2.0)
        pop = Population(*profile, *profile)
        acc, se = monte_carlo_accuracy(SenderStrategy(1, 1, 0, 0), pop, 100000, 1)
        assert abs(acc - 0.5) <= 3.0 * math.sqrt(0.25 / 100000)

    def test_matches_quality_over_four(self, balanced_population):
        from identity_channel.equilibrium import closed_form_equilibrium

        result = closed_form_equilibrium(balanced_population)
        acc, se = monte_carlo_accuracy(result.strategy, balanced_population, 200000, 7)
        assert abs(acc - result.quality / 4.0) <= 4.0 * max(se, 1e-6)

    def test_rejects_nonbelieved_strategy(self, balanced_population):
        with pytest.raises(NonBelievingReceiver):
            monte_carlo_accuracy(SenderStrategy(1, 1, 1, 1), balanced_population, 10, 0)

    def test_rejects_bad_N(self, balanced_population):
        from identity_channel.equilibrium import closed_form_equilibrium

        strat = closed_form_equilibrium(balanced_population).strategy
        with pytest.raises(ValueError):
            monte_carlo_accuracy(strat, balanced_population, 0, 0)

    def test_deterministic_given_seed(self, balanced_population):
        from identity_channel.equilibrium import closed_form_equilibrium

        strat = closed_form_equilibrium(balanced_population).strategy
        a1 = monte_carlo_accuracy(strat, balanced_population, 10000, 3)
        a2 = monte_carlo_accuracy(strat, balanced_population, 10000, 3)
        assert a1 == a2

    def test_simulation_csv(self, tmp_path):
        path = tmp_path / "sim.csv"
        with open(path, "wb") as handle:
            write_simulation_csv(handle, 1000, 3, 0.9939, 0.0025, 0.99390243902)
        lines = path.read_text().splitlines()
        assert lines[0] == "N,seed,accuracy,std_error,expected"
        assert lines[1].startswith("1000,3,0.9939,")
        reference = io.StringIO()
        writer = csv.writer(reference, lineterminator="\n")
        writer.writerow(["N", "seed", "accuracy", "std_error", "expected"])
        writer.writerow([1000, 3, "0.9939", "0.0025", "0.99390243902"])
        assert path.read_bytes() == reference.getvalue().encode()

"""Tests for the closed-form equilibrium and the independent LP oracle."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from identity_channel import equilibrium
from identity_channel.equilibrium import (
    _LP_BLOCK,
    AssumptionViolated,
    IndeterminateParams,
    NoFeasibleEncoding,
    augmented_params,
    check_equivalence,
    closed_form_equilibrium,
    compare_batch,
    full_lp_oracle,
    lp_oracle_batch,
    random_restricted_params,
    random_restricted_population,
)
from identity_channel.model import (
    PARAM_NAMES,
    Population,
    population_from_params,
)
from identity_channel.receiver import belief_residuals, believes


BALANCED = {
    "lambda_a_A": 0.55, "lambda_s_A": 0.45, "delta_I_A": 1.0, "delta_O_A": 2.0,
    "lambda_a_B": 0.55, "lambda_s_B": 0.45, "delta_I_B": 1.0, "delta_O_B": 3.5,
}
# Restricted, and the closed form solves it (Q = 2), but at these scales the
# LP oracle's absolute 1e-9 tolerance finds no believed vertex.
WIDE_RANGE = {
    "lambda_a_A": 1502063.5125848716,
    "lambda_s_A": 200898296.5778057,
    "delta_I_A": 1.9039177785812147e-09,
    "delta_O_A": 875121.2011196348,
    "lambda_a_B": 0.1887004702975436,
    "lambda_s_B": 6.625242742900015e-05,
    "delta_I_B": 420019.12047061854,
    "delta_O_B": 192058681.4687015,
}
# Type A has delta_I > delta_O; the LP oracle solves it.
UNRESTRICTED = dict(
    BALANCED, lambda_a_A=0.1, lambda_s_A=1.0, delta_I_A=3.0, delta_O_A=1.0
)


def row(params):
    return [params[name] for name in PARAM_NAMES]


def reference_lp_oracle(p):
    """One population's LP optimum as (m_A, m_B, n_A, n_B), or None.

    The vertex enumeration written for one population at a time: the same
    rows, det, scale, solve, `z @ G.T` residuals and tie-break, which the
    batch oracle must reproduce bit for bit.
    """
    la_A, ls_A, dI_A, dO_A, la_B, ls_B, dI_B, dO_B = p
    G = np.array([
        [la_A - ls_A * dI_A, la_A + ls_A * dO_A, la_A + ls_A * dI_A,
         la_A - ls_A * dO_A],
        [la_B + ls_B * dO_B, la_B - ls_B * dI_B, la_B - ls_B * dO_B,
         la_B + ls_B * dI_B],
    ])
    c = np.array([-ls_A * abs(dO_A - dI_A) - 2.0 * la_A,
                  -ls_B * abs(dO_B - dI_B) - 2.0 * la_B])
    combos = np.array([
        k for k in itertools.combinations(range(10), 4)
        if not any(2 + i in k and 6 + i in k for i in range(4))
    ])
    A = np.vstack([G, np.eye(4), np.eye(4)])[combos]
    b = np.concatenate([-c, np.zeros(4), np.ones(4)])[combos]
    scale = np.prod(np.linalg.norm(A, axis=2), axis=1)
    solvable = np.abs(np.linalg.det(A)) > 1e-12 * np.maximum(scale, 1e-300)
    z = np.linalg.solve(A[solvable], b[solvable][..., None])[..., 0]
    in_box = ((z >= -1e-9) & (z <= 1.0 + 1e-9)).all(axis=1)
    feasible = in_box & (z @ G.T + c >= -1e-9).all(axis=1)
    if not feasible.any():
        return None
    z = np.clip(z[feasible], 0.0, 1.0)
    return z[np.lexsort((z[:, 3], z[:, 2], z[:, 1], z[:, 0], -z.sum(axis=1)))[0]]


def make_population(la_A, ls_A, dI_A, dO_A, la_B, ls_B, dI_B, dO_B):
    return Population(la_A, ls_A, dI_A, dO_A, la_B, ls_B, dI_B, dO_B)


class TestAugmentedParams:
    def test_balanced_values(self, balanced_population):
        params = augmented_params(balanced_population)
        assert params.k_A == pytest.approx(1.0 / 0.35)
        assert round(params.k_A, 3) == 2.857
        assert params.k_B == pytest.approx(1.025)

    def test_zero_identity_weight(self):
        pop = make_population(0.5, 0.0, 1, 2, 0.5, 0.0, 1, 2)
        params = augmented_params(pop)
        assert params.k_A == pytest.approx(-1.0)
        assert params.k_B == pytest.approx(-1.0)

    def test_infinite_k_A(self):
        # denominator ls*dO - la exactly zero with positive numerator
        pop = make_population(0.5, 0.25, 1, 2, 0.5, 0.45, 1, 3.5)
        assert augmented_params(pop).k_A == math.inf

    def test_indeterminate(self):
        pop = make_population(0.0, 0.0, 1, 2, 0.5, 0.45, 1, 3.5)
        with pytest.raises(IndeterminateParams):
            augmented_params(pop)

    @pytest.mark.parametrize(
        "row, cause",
        [
            ((0.5, 0.45, 1, 3.5, 0.0, 0.0, 1, 2), "type B has zero accuracy and identity"),
            ((0.0, 1.0, 0, 0, 0.5, 0.45, 1, 3.5), "type A has no accuracy weight"),
            ((0.5e300, 1e300, 1e10, 2e10, 0.5, 0.45, 1, 3.5), "type A overflows"),
        ],
        ids=["no-weights", "no-penalties", "overflow"],
    )
    def test_indeterminate_names_its_cause(self, row, cause):
        with pytest.raises(IndeterminateParams, match=cause):
            augmented_params(make_population(*row))


class TestClosedForm:
    def test_balanced_equilibrium(self, balanced_population):
        result = closed_form_equilibrium(balanced_population)
        assert result.case_label == "k_A>k_B>1"
        assert result.strategy.m_A == 1.0
        assert result.strategy.m_B == 1.0
        assert result.strategy.n_A == pytest.approx(1.0 / 1.025, abs=1e-12)
        assert result.strategy.n_B == pytest.approx(1.0, abs=1e-12)
        assert result.quality == pytest.approx(2.0 + 1.0 + 1.0 / 1.025, abs=1e-9)
        assert believes(result.strategy, balanced_population) == (True, True)

    def test_pure_accuracy_seekers(self):
        pop = make_population(0.5, 0.0, 1, 2, 0.7, 0.0, 1, 3.5)
        result = closed_form_equilibrium(pop)
        assert result.case_label == "k_A<0,k_B<0"
        assert result.quality == 4.0

    def test_middle_band_case(self):
        # k_A ~ 0.1647 with k_B = -1 lands in the 1>k_A>k_B case.
        pop = make_population(0.1, 0.9, 0.2, 2, 0.5, 0.0, 1, 2)
        result = closed_form_equilibrium(pop)
        k_A = augmented_params(pop).k_A
        assert k_A == pytest.approx(0.28 / 1.7)
        assert result.case_label == "1>k_A>k_B"
        assert result.strategy.n_A == pytest.approx(1.0, abs=1e-12)
        assert result.strategy.n_B == pytest.approx(k_A, abs=1e-12)
        assert result.quality == pytest.approx(3.0 + k_A, abs=1e-9)

    def test_straddling_band(self, high_accuracy_population):
        # k_B = 0.8 < 1 < k_A: full truth-telling survives.
        result = closed_form_equilibrium(high_accuracy_population)
        assert result.case_label == "k_A>1>k_B"
        assert result.quality == 4.0

    def test_empty_band(self):
        # k_B > k_A > 0 forces silence on bad news.
        pop = make_population(0.1, 0.9, 1, 1.2, 0.1, 0.9, 1, 3.5)
        params = augmented_params(pop)
        assert 0.0 < params.k_A < params.k_B
        result = closed_form_equilibrium(pop)
        assert result.case_label == "k_B>k_A>0"
        assert result.strategy.n_A == 0.0
        assert result.strategy.n_B == 0.0
        assert result.quality == 2.0

    def test_assumption_violation_names_type(self):
        pop = make_population(0.55, 0.45, 2.0, 1.0, 0.55, 0.45, 1, 3.5)
        with pytest.raises(AssumptionViolated, match="type A"):
            closed_form_equilibrium(pop)

    @pytest.mark.parametrize(
        "row, solver, error, match",
        [
            # Type A has no weights and type B violates the restriction: the
            # restriction comes first, but `augmented_params` checks k only.
            ((0, 0, 1, 2, 0.55, 0.45, 2, 1), "closed_form", AssumptionViolated,
             "type B has in_group_penalty > out_group_penalty"),
            ((0, 0, 1, 2, 0.55, 0.45, 2, 1), "compare_batch", AssumptionViolated,
             "type B has in_group_penalty > out_group_penalty"),
            ((0, 0, 1, 2, 0.55, 0.45, 2, 1), "augmented_params", IndeterminateParams,
             "type A has zero accuracy and identity weights"),
            # Type A both has no weights and violates the restriction.
            ((0, 0, 2, 1, 0.55, 0.45, 1, 3.5), "closed_form", AssumptionViolated,
             "type A has in_group_penalty > out_group_penalty"),
            ((0, 0, 2, 1, 0.55, 0.45, 1, 3.5), "compare_batch", AssumptionViolated,
             "type A has in_group_penalty > out_group_penalty"),
            ((0, 0, 2, 1, 0.55, 0.45, 1, 3.5), "augmented_params", IndeterminateParams,
             "type A has zero accuracy and identity weights"),
            # Type A's k overflows and type B has no weights: type A first.
            ((0.5e300, 1e300, 1e10, 2e10, 0, 0, 1, 2), "closed_form",
             IndeterminateParams, "type A overflows float64"),
            ((0.5e300, 1e300, 1e10, 2e10, 0, 0, 1, 2), "compare_batch",
             IndeterminateParams, "type A overflows float64"),
            ((0.5e300, 1e300, 1e10, 2e10, 0, 0, 1, 2), "augmented_params",
             IndeterminateParams, "type A overflows float64"),
        ],
    )
    def test_error_order_when_checks_fail_together(self, row, solver, error, match):
        solve = {
            "closed_form": lambda: closed_form_equilibrium(make_population(*row)),
            "compare_batch": lambda: compare_batch([row]),
            "augmented_params": lambda: augmented_params(make_population(*row)),
        }[solver]
        with pytest.raises(error, match=f"^receiver {match}"):
            solve()

    def test_boundary_k_A_equals_one(self):
        # ls=1, la=0.5, dI=1, dO=2 gives k_A = 1.5/1.5 = 1 exactly.
        pop = make_population(0.5, 1.0, 1, 2, 0.5, 0.0, 1, 2)
        result = closed_form_equilibrium(pop)
        assert result.quality == pytest.approx(4.0)

    def test_boundary_point_hundreds_of_ulps_from_believed(self):
        # Population 1152 of `verify --trials 10000 --seed 104845948`: k_B is
        # about 173.  While the b-residual of type B evaluated n_A + 1 - m_A,
        # it rounded n_A to multiples of 2.2e-16, about 255 ulps of n_A, so
        # backing n_A off by single ulps never reached a believed point.
        pop = make_population(
            0.8572832905325746, 0.9943759072365624,
            0.09368713684178509, 0.223035029367617,
            0.0005203164989626696, 0.32615995072801907,
            0.013527085397700755, 2.6191529035618517,
        )
        result = closed_form_equilibrium(pop)
        assert believes(result.strategy, pop) == (True, True)
        assert abs(result.quality - full_lp_oracle(pop).quality) <= 1e-9

    def test_equilibrium_believed(self, balanced_population, low_accuracy_population):
        for pop in (balanced_population, low_accuracy_population):
            result = closed_form_equilibrium(pop)
            assert believes(result.strategy, pop) == (True, True)


#: Ratios on and beside each case boundary: both zeros, 1, their
#: neighbouring floats, and both infinities; pairs of equal ratios are
#: on the k_A = k_B boundary.
K_VALUES = [
    -math.inf, -2.0, -5e-324, -0.0, 0.0, 5e-324, 0.5, math.nextafter(1.0, 0.0),
    1.0, math.nextafter(1.0, 2.0), 2.0, math.inf,
]


def closures(k_A, k_B):
    """The cases whose closure holds at (k_A, k_B), from the table's inequalities."""
    return [case for case, holds in enumerate([
        k_A <= 0.0 and k_B <= 0.0,
        0.0 <= k_A <= k_B,
        0.0 <= k_A <= 1.0 and k_B <= k_A,
        k_B <= 1.0 <= k_A,
        1.0 <= k_B <= k_A,
        k_A <= 0.0 <= k_B,
    ]) if holds]


class TestSolveCells:
    """`solve_cells` gives each cell one point, a case whose closure holds."""

    @pytest.fixture
    def believe_all(self, monkeypatch):
        """Believe every point, so each cell keeps its band point."""

        def believe_all(strategy, pts):
            return (np.ones(len(strategy[2]), dtype=bool),) * 2

        monkeypatch.setattr(equilibrium, "believes", believe_all)

    @pytest.mark.parametrize("k_A", K_VALUES)
    def test_every_ratio_pair_in_a_closure(self, k_A, believe_all):
        """No (k_A, k_B) falls outside every case, and the cell's case is one of them.

        A cell solved alone or among cells in one closure each gets the
        same answer, and each interior cell gets its one case.
        """
        interior = [(k, kb) for k in K_VALUES for kb in K_VALUES
                    if len(closures(k, kb)) == 1]
        params = np.ones((8, len(interior) + 1))
        for k_B in K_VALUES:
            cases = closures(k_A, k_B)
            assert cases
            alone = equilibrium.solve_cells(np.array([k_A]), np.array([k_B]), params[:, :1])
            assert alone[0][0] in cases

            ks = np.array(interior + [(k_A, k_B)]).T
            block = equilibrium.solve_cells(ks[0], ks[1], params)
            for column, last in zip(block, alone):
                assert column[-1] == last[0]
            assert block[0][:-1].tolist() == [closures(*k)[0] for k in interior]

    def test_one_candidate_block_raises_when_a_point_stays_unbelieved(
        self, monkeypatch
    ):
        rows = random_restricted_params(np.random.default_rng(11), 64)
        batch = equilibrium.solve_batch(rows)
        assert all(len(closures(*k)) == 1 for k in zip(batch.k_A, batch.k_B))
        def reject_row_5(strategy, pts):
            bel_A, bel_B = believes(strategy, pts)
            return bel_A & (pts[0] != rows[5, 0]), bel_B

        monkeypatch.setattr(equilibrium, "believes", reject_row_5)
        with pytest.raises(NoFeasibleEncoding, match="no analytic candidate"):
            equilibrium.solve_batch(rows)
        assert equilibrium.solve_batch(np.delete(rows, 5, axis=0)).solved.all()


class TestBandPoint:
    """`band_point` on the bands that either caller can form."""

    @staticmethod
    def bits(*values):
        return [float(v).hex() for v in values]

    @pytest.mark.parametrize(
        "lo, hi, point",
        [
            (0.0, math.inf, (False, 1.0, 1.0)),
            (2.0, math.inf, (False, 0.5, 1.0)),
            (0.0, 0.5, (False, 1.0, 0.5)),
            (0.0, 0.0, (False, 1.0, 0.0)),
            (0.0, -0.0, (False, 1.0, -0.0)),  # n_A is 1, not 1 / -0.0
            (math.inf, math.inf, (False, 0.0, 1.0)),
            (5e-324, 0.0, (True, 0.0, 0.0)),
            (1.0, 1.0 - 2.0**-53, (True, 0.0, 0.0)),
        ],
    )
    def test_pinned_points(self, lo, hi, point):
        silent, n_A, n_B = equilibrium.band_point(lo, hi)
        assert bool(silent) is point[0]
        assert self.bits(n_A, n_B) == self.bits(*point[1:])

    def test_special_values_elementwise(self, special_k):
        """Arrays give each band the point it gets alone: silent exactly
        where hi < lo, else the larger coordinate 1 and the other in [0, 1]."""
        lo, hi = np.array(
            [(max(k_B, 0.0), math.inf if k_A < 0.0 else k_A)
             for k_A in special_k for k_B in special_k]
        ).T
        silent, n_A, n_B = equilibrium.band_point(lo, hi)
        for i in range(len(lo)):
            alone = equilibrium.band_point(lo[i], hi[i])
            assert self.bits(*alone) == self.bits(silent[i], n_A[i], n_B[i])
        assert (silent == (hi < lo)).all()
        assert ((n_A == 0.0) & (n_B == 0.0) | ~silent).all()
        assert (np.maximum(n_A, n_B) == 1.0)[~silent].all()
        assert ((0.0 <= n_A) & (n_A <= 1.0) & (0.0 <= n_B) & (n_B <= 1.0)).all()


class TestLpOracle:
    def test_matches_closed_form_on_balanced(self, balanced_population):
        closed = closed_form_equilibrium(balanced_population)
        lp = full_lp_oracle(balanced_population)
        assert lp.quality == pytest.approx(closed.quality, abs=1e-9)
        assert lp.strategy.n_A == pytest.approx(closed.strategy.n_A, abs=1e-9)
        assert lp.strategy.n_B == pytest.approx(closed.strategy.n_B, abs=1e-9)

    def test_full_truth_when_no_identity(self):
        pop = make_population(0.5, 0.0, 1, 2, 0.5, 0.0, 1, 2)
        lp = full_lp_oracle(pop)
        assert lp.quality == pytest.approx(4.0, abs=1e-12)

    def test_unrestricted_population_supported(self):
        # The oracle needs no penalty-ordering restriction.
        pop = make_population(0.55, 0.45, 2.0, 1.0, 0.55, 0.45, 1.5, 1.0)
        lp = full_lp_oracle(pop)
        assert 0.0 <= lp.quality <= 4.0
        assert believes(lp.strategy, pop) == (True, True)

    def test_matches_highs_on_unrestricted_populations(self):
        # HiGHS solves the LP written from the four residuals of
        # `belief_residuals`, not from the oracle's one row per type.
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(20240824)
        basis = tuple(np.vstack([np.zeros(4), np.eye(4)]).T)
        rows, highs_quality = [], []
        for _ in range(300):
            weights = rng.random((2, 2)).tolist()
            penalties = (3.0 * rng.random((2, 2))).tolist()
            pop = make_population(
                *weights[0], *penalties[0], *weights[1], *penalties[1]
            )
            res = belief_residuals(basis, pop)
            g = np.array([res.g_A_a, res.g_A_b, res.g_B_a, res.g_B_b])
            c, G = g[:, 0], g[:, 1:] - g[:, :1]
            highs = optimize.linprog(
                -np.ones(4), A_ub=-G, b_ub=c, bounds=[(0.0, 1.0)] * 4,
                method="highs",
            )
            assert highs.status in (0, 2), highs.message
            rows.append(list(pop))
            highs_quality.append(-highs.fun if highs.status == 0 else np.nan)
        # The oracle's NaN rows are where `full_lp_oracle` raises.
        lp_quality = lp_oracle_batch(rows).sum(axis=1)
        infeasible = np.isnan(highs_quality)
        assert (np.isnan(lp_quality) == infeasible).all()
        gap = np.abs(lp_quality - highs_quality)[~infeasible]
        assert (gap <= 1e-9).all()
        assert 0 < infeasible.sum() < 300

    def test_batch_matches_scalar_bitwise(self, monkeypatch):
        rng = np.random.default_rng(7)
        unrestricted = np.concatenate(
            [rng.random((30, 2, 2)), 3.0 * rng.random((30, 2, 2))], axis=2
        ).reshape(30, 8)
        params = np.vstack([
            random_restricted_params(rng, 30),
            unrestricted,
            10.0 ** rng.uniform(-12, 12, (300, 8)),
            [row(WIDE_RANGE), row(UNRESTRICTED), row(BALANCED)],
            [[0.5, 0.0, 1, 2, 0.5, 0.0, 1, 2], [0.0, 0.0, 1, 2, 0.5, 0.45, 1, 3.5]],
        ])
        monkeypatch.setattr(equilibrium, "_LP_BLOCK", 7)  # blocks split the rows
        batch = lp_oracle_batch(params)
        monkeypatch.undo()
        assert np.isnan(batch[:, 0]).any() and not np.isnan(batch[:, 0]).all()
        for p, z in zip(params, batch):
            population = population_from_params(dict(zip(PARAM_NAMES, p)))
            reference = reference_lp_oracle(p)
            if reference is None:
                assert np.isnan(z).all()
                with pytest.raises(NoFeasibleEncoding):
                    full_lp_oracle(population)
                continue
            s = full_lp_oracle(population).strategy
            scalar = np.array([s.m_A, s.m_B, s.n_A, s.n_B])
            assert z.tobytes() == reference.tobytes() == scalar.tobytes()
        assert np.isnan(batch[len(params) - 5]).all()  # WIDE_RANGE

    def test_batch_memory_bounded_in_rows(self):
        def peak_traced_bytes(n):
            params = random_restricted_params(np.random.default_rng(3), n)
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                lp_oracle_batch(params)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak_traced_bytes(1)  # first-call set-up
        one_block = peak_traced_bytes(_LP_BLOCK)
        eight_blocks = peak_traced_bytes(8 * _LP_BLOCK)
        # Only the (N, 4) result grows with N.  A block's working arrays take
        # ~40 kB per population; keeping one system's worth per row would
        # add 832 bytes a row.
        assert eight_blocks <= one_block + 32 * 7 * _LP_BLOCK + 64 * 1024


class TestEquivalence:
    def test_random_equivalence(self):
        report = check_equivalence(300, seed=20240824)
        assert report.ok, report.failures[:3]
        assert report.quality_gap.max() <= 1e-9
        assert report.coordinate_gap.max() <= 1e-9

    def test_compare_batch_single(self, balanced_population):
        report = compare_batch([list(balanced_population)])
        assert report.quality_gap[0] <= 1e-9
        assert report.coordinate_gap[0] <= 1e-9
        assert report.ok

    def test_draws_match_single_population_draws(self):
        params = random_restricted_params(np.random.default_rng(5), 50)
        rng = np.random.default_rng(5)
        for p in params:
            population = random_restricted_population(rng)
            assert list(population) == p.tolist()

    @pytest.mark.parametrize("value", [-1.0, math.nan])
    def test_invalid_row_raises_naming_its_parameter(self, value):
        params = dict(BALANCED, lambda_s_B=value)
        with pytest.raises(ValueError, match="^lambda_s_B must be finite and >= 0"):
            compare_batch([row(params)])

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="trials must be in"):
            check_equivalence(0, 0)

    def test_first_failing_row_raises_closed_form_error_first(self):
        params = np.array([row(BALANCED), row(WIDE_RANGE), row(UNRESTRICTED)])
        with pytest.raises(NoFeasibleEncoding):
            compare_batch(params)
        with pytest.raises(AssumptionViolated, match="type A"):
            compare_batch(params[[0, 2, 1]])
        # An unrestricted row whose LP also fails: the closed form's error.
        both = dict(WIDE_RANGE, delta_I_A=1e9)
        with pytest.raises(NoFeasibleEncoding):
            full_lp_oracle(population_from_params(both))
        with pytest.raises(AssumptionViolated, match="type A"):
            compare_batch([row(both)])

    def test_structural_properties_random(self):
        report = compare_batch(random_restricted_params(np.random.default_rng(99), 300))
        closed, lp = report.closed, report.lp
        assert (closed[:, :2] == 1.0).all()
        quality = closed[:, 0] + closed[:, 1] + closed[:, 2] + closed[:, 3]
        assert (quality >= 2.0 - 1e-12).all() and (quality <= 4.0).all()
        bel_A, bel_B = believes(closed.T, report.params.T)
        assert bel_A.all() and bel_B.all()
        lies_to_B = lp[:, 3] > 0.0
        assert (np.abs(lp[lies_to_B, 0] - 1.0) <= 1e-9).all()

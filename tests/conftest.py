"""Shared fixtures: the three heatmap base configurations, and whole sweeps.

All three share accuracy/identity weights (0.55, 0.45) for type A,
in-group penalties of 1 for both types, and out-group penalties of 2 (A)
and 3.5 (B); they differ only in the type-B weights.
"""

import math

import numpy as np
import pytest

from identity_channel.experiments import _SWEEP_BLOCK, SweepResult, run_sweep
from identity_channel.model import population_from_params


@pytest.fixture(scope="session")
def whole_sweep():
    """A function solving every block of a sweep into one joined SweepResult.

    The program holds one block at a time; tests that compare a whole grid
    with a reference join the blocks' columns and skip counts here, each
    receiver type's k per row over all the blocks' rows, and each solved
    cell's axis indices and type rows, the latter counted from row 0.
    """

    def join_rows(k_rows):
        k = np.empty(max(first + len(part) for first, part in k_rows))
        for first, part in k_rows:
            k[first : first + len(part)] = part
        return 0, k

    def solve(spec):
        cells = math.prod(spec.shape)
        blocks = [run_sweep(spec, start) for start in range(0, cells, _SWEEP_BLOCK)]
        return SweepResult(
            spec,
            sum(b.skipped for b in blocks),
            *(
                np.concatenate([getattr(b, name) for b in blocks])
                for name in ("k_A", "k_B", "case", "n_A", "n_B", "Q")
            ),
            k_rows=tuple(join_rows(rows) for rows in zip(*(b.k_rows for b in blocks))),
            index=tuple(map(np.concatenate, zip(*(b.index for b in blocks)))),
            rows=tuple(
                np.concatenate([b.rows[g] + b.k_rows[g][0] for b in blocks])
                for g in range(2)
            ),
        )

    return solve


def _base_params(lambda_a_B, lambda_s_B):
    return {
        "lambda_a_A": 0.55,
        "lambda_s_A": 0.45,
        "delta_I_A": 1.0,
        "delta_O_A": 2.0,
        "lambda_a_B": lambda_a_B,
        "lambda_s_B": lambda_s_B,
        "delta_I_B": 1.0,
        "delta_O_B": 3.5,
    }


@pytest.fixture(scope="session")
def high_accuracy_params():
    return _base_params(0.6, 0.4)


@pytest.fixture(scope="session")
def balanced_params():
    return _base_params(0.55, 0.45)


@pytest.fixture(scope="session")
def low_accuracy_params():
    return _base_params(0.4, 0.6)


@pytest.fixture(scope="session")
def high_accuracy_population(high_accuracy_params):
    return population_from_params(high_accuracy_params)


@pytest.fixture(scope="session")
def balanced_population(balanced_params):
    return population_from_params(balanced_params)


@pytest.fixture(scope="session")
def low_accuracy_population(low_accuracy_params):
    return population_from_params(low_accuracy_params)


@pytest.fixture(scope="session")
def special_k():
    """Special values of an augmented parameter k, from both infinities
    through the neighbours of 1."""
    return [
        -math.inf, -1.0, -0.0, 0.0, 5e-324, 1.0 - 2.0**-53, 1.0, 1.0 + 2.0**-52,
        1e300, math.inf,
    ]

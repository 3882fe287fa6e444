"""A robustness property of the CLI over configs drawn from a small grammar.

Whatever a config holds, each command either reports or fails with one
line: exit 0 (or 1 for the property-checking `verify` and `sweep --audit`)
with a standard JSON report on stdout, every real in it at 12 significant
digits, and nothing on stderr, or exit 2 or 64 with exactly one stderr
line and nothing on stdout.  No run warns, and none leaves a CSV behind on
failure or a temporary file at all.  Grids stay small (at most 50 cells an
axis, N at most 10^6), so the time spent is the code's.
"""

import contextlib
import io
import json
import math
import os
import sys
import tempfile
import warnings

from hypothesis import HealthCheck, given, settings, strategies as st

from identity_channel.cli import (
    EXIT_DOMAIN_ERROR,
    EXIT_OK,
    EXIT_PROPERTY_FAILURE,
    EXIT_USAGE,
    main,
)
from identity_channel.model import PARAM_NAMES

MAX = sys.float_info.max


def mostly(common, rare):
    """`common` fifteen times in sixteen, else `rare`."""
    return st.integers(0, 15).flatmap(lambda i: common if i else rare)


#: Reals a population accepts: ordinary values, and zeros, subnormals and
#: huge ones.
VALID_REALS = mostly(
    st.floats(0.0, 4.0),
    st.sampled_from([0, 1, 5e-324, 2.2250738585072014e-308, 1e-300, 1e308, MAX]),
)
#: Values no real field accepts.
BAD_VALUES = st.sampled_from(
    [math.nan, math.inf, -math.inf, -1.0, -5e-324, -1e308, 10**400, -(10**400),
     True, False, "0.5", None, [1.0], {}]
)
ANY_VALUE = mostly(VALID_REALS, BAD_VALUES)
RESOLUTIONS = mostly(
    st.integers(2, 50), st.sampled_from([1, 0, -3, 2.5, 10**400, True, "3", None])
)
PLAYS = mostly(
    st.integers(1, 10**6),
    st.sampled_from([0, -5, 2.5, 1e3, 2**63, 10**400, False, "100", None]),
)
SEEDS = mostly(st.integers(0, 2**70), st.sampled_from([-1, 2.5, True, "3", None]))


@st.composite
def edited(draw, block):
    """`block`, now and then with a key dropped or an extra key added."""
    edit = draw(st.integers(0, 31))
    if edit == 0 and block:
        del block[draw(st.sampled_from(sorted(block)))]
    elif edit == 1:
        block["extra"] = draw(ANY_VALUE)
    return block


@st.composite
def populations(draw):
    """A population block, mostly restricted (each type's delta_I <= delta_O)."""
    row = [draw(VALID_REALS) for _ in PARAM_NAMES]
    if draw(st.integers(0, 3)):
        row[2:4], row[6:8] = sorted(row[2:4]), sorted(row[6:8])
    block = dict(zip(PARAM_NAMES, row))
    if not draw(st.integers(0, 7)):
        block[draw(st.sampled_from(PARAM_NAMES))] = draw(BAD_VALUES)
    return draw(edited(block))


@st.composite
def axes(draw):
    axis = {
        "name": draw(mostly(st.sampled_from(PARAM_NAMES), st.just("bogus"))),
        "lo": draw(ANY_VALUE),
        "hi": draw(ANY_VALUE),
        "resolution": draw(RESOLUTIONS),
    }
    return draw(edited(axis))


@st.composite
def blocks(draw):
    """The command blocks, each mostly drawn, else absent, null or not an object."""
    drawn = {
        "estimator": {"delta": draw(ANY_VALUE)},
        "sweep": {
            "axes": draw(mostly(st.lists(axes(), min_size=1, max_size=2),
                                st.lists(axes(), max_size=3))),
            "simplex_constrained": draw(mostly(st.booleans(), BAD_VALUES)),
        },
        "simulate": {"N": draw(PLAYS)},
    }
    # The optional keys, each present half the time.
    for name, key, values in (("estimator", "M", ANY_VALUE),
                              ("simulate", "seed", SEEDS)):
        if draw(st.booleans()):
            drawn[name][key] = draw(values)
    out = {}
    for name, block in drawn.items():
        forms = st.sampled_from(["absent", "null", "list"])
        form = draw(mostly(st.just("drawn"), forms))
        if form != "absent":
            out[name] = {"drawn": block, "null": None, "list": []}[form]
    return out


@st.composite
def configs(draw):
    config = {"population": draw(populations()), **draw(blocks())}
    return draw(edited(config))


COMMANDS = st.sampled_from(
    [["equilibrium"], ["estimate"], ["verify"], ["simulate"],
     ["simulate", "--seed", "7"], ["sweep"], ["sweep", "--audit"]]
)


def run(argv):
    """Exit code, stdout, stderr and warnings of one in-process CLI run."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        caught = stack.enter_context(warnings.catch_warnings(record=True))
        warnings.simplefilter("always")
        stack.enter_context(contextlib.redirect_stdout(stdout))
        stack.enter_context(contextlib.redirect_stderr(stderr))
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue(), caught


def reject_constant(constant):
    """`json.loads`'s parse_constant: standard JSON has no Infinity or NaN."""
    raise ValueError(f"{constant} is not standard JSON")


@settings(
    max_examples=500,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(config=configs(), command=COMMANDS)
def test_every_config_reports_or_fails_with_one_line(config, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        with open(path, "w") as handle:
            json.dump(config, handle)
        writes = command[0] in ("simulate", "sweep")
        argv = [command[0], "--config", path, *command[1:]]
        if writes:
            argv += ["--out", os.path.join(tmp, "out.csv")]
        code, out, err, caught = run(argv)
        left = sorted(os.listdir(tmp))
    assert [str(w.message) for w in caught] == []
    if code in (EXIT_OK, EXIT_PROPERTY_FAILURE):
        assert code == EXIT_OK or command in (["verify"], ["sweep", "--audit"])
        assert err == ""
        reals = []
        json.loads(
            out,
            parse_float=lambda text: reals.append(float(text)),
            parse_constant=reject_constant,
        )
        assert [v for v in reals if float(f"{v:.12g}") != v] == []
        assert left == (["c.json", "out.csv"] if writes else ["c.json"])
    else:
        assert code in (EXIT_DOMAIN_ERROR, EXIT_USAGE)
        assert out == ""
        assert err.count("\n") == 1 and err.endswith("\n")
        assert left == ["c.json"]

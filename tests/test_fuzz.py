"""Property-based fuzzing of the CLI, in process through ``cli.main``.

Every channel config, however far from physical, must end in a result or
a named error: an exit code in {0, 1, 2, 5}, no traceback or warning on
stderr, and stdout that is empty or strict JSON.  The stage and joint
covariances are drawn asymmetric, indefinite, singular or correlated
across quadratures, with entries from 1e-300 to 1e300, behind gains
whose products are 1.

``sweep`` and ``verify`` argv are drawn at their edges: eta and s bounds
at 0, 1, ``MAX_SWEEP_S`` and just above it, negative or not finite; step
counts of 0, 1 and a few; trials and seeds negative, 0, non-integer or
large.  Each run must exit in {0..5} with no traceback or warning, and
print strict JSON or a CSV whose cells are finite numbers or booleans
(bar the documented ``squeezing_db`` of ``inf`` at s = 0).
"""

import contextlib
import io
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

import cvteleport.cli as cli
from cvteleport.epr import MAX_SWEEP_S, SWEEP_CSV_COLUMNS

ALLOWED_EXITS = {0, 1, 2, 5}
MC_ARGS = ["--samples", "1000", "--seed", "3"]


@st.composite
def magnitudes(draw):
    """0, or a signed power of ten between 1e-300 and 1e300."""
    if draw(st.integers(0, 5)) == 0:
        return 0.0
    sign = draw(st.sampled_from([-1.0, 1.0]))
    return sign * 10.0 ** draw(st.floats(-300.0, 300.0))


@st.composite
def matrices(draw, bound=1.0):
    """A 2x2 moment matrix: diagonal, symmetric, asymmetric, rank one, or
    a physical noise pair at or above the uncertainty ``bound``."""
    kind = draw(st.sampled_from(["diagonal", "symmetric", "asymmetric", "rank-one", "physical"]))
    a, b = draw(magnitudes()), draw(magnitudes())
    if kind == "physical":
        a = abs(a) or 1.0
        b = bound / a * 10.0 ** draw(st.floats(0.0, 2.0))
        c = d = draw(st.floats(-1.0, 1.0)) * math.sqrt(a) * math.sqrt(b)
    elif kind == "rank-one":
        a, b, c, d = a * a, b * b, a * b, a * b  # Python floats: inf, not a warning
    elif kind == "diagonal":
        c = d = 0.0
    else:
        c = draw(magnitudes())
        d = draw(magnitudes()) if kind == "asymmetric" else c
    if draw(st.integers(0, 3)):  # mostly nonnegative variances, as in use
        a, b = abs(a), abs(b)
    return [[a, c], [d, b]]


@st.composite
def channels(draw):
    g_x, g_y = (
        draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-3.0, 3.0)) for _ in "XY"
    )
    config = {
        "type": "channel",
        "measurement": {
            "g_X": g_x,
            "g_Y": g_y,
            "noise_B": {"cov": draw(matrices(bound=abs(g_x * g_y)))},
        },
        "reconstruction": {"h_X": 1.0 / g_x, "h_Y": 1.0 / g_y, "noise_C": {"cov": draw(matrices())}},
    }
    if draw(st.booleans()):
        config["cross_cov_BC"] = draw(matrices())
    return json.dumps(config)


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-strict JSON token {token}")

    return json.loads(text, parse_constant=reject)


def _run(argv: list) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@given(text=channels())
@settings(max_examples=150, derandomize=True, database=None, deadline=None)
def test_channel_configs_end_in_a_result_or_a_named_error(text, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "fuzz-channel.json"
    path.write_text(text)
    for argv in (["report", "--config", str(path)], ["mc", "--config", str(path), *MC_ARGS]):
        code, out, err = _run(argv)
        assert code in ALLOWED_EXITS, (argv[0], code, err)
        assert "Traceback" not in err and "Warning" not in err, (argv[0], err)
        if out:
            payload = _strict_json(out)
            assert isinstance(payload, dict)
        if code == 0 and argv[0] == "report":
            assert math.isfinite(payload["fidelity"])


# Bound texts for the sweep axes: the domain edges, MAX_SWEEP_S and the
# next float above it, out-of-range, negative and non-finite values
EDGE_BOUNDS = ["0", "-0.0", "1", "0.5", "2", "-1", "-0.5", repr(MAX_SWEEP_S),
               repr(math.nextafter(MAX_SWEEP_S, math.inf)), "1e300", "nan", "inf", "-inf"]
STEPS = ["0", "1", "2", "3", "5", "-1", "1.5"]


def bounds():
    return st.one_of(
        st.sampled_from(EDGE_BOUNDS),
        st.floats(0.0, 1.0).map(repr),
        st.floats(0.0, MAX_SWEEP_S).map(repr),
    )


@st.composite
def sweep_argv(draw):
    argv = ["sweep"]
    for axis in ("eta", "s"):
        argv += [f"--{axis}-min", draw(bounds()), f"--{axis}-max", draw(bounds()),
                 f"--{axis}-steps", draw(st.sampled_from(STEPS))]
    return argv


def _check_csv(text: str) -> None:
    lines = text.splitlines()
    assert lines[0].split(",") == list(SWEEP_CSV_COLUMNS)
    assert len(lines) > 1
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == len(SWEEP_CSV_COLUMNS), line
        assert cells[-1] in ("true", "false"), line
        numbers = [float(cell) for cell in cells[:-1]]
        if numbers[1] == 0.0:  # the documented squeezing_db of the s = 0 column
            assert numbers[2] == math.inf, line
            del numbers[2]
        assert all(map(math.isfinite, numbers)), line


def _check_run(argv: list) -> int:
    code, out, err = _run(argv)
    assert code in range(6), (argv, code, err)
    assert "Traceback" not in err and "Warning" not in err, (argv, err)
    if code != 0:
        assert out == "", (argv, out)
    elif argv[0] == "sweep":
        _check_csv(out)
    else:
        assert isinstance(_strict_json(out), dict)
    return code


@given(argv=sweep_argv())
@settings(max_examples=120, derandomize=True, database=None, deadline=None)
def test_sweep_argv_ends_in_a_table_or_a_named_error(argv):
    _check_run(argv)


@given(
    trials=st.one_of(st.sampled_from(["-1", "0", "1", "2", "1.5", "1e3", "ten"]),
                     st.integers(0, 3000).map(str)),
    seed=st.one_of(st.sampled_from(["-1", "0", "1.0", "-0", str(2**64), str(10**40)]),
                   st.integers(0, 2**63).map(str)),
)
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
def test_verify_argv_ends_in_a_summary_or_a_named_error(trials, seed):
    _check_run(["verify", "--trials", trials, "--seed", seed])

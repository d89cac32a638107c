"""Property-based fuzzing of the CLI, in process through ``cli.main``.

Every channel config, however far from physical, must end in a result or
a named error: an exit code in {0, 1, 2, 5}, no traceback or warning on
stderr, and stdout that is empty or strict JSON.  The stage and joint
covariances are drawn asymmetric, indefinite, singular or correlated
across quadratures, with entries from 1e-300 to 1e300, behind gains
whose products are 1.

Config text is fuzzed at the parser's and the scenario's edges too, through
``report`` and ``mc``: EPR configs with eta at 0, 1 and their neighbouring
floats, s at 0 and 1 and on both sides of each s where the budget
variance crosses ``MAX_RESOLVED_VARIANCE``; input variances at and just
below the uncertainty product; duplicate and unknown nested keys; and
files that are not UTF-8.

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
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

import cvteleport.cli as cli
from cvteleport.channel import VALIDITY_TOL, NoiseBudget, budget_to_channel
from cvteleport.epr import MAX_SWEEP_S, SWEEP_CSV_COLUMNS, EprScenario, _budget_variance
from cvteleport.errors import ConfigError
from oracle import channel_to_dict

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


def _bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _unresolved(eta: float, s: float) -> bool:
    """Whether the scenario's budget variance is past the resolved cap."""
    try:
        _budget_variance(EprScenario(eta, s))
    except ConfigError:
        return True
    return False


def _variance_edges(eta: float) -> list[float]:
    """The first float past each s where the budget variance crosses
    ``MAX_RESOLVED_VARIANCE``: below 1 and above it, where they exist."""
    edges = []
    for lo, hi in ((5e-324, 1.0), (1.0, MAX_SWEEP_S)):
        a, b = _bits(lo), _bits(hi)
        side = _unresolved(eta, lo)
        if side == _unresolved(eta, hi):
            continue
        while b - a > 1:
            mid = (a + b) // 2
            if _unresolved(eta, _float(mid)) == side:
                a = mid
            else:
                b = mid
        edges.append(_float(b))
    return edges


EDGE_ETAS = [0.0, -0.0, 5e-324, -5e-324, math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0)]
EDGE_S = [0.0, -0.0, 5e-324, math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0)]


@st.composite
def epr_texts(draw):
    eta = draw(st.one_of(st.sampled_from(EDGE_ETAS), st.floats(0.0, 1.0)))
    edges = _variance_edges(eta) if 0.0 <= eta <= 1.0 else []
    if edges and draw(st.booleans()):
        # within two floats of the edge, on either side
        s = _float(_bits(draw(st.sampled_from(edges))) + draw(st.integers(-2, 2)))
    else:
        s = draw(st.one_of(st.sampled_from(EDGE_S), st.floats(0.0, 4.0)))
    return json.dumps({"type": "epr", "eta": eta, "s": s}).encode(), ALLOWED_EXITS


EPR_CONFIG = {"type": "epr", "eta": 0.7, "s": 0.3}


def _base_channel() -> dict:
    # every nested object present: stages, noises with labels and mean, input
    return channel_to_dict(budget_to_channel(NoiseBudget(1.2, 1.5, 1.1, 1.3, -0.4, 0.3)))


@st.composite
def input_texts(draw):
    """A valid channel whose input variance product sits at 1 or just below,
    around the tolerance cut: accepted (exit 0, or 5 from ``mc``) above the
    cut, a validity error below it."""
    var_x = 10.0 ** draw(st.floats(-3.0, 3.0))
    product = draw(st.sampled_from([1.0, 1.0 - VALIDITY_TOL, 1.0 - 2.0 * VALIDITY_TOL]))
    var_y = _float(_bits(product / var_x) + draw(st.integers(-2, 1)))
    config = _base_channel()
    config["input"] = {"var_X": var_x, "var_Y": var_y}
    accepted = var_x * var_y >= 1.0 - VALIDITY_TOL
    return json.dumps(config).encode(), {0, 5} if accepted else {2}


def _objects(node: dict, path=()):
    """The path to every object in a config tree, the root included."""
    yield path
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _objects(value, path + (key,))


def _render(node, extra, path=()) -> str:
    """JSON text of ``node`` with the ``(path, key, value)`` member ``extra``
    appended to the object at ``path``, repeated key or not."""
    if not isinstance(node, dict):
        return json.dumps(node)
    members = [f"{json.dumps(k)}: {_render(v, extra, path + (k,))}" for k, v in node.items()]
    if path == extra[0]:
        members.append(f"{json.dumps(extra[1])}: {json.dumps(extra[2])}")
    return "{" + ", ".join(members) + "}"


@st.composite
def key_texts(draw):
    """A valid EPR or channel config with one key repeated or unknown, at
    any depth: a config error."""
    config = draw(st.sampled_from([EPR_CONFIG, _base_channel()]))
    path = draw(st.sampled_from(list(_objects(config))))
    obj = config
    for key in path:
        obj = obj[key]
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(obj)))
        value = draw(st.sampled_from([obj[key], 0.5, "x", None, [1.0]]))
    else:
        key, value = draw(st.sampled_from(["extra", "g_x", "Cov", "", "noise", "\u00e9"])), 1.0
    return _render(config, (path, key, value)).encode(), {1}


# byte sequences that no UTF-8 text contains: a stray continuation byte, an
# overlong '/', an encoded surrogate, a truncated sequence and 0xff
NOT_UTF8 = [b"\x80", b"\xc0\xaf", b"\xed\xa0\x80", b"\xe2\x82", b"\xff"]


@st.composite
def non_utf8_texts(draw):
    """A valid config's bytes made invalid UTF-8: a bad sequence spliced in
    anywhere, or the text in UTF-16, UTF-32 or Latin-1 with an accent; a
    UTF-8 byte-order mark is valid UTF-8 but not JSON.  A config error."""
    text = json.dumps(draw(st.sampled_from([EPR_CONFIG, _base_channel()])))
    how = draw(st.sampled_from(["splice", "utf-16", "utf-32", "latin-1", "bom"]))
    if how == "splice":
        data = text.encode()
        at = draw(st.integers(0, len(data)))
        return data[:at] + draw(st.sampled_from(NOT_UTF8)) + data[at:], {1}
    if how == "latin-1":
        return text.replace('"type"', '"t\u00e9pe"').encode("latin-1"), {1}
    if how == "bom":
        return b"\xef\xbb\xbf" + text.encode(), {1}
    return text.encode(how), {1}


@given(case=st.one_of(epr_texts(), input_texts(), key_texts(), non_utf8_texts()))
@settings(max_examples=120, derandomize=True, database=None, deadline=None)
def test_config_text_ends_in_a_result_or_a_named_error(case, tmp_path_factory):
    data, expected = case
    path = tmp_path_factory.getbasetemp() / "fuzz-config.json"
    path.write_bytes(data)
    for argv in (["report", "--config", str(path)], ["mc", "--config", str(path), *MC_ARGS]):
        code, out, err = _run(argv)
        assert code in expected & ALLOWED_EXITS, (argv[0], code, err, data)
        assert "Traceback" not in err and "Warning" not in err, (argv[0], err)
        if code in (0, 5):
            assert isinstance(_strict_json(out), dict)
        else:
            assert out == "", (argv[0], out)


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

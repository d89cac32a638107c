"""Property-based fuzzing of the channel validation through the CLI.

Every channel config, however far from physical, must end in a result or
a named error: an exit code in {0, 1, 2, 5}, no traceback or warning on
stderr, and stdout that is empty or strict JSON.  The stage and joint
covariances are drawn asymmetric, indefinite, singular or correlated
across quadratures, with entries from 1e-300 to 1e300, behind gains
whose products are 1.
"""

import contextlib
import io
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

import cvteleport.cli as cli

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

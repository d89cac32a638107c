"""JSON config parsing and JSON/CSV report rendering.

Config files carry a ``type`` discriminator: ``"channel"`` for an explicit
two-stage channel and ``"epr"`` for the shared-entanglement scenario.
Field names mirror the library's: a channel's gains and input keep their
names, and its ``noise_B``, ``noise_C`` and ``cross_cov_BC`` are the
blocks of :attr:`ChannelConfig.noise`.  Covariance matrices are row-major
nested lists, and unknown keys are rejected so typos fail loudly instead
of silently using a default.

All emitted numbers carry 12 significant digits ('.' decimal separator),
booleans render as ``true``/``false``, and lines end with ``'\n'``, so
output files are byte-stable for fixed inputs.  JSON output is strict: a
non-finite number is an error, never ``NaN`` or ``Infinity``.

Sweep CSV rows come from one renderer, :func:`sweep_csv_rows`, which
renders a whole table with one join; :func:`sweep_to_csv` puts
:data:`SWEEP_CSV_HEADER` on top.  The CLI streams a large grid by
evaluating and rendering it a chunk of rows at a time, so it never holds
the whole file.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable
from typing import Any

import numpy as np

from .channel import ChannelConfig, InputState, vacuum_input
from .epr import SWEEP_CSV_COLUMNS, EprScenario, SweepTable
from .errors import ConfigError, ValidityError

SIGNIFICANT_DIGITS = 12
# Every emitted number goes through this template; adding 0.0 first turns
# negative zero into zero (the only float it would render as "-0").
NUMBER_FORMAT = f"%.{SIGNIFICANT_DIGITS}g"


def format_number(x: float) -> str:
    """Render a float with 12 significant digits; negative zero drops its sign."""
    return NUMBER_FORMAT % (float(x) + 0.0)


def _round_tree(value: Any) -> Any:
    """Round every float in a JSON tree to the serialized precision."""
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(format_number(float(value)))
    if isinstance(value, dict):
        return {k: _round_tree(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_tree(v) for v in value]
    return value


def to_json(payload: dict) -> str:
    """Serialize a report dict to strict, indented JSON with a trailing newline.

    NaN and infinities have no JSON form: a payload holding one raises
    :class:`ValidityError` instead of writing ``NaN`` or ``Infinity``.
    """
    try:
        text = json.dumps(_round_tree(payload), indent=2, allow_nan=False)
    except ValueError as exc:
        raise ValidityError(f"report has no JSON form: {exc}") from None
    return text + "\n"


# ---------------------------------------------------------------------------
# config parsing


def _check_keys(obj: dict, where: str, allowed: Iterable[str], required: Iterable[str]):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object, got {type(obj).__name__}")
    allowed = set(allowed)
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}; allowed {sorted(allowed)}")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise ConfigError(f"{where}: missing required keys {missing}")


def _as_number(value: Any, where: str) -> float:
    """A JSON number as a float; a boolean or a string is not a number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _number(obj: dict, key: str, where: str, default: float | None = None) -> float:
    """``obj[key]`` as a number, or ``default`` when absent (required keys: ``_check_keys``)."""
    if key not in obj:
        return default
    return _as_number(obj[key], f"{where}.{key}")


def _array(value: Any, where: str, shape: tuple[int, ...]) -> np.ndarray:
    """A nested list of numbers with the given shape, as a float array.

    Every entry goes through :func:`_as_number`, so a boolean or a string
    (``"1"``, ``"nan"``) is rejected, naming its position, rather than
    coerced by numpy.
    """

    def entries(v, at: str, dims: tuple[int, ...]):
        if not dims:
            return _as_number(v, at)
        if not isinstance(v, list) or len(v) != dims[0]:
            raise ConfigError(
                f"{at}: expected a list of {dims[0]} entries "
                f"({where} must have shape {shape})"
            )
        return [entries(x, f"{at}[{i}]", dims[1:]) for i, x in enumerate(v)]

    return np.array(entries(value, where, shape), dtype=float)


def gaussian_from_dict(d: dict, where: str, expected_labels: tuple[str, str]) -> np.ndarray:
    """A stage noise's ``(2, 2)`` covariance from ``{labels, mean, cov}``.

    The ``labels`` key may be omitted and must match exactly if present.
    ``mean`` may be omitted and must be zero if present: a nonzero mean
    raises :class:`ValidityError`.  The covariance is returned as parsed;
    the channel validates it.
    """
    _check_keys(d, where, ("labels", "mean", "cov"), ["cov"])
    labels = list(expected_labels)
    if d.get("labels", labels) != labels:
        raise ConfigError(f"{where}.labels: expected {labels}, got {d['labels']!r}")
    cov = _array(d["cov"], f"{where}.cov", (2, 2))
    if "mean" in d and np.any(_array(d["mean"], f"{where}.mean", (2,)) != 0.0):
        raise ValidityError("added noises must be zero-mean")
    return cov


def _measurement_from_dict(d: dict) -> tuple[float, float, np.ndarray]:
    """The measurement stage's ``(g_X, g_Y, noise_B)``.

    The quadrature-mixing gains ``f_X``/``f_Y`` are accepted only as 0: a
    nonzero one is rejected once ``noise_B`` has parsed.  The channel
    validates the noise once the whole config has.
    """
    where = "measurement"
    _check_keys(
        d, where, ("g_X", "g_Y", "f_X", "f_Y", "noise_B"), ("g_X", "g_Y", "noise_B")
    )
    g_x, g_y = _number(d, "g_X", where), _number(d, "g_Y", where)
    mixing = (_number(d, "f_X", where, 0.0), _number(d, "f_Y", where, 0.0))
    noise = gaussian_from_dict(d["noise_B"], f"{where}.noise_B", ("B_X", "B_Y"))
    if mixing != (0.0, 0.0):
        raise ValidityError("unity-gain budget needs f_X = f_Y = 0")
    return g_x, g_y, noise


def _reconstruction_from_dict(d: dict) -> tuple[float, float, np.ndarray]:
    """The reconstruction stage's ``(h_X, h_Y, noise_C)``."""
    _check_keys(d, "reconstruction", ("h_X", "h_Y", "noise_C"), ("h_X", "h_Y", "noise_C"))
    return (
        _number(d, "h_X", "reconstruction"),
        _number(d, "h_Y", "reconstruction"),
        gaussian_from_dict(d["noise_C"], "reconstruction.noise_C", ("C_X", "C_Y")),
    )


def _input_from_dict(d: dict) -> InputState:
    """Parse the input; ``mean_x``/``mean_y`` are checked but enter no figure."""
    _check_keys(
        d, "input", ("var_X", "var_Y", "mean_x", "mean_y"), ("var_X", "var_Y")
    )
    var_x, var_y = _number(d, "var_X", "input"), _number(d, "var_Y", "input")
    _number(d, "mean_x", "input", default=0.0)
    _number(d, "mean_y", "input", default=0.0)
    return InputState(var_X=var_x, var_Y=var_y)


def config_from_dict(d: dict) -> ChannelConfig | EprScenario:
    """Parse a config object; the ``type`` key selects the schema."""
    if not isinstance(d, dict):
        raise ConfigError(f"config: expected an object, got {type(d).__name__}")
    kind = d.get("type")
    if kind == "epr":
        _check_keys(d, "config", ("type", "eta", "s"), ("type", "eta", "s"))
        try:
            return EprScenario(eta=_number(d, "eta", "config"), s=_number(d, "s", "config"))
        except ValueError as exc:
            raise ConfigError(f"config: {exc}") from None
    if kind == "channel":
        _check_keys(
            d,
            "config",
            ("type", "measurement", "reconstruction", "input", "cross_cov_BC"),
            ("type", "measurement", "reconstruction"),
        )
        input_state = _input_from_dict(d["input"]) if "input" in d else vacuum_input()
        cross = (
            _array(d["cross_cov_BC"], "cross_cov_BC", (2, 2))
            if "cross_cov_BC" in d
            else np.zeros((2, 2))
        )
        g_x, g_y, noise_b = _measurement_from_dict(d["measurement"])
        h_x, h_y, noise_c = _reconstruction_from_dict(d["reconstruction"])
        noise = np.block([[noise_b, cross], [cross.T, noise_c]])
        return ChannelConfig(g_x, g_y, h_x, h_y, noise, input_state)
    raise ConfigError(
        f"config.type: expected 'channel' or 'epr', got {kind!r}"
    )


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"config: non-finite number {text} is not allowed")
    return value


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"config: duplicate key {key!r}")
        obj[key] = value
    return obj


def config_from_json(text: str) -> ChannelConfig | EprScenario:
    """Parse config JSON text, reporting the location of syntax errors.

    Every number is read as a float; ``NaN``, ``Infinity`` and
    ``-Infinity`` tokens, numbers too large for a float, a key repeated
    within one object, and nesting too deep to parse are rejected as config
    errors.
    """
    try:
        payload = json.loads(
            text,
            object_pairs_hook=_unique_keys,
            parse_constant=_finite_float,
            parse_float=_finite_float,
            parse_int=_finite_float,
        )
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config is not valid JSON: {exc.msg} at line {exc.lineno} "
            f"column {exc.colno}"
        ) from None
    except RecursionError:
        raise ConfigError("config is nested too deeply to parse") from None
    return config_from_dict(payload)


# ---------------------------------------------------------------------------
# report rendering


SWEEP_CSV_HEADER = ",".join(SWEEP_CSV_COLUMNS) + "\n"
_SWEEP_ROW = ",".join([NUMBER_FORMAT] * (len(SWEEP_CSV_COLUMNS) - 1) + ["%s"]) + "\n"


def sweep_csv_rows(table: SweepTable) -> str:
    """A sweep table's CSV rows, no header, joined; every row ends in ``'\n'``."""
    columns = (
        table.eta,
        table.s,
        table.squeezing_db,
        table.N_out,
        table.N_out * table.N_out,
        table.T_sum,
        table.F,
    )
    numbers = np.stack(columns) + 0.0  # no negative zeros, as in format_number
    verdicts = np.where(table.epr_violated, "true", "false")
    return "".join([_SWEEP_ROW % row for row in zip(*numbers.tolist(), verdicts.tolist())])


def sweep_to_csv(table: SweepTable) -> str:
    """Render a sweep table as CSV text (header plus one row per grid point)."""
    return SWEEP_CSV_HEADER + sweep_csv_rows(table)

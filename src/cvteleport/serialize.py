"""JSON config parsing and JSON/CSV report rendering.

Config files carry a ``type`` discriminator: ``"channel"`` for an explicit
two-stage channel and ``"epr"`` for the shared-entanglement scenario.
Field names mirror the library dataclasses one to one, covariance matrices
are row-major nested lists, and unknown keys are rejected so typos fail
loudly instead of silently using a default.

All emitted numbers carry 12 significant digits ('.' decimal separator),
booleans render as ``true``/``false``, and lines end with ``'\n'``, so
output files are byte-stable for fixed inputs.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Sequence
from typing import Any

import numpy as np

from .channel import (
    ChannelConfig,
    InputState,
    MeasurementStage,
    ReconstructionStage,
)
from .criteria import CriteriaReport, VerificationSummary
from .epr import SWEEP_CSV_COLUMNS, EprScenario, SweepTable
from .errors import ConfigError
from .gaussian import GaussianVector
from .montecarlo import Comparison, McReport

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
    """Serialize a report dict to indented JSON with a trailing newline."""
    return json.dumps(_round_tree(payload), indent=2) + "\n"


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


def _number(obj: dict, key: str, where: str, default: float | None = None) -> float:
    if key not in obj:
        if default is None:
            raise ConfigError(f"{where}: missing required key '{key}'")
        return default
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}.{key}: expected a number, got {value!r}")
    return float(value)


def _matrix(value: Any, where: str, shape: tuple[int, int]) -> np.ndarray:
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: not a numeric matrix: {exc}") from None
    if arr.shape != shape:
        raise ConfigError(f"{where}: expected shape {shape}, got {arr.shape}")
    return arr


def _vector(value: Any, where: str, length: int) -> np.ndarray:
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: not a numeric vector: {exc}") from None
    if arr.shape != (length,):
        raise ConfigError(f"{where}: expected {length} entries, got shape {arr.shape}")
    return arr


def gaussian_to_dict(state: GaussianVector) -> dict:
    return {
        "labels": list(state.labels),
        "mean": state.mean.tolist(),
        "cov": state.cov.tolist(),
    }


def gaussian_from_dict(
    d: dict, where: str, expected_labels: Sequence[str] | None = None
) -> GaussianVector:
    """Build a state from ``{labels, mean, cov}``; mean defaults to zeros.

    When ``expected_labels`` is given, the labels key may be omitted and is
    checked for an exact match if present.
    """
    required = ["cov"] if expected_labels is not None else ["labels", "cov"]
    _check_keys(d, where, ("labels", "mean", "cov"), required)
    labels = d.get("labels", list(expected_labels or ()))
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise ConfigError(f"{where}.labels: expected a list of strings")
    if expected_labels is not None and tuple(labels) != tuple(expected_labels):
        raise ConfigError(
            f"{where}.labels: expected {list(expected_labels)}, got {labels}"
        )
    dim = len(labels)
    cov = _matrix(d["cov"], f"{where}.cov", (dim, dim))
    mean = (
        _vector(d["mean"], f"{where}.mean", dim) if "mean" in d else np.zeros(dim)
    )
    return GaussianVector(labels=tuple(labels), mean=mean, cov=cov)


def _measurement_from_dict(d: dict) -> MeasurementStage:
    _check_keys(
        d,
        "measurement",
        ("g_X", "g_Y", "f_X", "f_Y", "noise_B"),
        ("g_X", "g_Y", "noise_B"),
    )
    return MeasurementStage(
        g_X=_number(d, "g_X", "measurement"),
        g_Y=_number(d, "g_Y", "measurement"),
        f_X=_number(d, "f_X", "measurement", default=0.0),
        f_Y=_number(d, "f_Y", "measurement", default=0.0),
        noise_B=gaussian_from_dict(d["noise_B"], "measurement.noise_B", ("B_X", "B_Y")),
    )


def _reconstruction_from_dict(d: dict) -> ReconstructionStage:
    _check_keys(d, "reconstruction", ("h_X", "h_Y", "noise_C"), ("h_X", "h_Y", "noise_C"))
    return ReconstructionStage(
        h_X=_number(d, "h_X", "reconstruction"),
        h_Y=_number(d, "h_Y", "reconstruction"),
        noise_C=gaussian_from_dict(
            d["noise_C"], "reconstruction.noise_C", ("C_X", "C_Y")
        ),
    )


def _input_from_dict(d: dict) -> InputState:
    _check_keys(
        d, "input", ("var_X", "var_Y", "mean_x", "mean_y"), ("var_X", "var_Y")
    )
    return InputState(
        var_X=_number(d, "var_X", "input"),
        var_Y=_number(d, "var_Y", "input"),
        mean_x=_number(d, "mean_x", "input", default=0.0),
        mean_y=_number(d, "mean_y", "input", default=0.0),
    )


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
        input_state = (
            _input_from_dict(d["input"])
            if "input" in d
            else InputState(var_X=1.0, var_Y=1.0)
        )
        cross = (
            _matrix(d["cross_cov_BC"], "cross_cov_BC", (2, 2))
            if "cross_cov_BC" in d
            else np.zeros((2, 2))
        )
        return ChannelConfig(
            measurement=_measurement_from_dict(d["measurement"]),
            reconstruction=_reconstruction_from_dict(d["reconstruction"]),
            input=input_state,
            cross_cov_BC=cross,
        )
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
    ``-Infinity`` tokens, numbers too large for a float, and a key repeated
    within one object are rejected as config errors.
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
    return config_from_dict(payload)


def channel_to_dict(config: ChannelConfig) -> dict:
    m, r, inp = config.measurement, config.reconstruction, config.input
    return {
        "type": "channel",
        "measurement": {
            "g_X": m.g_X,
            "g_Y": m.g_Y,
            "f_X": m.f_X,
            "f_Y": m.f_Y,
            "noise_B": gaussian_to_dict(m.noise_B),
        },
        "reconstruction": {
            "h_X": r.h_X,
            "h_Y": r.h_Y,
            "noise_C": gaussian_to_dict(r.noise_C),
        },
        "input": {
            "var_X": inp.var_X,
            "var_Y": inp.var_Y,
            "mean_x": inp.mean_x,
            "mean_y": inp.mean_y,
        },
        "cross_cov_BC": np.asarray(config.cross_cov_BC).tolist(),
    }


def epr_to_dict(sc: EprScenario) -> dict:
    return {"type": "epr", "eta": sc.eta, "s": sc.s}


# ---------------------------------------------------------------------------
# report rendering

VERDICT_KEYS = (
    "fidelity_above_half",
    "fidelity_above_two_thirds",
    "n_product_below_one",
    "t_sum_above_one",
    "epr_violation",
)

def report_to_dict(report: CriteriaReport) -> dict:
    return {
        "N_X_out": report.N_X_out,
        "N_Y_out": report.N_Y_out,
        "T_X_out": report.T_X_out,
        "T_Y_out": report.T_Y_out,
        "fidelity": report.fidelity,
        "cv_products": list(report.cv_products),
        "verdicts": {k: report.verdicts[k] for k in VERDICT_KEYS},
        "t_sum_applicable": report.t_sum_applicable,
    }


_SWEEP_ROW = ",".join([NUMBER_FORMAT] * (len(SWEEP_CSV_COLUMNS) - 1) + ["%s"])
# Rows are rendered and joined a block at a time, so only one block's cells
# and row strings exist as Python objects at once.
_SWEEP_BLOCK_ROWS = 1024


def sweep_to_csv(table: SweepTable) -> str:
    """Render a sweep table as CSV text (header plus one row per grid point)."""
    with np.errstate(over="ignore"):
        n_product = table.N_out * table.N_out
    columns = (
        table.eta,
        table.s,
        table.squeezing_db,
        table.N_out,
        n_product,
        table.T_sum,
        table.F,
    )
    numbers = np.stack(columns) + 0.0  # no negative zeros, as in format_number
    verdicts = np.where(table.epr_violated, "true", "false")
    parts = [",".join(SWEEP_CSV_COLUMNS)]
    for start in range(0, len(table), _SWEEP_BLOCK_ROWS):
        block = slice(start, start + _SWEEP_BLOCK_ROWS)
        cells = zip(*numbers[:, block].tolist(), verdicts[block].tolist())
        parts.append("\n".join([_SWEEP_ROW % row for row in cells]))
    return "\n".join(parts) + "\n"


def _comparison_to_dict(c: Comparison) -> dict:
    return {
        "estimate": c.estimate,
        "stderr": c.stderr,
        "analytic": c.analytic,
        "z_score": c.z_score,
    }


def mc_report_to_dict(report: McReport) -> dict:
    return {
        "samples": report.samples,
        "seed": report.seed,
        "est_N_X": _comparison_to_dict(report.N_X),
        "est_N_Y": _comparison_to_dict(report.N_Y),
        "est_F": _comparison_to_dict(report.fidelity),
        "est_cv_products": [
            _comparison_to_dict(report.cv_product_r_given_m),
            _comparison_to_dict(report.cv_product_m_given_r),
        ],
        "max_abs_z": report.max_abs_z,
    }


def verification_to_dict(summary: VerificationSummary) -> dict:
    payload = {
        "trials": summary.trials,
        "seed": summary.seed,
        "identity_max_rel_error": summary.identity_max_rel_error,
        "bound_violations": summary.bound_violations,
        "worst_margin": summary.worst_margin,
        "budgets_drawn": summary.budgets_drawn,
        "first_failure": None,
    }
    if summary.first_failure is not None:
        t = summary.first_failure
        b = t.budget
        payload["first_failure"] = {
            "budget": {
                "v_Xm": b.v_Xm,
                "v_Ym": b.v_Ym,
                "v_Xr": b.v_Xr,
                "v_Yr": b.v_Yr,
                "c_XmXr": b.c_XmXr,
                "c_YmYr": b.c_YmYr,
            },
            "identity_rel_error": t.identity_rel_error,
            "n_value": t.n_value,
            "n_product": t.n_product,
        }
    return payload

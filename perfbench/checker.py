"""Output checker: recomputes every checked number in plain Python.

The checker never imports the package under test.  Sweep rows and reports
are rebuilt from the closed forms of the noise budget; the entanglement
verdict comes from the budget's conditional-variance products with the
package's strict ``VERDICT_MARGIN``.  Verdicts within ``VERDICT_BAND`` of
their threshold are not judged, since either answer is defensible there.

Each ``check_*`` function returns ``None`` when the output is correct and a
one-line reason otherwise.
"""

from __future__ import annotations

import json
import math

VERDICT_MARGIN = 1e-9
VERDICT_BAND = 1e-7
REL_TOL = 1e-8
ABS_TOL = 1e-10
Z_LIMIT = 5.0
IDENTITY_RTOL = 1e-9
MIN_UNCERTAINTY_TOL = 1e-9

SWEEP_HEADER = "eta,s,squeezing_db,n_out,n_product,t_sum,fidelity,epr_violated"
REPORT_VERDICTS = (
    "fidelity_above_half",
    "fidelity_above_two_thirds",
    "n_product_below_one",
    "t_sum_above_one",
    "epr_violation",
)


def _close(got, want: float) -> bool:
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return False
    if math.isinf(want):
        return got == want
    return abs(got - want) <= ABS_TOL + REL_TOL * abs(want)


def _verdict_ok(got, value: float, threshold: float, below: bool) -> bool:
    """Check a strict verdict ``value < threshold`` (or ``>``) unless too close."""
    if not isinstance(got, bool):
        return False
    if abs(value - threshold) <= VERDICT_BAND:
        return True
    return got == (value < threshold if below else value > threshold)


# ---------------------------------------------------------------------------
# closed forms


def _cond(v_a: float, v_b: float, c: float) -> float:
    if v_b == 0.0:
        return v_a
    v = v_a - c * c / v_b
    return v if v > 0.0 else 0.0


def _clamp(c: float, bound_sq: float) -> float:
    edge = math.sqrt(max(bound_sq, 0.0))
    return min(max(c, -edge), edge)


def budget_of(config: dict) -> tuple[float, float, float, float, float, float]:
    """The six budget scalars (v_Xm, v_Ym, v_Xr, v_Yr, c_XmXr, c_YmYr)."""
    if config["type"] == "epr":
        eta, s = config["eta"], config["s"]
        v = eta * (s + 1.0 / s) / 2.0 + (1.0 - eta)
        c = eta * (s - 1.0 / s) / 2.0
        return v, v, v, v, c, c
    m, r = config["measurement"], config["reconstruction"]
    b, cn = m["noise_B"]["cov"], r["noise_C"]["cov"]
    cross = config.get("cross_cov_BC", [[0.0, 0.0], [0.0, 0.0]])
    return (
        r["h_X"] ** 2 * b[0][0],
        r["h_Y"] ** 2 * b[1][1],
        cn[0][0],
        cn[1][1],
        r["h_X"] * cross[0][0],
        r["h_Y"] * cross[1][1],
    )


def budget_figures(budget) -> dict:
    """Output noises, fidelity and both conditional-variance products."""
    v_xm, v_ym, v_xr, v_yr, c_x, c_y = budget
    n_x = max(v_xm + v_xr + 2.0 * c_x, 0.0)
    n_y = max(v_ym + v_yr + 2.0 * c_y, 0.0)
    cx = _clamp(c_x, v_xm * v_xr)
    cy = _clamp(c_y, v_ym * v_yr)
    return {
        "N_X": n_x,
        "N_Y": n_y,
        "F": 2.0 / math.sqrt((2.0 + n_x) * (2.0 + n_y)),
        "cv_r_given_m": _cond(v_xr, v_xm, cx) * _cond(v_yr, v_ym, cy),
        "cv_m_given_r": _cond(v_xm, v_xr, cx) * _cond(v_ym, v_yr, cy),
    }


def _input_variances(config: dict) -> tuple[float, float]:
    inp = config.get("input") if config["type"] == "channel" else None
    return (inp["var_X"], inp["var_Y"]) if inp else (1.0, 1.0)


# ---------------------------------------------------------------------------
# per-command checks


def check_report(config: dict, exit_code: int, stdout: str, stderr: str):
    if exit_code != 0:
        return f"exit {exit_code}, expected 0"
    if "Traceback" in stderr:
        return "traceback on stderr"
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"report is not JSON: {exc.msg}"
    fig = budget_figures(budget_of(config))
    var_x, var_y = _input_variances(config)
    t_x, t_y = var_x / (var_x + fig["N_X"]), var_y / (var_y + fig["N_Y"])
    want = {
        "N_X_out": fig["N_X"],
        "N_Y_out": fig["N_Y"],
        "T_X_out": t_x,
        "T_Y_out": t_y,
        "fidelity": fig["F"],
    }
    for key, value in want.items():
        if not _close(payload.get(key), value):
            return f"{key} = {payload.get(key)!r}, expected {value:.12g}"
    products = payload.get("cv_products")
    if not (
        isinstance(products, list)
        and len(products) == 2
        and _close(products[0], fig["cv_r_given_m"])
        and _close(products[1], fig["cv_m_given_r"])
    ):
        return f"cv_products = {products!r}, expected {fig['cv_r_given_m']:.12g}, {fig['cv_m_given_r']:.12g}"
    verdicts = payload.get("verdicts")
    if not isinstance(verdicts, dict) or sorted(verdicts) != sorted(REPORT_VERDICTS):
        return f"verdict keys {verdicts!r}"
    limit = 1.0 - VERDICT_MARGIN
    cv_low = min(fig["cv_r_given_m"], fig["cv_m_given_r"])
    checks = (
        ("fidelity_above_half", fig["F"], 0.5 + VERDICT_MARGIN, False),
        ("fidelity_above_two_thirds", fig["F"], 2.0 / 3.0 + VERDICT_MARGIN, False),
        ("n_product_below_one", fig["N_X"] * fig["N_Y"], limit, True),
        ("t_sum_above_one", t_x + t_y, 1.0 + VERDICT_MARGIN, False),
        ("epr_violation", cv_low, limit, True),
    )
    for key, value, threshold, below in checks:
        if not _verdict_ok(verdicts[key], value, threshold, below):
            return f"verdict {key} = {verdicts[key]!r} at value {value:.12g}"
    applicable = abs(var_x * var_y - 1.0) <= MIN_UNCERTAINTY_TOL
    if payload.get("t_sum_applicable") is not applicable:
        return f"t_sum_applicable = {payload.get('t_sum_applicable')!r}"
    return None


def check_invalid(expect_exit, exit_code: int, stdout: str, stderr: str):
    """An invalid config must exit with its documented code, no traceback."""
    if "Traceback" in stderr:
        last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
        return f"traceback on stderr ({last})"
    if exit_code not in expect_exit:
        return f"exit {exit_code}, expected one of {list(expect_exit)}"
    return None


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    if n == 1:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n - 1)] + [hi]


def sweep_row(eta: float, s: float) -> tuple:
    """Expected (eta, s, squeezing_db, n_out, n_product, t_sum, F, verdict value)."""
    reduced = 1.0 - eta + eta * s
    n_out = 2.0 * reduced
    if s == 0.0:
        limit = 2.0 * (1.0 - eta)
        cv = limit * limit
        db = math.inf
    else:
        fig = budget_figures(budget_of({"type": "epr", "eta": eta, "s": s}))
        cv = min(fig["cv_r_given_m"], fig["cv_m_given_r"])
        db = -10.0 * math.log10(s)
    return (eta, s, db, n_out, n_out * n_out, 2.0 / (1.0 + n_out), 1.0 / (1.0 + reduced), cv)


def check_sweep(params: dict, exit_code: int, stdout: str, stderr: str):
    if exit_code != 0:
        return f"exit {exit_code}, expected 0"
    if "Traceback" in stderr:
        return "traceback on stderr"
    lines = stdout.split("\n")
    if lines[-1] != "":
        return "CSV does not end with a newline"
    lines.pop()
    if not lines or lines[0] != SWEEP_HEADER:
        return "CSV header mismatch"
    etas = _linspace(params["eta_min"], params["eta_max"], params["eta_steps"])
    esses = _linspace(params["s_min"], params["s_max"], params["s_steps"])
    if len(lines) - 1 != len(etas) * len(esses):
        return f"{len(lines) - 1} rows, expected {len(etas) * len(esses)}"
    row = 1
    for eta in etas:
        for s in esses:
            cells = lines[row].split(",")
            if len(cells) != 8:
                return f"row {row}: {len(cells)} cells"
            want = sweep_row(eta, s)
            try:
                got = [float(c) for c in cells[:7]]
            except ValueError:
                return f"row {row}: non-numeric cell in {lines[row]!r}"
            for col, (g, w) in enumerate(zip(got, want[:7])):
                if not _close(g, w):
                    return f"row {row} column {col}: {cells[col]} != {w:.12g}"
            if cells[7] not in ("true", "false"):
                return f"row {row}: verdict {cells[7]!r}"
            if not _verdict_ok(cells[7] == "true", want[7], 1.0 - VERDICT_MARGIN, True):
                return f"row {row}: verdict {cells[7]} at cv product {want[7]:.12g}"
            row += 1
    return None


def check_verify(params: dict, exit_code: int, stdout: str, stderr: str):
    if exit_code != 0:
        return f"exit {exit_code}, expected 0"
    if "Traceback" in stderr:
        return "traceback on stderr"
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"summary is not JSON: {exc.msg}"
    if payload.get("trials") != params["trials"]:
        return f"trials = {payload.get('trials')!r}, expected {params['trials']}"
    if payload.get("seed") != params["seed"]:
        return f"seed = {payload.get('seed')!r}, expected {params['seed']}"
    if payload.get("bound_violations") != 0 or payload.get("first_failure") is not None:
        return f"bound_violations = {payload.get('bound_violations')!r}"
    drawn = payload.get("budgets_drawn")
    if not isinstance(drawn, int) or drawn < params["trials"]:
        return f"budgets_drawn = {drawn!r}"
    rel = payload.get("identity_max_rel_error")
    if not isinstance(rel, (int, float)) or not 0.0 <= rel <= IDENTITY_RTOL:
        return f"identity_max_rel_error = {rel!r}"
    margin = payload.get("worst_margin")
    if not isinstance(margin, (int, float)) or margin < -VERDICT_MARGIN:
        return f"worst_margin = {margin!r}"
    return None


def check_mc(config: dict, params: dict, exit_code: int, stdout: str, stderr: str):
    if "Traceback" in stderr:
        return "traceback on stderr"
    if exit_code != 0:
        return f"exit {exit_code}, expected 0"
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"mc report is not JSON: {exc.msg}"
    if payload.get("samples") != params["samples"] or payload.get("seed") != params["seed"]:
        return f"samples/seed = {payload.get('samples')!r}/{payload.get('seed')!r}"
    fig = budget_figures(budget_of(config))
    entries = {
        "est_N_X": fig["N_X"],
        "est_N_Y": fig["N_Y"],
        "est_F": fig["F"],
    }
    products = payload.get("est_cv_products")
    if not isinstance(products, list) or len(products) != 2:
        return "est_cv_products missing"
    pairs = [(payload.get(k), v, k) for k, v in entries.items()]
    pairs += [
        (products[0], fig["cv_r_given_m"], "est_cv_products[0]"),
        (products[1], fig["cv_m_given_r"], "est_cv_products[1]"),
    ]
    worst = 0.0
    for entry, analytic, name in pairs:
        if not isinstance(entry, dict) or not _close(entry.get("analytic"), analytic):
            return f"{name}.analytic != {analytic:.12g}"
        z = entry.get("z_score")
        if not isinstance(z, (int, float)) or not math.isfinite(z):
            return f"{name}.z_score = {z!r}"
        worst = max(worst, abs(z))
    max_z = payload.get("max_abs_z")
    if not _close(max_z, worst):
        return f"max_abs_z = {max_z!r}, entries give {worst:.12g}"
    if not max_z < Z_LIMIT:
        return f"max_abs_z = {max_z:.3g} >= {Z_LIMIT}"
    return None


def check(inv, exit_code: int, stdout: str, stderr: str):
    """Dispatch on the invocation kind; ``None`` means the output is correct."""
    if inv.kind == "report":
        return check_report(inv.config, exit_code, stdout, stderr)
    if inv.kind == "invalid":
        return check_invalid(inv.expect_exit, exit_code, stdout, stderr)
    if inv.kind == "sweep":
        return check_sweep(inv.params, exit_code, stdout, stderr)
    if inv.kind == "verify":
        return check_verify(inv.params, exit_code, stdout, stderr)
    if inv.kind == "mc":
        return check_mc(inv.config, inv.params, exit_code, stdout, stderr)
    raise ValueError(f"unknown invocation kind {inv.kind!r}")

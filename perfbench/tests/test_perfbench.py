"""Tests of the benchmark's own code: generator, tail rule, checker, compare.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import contextlib
import dataclasses
import io
import json

import pytest

import checker
import compare
import inputs
import summary
from cvteleport import cli


def _as_data(invs):
    return [dataclasses.asdict(inv) for inv in invs]


# ---------------------------------------------------------------------------
# generator


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_generator_is_deterministic(workload, tmp_path):
    for index in (0, 3):
        a = inputs.batch(workload, 7, index)
        b = inputs.batch(workload, 7, index)
        assert json.dumps(_as_data(a)) == json.dumps(_as_data(b))
    assert json.dumps(_as_data(inputs.batch(workload, 7, 0))) != json.dumps(
        _as_data(inputs.batch(workload, 8, 0))
    )
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    for d in (first, second):
        for inv in inputs.batch(workload, 7, 0):
            inputs.materialize(inv, d)
    assert sorted(p.name for p in first.iterdir()) == sorted(p.name for p in second.iterdir())
    for p in first.iterdir():
        assert p.read_bytes() == (second / p.name).read_bytes()


def test_report_batches_keep_a_fixed_invalid_share():
    for seed in range(5):
        invs = inputs.batch("report-configs", seed, seed)
        invalid = [inv for inv in invs if inv.kind == "invalid"]
        assert len(invalid) == 2 * len(inputs.INVALID_KINDS)
        assert {inv.argv[0] for inv in invalid} == {"report", "mc"}
        assert sum(inv.units for inv in invs) == (
            inputs.EPR_PER_BATCH + inputs.CHANNEL_PER_BATCH + len(inputs.INVALID_KINDS)
        )


def test_defect_probe_is_deterministic_and_outside_the_batches():
    probe = inputs.defect_probe(5)
    assert json.dumps(_as_data(probe)) == json.dumps(_as_data(inputs.defect_probe(5)))
    assert len(probe) == 2 * len(inputs.KNOWN_DEFECT_KINDS)
    assert all(inv.kind == "invalid" and inv.units == 0 for inv in probe)
    assert not set(inputs.KNOWN_DEFECT_KINDS) & set(inputs.INVALID_KINDS)
    labels = {inv.label for inv in inputs.batch("report-configs", 5, 0)}
    assert not any(kind in label for kind in inputs.KNOWN_DEFECT_KINDS for label in labels)


def test_sweep_grid_has_s_zero_column_and_anti_squeezing():
    inv = inputs.batch("grid-sweep", 3, 0)[0]
    assert inv.params["s_min"] == 0.0 and inv.params["s_max"] > 1.0
    assert inv.units == inputs.GRID_STEPS**2


# ---------------------------------------------------------------------------
# tail-percentile rule


@pytest.mark.parametrize(
    "n, percentile",
    [(20, 50.0), (37, 50.0), (40, 75.0), (100, 90.0), (200, 95.0), (1000, 99.0)],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, percentile):
    values = [float(i) for i in range(n, 0, -1)]
    t = summary.tail(values)
    assert t["percentile"] == percentile and t["rule_met"]
    assert t["beyond"] == sum(1 for v in values if v > t["value"]) >= summary.TAIL_MIN_BEYOND
    higher = [p for p in summary.TAIL_LADDER if p > percentile]
    for p in higher:
        value = summary.percentile(values, p)
        assert sum(1 for v in values if v > value) < summary.TAIL_MIN_BEYOND


def test_tail_with_too_few_samples_reports_the_maximum():
    t = summary.tail([float(i) for i in range(19)])
    assert t == {"value": 18.0, "percentile": 100.0, "beyond": 0, "rule_met": False}


# ---------------------------------------------------------------------------
# checker, against real program output


def _run(argv, tmp_path):
    out = tmp_path / "out.txt"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--out", str(out)])
    return code, out.read_text() if out.exists() else "", err.getvalue()


def _sweep_params():
    return {
        "eta_min": 0.1,
        "eta_max": 0.95,
        "eta_steps": 7,
        "s_min": 0.0,
        "s_max": 2.5,
        "s_steps": 6,
    }


def _sweep_output(tmp_path):
    params = _sweep_params()
    argv = ["sweep"]
    for key, value in params.items():
        argv += ["--" + key.replace("_", "-"), repr(value)]
    return params, _run(argv, tmp_path)


def test_checker_accepts_real_sweep(tmp_path):
    params, (code, stdout, stderr) = _sweep_output(tmp_path)
    assert checker.check_sweep(params, code, stdout, stderr) is None


def test_checker_catches_corrupted_csv_row(tmp_path):
    params, (code, stdout, stderr) = _sweep_output(tmp_path)
    lines = stdout.split("\n")
    cells = lines[9].split(",")
    cells[5] = repr(float(cells[5]) * (1 + 1e-6))
    lines[9] = ",".join(cells)
    reason = checker.check_sweep(params, code, "\n".join(lines), stderr)
    assert reason is not None and "row 9" in reason

    flipped = stdout.split("\n")
    cells = flipped[4].split(",")
    cells[7] = "false" if cells[7] == "true" else "true"
    flipped[4] = ",".join(cells)
    assert "verdict" in checker.check_sweep(params, code, "\n".join(flipped), stderr)

    missing = "\n".join(stdout.split("\n")[:-2]) + "\n"
    assert "rows" in checker.check_sweep(params, code, missing, stderr)


def test_checker_accepts_real_reports(tmp_path):
    for inv in inputs.batch("report-configs", 11, 0):
        if inv.kind != "report":
            continue
        argv = inputs.materialize(inv, tmp_path)
        code, stdout, stderr = _run(argv, tmp_path)
        assert checker.check(inv, code, stdout, stderr) is None, inv.label


def test_checker_catches_wrong_report_numbers(tmp_path):
    inv = inputs.batch("report-configs", 11, 0)[0]
    code, stdout, stderr = _run(inputs.materialize(inv, tmp_path), tmp_path)
    payload = json.loads(stdout)
    payload["fidelity"] *= 1.001
    assert "fidelity" in checker.check(inv, code, json.dumps(payload), stderr)


def test_checker_catches_wrong_exit_code():
    invalid = next(
        inv for inv in inputs.batch("report-configs", 1, 0) if inv.label.endswith("unknown_key-report")
    )
    assert checker.check(invalid, 1, "", "config error: unknown keys") is None
    assert "exit 0" in checker.check(invalid, 0, "{}", "")
    assert "exit 2" in checker.check(invalid, 2, "", "validity error")
    assert "traceback" in checker.check(invalid, 1, "", "Traceback (most recent call last):\nValueError: x")

    valid = inputs.batch("report-configs", 1, 0)[0]
    assert "exit 2" in checker.check(valid, 2, "", "validity error: x")


def test_checker_judges_verify_summary():
    params = {"trials": 10, "seed": 5}
    good = {
        "trials": 10,
        "seed": 5,
        "identity_max_rel_error": 1e-15,
        "bound_violations": 0,
        "worst_margin": 0.5,
        "budgets_drawn": 17,
        "first_failure": None,
    }
    assert checker.check_verify(params, 0, json.dumps(good), "") is None
    assert "trials" in checker.check_verify(params, 0, json.dumps({**good, "trials": 9}), "")
    bad = json.dumps({**good, "bound_violations": 1})
    assert "bound_violations" in checker.check_verify(params, 0, bad, "")
    assert checker.check_verify(params, 4, bad, "") == "exit 4, expected 0"


def test_checker_accepts_real_mc_and_rejects_large_z(tmp_path):
    inv = inputs.batch("mc-crosscheck", 2, 0)[0]
    argv = inputs.materialize(inv, tmp_path)
    argv[argv.index("--samples") + 1] = "10000"
    params = {**inv.params, "samples": 10000}
    code, stdout, stderr = _run(argv, tmp_path)
    assert checker.check_mc(inv.config, params, code, stdout, stderr) is None
    payload = json.loads(stdout)
    payload["est_N_X"]["z_score"] = 6.0
    payload["max_abs_z"] = 6.0
    assert ">= 5" in checker.check_mc(inv.config, params, code, json.dumps(payload), stderr)


# ---------------------------------------------------------------------------
# compare mode


def test_compare_verdicts():
    assert compare.verdict([100, 101, 99, 100], [130, 131, 129, 130], 0.1, "lower")[0] == "worse"
    assert compare.verdict([100, 101, 99, 100], [80, 81, 79, 80], 0.1, "lower")[0] == "better"
    assert compare.verdict([100, 101, 99, 100], [100, 102, 98, 100], 0.1, "lower")[0] == "unchanged"
    assert compare.verdict([100, 140, 70, 100], [100, 150, 60, 105], 0.1, "lower")[0] == "unresolved"
    assert compare.verdict([10.0, 10.1, 9.9], [5.0, 5.1, 4.9], 0.1, "higher")[0] == "worse"

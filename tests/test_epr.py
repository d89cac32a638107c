"""Closed forms and budget mapping for the shared-EPR scenario."""

import json
import math
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest

import cvteleport.cli as cli

from cvteleport.criteria import (
    FIDELITY_CLASSICAL_BOUND,
    FIDELITY_CV_BOUND,
    VERDICT_MARGIN,
    _fields,
    _output_noise,
    _transfer_fidelity,
    _violates,
    epr_criterion,
)
from cvteleport.epr import (
    MAX_RESOLVED_VARIANCE,
    MAX_SWEEP_S,
    SWEEP_CSV_COLUMNS,
    EprScenario,
    SweepPoint,
    SweepTable,
    _figures,
    closed_form,
    scenario_report,
    sweep,
    to_noise_budget,
)
from cvteleport.errors import ConfigError
from cvteleport.serialize import (
    format_number,
    sweep_to_csv,
    to_json,
)
from oracle import epr_transfer_fidelity, fidelity_general


def verdicts(cond):
    """The sweep's conditional-variance verdict on closed-form ``cond``."""
    return _violates(cond * cond, cond * cond)


class TestScenarioValidation:
    def test_eta_domain(self):
        with pytest.raises(ValueError, match="eta"):
            EprScenario(1.2, 0.5)
        with pytest.raises(ValueError, match="eta"):
            EprScenario(-0.1, 0.5)

    def test_s_domain(self):
        with pytest.raises(ValueError, match="s must"):
            EprScenario(0.5, -0.01)

    def test_squeezing_db(self):
        assert EprScenario(1.0, 1.0).squeezing_db == 0.0
        assert EprScenario(1.0, 0.5).squeezing_db == pytest.approx(3.0103, abs=1e-4)
        assert EprScenario(1.0, 0.0).squeezing_db == np.inf


class TestClosedForm:
    def test_perfect_resource(self):
        pt = closed_form(EprScenario(1.0, 0.0))
        assert (pt.N_out, pt.T_sum, pt.F) == (0.0, 2.0, 1.0)

    def test_boundary_point(self):
        pt = closed_form(EprScenario(0.5, 0.0))
        assert pt.N_out == 1.0
        assert pt.T_sum == 1.0
        assert pt.F == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_no_transmission_is_classical(self):
        for s in (0.0, 0.3, 1.0):
            pt = closed_form(EprScenario(0.0, s))
            assert pt.N_out == 2.0
            assert pt.T_sum == pytest.approx(2.0 / 3.0, abs=1e-15)
            assert pt.F == 0.5
            assert not pt.epr_violated

    def test_perfect_squeezing_noise_scale(self):
        etas = [0.0, 0.25, 0.5, 0.75, 1.0]
        want = [2.0, 1.5, 1.0, 0.5, 0.0]
        got = [closed_form(EprScenario(e, 0.0)).N_out for e in etas]
        assert got == want

    def test_no_squeezing_gives_classical_fidelity_for_any_eta(self):
        for eta in np.linspace(0.0, 1.0, 11):
            assert closed_form(EprScenario(float(eta), 1.0)).F == 0.5

    def test_consistency_between_figures(self):
        # one reduced noise parameter drives all three closed forms
        for eta in np.linspace(0.0, 1.0, 21):
            for s in np.linspace(0.0, 1.0, 11):
                pt = closed_form(EprScenario(float(eta), float(s)))
                assert abs(pt.F - fidelity_general(pt.N_out, pt.N_out)) <= 1e-12
                t_x, t_y, _ = _transfer_fidelity(pt.N_out, pt.N_out)
                assert abs(pt.T_sum - (t_x + t_y)) <= 1e-12

    def test_thresholds_coincide(self):
        # N = 1, T_sum = 1 and F = 2/3 all describe the same (eta, s) locus
        for s in np.linspace(0.0, 0.49, 8):
            eta_star = 0.5 / (1.0 - s)
            pt = closed_form(EprScenario(eta_star, float(s)))
            assert abs(pt.N_out - 1.0) <= 1e-12
            assert abs(pt.T_sum - 1.0) <= 1e-12
            assert abs(pt.F - 2.0 / 3.0) <= 1e-12

    def test_noise_monotonicity(self):
        etas = np.linspace(0.0, 1.0, 21)
        for s in (0.0, 0.4, 0.9):
            n = [closed_form(EprScenario(float(e), s)).N_out for e in etas]
            assert all(a > b for a, b in zip(n, n[1:]))
        esses = np.linspace(0.1, 1.5, 15)
        for eta in (0.3, 0.8, 1.0):
            n = [closed_form(EprScenario(eta, float(t))).N_out for t in esses]
            assert all(a < b for a, b in zip(n, n[1:]))


class TestNoiseBudgetMapping:
    def test_no_squeezing_gives_uncorrelated_vacua(self):
        b = to_noise_budget(EprScenario(1.0, 1.0))
        assert (b.v_Xm, b.v_Xr, b.c_XmXr) == (1.0, 1.0, 0.0)
        assert _output_noise(*_fields(b).reshape(3, 2)).tolist() == [2.0, 2.0]

    def test_pure_state_budget_values(self):
        sc = EprScenario(1.0, 0.25)
        b = to_noise_budget(sc)
        assert b.v_Xm == pytest.approx((0.25 + 4.0) / 2.0, abs=1e-15)
        assert b.c_XmXr == pytest.approx((0.25 - 4.0) / 2.0, abs=1e-15)

    def test_budget_reproduces_closed_form_noise(self):
        # 2**-27 and 2**27 are the first s accepted on either side of the
        # MAX_RESOLVED_VARIANCE edge at eta = 1, and so at every eta: the
        # next float outward has no budget
        for s, outward in ((2.0**-27, 0.0), (2.0**27, np.inf)):
            with pytest.raises(ConfigError, match="resolves the criteria"):
                to_noise_budget(EprScenario(1.0, float(np.nextafter(s, outward))))
        for eta in np.linspace(0.0, 1.0, 11):
            for s in (2.0**-27, 1e-4, 0.1, 0.5, 1.0, 2.0, 2.0**27):
                sc = EprScenario(float(eta), s)
                n_x, n_y = _output_noise(*_fields(to_noise_budget(sc)).reshape(3, 2))
                want = closed_form(sc).N_out
                v = eta * (s + 1.0 / s) / 2.0 + (1.0 - eta)
                assert abs(n_x - want) <= 1e-12 * max(1.0, v)
                assert n_x == n_y

    def test_budget_satisfies_channel_invariants(self):
        for eta in np.linspace(0.0, 1.0, 11):
            for s in (0.01, 0.3, 0.7, 1.0):
                b = to_noise_budget(EprScenario(float(eta), s))
                assert b.v_Xm * b.v_Ym >= 1.0 - 1e-9
                assert b.v_Xr * b.v_Yr >= 1.0 - 1e-9
                assert b.c_XmXr**2 <= b.v_Xm * b.v_Xr + 1e-9

    def test_perfect_squeezing_has_no_budget(self):
        with pytest.raises(ValueError, match="perfect squeezing"):
            to_noise_budget(EprScenario(0.5, 0.0))

    def test_boundary_noise_product_approaches_one(self):
        # the s = 0 boundary point is reachable as a limit of finite budgets
        for s in (1e-4, 1e-6, 1e-8):
            n_x, n_y = _output_noise(*_fields(to_noise_budget(EprScenario(0.5, s))).reshape(3, 2))
            assert abs(n_x * n_y - 1.0) <= 3.0 * s


class TestCriterionRegion:
    def test_low_efficiency_never_violates(self):
        for eta in (0.0, 0.25, 0.5):
            for s in (0.0, 0.1, 0.5, 0.9, 1.0):
                assert not closed_form(EprScenario(eta, s)).epr_violated

    def test_high_efficiency_violates_for_any_squeezing(self):
        for eta in (0.6, 0.75, 1.0):
            for s in (0.0, 0.1, 0.45, 0.75, 0.99):
                assert closed_form(EprScenario(eta, s)).epr_violated, (eta, s)

    def test_no_squeezing_never_violates(self):
        for eta in np.linspace(0.0, 1.0, 11):
            assert not closed_form(EprScenario(float(eta), 1.0)).epr_violated

    def test_anti_squeezing_violates_like_squeezing(self):
        # the resource is symmetric under s -> 1/s up to a quadrature swap
        assert closed_form(EprScenario(0.9, 1.0 / 0.3)).epr_violated
        assert not closed_form(EprScenario(0.4, 1.0 / 0.3)).epr_violated

    def test_verdict_limit_at_perfect_squeezing_matches_nearby_s(self):
        for eta in np.linspace(0.0, 1.0, 21):
            at_zero = closed_form(EprScenario(float(eta), 0.0)).epr_violated
            nearby = closed_form(EprScenario(float(eta), 1e-7)).epr_violated
            assert at_zero == nearby, eta
        # at eta = 0 each conditional variance is 1 for every s: the s -> 0
        # limit 2*(1 - eta) holds for eta > 0 only
        assert not closed_form(EprScenario(0.0, 0.0)).epr_violated
        assert not closed_form(EprScenario(0.0, 1e-6)).epr_violated
        products = epr_criterion(to_noise_budget(EprScenario(0.0, 1e-6)))
        assert products == (1.0, 1.0)
        # where the budget's moments would overflow (1/s at subnormal s,
        # v**2 at s = 1e200) the closed form gives the same limit verdicts
        cond = _figures(np.array([[0.0], [0.3], [0.8], [1.0]]), np.array([5e-324, 1e200]))[1]
        assert verdicts(cond).ravel().tolist() == [
            False, False, False, False, True, True, True, True
        ]

    def test_extreme_s_takes_the_limit_and_has_no_budget(self):
        # here v ~ 1.5e16: its rounding swamps v - c**2/v, which can read 0
        for s in (1e-17, 1e17):
            assert not closed_form(EprScenario(0.3, s)).epr_violated
            assert closed_form(EprScenario(0.8, s)).epr_violated
            with pytest.raises(ConfigError, match="resolves the criteria"):
                to_noise_budget(EprScenario(0.3, s))
        # at eta = 0, v = 1 for every s: the budget stays resolved
        assert epr_criterion(to_noise_budget(EprScenario(0.0, 1e-17))) == (1.0, 1.0)
        # just inside the bound the budget verdict still matches the sweep
        for eta in (0.45, 0.55):
            s = 1.01 * eta / (2.0 * MAX_RESOLVED_VARIANCE)
            assert to_noise_budget(EprScenario(eta, s)).v_Xm <= MAX_RESOLVED_VARIANCE
            verdict = _violates(*epr_criterion(to_noise_budget(EprScenario(eta, s))))
            assert verdict == closed_form(EprScenario(eta, s)).epr_violated == (eta > 0.5)

    def test_budget_and_closed_form_verdicts_agree(self):
        for eta in np.linspace(0.0, 1.0, 11):
            for s in (0.05, 0.3, 0.6, 1.0):
                sc = EprScenario(float(eta), s)
                assert (
                    closed_form(sc).epr_violated
                    == _violates(*epr_criterion(to_noise_budget(sc)))
                )


def exact_figures(eta: float, s: float) -> dict:
    """The scenario's figures at float (eta, s), exactly, from the budget.

    ``cond`` is the budget's ``v - c**2/v``, not the closed form under test.
    """
    e, s = Fraction(eta), Fraction(s)
    reduced = 1 - e + e * s
    v = e * (s + 1 / s) / 2 + 1 - e
    c = e * (s - 1 / s) / 2
    cond = v - c * c / v
    return {
        "N_X_out": 2 * reduced,
        "T_X_out": 1 / (1 + 2 * reduced),
        "fidelity": 1 / (1 + reduced),
        "cv_product": cond * cond,
    }


def exact_verdicts(x: dict) -> dict:
    """The strict verdicts on exact figures, against the code's float bounds."""
    below = Fraction(1.0 - VERDICT_MARGIN)
    return {
        "fidelity_above_half": x["fidelity"]
        > Fraction(FIDELITY_CLASSICAL_BOUND + VERDICT_MARGIN),
        "fidelity_above_two_thirds": x["fidelity"]
        > Fraction(FIDELITY_CV_BOUND + VERDICT_MARGIN),
        "n_product_below_one": x["N_X_out"] ** 2 < below,
        "t_sum_above_one": 2 * x["T_X_out"] > Fraction(1.0 + VERDICT_MARGIN),
        "epr_violation": x["cv_product"] < below,
    }


def rendered(q: Fraction) -> float:
    """The exact value's 12-digit rendering, as the JSON output reads it.

    The exact value is rounded to the nearest double first: the inputs here
    put some exact values within an ulp of a 12-digit tie, where no double
    output can render like the exact value itself.
    """
    return float(format_number(float(q)))


# rational eta, and s from 1e-7 to 1e7, all inside report's accepted domain
ORACLE_ETA = [k / 64 for k in range(65)]
ORACLE_S = sorted({10.0**k for k in range(-7, 8)} | {3.0**k for k in range(-14, 15)})


class TestExactFigures:
    def test_report_matches_the_exact_values(self, tmp_path, capsys):
        path = tmp_path / "epr.json"
        for eta in ORACLE_ETA:
            for s in ORACLE_S:
                exact = exact_figures(eta, s)
                report = scenario_report(EprScenario(eta, s))
                got = {
                    "N_X_out": report.N_X_out,
                    "T_X_out": report.T_X_out,
                    "fidelity": report.fidelity,
                    "cv_product": report.cv_products[0],
                }
                for key, value in got.items():
                    err = abs(Fraction(value) - exact[key])
                    assert err <= Fraction(1e-15) * exact[key], (eta, s, key)
                text = to_json(asdict(report))
                if eta * 8 == int(eta * 8):  # the CLI prints the same bytes
                    path.write_text(json.dumps({"type": "epr", "eta": eta, "s": s}))
                    assert cli.main(["report", "--config", str(path)]) == 0
                    assert capsys.readouterr().out == text
                payload = json.loads(text)
                for key in ("N_X_out", "N_Y_out"):
                    assert payload[key] == rendered(exact["N_X_out"]), (eta, s, key)
                for key in ("T_X_out", "T_Y_out"):
                    assert payload[key] == rendered(exact["T_X_out"]), (eta, s, key)
                assert payload["fidelity"] == rendered(exact["fidelity"]), (eta, s)
                want = rendered(exact["cv_product"])
                assert payload["cv_products"] == [want, want], (eta, s)
                assert payload["verdicts"] == exact_verdicts(exact), (eta, s)

    def test_sweep_verdicts_match_the_exact_verdict_near_half(self):
        # eta = 1/2 exactly is where the budget route misjudged tiny s
        etas = np.linspace(0.5 - 1e-5, 0.5 + 1e-5, 41)
        esses = np.geomspace(1e-10, 1e-5, 501)
        got = sweep(etas, esses).epr_violated
        below = Fraction(1.0 - VERDICT_MARGIN)
        want = [
            exact_figures(float(eta), float(s))["cv_product"] < below
            for eta in etas
            for s in esses
        ]
        assert got.tolist() == want

    def test_symmetric_under_reciprocal_s(self):
        eta = np.linspace(0.0, 1.0, 101)
        esses = np.concatenate([np.geomspace(1e-300, 0.9, 301), np.linspace(0.9, 1.0, 51)])
        cond = _figures(eta[:, None], esses)[1]
        mirrored = _figures(eta[:, None], 1.0 / esses)[1]
        assert (abs(cond - mirrored) <= 4 * np.spacing(np.maximum(cond, mirrored))).all()
        assert np.array_equal(verdicts(cond), verdicts(mirrored))
        # 1/s runs past the sweep's s bound; on this side the sweep's verdict
        # is the closed form's
        assert np.array_equal(sweep(eta, esses).epr_violated, verdicts(cond).ravel())

    def test_array_kernel_matches_scalar_calls_bitwise(self):
        # the sweep evaluates the kernel on arrays, scenario_report on floats
        rng = np.random.default_rng(1202)
        eta = np.concatenate([[0.0, 1.0, 0.5, 0.5], rng.uniform(0.0, 1.0, 1996)])
        esses = np.concatenate([[1e-6, 1e6, 1.0, 0.75], 10.0 ** rng.uniform(-6.0, 6.0, 1996)])
        columns = _figures(eta, esses)
        for i, (e, s) in enumerate(zip(eta.tolist(), esses.tolist())):
            want = tuple(map(float, _figures(e, s)))
            assert tuple(c[i].item() for c in columns) == want, (e, s)


# negative zero, the s = 0 and subnormal-s limits, s on both sides of 1, and
# the largest s a sweep accepts
MIXED_ETA = [-0.0, 0.3, 0.5, 0.55, 0.8, 1.0]
MIXED_S = [0.0, 5e-324, 1e-9, 0.3, 0.75, 1.0, 1.7, 1e8, MAX_SWEEP_S]


def reference_csv(points) -> str:
    """The sweep CSV rendered one point and one cell at a time."""
    lines = [",".join(SWEEP_CSV_COLUMNS)]
    for p in points:
        db = math.inf if p.s == 0.0 else -10.0 * math.log10(p.s)
        cells = [p.eta, p.s, db, p.N_out, p.N_out * p.N_out, p.T_sum, p.F]
        verdict = "true" if p.epr_violated else "false"
        lines.append(",".join([*map(format_number, cells), verdict]))
    return "\n".join(lines) + "\n"


class TestSweep:
    def test_columns_match_the_per_point_oracle(self):
        table = sweep(MIXED_ETA, MIXED_S)
        assert isinstance(table, SweepTable)
        assert len(table) == len(MIXED_ETA) * len(MIXED_S)
        expected = [
            closed_form(EprScenario(eta, s)) for eta in MIXED_ETA for s in MIXED_S
        ]
        assert [table[i] for i in range(len(table))] == expected
        assert list(table) == expected
        for point in table:
            assert isinstance(point, SweepPoint)
            assert all(type(x) is float for x in (point.eta, point.s, point.N_out))
            assert type(point.epr_violated) is bool

    def test_csv_matches_the_per_row_rendering(self):
        table = sweep(MIXED_ETA, MIXED_S)
        text = sweep_to_csv(table)
        assert text == reference_csv(table)
        assert "-0," not in text and ",inf," in text
        # more rows than one rendering block
        table = sweep(np.linspace(0.0, 1.0, 41), np.linspace(0.0, 3.0, 31))
        assert sweep_to_csv(table) == reference_csv(table)

    def test_transfer_and_fidelity_equal_the_closed_forms_bitwise(self):
        # T_sum and F come from the report kernel; over the whole accepted
        # domain they equal 2/(1 + 2r) and 1/(1 + r) bit for bit
        rng = np.random.default_rng(2101)
        eta = np.concatenate([[0.0, 0.5, 1.0], rng.uniform(0.0, 1.0, 317)])
        esses = np.concatenate(
            [
                [0.0, 5e-324, 1e-300, 1.0, MAX_SWEEP_S],
                10.0 ** rng.uniform(-300.0, np.log10(MAX_SWEEP_S), 200),
                rng.uniform(0.0, 3.0, 115),
            ]
        )
        table = sweep(eta, esses)
        assert len(table) >= 100_000
        t_sum, f = epr_transfer_fidelity(*np.meshgrid(eta, esses, indexing="ij"))
        assert table.T_sum.tobytes() == t_sum.tobytes()
        assert table.F.tobytes() == f.tobytes()

    def test_s_above_the_bound_is_rejected(self):
        for s in (1e200, 1.7e308):
            with pytest.raises(ValueError, match="s must be <="):
                sweep([1.0], [1.0, s])
            with pytest.raises(ValueError, match="s must be <="):
                closed_form(EprScenario(1.0, s))
            with pytest.raises(ValueError, match="s must be <="):
                sweep_to_csv(sweep([1.0], [s]))
        # the scenario keeps its domain: the report takes the eta = 0 limit
        assert scenario_report(EprScenario(0.0, 1e200)).fidelity == 0.5

    def test_every_csv_cell_is_finite_at_the_bound(self):
        # warnings are errors here, so an overflow anywhere would raise
        row = sweep_to_csv(sweep([1.0], [MAX_SWEEP_S])).splitlines()[1].split(",")
        assert np.isfinite([float(cell) for cell in row[:-1]]).all()

    def test_default_grid_shape(self):
        points = sweep(np.linspace(0.0, 1.0, 101), np.linspace(0.0, 1.0, 11))
        assert len(points) == 101 * 11
        assert points[0].eta == 0.0 and points[0].s == 0.0
        # eta varies slowest
        assert points[10].eta == 0.0 and points[10].s == 1.0
        assert points[11].eta == pytest.approx(0.01)

    def test_default_grids(self):
        # the command line's defaults are the one definition of the grid
        args = cli._build_parser().parse_args(["sweep"])
        eta = cli._grid(args.eta_min, args.eta_max, args.eta_steps, "eta", (0.0, 1.0))
        s = cli._grid(args.s_min, args.s_max, args.s_steps, "s", (0.0, cli.MAX_SWEEP_S))
        assert len(eta) == 101 and (eta[0], eta[-1]) == (0.0, 1.0)
        assert list(s) == pytest.approx(
            [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
        )

    def test_single_point_grid(self):
        points = sweep([0.5], [0.0])
        assert len(points) == 1
        assert (points[0].N_out, points[0].T_sum) == (1.0, 1.0)

    def test_csv_header_and_rows(self):
        text = sweep_to_csv(sweep([0.5], [0.0]))
        lines = text.split("\n")
        assert lines[0] == "eta,s,squeezing_db,n_out,n_product,t_sum,fidelity,epr_violated"
        assert lines[1] == "0.5,0,inf,1,1,1,0.666666666667,false"
        assert text.endswith("\n")

    def test_csv_is_byte_stable(self):
        grid_e = np.linspace(0.0, 1.0, 7)
        grid_s = [0.0, 0.5, 1.0]
        a = sweep_to_csv(sweep(grid_e, grid_s))
        b = sweep_to_csv(sweep(grid_e, grid_s))
        assert a == b
        assert "-0," not in a

    def test_csv_row_count_matches_grid(self):
        text = sweep_to_csv(sweep(np.linspace(0, 1, 5), [0.2, 0.8]))
        assert text.count("\n") == 1 + 5 * 2

"""Closed forms and budget mapping for the shared-EPR scenario."""

import numpy as np
import pytest

from cvteleport.channel import (
    equivalent_output_noise,
    transfer_coefficients,
    vacuum_input,
)
from cvteleport.criteria import epr_criterion, fidelity_general
from cvteleport.epr import (
    MAX_RESOLVED_VARIANCE,
    SWEEP_CSV_COLUMNS,
    EprScenario,
    SweepPoint,
    SweepTable,
    closed_form,
    default_eta_grid,
    default_s_grid,
    sweep,
    to_noise_budget,
)
from cvteleport.errors import ConfigError
from cvteleport.serialize import format_number, sweep_to_csv


class TestScenarioValidation:
    def test_eta_domain(self):
        with pytest.raises(ValueError, match="eta"):
            EprScenario(1.2, 0.5)
        with pytest.raises(ValueError, match="eta"):
            EprScenario(-0.1, 0.5)

    def test_s_domain(self):
        with pytest.raises(ValueError, match="s must"):
            EprScenario(0.5, -0.01)

    def test_anti_squeezed_flagged_not_rejected(self):
        sc = EprScenario(0.5, 1.5)
        assert sc.is_anti_squeezed
        assert not EprScenario(0.5, 1.0).is_anti_squeezed

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
                t_x, t_y = transfer_coefficients(pt.N_out, pt.N_out, vacuum_input())
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
        assert equivalent_output_noise(b) == (2.0, 2.0)

    def test_pure_state_budget_values(self):
        sc = EprScenario(1.0, 0.25)
        b = to_noise_budget(sc)
        assert b.v_Xm == pytest.approx((0.25 + 4.0) / 2.0, abs=1e-15)
        assert b.c_XmXr == pytest.approx((0.25 - 4.0) / 2.0, abs=1e-15)

    def test_budget_reproduces_closed_form_noise(self):
        for eta in np.linspace(0.0, 1.0, 11):
            for s in (1e-4, 0.1, 0.5, 1.0, 2.0):
                sc = EprScenario(float(eta), s)
                n_x, n_y = equivalent_output_noise(to_noise_budget(sc))
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
            n_x, n_y = equivalent_output_noise(to_noise_budget(EprScenario(0.5, s)))
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
        products = epr_criterion(to_noise_budget(EprScenario(0.0, 1e-6))).products
        assert products == (1.0, 1.0)
        # where the budget's moments overflow (1/s at subnormal s, v**2 at
        # s = 1e200) the sweep takes the same limit
        points = sweep([0.0, 0.3, 0.8, 1.0], [5e-324, 1e200])
        assert [p.epr_violated for p in points] == [
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
        assert epr_criterion(to_noise_budget(EprScenario(0.0, 1e-17))).products == (1.0, 1.0)
        # just inside the bound the budget verdict still matches the sweep
        for eta in (0.45, 0.55):
            s = 1.01 * eta / (2.0 * MAX_RESOLVED_VARIANCE)
            assert to_noise_budget(EprScenario(eta, s)).v_Xm <= MAX_RESOLVED_VARIANCE
            verdict = epr_criterion(to_noise_budget(EprScenario(eta, s))).violated
            assert verdict == closed_form(EprScenario(eta, s)).epr_violated == (eta > 0.5)

    def test_budget_and_closed_form_verdicts_agree(self):
        for eta in np.linspace(0.0, 1.0, 11):
            for s in (0.05, 0.3, 0.6, 1.0):
                sc = EprScenario(float(eta), s)
                assert (
                    closed_form(sc).epr_violated
                    == epr_criterion(to_noise_budget(sc)).violated
                )


# negative zero, the s = 0 and subnormal-s limits, s on both sides of 1, and
# s = 1e200, where N_out**2 overflows
MIXED_ETA = [-0.0, 0.3, 0.5, 0.55, 0.8, 1.0]
MIXED_S = [0.0, 5e-324, 1e-9, 0.3, 0.75, 1.0, 1.7, 1e8, 1e200]


def reference_csv(points) -> str:
    """The sweep CSV rendered one point and one cell at a time."""
    lines = [",".join(SWEEP_CSV_COLUMNS)]
    for p in points:
        cells = [p.eta, p.s, p.squeezing_db, p.N_out, p.N_out * p.N_out, p.T_sum, p.F]
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

    def test_default_grid_shape(self):
        points = sweep()
        assert len(points) == 101 * 11
        assert points[0].eta == 0.0 and points[0].s == 0.0
        # eta varies slowest
        assert points[10].eta == 0.0 and points[10].s == 1.0
        assert points[11].eta == pytest.approx(0.01)

    def test_default_grids(self):
        assert len(default_eta_grid()) == 101
        assert list(default_s_grid()) == pytest.approx(
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

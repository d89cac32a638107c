"""Config parsing and report rendering round trips."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from cvteleport.channel import (
    ChannelConfig,
    InputState,
    NoiseBudget,
    budget_to_channel,
    shot_noise_budget,
)
from cvteleport.criteria import (
    VERDICT_KEYS,
    full_report,
    inequality_trace,
    run_chain_verification,
)
from cvteleport.epr import EprScenario, sweep
from cvteleport.errors import ConfigError, ValidityError
from cvteleport.montecarlo import simulate_protocol
from cvteleport.serialize import (
    config_from_dict,
    config_from_json,
    format_number,
    gaussian_from_dict,
    sweep_to_csv,
    to_json,
)
from oracle import channel_to_dict, gaussian_to_dict


def _shot_noise_channel():
    return budget_to_channel(shot_noise_budget())


class TestFormatNumber:
    def test_twelve_significant_digits(self):
        assert format_number(2.0 / 3.0) == "0.666666666667"
        assert format_number(1.4482758620689657) == "1.44827586207"

    def test_integers_drop_trailing_zeros(self):
        assert format_number(1.0) == "1"
        assert format_number(2.0) == "2"
        assert format_number(0.5) == "0.5"

    def test_negative_zero_is_normalized(self):
        assert format_number(-0.0) == "0"
        assert format_number(-1e-300 * 1e-300) == "0"

    def test_ordinary_negatives_keep_sign(self):
        assert format_number(-0.25) == "-0.25"
        assert format_number(-1e-13) == "-1e-13"

    def test_infinity(self):
        assert format_number(float("inf")) == "inf"


class TestToJson:
    def test_trailing_newline_and_indent(self):
        text = to_json({"a": 1.0})
        assert text.endswith("\n")
        assert text.startswith("{\n  ")

    def test_floats_rounded_to_serialized_precision(self):
        text = to_json({"x": 2.0 / 3.0})
        assert json.loads(text)["x"] == 0.666666666667

    def test_booleans_render_as_json_literals(self):
        text = to_json({"flag": True, "other": False})
        assert '"flag": true' in text
        assert '"other": false' in text

    def test_nested_containers(self):
        payload = {"rows": [{"v": [1.0 / 3.0, -0.0]}]}
        got = json.loads(to_json(payload))
        assert got["rows"][0]["v"] == [0.333333333333, 0.0]

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_number_is_an_error_not_a_token(self, value):
        with pytest.raises(ValidityError, match="no JSON form"):
            to_json({"rows": [1.0, value]})


class TestGaussianRoundTrip:
    def test_round_trip_preserves_fields(self):
        cov = np.array([[2.0, 0.5], [0.5, 1.5]])
        back = gaussian_from_dict(gaussian_to_dict(cov, ("B_X", "B_Y")), "noise", ("B_X", "B_Y"))
        assert back.shape == (2, 2)
        np.testing.assert_array_equal(back, cov)

    def test_mean_defaults_to_zero(self):
        # an omitted or zero mean is accepted; any other is rejected
        d = {"labels": ["A", "B"], "cov": [[1.0, 0.0], [0.0, 1.0]]}
        np.testing.assert_array_equal(gaussian_from_dict(d, "noise", ("A", "B")), np.eye(2))
        d["mean"] = [0.0, -0.0]
        np.testing.assert_array_equal(gaussian_from_dict(d, "noise", ("A", "B")), np.eye(2))
        d["mean"] = [0.0, 1e-300]
        with pytest.raises(ValidityError, match="added noises must be zero-mean"):
            gaussian_from_dict(d, "noise", ("A", "B"))

    def test_labels_optional_when_expected_given(self):
        d = {"cov": [[1.0, 0.0], [0.0, 1.0]]}
        np.testing.assert_array_equal(gaussian_from_dict(d, "noise", ("C_X", "C_Y")), np.eye(2))

    def test_wrong_labels_rejected(self):
        d = {"labels": ["X", "Y"], "cov": [[1.0, 0.0], [0.0, 1.0]]}
        with pytest.raises(ConfigError, match="labels"):
            gaussian_from_dict(d, "noise", ("C_X", "C_Y"))

    def test_cov_shape_checked(self):
        d = {"labels": ["A", "B"], "cov": [[1.0, 0.0]]}
        with pytest.raises(ConfigError, match="shape"):
            gaussian_from_dict(d, "noise", ("A", "B"))

    def test_unknown_key_rejected(self):
        d = {"labels": ["A"], "cov": [[1.0]], "covariance": [[1.0]]}
        with pytest.raises(ConfigError, match="unknown keys"):
            gaussian_from_dict(d, "noise", ("A",))


class TestConfigParsing:
    def test_channel_round_trip(self):
        noise = np.array(
            [
                [1.3, 0.2, 0.1, 0.0],
                [0.2, 1.1, 0.0, -0.2],
                [0.1, 0.0, 1.2, 0.0],
                [0.0, -0.2, 0.0, 1.4],
            ]
        )
        config = ChannelConfig(
            g_X=1.0,
            g_Y=-1.0,
            h_X=1.0,
            h_Y=-1.0,
            noise=noise,
            input=InputState(var_X=1.5, var_Y=2.0),
        )
        back = config_from_dict(channel_to_dict(config))
        assert isinstance(back, ChannelConfig)
        assert (back.g_X, back.g_Y, back.h_X, back.h_Y) == (1.0, -1.0, 1.0, -1.0)
        assert back.input == config.input
        np.testing.assert_array_equal(back.noise, noise)

    def test_epr_round_trip(self):
        back = config_from_dict({"type": "epr", "eta": 0.7, "s": 0.3})
        assert isinstance(back, EprScenario)
        assert (back.eta, back.s) == (0.7, 0.3)

    def test_input_and_cross_cov_optional(self):
        d = channel_to_dict(_shot_noise_channel())
        del d["input"]
        del d["cross_cov_BC"]
        config = config_from_dict(d)
        assert config.input.var_X == 1.0
        np.testing.assert_array_equal(config.noise[:2, 2:], np.zeros((2, 2)))
        np.testing.assert_array_equal(config.noise[2:, :2], np.zeros((2, 2)))

    def test_nonzero_quadrature_mixing_rejected(self):
        d = channel_to_dict(_shot_noise_channel())
        d["measurement"]["f_X"] = 0.1
        with pytest.raises(ValidityError, match="unity-gain budget needs f_X = f_Y = 0"):
            config_from_dict(d)

    def test_explicit_zero_mixing_accepted(self):
        d = channel_to_dict(_shot_noise_channel())
        assert "f_X" not in d["measurement"]
        d["measurement"].update(f_X=0.0, f_Y=-0.0)
        back = channel_to_dict(config_from_dict(d))
        assert back == channel_to_dict(_shot_noise_channel())

    def test_mixing_named_before_the_measurement_noise_bound(self):
        d = channel_to_dict(_shot_noise_channel())
        d["measurement"]["f_Y"] = 0.2
        d["measurement"]["noise_B"]["cov"] = [[0.5, 0.0], [0.0, 0.5]]
        with pytest.raises(ValidityError, match="unity-gain budget needs f_X = f_Y = 0"):
            config_from_dict(d)

    def test_mixing_named_before_non_psd_noise(self):
        # rules read at parse come first: the channel validates the
        # covariance once the whole config has parsed
        d = channel_to_dict(_shot_noise_channel())
        d["measurement"]["f_Y"] = 0.2
        d["measurement"]["noise_B"]["cov"] = [[1.0, 2.0], [2.0, 1.0]]
        with pytest.raises(ValidityError, match="unity-gain budget needs f_X = f_Y = 0"):
            config_from_dict(d)
        del d["measurement"]["f_Y"]
        d["measurement"]["noise_B"]["mean"] = [0.5, 0.0]
        with pytest.raises(ValidityError, match="added noises must be zero-mean"):
            config_from_dict(d)
        d["measurement"]["noise_B"]["mean"] = [0.0, 0.0]
        with pytest.raises(ValidityError, match="positive semidefinite"):
            config_from_dict(d)

    def test_reconstruction_parse_error_named_before_invalid_measurement_noise(self):
        d = channel_to_dict(_shot_noise_channel())
        d["measurement"]["noise_B"]["cov"] = [[1.0, 2.0], [2.0, 1.0]]
        d["reconstruction"]["h_X"] = "1"
        with pytest.raises(ConfigError, match="reconstruction.h_X: expected a number"):
            config_from_dict(d)

    def test_type_discriminator_required(self):
        with pytest.raises(ConfigError, match="'channel' or 'epr'"):
            config_from_dict({"eta": 0.5, "s": 0.5})

    def test_unknown_top_level_key_rejected(self):
        d = {"type": "epr", "eta": 0.5, "s": 0.5}
        d["etaa"] = 0.5
        with pytest.raises(ConfigError, match="unknown keys"):
            config_from_dict(d)

    def test_unknown_stage_key_rejected(self):
        d = channel_to_dict(_shot_noise_channel())
        d["measurement"]["gain_X"] = 1.0
        with pytest.raises(ConfigError, match="measurement"):
            config_from_dict(d)

    def test_missing_required_stage_key_rejected(self):
        d = channel_to_dict(_shot_noise_channel())
        del d["reconstruction"]["h_X"]
        with pytest.raises(ConfigError, match="missing required keys"):
            config_from_dict(d)

    def test_boolean_is_not_a_number(self):
        d = {"type": "epr", "eta": 0.5, "s": 0.5}
        d["eta"] = True
        with pytest.raises(ConfigError, match="expected a number"):
            config_from_dict(d)

    def test_scenario_domain_errors_become_config_errors(self):
        with pytest.raises(ConfigError):
            config_from_dict({"type": "epr", "eta": 1.5, "s": 0.5})
        with pytest.raises(ConfigError):
            config_from_dict({"type": "epr", "eta": 0.5, "s": -1.0})

    def test_cross_cov_shape_checked(self):
        d = channel_to_dict(_shot_noise_channel())
        d["cross_cov_BC"] = [[0.0, 0.0]]
        with pytest.raises(ConfigError, match="cross_cov_BC"):
            config_from_dict(d)

    def test_json_syntax_error_reports_location(self):
        with pytest.raises(ConfigError, match=r"line 2 column"):
            config_from_json('{\n  "type": }')

    def test_json_round_trip_through_text(self):
        text = to_json({"type": "epr", "eta": 0.9, "s": 0.1})
        back = config_from_json(text)
        assert isinstance(back, EprScenario)
        assert (back.eta, back.s) == (0.9, 0.1)


class TestReportRendering:
    def test_dict_mirrors_report_fields(self):
        budget = NoiseBudget(
            v_Xm=1.2, v_Ym=1.2, v_Xr=1.1, v_Yr=1.1, c_XmXr=-0.9, c_YmYr=-0.9
        )
        report = full_report(budget_to_channel(budget))
        d = asdict(report)
        assert d["N_X_out"] == report.N_X_out
        assert d["fidelity"] == report.fidelity
        assert d["cv_products"] == report.cv_products
        assert set(d["verdicts"]) == set(VERDICT_KEYS)
        assert d["t_sum_applicable"] is True

    def test_sweep_csv_matches_point_fields(self):
        points = sweep(np.array([0.8]), np.array([0.2]))
        lines = sweep_to_csv(points).splitlines()
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert cells[0] == "0.8"
        assert cells[1] == "0.2"
        assert float(cells[4]) == pytest.approx(points[0].N_out ** 2, rel=1e-11)


class TestMcReportRendering:
    def test_nested_comparison_objects(self):
        d = asdict(simulate_protocol(budget_to_channel(shot_noise_budget()), 2000, 7))
        # the record's fields are the mc JSON keys, in output order
        assert list(d) == [
            "samples", "seed", "est_N_X", "est_N_Y", "est_F", "est_cv_products", "max_abs_z"
        ]
        assert d["samples"] == 2000
        assert d["seed"] == 7
        for key in ("est_N_X", "est_N_Y", "est_F"):
            assert set(d[key]) == {"estimate", "stderr", "analytic", "z_score"}
        assert len(d["est_cv_products"]) == 2
        comparisons = [d["est_N_X"], d["est_N_Y"], d["est_F"], *d["est_cv_products"]]
        assert d["max_abs_z"] == max(abs(c["z_score"]) for c in comparisons)


class TestVerificationRendering:
    def test_clean_summary_has_no_failure(self):
        summary = run_chain_verification(trials=5, seed=3)
        d = asdict(summary)
        assert d["trials"] == 5
        assert d["bound_violations"] == 0
        assert d["first_failure"] is None
        assert d["budgets_drawn"] >= 5

    def test_failure_payload_nests_the_budget(self):
        summary = run_chain_verification(trials=3, seed=3)
        trace = inequality_trace(shot_noise_budget())
        rigged = type(summary)(
            trials=summary.trials,
            seed=summary.seed,
            identity_max_rel_error=summary.identity_max_rel_error,
            bound_violations=1,
            worst_margin=summary.worst_margin,
            budgets_drawn=summary.budgets_drawn,
            first_failure=trace,
        )
        d = asdict(rigged)
        # the records' fields are the verify JSON keys, in output order
        assert list(d) == [
            "trials", "seed", "identity_max_rel_error", "bound_violations",
            "worst_margin", "budgets_drawn", "first_failure",
        ]
        assert list(d["first_failure"]) == [
            "budget", "identity_rel_error", "n_value", "n_product"
        ]
        assert d["first_failure"]["budget"]["v_Xm"] == 1.0
        assert d["first_failure"]["n_product"] == pytest.approx(4.0)

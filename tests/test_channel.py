"""Channel stages, composition, and the unity-gain noise budget."""

import itertools
import json
from dataclasses import asdict, astuple

import numpy as np
import pytest

from cvteleport.channel import (
    VALIDITY_TOL,
    ChannelConfig,
    InputState,
    MeasurementStage,
    NoiseBudget,
    ReconstructionStage,
    _output_noise,
    budget_to_channel,
    shot_noise_budget,
    to_unity_gain_budget,
    vacuum_input,
)
from cvteleport import cli
from cvteleport.criteria import _draw_budgets, _fields, _transfer_fidelity, full_report
from cvteleport.errors import ConfigError, ValidityError
from cvteleport.gaussian import variance_of
from cvteleport.serialize import config_from_dict, to_json
from oracle import channel_to_dict, compose, term


def noise_pair(v_x, v_y, c=0.0):
    return np.array([[v_x, c], [c, v_y]], dtype=float)


def make_channel(g=1.0, h=1.0, vb=1.0, vc=1.0, cross=None):
    return ChannelConfig(
        measurement=MeasurementStage(g_X=g, g_Y=g, noise_B=noise_pair(vb, vb)),
        reconstruction=ReconstructionStage(h_X=h, h_Y=h, noise_C=noise_pair(vc, vc)),
        input=vacuum_input(),
        cross_cov_BC=np.zeros((2, 2)) if cross is None else cross,
    )


# Unity-gain channels with a same-quadrature correlation a hair past its
# Cauchy-Schwarz edge, as (h, vb, vc, c): the channel admits each one, and
# a NoiseBudget built directly from its referred entries does not.
EDGE_CHANNELS = [
    # h = -2 doubles the measurement row: 1e-10 past the edge here is
    # 1.09e-10 past it at the output, beyond the budget's slack
    (-2.0, 0.5, 0.75, np.sqrt(0.375) * (1.0 + 1e-10)),
    # unity stages at 1e6: the channel's 4x4 eigensolver slack is twice
    # its 2x2 blocks', so a block 1e-8 past the edge passes only the 4x4
    (1.0, 1e6, 1e6, -1e6 * (1.0 + 1e-14)),
]


def edge_channel(h, vb, vc, c):
    return ChannelConfig(
        measurement=MeasurementStage(g_X=1.0 / h, g_Y=1.0 / h, noise_B=noise_pair(vb, vb)),
        reconstruction=ReconstructionStage(h_X=h, h_Y=h, noise_C=noise_pair(vc, 2 * vc)),
        input=vacuum_input(),
        cross_cov_BC=np.diag([c, 0.0]),
    )


class TestStageValidation:
    def test_shot_noise_measurement_saturates_bound(self):
        MeasurementStage(g_X=1.0, g_Y=1.0, noise_B=noise_pair(1.0, 1.0))

    def test_sub_bound_measurement_noise_rejected(self):
        with pytest.raises(ValidityError, match="measurement noise bound"):
            MeasurementStage(g_X=1.0, g_Y=1.0, noise_B=noise_pair(0.5, 0.5))

    def test_noiseless_measurement_admitted_as_ideal_reference(self):
        MeasurementStage(g_X=1.0, g_Y=1.0, noise_B=noise_pair(0.0, 0.0))

    def test_single_zero_variance_is_not_exempt(self):
        with pytest.raises(ValidityError):
            MeasurementStage(g_X=1.0, g_Y=1.0, noise_B=noise_pair(0.0, 1.0))

    def test_wrong_noise_shape_rejected(self):
        with pytest.raises(ConfigError, match=r"noise_B must be 2x2, got \(3, 3\)"):
            MeasurementStage(g_X=1.0, g_Y=1.0, noise_B=np.eye(3))
        with pytest.raises(ConfigError, match=r"noise_C must be 2x2, got \(2,\)"):
            ReconstructionStage(h_X=1.0, h_Y=1.0, noise_C=np.ones(2))

    def test_nonzero_mean_noise_rejected(self):
        # a stage holds a covariance only: the mean is checked where it is read
        config = channel_to_dict(make_channel())
        config["measurement"]["noise_B"]["mean"] = [0.1, 0.0]
        with pytest.raises(ValidityError, match="zero-mean"):
            config_from_dict(config)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_noise_is_a_validity_error(self, bad):
        with pytest.raises(ValidityError, match="covariance must be finite"):
            MeasurementStage(g_X=1.0, g_Y=1.0, noise_B=noise_pair(1.0, bad))
        with pytest.raises(ValidityError, match="covariance must be finite"):
            make_channel(cross=np.diag([0.0, bad]))

    def test_stage_noise_is_a_read_only_copy(self):
        cov = noise_pair(1.3, 1.1, 0.2)
        stage = MeasurementStage(g_X=1.0, g_Y=1.0, noise_B=cov)
        assert np.array_equal(stage.noise_B, cov) and stage.noise_B is not cov
        assert cov.flags.writeable and not stage.noise_B.flags.writeable

    def test_reconstruction_bound(self):
        ReconstructionStage(h_X=1.0, h_Y=1.0, noise_C=noise_pair(2.0, 0.5))
        with pytest.raises(ValidityError, match="reconstruction noise bound"):
            ReconstructionStage(h_X=1.0, h_Y=1.0, noise_C=noise_pair(0.9, 0.9))
        # the rule is on the determinant: 1.44 - 0.64 < 1 though 1.2 * 1.2 > 1
        with pytest.raises(ValidityError, match="reconstruction noise bound"):
            ReconstructionStage(h_X=1.0, h_Y=1.0, noise_C=noise_pair(1.2, 1.2, 0.8))

    def test_determinant_of_huge_noise_does_not_overflow(self):
        # v_0 * v_1 and c * c both overflow, so a plain determinant is inf - inf
        stage = ReconstructionStage(1.0, 1.0, [[1e300, 5e299], [5e299, 1e300]])
        assert stage.noise_C[0, 1] == 5e299
        # g + |c| overflows: inf passes the bound, with no numpy overflow
        # warning (warnings are errors under this suite)
        stage = ReconstructionStage(1.0, 1.0, [[1.7e308, 1e308], [1e308, 1.7e308]])
        assert stage.noise_C[0, 1] == 1e308

    def test_gain_scales_measurement_bound(self):
        # larger gains demand proportionally larger noise
        MeasurementStage(g_X=2.0, g_Y=2.0, noise_B=noise_pair(4.0, 4.0))
        with pytest.raises(ValidityError):
            MeasurementStage(g_X=2.0, g_Y=2.0, noise_B=noise_pair(1.0, 1.0))

    @pytest.mark.parametrize("gain, noise", [(1e-3, 9.99e-7), (1e-5, 1e-30)])
    def test_small_gain_bound_is_relative(self, gain, noise):
        # 0.1% and 20 decades below |g_X*g_Y|: far beyond the 1e-9 tolerance
        # relative to the bound, though within 1e-9 of it in absolute terms
        with pytest.raises(ValidityError, match="measurement noise bound"):
            MeasurementStage(g_X=gain, g_Y=gain, noise_B=noise_pair(noise, noise))

    def test_small_gain_stage_at_its_bound_admitted(self):
        MeasurementStage(g_X=1e-3, g_Y=1e-3, noise_B=noise_pair(1e-6, 1e-6))
        MeasurementStage(g_X=1e-3, g_Y=1e-3, noise_B=noise_pair(1e-6 * (1 - 5e-10), 1e-6))


class TestInputState:
    def test_vacuum_is_minimum_uncertainty(self):
        assert vacuum_input().is_minimum_uncertainty

    def test_squeezed_input_allowed_when_product_holds(self):
        s = InputState(var_X=0.25, var_Y=4.0)
        assert s.is_minimum_uncertainty

    def test_thermal_input_not_minimum_uncertainty(self):
        assert not InputState(var_X=2.0, var_Y=2.0).is_minimum_uncertainty

    def test_sub_heisenberg_input_rejected(self):
        with pytest.raises(ValidityError, match="uncertainty product"):
            InputState(var_X=0.5, var_Y=0.5)

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ValidityError):
            InputState(var_X=0.0, var_Y=1.0)


class TestTransferCoefficients:
    def test_perfect_transfer_at_zero_noise(self):
        assert _transfer_fidelity(0.0, 0.0)[:2] == (1.0, 1.0)

    def test_shot_noise_halves_each_coefficient(self):
        t_x, t_y, _ = _transfer_fidelity(1.0, 1.0)
        assert (t_x, t_y) == (0.5, 0.5)
        assert t_x + t_y == 1.0

    def test_double_shot_noise(self):
        t_x, t_y, _ = _transfer_fidelity(2.0, 2.0)
        assert t_x == pytest.approx(1.0 / 3.0)
        assert t_y == pytest.approx(1.0 / 3.0)

    def test_sum_sign_matches_noise_product_sign(self):
        # for minimum-uncertainty input the transfer sum crosses 1 exactly
        # where the noise product crosses 1
        rng = np.random.default_rng(1812)
        n = 10000
        n_x = 10.0 ** rng.uniform(-2, 2, n)
        n_y = 10.0 ** rng.uniform(-2, 2, n)
        w = np.where(rng.random(n) < 0.5, 1.0, 10.0 ** rng.uniform(-0.5, 0.5, n))
        for i in range(n):
            prod = n_x[i] * n_y[i]
            if abs(prod - 1.0) < 1e-9:
                continue
            t_x, t_y, _ = _transfer_fidelity(n_x[i], n_y[i], w[i], 1.0 / w[i])
            assert ((t_x + t_y > 1.0) == (prod < 1.0)), (n_x[i], n_y[i], w[i])


class TestCompose:
    def test_ideal_channel_is_identity(self):
        config = make_channel(vb=0.0, vc=0.0)
        composed = compose(config)
        assert composed.g_T_X == 1.0 and composed.g_T_Y == 1.0
        resid = composed.out_X - term("X_in")
        assert variance_of(resid, composed.state) == 0.0

    def test_output_form_structure(self):
        config = make_channel(g=2.0, h=0.5, vb=4.0, vc=1.0)
        composed = compose(config)
        assert composed.out_X.terms["X_in"] == 1.0
        assert composed.out_X.terms["B_X"] == 0.5
        assert composed.out_X.terms["C_X"] == 1.0
        assert composed.out_Y.terms["Y_in"] == 1.0

    def test_added_noise_product_bound(self):
        # independent stages: the added-noise product cannot beat the
        # commutator floor |1 - g_TX*g_TY|
        rng = np.random.default_rng(2718)
        for _ in range(10000):
            g_x, g_y, h_x, h_y = rng.uniform(0.2, 3.0, 4) * rng.choice(
                [-1.0, 1.0], 4
            )
            gb = abs(g_x * g_y)
            u = rng.uniform(0.0, 1.0)
            db_x = np.sqrt(gb) * 10.0 ** rng.uniform(0, 0.5)
            db_y = np.sqrt(gb) * 10.0 ** rng.uniform(0, 0.5)
            db_x *= 10.0**u
            rho_b, rho_c = rng.uniform(-0.99, 0.99, 2)
            dc_x = 10.0 ** rng.uniform(0, 0.7)
            dc_y = 10.0 ** rng.uniform(0, 0.7) / min(dc_x, 1.0)
            # each pair's determinant, not only its diagonal, meets the bound
            db_x, db_y = np.array([db_x, db_y]) / (1.0 - rho_b**2) ** 0.25
            dc_x, dc_y = np.array([dc_x, dc_y]) / (1.0 - rho_c**2) ** 0.25
            config = ChannelConfig(
                measurement=MeasurementStage(
                    g_X=g_x,
                    g_Y=g_y,
                    noise_B=noise_pair(db_x**2, db_y**2, rho_b * db_x * db_y),
                ),
                reconstruction=ReconstructionStage(
                    h_X=h_x,
                    h_Y=h_y,
                    noise_C=noise_pair(dc_x**2, dc_y**2, rho_c * dc_x * dc_y),
                ),
                input=vacuum_input(),
            )
            composed = compose(config)
            d_x = composed.out_X - term("X_in", composed.g_T_X)
            d_y = composed.out_Y - term("Y_in", composed.g_T_Y)
            prod = np.sqrt(
                variance_of(d_x, composed.state) * variance_of(d_y, composed.state)
            )
            floor = abs(1.0 - composed.g_T_X * composed.g_T_Y)
            assert prod >= floor - 1e-9, (g_x, g_y, h_x, h_y)

    def test_unity_gain_permits_arbitrarily_small_added_noise(self):
        # at g_T = 1 the floor vanishes; the ideal channel reaches zero
        composed = compose(make_channel(vb=0.0, vc=0.0))
        d_x = composed.out_X - term("X_in")
        assert variance_of(d_x, composed.state) == 0.0
        assert abs(1.0 - composed.g_T_X * composed.g_T_Y) == 0.0

    def test_rescaling_stages_preserves_output_statistics(self):
        # push gain from the reconstruction into the measurement: doubling
        # (g_X, B_X amplitude) and halving h_X is invisible at the output
        base = ChannelConfig(
            measurement=MeasurementStage(
                g_X=1.0, g_Y=1.0, noise_B=noise_pair(2.0, 1.5, 0.3)
            ),
            reconstruction=ReconstructionStage(
                h_X=1.0, h_Y=1.0, noise_C=noise_pair(1.2, 1.1, -0.2)
            ),
            input=vacuum_input(),
        )
        scaled = ChannelConfig(
            measurement=MeasurementStage(
                g_X=2.0, g_Y=1.0, noise_B=noise_pair(8.0, 1.5, 0.6)
            ),
            reconstruction=ReconstructionStage(
                h_X=0.5, h_Y=1.0, noise_C=noise_pair(1.2, 1.1, -0.2)
            ),
            input=vacuum_input(),
        )
        a, b = compose(base), compose(scaled)
        for fa, fb in ((a.out_X, b.out_X), (a.out_Y, b.out_Y)):
            va = variance_of(fa, a.state)
            vb = variance_of(fb, b.state)
            assert abs(va - vb) <= 1e-12 * max(1.0, abs(va))
        assert (a.g_T_X, a.g_T_Y) == (b.g_T_X, b.g_T_Y)


class TestUnityGainBudget:
    def test_ideal_channel_gives_zero_budget(self):
        want = NoiseBudget(0.0, 0.0, 0.0, 0.0)
        assert to_unity_gain_budget(make_channel(vb=0.0, vc=0.0)) == want

    def test_measurement_noise_referred_through_h_squared(self):
        config = ChannelConfig(
            measurement=MeasurementStage(
                g_X=0.5, g_Y=2.0, noise_B=noise_pair(1.0, 4.0)
            ),
            reconstruction=ReconstructionStage(
                h_X=2.0, h_Y=0.5, noise_C=noise_pair(1.0, 1.0)
            ),
            input=vacuum_input(),
        )
        b = to_unity_gain_budget(config)
        assert b.v_Xm == 4.0
        assert b.v_Ym == 1.0

    def test_measurement_bound_follows_the_gain_within_tolerance(self):
        # a total gain 0.9e-9 below 1 refers shot noise to 1 - 1.8e-9 at the
        # output, which the stage's own bound, referred through h, admits
        h = 1.0 - 0.9e-9
        b = to_unity_gain_budget(make_channel(h=h))
        assert (b.v_Xm, b.v_Ym) == (h * h, h * h)
        # geometric mean of the pair below the unit bound's tolerance
        assert b.v_Xm < 1.0 - VALIDITY_TOL
        with pytest.raises(ValidityError, match="measurement noise bound"):
            make_channel(h=h, vb=1.0 - 1e-6)
        # a budget built directly is held to the unit bound
        with pytest.raises(ValidityError, match=r"v_Xm\*v_Ym >= 1 violated"):
            NoiseBudget(1.0 - 1e-8, 1.0 - 1e-8, 1.0, 1.0)

    @pytest.mark.parametrize("h, vb, vc, c", EDGE_CHANNELS)
    def test_admitted_edge_channel_gives_a_budget(self, h, vb, vc, c, tmp_path, capsys):
        config = edge_channel(h, vb, vc, c)
        with pytest.raises(ValidityError, match="c_XmXr"):
            NoiseBudget(h * h * vb, h * h * vb, vc, 2 * vc, h * c, 0.0)
        b = to_unity_gain_budget(config)
        # the channel's budget keeps the correlation the direct budget rejects
        assert (b.v_Xm, b.c_XmXr) == (h * h * vb, h * c)
        path = tmp_path / "channel.json"
        path.write_text(json.dumps(channel_to_dict(config)))
        assert cli.main(["report", "--config", str(path)]) == 0
        assert capsys.readouterr().out == to_json(asdict(full_report(config)))
        assert cli.main(["mc", "--config", str(path), "--samples", "1000"]) == 0

    @pytest.mark.parametrize("h, vb, vc, c", EDGE_CHANNELS)
    def test_derived_budget_is_not_validated_again(self, h, vb, vc, c, monkeypatch):
        config = edge_channel(h, vb, vc, c)

        def fail(*args):
            raise AssertionError("derived budget re-validated")

        monkeypatch.setattr("cvteleport.channel.validated_cov", fail)
        monkeypatch.setattr("cvteleport.channel._check_noise_pair", fail)
        b = to_unity_gain_budget(config)
        expected = (h * h * vb, h * h * vb, vc, 2 * vc, h * c, h * 0.0)
        assert [np.float64(x).tobytes() for x in astuple(b)] == [
            np.float64(x).tobytes() for x in expected
        ]

    def test_non_unity_gain_rejected_naming_quadrature(self):
        config = make_channel(g=1.0, h=1.1)
        with pytest.raises(ValidityError, match="total gain on X is 1.1, unity gain"):
            to_unity_gain_budget(config)

    def test_round_trip_output_noise_matches_composed_variance(self):
        rng = np.random.default_rng(31415)
        for _ in range(200):
            g_x, g_y = rng.uniform(0.3, 3.0, 2) * rng.choice([-1.0, 1.0], 2)
            h_x, h_y = 1.0 / g_x, 1.0 / g_y
            db_x = np.sqrt(abs(g_x * g_y)) * 10.0 ** rng.uniform(0, 0.5)
            db_y = abs(g_x * g_y) / db_x * 10.0 ** rng.uniform(0, 0.5)
            dc_x = 10.0 ** rng.uniform(0, 0.5)
            dc_y = 10.0 ** rng.uniform(0, 0.5) / min(dc_x, 1.0)
            rho = rng.uniform(-0.95, 0.95, 2)
            cross = np.diag([rho[0] * db_x * dc_x, rho[1] * db_y * dc_y])
            config = ChannelConfig(
                measurement=MeasurementStage(
                    g_X=g_x, g_Y=g_y, noise_B=noise_pair(db_x**2, db_y**2)
                ),
                reconstruction=ReconstructionStage(
                    h_X=h_x, h_Y=h_y, noise_C=noise_pair(dc_x**2, dc_y**2)
                ),
                input=vacuum_input(),
                cross_cov_BC=cross,
            )
            budget = to_unity_gain_budget(config)
            n_x, n_y = _output_noise(*_fields(budget).reshape(3, 2))
            composed = compose(config)
            d_x = composed.out_X - term("X_in", composed.g_T_X)
            d_y = composed.out_Y - term("Y_in", composed.g_T_Y)
            want_x = variance_of(d_x, composed.state)
            want_y = variance_of(d_y, composed.state)
            assert abs(n_x - want_x) <= 1e-12 * max(1.0, want_x)
            assert abs(n_y - want_y) <= 1e-12 * max(1.0, want_y)


class TestNoiseBudget:
    def test_shot_noise_output_is_two_vacuum_units(self):
        assert _output_noise(*_fields(shot_noise_budget()).reshape(3, 2)).tolist() == [2.0, 2.0]

    def test_anticorrelated_noises_cancel(self):
        b = NoiseBudget(1.0, 1.0, 1.0, 1.0, -1.0, -1.0)
        assert _output_noise(*_fields(b).reshape(3, 2)).tolist() == [0.0, 0.0]

    def test_correlation_adds_to_output_noise(self):
        b = NoiseBudget(2.0, 2.0, 1.0, 1.0, 0.5, 0.5)
        assert _output_noise(*_fields(b).reshape(3, 2)).tolist() == [4.0, 4.0]

    def test_measurement_product_bound(self):
        with pytest.raises(ValidityError, match="v_Xm"):
            NoiseBudget(0.5, 0.5, 1.0, 1.0)

    def test_reconstruction_product_bound(self):
        with pytest.raises(ValidityError, match="v_Xr"):
            NoiseBudget(1.0, 1.0, 0.5, 0.5)

    def test_correlation_bound(self):
        for c in (1.5, -1.0 - 4e-10):
            with pytest.raises(ValidityError, match="c_XmXr"):
                NoiseBudget(1.0, 1.0, 1.0, 1.0, c, 0.0)
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValidityError, match="c_XmXr"):
                NoiseBudget(1.0, 1.0, 1.0, 1.0, value, 0.0)
            with pytest.raises(ValidityError, match="c_YmYr"):
                NoiseBudget(1.0, 1.0, 1.0, 1.0, 0.0, value)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValidityError):
            NoiseBudget(-1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValidityError, match="v_Yr must be finite"):
            NoiseBudget(1.0, 1.0, 1.0, np.nan)

    def test_every_admitted_edge_budget_round_trips(self):
        # correlations within a few 1e-10 of the Cauchy-Schwarz edge, at
        # scales where the covariance slack is absolute and where it is
        # relative: every budget admitted gives itself back through a channel
        admitted = 0
        scales = (1e-6, 1e-3, 1.0, 3.0, 1e4, 1e6, 1e12)
        for v, k in itertools.product(scales, range(-5, 6)):
            c = -v * (1.0 + k * 1e-10)
            for fields in ((v, 1.0 / v, v, 1.0 / v, c, 0.0), (1.0 / v, v, 1.0 / v, v, 0.0, c)):
                try:
                    b = NoiseBudget(*fields)
                except ValidityError:
                    continue
                admitted += 1
                assert to_unity_gain_budget(budget_to_channel(b)) == b, fields
        # at least every k <= 0, which sits on or inside the edge
        assert admitted >= len(scales) * 6 * 2

    def test_ideal_budget_is_admitted(self):
        b = NoiseBudget(0.0, 0.0, 0.0, 0.0)
        assert _output_noise(*_fields(b).reshape(3, 2)).tolist() == [0.0, 0.0]

    def test_budget_state_carries_block_structure(self):
        b = NoiseBudget(2.0, 1.0, 1.0, 2.0, -1.0, -1.0)
        s = b.state()
        assert s.labels == ("X_m", "X_r", "Y_m", "Y_r")
        assert s.cov[0, 1] == -1.0
        assert s.cov[0, 2] == 0.0 and s.cov[1, 3] == 0.0

    def test_budget_to_channel_round_trip(self, tmp_path, capsys):
        # budget -> channel -> budget is the identity, and the channel's
        # config file, read back by the CLI, reports the channel's bytes
        path = tmp_path / "channel.json"
        budgets = [NoiseBudget(2.0, 1.5, 1.25, 1.0, -1.2, 0.8)]
        budgets += [NoiseBudget(*col) for col in _draw_budgets(200, 11).T.tolist()]
        for b in budgets:
            channel = budget_to_channel(b)
            assert to_unity_gain_budget(channel) == b
            path.write_text(json.dumps(channel_to_dict(channel)))
            assert cli.main(["report", "--config", str(path)]) == 0
            assert capsys.readouterr().out == to_json(asdict(full_report(channel))), b


class TestChannelConfig:
    def test_cross_covariance_must_keep_joint_psd(self):
        # correlation magnitude beyond the stage amplitudes is unphysical
        cross = np.diag([1.5, 0.0])
        with pytest.raises(ValidityError, match="joint stage covariance"):
            make_channel(cross=cross)

    def test_wrong_cross_shape_rejected(self):
        with pytest.raises(ConfigError, match="2x2"):
            make_channel(cross=np.zeros((2, 3)))

    def test_noise_layout(self):
        cross = np.array([[0.3, -0.2], [0.1, 0.4]])
        config = ChannelConfig(
            measurement=MeasurementStage(1.0, 1.0, noise_pair(1.3, 1.1, 0.2)),
            reconstruction=ReconstructionStage(1.0, 1.0, noise_pair(1.2, 1.4, -0.1)),
            input=InputState(2.0, 3.0),
            cross_cov_BC=cross,
        )
        s = config.noise
        assert s.shape == (4, 4) and not s.flags.writeable
        # over (B_X, B_Y, C_X, C_Y): the stage noises on the diagonal blocks,
        # <B_i C_j> off them, and nothing of the input
        assert np.array_equal(s[:2, :2], config.measurement.noise_B)
        assert np.array_equal(s[2:, 2:], config.reconstruction.noise_C)
        assert np.array_equal(s[:2, 2:], cross)
        assert np.array_equal(s[2:, :2], cross.T)

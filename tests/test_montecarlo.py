"""Sample-based estimates against the closed forms."""

import json
import os
import threading
from dataclasses import replace

import numpy as np
import pytest

from cvteleport.channel import (
    ChannelConfig,
    InputState,
    NoiseBudget,
    budget_to_channel,
    shot_noise_budget,
)
from cvteleport.criteria import full_report
from cvteleport.epr import EprScenario, to_noise_budget
from cvteleport.errors import ConfigError
from cvteleport import cli, montecarlo
from cvteleport.gaussian import sample, sampling_factor
from cvteleport.montecarlo import (
    MAX_SAMPLES,
    Comparison,
    McReport,
    _estimates_from_sums,
    _jackknife,
    simulate_protocol,
)
from cvteleport.serialize import config_from_dict, config_from_json
from oracle import channel_to_dict

# unity gain with h != +-1, a displaced input, and stage noises correlated
# across the stages, quadrature by quadrature
GAIN_CHANNEL_JSON = """{"type": "channel",
 "measurement": {"g_X": 1.25, "g_Y": -0.8, "noise_B": {"cov": [[1.2, 0.0], [0.0, 1.5]]}},
 "reconstruction": {"h_X": 0.8, "h_Y": -1.25, "noise_C": {"cov": [[1.1, 0.0], [0.0, 1.3]]}},
 "input": {"var_X": 1.0, "var_Y": 1.0, "mean_x": 1.5, "mean_y": -0.75},
 "cross_cov_BC": [[-0.4, 0.0], [0.0, 0.3]]}
"""


def displaced_config(budget: NoiseBudget, mean_x: float, mean_y: float) -> ChannelConfig:
    """The budget's channel parsed from a config whose input sits at
    amplitude (mean_x, mean_y)."""
    config = channel_to_dict(budget_to_channel(budget))
    config["input"].update(mean_x=mean_x, mean_y=mean_y)
    return config_from_dict(config)


def reference_simulate(channel, samples: int, seed: int) -> McReport:
    """The block loop with fresh arrays in every block, as it was written
    before the blocks shared their buffers: one draw per block, every
    derived column and product a new array, and the kernel as one
    expression.  A stderr of exactly 0 gives z = 0 on an exact match."""
    if isinstance(channel, EprScenario):
        channel = budget_to_channel(to_noise_budget(channel))
    report = full_report(channel)
    analytic = (report.N_X_out, report.N_Y_out, report.fidelity, *report.cv_products)
    factor = sampling_factor(channel.noise)
    h_x, h_y = channel.h_X, channel.h_Y
    block_n = samples // montecarlo.JACKKNIFE_BLOCKS
    block_stats = np.zeros((montecarlo.JACKKNIFE_BLOCKS, 11))
    for b in range(montecarlo.JACKKNIFE_BLOCKS):
        rows = sample(factor, block_n, np.random.SeedSequence([seed, b]))
        b_x, b_y, xr, yr = rows.T
        xm, ym = h_x * b_x, h_y * b_y
        # the added displacement against target 0
        x, y = xm + xr, ym + yr
        w = np.exp(-(x**2) / 4.0 - (y**2) / 4.0)
        block_stats[b] = (
            xm.sum(), ym.sum(), xr.sum(), yr.sum(),
            (xm * xm).sum(), (ym * ym).sum(), (xr * xr).sum(), (yr * yr).sum(),
            (xm * xr).sum(), (ym * yr).sum(),
            w.sum(),
        )
    estimates, stderrs = _jackknife(block_stats, block_n)
    comparisons = []
    for est, se, ref in zip(estimates, stderrs, analytic):
        if se == 0.0:
            z = 0.0 if est == ref else float(np.copysign(np.inf, est - ref))
        else:
            z = (est - ref) / se
        comparisons.append(
            Comparison(
                estimate=float(est), stderr=float(se), analytic=float(ref), z_score=float(z)
            )
        )
    n_x, n_y, f, *cv = comparisons
    max_abs_z = max(abs(c.z_score) for c in comparisons)
    return McReport(samples, seed, n_x, n_y, f, tuple(cv), max_abs_z)


class TestRunConfig:
    def test_minimum_sample_count(self):
        with pytest.raises(ConfigError, match=">= 1000"):
            simulate_protocol(EprScenario(0.7, 0.3), 10, 1)

    def test_samples_must_split_into_blocks(self):
        with pytest.raises(ConfigError, match="multiple"):
            simulate_protocol(EprScenario(0.7, 0.3), 1050, 1)

    def test_samples_must_be_integer(self):
        with pytest.raises(ConfigError):
            simulate_protocol(EprScenario(0.7, 0.3), 1e5, 1)

    @pytest.mark.parametrize("seed", [-1, True, 1.0, "1"])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        # checked before the samples, which are bad here too
        with pytest.raises(ConfigError, match="^seed must be a nonnegative integer$"):
            simulate_protocol(EprScenario(0.7, 0.3), 10, seed)

    def test_numpy_integer_seed_is_accepted(self):
        assert simulate_protocol(EprScenario(0.7, 0.3), 1000, np.int64(0)).seed == 0

    def test_sample_count_is_capped(self, monkeypatch):
        # the checks come before any work: the analytic report is the first
        def checked(channel):
            raise LookupError("checks passed")

        monkeypatch.setattr(montecarlo, "full_report", checked)
        with pytest.raises(LookupError, match="checks passed"):
            simulate_protocol(EprScenario(0.7, 0.3), MAX_SAMPLES, 1)
        for samples in (MAX_SAMPLES + 100, 10**15):
            with pytest.raises(ConfigError, match=f"<= {MAX_SAMPLES}"):
                simulate_protocol(EprScenario(0.7, 0.3), samples, 1)


class TestSimulateProtocol:
    def test_ideal_channel_estimates_exactly(self):
        report = simulate_protocol(budget_to_channel(NoiseBudget(0.0, 0.0, 0.0, 0.0)), 100000, 4)
        assert report.est_F.estimate == 1.0
        assert report.est_F.z_score == 0.0
        assert report.est_N_X.estimate == 0.0
        assert report.est_N_X.z_score == 0.0
        assert report.max_abs_z == 0.0

    def test_shot_noise_channel(self):
        report = simulate_protocol(budget_to_channel(shot_noise_budget()), 1000000, 21)
        assert abs(report.est_N_X.estimate - 2.0) <= 3.0 * report.est_N_X.stderr
        assert abs(report.est_F.estimate - 0.5) <= 3.0 * report.est_F.stderr
        assert report.est_F.analytic == 0.5

    def test_epr_scenario_fidelity(self):
        report = simulate_protocol(EprScenario(0.7, 0.3), 1000000, 35)
        assert report.est_F.analytic == pytest.approx(1.0 / 1.51, abs=1e-12)
        assert abs(report.est_F.estimate - 1.0 / 1.51) <= 3.0 * report.est_F.stderr
        assert report.est_cv_products[0].analytic < 1.0

    def test_reports_are_bit_identical_for_fixed_seed(self):
        run = (EprScenario(0.9, 0.5), 10000, 123)
        assert simulate_protocol(*run) == simulate_protocol(*run)

    def test_different_seeds_differ(self):
        a = simulate_protocol(EprScenario(0.9, 0.5), 10000, 1)
        assert a != simulate_protocol(EprScenario(0.9, 0.5), 10000, 2)

    def test_amplitude_does_not_bias_fidelity(self):
        # unity gain: the overlap depends only on the added noise
        moved = displaced_config(to_noise_budget(EprScenario(0.7, 0.3)), 4.0, 4.0)
        f0 = simulate_protocol(EprScenario(0.7, 0.3), 50000, 9).est_F.estimate
        f1 = simulate_protocol(moved, 50000, 9).est_F.estimate
        assert f0 == pytest.approx(f1, abs=1e-9)

    def test_large_input_mean_does_not_round_the_noise_away(self):
        # at 1e16 a float's spacing is 2, so an amplitude formed as mean
        # plus noise would lose the noise's low bits
        budget = NoiseBudget(1.2, 1.5, 1.1, 1.3, -0.4, 0.3)
        at_origin, displaced = (
            simulate_protocol(displaced_config(budget, *mean), 10000, 1)
            for mean in ((0.0, 0.0), (1e16, -3.0))
        )
        assert displaced == at_origin
        assert displaced.max_abs_z < 5.0

    def test_estimates_within_gate_across_seeds(self):
        for seed in (1, 2, 3):
            assert simulate_protocol(EprScenario(0.8, 0.4), 100000, seed).max_abs_z < 5.0

    def test_fidelity_estimate_bounded(self):
        report = simulate_protocol(EprScenario(0.3, 0.9), 20000, 2)
        assert 0.0 < report.est_F.estimate <= 1.0

    def test_stderr_positive_for_noisy_channels(self):
        report = simulate_protocol(EprScenario(0.7, 0.3), 10000, 6)
        for comparison in (report.est_N_X, report.est_N_Y, report.est_F, *report.est_cv_products):
            assert comparison.stderr > 0.0

    def test_rounding_level_estimate_does_not_flag(self, monkeypatch):
        # every draw the same tiny constant: the variance sums leave a
        # rounding residue with a jackknife stderr of exactly 0
        def constant(state, n, seed, out=None):
            out[:] = 1e-9
            return out

        monkeypatch.setattr(montecarlo, "sample", constant)
        ideal = budget_to_channel(NoiseBudget(0.0, 0.0, 0.0, 0.0))
        report = simulate_protocol(ideal, 10000, 3)
        assert report.est_N_X.estimate > 0.0 and report.est_N_X.stderr == 0.0
        assert report.est_N_X.analytic == 0.0
        assert report.max_abs_z < 1e-20

    def test_input_is_not_drawn(self, monkeypatch):
        drawn = []

        def recording_sample(factor, n, seed, out=None):
            drawn.append(factor.shape)
            return sample(factor, n, seed, out=out)

        monkeypatch.setattr(montecarlo, "sample", recording_sample)
        # channels differing only in input variance see the same noise draws
        base = budget_to_channel(NoiseBudget(1.2, 1.3, 1.1, 1.4, -0.9, -0.8))
        thermal = replace(base, input=InputState(3.0, 2.5))
        a, b = (
            simulate_protocol(c, 20000, 8)
            for c in (base, thermal)
        )
        for key in ("est_N_X", "est_N_Y", "est_cv_products"):
            assert getattr(a, key) == getattr(b, key), key
        assert a == b
        # rows over (B_X, B_Y, C_X, C_Y) alone
        assert set(drawn) == {(4, 4)}


class TestSharedBlockBuffers:
    """The block loop reuses one factor and one set of buffers per run, on
    the calling thread."""

    CONFIGS = {
        "squeezed-epr": EprScenario(0.8, 0.25),
        "anti-squeezed-epr": EprScenario(0.65, 3.5),
        "gain-channel": config_from_json(GAIN_CHANNEL_JSON),
        # the measurement stage is noiseless: two zero-variance coordinates
        "dead-coordinates": budget_to_channel(NoiseBudget(0.0, 0.0, 1.1, 1.4)),
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    @pytest.mark.parametrize("samples, seed", [(1000, 3), (20000, 41)])
    def test_report_equals_the_fresh_array_loop(self, name, samples, seed):
        run = (self.CONFIGS[name], samples, seed)
        assert simulate_protocol(*run) == reference_simulate(*run)

    def test_each_block_is_drawn_once(self, monkeypatch):
        drawn = []

        def recording(factor, n, seed, out=None):
            drawn.append(seed.entropy[1])
            return sample(factor, n, seed, out=out)

        monkeypatch.setattr(montecarlo, "sample", recording)
        simulate_protocol(EprScenario(0.8, 0.25), 10000, 7)
        assert drawn == list(range(montecarlo.JACKKNIFE_BLOCKS))

    @pytest.mark.parametrize("failing_block", [0, 1])
    def test_worker_error_reaches_the_caller(self, failing_block, monkeypatch):
        # an error in the first or a later block's draw reaches the caller
        def failing(factor, n, seed, out=None):
            if seed.entropy[1] == failing_block:
                raise MemoryError("no room for the block")
            return sample(factor, n, seed, out=out)

        monkeypatch.setattr(montecarlo, "sample", failing)
        with pytest.raises(MemoryError, match="no room"):
            simulate_protocol(self.CONFIGS["gain-channel"], 20000, 5)

    def test_a_small_run_starts_no_thread(self, tmp_path, monkeypatch, capsys):
        # 2,000-row blocks run on the calling thread even where two CPUs
        # are free
        started = []

        class Recording(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(threading, "Thread", Recording)
        path = tmp_path / "epr.json"
        path.write_text(json.dumps({"type": "epr", "eta": 0.8, "s": 0.25}))
        assert cli.main(["mc", "--config", str(path), "--samples", "200000"]) == 0
        assert capsys.readouterr().out
        assert started == []

    def test_sample_into_a_buffer_is_bitwise_the_fresh_draw(self):
        rng = np.random.default_rng(5)
        root = rng.normal(size=(4, 4))
        cov = root @ root.T
        cov[1, :] = cov[:, 1] = 0.0
        factor = sampling_factor(cov)
        for n in (1, 7, 1000):
            buf = np.full((n, 4), np.nan)
            got = sample(factor, n, np.random.SeedSequence([9, n]), out=buf)
            assert got is buf
            want = sample(factor, n, np.random.SeedSequence([9, n]))
            assert np.array_equal(buf.view(np.uint64), want.view(np.uint64))

    def test_noise_is_factored_once_per_run(self, monkeypatch):
        calls = []
        cholesky = np.linalg.cholesky

        def counting(a):
            calls.append(a.shape)
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        # once per run, not once per block
        for channel in (EprScenario(0.8, 0.25), config_from_json(GAIN_CHANNEL_JSON)):
            calls.clear()
            simulate_protocol(channel, 10000, 2)
            assert calls == [(4, 4)]


class TestJackknife:
    def test_array_call_matches_a_per_row_loop(self):
        rng = np.random.default_rng(17)
        block_n = 500
        # plausible block sums: correlated pairs with means and variances
        blocks = []
        for _ in range(100):
            xm, xr, ym, yr = rng.normal(size=(4, block_n)) * np.array([[1.3], [1.1], [0.9], [1.6]])
            xr, yr = xr - 0.6 * xm, yr + 0.4 * ym
            w = np.exp(-((xm + xr) ** 2 + (ym + yr) ** 2) / 4.0)
            blocks.append(
                [xm.sum(), ym.sum(), xr.sum(), yr.sum(),
                 xm @ xm, ym @ ym, xr @ xr, yr @ yr, xm @ xr, ym @ yr, w.sum()]
            )
        block_stats = np.array(blocks)
        estimates, stderrs = _jackknife(block_stats, block_n)

        totals = block_stats.sum(axis=0)
        n_loo = block_n * (len(block_stats) - 1)
        loo = np.array(
            [
                [float(v) for v in _estimates_from_sums(totals - row, n_loo)]
                for row in block_stats
            ]
        )
        nb = len(block_stats)
        want = np.sqrt((nb - 1) / nb * ((loo - loo.mean(axis=0)) ** 2).sum(axis=0))
        assert stderrs.shape == estimates.shape == (5,)
        for k, (got, ref) in enumerate(zip(stderrs, want)):
            assert ref > 0.0
            assert abs(got - ref) <= 1e-12 * ref, k


class TestEstimatesFromSums:
    @staticmethod
    def sums(xm, xr, ym, yr):
        return np.array(
            [xm.sum(), ym.sum(), xr.sum(), yr.sum(),
             xm @ xm, ym @ ym, xr @ xr, yr @ yr, xm @ xr, ym @ yr, 1.0]
        )

    def test_moments_reach_the_report_kernels_in_field_order(self):
        rng = np.random.default_rng(5)
        xm, xr, ym, yr = rng.normal(size=(4, 400)) * np.array([[1.3], [0.7], [2.1], [0.4]])
        xr, yr = xr - 0.5 * xm, yr + 0.1 * ym
        n_x, n_y, _, got_r_given_m, got_m_given_r = _estimates_from_sums(
            self.sums(xm, xr, ym, yr), 400.0
        )
        cov_x, cov_y = np.cov([xm, xr], bias=True), np.cov([ym, yr], bias=True)
        for n, cov in ((n_x, cov_x), (n_y, cov_y)):
            assert n == pytest.approx(cov.sum(), rel=1e-12)
        r_given_m = np.prod([c[1, 1] - c[0, 1] ** 2 / c[0, 0] for c in (cov_x, cov_y)])
        m_given_r = np.prod([c[0, 0] - c[0, 1] ** 2 / c[1, 1] for c in (cov_x, cov_y)])
        assert got_r_given_m == pytest.approx(r_given_m, rel=1e-12)
        assert got_m_given_r == pytest.approx(m_given_r, rel=1e-12)

    def test_correlation_past_its_edge_is_clamped_as_in_the_report(self):
        # a constant measured noise: its sample variance rounds below 0
        # beside a rounding-size covariance, which the report's kernel
        # clamps onto the Cauchy-Schwarz edge rather than conditioning on
        xm = ym = np.full(3, 0.1)
        xr, yr = np.array([0.3, -1.2, 0.7]), np.array([1.1, 0.2, -0.4])
        *_, r_given_m, m_given_r = _estimates_from_sums(self.sums(xm, xr, ym, yr), 3.0)
        assert m_given_r == 0.0
        assert r_given_m == pytest.approx(np.var(xr) * np.var(yr))

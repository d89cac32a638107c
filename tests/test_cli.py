"""End-to-end command-line behavior, run in process through main()."""

import gc
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import cvteleport
import cvteleport.cli as cli
import cvteleport.criteria as criteria
from cvteleport.channel import NoiseBudget, budget_to_channel, shot_noise_budget
from cvteleport.criteria import VerificationSummary, inequality_trace
from cvteleport.epr import sweep
from cvteleport.montecarlo import MAX_SAMPLES, Comparison, McReport
from cvteleport.serialize import sweep_to_csv, to_json
from oracle import channel_to_dict


@pytest.fixture
def epr_config(tmp_path):
    path = tmp_path / "epr.json"
    path.write_text('{"type": "epr", "eta": 0.7, "s": 0.3}\n')
    return str(path)


@pytest.fixture
def channel_config(tmp_path):
    path = tmp_path / "channel.json"
    path.write_text(to_json(channel_to_dict(budget_to_channel(shot_noise_budget()))))
    return str(path)


@pytest.fixture
def gain_channel_config(tmp_path):
    # unity gain with h != +-1, a displaced input, stages correlated
    # quadrature by quadrature
    path = tmp_path / "gain_channel.json"
    path.write_text(
        json.dumps(
            {
                "type": "channel",
                "measurement": {
                    "g_X": 1.25, "g_Y": -0.8,
                    "noise_B": {"cov": [[1.2, 0.0], [0.0, 1.5]]},
                },
                "reconstruction": {
                    "h_X": 0.8, "h_Y": -1.25,
                    "noise_C": {"cov": [[1.1, 0.0], [0.0, 1.3]]},
                },
                "input": {"var_X": 1.0, "var_Y": 1.0, "mean_x": 1.5, "mean_y": -0.75},
                "cross_cov_BC": [[-0.4, 0.0], [0.0, 0.3]],
            }
        )
    )
    return str(path)


def _unit_channel(tmp_path, name, noise_c, cross):
    """A gains +-1 channel with unit ``noise_B`` as a config file."""
    config = channel_to_dict(budget_to_channel(shot_noise_budget()))
    config["reconstruction"]["noise_C"]["cov"] = noise_c
    config["cross_cov_BC"] = cross
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(config))
    return str(path)


@pytest.fixture
def ideal_config(tmp_path):
    path = tmp_path / "ideal.json"
    ideal = budget_to_channel(NoiseBudget(0.0, 0.0, 0.0, 0.0))
    path.write_text(to_json(channel_to_dict(ideal)))
    return str(path)


class TestReportCommand:
    def test_channel_report_to_stdout(self, channel_config, capsys):
        assert cli.main(["report", "--config", channel_config]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["N_X_out"] == 2.0
        assert payload["fidelity"] == 0.5
        assert payload["verdicts"]["n_product_below_one"] is False

    def test_scenario_report_realizes_the_budget(self, epr_config, capsys):
        assert cli.main(["report", "--config", epr_config]) == 0
        payload = json.loads(capsys.readouterr().out)
        # eta=0.7, s=0.3: N = 2(1 - eta + eta s) = 1.02
        assert payload["N_X_out"] == pytest.approx(1.02, abs=1e-9)
        assert payload["verdicts"]["epr_violation"] is True

    def test_out_flag_writes_a_file(self, channel_config, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert cli.main(["report", "--config", channel_config, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["fidelity"] == 0.5

    def test_perfect_squeezing_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "s0.json"
        path.write_text('{"type": "epr", "eta": 0.7, "s": 0.0}\n')
        assert cli.main(["report", "--config", str(path)]) == 1
        assert "perfect squeezing" in capsys.readouterr().err

    def test_input_mean_enters_no_figure(self, tmp_path, capsys):
        outs = []
        for mean_x, mean_y in ((0.0, 0.0), (1e16, -3.0)):
            budget = NoiseBudget(1.2, 1.5, 1.1, 1.3, -0.4, 0.3)
            config = channel_to_dict(budget_to_channel(budget))
            config["input"].update(mean_x=mean_x, mean_y=mean_y)
            path = tmp_path / "displaced.json"
            path.write_text(json.dumps(config))
            assert cli.main(["report", "--config", str(path)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]


class TestSweepCommand:
    def test_default_grid_row_count(self, capsys):
        assert cli.main(["sweep"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + 101 * 11

    def test_small_grid(self, capsys):
        args = [
            "sweep",
            "--eta-min", "0.5", "--eta-max", "0.5", "--eta-steps", "1",
            "--s-min", "0", "--s-max", "0", "--s-steps", "1",
        ]
        assert cli.main(args) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "0.5,0,inf,1,1,1,0.666666666667,false"

    def test_out_of_domain_grid_rejected(self, capsys):
        assert cli.main(["sweep", "--eta-max", "1.5"]) == 1
        assert "eta grid" in capsys.readouterr().err
        assert cli.main(["sweep", "--s-min", "-0.5"]) == 1
        assert "s grid" in capsys.readouterr().err
        assert cli.main(["sweep", "--eta-min", "nan"]) == 1
        assert "eta grid bounds must be finite" in capsys.readouterr().err
        assert cli.main(["sweep", "--s-max", "inf", "--s-steps", "2"]) == 1
        assert "s grid bounds must be finite" in capsys.readouterr().err
        # finite bounds whose N_out**2 (and at 1.7e308 N_out) would be inf
        for s_max in ("1e200", "1.7e308"):
            args = ["sweep", "--eta-min", "1", "--eta-steps", "1", "--s-max", s_max]
            assert cli.main(args) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"s grid must stay within [0.0, {cli.MAX_SWEEP_S}]" in captured.err

    def test_largest_s_keeps_every_column_finite(self, capsys):
        # eta = 1 gives the largest N_out = 2 s
        args = ["sweep", "--eta-steps", "3", "--s-min", str(cli.MAX_SWEEP_S / 2)]
        assert cli.main(args + ["--s-max", str(cli.MAX_SWEEP_S), "--s-steps", "2"]) == 0
        rows = [line.split(",")[:-1] for line in capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == 6
        assert np.isfinite(np.array(rows, dtype=float)).all()

    def test_degenerate_bounds_rejected(self, capsys):
        assert cli.main(["sweep", "--eta-steps", "0"]) == 1
        assert cli.main(["sweep", "--eta-min", "0.8", "--eta-max", "0.2"]) == 1
        err = capsys.readouterr().err
        assert "eta-steps" in err
        assert "eta-max must be >= eta-min" in err

    # one block of rows, s rows that end mid-block, single rows, s rows
    # longer than a block, and eta chunks that cross blocks
    @pytest.mark.parametrize("steps", [(1, 1), (1025, 1), (3, 2000), (7, 9), (101, 101)])
    def test_streamed_csv_equals_the_rendered_table(self, steps, tmp_path, capsys):
        eta_steps, s_steps = steps
        expected = sweep_to_csv(
            sweep(np.linspace(0.0, 1.0, eta_steps), np.linspace(0.0, 3.0, s_steps))
        )
        args = ["sweep", "--eta-steps", str(eta_steps)]
        args += ["--s-max", "3", "--s-steps", str(s_steps)]
        assert cli.main(args) == 0
        assert capsys.readouterr().out == expected
        out = tmp_path / "sweep.csv"
        assert cli.main([*args, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes().decode("utf-8") == expected

    def test_unwritable_out_path(self, tmp_path, capsys):
        out = tmp_path / "no_such_dir" / "sweep.csv"
        # the grid is checked before the output is opened
        assert cli.main(["sweep", "--eta-steps", "0", "--out", str(out)]) == 1
        assert "eta-steps must be >= 1" in capsys.readouterr().err
        for path in (out, tmp_path):
            assert cli.main(["sweep", "--out", str(path)]) == 3
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("i/o error")
        assert not out.parent.exists()
        assert list(tmp_path.iterdir()) == []

    def test_memory_does_not_grow_with_the_grid(self, tmp_path):
        # a whole 401 x 401 table and its CSV text take ~60 MB
        args = ["sweep", "--eta-steps", "401", "--s-steps", "401"]
        args += ["--out", str(tmp_path / "sweep.csv")]
        tracemalloc.start()
        try:
            assert cli.main(args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_oversized_axis_is_rejected_before_allocating(self, capsys):
        for flag in ("--eta-steps", "--s-steps"):
            for steps in (cli.MAX_GRID_STEPS + 1, 10**12):
                tracemalloc.start()
                try:
                    assert cli.main(["sweep", flag, str(steps)]) == 1
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < 1_000_000
                captured = capsys.readouterr()
                assert captured.out == "" and "Traceback" not in captured.err
                assert f"steps must be <= {cli.MAX_GRID_STEPS}, got {steps}" in captured.err


class TestVerifyCommand:
    def test_clean_run(self, capsys):
        assert cli.main(["verify", "--trials", "50", "--seed", "9"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trials"] == 50
        assert payload["bound_violations"] == 0
        assert payload["first_failure"] is None

    def test_bad_arguments(self, capsys):
        assert cli.main(["verify", "--trials", "0"]) == 1
        assert cli.main(["verify", "--seed", "-3"]) == 1

    def test_detected_violation_exits_four(self, monkeypatch, capsys):
        trace = inequality_trace(shot_noise_budget())
        rigged = VerificationSummary(
            trials=10,
            seed=1,
            identity_max_rel_error=2e-4,
            bound_violations=1,
            worst_margin=-2e-4,
            budgets_drawn=10,
            first_failure=trace,
        )
        monkeypatch.setattr(cli, "run_chain_verification", lambda *a, **k: rigged)
        assert cli.main(["verify", "--trials", "10"]) == 4
        captured = capsys.readouterr()
        assert json.loads(captured.out)["bound_violations"] == 1
        assert "verification failed" in captured.err

    def test_failing_run_prints_its_first_failure(self, monkeypatch, capsys):
        # an identity tolerance below rounding fails most trials; the bytes
        # of a failing run, first failure included, are pinned
        monkeypatch.setattr(criteria, "IDENTITY_RTOL", 1e-17)
        assert cli.main(["verify", "--trials", "50", "--seed", "9"]) == 4
        captured = capsys.readouterr()
        assert captured.err == "verification failed: 46 bound violation(s) in 50 trials\n"
        assert captured.out == (
            "{\n"
            '  "trials": 50,\n'
            '  "seed": 9,\n'
            '  "identity_max_rel_error": 5.7337931452e-16,\n'
            '  "bound_violations": 46,\n'
            '  "worst_margin": 3.0,\n'
            '  "budgets_drawn": 72,\n'
            '  "first_failure": {\n'
            '    "budget": {\n'
            '      "v_Xm": 13.3593504669,\n'
            '      "v_Ym": 7.1241189741,\n'
            '      "v_Xr": 49.8804592415,\n'
            '      "v_Yr": 20.349069355,\n'
            '      "c_XmXr": 15.5480046525,\n'
            '      "c_YmYr": -6.98625370182\n'
            "    },\n"
            '    "identity_rel_error": 1.37224350577e-16,\n'
            '    "n_value": 1448.9695542,\n'
            '    "n_product": 1273.59779235\n'
            "  }\n"
            "}\n"
        )


class TestMcCommand:
    def test_ideal_channel_agrees_exactly(self, ideal_config, capsys):
        args = ["mc", "--config", ideal_config, "--samples", "1000", "--seed", "5"]
        assert cli.main(args) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["est_F"]["estimate"] == 1.0
        assert payload["max_abs_z"] == 0.0
        # the progress table goes to stderr, not into the JSON stream
        assert "quantity" in captured.err
        assert "est_F" in captured.err

    def test_scenario_config(self, epr_config, capsys):
        args = ["mc", "--config", epr_config, "--samples", "2000", "--seed", "11"]
        assert cli.main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["est_N_X"]["analytic"] == pytest.approx(1.02, abs=1e-9)

    def test_bad_sample_count(self, epr_config, capsys):
        assert cli.main(["mc", "--config", epr_config, "--samples", "10"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_bad_config_is_reported_before_a_negative_seed(self, tmp_path, capsys):
        # the seed is checked with the run, after the config is read
        path = tmp_path / "no_s.json"
        path.write_text('{"type": "epr", "eta": 0.9}\n')
        assert cli.main(["mc", "--config", str(path), "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "seed" not in err

    def test_perfect_squeezing_rejected(self, tmp_path, capsys):
        path = tmp_path / "s0.json"
        path.write_text('{"type": "epr", "eta": 0.9, "s": 0}\n')
        assert cli.main(["mc", "--config", str(path), "--samples", "1000"]) == 1
        assert "perfect squeezing" in capsys.readouterr().err

    def test_far_displaced_input_is_not_a_disagreement(self, tmp_path, capsys):
        # the shot-noise channel with an input amplitude of 1e16, where a
        # float's spacing is 2
        config = channel_to_dict(budget_to_channel(shot_noise_budget()))
        config["input"]["mean_x"] = 1e16
        path = tmp_path / "displaced.json"
        path.write_text(json.dumps(config))
        args = ["mc", "--config", str(path), "--samples", "10000", "--seed", "1"]
        assert cli.main(args) == 0
        assert json.loads(capsys.readouterr().out)["max_abs_z"] < 5.0

    def test_large_variance_stderr_is_not_an_overflow(self, tmp_path, capsys):
        # N_X ~ 1e300: the jackknife deviations (~1e298) are representable
        # though their squares are not, so the run reports them
        config = channel_to_dict(budget_to_channel(shot_noise_budget()))
        config["measurement"]["noise_B"]["cov"] = [[1e300, 0.0], [0.0, 1.0]]
        path = tmp_path / "huge_noise.json"
        path.write_text(to_json(config))
        args = ["mc", "--config", str(path), "--samples", "1000", "--seed", "1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert 1e298 < payload["est_N_X"]["stderr"] < 1e299
        assert payload["max_abs_z"] < 5.0

    def test_singular_noise_is_not_a_disagreement(self, tmp_path, capsys):
        # stages that cancel exactly on Y (N_Y = 0), and a rank-1 X pair
        # (C_X = -2 B_X: both conditional variances 0)
        unit = [[1.0, 0.0], [0.0, 1.0]]
        cases = {
            "cancelling": _unit_channel(tmp_path, "c", unit, unit),
            "rank-1": _unit_channel(
                tmp_path, "r", [[4.0, 0.0], [0.0, 1.0]], [[-2.0, 0.0], [0.0, 0.0]]
            ),
        }
        for name, path in cases.items():
            args = ["mc", "--config", path, "--samples", "10000", "--seed", "1234"]
            assert cli.main(args) == 0, name
            payload = json.loads(capsys.readouterr().out)
            assert payload["max_abs_z"] < 5.0, name
        assert payload["est_cv_products"][0]["estimate"] == 0.0

    def test_large_beam_variance_is_not_a_psd_violation(self, tmp_path, capsys):
        # beam variance ~6.6e7: the joint covariance's rounding puts its
        # smallest eigenvalue near -4e-9, far inside the scaled slack
        path = tmp_path / "strong.json"
        path.write_text('{"type": "epr", "eta": 1.0, "s": 7.591898721329135e-09}')
        args = ["mc", "--config", str(path), "--samples", "100000", "--seed", "1"]
        assert cli.main(args) == 0
        assert json.loads(capsys.readouterr().out)["max_abs_z"] < 5.0

    def test_non_psd_stages_are_still_validity_errors(self, tmp_path, capsys):
        # a cross correlation beyond the stage amplitudes: at unit scale,
        # at large scale, and between a large B_X and a unit C_Y (a
        # correlation coefficient of 10, in the opposite-quadrature entry
        # that only the joint covariance check sees)
        unit = [[1.0, 0.0], [0.0, 1.0]]
        paths = [_unit_channel(tmp_path, "u", unit, [[1.5, 0.0], [0.0, 0.0]])]
        big = 1e8 * np.eye(2)
        huge = 1e12 * np.eye(2)
        stages = {
            "big": (big, big, 1.0000001 * big),
            "mixed": (huge, unit, [[0.0, 1e7], [0.0, 0.0]]),
        }
        for name, (noise_b, noise_c, cross) in stages.items():
            config = channel_to_dict(budget_to_channel(shot_noise_budget()))
            config["measurement"]["noise_B"]["cov"] = np.asarray(noise_b).tolist()
            config["reconstruction"]["noise_C"]["cov"] = np.asarray(noise_c).tolist()
            config["cross_cov_BC"] = np.asarray(cross).tolist()
            paths.append(str(tmp_path / f"{name}.json"))
            (tmp_path / f"{name}.json").write_text(json.dumps(config))
        for path in paths:
            for args in (["report"], ["mc", "--samples", "1000"]):
                assert cli.main([*args, "--config", path]) == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                assert "not positive semidefinite" in captured.err

    def test_oversized_sample_count_is_rejected_before_allocating(self, epr_config, capsys):
        for samples in (MAX_SAMPLES + 100, 10**15):
            tracemalloc.start()
            try:
                args = ["mc", "--config", epr_config, "--samples", str(samples)]
                assert cli.main(args) == 1
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1_000_000
            captured = capsys.readouterr()
            assert captured.out == "" and "Traceback" not in captured.err
            assert f"samples must be <= {MAX_SAMPLES}, got {samples}" in captured.err

    def test_disagreement_exits_five(self, epr_config, monkeypatch, capsys):
        bad = Comparison(estimate=2.0, stderr=0.1, analytic=1.0, z_score=10.0)
        ok = Comparison(estimate=1.0, stderr=0.1, analytic=1.0, z_score=0.0)
        rigged = McReport(
            samples=1000,
            seed=1,
            est_N_X=bad,
            est_N_Y=ok,
            est_F=ok,
            est_cv_products=(ok, ok),
            max_abs_z=10.0,
        )
        monkeypatch.setattr(cli, "simulate_protocol", lambda *run: rigged)
        args = ["mc", "--config", epr_config, "--samples", "1000"]
        assert cli.main(args) == 5
        assert "Monte Carlo disagreement" in capsys.readouterr().err


class TestErrorChannels:
    def test_malformed_json_reports_location(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "type": "epr",\n  "eta": }\n')
        assert cli.main(["report", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err
        assert "line 3" in err

    def test_unknown_config_key(self, tmp_path, capsys):
        path = tmp_path / "typo.json"
        path.write_text('{"type": "epr", "eta": 0.7, "ss": 0.3}\n')
        assert cli.main(["report", "--config", str(path)]) == 1
        assert "unknown keys" in capsys.readouterr().err

    def test_domain_error_in_scenario(self, tmp_path, capsys):
        path = tmp_path / "domain.json"
        path.write_text('{"type": "epr", "eta": 1.5, "s": 0.3}\n')
        assert cli.main(["report", "--config", str(path)]) == 1
        # non-finite numbers are config errors too, for report and mc alike
        nan_gain = channel_to_dict(budget_to_channel(shot_noise_budget()))
        nan_gain["measurement"]["g_X"] = float("nan")
        nan_noise = channel_to_dict(budget_to_channel(shot_noise_budget()))
        nan_noise["measurement"]["noise_B"]["cov"][0][0] = float("nan")
        cases = [
            ("NaN", json.dumps(nan_gain)),
            ("NaN", json.dumps(nan_noise)),
            ("Infinity", '{"type": "epr", "eta": 0.7, "s": Infinity}'),
            ("-Infinity", '{"type": "epr", "eta": -Infinity, "s": 0.3}'),
            ("1e999", '{"type": "epr", "eta": 0.7, "s": 1e999}'),
            ("9" * 400, '{"type": "epr", "eta": 0.7, "s": %s}' % ("9" * 400)),
        ]
        for i, (token, text) in enumerate(cases):
            path = tmp_path / f"non_finite{i}.json"
            path.write_text(text)
            for args in (["report"], ["mc", "--samples", "1000"]):
                assert cli.main([*args, "--config", str(path)]) == 1
                err = capsys.readouterr().err
                assert "Traceback" not in err
                assert f"non-finite number {token}" in err

    def test_unreadable_or_ambiguous_config_is_a_config_error(self, tmp_path, capsys):
        channel = to_json(channel_to_dict(budget_to_channel(shot_noise_budget())))
        cases = [
            ("not UTF-8", b'\xff\xfe{"type": "epr", "eta": 0.7, "s": 0.3}'),
            ("not UTF-8", '{"type": "epr", "eta": 0.7, "s": 0.3}'.encode("utf-16")),
            (
                "duplicate key 'eta'",
                b'{"type": "epr", "eta": 0.5, "s": 0.5, "eta": 0.9}',
            ),
            (
                "duplicate key 'g_X'",
                channel.replace('"g_X": 1', '"g_X": 1, "g_X": 1', 1).encode(),
            ),
            (
                "duplicate key 'cov'",
                channel.replace('"cov": [', '"cov": [[1, 0], [0, 1]], "cov": [', 1).encode(),
            ),
        ]
        for i, (message, data) in enumerate(cases):
            path = tmp_path / f"config{i}.json"
            path.write_bytes(data)
            for args in (["report"], ["mc", "--samples", "1000"]):
                assert cli.main([*args, "--config", str(path)]) == 1
                captured = capsys.readouterr()
                assert captured.out == ""
                assert "Traceback" not in captured.err
                assert captured.err.startswith("config error") and message in captured.err

    def test_extreme_squeezing_is_a_config_error(self, tmp_path, capsys):
        # s this far from 1 has no budget that resolves the criteria; the
        # sweep reports the limit verdict instead (eta <= 1/2: no violation)
        for s in ("1e-17", "1e17"):
            path = tmp_path / f"extreme_{s}.json"
            path.write_text('{"type": "epr", "eta": 0.3, "s": %s}\n' % s)
            for args in (["report"], ["mc", "--samples", "1000"]):
                assert cli.main([*args, "--config", str(path)]) == 1
                captured = capsys.readouterr()
                assert captured.out == ""
                assert "Traceback" not in captured.err
                assert "no noise budget that resolves the criteria" in captured.err
            grid = ["--eta-min", "0.3", "--eta-max", "0.3", "--eta-steps", "1"]
            grid += ["--s-min", s, "--s-max", s, "--s-steps", "1"]
            assert cli.main(["sweep", *grid]) == 0
            row = capsys.readouterr().out.splitlines()[1]
            assert row.startswith("0.3,") and row.endswith(",false")

    def test_deep_nesting_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        for args in (["report"], ["mc", "--samples", "1000"]):
            assert cli.main([*args, "--config", str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "Traceback" not in captured.err
            assert captured.err.startswith("config error") and "nested" in captured.err

    @pytest.mark.parametrize(
        "where",
        [
            "measurement.noise_B.cov[0][1]",
            "measurement.noise_B.mean[0]",
            "reconstruction.noise_C.cov[1][1]",
            "reconstruction.noise_C.mean[1]",
            "cross_cov_BC[0][0]",
        ],
    )
    @pytest.mark.parametrize("entry", ["1", True, "nan"], ids=["string", "bool", "nan"])
    def test_array_entry_that_is_not_a_number(self, where, entry, tmp_path, capsys):
        # numpy would read "1" and true as 1.0 and "nan" as NaN
        config = channel_to_dict(budget_to_channel(shot_noise_budget()))
        *path, last = where.replace("[", ".").replace("]", "").split(".")
        owner = config
        for key in path:
            owner = owner[int(key) if key.isdigit() else key]
        owner[int(last)] = entry
        config_path = tmp_path / "entry.json"
        config_path.write_text(json.dumps(config))
        for args in (["report"], ["mc", "--samples", "1000"]):
            assert cli.main([*args, "--config", str(config_path)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "Traceback" not in captured.err
            assert captured.err == f"config error: {where}: expected a number, got {entry!r}\n"

    def test_overflowing_gain_square_is_a_validity_error(self, tmp_path, capsys):
        # unity total gain from 1e-200 * 1e200: h_X squared overflows a float
        config = channel_to_dict(budget_to_channel(shot_noise_budget()))
        config["measurement"].update(g_X=1e-200, g_Y=1e-200)
        config["measurement"]["noise_B"]["cov"] = [[1e-300, 0.0], [0.0, 1e-300]]
        config["reconstruction"].update(h_X=1e200, h_Y=1e200)
        path = tmp_path / "huge_gain.json"
        path.write_text(to_json(config))
        for args in (["report"], ["mc", "--samples", "1000"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert cli.main([*args, "--config", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "Traceback" not in captured.err and "Warning" not in captured.err
            assert "budget entry v_Xm must be finite" in captured.err

    @pytest.mark.parametrize(
        "stage, noise, figure",
        [
            ("measurement", "noise_B", "cv_products[1]"),
            ("reconstruction", "noise_C", "cv_products[0]"),
        ],
    )
    def test_overflowing_figure_is_a_validity_error(
        self, stage, noise, figure, tmp_path, capsys
    ):
        # valid stages whose conditional-variance product overflows to inf,
        # which strict JSON cannot carry
        config = channel_to_dict(budget_to_channel(shot_noise_budget()))
        config[stage][noise]["cov"] = [[1e300, 0.0], [0.0, 1e300]]
        path = tmp_path / "huge_noise.json"
        path.write_text(to_json(config))
        for args in (["report"], ["mc", "--samples", "1000"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert cli.main([*args, "--config", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "Traceback" not in captured.err and "Warning" not in captured.err
            assert f"criterion figure {figure} is not finite: inf" in captured.err

    @pytest.mark.parametrize("samples", ["10000", "1000000"])
    def test_overflowing_sample_sums_are_a_validity_error(self, samples, tmp_path, capsys):
        # a valid channel with finite figures whose sampled statistics
        # overflow: in the jackknife at 100 samples a block, in a block's
        # own sums at 10000
        config = channel_to_dict(budget_to_channel(shot_noise_budget()))
        config["measurement"]["noise_B"]["cov"] = [[1e305, 0.0], [0.0, 1.0]]
        path = tmp_path / "huge_noise.json"
        path.write_text(to_json(config))
        assert cli.main(["report", "--config", str(path)]) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            args = ["mc", "--config", str(path), "--samples", samples, "--seed", "1"]
            assert cli.main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err and "Warning" not in captured.err
        assert captured.err == (
            f"validity error: Monte Carlo statistics overflow over {samples} samples\n"
        )

    def test_physics_violation_exits_two(self, tmp_path, capsys):
        config = channel_to_dict(budget_to_channel(shot_noise_budget()))
        config["measurement"]["noise_B"]["cov"] = [[0.5, 0.0], [0.0, 0.5]]
        path = tmp_path / "subbound.json"
        path.write_text(to_json(config))
        assert cli.main(["report", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "validity error" in err
        assert "measurement noise bound" in err

    def test_small_gain_sub_bound_noise_names_the_stage(self, tmp_path, capsys):
        # 0.1% below |g_X*g_Y| = 1e-6: the stage, not the budget, rejects it
        config = channel_to_dict(budget_to_channel(shot_noise_budget()))
        config["measurement"].update(g_X=1e-3, g_Y=1e-3)
        config["measurement"]["noise_B"]["cov"] = [[9.99e-7, 0.0], [0.0, 9.99e-7]]
        config["reconstruction"].update(h_X=1e3, h_Y=1e3)
        path = tmp_path / "small_gain.json"
        path.write_text(to_json(config))
        for args in (["report"], ["mc", "--samples", "1000"]):
            assert cli.main([*args, "--config", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "validity error: measurement noise bound dB_X*dB_Y >= |g_X*g_Y| "
                "violated: 9.99e-07 < 1e-06\n"
            )

    @pytest.mark.parametrize(
        "noise_b", [[[1.0, 0.0], [0.0, 1.0]], [[0.5, 0.0], [0.0, 0.5]]]
    )
    def test_quadrature_mixing_exits_two(self, noise_b, tmp_path, capsys):
        # the mixing gains are accepted only as 0, and a nonzero one is
        # named even when the measurement noise is also below its bound
        config = channel_to_dict(budget_to_channel(shot_noise_budget()))
        config["measurement"].update(f_X=0.1, f_Y=0.0)
        config["measurement"]["noise_B"]["cov"] = noise_b
        path = tmp_path / "mixing.json"
        path.write_text(to_json(config))
        for args in (["report"], ["mc", "--samples", "1000"]):
            assert cli.main([*args, "--config", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "validity error: unity-gain budget needs f_X = f_Y = 0\n"

    @pytest.mark.parametrize(
        "where, value, code, message",
        [
            ("input", {"var_X": 1e308, "var_Y": 1e308}, 0, ""),
            (
                "noise_B",
                [[1e308, 0.0], [0.0, 1e308]],
                2,
                "criterion figure cv_products[1] is not finite",
            ),
            ("cross_cov_BC", [[1e308, 0.0], [0.0, 0.0]], 2, "not positive semidefinite"),
        ],
    )
    def test_largest_finite_moments_do_not_overflow(
        self, where, value, code, message, tmp_path, capsys
    ):
        # symmetrizing a covariance must not double an entry near the
        # float maximum
        config = channel_to_dict(budget_to_channel(shot_noise_budget()))
        if where == "noise_B":
            config["measurement"]["noise_B"]["cov"] = value
        else:
            config[where] = value
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(config))
        for args in (["report"], ["mc", "--samples", "1000"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert cli.main([*args, "--config", str(path)]) == code
            captured = capsys.readouterr()
            assert "Traceback" not in captured.err and "Warning" not in captured.err
            assert message in captured.err

    # edits to the unit channel, the exit code of both commands, and what
    # stderr must hold
    NOISE_STATE_EDGES = {
        # a 1e12 input variance does not widen the noise state's PSD slack
        "squeezed-input-psd": (
            {
                "input": {"var_X": 1e12, "var_Y": 1e-12},
                "cross_cov_BC": [[0.0, -1.001], [0.0, 0.0]],
            },
            2,
            "joint stage covariance invalid: correlation matrix is not positive semidefinite",
        ),
        # a variance within PSD rounding below 0 counts as 0, not as NaN
        "negative-rounding-variance": (
            {"noise_B": [[-1e-11, 0.0], [0.0, 5.0]]},
            2,
            "measurement noise bound dB_X*dB_Y >= |g_X*g_Y| violated: 0 < 1\n",
        ),
        # a correlation 1 ulp past the Cauchy-Schwarz edge of 1000-unit noises
        "cauchy-schwarz-ulp": (
            {
                "noise_B": [[1000.0, 0.0], [0.0, 1000.0]],
                "noise_C": [[1000.0, 0.0], [0.0, 1000.0]],
                "cross_cov_BC": [[-1000.0000000000011, 0.0], [0.0, -1000.0]],
            },
            0,
            "",
        ),
        # 3e-9 below the bound, in digits that show it
        "sub-bound-digits": (
            {"noise_C": [[1 - 3e-9, 0.0], [0.0, 1 - 3e-9]]},
            2,
            "reconstruction noise bound dC_X*dC_Y >= 1 violated: 0.999999997 < 1\n",
        ),
        # inside the tolerance: the stage and the budget apply one rule
        "unity-gain-edge": ({"noise_B": [[1 - 0.9e-9, 0.0], [0.0, 1 - 0.9e-9]]}, 0, ""),
        # a total gain inside its tolerance: the budget's measurement bound
        # is the stage's, referred through h
        "gain-tolerance-edge": (
            {"reconstruction": {"h_X": 1 - 0.9e-9, "h_Y": 1 - 0.9e-9}},
            0,
            "",
        ),
        "gain-tolerance-sub-bound": (
            {
                "reconstruction": {"h_X": 1 - 0.9e-9, "h_Y": 1 - 0.9e-9},
                "noise_B": [[1 - 1e-6, 0.0], [0.0, 1 - 1e-6]],
            },
            2,
            "measurement noise bound dB_X*dB_Y >= |g_X*g_Y| violated: 0.999999 < 1\n",
        ),
        # B_X and C_Y at 1e-6 beside 1e6 variances, coefficient 1.005
        "mixed-scale-correlation": (
            {
                "noise_B": [[1e-6, 0.0], [0.0, 1e6]],
                "noise_C": [[1e6, 0.0], [0.0, 1e-6]],
                "cross_cov_BC": [[0.0, 1.005e-6], [0.0, 0.0]],
            },
            2,
            "joint stage covariance invalid: correlation matrix is not positive semidefinite",
        ),
    }

    @pytest.mark.parametrize("name", sorted(NOISE_STATE_EDGES))
    def test_noise_state_edges(self, name, tmp_path, capsys):
        edits, code, message = self.NOISE_STATE_EDGES[name]
        config = channel_to_dict(budget_to_channel(shot_noise_budget()))
        for key, value in edits.items():
            if key == "noise_B":
                config["measurement"]["noise_B"]["cov"] = value
            elif key == "noise_C":
                config["reconstruction"]["noise_C"]["cov"] = value
            elif key == "reconstruction":
                config[key].update(value)
            else:
                config[key] = value
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        for args in (["report"], ["mc", "--samples", "1000"]):
            assert cli.main([*args, "--config", str(path)]) == code, args
            captured = capsys.readouterr()
            assert "Traceback" not in captured.err and "Warning" not in captured.err
            assert message in captured.err
            if code == 0:
                assert "error" not in captured.err
            else:
                assert captured.out == ""

    def test_missing_config_file_exits_three(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert cli.main(["report", "--config", missing]) == 3
        assert "i/o error" in capsys.readouterr().err

    def test_unwritable_out_path_exits_three(self, epr_config, tmp_path, capsys):
        out = str(tmp_path / "no_such_dir" / "out.json")
        assert cli.main(["report", "--config", epr_config, "--out", out]) == 3
        assert "i/o error" in capsys.readouterr().err

    def test_usage_errors_share_the_config_exit_code(self, capsys):
        assert cli.main(["report"]) == 1
        assert "usage error" in capsys.readouterr().err
        assert cli.main(["frobnicate"]) == 1
        assert cli.main([]) == 1
        assert cli.main(["sweep", "--bogus-flag", "1"]) == 1

    def test_help_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        assert "report" in capsys.readouterr().out


class TestStartup:
    def test_import_loads_no_heavy_stdlib_modules(self):
        # every command pays for what `import cvteleport.cli` loads; modules
        # already loaded before it (by site hooks, say) are not counted
        code = (
            "import sys; before = set(sys.modules); import cvteleport.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))"
        )
        src = os.path.dirname(os.path.dirname(cvteleport.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=60, check=True,
        )
        loaded = set(done.stdout.split())
        assert "cvteleport.cli" in loaded
        for name in ("concurrent.futures", "multiprocessing", "logging"):
            assert name not in loaded

    def test_given_argv_never_freezes_the_collector(self, epr_config, capsys):
        before = gc.get_freeze_count()
        assert cli.main(["report", "--config", epr_config]) == 0
        assert gc.get_freeze_count() == before

    def test_own_command_line_freezes_the_import_heap(self, epr_config, tmp_path):
        # main() with no argv reads sys.argv, as the console script does
        out = tmp_path / "report.json"
        code = (
            "import gc, sys; from cvteleport import cli; "
            f"sys.argv = ['cvteleport', 'report', '--config', {epr_config!r}, '--out', {str(out)!r}]; "
            "code = cli.main(); print(code, gc.get_freeze_count())"
        )
        src = os.path.dirname(os.path.dirname(cvteleport.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, timeout=60, check=True,
        )
        exit_code, frozen = map(int, done.stdout.split())
        assert exit_code == 0 and frozen > 0
        assert json.loads(out.read_text())["fidelity"] == pytest.approx(1 / 1.51)


class TestStdoutHashes:
    """sha256 of stdout for reference runs; any byte of drift fails.

    The ``mc`` hash pins the sampled stream (the four stage noises, seeded
    per block) as well as the rendering.
    """

    # "epr", "channel" and "gain-channel" stand for the README EPR config,
    # the shot-noise channel config and the gain_channel_config fixture
    CASES = {
        "sweep": (
            ["sweep"],
            "2bd0d76d59eb7445cd2d37579531f737389b4aa16deadb8b64a580681c5728e3",
        ),
        "verify": (
            ["verify", "--trials", "10000"],
            "2b4a8b002474ff3497d541004b56088b0ca7415d30e30eafb7f6c5fd073f7c68",
        ),
        "mc": (
            ["mc", "--samples", "100000", "--seed", "1234", "--config", "epr"],
            "f1871c8a7ce1b6b96e63f8bfe6d4c9b2e5708d1c64476b8fcc9b06b1458addb6",
        ),
        "mc-gain-channel": (
            ["mc", "--samples", "100000", "--seed", "1234", "--config", "gain-channel"],
            "1fe0646a09c46808e714aae7f1192c44c67e06de2cc12760a4c1192630cab86c",
        ),
        "report-epr": (
            ["report", "--config", "epr"],
            "b9b4c9335b0d362d15f52918688faacefeaff77d3a98789d3211fa745381d17c",
        ),
        "report-channel": (
            ["report", "--config", "channel"],
            "25620b97ab7d65926d00bad3799cb20fe51243382b26a3c113612e637458dccc",
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_stdout_hash(self, name, epr_config, channel_config, gain_channel_config, capsys):
        args, digest = self.CASES[name]
        configs = {
            "epr": epr_config,
            "channel": channel_config,
            "gain-channel": gain_channel_config,
        }
        args = [configs.get(a, a) for a in args]
        assert cli.main(args) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    # the 101 x 101 default-range grid, and a grid with negative zero, s = 0
    # (infinite squeezing_db) and s up to the largest a sweep accepts
    SWEEP_CASES = {
        "101x101": (
            ["sweep", "--s-steps", "101"],
            "23862273c6c28f2b0225e4ed3d499cb07399013be5d3bdab0b45a9409eab16e3",
        ),
        "extremes": (
            ["sweep", "--eta-min", "-0.0", "--eta-max", "1", "--eta-steps", "7"]
            + ["--s-min", "0", "--s-max", "1e150", "--s-steps", "9"],
            "2ab238fb07d2506488e0fd79507d44ba7927abad7b448fad1d41525bafa450e9",
        ),
    }

    @pytest.mark.parametrize("name", sorted(SWEEP_CASES))
    def test_sweep_stdout_hash_without_warnings(self, name, capsys):
        args, digest = self.SWEEP_CASES[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(args) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == digest

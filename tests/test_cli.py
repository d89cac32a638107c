"""End-to-end command-line behavior, run in process through main()."""

import hashlib
import json
import warnings

import numpy as np
import pytest

import cvteleport.cli as cli
from cvteleport.channel import budget_to_channel, ideal_budget, shot_noise_budget
from cvteleport.criteria import VerificationSummary, inequality_trace
from cvteleport.montecarlo import Comparison, McReport
from cvteleport.serialize import channel_to_dict, to_json


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
def ideal_config(tmp_path):
    path = tmp_path / "ideal.json"
    path.write_text(to_json(channel_to_dict(budget_to_channel(ideal_budget()))))
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

    def test_degenerate_bounds_rejected(self, capsys):
        assert cli.main(["sweep", "--eta-steps", "0"]) == 1
        assert cli.main(["sweep", "--eta-min", "0.8", "--eta-max", "0.2"]) == 1
        err = capsys.readouterr().err
        assert "eta-steps" in err
        assert "eta-max must be >= eta-min" in err


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

    def test_perfect_squeezing_rejected(self, tmp_path, capsys):
        path = tmp_path / "s0.json"
        path.write_text('{"type": "epr", "eta": 0.9, "s": 0}\n')
        assert cli.main(["mc", "--config", str(path), "--samples", "1000"]) == 1
        assert "perfect squeezing" in capsys.readouterr().err

    def test_disagreement_exits_five(self, epr_config, monkeypatch, capsys):
        bad = Comparison(estimate=2.0, stderr=0.1, analytic=1.0, z_score=10.0)
        ok = Comparison(estimate=1.0, stderr=0.1, analytic=1.0, z_score=0.0)
        rigged = McReport(
            samples=1000,
            seed=1,
            N_X=bad,
            N_Y=ok,
            fidelity=ok,
            cv_product_r_given_m=ok,
            cv_product_m_given_r=ok,
        )
        monkeypatch.setattr(cli, "simulate_protocol", lambda run: rigged)
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

    def test_physics_violation_exits_two(self, tmp_path, capsys):
        config = channel_to_dict(budget_to_channel(shot_noise_budget()))
        config["measurement"]["noise_B"]["cov"] = [[0.5, 0.0], [0.0, 0.5]]
        path = tmp_path / "subbound.json"
        path.write_text(to_json(config))
        assert cli.main(["report", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "validity error" in err
        assert "measurement noise bound" in err

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


class TestStdoutHashes:
    """sha256 of stdout for reference runs; any byte of drift fails.

    The ``mc`` hash pins the sampled stream (the four stage noises, seeded
    per block) as well as the rendering.
    """

    CASES = {
        "sweep": (
            ["sweep"],
            "2bd0d76d59eb7445cd2d37579531f737389b4aa16deadb8b64a580681c5728e3",
        ),
        "verify": (
            ["verify", "--trials", "10000"],
            "c0a040e19190125663b778bb53287c55e4ca9444014bda1986525983662a38bb",
        ),
        "mc": (
            ["mc", "--samples", "100000", "--seed", "1234"],
            "f1871c8a7ce1b6b96e63f8bfe6d4c9b2e5708d1c64476b8fcc9b06b1458addb6",
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_stdout_hash(self, name, epr_config, capsys):
        args, digest = self.CASES[name]
        if name == "mc":
            args = [*args, "--config", epr_config]
        assert cli.main(args) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    # the 101 x 101 default-range grid, and a grid with negative zero, s = 0
    # (infinite squeezing_db) and s up to 1e200 (N_out**2 overflows to inf)
    SWEEP_CASES = {
        "101x101": (
            ["sweep", "--s-steps", "101"],
            "23862273c6c28f2b0225e4ed3d499cb07399013be5d3bdab0b45a9409eab16e3",
        ),
        "extremes": (
            ["sweep", "--eta-min", "-0.0", "--eta-max", "1", "--eta-steps", "7"]
            + ["--s-min", "0", "--s-max", "1e200", "--s-steps", "9"],
            "bf809701fc64cce23f64c542668ee2050e57efd72118c5db5c07fa42cfe3f1b5",
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

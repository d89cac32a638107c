"""Command-line front end.

Four subcommands: ``report`` evaluates every criterion for one channel
config, ``sweep`` tabulates the shared-entanglement scenario over an
(eta, s) grid as CSV, ``verify`` stress-tests the inequality chain on
random budgets, and ``mc`` runs the Monte Carlo cross-check.  Reports go
to stdout unless ``--out`` is given.

Exit codes separate error classes: 0 success, 1 config or usage problems,
2 physics validity violations (the message names the violated bound),
3 I/O failures, 4 verification failures, 5 Monte Carlo disagreement
(some |z| >= 5).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .channel import budget_to_channel
from .criteria import full_report, run_chain_verification
from .epr import EprScenario, sweep, to_noise_budget
from .errors import ConfigError, ValidityError
from .montecarlo import McRunConfig, simulate_protocol
from .serialize import (
    config_from_json,
    mc_report_to_dict,
    report_to_dict,
    sweep_to_csv,
    to_json,
    verification_to_dict,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VALIDITY = 2
EXIT_IO = 3
EXIT_VERIFICATION = 4
EXIT_MC_DISAGREEMENT = 5

Z_THRESHOLD = 5.0


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argparse front end whose usage failures share the config exit code."""

    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="cvteleport",
        description="Quality criteria for continuous-variable teleportation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser(
        "report", help="evaluate all criteria for a channel or scenario config"
    )
    p_report.add_argument("--config", required=True, help="JSON config path")
    p_report.add_argument("--out", help="output path (default stdout)")

    p_sweep = sub.add_parser(
        "sweep", help="tabulate the shared-entanglement scenario over an (eta, s) grid"
    )
    p_sweep.add_argument("--eta-min", type=float, default=0.0)
    p_sweep.add_argument("--eta-max", type=float, default=1.0)
    p_sweep.add_argument("--eta-steps", type=int, default=101)
    p_sweep.add_argument("--s-min", type=float, default=0.0)
    p_sweep.add_argument("--s-max", type=float, default=1.0)
    p_sweep.add_argument("--s-steps", type=int, default=11)
    p_sweep.add_argument("--out", help="output CSV path (default stdout)")

    p_verify = sub.add_parser(
        "verify", help="randomized verification of the noise-product inequality chain"
    )
    p_verify.add_argument("--trials", type=int, default=10000)
    p_verify.add_argument("--seed", type=int, default=1234)
    p_verify.add_argument("--out", help="output path (default stdout)")

    p_mc = sub.add_parser("mc", help="Monte Carlo cross-check against closed forms")
    p_mc.add_argument("--config", required=True, help="JSON config path")
    p_mc.add_argument("--samples", type=int, default=1000000)
    p_mc.add_argument("--seed", type=int, default=1234)
    p_mc.add_argument("--out", help="output path (default stdout)")

    return parser


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_config(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(
                f"config file is not UTF-8 text: {exc.reason} at byte {exc.start}"
            ) from None
    return config_from_json(text)


def _as_channel(config):
    """Realize a scenario config as an explicit unity-gain channel."""
    if isinstance(config, EprScenario):
        return budget_to_channel(to_noise_budget(config))
    return config


def _cmd_report(args) -> int:
    config = _as_channel(_load_config(args.config))
    report = full_report(config)
    _emit(to_json(report_to_dict(report)), args.out)
    return EXIT_OK


def _grid(lo: float, hi: float, steps: int, name: str, domain) -> np.ndarray:
    if steps < 1:
        raise ConfigError(f"{name}-steps must be >= 1, got {steps}")
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ConfigError(f"{name} grid bounds must be finite, got [{lo}, {hi}]")
    if hi < lo:
        raise ConfigError(f"{name}-max must be >= {name}-min")
    d_lo, d_hi = domain
    if lo < d_lo or (d_hi is not None and hi > d_hi):
        hi_text = "inf" if d_hi is None else f"{d_hi}"
        raise ConfigError(f"{name} grid must stay within [{d_lo}, {hi_text}]")
    return np.linspace(lo, hi, steps)


def _cmd_sweep(args) -> int:
    eta_grid = _grid(args.eta_min, args.eta_max, args.eta_steps, "eta", (0.0, 1.0))
    s_grid = _grid(args.s_min, args.s_max, args.s_steps, "s", (0.0, None))
    points = sweep(eta_grid, s_grid)
    _emit(sweep_to_csv(points), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.trials < 1:
        raise ConfigError(f"trials must be >= 1, got {args.trials}")
    if args.seed < 0:
        raise ConfigError("seed must be a nonnegative integer")
    summary = run_chain_verification(args.trials, args.seed)
    _emit(to_json(verification_to_dict(summary)), args.out)
    if summary.bound_violations > 0:
        print(
            f"verification failed: {summary.bound_violations} bound violation(s) "
            f"in {summary.trials} trials",
            file=sys.stderr,
        )
        return EXIT_VERIFICATION
    return EXIT_OK


def _mc_table(payload: dict) -> str:
    rows = [("quantity", "estimate", "stderr", "analytic", "z")]
    keys = ["est_N_X", "est_N_Y", "est_F"]
    entries = [payload[k] for k in keys] + payload["est_cv_products"]
    names = keys + ["est_cv_product_r|m", "est_cv_product_m|r"]
    for name, entry in zip(names, entries):
        rows.append(
            (
                name,
                f"{entry['estimate']:.6g}",
                f"{entry['stderr']:.3g}",
                f"{entry['analytic']:.6g}",
                f"{entry['z_score']:+.2f}",
            )
        )
    widths = [max(len(r[i]) for r in rows) for i in range(5)]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    )


def _cmd_mc(args) -> int:
    if args.seed < 0:
        raise ConfigError("seed must be a nonnegative integer")
    config = _load_config(args.config)
    run = McRunConfig(channel=config, samples=args.samples, seed=args.seed)
    report = simulate_protocol(run)
    payload = mc_report_to_dict(report)
    _emit(to_json(payload), args.out)
    print(_mc_table(payload), file=sys.stderr)
    if report.max_abs_z >= Z_THRESHOLD:
        print(
            f"Monte Carlo disagreement: max |z| = {report.max_abs_z:.2f} "
            f">= {Z_THRESHOLD}",
            file=sys.stderr,
        )
        return EXIT_MC_DISAGREEMENT
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_mc(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValidityError as exc:
        print(f"validity error: {exc}", file=sys.stderr)
        return EXIT_VALIDITY
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

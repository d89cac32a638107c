"""Command-line front end.

Four subcommands: ``report`` evaluates every criterion for one channel
config, ``sweep`` tabulates the shared-entanglement scenario over an
(eta, s) grid as CSV, ``verify`` stress-tests the inequality chain on
random budgets, and ``mc`` runs the Monte Carlo cross-check.  ``report``,
``verify`` and ``mc`` render their result record field for field,
``to_json(asdict(record))``.  Reports go to stdout unless ``--out`` is
given.

``sweep`` streams: it evaluates and writes the grid one block of rows at
a time, so its memory does not grow with the grid.  Only the two axes
do, at 8 bytes per step, and :data:`MAX_GRID_STEPS` caps each of them.
:data:`cvteleport.epr.MAX_SWEEP_S` caps s so every CSV column stays finite.
``mc`` holds one of its 100 jackknife blocks at a time, about one byte
per sample, and ``montecarlo.MAX_SAMPLES`` caps ``--samples``.
``--trials`` needs no memory cap: ``verify`` draws and checks budgets in
batches of at most 4096 rows, so only its running time grows with it.

Exit codes separate error classes: 0 success, 1 config or usage problems,
2 physics validity violations (the message names the violated bound),
3 I/O failures, 4 verification failures, 5 Monte Carlo disagreement
(some |z| >= 5).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import sys
from dataclasses import asdict

import numpy as np

from .criteria import full_report, run_chain_verification
from .epr import MAX_SWEEP_S, EprScenario, scenario_report, sweep
from .errors import ConfigError, ValidityError
from .montecarlo import McReport, simulate_protocol
from .serialize import (
    SWEEP_CSV_HEADER,
    config_from_json,
    sweep_csv_rows,
    to_json,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VALIDITY = 2
EXIT_IO = 3
EXIT_VERIFICATION = 4
EXIT_MC_DISAGREEMENT = 5

Z_THRESHOLD = 5.0

# Largest --eta-steps / --s-steps.  A streamed sweep holds one block of
# rows, so the axes are all that grows with the grid: 8 bytes per step.
# At this cap the two axes hold 16 MB, about half of what the interpreter
# and numpy take by themselves, and one axis alone is a million CSV rows.
MAX_GRID_STEPS = 1_000_000
# A sweep renders its grid this many rows at a time, so only one chunk's
# cells and row strings exist as Python objects at once.
_SWEEP_BLOCK_ROWS = 1024


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


@contextlib.contextmanager
def _output(out_path: str | None):
    """The ``--out`` file opened for writing, else the current ``sys.stdout``."""
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            yield fh
    else:
        yield sys.stdout


def _emit(text: str, out_path: str | None) -> None:
    with _output(out_path) as fh:
        fh.write(text)


def _load_config(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(
                f"config file is not UTF-8 text: {exc.reason} at byte {exc.start}"
            ) from None
    return config_from_json(text)


def _cmd_report(args) -> int:
    config = _load_config(args.config)
    if isinstance(config, EprScenario):
        report = scenario_report(config)
    else:
        report = full_report(config)
    _emit(to_json(asdict(report)), args.out)
    return EXIT_OK


def _grid(lo: float, hi: float, steps: int, name: str, domain) -> np.ndarray:
    if steps < 1:
        raise ConfigError(f"{name}-steps must be >= 1, got {steps}")
    if steps > MAX_GRID_STEPS:
        raise ConfigError(f"{name}-steps must be <= {MAX_GRID_STEPS}, got {steps}")
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ConfigError(f"{name} grid bounds must be finite, got [{lo}, {hi}]")
    if hi < lo:
        raise ConfigError(f"{name}-max must be >= {name}-min")
    d_lo, d_hi = domain
    if lo < d_lo or hi > d_hi:
        raise ConfigError(f"{name} grid must stay within [{d_lo}, {d_hi}]")
    return np.linspace(lo, hi, steps)


def _cmd_sweep(args) -> int:
    eta_grid = _grid(args.eta_min, args.eta_max, args.eta_steps, "eta", (0.0, 1.0))
    s_grid = _grid(args.s_min, args.s_max, args.s_steps, "s", (0.0, MAX_SWEEP_S))
    # Each chunk of the grid is at most one block of rows: whole s rows for
    # a run of eta values, or one eta value and a run of s when an s row is
    # longer than a block.  Eta varies slowest, so the chunks come in order.
    eta_chunk = max(1, _SWEEP_BLOCK_ROWS // len(s_grid))
    s_chunk = min(len(s_grid), _SWEEP_BLOCK_ROWS)
    with _output(args.out) as out:
        out.write(SWEEP_CSV_HEADER)
        for i in range(0, len(eta_grid), eta_chunk):
            for j in range(0, len(s_grid), s_chunk):
                table = sweep(eta_grid[i : i + eta_chunk], s_grid[j : j + s_chunk])
                out.write(sweep_csv_rows(table))
    return EXIT_OK


def _cmd_verify(args) -> int:
    summary = run_chain_verification(args.trials, args.seed)
    _emit(to_json(asdict(summary)), args.out)
    if summary.bound_violations > 0:
        print(
            f"verification failed: {summary.bound_violations} bound violation(s) "
            f"in {summary.trials} trials",
            file=sys.stderr,
        )
        return EXIT_VERIFICATION
    return EXIT_OK


def _mc_table(report: McReport) -> str:
    names = ("est_N_X", "est_N_Y", "est_F", "est_cv_product_r|m", "est_cv_product_m|r")
    comparisons = (report.est_N_X, report.est_N_Y, report.est_F, *report.est_cv_products)
    rows = [("quantity", "estimate", "stderr", "analytic", "z")] + [
        (name, f"{c.estimate:.6g}", f"{c.stderr:.3g}", f"{c.analytic:.6g}", f"{c.z_score:+.2f}")
        for name, c in zip(names, comparisons)
    ]
    widths = [max(len(r[i]) for r in rows) for i in range(5)]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    )


def _cmd_mc(args) -> int:
    config = _load_config(args.config)
    report = simulate_protocol(config, args.samples, args.seed)
    _emit(to_json(asdict(report)), args.out)
    print(_mc_table(report), file=sys.stderr)
    if report.max_abs_z >= Z_THRESHOLD:
        print(
            f"Monte Carlo disagreement: max |z| = {report.max_abs_z:.2f} "
            f">= {Z_THRESHOLD}",
            file=sys.stderr,
        )
        return EXIT_MC_DISAGREEMENT
    return EXIT_OK


def main(argv=None) -> int:
    """Run one command; ``argv`` defaults to the process's own arguments.

    On the process's own arguments the objects the imports made are frozen
    out of the collector first: they live until exit, and interpreter
    shutdown would otherwise walk them all in its final collections.
    """
    if argv is None:
        gc.freeze()
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

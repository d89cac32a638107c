"""Golden corpus of command lines: what each one exits with and prints.

``cli.tsv`` holds one row per invocation, tab-separated: a label, the
argv after ``cvteleport`` (JSON), the config file's text (a JSON string,
or ``null`` when the command reads none), the exit code, and the sha256
of stdout and of stderr.  A row is replayed in process through
:func:`cvteleport.cli.main` in a working directory of its own, with the
config written to ``config.json`` there, so every path in argv and in
the messages is relative and the digests do not depend on where the
replay runs.  Warnings are errors during a replay.

The invocations come from the benchmark's seeded input generator
(``perfbench/inputs.py``, loaded by path here and nowhere else) plus a
hand-written list of channels and error cases.  Regenerate with::

    PYTHONPATH=src python tests/golden/regen.py            # print changed rows
    PYTHONPATH=src python tests/golden/regen.py --accept   # and rewrite cli.tsv

A change that moves any output, or adds or drops an invocation, lists its
changed rows and exits 1; ``--accept`` writes them and exits 0.  Replaying
needs only this module and ``cli.tsv``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path
from typing import NamedTuple

from cvteleport import cli

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "cli.tsv"
CONFIG_NAME = "config.json"
COLUMNS = ("label", "argv", "config", "exit", "stdout_sha256", "stderr_sha256")

REPORT_SEEDS = (1, 2, 3, 4, 5)
SWEEP_SEEDS = (1, 31)
VERIFY_TRIALS = 1000
MC_SAMPLES = 10_000


class Row(NamedTuple):
    label: str
    argv: list
    config: str | None
    outcome: tuple[int, str, str]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def replay(argv: list, config: str | None) -> tuple[int, str, str]:
    """Run one command in the current directory: exit code and both digests."""
    config_file = Path(CONFIG_NAME)
    if config is not None:
        # surrogate escapes stand for bytes that are not UTF-8
        config_file.write_text(config, encoding="utf-8", errors="surrogateescape")
    out, err = io.StringIO(), io.StringIO()
    try:
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = cli.main(list(argv))
    finally:
        config_file.unlink(missing_ok=True)
    return code, _sha(out.getvalue()), _sha(err.getvalue())


def read_corpus(path: Path = CORPUS) -> list[Row]:
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0].split("\t") == list(COLUMNS), "unexpected corpus header"
    rows = []
    for line in lines[1:]:
        label, argv, config, code, out, err = line.split("\t")
        rows.append(Row(label, json.loads(argv), json.loads(config), (int(code), out, err)))
    return rows


def _format(row: Row) -> str:
    code, out, err = row.outcome
    cells = (row.label, json.dumps(row.argv), json.dumps(row.config), str(code), out, err)
    return "\t".join(cells)


def _perfbench_inputs():
    path = HERE.parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _channel(b, c, cross=None, g=(1.0, 1.0), h=(1.0, 1.0)) -> dict:
    config = {
        "type": "channel",
        "measurement": {"g_X": g[0], "g_Y": g[1], "noise_B": {"cov": b}},
        "reconstruction": {"h_X": h[0], "h_Y": h[1], "noise_C": {"cov": c}},
    }
    if cross is not None:
        config["cross_cov_BC"] = cross
    return config


ZERO = [[0.0, 0.0], [0.0, 0.0]]
UNIT = [[1.0, 0.0], [0.0, 1.0]]
NOT_PSD = [[1.0, 2.0], [2.0, 1.0]]
# Channels whose figures are known to be wrong or delicate: opposite-
# quadrature noise behind a noiseless measurement (physical, and singular),
# a correlation hidden in the 45-degree quadratures, a singular joint noise
# state, and gains other than +-1.
HAND_CHANNELS = {
    "opposite-noise": _channel(ZERO, [[2.0, 1.0], [1.0, 2.0]]),
    "opposite-noise-singular": _channel(ZERO, [[1.0, 1.0], [1.0, 1.0]]),
    "rotated-correlation": _channel(
        [[100.0, 0.0], [0.0, 100.0]],
        [[101.02, 1.0], [1.0, 101.02]],
        [[-100.0, 0.0], [0.0, -100.0]],
    ),
    "singular-cross": _channel(UNIT, UNIT, [[-1.0, 0.0], [0.0, 1.0]]),
    "mixed-gains": _channel(
        [[4.0, 0.0], [0.0, 0.25]],
        [[1.5, 0.0], [0.0, 0.8]],
        [[-0.9, 0.0], [0.0, 0.3]],
        g=(2.0, -0.5),
        h=(0.5, -2.0),
    ),
}

EPR_TEXT = json.dumps({"type": "epr", "eta": 0.7, "s": 0.3})


def _unit_with(path: tuple, value, *more: tuple) -> str:
    """The unit channel's config text with the entry at ``path`` set to
    ``value``, or removed when ``value`` is None; ``more`` holds further
    ``(path, value)`` edits, applied in turn."""
    config = _channel(UNIT, UNIT)
    for path, value in ((path, value), *more):
        *outer, key = path
        target = config
        for part in outer:
            target = target[part]
        if value is None:
            del target[key]
        else:
            target[key] = value
    return json.dumps(config)


# Configs that each end in one named rejection, run through both `report`
# and `mc`: config errors (exit 1), then validity errors (exit 2).  The
# last one reports fine, and only its sampled sums overflow.
REJECTED_CONFIGS = {
    "labels-reversed": _unit_with(("measurement", "noise_B", "labels"), ["B_Y", "B_X"]),
    "config-array": f"[{EPR_TEXT}]",
    "stage-list": _unit_with(("measurement",), [1.0, 1.0]),
    "gain-string": _unit_with(("measurement", "g_X"), "1"),
    "cov-boolean": _unit_with(("measurement", "noise_B", "cov"), [[True, 0.0], [0.0, 1.0]]),
    "gain-missing": _unit_with(("measurement", "g_X"), None),
    "duplicate-key": '{"type": "epr", "eta": 0.7, "eta": 0.8, "s": 0.3}',
    "nested-1e4": "[" * 10_000 + "]" * 10_000,
    "unknown-type": _unit_with(("type",), "qubit"),
    "cov-short": _unit_with(("measurement", "noise_B", "cov"), [[1.0, 0.0]]),
    "epr-s-unresolved": json.dumps({"type": "epr", "eta": 0.7, "s": 1e-9}),
    "mixing-gain": _unit_with(("measurement", "f_X"), 0.1),
    "noise-mean": _unit_with(("measurement", "noise_B", "mean"), [0.5, 0.0]),
    "input-var-zero": _unit_with(("input",), {"var_X": 0.0, "var_Y": 1.0}),
    "noise-c-asymmetric": _unit_with(
        ("reconstruction", "noise_C", "cov"), [[1.0, 0.5], [0.0, 1.0]]
    ),
    "noise-c-not-psd": _unit_with(
        ("reconstruction", "noise_C", "cov"), [[1.0, 2.0], [2.0, 1.0]]
    ),
    "joint-not-psd": _unit_with(("cross_cov_BC",), [[1.5, 0.0], [0.0, 0.0]]),
    # a covariance on a zero variance, which a large variance elsewhere in
    # the joint covariance must not excuse: between the two zero variances
    # of a noiseless measurement, and across the stages
    "zero-pair-correlated": json.dumps(
        _channel([[0.0, 1e-7], [1e-7, 0.0]], [[1e8, 0.0], [0.0, 1e8]])
    ),
    "zero-variance-cross": json.dumps(
        _channel(ZERO, [[1.0, 0.0], [0.0, 1e300]], [[1e100, 0.0], [0.0, 0.0]])
    ),
    # two faults each: the rule read at parse is named, not the stage's
    # covariance check or the other parse rule
    "not-psd-noise-mean": _unit_with(
        ("measurement", "noise_B", "cov"),
        NOT_PSD,
        (("measurement", "noise_B", "mean"), [0.5, 0.0]),
    ),
    "not-psd-mixing-gain": _unit_with(
        ("measurement", "noise_B", "cov"), NOT_PSD, (("measurement", "f_X"), 0.5)
    ),
    "noise-mean-mixing-gain": _unit_with(
        ("measurement", "noise_B", "mean"), [0.5, 0.0], (("measurement", "f_X"), 0.1)
    ),
    "mc-sums-overflow": _unit_with(
        ("measurement", "noise_B", "cov"), [[1e305, 0.0], [0.0, 1.0]]
    ),
    # valid stages whose measurement noise, referred to the output by h,
    # overflows a float
    "budget-overflow": json.dumps(
        _channel([[1e200, 0.0], [0.0, 1e200]], UNIT, g=(1e-200, 1e-200), h=(1e200, 1e200))
    ),
}
CV_OVERFLOW_TEXT = json.dumps(
    _channel([[1e200, 0.0], [0.0, 1.0]], [[1e200, 0.0], [0.0, 1.0]], [[5e199, 0.0], [0.0, 0.0]])
)
# Stage noises at 1e308 whose sum v_m + v_r overflows: anticorrelated at
# -1e308 the output noise cancels to 0; at -0.9e308 it is finite, and only
# the conditional-variance products overflow; correlated at +1e308 the
# output noise itself overflows.
HUGE = [[1e308, 0.0], [0.0, 1e308]]
CANCEL_TEXT = json.dumps(_channel(HUGE, HUGE, [[-1e308, 0.0], [0.0, -1e308]]))
NEAR_CANCEL_TEXT = json.dumps(_channel(HUGE, HUGE, [[-0.9e308, 0.0], [0.0, -0.9e308]]))
OVERFLOW_TEXT = json.dumps(_channel(HUGE, HUGE, HUGE))
MC_ARGV = ["mc", "--config", CONFIG_NAME, "--samples", "1000", "--seed", "1"]
# Usage, config, I/O and range errors, and sweep grids at their edges.
HAND_ROWS = [
    ("usage-no-command", [], None),
    ("usage-unknown-command", ["frobnicate"], None),
    ("usage-report-without-config", ["report"], None),
    ("usage-unknown-flag", ["sweep", "--bogus-flag", "1"], None),
    ("usage-non-integer-trials", ["verify", "--trials", "ten"], None),
    ("io-missing-config", ["report", "--config", "missing.json"], None),
    ("io-missing-out-dir", ["report", "--config", CONFIG_NAME, "--out", "missing/x.json"],
     EPR_TEXT),
    ("io-mc-missing-out-dir",
     ["mc", "--config", CONFIG_NAME, "--samples", "1000", "--out", "missing/x.json"],
     EPR_TEXT),
    ("config-not-utf8", ["report", "--config", CONFIG_NAME], "\udcff"),
    ("config-s-zero-mc", ["mc", "--config", CONFIG_NAME], json.dumps(
        {"type": "epr", "eta": 0.5, "s": 0.0})),
    ("mc-samples-too-few", ["mc", "--config", CONFIG_NAME, "--samples", "999"], EPR_TEXT),
    ("mc-samples-not-multiple", ["mc", "--config", CONFIG_NAME, "--samples", "1050"],
     EPR_TEXT),
    ("mc-samples-too-many", ["mc", "--config", CONFIG_NAME, "--samples", "100000100"],
     EPR_TEXT),
    ("mc-negative-seed", ["mc", "--config", CONFIG_NAME, "--seed", "-1"], EPR_TEXT),
    # the jackknife deviations (~1e298) overflow when squared unscaled
    ("mc-large-variance", ["mc", "--config", CONFIG_NAME, "--samples", "1000", "--seed", "1"],
     _unit_with(("measurement", "noise_B", "cov"), [[1e300, 0.0], [0.0, 1.0]])),
    # a correct closed form that mc calls a disagreement: at F = 2e-4 the
    # overlap kernel's mass sits in displacements rarer than 1 in 1000
    # samples, so the sample mean and its jackknife stderr both miss it
    ("mc-rare-overlap", MC_ARGV,
     _unit_with(("measurement", "noise_B", "cov"), [[1e4, 0.0], [0.0, 1e4]])),
    # a same-quadrature correlation (5e199) whose square overflows a float
    ("channel-cv-overflow-report", ["report", "--config", CONFIG_NAME], CV_OVERFLOW_TEXT),
    ("channel-cv-overflow-mc",
     ["mc", "--config", CONFIG_NAME, "--samples", "1000", "--seed", "1"], CV_OVERFLOW_TEXT),
    ("channel-output-noise-cancels-report", ["report", "--config", CONFIG_NAME], CANCEL_TEXT),
    ("channel-output-noise-cancels-mc", MC_ARGV, CANCEL_TEXT),
    ("channel-output-noise-near-cancel-report", ["report", "--config", CONFIG_NAME],
     NEAR_CANCEL_TEXT),
    ("channel-output-noise-near-cancel-mc", MC_ARGV, NEAR_CANCEL_TEXT),
    ("channel-output-noise-overflows-report", ["report", "--config", CONFIG_NAME],
     OVERFLOW_TEXT),
    ("channel-output-noise-overflows-mc", MC_ARGV, OVERFLOW_TEXT),
    ("verify-zero-trials", ["verify", "--trials", "0"], None),
    ("verify-negative-seed", ["verify", "--seed", "-1"], None),
    ("verify-one-trial", ["verify", "--trials", "1"], None),
    ("verify-default", ["verify"], None),
    ("sweep-default", ["sweep"], None),
    ("sweep-single-point-s-zero",
     ["sweep", "--eta-min", "0.5", "--eta-max", "0.5", "--eta-steps", "1",
      "--s-min", "0", "--s-max", "0", "--s-steps", "1"], None),
    ("sweep-negative-zero-eta",
     ["sweep", "--eta-min", "-0.0", "--eta-max", "1", "--eta-steps", "7",
      "--s-min", "0", "--s-max", "1e150", "--s-steps", "9"], None),
    ("sweep-long-s-rows", ["sweep", "--eta-steps", "3", "--s-max", "3", "--s-steps", "2000"],
     None),
    ("sweep-eta-above-one", ["sweep", "--eta-max", "1.5"], None),
    ("sweep-negative-s", ["sweep", "--s-min", "-0.5"], None),
    ("sweep-nan-eta", ["sweep", "--eta-min", "nan"], None),
    ("sweep-infinite-s", ["sweep", "--s-max", "inf", "--s-steps", "2"], None),
    ("sweep-zero-steps", ["sweep", "--eta-steps", "0"], None),
    ("sweep-reversed-eta", ["sweep", "--eta-min", "0.8", "--eta-max", "0.2"], None),
    ("sweep-too-many-steps", ["sweep", "--s-steps", "1000001"], None),
    ("sweep-s-overflows-product",
     ["sweep", "--eta-min", "1", "--eta-max", "1", "--eta-steps", "1",
      "--s-min", "1e300", "--s-max", "1.7e308", "--s-steps", "2"], None),
    ("sweep-s-overflows-product-alone",
     ["sweep", "--eta-min", "0", "--eta-max", "1", "--eta-steps", "3",
      "--s-min", "0", "--s-max", "1e200", "--s-steps", "3"], None),
]


def invocations() -> list[tuple[str, list, str | None]]:
    """Every corpus command: ``(label, argv, config text or None)``."""
    inputs = _perfbench_inputs()

    def argv_of(inv):
        return [CONFIG_NAME if a == inputs.CONFIG_ARG else a for a in inv.argv]

    rows = []
    for seed in REPORT_SEEDS:
        for k, inv in enumerate(inputs.report_batch(seed, 0)):
            rows.append((f"report-configs-s{seed}-{inv.label}", argv_of(inv), inv.config_text))
            if inv.kind == "report":
                argv = ["mc", "--config", CONFIG_NAME, "--samples", str(MC_SAMPLES),
                        "--seed", str(k)]
                rows.append((f"report-configs-s{seed}-{inv.label}-mc", argv, inv.config_text))
        for inv in inputs.defect_probe(seed):
            rows.append((f"defect-s{seed}-{inv.label}", argv_of(inv), inv.config_text))
        for index in range(2):
            inv = inputs.mc_invocation(seed, index)
            argv = argv_of(inv)
            argv[argv.index("--samples") + 1] = str(MC_SAMPLES)
            rows.append((f"mc-crosscheck-s{seed}-{inv.label}", argv, inv.config_text))
        for index in range(4):
            inv = inputs.verify_invocation(seed, index)
            argv = argv_of(inv)
            argv[argv.index("--trials") + 1] = str(VERIFY_TRIALS)
            rows.append((f"chain-verify-s{seed}-{inv.label}", argv, inv.config_text))
    for seed in SWEEP_SEEDS:
        for index in range(2):
            inv = inputs.sweep_invocation(seed, index)
            rows.append((f"grid-sweep-s{seed}-{inv.label}", argv_of(inv), None))
    for name, config in HAND_CHANNELS.items():
        text = json.dumps(config)
        rows.append((f"channel-{name}-report", ["report", "--config", CONFIG_NAME], text))
        for samples, seed in ((MC_SAMPLES, 1), (100_000, 1234)):
            argv = ["mc", "--config", CONFIG_NAME, "--samples", str(samples), "--seed",
                    str(seed)]
            rows.append((f"channel-{name}-mc-{samples}", argv, text))
    for name, text in REJECTED_CONFIGS.items():
        rows.append((f"rejected-{name}-report", ["report", "--config", CONFIG_NAME], text))
        argv = ["mc", "--config", CONFIG_NAME, "--samples", str(MC_SAMPLES), "--seed", "1"]
        rows.append((f"rejected-{name}-mc", argv, text))
    rows += HAND_ROWS
    labels = [label for label, _, _ in rows]
    assert len(set(labels)) == len(labels), "corpus labels must be unique"
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description="Replay the corpus commands.")
    parser.add_argument("--accept", action="store_true", help="rewrite cli.tsv")
    accept = parser.parse_args().accept
    old = {row.label: row for row in read_corpus()} if CORPUS.exists() else {}
    new = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for label, args, config in invocations():
                new.append(Row(label, args, config, replay(args, config)))
        finally:
            os.chdir(cwd)
    changed = 0
    for row in new:
        before = old.pop(row.label, None)
        if before != row:
            changed += 1
            if before is None:
                moved = "new row"
            else:
                parts = zip(("exit", "stdout", "stderr", "argv/config"),
                            (*before.outcome, before[1:3]), (*row.outcome, row[1:3]))
                moved = ", ".join(name for name, a, b in parts if a != b)
            print(f"changed  {row.label}  exit {row.outcome[0]}  ({moved})")
    for label in old:
        changed += 1
        print(f"removed  {label}")
    print(f"{len(new)} rows, {changed} changed")
    if accept and changed:
        lines = ["\t".join(COLUMNS)] + [_format(row) for row in new]
        CORPUS.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {CORPUS}")
    return 1 if changed and not accept else 0


if __name__ == "__main__":
    sys.exit(main())

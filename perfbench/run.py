"""Benchmark of the cvteleport command line, end to end and per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload grid-sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

``--trace 0`` runs the workload as a user does: one fresh
``python -m cvteleport.cli`` process per command, one at a time (closed
loop, one client), with ``PYTHONPATH=src``.  It reports the end-to-end
metrics.  ``--trace 1`` replays generated inputs in process through
``cvteleport.cli.main`` with a span around every call into the traced
layers, and reports the per-layer metrics.  Every output is checked.

Each run writes a result file (and, when traced, a span file) under
``.perfbench/results`` and prints, as its last line, one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.metadata
import io
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checker
import inputs
import spans
import summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"

SETUP_REPEATS = 11
IMPORT_REPEATS = 5
INVOCATION_TIMEOUT_S = 120
# Children run single-threaded BLAS/OpenMP (at most nproc), so the closed
# loop of one client never oversubscribes the two-CPU machine.
CHILD_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

THROUGHPUT_NAMES = {
    "report-configs": ("report_configs_per_s", "configs/s"),
    "grid-sweep": ("sweep_points_per_s", "points/s"),
    "chain-verify": ("verify_trials_per_s", "trials/s"),
    "mc-crosscheck": ("mc_samples_per_s", "samples/s"),
}

IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import cvteleport.cli; t2 = time.perf_counter(); print(t1 - t0, t2 - t0)"
)


class SetupError(Exception):
    """The program under test cannot be started from this checkout."""


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def child_env() -> dict:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    env.update(CHILD_THREADS)
    return env


# ---------------------------------------------------------------------------
# child processes


def spawn(args, out_path, err_path, env, timeout=INVOCATION_TIMEOUT_S) -> dict:
    """Run ``python <args>`` to completion; stdout and stderr go to files.

    Returns wall time, the child's own CPU time and max RSS (from
    ``wait4``), its exit code, and whether it was killed for running past
    ``timeout`` seconds.  The child is always reaped before returning.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)
    reaped = False
    try:
        fd = os.pidfd_open(pid)
        try:
            poller = select.poll()
            poller.register(fd, select.POLLIN)
            timed_out = not poller.poll(timeout * 1000)
        finally:
            os.close(fd)
        if timed_out:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        reaped = True
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "exit_code": os.waitstatus_to_exitcode(status),
        "timed_out": timed_out,
    }


def measure_setup(run_dir: Path, env: dict) -> list[float]:
    """Wall time of fresh-process ``import cvteleport.cli``, repeated."""
    out, err = run_dir / "setup.out", run_dir / "setup.err"
    times = []
    for _ in range(SETUP_REPEATS):
        res = spawn(["-c", "import cvteleport.cli"], out, err, env)
        if res["exit_code"] != 0:
            raise SetupError(
                "cannot import cvteleport.cli from "
                f"{SRC}: {err.read_text(errors='replace').strip()[-300:]}"
            )
        times.append(res["wall_s"])
    return times


def measure_imports(run_dir: Path, env: dict) -> tuple[list[float], list[float]]:
    """In a fresh process: seconds to import numpy, and numpy plus the CLI."""
    out, err = run_dir / "imports.out", run_dir / "imports.err"
    numpy_s, total_s = [], []
    for _ in range(IMPORT_REPEATS):
        res = spawn(["-c", IMPORT_PROBE], out, err, env)
        if res["exit_code"] != 0:
            raise SetupError(f"import probe failed: {err.read_text(errors='replace')[-300:]}")
        a, b = out.read_text().split()
        numpy_s.append(float(a))
        total_s.append(float(b))
    return numpy_s, total_s


# ---------------------------------------------------------------------------
# run facts


def run_facts() -> dict:
    cpu_model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                check=True,
            ).stdout.strip()
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "git_commit": commit,
        "child_threads": dict(CHILD_THREADS),
    }


def _metric(value, unit, samples) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


# ---------------------------------------------------------------------------
# untraced run: fresh processes, end-to-end metrics


def run_checked(inv: inputs.Invocation, run_dir: Path, env: dict) -> dict:
    """One CLI process for ``inv``, its output checked; the invocation record."""
    out, err = run_dir / "stdout", run_dir / "stderr"
    argv = inputs.materialize(inv, run_dir)
    res = spawn(["-m", "cvteleport.cli", *argv], out, err, env)
    stdout = out.read_text(encoding="utf-8", errors="replace")
    stderr = err.read_text(encoding="utf-8", errors="replace")
    if res["timed_out"]:
        reason = f"killed after {INVOCATION_TIMEOUT_S} s"
    else:
        reason = checker.check(inv, res["exit_code"], stdout, stderr)
    return {"label": inv.label, "argv": argv, "units": inv.units, "reason": reason, **res}


def _failures(records: list[dict]) -> list[dict]:
    return [
        {"label": r["label"], "argv": r["argv"], "exit_code": r["exit_code"], "reason": r["reason"]}
        for r in records
        if r["reason"] is not None
    ]


def run_defect_probe(seed: int, run_dir: Path, env: dict) -> dict:
    """The known-defect inputs (``inputs.KNOWN_DEFECT_KINDS``), untimed.

    Their outcome is recorded, each failing invocation named, but does not
    count towards the workload's ``attempted``/``failed``.
    """
    records = [run_checked(inv, run_dir, env) for inv in inputs.defect_probe(seed)]
    failed = _failures(records)
    return {
        "attempted": len(records),
        "failed": len(failed),
        "ops_failed_ratio": len(failed) / len(records),
        "failed_invocations": failed,
    }


def run_untraced(workload: str, seed: int, seconds: float, run_dir: Path, env: dict) -> dict:
    setup = measure_setup(run_dir, env)
    probe = run_defect_probe(seed, run_dir, env) if workload == "report-configs" else None
    records, sizes, batch_times = [], [], []
    t_start = time.perf_counter()
    index = 0
    while True:
        t_batch = time.perf_counter()
        for inv in inputs.batch(workload, seed, index):
            records.append(run_checked(inv, run_dir, env))
            sizes.append(inputs.input_size(inv))
        batch_times.append(time.perf_counter() - t_batch)
        index += 1
        # Stop before a batch that would end past the measuring window.
        elapsed = time.perf_counter() - t_start
        if elapsed + statistics.median(batch_times) > seconds:
            break

    walls_ms = [r["wall_s"] * 1000.0 for r in records]
    cpus_ms = [r["cpu_s"] * 1000.0 for r in records]
    ok = [r for r in records if r["reason"] is None]
    failed = [r for r in records if r["reason"] is not None]
    tail = summary.tail(walls_ms)
    n = len(records)
    work_units = sum(r["units"] for r in ok)
    throughput = work_units / sum(r["wall_s"] for r in records)
    metrics = {
        "setup_s": _metric(statistics.median(setup), "s", len(setup)),
        "latency_ms_p50": _metric(statistics.median(walls_ms), "ms", n),
        "latency_ms_tail": _metric(tail["value"], "ms", n),
        "cpu_ms_p50": _metric(statistics.median(cpus_ms), "ms", n),
        "peak_rss_mb": _metric(max(r["maxrss_kb"] for r in records) / 1024.0, "MB", n),
        "ops_ok_ratio": _metric(len(ok) / n, "ratio", n),
        "work_per_s": _metric(throughput, "1/s", n),
    }
    name, unit = THROUGHPUT_NAMES[workload]
    detail = {
        "batches": index,
        "measured_s": time.perf_counter() - t_start,
        "latency_tail": tail,
        "throughput": {"name": name, "value": throughput, "unit": unit, "work_units": work_units},
        "ops_failed_ratio": len(failed) / n,
        "failed_invocations": _failures(records),
        "known_defects": probe,
        "setup_s_samples": setup,
        "trace.overhead_ratio": None,
    }
    return {
        "attempted": n,
        "failed": len(failed),
        "metrics": metrics,
        "detail": detail,
        "inputs": sizes,
        "invocations": records,
    }


# ---------------------------------------------------------------------------
# traced run: in-process replay, per-layer metrics


def _call_main(cli, argv: list[str], out_path: Path) -> tuple[int, str, str, float]:
    """Run ``cli.main(argv + --out)`` in process, as the console script would."""
    with contextlib.suppress(FileNotFoundError):
        out_path.unlink()
    err = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main([*argv, "--out", str(out_path)])
        except Exception:  # an uncaught error is what a user sees as a traceback
            traceback.print_exc(file=err)
            code = 1
    elapsed = time.perf_counter() - t0
    stdout = out_path.read_text(encoding="utf-8") if out_path.exists() else ""
    return code, stdout, err.getvalue(), elapsed


# Per-layer metric -> (span name, divisor: the span's "calls" or summed
# result "size", and the ns-to-unit scale).
SPAN_METRICS = {
    "serialize.config_from_json_us": ("serialize.config_from_json", "calls", 1e3),
    "serialize.to_json_us": ("serialize.to_json", "calls", 1e3),
    "channel.to_unity_gain_budget_us": ("channel.to_unity_gain_budget", "calls", 1e3),
    "channel.budget_to_channel_us": ("channel.budget_to_channel", "calls", 1e3),
    "criteria.full_report_us": ("criteria.full_report", "calls", 1e3),
    "epr.sweep_us_per_point": ("epr.sweep", "size", 1e3),
    "epr.closed_form_us": ("epr.closed_form", "calls", 1e3),
    "epr.to_noise_budget_us": ("epr.to_noise_budget", "calls", 1e3),
    "criteria.epr_criterion_us": ("criteria.epr_criterion", "calls", 1e3),
    "channel.budget_state_us": ("channel.budget_state", "calls", 1e3),
    "gaussian.GaussianVector_us": ("gaussian.GaussianVector", "calls", 1e3),
    "gaussian.conditional_variance_us": ("gaussian.conditional_variance", "calls", 1e3),
    "serialize.sweep_to_csv_us_per_row": ("serialize.sweep_to_csv", "size", 1e3),
    "criteria.verify_us_per_trial": ("criteria.run_chain_verification", "size", 1e3),
    "criteria.random_budgets_us_per_budget": ("criteria.random_budgets", "size", 1e3),
    "criteria.inequality_trace_us": ("criteria.inequality_trace", "calls", 1e3),
    "channel.NoiseBudget_us": ("channel.NoiseBudget", "calls", 1e3),
    "gaussian.sample_ns_per_row": ("gaussian.sample", "size", 1.0),
    "gaussian.apply_form_ns_per_row": ("gaussian.apply_form", "size", 1.0),
    "montecarlo.simulate_ns_per_sample": ("montecarlo.simulate_protocol", "size", 1.0),
}


def run_traced(workload: str, seed: int, run_dir: Path, env: dict) -> dict:
    numpy_s, import_s = measure_imports(run_dir, env)

    os.environ.update(CHILD_THREADS)
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("cvteleport.cli")

    replay = {w: inputs.batch(w, seed, 0) for w in inputs.WORKLOADS}
    argvs = {}
    for w, invs in replay.items():
        wdir = run_dir / w
        wdir.mkdir(exist_ok=True)
        for inv in invs:
            argvs[(w, inv.label)] = inputs.materialize(inv, wdir)
    out_path = run_dir / "replay.out"

    # Warm up lazily initialised numpy paths on one valid report.
    first = replay["report-configs"][0]
    _call_main(cli, argvs[("report-configs", first.label)], out_path)

    tracer = spans.Tracer()
    records = []
    output_bytes = 0
    verify_payloads = []

    def replay_one(w, inv, traced: bool) -> float:
        nonlocal output_bytes
        if traced:
            tracer.set_workload(w)
            tracer.install()
        try:
            code, stdout, stderr, elapsed = _call_main(cli, argvs[(w, inv.label)], out_path)
        finally:
            tracer.uninstall()
        if traced:
            output_bytes += len(stdout.encode("utf-8"))
            reason = checker.check(inv, code, stdout, stderr)
            records.append({"workload": w, "label": inv.label, "exit_code": code, "reason": reason})
            if inv.kind == "verify" and reason is None:
                verify_payloads.append(json.loads(stdout))
        return elapsed

    # The named workload runs in untraced/traced pairs, alternating which
    # goes first, so drift and warm-up fall on both sides of the overhead
    # ratio.  The other workloads are replayed traced only.
    untraced = []
    for i, inv in enumerate(replay[workload]):
        for traced in (False, True) if i % 2 == 0 else (True, False):
            elapsed = replay_one(workload, inv, traced)
            if not traced:
                untraced.append(elapsed)
    for w, invs in replay.items():
        if w != workload:
            for inv in invs:
                replay_one(w, inv, True)
    traced = [d / 1e9 for d in tracer.durations("cli.main", workload)]

    agg = tracer.aggregate()
    empty = {"calls": 0, "total_ns": 0, "self_ns": 0, "size": 0}
    values = {}  # metric -> (value, sample count)
    for name, (span, per, scale) in SPAN_METRICS.items():
        rec = agg.get(span, empty)
        values[name] = (rec["total_ns"] / rec[per] / scale if rec[per] else 0.0, rec["calls"])
    sim, sampled = agg.get("montecarlo.simulate_protocol", empty), agg.get("gaussian.sample", empty)
    trials = sum(p["trials"] for p in verify_payloads)
    drawn = sum(p["budgets_drawn"] for p in verify_payloads)
    values.update(
        {
            "cli.import_ms": (statistics.median(import_s) * 1e3, len(import_s)),
            "cli.numpy_import_ms": (statistics.median(numpy_s) * 1e3, len(numpy_s)),
            "cli.main_ms": (statistics.median(untraced) * 1e3, len(untraced)),
            "serialize.output_bytes": (output_bytes, len(records)),
            "criteria.verify_accept_ratio": (trials / drawn if drawn else 0.0, len(verify_payloads)),
            "criteria.budgets_drawn": (drawn, len(verify_payloads)),
            "montecarlo.sample_share": (
                sampled["total_ns"] / sim["total_ns"] if sim["total_ns"] else 0.0,
                sampled["calls"],
            ),
            "trace.overhead_ratio": (sum(traced) / sum(untraced), len(traced)),
        }
    )
    metrics = {
        m["name"]: _metric(values[m["name"]][0], m["unit"], values[m["name"]][1])
        for m in load_spec()["per_layer"]
    }

    tracer.write(run_dir.parent / f"{run_dir.name}-spans.tsv.gz")
    own = [r for r in records if r["workload"] == workload]
    failed = [r for r in records if r["reason"] is not None]
    detail = {
        "spans": len(tracer),
        "layers": agg,
        "failed_invocations": failed,
        "untraced_main_s": untraced,
        "traced_main_s": traced,
        "trace.overhead_ratio": metrics["trace.overhead_ratio"]["value"],
    }
    return {
        "attempted": len(own),
        "failed": sum(1 for r in own if r["reason"] is not None),
        "metrics": metrics,
        "detail": detail,
        "inputs": [inputs.input_size(inv) for invs in replay.values() for inv in invs],
        "invocations": records,
    }


# ---------------------------------------------------------------------------
# entry point


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = child_env()
    stamp = time.strftime("%Y%m%dT%H%M%S")
    run_dir = SCRATCH / "results" / f"{workload}-seed{seed}-trace{int(trace)}-{stamp}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    if trace:
        result = run_traced(workload, seed, run_dir, env)
    else:
        result = run_untraced(workload, seed, seconds, run_dir, env)
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "facts": run_facts(),
        **result,
    }
    with open(run_dir.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    result["result_file"] = str(run_dir.with_suffix(".json").relative_to(ROOT))
    return result


def print_table(result: dict) -> None:
    print(f"== {result['workload']} (seed {result['seed']}, trace {int(result['trace'])})")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']:8s} n={m['samples']}")
    detail = result["detail"]
    if "throughput" in detail:
        t = detail["throughput"]
        print(f"  {t['name']:40s} {t['value']:>16.6g} {t['unit']}")
        tail = detail["latency_tail"]
        print(
            f"  latency tail: p{tail['percentile']:g} with {tail['beyond']} beyond"
            + ("" if tail["rule_met"] else " (fewer than 20 invocations: maximum)")
        )
        print(f"  ops_failed_ratio {detail['ops_failed_ratio']:.6g}")
    for f in detail["failed_invocations"]:
        print(f"  FAILED {f.get('workload', result['workload'])}/{f['label']}: {f['reason']}")
    probe = detail.get("known_defects")
    if probe:
        print(f"  known-defect probe (not timed): {probe['failed']} of {probe['attempted']} failed")
        for f in probe["failed_invocations"]:
            print(f"  KNOWN DEFECT {f['label']}: {f['reason']}")
    print(f"  attempted {result['attempted']}, failed {result['failed']}; result {result['result_file']}")


def contract_line(result: dict) -> dict:
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]} for name, m in result["metrics"].items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*inputs.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cvteleport" / "cli.py").is_file():
        print(f"error: no cvteleport sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workloads = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    try:
        for w in workloads:
            result = run_one(w, args.seed, seconds, bool(args.trace))
            print_table(result)
            lines[w] = contract_line(result)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    print(json.dumps(lines[args.workload] if args.workload != "all" else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())

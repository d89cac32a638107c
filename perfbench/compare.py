"""Compare two sets of benchmark results, one row per (metric, workload).

Usage, from the repository root::

    python3 perfbench/compare.py OLD NEW
    python3 perfbench/compare.py --collect DIR -o runs.json

OLD and NEW are each a result file, a directory of result files (as
written by ``run.py`` under ``.perfbench/results``) or a runs file made by
``--collect``.  Runs are grouped by workload; every end-to-end metric of
``BENCHMARK.json`` gets one row per workload with the medians of both
sides and a verdict:

* ``unresolved`` the spread (inter-quartile distance over the median, the
  wider of the two sides) exceeds the bound, unless every new run beats, or
  loses to, every old run (then ``better`` or ``worse``);
* ``worse``      otherwise, when the new median is worse by more than the
  metric's bound;
* ``better``     when it is better by more than the bound;
* ``unchanged``  otherwise.

The rule is symmetric on purpose: on a host whose speed drifts between
two sets of runs, a gain smaller than the bound cannot be told from the
drift.  With fewer than three runs on a side the spread is not computed.
``ops_failed_ratio`` gets its own row per workload and is ``worse`` on
any rise; so does ``known_defects_failed_ratio``, the failed share of the
known-defect probe that report-configs runs record.  Per-layer metrics
from traced runs are listed with their medians and change, without a
verdict (they have no bound).
The exit code is 1 when any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import summary

ROOT = Path(__file__).resolve().parent.parent


def compact(result: dict) -> dict:
    """The part of a result file that comparisons need."""
    detail = result["detail"]
    return {
        "workload": result["workload"],
        "seed": result["seed"],
        "trace": result["trace"],
        "metrics": {k: m["value"] for k, m in result["metrics"].items()},
        "ops_failed_ratio": detail.get("ops_failed_ratio"),
        "known_defects_failed_ratio": (detail.get("known_defects") or {}).get("ops_failed_ratio"),
        "throughput": detail.get("throughput"),
        "latency_tail": detail.get("latency_tail"),
        "failed": [
            f"{f.get('workload', result['workload'])}/{f['label']}: {f['reason']}"
            for f in detail["failed_invocations"]
        ],
        "facts": result["facts"],
    }


def load_runs(path: Path) -> list[dict]:
    if path.is_dir():
        files = sorted(path.glob("*.json"))
        return [compact(json.loads(f.read_text())) for f in files]
    data = json.loads(path.read_text())
    return data["runs"] if "runs" in data else [compact(data)]


def verdict(old: list[float], new: list[float], bound: float, better: str) -> tuple[str, float, float]:
    """Verdict, signed change (positive = worse) and spread for one row."""
    sign = 1.0 if better == "lower" else -1.0
    mo, mn = statistics.median(old), statistics.median(new)
    if mo == 0:
        rel = 0.0 if mn == mo else sign * float("inf") * (1 if mn > mo else -1)
    else:
        rel = sign * (mn - mo) / abs(mo)
    if len(old) >= 3 and len(new) >= 3:
        spread = max(summary.spread(old), summary.spread(new))
    else:
        spread = 0.0
    if spread > bound:
        if all(sign * (n - o) < 0 for n in new for o in old):
            return "better", rel, spread
        if all(sign * (n - o) > 0 for n in new for o in old):
            return "worse", rel, spread
        return "unresolved", rel, spread
    if rel > bound:
        return "worse", rel, spread
    if -rel > bound:
        return "better", rel, spread
    return "unchanged", rel, spread


def _by_workload(runs: list[dict], trace: bool) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for r in runs:
        if bool(r["trace"]) == trace:
            out.setdefault(r["workload"], []).append(r)
    return out


def compare(old_runs: list[dict], new_runs: list[dict], spec: dict) -> list[dict]:
    rows = []
    old_e2e, new_e2e = _by_workload(old_runs, False), _by_workload(new_runs, False)
    for workload in sorted(set(old_e2e) & set(new_e2e)):
        o_runs, n_runs = old_e2e[workload], new_e2e[workload]
        for m in spec["end_to_end"]:
            old = [r["metrics"][m["name"]] for r in o_runs if m["name"] in r["metrics"]]
            new = [r["metrics"][m["name"]] for r in n_runs if m["name"] in r["metrics"]]
            if not old or not new:
                continue
            v, rel, spread = verdict(old, new, m["bound"], m["better"])
            rows.append(
                {
                    "metric": m["name"],
                    "workload": workload,
                    "unit": m["unit"],
                    "old": statistics.median(old),
                    "new": statistics.median(new),
                    "runs": (len(old), len(new)),
                    "change": rel,
                    "spread": spread,
                    "bound": m["bound"],
                    "verdict": v,
                }
            )
        for key in ("ops_failed_ratio", "known_defects_failed_ratio"):
            old = [r[key] for r in o_runs if r.get(key) is not None]
            new = [r[key] for r in n_runs if r.get(key) is not None]
            if not old or not new:
                continue
            old_f, new_f = statistics.median(old), statistics.median(new)
            rows.append(
                {
                    "metric": key,
                    "workload": workload,
                    "unit": "ratio",
                    "old": old_f,
                    "new": new_f,
                    "runs": (len(old), len(new)),
                    "change": new_f - old_f,
                    "spread": 0.0,
                    "bound": 0.0,
                    "verdict": "worse" if new_f > old_f else "better" if new_f < old_f else "unchanged",
                }
            )
    old_tr, new_tr = _by_workload(old_runs, True), _by_workload(new_runs, True)
    for workload in sorted(set(old_tr) & set(new_tr)):
        for m in spec["per_layer"]:
            old = [r["metrics"][m["name"]] for r in old_tr[workload] if m["name"] in r["metrics"]]
            new = [r["metrics"][m["name"]] for r in new_tr[workload] if m["name"] in r["metrics"]]
            if not old or not new:
                continue
            mo, mn = statistics.median(old), statistics.median(new)
            rows.append(
                {
                    "metric": m["name"],
                    "workload": workload,
                    "unit": m["unit"],
                    "old": mo,
                    "new": mn,
                    "runs": (len(old), len(new)),
                    "change": (mn - mo) / abs(mo) if mo else 0.0,
                    "spread": None,
                    "bound": None,
                    "verdict": "layer",
                }
            )
    return rows


def print_rows(rows: list[dict]) -> None:
    head = f"{'metric':38s} {'workload':15s} {'old':>12s} {'new':>12s} {'change':>8s} {'spread':>7s} {'bound':>6s} runs    verdict"
    print(head)
    for r in rows:
        spread = "" if r["spread"] is None else f"{r['spread']:.3f}"
        bound = "" if r["bound"] is None else f"{r['bound']:.3f}"
        if r["metric"] in ("ops_failed_ratio", "known_defects_failed_ratio"):
            change = f"{r['change']:+.4f}"
        else:
            change = f"{100 * r['change']:+.1f}%"
        print(
            f"{r['metric']:38s} {r['workload']:15s} {r['old']:12.6g} {r['new']:12.6g} "
            f"{change:>8s} {spread:>7s} {bound:>6s} {r['runs'][0]}/{r['runs'][1]:<5d} {r['verdict']}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="*", type=Path)
    parser.add_argument("--collect", type=Path, help="directory of result files to collect")
    parser.add_argument("-o", "--output", type=Path, help="runs file written by --collect")
    args = parser.parse_args(argv)
    if args.collect:
        runs = load_runs(args.collect)
        text = json.dumps({"runs": runs}, indent=1) + "\n"
        if args.output:
            args.output.write_text(text)
        else:
            sys.stdout.write(text)
        return 0
    if len(args.paths) != 2:
        parser.error("give OLD and NEW, or --collect DIR")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(load_runs(args.paths[0]), load_runs(args.paths[1]), spec)
    print_rows(rows)
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())

"""The demos and the benchmark's traced names, run against the package."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_found():
    assert [d.stem for d in DEMOS] == [
        "chain_audit",
        "channel_report",
        "entanglement_sweep",
        "fidelity_landscape",
        "monte_carlo_check",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs_cleanly(demo, tmp_path):
    args = [sys.executable, str(demo)]
    if demo.stem == "entanglement_sweep":
        args += ["--out", str(tmp_path / "sweep.csv")]
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run(
        args, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout.strip()


def test_benchmark_traced_names_resolve():
    # a traced name that no longer exists would crash the traced benchmark
    # run; spans.py is read, never changed
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py"
    )
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    for module_name, path in spans.TRACED:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            assert hasattr(owner, part), f"{module_name}.{path}"
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{path}"

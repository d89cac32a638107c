"""The demos, the benchmark's traced names and the library's reach, checked
against the package."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _env():
    """The environment with the package's source first on PYTHONPATH."""
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


def _spans():
    """The benchmark's perfbench/spans.py, loaded read-only."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py"
    )
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


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
    done = subprocess.run(
        args, cwd=tmp_path, env=_env(), capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout.strip()


def test_benchmark_traced_names_resolve():
    # a traced name that no longer exists would crash the traced benchmark
    # run; spans.py is read, never changed
    spans = _spans()
    assert spans.TRACED
    for module_name, path in spans.TRACED:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            assert hasattr(owner, part), f"{module_name}.{path}"
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{path}"


def test_cli_import_loads_every_traced_module():
    # Tracer.install looks each traced module up in sys.modules, so a module
    # that cvteleport.cli imported lazily would crash the traced benchmark run
    modules = sorted({module for module, _ in _spans().TRACED})
    code = f"import sys, cvteleport.cli; print([m for m in {modules} if m not in sys.modules])"
    done = subprocess.run(
        [sys.executable, "-c", code], env=_env(), capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_every_error_class_maps_to_an_exit_code():
    # cli.main maps ConfigError to exit 1 and ValidityError to exit 2; any
    # other class would reach a CLI user as a traceback
    errors = importlib.import_module("cvteleport.errors")
    classes = [
        c for c in vars(errors).values()
        if isinstance(c, type) and c.__module__ == errors.__name__
    ]
    assert errors.CvTeleportError in classes
    for cls in classes:
        if cls is not errors.CvTeleportError:
            assert issubclass(cls, (errors.ConfigError, errors.ValidityError)), cls


def _imports(tree):
    """Local name -> (module, name) for each name taken from the package."""
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = ".".join(filter(None, ["cvteleport", module]))
            if module.split(".")[0] == "cvteleport":
                found.update({a.asname or a.name: (module, a.name) for a in node.names})
    return found


def _names(node):
    return [n.id for n in ast.walk(node) if isinstance(n, ast.Name)]


def test_every_library_definition_is_reached():
    # The library is what cli.py's entry point, the demos' imports and the
    # benchmark's traced names reach through the names each reached
    # module-level definition mentions.  Test oracles go in tests/oracle.py.
    modules = {}
    for path in (ROOT / "src" / "cvteleport").glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defs.update((name, node) for t in targets for name in _names(t))
        module = "cvteleport" + ("" if path.stem == "__init__" else f".{path.stem}")
        modules[module] = (defs, _imports(tree), tree)

    cli_main = [s for s in modules["cvteleport.cli"][2].body if isinstance(s, ast.If)]
    todo = [("cvteleport.cli", name) for s in cli_main for name in _names(s)]
    assert ("cvteleport.cli", "main") in todo
    for demo in DEMOS:
        todo += _imports(ast.parse(demo.read_text(encoding="utf-8"))).values()
    todo += [(module, path.split(".")[0]) for module, path in _spans().TRACED]
    reached = set()
    while todo:
        module, name = todo.pop()
        defs, imports, _ = modules.get(module, ({}, {}, None))
        if name in imports:
            todo.append(imports[name])
        elif name in defs and (module, name) not in reached:
            reached.add((module, name))
            todo += [(module, n) for n in _names(defs[name])]

    unreached = sorted(
        f"{module}.{name}"
        for module, (defs, _, _) in modules.items()
        for name in defs
        if (module, name) not in reached and not name.startswith("__")
    )
    assert not unreached, f"no caller reaches {unreached}"
    defs, imports, _ = modules["cvteleport"]
    exported = ast.literal_eval(defs["__all__"].value)
    unreached = [n for n in exported if imports.get(n, ("cvteleport", n)) not in reached]
    assert not unreached, f"__all__ exports unreached {unreached}"

"""The traced benchmark run wraps library names; each must still be bound,
and no name is bound for it alone once it is no longer wrapped."""

import ast
import importlib
import importlib.util
from pathlib import Path

import dcsreconf

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
TRACER = PERFBENCH / "tracer.py"
PACKAGE = ROOT / "src" / "dcsreconf"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_is_bound():
    tracer = load_tracer()
    assert tracer._WRAPS
    for module_name, attr, _ in tracer._WRAPS:
        module = importlib.import_module(f"dcsreconf.{module_name}")
        assert callable(getattr(module, attr, None)), f"dcsreconf.{module_name}.{attr}"


def test_every_unused_import_binds_a_traced_name():
    """An import marked ``# noqa: F401`` is kept only so that the tracer can
    wrap the name where that module binds it."""
    wrapped = {(module, attr) for module, attr, _ in load_tracer()._WRAPS}
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text().splitlines()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if "# noqa: F401" in lines[node.end_lineno - 1]:
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    assert (path.stem, name) in wrapped, f"{path.name} binds {name} unused"


def test_benchmark_tracer_check_passes(monkeypatch):
    """The self-test's traced runs: every layer metric is reported, two runs
    count alike, and the library is restored. A wrapped name whose call
    changes shape fails here."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    selftest = importlib.import_module("selftest")
    selftest.check_tracer(dcsreconf)

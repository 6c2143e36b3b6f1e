"""The traced benchmark run wraps library names; each must still be bound."""

import importlib
import importlib.util
from pathlib import Path

import dcsreconf

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def test_every_traced_name_is_bound():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer._WRAPS
    for module_name, attr, _ in tracer._WRAPS:
        module = importlib.import_module(f"dcsreconf.{module_name}")
        assert callable(getattr(module, attr, None)), f"dcsreconf.{module_name}.{attr}"


def test_benchmark_tracer_check_passes(monkeypatch):
    """The self-test's traced runs: every layer metric is reported, two runs
    count alike, and the library is restored. A wrapped name whose call
    changes shape fails here."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    selftest = importlib.import_module("selftest")
    selftest.check_tracer(dcsreconf)

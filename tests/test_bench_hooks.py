"""The traced benchmark run wraps library names; each must still be bound."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_is_bound():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer._WRAPS
    for module_name, attr, _ in tracer._WRAPS:
        module = importlib.import_module(f"dcsreconf.{module_name}")
        assert callable(getattr(module, attr, None)), f"dcsreconf.{module_name}.{attr}"

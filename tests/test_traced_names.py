"""Every callable that the benchmark's tracer wraps still exists."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for module_name, qualname in tracing.TRACED:
        target = importlib.import_module(f"logfiber.{module_name}")
        for part in qualname.split("."):
            assert hasattr(target, part), f"logfiber.{module_name}.{qualname} is gone"
            target = getattr(target, part)
        assert callable(target), f"logfiber.{module_name}.{qualname} is not callable"

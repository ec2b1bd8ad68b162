"""The benchmark's tracer wraps package functions by name: keep them there."""
import importlib
import importlib.util
from pathlib import Path

from expfbm.density import SampleBatch
from expfbm.malliavin import MalliavinProfile

TRACE_CLI = Path(__file__).parents[1] / "perfbench" / "trace_cli.py"


def load_trace_cli():
    spec = importlib.util.spec_from_file_location("trace_cli", TRACE_CLI)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    trace_cli = load_trace_cli()
    traced = set()
    for module_name, names in trace_cli.TRACED.items():
        module = importlib.import_module(f"expfbm.{module_name}")
        for qualname in names:
            obj = module
            for attr in qualname.split("."):
                obj = getattr(obj, attr)
            assert callable(obj), f"{module_name}.{qualname}"
            traced.add(f"{module_name}.{qualname}")
    assert set(trace_cli.RATES) <= traced


def test_rate_attributes_exist():
    # RATES counts the work of a call by these attributes of its result
    assert isinstance(SampleBatch.F, property)
    assert "phi" in MalliavinProfile.__dataclass_fields__

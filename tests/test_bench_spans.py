"""The benchmark tracer wraps package functions by name; a rename or
deletion would crash every traced benchmark run, so check the names here."""
import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_wrapped_name_is_a_function_of_its_module():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for mod_name, names in spans.WRAPPED.items():
        mod = importlib.import_module(f"thetaheights.{mod_name}")
        for name in names or ():
            assert inspect.isfunction(getattr(mod, name, None)), f"{mod_name}.{name}"

"""The benchmark tracer wraps package functions by name, and the benchmark
calls the package's API; a rename, a deletion or a changed signature would
crash every benchmark run, so check both here."""
import importlib
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPANS = BENCH / "spans.py"


def test_every_wrapped_name_is_a_function_of_its_module():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for mod_name, names in spans.WRAPPED.items():
        mod = importlib.import_module(f"thetaheights.{mod_name}")
        for name in names or ():
            assert inspect.isfunction(getattr(mod, name, None)), f"{mod_name}.{name}"
    # the box-term hook binds these arguments by name
    params = inspect.signature(importlib.import_module("thetaheights.theta")
                               .theta_truncated).parameters
    assert {"tau", "radius"} <= set(params)


def test_bench_selftest_passes_with_its_digests():
    # two traced passes per workload over the same units: verdict digests
    # and exact counts must agree, and the digests are pinned
    res = subprocess.run([sys.executable, str(BENCH / "selftest.py")], cwd=BENCH,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stdout + res.stderr
    for name, digest in (("norms-g2", "17be98198b708039"),
                         ("heights-corpus", "c4a8ae5f7ac9d61c"),
                         ("lattice-delta", "345219d2a592d4ea")):
        assert any(line.startswith(f"{name}: ") and f"digest {digest}," in line
                   for line in res.stdout.splitlines()), res.stdout

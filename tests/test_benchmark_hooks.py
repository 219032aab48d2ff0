"""The benchmark's tracing wraps starrep functions by name; every listed name
must resolve, or `perfbench/run.py --trace 1` breaks."""
import importlib
import pathlib
import runpy

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_traced_names_resolve():
    spans = runpy.run_path(str(SPANS))
    for module in spans["MODULES"]:
        importlib.import_module(module)
    missing = []
    for short, names in spans["WRAPPED"].items():
        mod = importlib.import_module(f"starrep.{short}")
        for name in names:
            obj = mod
            for part in name.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"starrep.{short}.{name}")
    assert not missing, missing

"""The benchmark wraps starrep functions by name and reads fields of their
results; every listed name must resolve, or `perfbench/run.py` breaks."""
import importlib
import importlib.util
import pathlib
import runpy

import numpy as np

import starrep

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    spans = runpy.run_path(str(PERFBENCH / "spans.py"))
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


def test_benchmark_gns_check_accepts_gns():
    checks, planted = _load("checks"), _load("planted")
    rng = np.random.default_rng(4)
    p = planted.Plant([(1, 2), (2, 2), (3, 1)], [False] * 3, rng)
    algebra = starrep.generate_algebra(p.generators)
    ranks = [1, 0, 2]
    rep = p.in_algebra_state(rng, ranks)
    out = starrep.gns(algebra, starrep.PositiveFunctional(algebra, rep))
    want = sum(k * r for (k, _), r in zip(p.blocks, ranks))
    assert checks.gns(p, algebra, rep, out, want)

"""The benchmark wraps starrep functions by name and reads fields of their
results; every listed name must resolve, or `perfbench/run.py` breaks."""
import importlib
import importlib.util
import pathlib
import runpy

import numpy as np
import pytest

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


@pytest.mark.parametrize("blocks", [
    [(16, 1)],
    [(24, 1)],
    [(2, 2)] * 8,
    [(1, 1)] * 30,
    [(1, 3), (2, 2), (3, 4), (4, 1), (2, 3), (1, 5), (5, 2), (2, 2)],
], ids=["full16", "full24", "eight22", "diag30", "mixed48"])
def test_generated_algebra_matches_larger_plans(blocks):
    checks, planted = _load("checks"), _load("planted")
    p = planted.Plant(blocks, [False] * len(blocks), np.random.default_rng(6))
    algebra = starrep.generate_algebra(p.generators)
    assert checks.algebra_matches(p, algebra)
    assert sorted(algebra.block_decomposition().blocks) == p.signature
    assert algebra.commutant().size == p.commutant_size


def test_benchmark_rn_and_witness_checks_accept_block_solutions():
    checks, planted = _load("checks"), _load("planted")
    rng = np.random.default_rng(8)
    p = planted.Plant([(1, 2), (2, 2), (3, 1)], [False] * 3, rng)
    s = starrep.Structure(starrep.generate_algebra(p.generators))
    w = p.random_vector(rng, {0, 1, 2})
    # V_i = W_i C_i is dominated by w; a vector on other directions is not
    v = p.vector([c @ (rng.standard_normal((c.shape[1],) * 2)
                       + 1j * rng.standard_normal((c.shape[1],) * 2)) for c in p.coords(w)])
    other = p.random_vector(rng, {0, 1, 2})
    for target, dominated in ((v, True), (other, False)):
        out = starrep.radon_nikodym_operator(s, w, target)
        assert (out is not None) == dominated
        assert checks.radon_nikodym(p, w, target, out)
    a, b = p.random_vector(rng, {0, 1}), p.random_vector(rng, {2})
    for x, y in ((a, b), (a, w)):
        phi, psi = starrep.vector_state(s, x), starrep.vector_state(s, y)
        out = starrep.orthogonality_witness(phi, psi, 1e-6)
        assert out.success == p.orthogonal(x, y)
        assert checks.witness(p, x, y, out, p.orthogonal(x, y), 1e-6)

"""New structures in closed form, and residuals inside the base closure.

A cyclic substructure's algebra is (+)(I_{r_i} (x) M_{k_i}) on the columns of
its vector's block rows, written down with no algebra basis read; the
reference is span_algebra of the compressed basis.  An extension's basis is
G^{-1/2} images, a scaling of each image when the Gram matrix G is diagonal
(every basis element of the parent in one Wedderburn block), else G's eigh; the
reference is the eigh route.  That basis is built, with its rank certificate,
on its first read; no caller in starrep reads it.  The probes' coefficients
are drawn once per algebra size.  A residual close to zero at its vector's
norm is zero, so a vector inside the base closure gets no summand.  Guard tests count the
LAPACK calls and draws the constructors make.
"""
import json
import sys
import threading
import time

import numpy as np
import pytest

import starrep.algebra
import starrep.linalg
import starrep.representation
from starrep import cli
from starrep.algebra import StarAlgebra, _probe_coefficients, generate_algebra, span_algebra
from starrep.harness import (InstanceSpec, commuting_unitary, random_structure,
                             random_unit_vector, run_freeness_suite)
from starrep.independence import morley_average_check, nonforking_extension
from starrep.linalg import Draws, ToleranceBreach, haar_unitary
from starrep.representation import (
    Structure,
    _summand_images,
    cyclic_subspace,
    cyclic_substructure,
    extend_with_summand,
)

from conftest import SCENARIO_DIR
from test_closure_reuse import (CLOSURE_PLANS, PLANS, block_vectors, closure_structure,
                                essential_parts)

MIXED16 = InstanceSpec(16, ((1, 2), (2, 2), (3, 2), (2, 1), (1, 2)),
                       (False, False, False, True, False), seed=41)
DIAG12 = InstanceSpec(12, ((1, 1),) * 12, (False,) * 12, seed=42)


@pytest.fixture
def eigh_calls(monkeypatch):
    """The shape of each matrix or stack handed to np.linalg.eigh."""
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a, *r, **kw: calls.append(np.shape(a)) or eigh(a, *r, **kw))
    return calls


def eigh_route(s, b):
    """The extension's basis as G^{-1/2} images through G's eigh."""
    images = _summand_images(s.algebra.basis, b)
    flat = images.reshape(len(images), -1)
    w, v = np.linalg.eigh(flat @ flat.conj().T)
    return np.sqrt(images.shape[-1]) * ((v / np.sqrt(w)) @ v.conj().T @ flat)


def assert_basis_matches_eigh_route(s, shat):
    want = eigh_route(s, shat.embedding)
    got = shat.algebra.basis.reshape(len(want), -1)
    assert np.max(np.abs(got - want)) <= 1e-12


def assert_trace_orthonormal(a):
    flat = a.basis.reshape(a.size, -1)
    np.testing.assert_allclose(flat @ flat.conj().T / a.dim, np.eye(a.size), atol=1e-12)


# ----- the substructure's algebra ----------------------------------------------

@pytest.mark.parametrize("plan", sorted(CLOSURE_PLANS))
def test_substructure_algebra_is_the_compressed_span(plan):
    s = closure_structure(plan)
    rng = np.random.default_rng(51)
    blocks = block_vectors(s, rng)
    vectors = [random_unit_vector(rng, s.dim), blocks[0], blocks[0] + blocks[-1],
               np.zeros(s.dim, dtype=complex)]
    for v in vectors:
        sub = cyclic_substructure(s, v)
        b, k = sub.embedding, sub.dim
        assert k == cyclic_subspace(s, [v]).dim
        if k == 0:
            assert sub.algebra.size == 0 and not np.any(v)
            continue
        ref = span_algebra(b.conj().T @ s.algebra.basis @ b, k, s.tol)
        assert sub.algebra.size == ref.size
        assert sub.algebra.spans_equal(ref) and ref.spans_equal(sub.algebra)
        assert_trace_orthonormal(sub.algebra)


def test_substructure_makes_no_span_for_its_algebra(monkeypatch):
    # nor for its discrete part: the columns in the blocks the discrete part
    # fills, coordinate vectors of the compression
    s = random_structure(PLANS["discrete"])
    v = random_unit_vector(np.random.default_rng(52), s.dim)

    def refuse(*args, **kwargs):
        raise AssertionError("the substructure made a span")

    for module in (starrep.linalg, starrep.representation, starrep.algebra):
        for name in ("orthonormalize", "subspace_intersection"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    sub = cyclic_substructure(s, v)
    assert sub.dim > 2 and sub.discrete.dim == s.discrete.dim
    np.testing.assert_array_equal(np.abs(sub.discrete.basis) ** 2, np.abs(sub.discrete.basis))


# ----- the extension's basis ---------------------------------------------------

@pytest.mark.parametrize("plan", sorted(set(CLOSURE_PLANS) - {"lopsided"}))
def test_extension_basis_matches_the_eigh_route(plan, eigh_calls):
    # summands in the essential part, as a summand that carries a discrete
    # class is refused
    s = closure_structure(plan)
    rng = np.random.default_rng(53)
    blocks = block_vectors(s, rng)
    for vectors in ([random_unit_vector(rng, s.dim)], [blocks[0]], blocks[:2]):
        b = cyclic_subspace(s, essential_parts(s, vectors)).basis
        for summand in (b, b @ haar_unitary(b.shape[1], Draws(54))):
            eigh_calls.clear()
            shat = extend_with_summand(s, summand)
            assert eigh_calls == []
            assert_basis_matches_eigh_route(s, shat)
            assert_trace_orthonormal(shat.algebra)


def test_extension_chain_takes_the_scaling_route(eigh_calls):
    s = random_structure(MIXED16)
    rng = np.random.default_rng(55)
    e, v = random_unit_vector(rng, s.dim), random_unit_vector(rng, s.dim)
    cur = s
    for step in range(3):
        pad = np.zeros(cur.dim - s.dim)
        cur.algebra.block_decomposition()  # an extension's own, solved on first use
        eigh_calls.clear()
        nxt, v = nonforking_extension(cur, v, [np.concatenate([e, pad])],
                                      [np.concatenate([e, pad])], seed=step)
        assert eigh_calls == [] and nxt.dim > cur.dim
        assert_basis_matches_eigh_route(cur, nxt)
        cur = nxt


def test_rotated_bare_basis_takes_the_eigh_route(eigh_calls):
    # a trace-orthonormal basis that mixes the blocks, whose images gain
    # (m_i + r_i) / m_i unequally, (1, 2) blocks 3/2 and the others 2
    s = random_structure(PLANS["essential"])
    rotation = haar_unitary(s.algebra.size, Draws(56))
    mixed = np.einsum("jd,dab->jab", rotation, s.algebra.basis)
    bare = Structure(StarAlgebra(s.dim, mixed), s.discrete)
    b = cyclic_subspace(bare, [random_unit_vector(np.random.default_rng(57), s.dim)]).basis
    eigh_calls.clear()
    shat = extend_with_summand(bare, b)
    shat.algebra.basis
    assert eigh_calls == [(s.algebra.size, s.algebra.size)]
    assert_basis_matches_eigh_route(bare, shat)
    assert_trace_orthonormal(shat.algebra)
    assert shat.algebra.spans_equal(span_algebra(_summand_images(mixed, b), shat.dim))


def test_zeroed_image_on_the_scaling_route_raises(monkeypatch, eigh_calls):
    s = random_structure(PLANS["essential"])
    b = cyclic_subspace(s, [random_unit_vector(np.random.default_rng(58), s.dim)]).basis
    eigh_calls.clear()

    def zeroed(mats, basis):
        out = _summand_images(mats, basis)
        out[-1] = 0
        return out

    monkeypatch.setattr(starrep.representation, "_summand_images", zeroed)
    with pytest.raises(ToleranceBreach, match="not linearly independent"):
        extend_with_summand(s, b).algebra.basis
    assert eigh_calls == []


@pytest.fixture
def extensions(monkeypatch):
    """Each algebra made with a deferred basis, and the arguments of each
    extension basis built."""
    made, built = [], []
    deferred = StarAlgebra._deferred.__func__
    monkeypatch.setattr(StarAlgebra, "_deferred", classmethod(
        lambda cls, *args: made.append(deferred(cls, *args)) or made[-1]))
    build = starrep.representation._extension_basis
    monkeypatch.setattr(starrep.representation, "_extension_basis",
                        lambda *args: built.append(args) or build(*args))
    return made, built


def test_no_caller_builds_an_extension_basis(extensions, capsys):
    made, built = extensions
    s = random_structure(PLANS["discrete"])
    rng = np.random.default_rng(70)
    v, e, f = (random_unit_vector(rng, s.dim) for _ in range(3))
    shat, _ = nonforking_extension(s, v, [e], [e, f])
    assert s.discrete.dim and shat.dim > s.dim and len(made) == 1
    assert shat.algebra.size == s.algebra.size and built == []
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        assert cli.main(["extend", str(path), "u", "", "e1"]) == 0
    assert len(made) == 4
    run_freeness_suite(PLANS["discrete"], 1)
    capsys.readouterr()
    assert len(made) > 4 and built == []
    assert all(a._build is not None for a in made)
    basis = shat.algebra.basis
    assert shat.algebra.basis is basis and len(built) == 1 and shat.algebra._build is None
    assert_basis_matches_eigh_route(s, shat)


def test_failed_extension_basis_raises_at_each_read(monkeypatch):
    s = random_structure(PLANS["essential"])
    b = cyclic_subspace(s, [random_unit_vector(np.random.default_rng(71), s.dim)]).basis

    def zeroed(mats, basis):
        # the images of s's basis only: the generators' stay whole
        out = _summand_images(mats, basis)
        if mats is s.algebra.basis:
            out[-1] = 0
        return out

    monkeypatch.setattr(starrep.representation, "_summand_images", zeroed)
    shat = extend_with_summand(s, b)
    a = shat.algebra
    assert a.size == s.algebra.size and a.generators
    for read in (lambda: a.basis, lambda: a.basis, a.probes, a.block_decomposition,
                 lambda: extend_with_summand(shat, np.eye(shat.dim))):
        with pytest.raises(ToleranceBreach, match="not linearly independent"):
            read()
    assert a._build is not None and a._probes is None and a._block is None


def test_extension_basis_is_built_once_across_threads(extensions):
    _, built = extensions
    s = random_structure(PLANS["essential"])
    b = cyclic_subspace(s, [random_unit_vector(np.random.default_rng(72), s.dim)]).basis
    a = extend_with_summand(s, b).algebra
    results = []
    threads = [threading.Thread(target=lambda: results.append(a.basis), daemon=True)
               for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        deadline = time.monotonic() + 30
        for t in threads:
            t.join(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 8 and all(r is results[0] for r in results)
    assert len(built) == 1 and a.size == len(results[0]) == s.algebra.size


# the block plans of the forking benchmark workload
FORKING_PLANS = {
    "mixed8": InstanceSpec(8, ((1, 2), (2, 1), (1, 1), (3, 1)), (False, False, True, False),
                           seed=65),
    "mixed12": InstanceSpec(12, ((1, 3), (2, 2), (3, 1), (1, 2)), (False,) * 4, seed=66),
    "mixed16": MIXED16,
    "diag8": InstanceSpec(8, ((1, 1),) * 8, (True, True) + (False,) * 6, seed=67),
    "diag12": DIAG12,
    "diag16": InstanceSpec(16, ((1, 1),) * 16, (False,) * 16, seed=68),
}


@pytest.mark.parametrize("plan", sorted(CLOSURE_PLANS) + sorted(FORKING_PLANS))
def test_extension_certified_from_its_parent_passes_full_validation(plan):
    # the extension is certified from s with no probe of its algebra drawn;
    # the full checks of an outside Structure and StarAlgebra pass on it
    spec = CLOSURE_PLANS.get(plan) or FORKING_PLANS[plan]
    s = random_structure(spec)
    rng = np.random.default_rng(69)
    v, f = random_unit_vector(rng, s.dim), random_unit_vector(rng, s.dim)
    e = block_vectors(s, rng)[0]
    for base, ext, seed in (([], [f], None), ([e], [e, f], 3)):
        shat, _ = nonforking_extension(s, v, base, ext, seed=seed)
        assert shat.algebra._probes is None
        assert shat.dim > s.dim or base  # (6, 1) alone: dcl(e) is the whole space
        shat._validate()
        shat.algebra._validate()


def test_nonforking_extension_makes_no_eigh(eigh_calls):
    s = random_structure(MIXED16)
    rng = np.random.default_rng(59)
    v, e, f = (random_unit_vector(rng, s.dim) for _ in range(3))
    eigh_calls.clear()
    shat, _ = nonforking_extension(s, v, [e], [e, f])
    assert eigh_calls == [] and shat.dim > s.dim


# ----- probes ------------------------------------------------------------------

def test_probe_coefficients_are_drawn_once_per_size(monkeypatch):
    one = random_structure(InstanceSpec(5, ((2, 1), (1, 3)), (False, False), seed=60)).algebra
    two = random_structure(InstanceSpec(7, ((2, 2), (1, 3)), (False, False), seed=61)).algebra
    assert one.size == two.size == 5
    one.probes()
    keys = []

    class Spy(Draws):
        def __init__(self, key):
            keys.append(key)
            super().__init__(key)

    monkeypatch.setattr(starrep.algebra, "Draws", Spy)
    two.probes()
    assert keys == []
    c = _probe_coefficients(5)
    assert c is _probe_coefficients(two.size) and not c.flags.writeable
    fresh = Draws(0x6E5).standard_normal((2, 5, 2)) @ [1, 1j]
    assert np.array_equal(c, [ci / np.linalg.norm(ci) for ci in fresh])
    for a in (one, two):
        x, y = (a.from_coefficients(ci) for ci in c)
        assert np.array_equal(a.probes(), np.stack([x, y, x @ y, x.conj().T]))


# ----- residuals inside the base closure ---------------------------------------

def test_extend_cli_gives_no_summand_inside_the_base_closure(capsys):
    # under M_2, dcl(e1) = C^2: e2's residual over it is round-off
    code = cli.main(["extend", str(SCENARIO_DIR / "m2.json"), "e2", "e1", "e1", "--json"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 0 and rep["summand_dimension"] == 0 and rep["new_dimension"] == 2


@pytest.mark.parametrize("spec", [MIXED16, DIAG12], ids=["mixed16", "diag12"])
def test_vector_inside_its_base_gets_no_summand(spec):
    s = random_structure(spec)
    rng = np.random.default_rng(62)
    e = random_unit_vector(rng, s.dim)
    x = s.algebra.random_hermitian_element(rng)
    for v in (e, x @ e):
        shat, vprime = nonforking_extension(s, v, [e], [e])
        assert shat.dim == s.dim and np.allclose(vprime, v, atol=1e-12)
        mc = morley_average_check(s, v, [e], 4)
        assert mc.residual_norm == 0.0 and mc.distance == 0.0 and mc.copies.shape == (4, s.dim)


def test_tuple_mixing_inside_and_outside_entries():
    # x e lies in dcl(e); f lies in blocks e misses, so it is its own residual
    s = random_structure(PLANS["essential"])
    rng = np.random.default_rng(63)
    blocks = block_vectors(s, rng)
    e, f = blocks[0] + blocks[1], blocks[3]
    inside = s.algebra.random_hermitian_element(rng) @ e
    shat, vprime = nonforking_extension(s, [inside, f], [e], [e])
    n = s.dim
    assert shat.dim - n == cyclic_subspace(s, [f]).dim
    assert not np.any(vprime[0, n:])
    np.testing.assert_allclose(vprime[0, :n], inside, atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(vprime[1, n:]), np.linalg.norm(f), atol=1e-12)


# ----- invariance ----------------------------------------------------------------

def planted_signature(spec, extension: bool):
    """Sorted (k_i, r_i), r_i = min(k_i, m_i) the rank of a random vector's
    block, over the blocks it meets, for the substructure; (k_i, m_i + r_i),
    r_i only on the essential blocks, for the extension over the empty base."""
    if extension:
        return tuple(sorted((k, m + (0 if d else min(k, m)))
                            for (k, m), d in zip(spec.blocks, spec.discrete_flags)))
    return tuple(sorted((k, min(k, m)) for k, m in spec.blocks))


def new_structure_figures(s, v, f):
    sub = cyclic_substructure(s, v)
    shat, _ = nonforking_extension(s, v, [], [f])
    return (sub.dim, sub.discrete.dim, sub.algebra.size, shat.dim - s.dim, shat.algebra.size)


@pytest.mark.parametrize("plan", ["essential", "discrete", "mixed16"])
def test_new_structures_are_invariant(plan):
    spec = MIXED16 if plan == "mixed16" else PLANS[plan]
    s = random_structure(spec)
    rng = np.random.default_rng(64)
    v, f = random_unit_vector(rng, s.dim), random_unit_vector(rng, s.dim)
    want = new_structure_figures(s, v, f)
    u = commuting_unitary(s, rng)
    for got in (new_structure_figures(s, c * v, c * f) for c in (1e-6, 1e6)):
        assert got == want
    assert new_structure_figures(s, u @ v, u @ f) == want
    sub = cyclic_substructure(s, v)
    assert sub.algebra.block_decomposition().signature == planted_signature(spec, False)
    assert sub.discrete.dim == sum(k * min(k, m) for (k, m), d
                                   in zip(spec.blocks, spec.discrete_flags) if d)
    shat, _ = nonforking_extension(s, v, [], [f])
    assert shat.algebra.block_decomposition().signature == planted_signature(spec, True)
    assert generate_algebra(shat.algebra.generators).size == shat.algebra.size

"""New structures in closed form, and residuals inside the base closure.

A cyclic substructure's algebra is (+)(I_{r_i} (x) M_{k_i}) on the columns of
its vector's block rows, written down with no algebra basis read; the
reference is span_algebra of the compressed basis.  An extension's algebra
is held by its blocks (k_i, m_i + r_i), solved from its parent's with no
commutant, and its basis is their closed form, written on its first read;
no caller in starrep reads it.  The reference is the parent's basis mapped
by x -> blkdiag(x, b^H x b) and orthonormalized by its Gram matrix G, as
G^{-1/2} images: on a generated parent the two bases hold the same
elements, and on a bare one the same span.  The probes' coefficients are
drawn once per algebra size, and an algebra held by its blocks assembles its
probes from them and reads their parts once: no certificate, closure,
functional or extension chain writes its basis, and full M_64 from
generation to a verdict, and a chain's second extension on full M_48, stay
under 100 MB.  A residual close to zero at its vector's norm
is zero, so a vector inside the base closure gets no summand.  Guard tests
count the LAPACK calls, commutant solves and draws the constructors make.
"""
import json
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import starrep.algebra
import starrep.linalg
import starrep.representation
from starrep import cli
from starrep.algebra import (StarAlgebra, _probe_coefficients, generate_algebra, span_algebra,
                             wedderburn_decompose)
from starrep.functionals import gns, vector_state
from starrep.harness import (InstanceSpec, commuting_unitary, random_structure,
                             random_unit_vector, run_freeness_suite)
from starrep.independence import is_independent, morley_average_check, nonforking_extension
from starrep.linalg import Draws, haar_unitary
from starrep.representation import (
    Structure,
    _summand_images,
    acl,
    cyclic_subspace,
    cyclic_substructure,
    extend_with_summand,
)

from conftest import SCENARIO_DIR
from test_closure_reuse import (CLOSURE_PLANS, PLANS, assert_raises_at_each_read, block_vectors,
                                closure_structure, essential_parts)

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


def image_basis(s, b):
    """The extension's basis as the images of s's basis orthonormalized by
    their Gram matrix G, as G^{-1/2} images through G's eigh."""
    images = _summand_images(s.algebra.basis, b)
    flat = images.reshape(len(images), -1)
    w, v = np.linalg.eigh(flat @ flat.conj().T)
    return np.sqrt(images.shape[-1]) * ((v / np.sqrt(w)) @ v.conj().T @ flat)


def assert_basis_matches_the_images(s, shat):
    """shat's basis and image_basis hold the same matrices, in any order, to
    1e-12: both are trace-orthonormal, so their pairings match them."""
    want = image_basis(s, shat.embedding)
    got = shat.algebra.basis.reshape(len(want), -1)
    match = np.abs(got @ want.conj().T).argmax(1)
    assert sorted(match) == list(range(len(want)))
    assert np.max(np.abs(got - want[match]), initial=0.0) <= 1e-12


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
            assert_basis_matches_the_images(s, shat)
            assert_trace_orthonormal(shat.algebra)


def test_extension_chain_basis_matches_the_images():
    s = random_structure(MIXED16)
    rng = np.random.default_rng(55)
    e, v = random_unit_vector(rng, s.dim), random_unit_vector(rng, s.dim)
    cur = s
    for step in range(3):
        pad = np.zeros(cur.dim - s.dim)
        nxt, v = nonforking_extension(cur, v, [np.concatenate([e, pad])],
                                      [np.concatenate([e, pad])], seed=step)
        assert nxt.dim > cur.dim
        assert_basis_matches_the_images(cur, nxt)
        cur = nxt


def test_extension_of_a_rotated_bare_basis_spans_the_images():
    # a trace-orthonormal basis that mixes the blocks, whose images gain
    # (m_i + r_i) / m_i unequally, (1, 2) blocks 3/2 and the others 2: the
    # extension's closed-form basis spans them
    s = random_structure(PLANS["essential"])
    rotation = haar_unitary(s.algebra.size, Draws(56))
    mixed = np.einsum("jd,dab->jab", rotation, s.algebra.basis)
    bare = Structure(StarAlgebra(s.dim, mixed), s.discrete)
    b = cyclic_subspace(bare, [random_unit_vector(np.random.default_rng(57), s.dim)]).basis
    shat = extend_with_summand(bare, b)
    assert_trace_orthonormal(shat.algebra)
    images = span_algebra(_summand_images(mixed, b), shat.dim)
    assert shat.algebra.spans_equal(images) and images.spans_equal(shat.algebra)


def test_zeroed_summand_column_raises(monkeypatch):
    # b^H C with a zero column is not unitary
    s = random_structure(PLANS["essential"])
    b = cyclic_subspace(s, [random_unit_vector(np.random.default_rng(58), s.dim)]).basis
    closure_basis = starrep.representation._closure_basis

    def zeroed(*args):
        out = closure_basis(*args)
        out[:, -1] = 0
        return out

    monkeypatch.setattr(starrep.representation, "_closure_basis", zeroed)
    assert_raises_at_each_read(extend_with_summand(s, b), "not unitary")


@pytest.fixture
def extensions(monkeypatch):
    """The algebras extend_with_summand makes, and the arguments of each
    extension's blocks solved."""
    made, built = [], []
    of_blocks = StarAlgebra._of_blocks.__func__

    def record(cls, *args):
        out = of_blocks(cls, *args)
        if sys._getframe(1).f_code is extend_with_summand.__code__:
            made.append(out)
        return out

    monkeypatch.setattr(StarAlgebra, "_of_blocks", classmethod(record))
    solve = starrep.representation._extension_blocks
    monkeypatch.setattr(starrep.representation, "_extension_blocks",
                        lambda *args: built.append(args) or solve(*args))
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
    assert all(a._basis is None and a._block is None for a in made)
    basis = shat.algebra.basis
    assert shat.algebra.basis is basis and len(built) == 1 and shat.algebra._block is not None
    assert_basis_matches_the_images(s, shat)


def test_failed_extension_basis_raises_at_each_read(monkeypatch):
    # C with its first column twice: b^H C is not unitary
    s = random_structure(PLANS["essential"])
    b = cyclic_subspace(s, [random_unit_vector(np.random.default_rng(71), s.dim)]).basis
    closure_basis = starrep.representation._closure_basis

    def repeated(*args):
        out = closure_basis(*args)
        out[:, -1] = out[:, 0]
        return out

    monkeypatch.setattr(starrep.representation, "_closure_basis", repeated)
    shat = extend_with_summand(s, b)
    assert shat.algebra.size == s.algebra.size and shat.algebra.generators
    assert_raises_at_each_read(shat, "not unitary")


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


@pytest.fixture
def commutant_solves(monkeypatch):
    """The letters' shape of each commutant solved."""
    calls = []
    solve = starrep.algebra._commutant_basis
    monkeypatch.setattr(starrep.algebra, "_commutant_basis",
                        lambda letters, *args: calls.append(letters.shape) or solve(letters, *args))
    return calls


@pytest.mark.parametrize("plan", sorted(CLOSURE_PLANS))
def test_extension_chain_solves_no_commutant(plan, commutant_solves):
    # an extension's blocks come from its parent's: extending an extension
    # and querying the result solves no commutant, and the blocks are those
    # its basis decomposes into
    s = closure_structure(plan)
    rng = np.random.default_rng(73)
    v, e, f = (random_unit_vector(rng, s.dim) for _ in range(3))
    commutant_solves.clear()
    # over the empty base, as dcl(e) is the whole space on the full plan
    one, v1 = nonforking_extension(s, v, [], [f])
    two, v2 = nonforking_extension(one, v1, [], [np.concatenate([f, np.zeros(one.dim - s.dim)])],
                                   seed=1)
    pad = np.zeros(two.dim - s.dim)
    is_independent(two, v2, [np.concatenate([e, pad])], [np.concatenate([f, pad])])
    assert commutant_solves == [] and two.dim > one.dim > s.dim
    if plan == "lopsided":
        return  # n = 102 at the end: the reference routes take seconds
    for parent, shat in ((s, one), (one, two)):
        blocks = shat.algebra.block_decomposition().blocks
        assert blocks == wedderburn_decompose(shat.algebra).blocks
        assert_basis_matches_the_images(parent, shat)


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
    # held by its blocks, an algebra assembles its probes from their parts:
    # the elements of those coefficients over the closed form basis, to
    # round-off; from outside input, they are read off the basis itself
    for a in (one, two):
        x, y = (c @ a.basis.reshape(a.size, -1)).reshape(2, a.dim, a.dim)
        want = np.stack([x, y, x @ y, x.conj().T])
        assert np.max(np.abs(a.probes() - want)) <= 1e-13 * np.max(np.abs(want))
        outside = StarAlgebra(a.dim, a.basis)
        x, y = (outside.from_coefficients(ci) for ci in c)
        assert np.array_equal(outside.probes(), np.stack([x, y, x @ y, x.conj().T]))


# ----- certificates on the blocks ----------------------------------------------

def full_generators(n, rng):
    """Two random complex n x n generators: they generate the full M_n."""
    return [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(2)]


@pytest.mark.parametrize("plan", ["mixed16", "full8"])
def test_certificates_write_no_algebra_basis(plan):
    # every certificate a structure, its closures, its functionals and an
    # extension chain make is read on the blocks: no basis is written
    rng = np.random.default_rng(75)
    if plan == "full8":
        s = Structure(generate_algebra(full_generators(8, rng)))
    else:
        s = random_structure(MIXED16)
        assert s.discrete.dim
    v, e, f = (random_unit_vector(rng, s.dim) for _ in range(3))
    acl(s, [e])
    is_independent(s, v, [e], [f])
    gns(s.algebra, vector_state(s, v))
    # over the empty base, as dcl(f) is the whole space under M_8
    one, v1 = nonforking_extension(s, v, [], [f])
    two, v2 = nonforking_extension(one, v1, [], [np.pad(f, (0, one.dim - s.dim))], seed=1)
    is_independent(two, v2, *([np.pad(x, (0, two.dim - s.dim))] for x in (e, f)))
    assert two.dim > one.dim > s.dim
    assert all(a._basis is None for a in (s.algebra, one.algebra, two.algebra))


def traced(call):
    """(result, tracemalloc peak in MB) of call()."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_large_full_algebras_stay_small():
    # full M_64 from generation to a forking verdict, and the second
    # extension of a chain on full M_48, each write no d x n x n basis
    rng = np.random.default_rng(5)
    gens = full_generators(64, rng)
    v, e, f = (random_unit_vector(rng, 64) for _ in range(3))

    def m64():
        s = Structure(generate_algebra(gens))
        acl(s, [e])
        return is_independent(s, v, [e], [f])

    _, peak = traced(m64)
    assert peak < 100
    s = Structure(generate_algebra(full_generators(48, rng)))
    v, e, f = (random_unit_vector(rng, 48) for _ in range(3))
    one, v1 = nonforking_extension(s, v, [], [e, f])
    ep, fp = (np.pad(x, (0, one.dim - 48)) for x in (e, f))
    (two, _), peak = traced(lambda: nonforking_extension(one, v1, [ep], [ep, fp], seed=1))
    assert peak < 100 and two.dim > one.dim


def concatenated_basis(dec, commutant=False):
    """_closed_form_basis as it was written before it wrote in place: each
    run scaled, then all concatenated."""
    q = dec.change_of_basis
    n = q.shape[0]
    out = [np.zeros((0, n, n), dtype=complex)]
    for _, c, k, m, off in dec.runs:
        cols = q[:, off:off + c * k * m].reshape(n, c, k, m)
        if commutant:
            cols, k, m = cols.swapaxes(2, 3), m, k
        out.append(np.sqrt(n / m) * np.einsum("xiaj,yibj->iabxy", cols, cols.conj())
                   .reshape(-1, n, n))
    return np.concatenate(out)


@pytest.mark.parametrize("plan", sorted(CLOSURE_PLANS))
def test_closed_form_basis_written_in_place_is_unchanged(plan):
    dec = closure_structure(plan).algebra.block_decomposition()
    for commutant in (False, True):
        want = concatenated_basis(dec, commutant)
        got = starrep.algebra._closed_form_basis(dec, commutant)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_probe_parts_are_read_once_across_threads(monkeypatch):
    a = random_structure(MIXED16).algebra
    reads, results = [], []
    parts = starrep.algebra.BlockDecomposition.block_parts
    monkeypatch.setattr(starrep.algebra.BlockDecomposition, "block_parts",
                        lambda self, m: reads.append(np.shape(m)) or parts(self, m))
    threads = [threading.Thread(target=lambda: results.append(a.probe_parts()), daemon=True)
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
    assert reads == [(4, a.dim, a.dim)] and not results[0][0].flags.writeable


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

"""Each closure of the forking calculus is computed once per call.

The reference routes below are the straightforward ones, kept as oracles:
the cyclic subspace is the span of the images a_k v of every vector under a
trace-orthonormal basis a_k of the algebra (the library solves it on the
Wedderburn blocks), acl always joins through subspace_sum, finite_base
recomputes acl of every candidate sub-pool from its vectors and the chosen
closure after each pick, and nonforking_extension recomputes both closures
through type_of and orthonormalizes the extension's images by an SVD in
span_algebra.  A type is the residuals' moments <a r_j, r_k> against the
root's basis as it acts on the structure (its images through each extension
of a chain), and the states types_orthogonal and types_dominated compare are
vector_state's on the structure's own blocks, over acl(base) as a Subspace.
The library must agree with them, while guard tests count the
closures and SVDs it actually makes.  finite_base solves acl of the full
pool once and every dcl(f) in one more solve, as block rows, and joins
acl(chosen) + dcl(f) block by block: an SVD only where both sides have rows
in a block, none on a multiplicity-free structure, and no Subspace.
nonforking_extension takes the extension set's closures in its parent, dcl
and acl of a set from one solve.  acl takes the blocks the discrete part
fills whole, with no n-dimensional span and no SVD of the discrete part,
and a multiplicity-free structure closes with no SVD at all.  Pools with
repeated, zero or rescaled elements check the skip path and that the joins'
cut ignores the pool's norms; vectors with a part just either side of the
cut check that the blocks are cut where the basis route cuts.
"""
import dataclasses
import itertools
import json
import tracemalloc

import numpy as np
import pytest

import starrep.independence
import starrep.linalg
import starrep.representation
from starrep import cli
from starrep.algebra import StarAlgebra, generate_algebra, span_algebra
from starrep.functionals import (is_dominated, is_orthogonal, types_dominated, types_orthogonal,
                                 vector_state)
from starrep.harness import (InstanceSpec, commuting_unitary, random_structure, random_unit_vector,
                             scenario_of)
from starrep.independence import (
    _check_base_extension,
    _descriptor_gaps,
    canonical_base,
    descriptor_distance,
    finite_base,
    is_independent,
    nonforking_extension,
    type_of,
)
from starrep.linalg import (Subspace, ToleranceBreach, Tolerances, haar_unitary, orthonormalize,
                            project, subspace_sum)
from starrep.representation import (
    Structure,
    _summand_images,
    acl,
    closures,
    cyclic_subspace,
    cyclic_substructure,
    essential_discrete_parts,
    extend_with_summand,
    invariance_defect,
)

from conftest import E1

BLOCKS = ((1, 2), (2, 1), (1, 1), (1, 1), (1, 2))
PLANS = {
    "essential": InstanceSpec(8, BLOCKS, (False,) * 5, seed=31),
    "discrete": InstanceSpec(8, BLOCKS, (False, False, True, False, False), seed=32),
}


# ----- reference routes ------------------------------------------------------

def ref_cyclic_subspace(s, vectors):
    vecs = [np.asarray(v, dtype=complex).ravel() for v in vectors]
    if not vecs:
        return Subspace(s.dim, np.zeros((s.dim, 0)), s.tol)
    # row (k, m) is a_k v_m
    images = np.array(vecs) @ s.algebra.basis.transpose(0, 2, 1)
    return orthonormalize(images.reshape(-1, s.dim), s.dim, s.tol)


def ref_acl(s, vectors):
    return subspace_sum(ref_cyclic_subspace(s, vectors), s.discrete)


def ref_moment_basis(s):
    """The root's trace-orthonormal basis as it acts on s: the root's own
    basis, or its images blkdiag(a, b^H a b) through each extension of the
    chain (parent, embedding b)."""
    if s.parent is None:
        return s.algebra.basis
    return _summand_images(ref_moment_basis(s.parent), s.embedding)


@dataclasses.dataclass
class RefType:
    """A type as the moments <a_d r_j, r_k> (entry [d, j, k]) of the residuals
    against the root's basis as it acts on the structure (ref_moment_basis)."""

    base_projections: np.ndarray
    moments: np.ndarray


def ref_type_of(s, vectors, base):
    vs = np.atleast_2d(np.asarray(vectors, dtype=complex))
    he = ref_cyclic_subspace(s, base)
    bp = np.array([project(he, v) for v in vs])
    res = vs - bp
    return RefType(bp, np.einsum("dab,jb,ka->djk", ref_moment_basis(s), res, res.conj()))


def ref_gaps(d1, d2):
    """(projection gap, moment gap): the base projections entrywise, the
    shorter zero-padded, and the largest l2 norm over the root's basis of a
    residual pair's moments."""
    p1, p2 = d1.base_projections, d2.base_projections
    n = max(p1.shape[1], p2.shape[1])
    gap = (np.pad(p1, ((0, 0), (0, n - p1.shape[1])))
           - np.pad(p2, ((0, 0), (0, n - p2.shape[1]))))
    moments = np.linalg.norm(d1.moments - d2.moments, axis=0)
    return float(np.max(np.abs(gap), initial=0.0)), float(np.max(moments, initial=0.0))


def ref_type_states(s, v, w, base):
    """The vector states of v's and w's residuals over acl(base), a vector
    inside it to tolerance with the zero residual, on s's own blocks."""
    closure = acl(s, base)
    states = []
    for x in (v, w):
        r, inside = closure.residual(np.asarray(x, dtype=complex))
        states.append(vector_state(s, 0 * r if inside else r))
    return states


def ref_extend_with_summand(s, b):
    n, k = s.dim, b.shape[1]
    images = _summand_images(ref_moment_basis(s), b)
    gens = _summand_images(np.array(s.algebra.generators).reshape(-1, n, n), b)
    algebra = span_algebra(images, n + k, s.tol, generators=list(gens))
    disc = np.zeros((n + k, s.discrete.dim), dtype=complex)
    disc[:n] = s.discrete.basis
    out = Structure(algebra, Subspace(n + k, disc, s.tol))
    out.embedding, out.parent = b, s
    return out


def ref_nonforking_extension(s, vectors, base, extension, seed=None):
    vs = np.atleast_2d(np.asarray(vectors, dtype=complex))
    _check_base_extension(base, extension, s.tol)
    base_cl = ref_acl(s, base)
    proj = np.array([project(base_cl, v) for v in vs])
    res = vs - proj
    hr = ref_cyclic_subspace(s, list(res))
    b = hr.basis
    if seed is not None and hr.dim:
        b = b @ haar_unitary(hr.dim, np.random.default_rng([seed, 0x0F0E]))
    shat = ref_extend_with_summand(s, b)
    k = b.shape[1]
    vprime = np.hstack([proj, res @ b.conj()])
    f_emb = [np.concatenate([f, np.zeros(k, dtype=complex)]) for f in extension]
    ext_cl = ref_acl(shat, f_emb)
    residual_new = vprime - np.array([project(ext_cl, w) for w in vprime])
    gap = max(ref_gaps(ref_type_of(s, res, base), ref_type_of(shat, residual_new, f_emb)))
    return shat, vprime, gap


def ref_finite_base(s, vs, pool, epsilon):
    targets = np.array([project(ref_acl(s, pool), v) for v in vs])

    def score(cl):
        return max(float(np.linalg.norm(t - project(cl, v))) for t, v in zip(targets, vs))

    def worst_defect(idx):
        sub_cl = ref_acl(s, [pool[i] for i in idx])
        return score(sub_cl), sub_cl

    chosen = []
    current, sub_cl = worst_defect(chosen)
    size = float(np.max(np.linalg.norm(vs, axis=1)))
    while current >= epsilon:
        best = None
        for i in range(len(pool)):
            if i in chosen:
                continue
            cand_cl = ref_acl(s, [pool[j] for j in chosen] + [pool[i]])
            if cand_cl.dim <= sub_cl.dim:
                continue
            cand = score(cand_cl)
            if best is None or (cand < best[0] and not s.tol.close(best[0] - cand, size)):
                best = (cand, i)
        if best is None:
            break
        chosen.append(best[1])
        current, sub_cl = worst_defect(chosen)
    return chosen, vs - targets + np.array([project(sub_cl, v) for v in vs]), current


# ----- inputs ------------------------------------------------------------------

def block_vectors(s, rng):
    """One random vector in each block of the decomposition."""
    dec = s.algebra.block_decomposition()
    q = dec.change_of_basis
    return [q[:, off:off + k * m] @ random_unit_vector(rng, k * m)
            for off, (k, m) in zip(itertools.accumulate([k * m for k, m in dec.blocks], initial=0), dec.blocks)]


def essential_parts(s, vectors):
    """The essential parts of the vectors, leaving out those of vectors in
    the discrete part, which are round-off."""
    parts = [(essential_discrete_parts(s, x)[0], x) for x in vectors]
    return [e for e, x in parts if np.linalg.norm(e) > 1e-9 * np.linalg.norm(x)]


def essential_pool(s, rng):
    """Block vectors of the blocks outside the discrete part."""
    return [f for f in block_vectors(s, rng)
            if np.linalg.norm(project(s.discrete, f)) < 1e-9]


def assert_subspaces_match(got, want):
    assert got.dim == want.dim
    assert got.isclose(want)


# ----- parity ------------------------------------------------------------------

@pytest.mark.parametrize("plan", sorted(PLANS))
def test_closures_match_reference_routes(plan):
    s = random_structure(PLANS[plan])
    rng = np.random.default_rng(7)
    v, w, e = (random_unit_vector(rng, s.dim) for _ in range(3))
    for vectors in ([], [e], [v, w], essential_pool(s, rng)[:2]):
        assert_subspaces_match(acl(s, vectors), ref_acl(s, vectors))
    for tup, base, extra in (([v], [], [w]), ([v, w], [e], [e, w]), ([v], [e], [e])):
        got = is_independent(s, tup, base, extra)
        small, big = ref_acl(s, base), ref_acl(s, base + extra)
        want = max(float(np.linalg.norm(project(big, x) - project(small, x))) for x in tup)
        assert got.verdict == s.tol.close(want, 1.0)
        assert abs(got.defect - want) <= 1e-10
    he = ref_cyclic_subspace(s, [e])
    np.testing.assert_allclose(canonical_base(s, v, [e]), project(he, v), atol=1e-10)
    got, want = type_of(s, [v, w], [e]), ref_type_of(s, [v, w], [e])
    np.testing.assert_allclose(got.base_projections, want.base_projections, atol=1e-10)
    assert_gaps_match((got, type_of(s, [w, v], [e])), (want, ref_type_of(s, [w, v], [e])))


class LargeSpec(InstanceSpec):
    """An InstanceSpec past the n <= 16 of random instances, for
    random_structure."""

    def __post_init__(self):
        pass


# plans with multiplicities (rank deficient blocks), a full matrix algebra,
# the diagonal one, one with two copies of a (2, 2) class (a discrete part
# holding one of them is refused, test_discrete_blocks), and two of two block
# groups that differ in their largest m (one group's every m_i = 1), beside
# the two above
CLOSURE_PLANS = {
    **PLANS,
    "multiple": InstanceSpec(12, ((1, 1), (2, 2), (1, 3), (3, 1), (1, 1)), (False,) * 5, seed=33),
    "full": InstanceSpec(6, ((6, 1),), (False,), seed=34),
    "diagonal": InstanceSpec(6, ((1, 1),) * 6, (True,) + (False,) * 5, seed=35),
    "partial": InstanceSpec(7, ((2, 2), (1, 1), (1, 2)), (False, True, False), seed=36),
    "two groups": InstanceSpec(11, ((1, 2), (2, 2), (5, 1)), (False, True, False), seed=37),
    "lopsided": LargeSpec(40, ((24, 1),) + ((1, 2),) * 8, (False, True) + (False,) * 7, seed=38),
}


def class_columns(s):
    """The columns of Q for the (2, 2) class of s as an (n, 2, 2) array:
    [:, a, j] is column (a, j), and Q (C^2 (x) w) = class_columns(s) @ w is
    one copy of the class for a unit w in C^2."""
    dec = s.algebra.block_decomposition()
    i = dec.blocks.index((2, 2))
    off = sum(k * m for k, m in dec.blocks[:i])
    return dec.change_of_basis[:, off:off + 4].reshape(-1, 2, 2)


def closure_structure(plan):
    """random_structure of the plan."""
    return random_structure(CLOSURE_PLANS[plan])


def closure_inputs(s, rng):
    """Named vector lists: tuples, zero vectors, vectors inside one block, and
    rescaled ones."""
    v, w, e = (random_unit_vector(rng, s.dim) for _ in range(3))
    zero = np.zeros(s.dim, dtype=complex)
    out = {"empty": [], "zero": [zero], "one": [v], "pair": [v, w], "triple": [v, w, e],
           "with zero": [v, zero], "tiny": [1e-6 * v, 1e-6 * w], "huge": [1e6 * v, 1e6 * w]}
    blocks = block_vectors(s, rng)
    out.update({f"block {i}": [f] for i, f in enumerate(blocks)})
    out["blocks"] = blocks[:2] + [blocks[0] - blocks[-1]]
    return out


def assert_cyclic_subspaces_match(s, vectors, sine=None):
    """Equal dimension, and the largest principal angle's sine within eq_abs
    or the given bound."""
    got, want = cyclic_subspace(s, vectors), ref_cyclic_subspace(s, vectors)
    assert got.dim == want.dim
    gap = np.linalg.norm(want.basis - got.basis @ (got.basis.conj().T @ want.basis), 2)
    assert gap <= (s.tol.eq_abs if sine is None else sine), gap
    return got


@pytest.mark.parametrize("plan", sorted(CLOSURE_PLANS))
def test_block_closures_match_the_basis_route(plan):
    s = closure_structure(plan)
    rng = np.random.default_rng(15)
    inputs = closure_inputs(s, rng)
    if s.discrete.dim:
        # inside the discrete part, in its complement, and in both
        d = s.discrete.basis @ random_unit_vector(rng, s.discrete.dim)
        other = s.discrete.perp().basis @ random_unit_vector(rng, s.dim - s.discrete.dim)
        inputs.update({"discrete": [d], "essential": [other], "mixed": [d + other]})
    for name, vectors in inputs.items():
        got = assert_cyclic_subspaces_match(s, vectors)
        want = ref_acl(s, vectors)
        assert_subspaces_match(acl(s, vectors), want)
        dcl, cl = closures(s, vectors)
        assert_subspaces_match(dcl, got)
        assert_subspaces_match(cl, want)
        if name in ("empty", "zero"):
            assert got.dim == 0
    assert cyclic_subspace(s, [random_unit_vector(rng, s.dim)]).dim == sum(
        k * min(k, m) for k, m in CLOSURE_PLANS[plan].blocks)


@pytest.mark.parametrize("plan", sorted(set(CLOSURE_PLANS) - {"full"}))
@pytest.mark.parametrize("rank_rel", [None, 1e-4])
def test_block_closures_cut_where_the_basis_route_cuts(plan, rank_rel):
    # a vector in the first block plus a part in another, of multiplicity
    # m_i other than the first's if there is one, from 1/10 to 10 times
    # rank_rel of its size: steps of 10^(1/8) < sqrt 2 cross the cut between
    # the singular values' sqrt(n / m_i) scales
    s = random_structure(CLOSURE_PLANS[plan])
    if rank_rel is not None:
        tol = Tolerances(rank_rel=rank_rel)
        s = Structure(generate_algebra(s.algebra.generators, tol=tol),
                      Subspace(s.dim, s.discrete.basis, tol))
    dec = s.algebra.block_decomposition()
    blocks = block_vectors(s, np.random.default_rng(16))
    j = max(range(1, len(blocks)), key=lambda i: (dec.blocks[i][1] != dec.blocks[0][1], i))
    a, b = blocks[0], blocks[j]
    # the basis route's singular vectors of a singular value t times the
    # largest are accurate to about 1e-16 / t, not to eq_abs
    dims = [assert_cyclic_subspaces_match(s, [a + t * b], sine=max(s.tol.eq_abs, 1e-14 / t)).dim
            for t in s.tol.rank_rel * np.geomspace(0.1, 10.0, 17)]
    one = cyclic_subspace(s, [a]).dim
    assert (dims[0], dims[-1]) == (one, one + cyclic_subspace(s, [b]).dim)


@pytest.mark.parametrize("plan", sorted(PLANS))
def test_block_closures_of_bare_extended_and_sub_structures(plan):
    s = random_structure(PLANS[plan])
    rng = np.random.default_rng(17)
    v, w = random_unit_vector(rng, s.dim), random_unit_vector(rng, s.dim)
    bare = Structure(StarAlgebra(s.dim, s.algebra.basis), s.discrete)
    assert bare.algebra.generators == [] and bare.algebra._block is None
    shat = extend_with_summand(s, cyclic_subspace(s, essential_parts(s, [v])).basis)
    sub = cyclic_substructure(s, v + w)
    for t in (bare, shat, sub):
        for vectors in closure_inputs(t, rng).values():
            assert_cyclic_subspaces_match(t, vectors)
    assert sorted(bare.algebra._block.blocks) == sorted(PLANS[plan].blocks)


def test_block_closures_reject_non_finite_vectors():
    # with the basis route's message, and before any product can warn
    s = random_structure(PLANS["essential"])
    v = random_unit_vector(np.random.default_rng(19), s.dim)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="span input contains non-finite entries"):
            cyclic_subspace(s, [v, np.full(s.dim, bad)])


def test_closure_builds_nothing_indexed_by_the_algebra_basis():
    # full M_32 has d = 1024: the images against the basis alone are 1 MB,
    # the basis 16 MB; the blocks need 16 kB
    rng = np.random.default_rng(18)
    s = Structure(generate_algebra([rng.standard_normal((32, 32))]))
    v, w = random_unit_vector(rng, 32), random_unit_vector(rng, 32)
    assert s.algebra.size == 1024 and cyclic_subspace(s, [v]).dim == 32
    tracemalloc.start()
    try:
        got = cyclic_subspace(s, [v, w])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.dim == 32 and peak < 2 ** 18, peak


@pytest.mark.parametrize("plan", sorted(PLANS))
def test_finite_base_matches_recomputing_route(plan):
    s = random_structure(PLANS[plan])
    rng = np.random.default_rng(8)
    pool = essential_pool(s, rng)
    vs = np.array([sum(pool) + random_unit_vector(rng, s.dim), random_unit_vector(rng, s.dim)])
    for eps in (1e-9, 1.5):   # every pick, then an early stop
        got = finite_base(s, vs, pool, eps)
        indices, replacements, defect = ref_finite_base(s, vs, pool, eps)
        assert got.indices == indices
        np.testing.assert_allclose(got.replacements, replacements, atol=1e-10)
        assert abs(got.defect - defect) <= 1e-10
    # the greedy loop made at least three picks
    assert len(finite_base(s, vs, pool, 1e-9).indices) >= 3


@pytest.mark.parametrize("plan", sorted(PLANS))
@pytest.mark.parametrize("seed", [None, 5])
def test_nonforking_extension_matches_reference_route(plan, seed):
    s = random_structure(PLANS[plan])
    rng = np.random.default_rng(9)
    v, e, f = (random_unit_vector(rng, s.dim) for _ in range(3))
    n = s.dim
    for tup, base, ext in (([v], [e], [e, f]), ([v, f], [], [e])):
        shat, vprime = nonforking_extension(s, tup, base, ext, seed=seed)
        ref, want, gap = ref_nonforking_extension(s, tup, base, ext, seed=seed)
        assert gap <= 1e-10
        assert shat.dim == ref.dim and shat.discrete.dim == ref.discrete.dim
        # the summand's coordinates are fixed only up to a unitary u of the
        # residual cyclic subspace (the SVD's choice of its basis), so both
        # results are compared through W = I (+) u, which maps one onto the other
        k = shat.dim - n
        u = ref.embedding.conj().T @ shat.embedding
        np.testing.assert_allclose(u.conj().T @ u, np.eye(k), atol=1e-10)
        w = np.eye(n + k, dtype=complex)
        w[n:, n:] = u
        np.testing.assert_allclose(vprime, want @ w.conj(), atol=1e-10)
        assert shat.algebra.spans_equal(
            span_algebra(w.conj().T @ ref.algebra.basis @ w, n + k))
        f_emb = [np.concatenate([x, np.zeros(k)]) for x in ext]
        assert descriptor_distance(type_of(shat, vprime, f_emb), type_of(ref, want, f_emb)) <= 1e-10


def assert_gaps_match(got, want):
    """The library's (projection, moment) gaps of a pair of types equal the
    oracle's within 1e-12 relative, or within a round-off floor of
    1e-14 size^2, size the larger of the two tuples' largest entry norms."""
    size = max(d.size for d in got)
    for g, w in zip(_descriptor_gaps(*got), ref_gaps(*want)):
        assert abs(g - w) <= max(1e-12 * w, 1e-14 * size ** 2), (g, w)


@pytest.mark.parametrize("plan", ["discrete", "partial", "multiple", "two groups"])
def test_type_gaps_match_the_moment_oracle(plan):
    s = closure_structure(plan)
    rng = np.random.default_rng(21)
    v, w, e = (random_unit_vector(rng, s.dim) for _ in range(3))
    f = block_vectors(s, rng)[0]
    u = commuting_unitary(s, rng)
    # unrelated tuples, a tuple and its commutant rotation (a gap of
    # round-off), and a small move within one block
    for a, b, base in (([v], [w], []), ([v, w], [w, e], [e]), ([v, w], [u @ v, u @ w], []),
                       ([f], [f + 1e-3 * w], [e]), ([3 * v], [3 * w], [f])):
        assert_gaps_match((type_of(s, a, base), type_of(s, b, base)),
                          (ref_type_of(s, a, base), ref_type_of(s, b, base)))


def test_type_gaps_match_the_moment_oracle_down_a_chain():
    # a 2-step chain of extensions of a structure with a discrete part, and
    # the last tuple's residual moved inside the second summand and elsewhere
    s = closure_structure("discrete")
    rng = np.random.default_rng(22)
    v, w, e = (random_unit_vector(rng, s.dim) for _ in range(3))

    def pad(x, st):
        return np.concatenate([x, np.zeros(st.dim - s.dim)])

    s1, v1 = nonforking_extension(s, [v, w], [e], [e])
    s2, v2 = nonforking_extension(s1, v1, [pad(e, s1)], [pad(e, s1)])
    assert s2.parent is s1 and s1.parent is s and s2.dim > s1.dim > s.dim
    moved = v2.copy()
    moved[:, s1.dim:] += 1e-3 * random_unit_vector(rng, s2.dim - s1.dim)
    moved += 1e-4 * np.array([random_unit_vector(rng, s2.dim) for _ in range(2)])
    types = [(s, [v, w], [e]), (s1, v1, [pad(e, s1)]), (s2, v2, [pad(e, s2)]),
             (s2, moved, [pad(e, s2)]), (s2, moved, [])]
    for (sa, a, ba), (sb, b, bb) in itertools.combinations(types, 2):
        assert_gaps_match((type_of(sa, a, ba), type_of(sb, b, bb)),
                          (ref_type_of(sa, a, ba), ref_type_of(sb, b, bb)))
    # the residual states over acl, read on the root's blocks, decide as the
    # vector states on the chain's own blocks do
    for a, b, base in ((v2[0], v2[1], [pad(e, s2)]), (moved[0], pad(w, s2), []),
                       (pad(v, s2), v2[0], [pad(e, s2)])):
        phi, psi = ref_type_states(s2, a, b, base)
        assert types_orthogonal(s2, a, b, base) == is_orthogonal(phi, psi)
        assert types_dominated(s2, a, b, base) == is_dominated(psi, phi)[0]


def test_type_states_match_the_vector_state_oracle():
    seen = set()
    for plan in sorted(CLOSURE_PLANS):
        s = closure_structure(plan)
        rng = np.random.default_rng(23)
        v, w, e = (random_unit_vector(rng, s.dim) for _ in range(3))
        blocks = block_vectors(s, rng)
        first, last = blocks[0], blocks[-1]
        for a, b, base in ((first, last, []), (v, w, []), (v, w, [e]), (first + last, first, []),
                           (first, v, []), (v, first, [last]), (first, 2 * first, [e])):
            phi, psi = ref_type_states(s, a, b, base)
            orth, dom = is_orthogonal(phi, psi), is_dominated(psi, phi)[0]
            assert types_orthogonal(s, a, b, base) == orth, (plan, a, b)
            assert types_dominated(s, a, b, base) == dom, (plan, a, b)
            seen |= {("orth", orth), ("dom", dom)}
    assert seen == {("orth", True), ("orth", False), ("dom", True), ("dom", False)}


def test_extension_chain_is_trace_orthonormal_and_spans_the_images():
    s = random_structure(PLANS["discrete"])
    rng = np.random.default_rng(10)
    e = random_unit_vector(rng, s.dim)
    cur, v = s, random_unit_vector(rng, s.dim)
    for _ in range(3):
        pad = np.zeros(cur.dim - s.dim)
        cur, v = nonforking_extension(cur, v, [np.concatenate([e, pad])],
                                      [np.concatenate([e, pad])])
        n, flat = cur.dim, cur.algebra.basis.reshape(cur.algebra.size, -1)
        np.testing.assert_allclose(flat @ flat.conj().T / n, np.eye(cur.algebra.size),
                                   atol=1e-12)
        assert cur.algebra.spans_equal(span_algebra(ref_moment_basis(cur), n))


def assert_raises_at_each_read(shat, match):
    """Every read of the extension's blocks raises ToleranceBreach, and
    nothing half-built is kept."""
    a = shat.algebra
    for read in (lambda: a.basis, lambda: a.basis, a.probes, a.block_decomposition,
                 lambda: extend_with_summand(shat, np.eye(shat.dim))):
        with pytest.raises(ToleranceBreach, match=match):
            read()
    assert a._basis is None and a._probes is None and a._block is None


def test_rank_deficient_extension_images_raise(monkeypatch):
    # the summand's closure loses a dimension, so its columns cannot fill the summand
    s = random_structure(PLANS["essential"])
    b = cyclic_subspace(s, [random_unit_vector(np.random.default_rng(11), s.dim)]).basis
    closure_basis = starrep.representation._closure_basis
    monkeypatch.setattr(starrep.representation, "_closure_basis",
                        lambda *args: closure_basis(*args)[:, :-1])
    assert_raises_at_each_read(extend_with_summand(s, b), "closure has dimension")


# ----- closure and SVD counts --------------------------------------------------

@pytest.fixture
def svd_calls(monkeypatch):
    """The shape of each matrix or stack handed to np.linalg.svd."""
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda a, *r, **kw: calls.append(np.shape(a)) or svd(a, *r, **kw))
    return calls


def test_extension_and_essential_acl_svd_counts(svd_calls):
    s = random_structure(PLANS["essential"])
    rng = np.random.default_rng(12)
    v, w = random_unit_vector(rng, s.dim), random_unit_vector(rng, s.dim)
    b = cyclic_subspace(s, [v]).basis
    svd_calls.clear()
    extend_with_summand(s, b)
    assert svd_calls == []
    acl(s, [v, w])
    assert len(svd_calls) == 1


def test_acl_classifies_the_discrete_blocks_once(monkeypatch, svd_calls):
    # the dcl's SVD alone: the discrete part's blocks are flagged by their
    # norms, once per structure, and again for a new discrete part
    s = random_structure(PLANS["discrete"])
    rng = np.random.default_rng(20)
    v, w = random_unit_vector(rng, s.dim), random_unit_vector(rng, s.dim)
    dec = s.algebra.block_decomposition()
    reads = []
    coordinates = dec.coordinates
    monkeypatch.setattr(dec, "coordinates", lambda x: reads.append(x.shape) or coordinates(x))
    svd_calls.clear()
    first = acl(s, [v, w])
    assert len(svd_calls) == 1 and reads == [s.discrete.basis.shape]
    svd_calls.clear()
    assert acl(s, [v, w]).isclose(first) and len(svd_calls) == 1
    s.discrete = Subspace(s.dim, s.discrete.basis.copy(), s.tol)
    svd_calls.clear()
    assert acl(s, [v, w]).isclose(first) and len(svd_calls) == 1
    assert reads == [s.discrete.basis.shape] * 2


@pytest.mark.parametrize("plan", sorted(CLOSURE_PLANS))
def test_acl_makes_no_n_dimensional_span(plan, monkeypatch, svd_calls):
    # every SVD of a closure is on the blocks, at most m_i rows high, and no
    # span is joined in C^n
    s = closure_structure(plan)
    inputs = closure_inputs(s, np.random.default_rng(21))

    def refuse(*args, **kwargs):
        raise AssertionError("a closure joined in C^n")

    for module in (starrep.linalg, starrep.representation):
        for name in ("subspace_sum", "orthonormalize"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    svd_calls.clear()
    for vectors in inputs.values():
        acl(s, vectors)
        closures(s, vectors)
    assert all(shape[-2] <= max(m for _, m in s.algebra.block_decomposition().blocks)
               for shape in svd_calls)


@pytest.mark.parametrize("plan", ["full", "diagonal"])
def test_multiplicity_free_closures_make_no_svd(plan, svd_calls):
    # every m_i = 1: a block's one singular value is its norm, and the
    # closures are columns of Q, read from one unpadded gather of it
    s = closure_structure(plan)
    dec = s.algebra.block_decomposition()
    inputs = closure_inputs(s, np.random.default_rng(22))
    svd_calls.clear()
    for vectors in inputs.values():
        cyclic_subspace(s, vectors)
        acl(s, vectors)
        closures(s, vectors)
    assert svd_calls == []
    assert [q.shape[1] for q, _ in dec.columns] == [1] and dec.columns[0][0].size == s.dim ** 2


def test_closures_read_n_squared_entries_of_q():
    # (24, 1) + (1, 2) x 8: one gather of Q per block group holds n^2
    # entries in all, where one copy padded to the largest k and m over all
    # blocks held 9 x 2 x 24 x 40 = 17,280
    s = closure_structure("lopsided")
    dec = s.algebra.block_decomposition()
    rng = np.random.default_rng(29)
    v, w = random_unit_vector(rng, s.dim), random_unit_vector(rng, s.dim)
    assert acl(s, [v, w]).isclose(ref_acl(s, [v, w]))
    assert [q.shape for q, _ in dec.columns] == [(8, 2, 1, 40), (1, 1, 24, 40)]
    for copy in (0, 1):
        assert sum(group[copy].size for group in dec.columns) == s.dim ** 2


@pytest.mark.parametrize("plan", sorted(PLANS))
def test_nonforking_extension_computes_each_closure_once(plan, monkeypatch, svd_calls):
    s = random_structure(PLANS[plan])
    rng = np.random.default_rng(13)
    v, e, f = (random_unit_vector(rng, s.dim) for _ in range(3))
    calls = []
    cyclic, rows = starrep.independence.cyclic_subspace, starrep.independence._rows
    monkeypatch.setattr(starrep.independence, "cyclic_subspace",
                        lambda st, vecs: calls.append(("dcl", st, len(vecs))) or cyclic(st, vecs))
    monkeypatch.setattr(starrep.independence, "_rows", lambda st, *sets: calls.append(
        ("rows", st, [len(vecs) for vecs in sets])) or rows(st, *sets))
    solves = count_solves(monkeypatch)
    svd_calls.clear()
    shat, _ = nonforking_extension(s, [v, f], [e], [e, f])
    # the base and the extension set in one stacked solve, taken in s (the
    # extension set's closures padded: shat is never decomposed), then the
    # residuals' dcl
    assert calls == [("rows", s, [1, 2]), ("dcl", s, 2)]
    assert solves == [(2, 2), (2,)]
    assert shat.algebra._block is None
    # one SVD per solve, none for a join and none for the discrete part
    assert len(svd_calls) == 2
    svd_calls.clear()
    nonforking_extension(s, [v, f], [e], [e, f])
    assert len(svd_calls) == 2


@pytest.mark.parametrize("plan", sorted(PLANS))
def test_is_independent_makes_one_solve(plan, monkeypatch, svd_calls):
    # acl(base) and acl(base u extra) from one stacked solve, and one
    # unstacked solve of base u extra alone for an empty base
    s = random_structure(PLANS[plan])
    rng = np.random.default_rng(15)
    v, e, f, g = (random_unit_vector(rng, s.dim) for _ in range(4))
    solves = count_solves(monkeypatch)
    for tup, base, extra, shape in (([v], [e], [f, g], (2, 3)), ([v, f], [e, g], [f], (2, 3)),
                                    ([v], [], [f, g], (2,))):
        solves.clear()
        svd_calls.clear()
        got = is_independent(s, tup, base, extra)
        assert solves == [shape] and len(svd_calls) == 1
        small, big = ref_acl(s, base), ref_acl(s, base + extra)
        want = max(float(np.linalg.norm(project(big, x) - project(small, x))) for x in tup)
        assert got.verdict == s.tol.close(want, 1.0)
        assert abs(got.defect - want) <= 1e-10


def count_solves(monkeypatch):
    """The block-row solves: the shape of the vectors of each
    representation._block_rows call, (t,) for one set of t vectors and
    (P, 1) for the solve of P vectors' dcls, one by one."""
    solves = []
    rows = starrep.representation._block_rows
    for module in (starrep.representation, starrep.independence):
        monkeypatch.setattr(module, "_block_rows", lambda dec, vs, tol: solves.append(
            vs.shape[:-1]) or rows(dec, vs, tol))
    return solves


def refuse_subspaces(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a Subspace was built")

    monkeypatch.setattr(starrep.linalg.Subspace, "__init__", refuse)


@pytest.mark.parametrize("plan", sorted(PLANS))
def test_finite_base_solves_each_pool_closure_once(plan, monkeypatch, svd_calls):
    s = random_structure(PLANS[plan])
    rng = np.random.default_rng(14)
    pool = essential_pool(s, rng)
    solves = count_solves(monkeypatch)
    refuse_subspaces(monkeypatch)
    svd_calls.clear()
    fb = finite_base(s, sum(pool), pool, 1e-9)
    assert len(fb.indices) == len(pool)
    # acl(pool), then dcl(f) of every pool element in one solve; the
    # discrete part's blocks are flagged with no solve; no Subspace anywhere
    assert solves == [(len(pool),), (len(pool), 1)]
    # one SVD per solve; the pool's elements meet no common block, so the
    # loop joins by taking one side's rows, with no SVD (the n-dimensional
    # loop made one per pool element and one per round, 10 and 11 in all)
    assert len(svd_calls) == len(solves)
    assert len(svd_calls) <= {"discrete": 10, "essential": 11}[plan]


@pytest.mark.parametrize("plan", ["full", "diagonal"])
def test_multiplicity_free_finite_base_joins_masks(plan, monkeypatch, svd_calls):
    # acl(pool) and every dcl(f) in one solve each, by norms, and no SVD
    # and no Subspace at all
    s = closure_structure(plan)
    rng = np.random.default_rng(24)
    pool = block_vectors(s, rng)
    pool = pool + [pool[i] + pool[i + 1] for i in range(len(pool) - 1)]
    vs = np.array([sum(pool) + random_unit_vector(rng, s.dim), random_unit_vector(rng, s.dim)])
    want = ref_finite_base(s, vs, pool, 1e-9)[0]
    solves = count_solves(monkeypatch)
    refuse_subspaces(monkeypatch)
    svd_calls.clear()
    assert finite_base(s, vs, pool, 1e-9).indices == want
    assert solves == [(len(pool),), (len(pool), 1)]
    assert svd_calls == []


@pytest.mark.parametrize("plan", ["full", "diagonal"])
def test_multiplicity_free_queries_build_no_subspace(plan, monkeypatch, svd_calls):
    # a closure is a set of Q's columns: is_independent and canonical_base
    # project through it, with no SVD and no Subspace
    s = closure_structure(plan)
    rng = np.random.default_rng(25)
    v, w, e = (random_unit_vector(rng, s.dim) for _ in range(3))
    blocks = block_vectors(s, rng)
    queries = (([v], [], [w]), ([v, w], [e], [e, w]), ([v], [blocks[0]], [blocks[-1]]))
    want = [(is_independent(s, tup, base, extra), canonical_base(s, tup, base))
            for tup, base, extra in queries]
    refuse_subspaces(monkeypatch)
    svd_calls.clear()
    for (rep, cb), (tup, base, extra) in zip(want, queries):
        got = is_independent(s, tup, base, extra)
        assert got.verdict == rep.verdict and got.defect == rep.defect
        np.testing.assert_array_equal(canonical_base(s, tup, base), cb)
    assert svd_calls == []


EDGE_POOLS = {
    "duplicate": lambda pool: pool[:2] + [pool[0], 2 * pool[0]] + pool[2:],
    "zero": lambda pool: pool[:1] + [np.zeros_like(pool[0])] + pool[1:],
    "tiny": lambda pool: [1e-6 * f for f in pool],
    "huge": lambda pool: [1e6 * f for f in pool],
}


@pytest.mark.parametrize("plan", sorted(PLANS))
@pytest.mark.parametrize("edge", sorted(EDGE_POOLS))
def test_finite_base_edge_pools_match_recomputing_route(plan, edge):
    # repeated and zero elements take the skip path; scaled pools check that
    # the increment's cut does not depend on the pool's norms
    s = random_structure(PLANS[plan])
    rng = np.random.default_rng(8)
    base = essential_pool(s, rng)
    vs = np.array([sum(base) + random_unit_vector(rng, s.dim), random_unit_vector(rng, s.dim)])
    pool = EDGE_POOLS[edge](base)
    got = finite_base(s, vs, pool, 1e-9)
    indices, replacements, defect = ref_finite_base(s, vs, pool, 1e-9)
    assert got.indices == indices
    np.testing.assert_allclose(got.replacements, replacements, atol=1e-10)
    assert abs(got.defect - defect) <= 1e-10


def pair_pool(blocks):
    """Vectors of two neighbouring blocks each, so that the joins of
    finite_base meet blocks both sides have rows in (twice the one block's
    vector when there is only one)."""
    return [blocks[i] + blocks[(i + 1) % len(blocks)] for i in range(len(blocks))]


@pytest.mark.parametrize("plan", sorted(CLOSURE_PLANS))
@pytest.mark.parametrize("kind", ["one block", "two blocks"] + sorted(EDGE_POOLS))
def test_finite_base_matches_recomputing_route_on_every_plan(plan, kind):
    # edge pools are made from the two-block pool, so that they join too
    s = closure_structure(plan)
    rng = np.random.default_rng(26)
    blocks = block_vectors(s, rng)
    base = blocks if kind == "one block" else pair_pool(blocks)
    pool = EDGE_POOLS[kind](base) if kind in EDGE_POOLS else base
    vs = np.array([sum(base) + random_unit_vector(rng, s.dim), random_unit_vector(rng, s.dim)])
    for eps in (1e-9, 0.5):
        got = finite_base(s, vs, pool, eps)
        indices, replacements, defect = ref_finite_base(s, vs, pool, eps)
        assert got.indices == indices
        np.testing.assert_allclose(got.replacements, replacements, atol=1e-10)
        assert abs(got.defect - defect) <= 1e-10


def test_finite_base_joins_cut_where_the_n_dimensional_join_cuts():
    # two pool vectors of the (2, 2) class with rows w and w turned by t
    # towards w's complement, t swept across the cut, and v in that
    # complement: after the first pick the second adds a direction only when
    # their join keeps it, as ref_finite_base decides
    s = closure_structure("multiple")
    rng = np.random.default_rng(27)
    w, x = random_unit_vector(rng, 2), random_unit_vector(rng, 2)
    perp = np.array([-w[1].conj(), w[0].conj()])
    cols = class_columns(s).reshape(-1, 4)
    v = cols @ np.outer(x, perp).ravel()
    picks = []
    for t in 2 * s.tol.rank_rel * np.geomspace(0.1, 10.0, 16):
        pool = [cols @ np.outer(x, w).ravel(), cols @ np.outer(x, w + t * perp).ravel()]
        got = finite_base(s, v, pool, 1e-12)
        indices, replacements, defect = ref_finite_base(s, np.array([v]), pool, 1e-12)
        assert got.indices == indices
        np.testing.assert_allclose(got.replacements, replacements[0], atol=1e-10)
        picks.append(len(got.indices))
    assert (picks[0], picks[-1]) == (1, 2)


@pytest.mark.parametrize("solve", ["rows", "join"])
def test_finite_base_checks_its_rows_orthonormal(solve, monkeypatch):
    # block rows from an SVD never become a Subspace in finite_base, so
    # their Gram is checked against I: here the rows of the dcl(f)s, or of
    # the joins alone, come out 1 % too long
    s = closure_structure("multiple")
    blocks = block_vectors(s, np.random.default_rng(28))
    pool = pair_pool(blocks)
    ranges = starrep.linalg.stack_ranges
    if solve == "rows":  # the dcl(f)s alone are solved as a stack of sets
        longer = lambda u, top: u.ndim == 4  # noqa: E731
    else:  # the joins alone are cut at top 1
        longer = lambda u, top: top == 1.0  # noqa: E731
    monkeypatch.setattr(starrep.representation, "stack_ranges", lambda stacks, tol, top=0.0: [
        ((1.01 if longer(u, top) else 1.0) * u, keep) for u, keep in ranges(stacks, tol, top)])
    with pytest.raises(ToleranceBreach, match="block rows are not orthonormal"):
        finite_base(s, sum(pool), pool, 1e-9)


def test_public_closures_breach_on_non_orthonormal_rows(monkeypatch, tmp_path, capsys):
    # the public closures take the queries' one column form, certified by
    # the rows' Gram, so rows 1 % too long are a ToleranceBreach there too,
    # and the dcl and acl subcommands exit 3 (tolerance breach), not 2
    s = random_structure(PLANS["discrete"])
    rng = np.random.default_rng(30)
    v, w = random_unit_vector(rng, s.dim), random_unit_vector(rng, s.dim)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_of(s, {"v": v, "w": w})))
    ranges = starrep.linalg.stack_ranges
    monkeypatch.setattr(starrep.representation, "stack_ranges", lambda stacks, tol, top=0.0: [
        (1.01 * u, keep) for u, keep in ranges(stacks, tol, top)])
    for closure in (cyclic_subspace, acl, closures):
        with pytest.raises(ToleranceBreach, match="block rows are not orthonormal"):
            closure(s, [v, w])
    for command in ("dcl", "acl"):
        assert cli.main([command, str(path), "v,w", "--json"]) == 3
        assert capsys.readouterr().err.startswith("tolerance breach")


# ----- invariance stays checked against the basis --------------------------------

def test_discrete_invariance_is_checked_against_the_algebra_basis():
    # I + 1e-7 E12 generates M_2, under which span{e1} is not invariant; the
    # letters themselves move e1 by only 1e-7 / sqrt(2) of their norm, under
    # the certificate, so a check on the letters alone would accept it
    e12 = np.zeros((2, 2), dtype=complex)
    e12[0, 1] = 1
    algebra = generate_algebra([np.eye(2) + 1e-7 * e12])
    assert algebra.size == 4
    disc = orthonormalize([E1], 2)
    assert algebra.tol.certified(invariance_defect(algebra.letters(), disc.basis), 1.0)
    with pytest.raises(ValueError, match="not invariant"):
        Structure(algebra, discrete=disc)

import numpy as np
import pytest

import starrep.independence
from starrep.algebra import StarAlgebra, generate_algebra, span_algebra
from starrep.harness import InstanceSpec, random_structure, random_unit_vector
from starrep.independence import (
    canonical_base,
    descriptor_distance,
    descriptors_close,
    finite_base,
    is_independent,
    morley_average_check,
    nonforking_extension,
    spanning_word_length,
    type_of,
)
from starrep.linalg import ToleranceBreach, full_subspace, haar_unitary, orthonormalize, project
from starrep.representation import Structure, acl, cyclic_subspace

from conftest import E1, E2, U

E11 = np.diag([1.0, 0.0]).astype(complex)
E22 = np.diag([0.0, 1.0]).astype(complex)


def state_on(descriptor, algebra, element):
    """Evaluate the residual moment data on an arbitrary algebra element."""
    coeffs = algebra.coefficients(element)
    return np.einsum("d,djk->jk", coeffs, descriptor.moment_tensor)


@pytest.mark.parametrize("k", [14, 16])
def test_spanning_word_length_of_one_generator(k):
    # k distinct eigenvalues: the powers up to k - 1 are needed
    q = haar_unitary(k, np.random.default_rng(k))
    a = generate_algebra([q @ np.diag(np.arange(1.0, k + 1)) @ q.conj().T])
    assert a.size == k
    assert spanning_word_length(Structure(a)) == k - 1
    # generators that span less than the algebra
    diag3 = span_algebra([np.diag(e) for e in np.eye(3)], 3,
                         generators=[np.diag([1.0, 0.0, 0.0])])
    with pytest.raises(RuntimeError):
        spanning_word_length(Structure(diag3))


def test_independence_examples(diag_structure):
    s = diag_structure
    rep = is_independent(s, E1, [], [E2])
    assert rep.verdict and rep.defect <= 1e-12
    rep = is_independent(s, U, [], [E1])
    assert not rep.verdict
    # oracle: P_{span e1} u = e1 / sqrt(2), P_{acl({})} u = 0
    np.testing.assert_allclose(rep.defect, 1 / np.sqrt(2), atol=1e-12)
    p1, p2 = rep.witnesses[0]
    np.testing.assert_allclose(p2, [1 / np.sqrt(2), 0], atol=1e-12)
    # anything already inside acl(E) is independent from everything
    rep = is_independent(s, E1, [E1], [E2, U])
    assert rep.verdict


def test_report_verdict_threshold(diag_structure):
    rep = is_independent(diag_structure, U, [], [E1])
    assert rep.verdict == (rep.defect <= diag_structure.tol.eq_abs)


def test_independence_matches_residual_subspace_oracle():
    # independent from {w} over E iff the residual cyclic subspaces are
    # orthogonal; recomputed here from raw projector arithmetic
    spec = InstanceSpec(6, ((2, 2), (1, 2)), (False, True), seed=9)
    s = random_structure(spec)
    rng = np.random.default_rng(42)
    for _ in range(20):
        v = random_unit_vector(rng, 6)
        w = random_unit_vector(rng, 6)
        e = [random_unit_vector(rng, 6) for _ in range(int(rng.integers(0, 2)))]
        verdict = is_independent(s, v, e, [w]).verdict

        cl = acl(s, e)
        pc = cl.basis @ cl.basis.conj().T
        rv = v - pc @ v
        rw = w - pc @ w
        orb_v = np.array([b @ rv for b in s.algebra.basis])
        orb_w = np.array([b @ rw for b in s.algebra.basis])
        overlap = np.abs(orb_v.conj() @ orb_w.T).max()
        assert verdict == (overlap <= 1e-8)


def test_type_of_examples(diag_structure):
    s = diag_structure
    d = type_of(s, E1, [])
    # phi_{e1} takes value 1 on E11 and 0 on E22
    m = state_on(d, s.algebra, E11)
    np.testing.assert_allclose(m, [[1.0]], atol=1e-12)
    np.testing.assert_allclose(state_on(d, s.algebra, E22), [[0.0]], atol=1e-12)
    d2 = type_of(s, E2, [])
    assert descriptor_distance(d, d2) > 0.5
    assert not descriptors_close(d, d2)

    # base = full space: residual moments vanish, projections return the tuple
    d3 = type_of(s, np.array([U]), [E1, E2])
    np.testing.assert_allclose(d3.base_projections, [U], atol=1e-12)
    np.testing.assert_allclose(d3.moment_tensor, 0, atol=1e-12)


def test_type_equality_under_unitary_phase(diag_structure):
    d1 = type_of(diag_structure, U, [])
    d2 = type_of(diag_structure, np.exp(0.7j) * U, [])
    assert descriptors_close(d1, d2)


def test_moment_tensor_identity_is_residual_gram(diag_structure):
    s = diag_structure
    tup = np.array([U, E1])
    d = type_of(s, tup, [E2])
    res = tup - d.base_projections
    gram = state_on(d, s.algebra, np.eye(2, dtype=complex))
    np.testing.assert_allclose(gram, res @ res.conj().T, atol=1e-12)
    np.testing.assert_allclose(gram, gram.conj().T, atol=1e-12)
    assert np.linalg.eigvalsh(gram)[0] >= -1e-12
    # base projections lie in the base's cyclic subspace
    he = cyclic_subspace(s, [E2])
    for p in d.base_projections:
        np.testing.assert_allclose(project(he, p), p, atol=1e-12)


def test_nonforking_extension_trivial_cases(diag_structure):
    s = diag_structure
    # residual zero: the new summand is empty and v' = v
    shat, vprime = nonforking_extension(s, E1, [E1], [E1, E2])
    assert shat.dim == 2
    np.testing.assert_allclose(vprime, E1, atol=1e-12)
    # purely discrete structure: nothing moves
    s_disc = Structure(s.algebra, discrete=full_subspace(2), vectors=s.vectors)
    shat, vprime = nonforking_extension(s_disc, U, [], [E1])
    assert shat.dim == 2
    np.testing.assert_allclose(vprime, U, atol=1e-12)


def test_nonforking_extension_fresh_copy(diag_structure):
    s = diag_structure
    shat, vprime = nonforking_extension(s, E1, [], [E1])
    assert shat.dim == 3
    emb_e1 = np.concatenate([E1, [0]])
    assert abs(np.vdot(emb_e1, vprime)) < 1e-12
    assert abs(np.linalg.norm(vprime) - 1) < 1e-12
    # both defining conditions were verified inside; re-check the projection one
    f_emb = [emb_e1]
    got = project(acl(shat, f_emb), vprime)
    np.testing.assert_allclose(got, 0, atol=1e-10)


def test_nonforking_requires_nested_bases(diag_structure):
    with pytest.raises(ValueError):
        nonforking_extension(diag_structure, U, [E1], [E2])


def test_nonforking_tuple_joint_construction(diag_structure):
    s = diag_structure
    tup = np.array([E1, U])
    shat, out = nonforking_extension(s, tup, [], [E2])
    assert out.shape[0] == 2
    # joint moments against the original tuple, over the empty base
    d_old = type_of(s, tup, [])
    d_new = type_of(shat, out, [np.concatenate([E2, np.zeros(shat.dim - 2)])])
    assert descriptor_distance(d_old, d_new) <= 1e-8


def test_stationarity_across_seeds(diag_structure):
    s = diag_structure
    descs = []
    for seed in (5, 1234):
        shat, vp = nonforking_extension(s, U, [], [E1], seed=seed)
        k = shat.dim - s.dim
        f_emb = [np.concatenate([E1, np.zeros(k)])]
        res = np.atleast_2d(vp - project(acl(shat, f_emb), vp))
        descs.append(type_of(shat, res, f_emb))
        np.testing.assert_allclose(vp[:2], project(acl(s, []), U), atol=1e-10)
    assert descriptor_distance(descs[0], descs[1]) <= 1e-8


def test_descriptor_distance_sees_perturbed_extension(diag_structure):
    s = diag_structure
    shat, vp = nonforking_extension(s, U, [], [E1])
    f_emb = [np.concatenate([E1, np.zeros(shat.dim - 2)])]
    res = np.atleast_2d(vp - project(acl(shat, f_emb), vp))
    parent = type_of(s, U, [])
    assert descriptor_distance(parent, type_of(shat, res, f_emb)) <= 1e-8
    # move the residual inside the new summand
    res[0, s.dim] += 1e-2
    assert descriptor_distance(parent, type_of(shat, res, f_emb)) > 1e-6


def test_descriptor_distance_through_chained_extensions():
    s = random_structure(InstanceSpec(6, ((2, 2), (1, 2)), (False, True), seed=9))
    rng = np.random.default_rng(7)
    v = random_unit_vector(rng, 6)
    root = type_of(s, v, [])
    s1, v1 = nonforking_extension(s, v, [], [])
    s2, v2 = nonforking_extension(s1, v1, [], [])
    assert s2.dim > s1.dim > s.dim and s2.origin is s.algebra
    assert descriptor_distance(root, type_of(s2, v2, [])) <= 1e-8
    assert descriptor_distance(type_of(s1, v1, []), type_of(s2, v2, [])) <= 1e-8


def test_descriptor_distance_rejects_unrelated_algebras(diag_structure):
    # an algebra generated again from the same generators has an equal basis
    again = Structure(generate_algebra([np.diag([1.0, 0.0])]))
    assert descriptor_distance(type_of(diag_structure, U, []), type_of(again, U, [])) <= 1e-12
    # the diagonal algebra of another orthonormal basis has the same size
    other = Structure(generate_algebra([np.outer(U, U)]))
    assert other.algebra.size == diag_structure.algebra.size
    with pytest.raises(ValueError):
        descriptor_distance(type_of(diag_structure, U, []), type_of(other, U, []))



def test_descriptor_distance_ignores_the_choice_of_orthonormal_basis():
    s = random_structure(InstanceSpec(9, ((1, 2), (2, 2), (3, 1)), (False,) * 3, seed=17))
    rng = np.random.default_rng(17)
    # the same algebra, its orthonormal basis rotated by a Haar unitary
    u = haar_unitary(s.algebra.size, rng)
    rotated = Structure(StarAlgebra(s.dim, np.einsum("kl,lab->kab", u, s.algebra.basis)))
    assert rotated.algebra.spans_equal(s.algebra)
    for _ in range(3):
        v, w = random_unit_vector(rng, 9), random_unit_vector(rng, 9)
        here = descriptor_distance(type_of(s, v, []), type_of(s, w, []))
        there = descriptor_distance(type_of(rotated, v, []), type_of(rotated, w, []))
        assert here > 1e-2
        assert abs(here - there) <= 1e-12

def test_canonical_base_examples(diag_structure):
    s = diag_structure
    np.testing.assert_allclose(canonical_base(s, U, [E1]), [1 / np.sqrt(2), 0],
                               atol=1e-12)
    np.testing.assert_allclose(canonical_base(s, U, [E1, E2]), U, atol=1e-12)
    np.testing.assert_allclose(canonical_base(s, E2, [E1]), 0, atol=1e-12)
    tup = canonical_base(s, np.array([E1, E2]), [])
    np.testing.assert_allclose(tup, 0, atol=1e-12)


def test_morley_average_law(diag_structure):
    s = diag_structure
    for k in (1, 4, 16, 64):
        mc = morley_average_check(s, U, [E1], k)
        assert abs(mc.distance - mc.residual_norm / np.sqrt(k)) <= 1e-10
    mc = morley_average_check(s, E1, [E1], 4)
    assert mc.distance <= 1e-12  # residual zero
    with pytest.raises(ValueError):
        morley_average_check(s, U, [], 0)


def test_morley_matches_iterated_extensions(diag_structure):
    s = diag_structure
    base = [E1]
    mc = morley_average_check(s, U, base, 3)
    # build the same three copies through successive non-forking extensions;
    # base vectors are re-embedded into each grown structure
    cur = s
    copies = []
    for _ in range(3):
        pad = cur.dim - 2
        v_emb = np.concatenate([U, np.zeros(pad)])
        b_emb = ([np.concatenate([E1, np.zeros(pad)])]
                 + [np.concatenate([c, np.zeros(cur.dim - c.size)]) for c in copies])
        cur, w = nonforking_extension(cur, v_emb, b_emb, b_emb)
        copies.append(w)
    full = np.array([np.concatenate([c, np.zeros(cur.dim - c.size)]) for c in copies])
    avg = full.mean(axis=0)
    lim = np.concatenate([project(acl(s, base), U), np.zeros(cur.dim - 2)])
    assert abs(np.linalg.norm(avg - lim) - mc.distance) <= 1e-9


def test_morley_rejects_non_invariant_residual_subspace(diag_structure, monkeypatch):
    # span{u} contains the residual u but is not invariant under diag(1, 0)
    monkeypatch.setattr(starrep.independence, "cyclic_subspace",
                        lambda s, vecs: orthonormalize(list(vecs), s.dim, s.tol))
    with pytest.raises(ToleranceBreach):
        morley_average_check(diag_structure, U, [], 2)


def test_finite_base_examples(diag_structure):
    s = diag_structure
    fb = finite_base(s, U, [E1, E2], 1e-6)
    assert fb.indices == [0, 1]
    np.testing.assert_allclose(fb.replacements, U, atol=1e-9)
    assert is_independent(s, fb.replacements, fb.subset, [E1, E2]).verdict

    fb = finite_base(s, U, [E1, E2], 10.0)
    assert fb.indices == []
    # with H_d = 0 the replacement collapses to the discrete part: zero
    np.testing.assert_allclose(fb.replacements, 0, atol=1e-12)

    fb = finite_base(s, U, [], 1e-6)
    assert fb.indices == [] and np.allclose(fb.replacements, U)

    with pytest.raises(ValueError):
        finite_base(s, U, [E1], 0.0)


def test_finite_base_single_orbit_capture(diag_structure):
    s = diag_structure
    # v = pi(a) f for a single pool element f: one greedy step captures it
    f = U
    v = s.algebra.generators[0] @ f
    pool = [E2, f]
    fb = finite_base(s, v, pool, 1e-9)
    assert fb.indices == [1]
    np.testing.assert_allclose(fb.replacements, v, atol=1e-9)


def test_freeness_axioms_on_hand_case(diag_structure):
    s = diag_structure
    # symmetry on the hand values
    assert is_independent(s, E1, [], [E2]).verdict == is_independent(s, E2, [], [E1]).verdict
    assert is_independent(s, U, [], [E1]).verdict == is_independent(s, E1, [], [U]).verdict
    # transitivity chain E = {} subset F = {e1} subset G = {e1, e2}
    lhs = is_independent(s, U, [], [E1, E2]).verdict
    rhs = (is_independent(s, U, [], [E1]).verdict
           and is_independent(s, U, [E1], [E2]).verdict)
    assert lhs == rhs

import numpy as np
import pytest

from starrep.algebra import generate_algebra
from starrep.harness import InstanceSpec, random_structure, random_unit_vector
from starrep.linalg import Tolerances, full_subspace, orthonormalize, subspace_sum, zero_subspace
from starrep.representation import (
    Structure,
    acl,
    cyclic_subspace,
    cyclic_substructure,
    direct_sum,
    essential_discrete_parts,
    extend_with_summand,
)

from conftest import E1, E2, U


def test_cyclic_subspace_examples(diag_structure, m2_structure):
    assert cyclic_subspace(diag_structure, []).dim == 0
    sub = cyclic_subspace(diag_structure, [E1])
    assert sub.dim == 1
    np.testing.assert_allclose(sub.basis @ sub.basis.conj().T, np.diag([1.0, 0.0]),
                               atol=1e-12)
    v = np.array([0.3, 0.2 - 1j])
    assert cyclic_subspace(m2_structure, [v]).dim == 2


def test_cyclic_subspace_dimension_mismatch(diag_structure):
    with pytest.raises(ValueError):
        cyclic_subspace(diag_structure, [np.ones(3)])


def test_acl_examples(diag_structure, diag_discrete_structure):
    assert acl(diag_structure, []).dim == 0
    hd = acl(diag_discrete_structure, [])
    assert hd.dim == 1
    np.testing.assert_allclose(hd.basis @ hd.basis.conj().T, np.diag([0.0, 1.0]),
                               atol=1e-12)
    assert acl(diag_discrete_structure, [E1]).dim == 2


def test_closure_properties_random():
    spec = InstanceSpec(7, ((1, 2), (2, 2), (1, 1)), (True, False, False), seed=5)
    s = random_structure(spec)
    rng = np.random.default_rng(0)
    for _ in range(10):
        e = [random_unit_vector(rng, 7) for _ in range(2)]
        f = e + [random_unit_vector(rng, 7)]
        small = cyclic_subspace(s, e)
        big = cyclic_subspace(s, f)
        # monotone
        assert np.linalg.norm(big.basis @ (big.basis.conj().T @ small.basis)
                              - small.basis) < 1e-9
        # idempotent
        again = cyclic_subspace(s, list(small.basis.T))
        assert again.isclose(small)
        # algebra invariant
        for a in s.algebra.basis:
            img = a @ small.basis
            resid = img - small.basis @ (small.basis.conj().T @ img)
            assert np.linalg.norm(resid) <= 1e-8 * max(1, np.linalg.norm(img))
        aa = acl(s, e)
        assert acl(s, list(aa.basis.T)).isclose(aa)


def test_essential_discrete_parts(diag_discrete_structure):
    s = diag_discrete_structure
    v_e, v_d = essential_discrete_parts(s, U)
    np.testing.assert_allclose(v_e, [1 / np.sqrt(2), 0], atol=1e-12)
    np.testing.assert_allclose(v_d, [0, 1 / np.sqrt(2)], atol=1e-12)
    np.testing.assert_allclose(v_e + v_d, U, atol=1e-15)
    # Pythagoras
    assert abs(np.linalg.norm(U) ** 2
               - np.linalg.norm(v_e) ** 2 - np.linalg.norm(v_d) ** 2) < 1e-12


def test_essential_discrete_trivial_cases(diag_structure):
    v_e, v_d = essential_discrete_parts(diag_structure, U)
    np.testing.assert_allclose(v_e, U)
    np.testing.assert_allclose(v_d, 0, atol=1e-15)
    s_full = Structure(diag_structure.algebra, discrete=full_subspace(2))
    v_e, v_d = essential_discrete_parts(s_full, U)
    np.testing.assert_allclose(v_d, U)
    np.testing.assert_allclose(v_e, 0, atol=1e-15)


def test_direct_sum_with_trivial_summand(diag_structure):
    zero = cyclic_substructure(diag_structure, np.zeros(2))
    s = direct_sum(diag_structure, zero)
    assert s.dim == 2
    assert s.algebra.spans_equal(diag_structure.algebra)


def test_direct_sum_diag_with_itself(diag_structure):
    s = direct_sum(diag_structure, diag_structure)
    assert s.dim == 4
    assert s.algebra.size == 2  # still the abstract diagonal algebra, acting in pairs
    ea = s.vector("a.e1")
    eb = s.vector("b.e1")
    assert abs(np.vdot(ea, eb)) < 1e-15
    # embedded copies of the second summand are orthogonal to the first block
    assert np.linalg.norm(eb[:2]) == 0


def test_direct_sum_generator_count_mismatch(diag_structure, m2_structure):
    two_gen = Structure(generate_algebra([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]))
    with pytest.raises(ValueError):
        direct_sum(diag_structure, two_gen)


def test_direct_sum_preserves_moments(diag_structure, m2_structure):
    import itertools
    for base in (diag_structure, m2_structure):
        s = direct_sum(base, base)
        gens = base.algebra.generators
        gens_sum = s.algebra.generators
        v = base.vector("u")
        vemb = s.vector("a.u")
        for length in range(4):
            for word in itertools.product(range(len(gens)), repeat=length):
                m1 = np.eye(2, dtype=complex)
                m2 = np.eye(4, dtype=complex)
                for i in word:
                    m1 = gens[i] @ m1
                    m2 = gens_sum[i] @ m2
                assert abs(np.vdot(v, m1 @ v) - np.vdot(vemb, m2 @ vemb)) < 1e-12


def test_direct_sum_discrete_parts(diag_discrete_structure):
    s = direct_sum(diag_discrete_structure, diag_discrete_structure)
    assert s.discrete.dim == 2
    p = s.discrete.basis @ s.discrete.basis.conj().T
    np.testing.assert_allclose(np.diag(p).real, [0, 1, 0, 1], atol=1e-12)


def test_cyclic_substructure_examples(diag_structure, m2_structure):
    sub = cyclic_substructure(m2_structure, E1)
    assert sub.dim == 2
    assert sub.algebra.size == 4
    sub_d = cyclic_substructure(diag_structure, E1)
    assert sub_d.dim == 1
    assert sub_d.algebra.size == 1
    trivial = cyclic_substructure(diag_structure, np.zeros(2))
    assert trivial.is_trivial


def test_cyclic_substructure_discrete_intersection(diag_discrete_structure):
    # H_v for v = u is the full space; its discrete part is span{e2}, compressed
    sub = cyclic_substructure(diag_discrete_structure, U)
    assert sub.dim == 2
    assert sub.discrete.dim == 1
    emb = sub.embedding
    back = emb @ sub.discrete.basis
    np.testing.assert_allclose(back @ back.conj().T, np.diag([0.0, 1.0]), atol=1e-10)


def test_fast_extension_matches_direct_sum(diag_structure):
    sub = cyclic_substructure(diag_structure, E1)
    fast = extend_with_summand(diag_structure, sub.embedding)
    slow = direct_sum(diag_structure, sub)
    assert fast.dim == slow.dim
    assert fast.algebra.spans_equal(slow.algebra)


def test_essential_and_discrete_parts_span_the_space(diag_discrete_structure):
    plan = InstanceSpec(6, ((1, 2), (2, 1), (1, 2)), (True, False, True), seed=3)
    mixed = random_structure(plan)
    for s in (diag_discrete_structure, mixed):
        ess = s.essential()
        assert ess.dim + s.discrete.dim == s.dim
        assert subspace_sum(ess, s.discrete).isclose(full_subspace(s.dim))


def test_extension_rejects_a_summand_that_is_not_invariant(diag_structure):
    # span{(e1 + e2)/sqrt 2} is not invariant under diag(1, 0)
    with pytest.raises(ValueError, match="not invariant"):
        extend_with_summand(diag_structure, (E1 + E2)[:, None] / np.sqrt(2))
    with pytest.raises(ValueError, match="not orthonormal"):
        extend_with_summand(diag_structure, 2 * E1[:, None])


def test_structure_validation_errors(diag_structure):
    algebra = diag_structure.algebra
    with pytest.raises(ValueError):
        # span{(1,1)} is not invariant under diag(1,0)
        Structure(algebra, discrete=orthonormalize([U], 2))
    with pytest.raises(ValueError):
        Structure(algebra, vectors={"bad": np.ones(3)})
    with pytest.raises(ValueError):
        Structure(algebra, discrete=zero_subspace(3))


def test_discrete_invariance_bound_follows_tolerance(diag_structure):
    # span{e2} tilted by 1e-5 is invariant only up to a residual of about 1.4e-5
    tilted = orthonormalize([E2 + 1e-5 * E1], 2)
    with pytest.raises(ValueError):
        Structure(diag_structure.algebra, discrete=tilted)
    loose = generate_algebra(diag_structure.algebra.generators, tol=Tolerances(eq_abs=1e-6))
    s = Structure(loose, discrete=tilted)
    assert s.discrete.dim == 1

import numpy as np
import pytest

from starrep.algebra import (
    DecompositionError,
    commutant,
    conditional_expectation,
    double_commutant_check,
    generate_algebra,
    span_algebra,
    wedderburn_decompose,
)
from starrep.harness import InstanceSpec, random_structure
from starrep.linalg import ToleranceBreach, Tolerances, block_diag, haar_unitary

E11 = np.diag([1.0, 0.0]).astype(complex)
E12 = np.array([[0, 1], [0, 0]], dtype=complex)


def span_matches(algebra, mats):
    """Oracle span comparison against an explicit list of matrices."""
    if algebra.size != len(mats):
        return False
    return all(algebra.contains(m) for m in mats)


def test_generate_scalar_algebra():
    alg = generate_algebra([], dim=2)
    assert alg.size == 1
    assert span_matches(alg, [np.eye(2)])


def test_generate_diagonal_algebra():
    alg = generate_algebra([E11])
    # oracle closure by hand: diag(1,0) and I already multiply and adjoint
    # into their own span, so the algebra is {diag(a, b)}
    assert alg.size == 2
    assert span_matches(alg, [E11, np.diag([0.0, 1.0])])


def test_generate_full_m2_from_nilpotent():
    alg = generate_algebra([E12])
    # oracle: E12, E12^H = E21, E12 E21 = E11, E21 E12 = E22 span M_2
    assert alg.size == 4
    for m in (E12, E12.conj().T, E11, np.diag([0.0, 1.0])):
        assert alg.contains(m)


def test_generate_idempotent():
    alg = generate_algebra([E12])
    again = generate_algebra(list(alg.basis))
    assert alg.spans_equal(again)


def test_generate_errors():
    with pytest.raises(ValueError):
        generate_algebra([np.eye(2), np.eye(3)])
    with pytest.raises(ValueError):
        generate_algebra([np.array([[np.nan, 0], [0, 1]])])
    with pytest.raises(ValueError):
        generate_algebra([])


@pytest.mark.parametrize("n, seed", [(10, 25), (16, 3)])
def test_generate_one_generator_with_close_eigenvalues(n, seed):
    # smallest eigenvalue gaps 3.5e-3 (n = 10) and 6.8e-3 (n = 16): the
    # algebra is the n diagonal matrices in the generator's eigenbasis
    rng = np.random.default_rng(seed)
    u = haar_unitary(n, rng)
    g = u @ np.diag(rng.standard_normal(n)) @ u.conj().T
    alg = generate_algebra([g])
    assert alg.size == n
    assert alg.contains(g @ g) and alg.commutant().size == n


def test_generate_rejects_commutant_that_fails_the_letters(monkeypatch):
    from starrep import algebra as algebra_module
    solve = algebra_module._commutant_basis

    def with_extra_projector(letters, n, tol, rng):
        # span{I, E11} is a *-algebra, so only the block form of E12 exposes it
        return np.concatenate([solve(letters, n, tol, rng), np.sqrt(n) * E11[None]])

    assert generate_algebra([E12]).size == 4
    monkeypatch.setattr(algebra_module, "_commutant_basis", with_extra_projector)
    with pytest.raises(DecompositionError):
        generate_algebra([E12])


def test_span_algebra_rejects_span_not_closed_under_products():
    e = np.eye(3)
    def unit(i, j):
        return np.outer(e[i], e[j])
    # contains I and is adjoint-closed, but (E23 + E32) E22 = E32 is outside
    mats = [unit(0, 0), unit(1, 1) + unit(2, 2), unit(1, 2) + unit(2, 1), unit(1, 1) - unit(2, 2)]
    with pytest.raises(ValueError, match="products"):
        span_algebra(mats, 3)


def test_commutant_examples():
    scalar = generate_algebra([], dim=3)
    assert commutant(scalar).size == 9
    assert commutant(span_algebra([], 0)).size == 0
    m2 = generate_algebra([E12])
    assert commutant(m2).size == 1
    diag = generate_algebra([E11])
    cd = commutant(diag)
    assert cd.size == 2
    # oracle: solving XB = BX entrywise for B = diag(1,0) forces X diagonal
    assert span_matches(cd, [E11, np.diag([0.0, 1.0])])


def test_commutant_from_generators_matches_basis_route():
    rng = np.random.default_rng(7)
    q = haar_unitary(5, rng)
    def gen():
        h2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h2 = h2 + h2.conj().T
        h1 = rng.standard_normal((1, 1))
        return q @ block_diag(h1 + h1.T, np.kron(h2, np.eye(2))) @ q.conj().T
    alg = generate_algebra([gen(), gen()])
    from starrep.algebra import StarAlgebra
    no_gens = StarAlgebra(alg.dim, alg.basis, generators=None, tol=alg.tol)
    assert commutant(alg).spans_equal(commutant(no_gens))


def test_double_commutant_check():
    for alg in (generate_algebra([E11]), generate_algebra([E12]),
                generate_algebra([], dim=4)):
        assert double_commutant_check(alg)


def test_dimension_formulas_on_block_algebra():
    rng = np.random.default_rng(3)
    q = haar_unitary(5, rng)
    def gen():
        h2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h1 = rng.standard_normal((1, 1))
        return q @ block_diag(h1 + h1.T, np.kron(h2 + h2.conj().T, np.eye(2))) @ q.conj().T
    alg = generate_algebra([gen(), gen()])
    # blocks (1,1) and (2,2): dim(A) = 1 + 4, dim(A') = 1 + 4
    assert alg.size == 5
    assert commutant(alg).size == 5


def test_wedderburn_examples():
    assert wedderburn_decompose(generate_algebra([], dim=3), 0).blocks == [(1, 3)]
    assert wedderburn_decompose(generate_algebra([E11]), 0).blocks == [(1, 1), (1, 1)]
    assert wedderburn_decompose(generate_algebra([E12]), 0).blocks == [(2, 1)]


def planted_algebra(plan, seed):
    """Algebra of Q (+)(M_k (x) I_m) Q^H from the harness's planted generator."""
    n = sum(k * m for k, m in plan)
    spec = InstanceSpec(n, tuple(plan), (False,) * len(plan), seed=seed)
    return random_structure(spec).algebra


def test_wedderburn_block_form_and_seed_independence():
    rng = np.random.default_rng(11)
    q = haar_unitary(6, rng)
    def gen():
        h2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h1 = rng.standard_normal((1, 1))
        return q @ block_diag(h1 + h1.T, np.kron(h2 + h2.conj().T, np.eye(2)),
                              np.zeros((1, 1))) @ q.conj().T
    cases = [(generate_algebra([gen(), gen()]), None)]
    # planted plans with m >= 2 isomorphic copies
    for plan in ([(1, 3), (2, 2)], [(2, 3)], [(1, 4), (3, 2)], [(2, 2), (2, 2)]):
        cases.append((planted_algebra(plan, 5), sorted(plan)))
    for alg, expected in cases:
        signatures = set()
        for seed in range(5):
            dec = wedderburn_decompose(alg, seed)
            signatures.add(dec.signature)
            qmat = dec.change_of_basis
            np.testing.assert_allclose(qmat.conj().T @ qmat, np.eye(alg.dim), atol=1e-9)
            stacked = dec.block_parts(alg.basis, check=True)
            for j, b in enumerate(alg.basis):
                parts = dec.block_parts(b, check=True)  # raises on bad block form
                for part, parts_j in zip(parts, stacked):
                    np.testing.assert_allclose(parts_j[j], part, atol=1e-12)
                rebuilt = dec.assemble(parts)
                np.testing.assert_allclose(rebuilt, b, atol=1e-8 * max(1, np.linalg.norm(b)))
        assert len(signatures) == 1
        if expected is not None:
            assert sorted(signatures.pop()) == expected


def test_block_parts_membership_bound_follows_tolerance():
    m = E11 + 1e-7 * E12
    # the bound is 100 * eq_abs relative to the norm: 1e-6 by default
    generate_algebra([E11]).block_decomposition().block_parts(m)
    tight = generate_algebra([E11], tol=Tolerances(eq_abs=1e-10))
    with pytest.raises(ToleranceBreach):
        tight.block_decomposition().block_parts(m)


def test_wedderburn_rejects_merged_eigenvalue_clusters(monkeypatch):
    from starrep import algebra as algebra_module
    cluster = algebra_module._cluster_eigenvalues

    def merge_first_two(w):
        clusters = cluster(w)
        if len(clusters) < 2:
            return clusters
        return [slice(clusters[0].start, clusters[1].stop)] + clusters[2:]

    alg = planted_algebra([(1, 2), (2, 1)], 3)
    assert wedderburn_decompose(alg, 0).blocks == [(1, 2), (2, 1)]
    monkeypatch.setattr(algebra_module, "_cluster_eigenvalues", merge_first_two)
    # merged pieces still give a valid block form; only the dimension counts catch them
    with pytest.raises(DecompositionError):
        wedderburn_decompose(alg, 0)
    # generation splits its fresh commutant the same way: merging the two
    # pieces of diag(a, b) would otherwise return all of M_2, which holds E11
    with pytest.raises(DecompositionError):
        generate_algebra([E11])


def test_conditional_expectation_examples():
    diag = generate_algebra([E11])
    x = diag.from_coefficients(np.array([0.3, -1.2j]))
    np.testing.assert_allclose(conditional_expectation(x, diag), x, atol=1e-12)
    np.testing.assert_allclose(conditional_expectation(E12, diag), 0, atol=1e-12)
    u = np.array([1, 1], dtype=complex) / np.sqrt(2)
    got = conditional_expectation(np.outer(u, u.conj()), diag)
    # oracle: diagonal extraction of uu^H
    np.testing.assert_allclose(got, np.diag([0.5, 0.5]), atol=1e-12)


def test_conditional_expectation_properties(rng):
    diag = generate_algebra([E11])
    m2 = generate_algebra([E12])
    scalar = generate_algebra([], dim=3)
    algebras = [diag, m2, scalar]
    eye_ce = conditional_expectation(np.eye(3), scalar)
    np.testing.assert_allclose(eye_ce, np.eye(3), atol=1e-12)
    for _ in range(500):
        alg = algebras[int(rng.integers(len(algebras)))]
        n = alg.dim
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        psd = m @ m.conj().T
        out = conditional_expectation(psd, alg)
        again = conditional_expectation(out, alg)
        np.testing.assert_allclose(again, out, atol=1e-9)
        assert np.linalg.eigvalsh((out + out.conj().T) / 2)[0] >= -1e-9


def test_conditional_expectation_size_mismatch():
    with pytest.raises(ValueError):
        conditional_expectation(np.eye(3), generate_algebra([E11]))


def test_contains_and_coefficients_roundtrip(rng):
    alg = generate_algebra([E12])
    c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    m = alg.from_coefficients(c)
    np.testing.assert_allclose(alg.coefficients(m), c, atol=1e-12)
    assert alg.contains(m)

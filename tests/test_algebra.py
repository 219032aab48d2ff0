import numpy as np
import pytest

from starrep.algebra import (
    DecompositionError,
    commutant,
    conditional_expectation,
    double_commutant_check,
    generate_algebra,
    wedderburn_decompose,
)
from starrep.harness import InstanceSpec, random_structure
from starrep.linalg import block_diag, haar_unitary

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


def test_commutant_examples():
    scalar = generate_algebra([], dim=3)
    assert commutant(scalar).size == 9
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
            for b in alg.basis:
                parts = dec.block_parts(b, check=True)  # raises on bad block form
                rebuilt = dec.assemble(parts)
                np.testing.assert_allclose(rebuilt, b, atol=1e-8 * max(1, np.linalg.norm(b)))
        assert len(signatures) == 1
        if expected is not None:
            assert sorted(signatures.pop()) == expected


def test_wedderburn_rejects_merged_eigenvalue_clusters(monkeypatch):
    from starrep import algebra as algebra_module
    cluster = algebra_module._cluster_eigenvalues

    def merge_first_two(w, tol):
        clusters = cluster(w, tol)
        if len(clusters) < 2:
            return clusters
        return [slice(clusters[0].start, clusters[1].stop)] + clusters[2:]

    alg = planted_algebra([(1, 2), (2, 1)], 3)
    assert wedderburn_decompose(alg, 0).blocks == [(1, 2), (2, 1)]
    monkeypatch.setattr(algebra_module, "_cluster_eigenvalues", merge_first_two)
    # merged pieces still give a valid block form; only sum k^2 == dim A catches them
    with pytest.raises(DecompositionError):
        wedderburn_decompose(alg, 0)


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

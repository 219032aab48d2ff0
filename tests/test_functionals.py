import numpy as np
import pytest

from starrep import functionals
from starrep.algebra import conditional_expectation, generate_algebra
from starrep.functionals import (
    PositiveFunctional,
    difference_norm,
    embeds_as_subrepresentation,
    functional_norm,
    gns,
    gns_intertwiner,
    is_dominated,
    is_orthogonal,
    orthogonality_witness,
    radon_nikodym_operator,
    types_dominated,
    types_orthogonal,
    vector_state,
)
from starrep.harness import (
    InstanceSpec,
    commuting_unitary,
    disjoint_state_pair,
    overlapping_state_pair,
    random_in_algebra_state,
    random_structure,
    random_unit_vector,
)
from starrep.independence import nonforking_extension
from starrep.linalg import Subspace, ToleranceBreach, haar_unitary, psd_sqrt
from starrep.representation import Structure, cyclic_subspace

from conftest import E1, E2, U

E11 = np.diag([1.0, 0.0]).astype(complex)
E22 = np.diag([0.0, 1.0]).astype(complex)


def test_vector_state_examples(diag_structure, m2_structure):
    s = diag_structure
    zero = vector_state(s, np.zeros(2))
    assert zero.norm() == 0
    phi = vector_state(s, E1)
    assert abs(phi(E11) - 1) < 1e-12
    assert abs(phi(E22)) < 1e-12
    np.testing.assert_allclose(phi.rep, E11, atol=1e-12)
    phi_m2 = vector_state(m2_structure, E1)
    np.testing.assert_allclose(phi_m2.rep, np.outer(E1, E1.conj()), atol=1e-12)


def test_state_consistency(diag_structure, rng):
    s = diag_structure
    for _ in range(20):
        v = random_unit_vector(rng, 2) * rng.random() * 2
        phi = vector_state(s, v)
        for b in s.algebra.basis:
            assert abs(phi(b) - np.vdot(v, b @ v)) < 1e-10
        assert abs(phi.norm() - np.linalg.norm(v) ** 2) < 1e-10


def block_vector(s, coords):
    """The vector Q y whose block i of y, read as k_i x m_i, is coords[i]."""
    dec = s.algebra.block_decomposition()
    return dec.change_of_basis @ np.concatenate([c.ravel() for c in coords])


def test_vector_state_parts_match_conditional_expectation():
    # reference: the projection of v v^H onto the algebra, read on the blocks
    rng = np.random.default_rng(41)
    for spec in (InstanceSpec(8, ((2, 2), (1, 3), (1, 1)), (False,) * 3, seed=21),
                 InstanceSpec(12, ((2, 3), (3, 2)), (False, False), seed=42),
                 InstanceSpec(5, ((5, 1),), (False,), seed=43)):
        s = random_structure(spec)
        dec = s.algebra.block_decomposition()
        vectors = [random_unit_vector(rng, s.dim) for _ in range(3)]
        for zero in range(len(dec.blocks)):
            vectors.append(block_vector(s, [
                np.zeros((k, m)) if i == zero else
                rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))
                for i, (k, m) in enumerate(dec.blocks)]))
        for v in vectors:
            phi = vector_state(s, v)
            rho = conditional_expectation(np.outer(v, v.conj()), s.algebra)
            np.testing.assert_allclose(phi.rep, rho, atol=1e-12)
            for got, want in zip(phi.parts, dec.block_parts(rho)):
                np.testing.assert_allclose(got, (want + want.conj().T) / 2, atol=1e-12)


def test_from_parts_round_trip():
    rng = np.random.default_rng(44)
    s = random_structure(InstanceSpec(8, ((2, 2), (1, 3), (1, 1)), (False,) * 3, seed=21))
    dec = s.algebra.block_decomposition()
    for _ in range(5):
        gs = [rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
              for k, _ in dec.blocks]
        parts = [g @ g.conj().T for g in gs]
        phi = PositiveFunctional.from_parts(s.algebra, parts)
        for got, again, want in zip(phi.parts, dec.block_parts(phi.rep), parts):
            np.testing.assert_allclose(got, want, atol=1e-12)
            np.testing.assert_allclose(again, want, atol=1e-12)
        for got, want in zip(PositiveFunctional(s.algebra, phi.rep).parts, parts):
            np.testing.assert_allclose(got, want, atol=1e-12)


def test_pairwise_queries_read_no_blocks(monkeypatch):
    from starrep.algebra import BlockDecomposition
    s = random_structure(InstanceSpec(8, ((2, 2), (1, 3), (1, 1)), (False,) * 3, seed=21))
    rng = np.random.default_rng(45)
    v, w = random_unit_vector(rng, s.dim), random_unit_vector(rng, s.dim)
    s.algebra.block_decomposition()
    calls = []
    parts = BlockDecomposition.block_parts
    monkeypatch.setattr(BlockDecomposition, "block_parts", lambda self, m, check=True:
                        calls.append(1) or parts(self, m, check))
    phi, psi = vector_state(s, v), vector_state(s, w)
    assert not is_orthogonal(phi, psi)
    orthogonality_witness(phi, psi, 0.5)
    assert is_dominated(phi, psi)[0]
    difference_norm(phi, psi)
    assert calls == []


def test_functional_norm_examples(diag_structure):
    s = diag_structure
    phi1, phi2 = vector_state(s, E1), vector_state(s, E2)
    # oracle: sup over diagonal unit-ball matrices of |a - b| is 2
    assert abs(difference_norm(phi1, phi2) - 2) < 1e-12
    assert abs(functional_norm(s.algebra, np.zeros((2, 2)))) < 1e-15
    phi_u = vector_state(s, U)
    assert abs(functional_norm(s.algebra, phi_u.rep) - phi_u.norm()) < 1e-12


def test_functional_norm_rejects_non_hermitian(diag_structure):
    with pytest.raises(ValueError):
        functional_norm(diag_structure.algebra, np.array([[0, 1], [0, 0]], dtype=complex))


def test_functional_norm_weights_multiplicities():
    # algebra M_2 (x) I_2 on C^4: representative kron(diag(3,-1), I)/2 has
    # compressed block diag(1.5, -0.5), so the norm is m * ||sigma||_1 = 4
    rng = np.random.default_rng(31)
    h1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    h2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    alg = generate_algebra([np.kron(h1 + h1.conj().T, np.eye(2)),
                            np.kron(h2 + h2.conj().T, np.eye(2))])
    assert alg.size == 4
    rep = np.kron(np.diag([3.0, -1.0]), np.eye(2)) / 2  # representative: sigma (x) I_m / m
    got = functional_norm(alg, rep)
    # oracle: sup of |Tr(rep^H a)| over unit-ball a = kron(sigma, I), found by
    # sampling plus the sign element kron(diag(1,-1), I)
    best = 0.0
    for _ in range(200):
        x = alg.random_hermitian_element(rng)
        x = x / np.linalg.norm(x, 2)
        best = max(best, abs(np.real(np.trace(rep.conj().T @ x))))
    sign = np.kron(np.diag([1.0, -1.0]), np.eye(2))
    best = max(best, abs(np.real(np.trace(rep.conj().T @ sign))))
    assert abs(got - 4.0) < 1e-9
    assert abs(best - got) <= 1e-9


def test_positive_functional_validation(diag_structure):
    alg = diag_structure.algebra
    with pytest.raises(ValueError):
        PositiveFunctional(alg, np.array([[0, 1], [1, 0]], dtype=complex))  # not in span... sym part is
    with pytest.raises(ValueError):
        PositiveFunctional(alg, -np.eye(2))  # negative


def test_orthogonality_examples(diag_structure):
    s = diag_structure
    phi1, phi2, phiu = (vector_state(s, v) for v in (E1, E2, U))
    zero = PositiveFunctional(s.algebra, np.zeros((2, 2)), validate=False)
    assert is_orthogonal(phi1, phi2)
    assert is_orthogonal(phi1, zero)
    assert not is_orthogonal(phi1, phi1)
    assert not is_orthogonal(phi1, phiu)


def test_functionals_on_equal_span_algebras_match_one_algebra():
    # two generating sets of the same W (M_2 (+) C) W^H give equal spans with
    # different decompositions; every query reads both states in phi's
    rng = np.random.default_rng(1)
    w = haar_unitary(3, rng)

    def hermitian_element():
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        x = np.zeros((3, 3), dtype=complex)
        x[:2, :2] = h + h.conj().T
        x[2, 2] = rng.standard_normal()
        return w @ x @ w.conj().T

    first, second = (Structure(generate_algebra([hermitian_element(), hermitian_element()]))
                     for _ in range(2))
    assert first.algebra is not second.algebra and first.algebra.spans_equal(second.algebra)
    x, y = w[:, 0], w[:, 1]
    cases = [(x, y), (x, 0.5 * x), (x, x + y), (w[:, 2], x)]
    for a, b in cases:
        phi, psi, psi_same = vector_state(first, a), vector_state(second, b), vector_state(first, b)
        assert is_orthogonal(phi, psi) == is_orthogonal(phi, psi_same)
        assert is_dominated(phi, psi)[0] == is_dominated(phi, psi_same)[0]
        assert abs(difference_norm(phi, psi) - difference_norm(phi, psi_same)) <= 1e-12
        for eps in (1e-6, 0.5):
            got, want = orthogonality_witness(phi, psi, eps), orthogonality_witness(phi, psi_same, eps)
            assert got.success == want.success
            assert abs(got.floor - want.floor) <= 1e-12
    assert is_orthogonal(vector_state(first, x), vector_state(second, y))


def test_m2_pure_states_are_orthogonal_but_equivalent(m2_structure):
    # states of e1 and e2 on the full matrix algebra have orthogonal supports
    # (norm criterion holds exactly) although their cyclic representations are
    # unitarily equivalent; the embedding relation is the pointed one
    s = m2_structure
    phi1, phi2 = vector_state(s, E1), vector_state(s, E2)
    assert abs(difference_norm(phi1, phi2) - 2) < 1e-12
    assert is_orthogonal(phi1, phi2)
    assert not embeds_as_subrepresentation(s, E1, E2)
    assert not embeds_as_subrepresentation(s, E2, E1)
    # the commutant of M2 is scalar, so only multiples of the cyclic vector
    # realize a dominated state: u does not embed pointedly into (H_e1, e1)
    assert not embeds_as_subrepresentation(s, U, E1)
    assert embeds_as_subrepresentation(s, 0.5 * E1, E1)


def test_witness_examples(diag_structure):
    s = diag_structure
    phi1, phi2 = vector_state(s, E1), vector_state(s, E2)
    wit = orthogonality_witness(phi1, phi2, 1e-6)
    assert wit.success
    np.testing.assert_allclose(wit.element, E11, atol=1e-10)
    assert wit.phi_gap < 1e-12 and wit.psi_gap < 1e-12

    zero = PositiveFunctional(s.algebra, np.zeros((2, 2)), validate=False)
    wit0 = orthogonality_witness(phi1, zero, 1e-6)
    np.testing.assert_allclose(wit0.element, np.eye(2), atol=1e-10)

    wself = orthogonality_witness(phi1, phi1, 1e-6)
    assert not wself.success
    assert wself.floor >= phi1.norm() / 2 - 1e-12
    with pytest.raises(ValueError):
        orthogonality_witness(phi1, phi2, 0.0)


def test_domination_examples(diag_structure, m2_structure):
    s = diag_structure
    phi1, phiu = vector_state(s, E1), vector_state(s, U)
    ok, gamma = is_dominated(phi1, phi1)
    assert ok and abs(gamma - 1) < 1e-9
    ok, gamma = is_dominated(phi1, phiu)
    assert ok and abs(gamma - 2) < 1e-9
    # certified slack: gamma psi - phi is PSD, a 1e-6 shave below gamma is not
    slack = np.linalg.eigvalsh(gamma * phiu.rep - phi1.rep)
    assert slack[0] >= -1e-10
    shaved = np.linalg.eigvalsh(gamma * (1 - 1e-6) * phiu.rep - phi1.rep)
    assert shaved[0] < -1e-8

    q1, q2 = vector_state(m2_structure, E1), vector_state(m2_structure, E2)
    ok, gamma = is_dominated(q1, q2)
    assert not ok and gamma is None
    ok, gamma = is_dominated(PositiveFunctional(s.algebra, np.zeros((2, 2)),
                                                validate=False), phi1)
    assert ok and gamma == 0.0


def test_gns_examples(diag_structure):
    s = diag_structure
    trace_state = PositiveFunctional(s.algebra, np.eye(2))
    rep = gns(s.algebra, trace_state)
    assert rep.space_dim == 2
    assert abs(np.linalg.norm(rep.cyclic) - np.sqrt(2)) < 1e-10

    rep1 = gns(s.algebra, vector_state(s, E1))
    assert rep1.space_dim == 1

    scalar = generate_algebra([], dim=2)
    rep_s = gns(scalar, PositiveFunctional(scalar, 0.5 * np.eye(2)))
    assert rep_s.space_dim == 1

    with pytest.raises(ValueError):
        gns(s.algebra, PositiveFunctional(s.algebra, np.zeros((2, 2)), validate=False))


def planted_state(s, ranks, rng):
    """In-algebra state whose compressed block i has rank ranks[i]."""
    dec = s.algebra.block_decomposition()
    parts = []
    for (k, _), r in zip(dec.blocks, ranks):
        g = rng.standard_normal((k, r)) + 1j * rng.standard_normal((k, r))
        parts.append(g @ g.conj().T)
    return PositiveFunctional(s.algebra, dec.assemble(parts))


def test_gns_round_trip_random():
    spec = InstanceSpec(8, ((2, 2), (1, 3), (1, 1)), (False, True, False), seed=21)
    s = random_structure(spec)
    rng = np.random.default_rng(77)
    cases = [(s, random_in_algebra_state(s, rng), None) for _ in range(10)]
    # planted block ranks in the decomposition's order, with a zero block and m > 1
    assert s.algebra.block_decomposition().blocks == [(1, 1), (1, 3), (2, 2)]
    for ranks in ([1, 0, 1], [0, 1, 2], [1, 1, 0]):
        cases.append((s, planted_state(s, ranks, rng), ranks))
    full = random_structure(InstanceSpec(8, ((8, 1),), (False,), seed=22))
    cases.append((full, planted_state(full, [4], rng), [4]))
    for st, phi, ranks in cases:
        rep = gns(st.algebra, phi)
        if ranks is not None:
            blocks = st.algebra.block_decomposition().blocks
            assert rep.space_dim == sum(k * r for (k, _), r in zip(blocks, ranks))
        assert rep.roundtrip_defect <= 1e-9
        assert rep.star_hom_defect <= 1e-9
        # cyclicity: the orbit of the cyclic vector spans the space
        orbit = rep.action @ rep.cyclic
        assert np.linalg.matrix_rank(orbit) == rep.space_dim


def test_gns_star_hom_check_catches_anti_homomorphic_blocks(monkeypatch):
    from starrep.algebra import BlockDecomposition
    full = random_structure(InstanceSpec(3, ((3, 1),), (False,), seed=5))
    phi = planted_state(full, [2], np.random.default_rng(3))
    assert gns(full.algebra, phi).star_hom_defect <= 1e-9
    parts = BlockDecomposition.block_parts
    # transposed blocks keep every state value but reverse products
    monkeypatch.setattr(BlockDecomposition, "block_parts", lambda self, m, check=True:
                        [p.swapaxes(-1, -2) for p in parts(self, m, check)])
    rep = gns(full.algebra, phi, verify=False)
    assert rep.roundtrip_defect <= 1e-9
    assert rep.star_hom_defect > 1e-2
    with pytest.raises(ToleranceBreach):
        gns(full.algebra, phi)


def test_gns_intertwiner(diag_structure):
    s = diag_structure
    r1 = gns(s.algebra, vector_state(s, E1))
    r1b = gns(s.algebra, vector_state(s, E1))
    _, defect = gns_intertwiner(r1, r1b)
    assert defect <= 1e-10
    r2 = gns(s.algebra, vector_state(s, E2))
    _, defect = gns_intertwiner(r1, r2)
    assert defect > 1e-3
    ru = gns(s.algebra, vector_state(s, U))
    assert gns_intertwiner(r1, ru)[1] == float("inf")  # dimensions differ


def test_embedding_examples(diag_structure, m2_structure):
    s = diag_structure
    assert embeds_as_subrepresentation(s, U, U)
    assert embeds_as_subrepresentation(s, E1, U)
    assert not embeds_as_subrepresentation(s, U, E1)
    assert embeds_as_subrepresentation(s, np.zeros(2), E1)


def test_radon_nikodym_examples(diag_structure, m2_structure):
    s = diag_structure
    rn = radon_nikodym_operator(s, U, U)
    np.testing.assert_allclose(rn.operator, np.eye(2), atol=1e-9)
    rn = radon_nikodym_operator(s, U, np.zeros(2))
    np.testing.assert_allclose(rn.operator, 0, atol=1e-12)
    rn = radon_nikodym_operator(s, U, E1)
    assert rn is not None
    # the realized copy carries phi_{e1}: it is e1 itself (up to phase)
    phi_copy = vector_state(s, rn.v_copy)
    for b in s.algebra.basis:
        assert abs(phi_copy(b) - vector_state(s, E1)(b)) < 1e-9
    # T is PSD and commutes with the compressed algebra
    assert np.linalg.eigvalsh(rn.operator)[0] >= -1e-10
    assert radon_nikodym_operator(m2_structure, E2, E1) is None



def orbit_system_rn(s, w, v):
    """Reference Radon-Nikodym solve on the orbit of w: D on H_w from
    <D pi(a) w, pi(b) w> = phi_v(b^H a) over every pair of basis elements,
    through the pseudo-inverse of the orbit matrix.  Returns (gamma, T as an
    ambient operator, the copy), or None when phi_v is not dominated."""
    phi_v, phi_w = vector_state(s, v), vector_state(s, w)
    dominated, gamma = is_dominated(phi_v, phi_w)
    if not dominated:
        return None
    b = cyclic_subspace(s, [w]).basis
    comp = np.einsum("pa,kab,bq->kpq", b.conj().T, s.algebra.basis, b)
    wc = b.conj().T @ w
    y = (comp @ wc).T
    weighted = s.algebra.basis @ phi_v.rep
    m = np.einsum("kab,jab->kj", weighted.conj(), s.algebra.basis)
    pinv = np.linalg.pinv(y, rcond=1e-12)
    d_op = pinv.conj().T @ ((m + m.conj().T) / 2) @ pinv
    assert np.linalg.norm(y.conj().T @ d_op @ y - m) <= 1e-9 * max(1.0, np.linalg.norm(m))
    t_op = psd_sqrt(d_op)
    return float(gamma), b @ t_op @ b.conj().T, b @ (t_op @ wc)


def from_blocks(s, parts):
    """Ambient vector whose block i of Q^H v, read as a k_i x m_i matrix, is parts[i]."""
    dec = s.algebra.block_decomposition()
    return dec.change_of_basis @ np.concatenate([np.asarray(p).ravel() for p in parts])


def cgauss(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def rn_pairs():
    """(structure, w, v) with v = w acted on by the commutant blockwise
    (V_i = W_i C_i), so dominated, on plans with m >= 2, a zero block of w,
    rank-deficient W_i and a full M_n; plus pairs that are not dominated."""
    rng = np.random.default_rng(41)
    mixed = random_structure(InstanceSpec(10, ((2, 2), (1, 3), (3, 1)), (False,) * 3, seed=41))
    multi = random_structure(InstanceSpec(12, ((2, 3), (3, 2)), (False,) * 2, seed=42))
    full = random_structure(InstanceSpec(6, ((6, 1),), (False,), seed=43))
    cases = []
    for s in (mixed, multi, full):
        blocks = s.algebra.block_decomposition().blocks
        generic = [cgauss(rng, k, m) for k, m in blocks]
        zero_first = [np.zeros((k, m)) if i == 0 else cgauss(rng, k, m)
                      for i, (k, m) in enumerate(blocks)]
        # rank one in every block, below min(k, m) wherever both exceed 1
        rank_one = [np.outer(cgauss(rng, k), cgauss(rng, m)) for k, m in blocks]
        for ws in (generic, zero_first, rank_one):
            vs = [wi @ cgauss(rng, wi.shape[1], wi.shape[1]) for wi in ws]
            cases.append((s, from_blocks(s, ws), from_blocks(s, vs)))
        cases.append((s, from_blocks(s, rank_one), from_blocks(s, generic)))
    return cases


def test_radon_nikodym_matches_orbit_system():
    dominated = 0
    for s, w, v in rn_pairs():
        rn, ref = radon_nikodym_operator(s, w, v), orbit_system_rn(s, w, v)
        assert (rn is None) == (ref is None)
        if rn is None:
            continue
        dominated += 1
        gamma, t_ambient, copy = ref
        assert abs(rn.gamma - gamma) <= 1e-9 * max(1.0, gamma)
        np.testing.assert_allclose(rn.basis @ rn.operator @ rn.basis.conj().T, t_ambient,
                                   atol=1e-9)
        np.testing.assert_allclose(vector_state(s, rn.v_copy).rep, vector_state(s, copy).rep,
                                   atol=1e-9)
        np.testing.assert_allclose(vector_state(s, rn.v_copy).rep, vector_state(s, v).rep,
                                   atol=1e-9)
        assert Subspace(s.dim, rn.basis).isclose(cyclic_subspace(s, [w]))
    assert dominated == 9


def test_radon_nikodym_state_gap_catches_a_wrong_root(monkeypatch):
    s, w, v = rn_pairs()[0]
    assert radon_nikodym_operator(s, w, v) is not None
    # twice the root still commutes and is PSD; only the copy's state shows it.
    # is_dominated takes roots too, so it keeps its unpatched answer
    verdict = is_dominated(vector_state(s, v), vector_state(s, w))
    monkeypatch.setattr(functionals, "is_dominated", lambda phi, psi: verdict)
    monkeypatch.setattr(functionals, "psd_sqrt", lambda m, tol=None: 2 * psd_sqrt(m))
    with pytest.raises(ToleranceBreach):
        radon_nikodym_operator(s, w, v)


def ambient_witness(phi, psi, epsilon):
    """Reference witness: every candidate projection assembled and scored by
    evaluating both functionals on it; the first best wins."""
    algebra, tol = phi.algebra, phi.algebra.tol
    dec = algebra.block_decomposition()
    parts = [(p + p.conj().T) / 2 for p in dec.block_parts(psi.rep)]
    pooled = sorted({round(float(x), 14) for sigma in parts
                     for x in np.linalg.eigvalsh(sigma) if x > tol.psd_abs})
    best = None
    for th in [None] + pooled:
        blocks = []
        for sigma in parts:
            w, v = np.linalg.eigh(sigma)
            cut = (max(tol.psd_abs, tol.rank_rel * max(float(w[-1]), 0.0))
                   if th is None else th + 1e-12)
            kill = v[:, w <= cut]
            blocks.append(kill @ kill.conj().T)
        a = dec.assemble(blocks)
        pg = float(np.real(phi(np.eye(algebra.dim)) - phi(a)))
        sg = float(np.real(psi(a)))
        if best is None or max(pg, sg) < best[0]:
            best = (max(pg, sg), a, pg, sg)
    score, a, pg, sg = best
    return pg < epsilon and sg < epsilon, a, pg, sg, score


def test_orthogonality_witness_matches_ambient_scores():
    rng = np.random.default_rng(52)
    successes = 0
    for spec in (InstanceSpec(10, ((2, 2), (1, 3), (3, 1)), (False,) * 3, seed=51),
                 InstanceSpec(6, ((6, 1),), (False,), seed=52),
                 InstanceSpec(6, ((1, 1),) * 6, (False,) * 6, seed=53)):
        s = random_structure(spec)
        n = s.dim
        pairs = [disjoint_state_pair(s, rng) for _ in range(3)]
        pairs += [overlapping_state_pair(s, rng) for _ in range(3)]
        pairs += [(random_in_algebra_state(s, rng), random_in_algebra_state(s, rng))
                  for _ in range(3)]
        pairs += [(vector_state(s, x), vector_state(s, y)) for x, y in
                  ((random_unit_vector(rng, n), random_unit_vector(rng, n)) for _ in range(3))]
        for phi, psi in pairs:
            for eps in (1e-6, 0.5):
                got = orthogonality_witness(phi, psi, eps)
                success, a, pg, sg, score = ambient_witness(phi, psi, eps)
                assert got.success == success
                assert abs(got.phi_gap - pg) <= 1e-12 and abs(got.psi_gap - sg) <= 1e-12
                assert abs(got.floor - score) <= 1e-12
                if success:
                    successes += 1
                    np.testing.assert_allclose(got.element, a, atol=1e-12)
    assert successes >= 18

def test_types_orthogonal_examples(diag_structure):
    s = diag_structure
    assert types_orthogonal(s, E1, E2, [])
    assert types_orthogonal(s, U, E1, [E1])   # w's residual over acl(e1) is zero
    assert not types_orthogonal(s, U, U, [])


def test_types_dominated_examples(diag_structure, m2_structure):
    s = diag_structure
    assert types_dominated(s, U, E1, [])      # phi_{e1} <= phi_u
    assert types_dominated(s, U, E1, [E1])    # zero residual dominated by anything
    assert not types_dominated(m2_structure, E1, E2, [])


def test_types_orthogonal_invariant_under_nonforking(diag_discrete_structure):
    # orthogonality is decided by the base-independent residual states, so
    # replacing both vectors by non-forking extensions keeps the verdict
    s = diag_discrete_structure
    verdict = types_orthogonal(s, E1, U, [])
    # extend both types from the empty base to {e1}
    shat, v_ext = nonforking_extension(s, E1, [], [E1])
    pad = shat.dim - s.dim
    f_emb = [np.concatenate([E1, np.zeros(pad)])]
    shat2, w_ext = nonforking_extension(shat, np.concatenate([U, np.zeros(pad)]),
                                        [], f_emb)
    pad2 = shat2.dim - shat.dim
    assert types_orthogonal(
        shat2, np.concatenate([v_ext, np.zeros(pad2)]), w_ext,
        [np.concatenate([f, np.zeros(pad2)]) for f in f_emb]) == verdict
    # and a pair that is orthogonal stays orthogonal
    verdict2 = types_orthogonal(s, E1, E2, [])
    assert verdict2
    shat3, v3 = nonforking_extension(s, E1, [], [U])
    pad3 = shat3.dim - s.dim
    g_emb = [np.concatenate([U, np.zeros(pad3)])]
    shat4, w4 = nonforking_extension(shat3, np.concatenate([E2, np.zeros(pad3)]),
                                     [], g_emb)
    pad4 = shat4.dim - shat3.dim
    assert types_orthogonal(
        shat4, np.concatenate([v3, np.zeros(pad4)]), w4,
        [np.concatenate([g, np.zeros(pad4)]) for g in g_emb]) == verdict2


def test_monotone_orthogonality_planted():
    spec = InstanceSpec(7, ((2, 1), (1, 2), (1, 3)), (False, False, True), seed=13)
    s = random_structure(spec)
    rng = np.random.default_rng(5)
    from starrep.harness import _compress_state
    for _ in range(10):
        phi2, psi2 = disjoint_state_pair(s, rng)
        assert is_orthogonal(phi2, psi2)
        phi1 = _compress_state(phi2, rng)
        psi1 = _compress_state(psi2, rng)
        assert is_orthogonal(phi1, psi1)


def test_commutant_rotation_preserves_state():
    spec = InstanceSpec(6, ((2, 2), (1, 2)), (False, False), seed=2)
    s = random_structure(spec)
    rng = np.random.default_rng(8)
    v = random_unit_vector(rng, 6)
    u_mat = commuting_unitary(s, rng)
    w = u_mat @ v
    phi_v, phi_w = vector_state(s, v), vector_state(s, w)
    for b in s.algebra.basis:
        assert abs(phi_v(b) - phi_w(b)) < 1e-9
    _, defect = gns_intertwiner(gns(s.algebra, phi_v), gns(s.algebra, phi_w))
    assert defect <= 1e-8

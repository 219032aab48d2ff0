import numpy as np
import pytest

from starrep.linalg import (
    DEFAULT_TOL,
    Subspace,
    block_diag,
    block_diag_kron,
    full_subspace,
    haar_unitary,
    hermitian_eig,
    is_psd,
    orthonormalize,
    project,
    psd_sqrt,
    subspace_intersection,
    subspace_sum,
    zero_subspace,
)


def projector(sub):
    return sub.basis @ sub.basis.conj().T


def test_orthonormalize_collinear_inputs():
    sub = orthonormalize([[1, 0], [2, 0]], 2)
    assert sub.dim == 1
    # oracle: the span is exactly C e1, so the projector is e1 e1^H
    np.testing.assert_allclose(projector(sub), np.diag([1.0, 0.0]), atol=1e-12)


def test_orthonormalize_empty_span():
    sub = orthonormalize([], 4)
    assert sub.dim == 0 and sub.ambient_dim == 4
    with pytest.raises(ValueError):
        orthonormalize([])


def test_orthonormalize_orthonormal_input_is_fixed_point():
    v1 = np.array([1, 1]) / np.sqrt(2)
    v2 = np.array([1, -1]) / np.sqrt(2)
    sub = orthonormalize([v1, v2], 2)
    assert sub.dim == 2
    np.testing.assert_allclose(projector(sub), np.eye(2), atol=1e-12)


def test_orthonormalize_keeps_complex_spans():
    # conjugating the basis must not happen: the span of (1, i, 0) is not
    # the span of (1, -i, 0)
    sub = orthonormalize([[1, 1j, 0], [0, 0, 1]], 3)
    v = np.array([1, 1j, 0], dtype=complex)
    np.testing.assert_allclose(project(sub, v), v, atol=1e-12)


def test_project_examples():
    full = full_subspace(2)
    v = np.array([0.3, -0.7 + 0.2j])
    np.testing.assert_allclose(project(full, v), v, atol=1e-12)
    np.testing.assert_allclose(project(zero_subspace(2), v), 0, atol=1e-12)
    u = np.array([1, 1]) / np.sqrt(2)
    got = project(orthonormalize([[1, 0]], 2), u)
    np.testing.assert_allclose(got, [1 / np.sqrt(2), 0], atol=1e-12)


def test_project_dimension_mismatch():
    with pytest.raises(ValueError):
        project(zero_subspace(2), [1, 2, 3])


def test_projection_properties_random(rng):
    for _ in range(100):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(0, n + 1))
        vecs = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(k)]
        sub = orthonormalize(vecs, n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        p = project(sub, v)
        np.testing.assert_allclose(project(sub, p), p, atol=1e-8)
        for col in sub.basis.T:
            assert abs(np.vdot(col, v - p)) <= 1e-8


def test_subspace_sum_examples():
    s1 = orthonormalize([[1, 0]], 2)
    s2 = orthonormalize([[0, 1]], 2)
    assert subspace_sum(s1, s2).dim == 2
    assert subspace_sum(s1, zero_subspace(2)).isclose(s1)
    s3 = orthonormalize([np.array([1, 1]) / np.sqrt(2)], 2)
    assert subspace_sum(s1, s3).dim == 2


def test_subspace_sum_properties(rng):
    n = 6
    def rand_sub():
        k = int(rng.integers(0, 4))
        return orthonormalize([rng.standard_normal(n) + 1j * rng.standard_normal(n)
                               for _ in range(k)], n)
    for _ in range(50):
        a, b, c = rand_sub(), rand_sub(), rand_sub()
        assert subspace_sum(a, b).isclose(subspace_sum(b, a))
        assert subspace_sum(subspace_sum(a, b), c).isclose(subspace_sum(a, subspace_sum(b, c)))
        assert subspace_sum(a, a).isclose(a)


def test_subspace_intersection(rng):
    a = orthonormalize([[1, 0, 0], [0, 1, 0]], 3)
    b = orthonormalize([[0, 1, 0], [0, 0, 1]], 3)
    inter = subspace_intersection(a, b)
    assert inter.dim == 1
    np.testing.assert_allclose(projector(inter), np.diag([0.0, 1.0, 0.0]), atol=1e-10)


def test_hermitian_eig_examples():
    w, _ = hermitian_eig(np.eye(2))
    np.testing.assert_allclose(w, [1, 1])
    w, _ = hermitian_eig(np.diag([3.0, -1.0]))
    np.testing.assert_allclose(w, [3, -1])
    m = np.array([[0, 1], [1, 0]], dtype=complex)
    w, v = hermitian_eig(m)
    np.testing.assert_allclose(w, [1, -1])
    # eigenvectors (1, 1)/sqrt(2) and (1, -1)/sqrt(2) up to phase
    assert abs(abs(np.vdot(v[:, 0], np.array([1, 1]) / np.sqrt(2))) - 1) < 1e-12
    assert abs(abs(np.vdot(v[:, 1], np.array([1, -1]) / np.sqrt(2))) - 1) < 1e-12


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(ValueError):
        hermitian_eig(np.zeros((2, 3)))


def test_hermitian_eig_reconstruction_1000_random(rng):
    for _ in range(1000):
        n = int(rng.integers(1, 33))
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m = m + m.conj().T
        w, v = hermitian_eig(m)
        assert np.all(np.diff(w) <= 1e-12)
        err = np.linalg.norm((v * w) @ v.conj().T - m)
        assert err <= 1e-8 * max(1.0, np.linalg.norm(m))


def test_subspace_equality_is_basis_independent(rng):
    vecs = [rng.standard_normal(5) + 1j * rng.standard_normal(5) for _ in range(3)]
    a = orthonormalize(vecs, 5)
    mixed = [2 * vecs[0] + vecs[1], vecs[1] - 0.5j * vecs[2], vecs[2]]
    b = orthonormalize(mixed, 5)
    assert a.isclose(b)
    assert not a.isclose(orthonormalize(vecs[:2], 5))
    # rotating one basis vector by theta: equal iff theta <= eq_abs = 1e-8
    e = np.eye(5, dtype=complex)
    for theta, close in ((3e-9, True), (3e-8, False)):
        tilted = np.cos(theta) * e[:, 0] + np.sin(theta) * e[:, 2]
        sub = Subspace(5, np.stack([tilted, e[:, 1]], axis=1))
        assert sub.isclose(Subspace(5, e[:, :2])) is close


def test_subspace_validation():
    with pytest.raises(ValueError):
        Subspace(2, np.array([[1.0, 1.0], [0.0, 0.0]]))  # not orthonormal
    with pytest.raises(ValueError):
        Subspace(2, np.eye(3))


def test_psd_helpers(rng):
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    psd = m @ m.conj().T
    assert is_psd(psd)
    assert not is_psd(psd - np.eye(4) * (np.linalg.eigvalsh(psd)[0] + 1.0))
    root = psd_sqrt(psd)
    np.testing.assert_allclose(root @ root, psd, atol=1e-9)


def test_haar_unitary_is_unitary(rng):
    for n in (1, 2, 5):
        q = haar_unitary(n, rng)
        np.testing.assert_allclose(q.conj().T @ q, np.eye(n), atol=1e-12)


def test_tolerances_must_be_positive():
    from starrep.linalg import Tolerances
    with pytest.raises(ValueError):
        Tolerances(rank_rel=0.0)
    assert DEFAULT_TOL.eq_abs == 1e-8


def test_block_diag_kron_matches_kron_reference(rng):
    # reference: each part (x) I_m by np.kron, placed along the diagonal
    shapes = [(1, 3), (2, 2), (3, 1), (1, 1)]
    stack = [rng.standard_normal((4, k, k)) + 1j * rng.standard_normal((4, k, k))
             for k, _ in shapes]
    size = sum(k * m for k, m in shapes)
    want = np.zeros((4, size, size), dtype=complex)
    off = 0
    for p, (k, m) in zip(stack, shapes):
        want[:, off:off + k * m, off:off + k * m] = [np.kron(x, np.eye(m)) for x in p]
        off += k * m
    np.testing.assert_array_equal(block_diag_kron(stack, [m for _, m in shapes]), want)
    np.testing.assert_array_equal(block_diag_kron([p[0] for p in stack], [m for _, m in shapes]),
                                  want[0])
    np.testing.assert_array_equal(block_diag(np.eye(2), 3 * np.ones((1, 1))),
                                  np.diag([1.0, 1.0, 3.0]))

import ast
import pathlib

import numpy as np
import pytest

import starrep
from starrep.harness import random_unit_vector
from starrep.linalg import (
    DEFAULT_TOL,
    Draws,
    Subspace,
    block_diag,
    block_diag_kron,
    full_subspace,
    haar_unitary,
    orthonormalize,
    project,
    psd_sqrt,
    stack_ranges,
    stack_ranks,
    stack_svds,
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


def test_residual_is_the_part_off_the_span_with_the_contains_verdict():
    s = orthonormalize([[1, 0, 0], [0, 1, 1]], 3)
    inside = np.array([2.0, 1j, 1j])
    r, verdict = s.residual(inside)
    np.testing.assert_allclose(r, 0, atol=1e-12)
    assert verdict is True and s.contains(inside)
    # a round-off-sized component off the span is still inside; a real one is not
    off = np.array([0, 1, -1]) / np.sqrt(2)
    assert s.residual(inside + 1e-14 * off)[1] and s.contains(inside + 1e-14 * off)
    r, verdict = s.residual(inside + 0.5 * off)
    np.testing.assert_allclose(r, 0.5 * off, atol=1e-12)
    assert verdict is False and not s.contains(inside + 0.5 * off)


def test_project_dimension_mismatch():
    with pytest.raises(ValueError):
        project(zero_subspace(2), [1, 2, 3])
    with pytest.raises(ValueError):
        project(full_subspace(2), np.ones((4, 3)))


def test_project_rows_match_row_by_row(rng):
    n = 5
    rows = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
    for k in (0, 2, n):
        sub = orthonormalize(rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n)), n)
        want = np.array([project(sub, r) for r in rows])
        np.testing.assert_allclose(project(sub, rows), want, atol=1e-12)
    assert project(sub, np.zeros((0, n))).shape == (0, n)


@pytest.mark.parametrize("k", [0, 3, 6])
def test_perp_is_the_orthogonal_complement(k, rng):
    n = 6
    sub = orthonormalize(rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n)), n)
    comp = sub.perp()
    assert comp.ambient_dim == n and comp.dim == n - k
    np.testing.assert_allclose(comp.basis.conj().T @ comp.basis, np.eye(n - k), atol=1e-12)
    np.testing.assert_allclose(sub.basis.conj().T @ comp.basis, 0, atol=1e-12)


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


def ref_subspace_error(ambient_dim, basis):
    """The checks of Subspace, one after another: finiteness, shape, column
    count, then orthonormality by the Gram matrix against I."""
    basis = np.asarray(basis, dtype=complex)
    if not np.isfinite(basis).all():
        return "subspace basis contains non-finite entries"
    if basis.ndim == 1:
        basis = basis[:, None] if basis.size else basis.reshape(ambient_dim, 0)
    if basis.ndim != 2 or basis.shape[0] != ambient_dim:
        return f"subspace basis of shape {basis.shape} does not fit ambient dimension {ambient_dim}"
    if basis.shape[1] > ambient_dim:
        return "subspace basis has more columns than the ambient dimension"
    with np.errstate(over="ignore", invalid="ignore"):   # 1e200 overflows
        gram = basis.conj().T @ basis
    if basis.shape[1] and not DEFAULT_TOL.certified(np.max(np.abs(gram - np.eye(basis.shape[1]))), 1.0):
        return "subspace basis columns are not orthonormal"
    return None


def test_subspace_rejects_what_each_check_rejects_with_its_message():
    # the one-pass check names the same fault as the checks made in turn
    e = np.eye(3, dtype=complex)
    nan, inf = np.nan, np.inf
    cases = [
        (3, e[:, :2]), (3, e[:, 0]), (3, np.zeros(0)), (3, np.zeros((3, 0))),
        (3, np.where(e > 0, nan, 0)[:, :2]), (3, np.array([1, inf, 0])),
        (3, np.array([[1, 0], [0, 1], [0, -inf]])), (3, np.array([[1j * nan], [0], [0]])),
        (3, np.array([[1, 0], [0, 1], [0, 0], [nan, 0]])),        # non-finite and mis-shaped
        (2, e), (3, e[:2]), (3, np.ones((3, 1, 1))), (3, np.array(1.0)), (3, e[0, :2]),
        (2, np.zeros((2, 3))), (2, np.full((2, 3), inf)),          # more columns than rows
        (2, np.array([[1.0, 1.0], [0.0, 0.0]])), (3, 2 * e), (3, 1e200 * e),
        (3, e + 1e-6), (3, e + 1e-9),
    ]
    for n, basis in cases:
        want = ref_subspace_error(n, basis)   # no warning either: warnings are errors here
        if want is None:
            assert Subspace(n, basis).dim == np.asarray(basis).reshape(n, -1).shape[1]
        else:
            with pytest.raises(ValueError) as err:
                Subspace(n, basis)
            assert str(err.value) == want


def test_psd_helpers(rng):
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    psd = m @ m.conj().T
    root = psd_sqrt(psd)
    np.testing.assert_allclose(root @ root, psd, atol=1e-9)


def test_psd_sqrt_of_a_stack_is_the_root_of_each_member(rng):
    g = rng.standard_normal((5, 3, 2)) + 1j * rng.standard_normal((5, 3, 2))
    stack = g @ g.conj().transpose(0, 2, 1)
    stack[2] *= 1e-9   # each member is judged against its own scale
    roots = psd_sqrt(stack)
    assert roots.shape == stack.shape
    for root, member in zip(roots, stack):
        np.testing.assert_allclose(root, psd_sqrt(member), rtol=0,
                                   atol=1e-12 * np.linalg.norm(member))
    # one member that is not PSD against its own scale fails the stack
    stack[2] -= 1e-3 * np.eye(3) * np.linalg.norm(stack[2])
    with pytest.raises(ValueError, match="not PSD"):
        psd_sqrt(stack)
    assert psd_sqrt(stack[[0, 1, 3, 4]]).shape == (4, 3, 3)


def test_haar_unitary_is_unitary(rng):
    for n in (1, 2, 5):
        q = haar_unitary(n, rng)
        np.testing.assert_allclose(q.conj().T @ q, np.eye(n), atol=1e-12)


def _stream(key):
    d = Draws(key)
    return (d.standard_normal((3, 2)).tolist(), d.random(), d.random(4).tolist(),
            d.integers(7), d.integers(3, 1 << 40), d.standard_normal(5).tolist())


def test_draws_are_keyed():
    assert _stream([4, 0xF4EE]) == _stream([4, 0xF4EE])
    assert _stream(9) == _stream([9])
    streams = [_stream(k) for k in (0, 1, [0, 1], [1, 0], [0, 1, 0], [12], [1, 2], 1 << 80)]
    assert all(a != b for i, a in enumerate(streams) for b in streams[i + 1:])
    with pytest.raises(ValueError, match="non-negative"):
        Draws([3, -1])
    with pytest.raises(ValueError, match="non-negative"):
        Draws(-1)


def test_draws_have_the_right_laws():
    n = 10 ** 5
    d = Draws([2024, 5])
    z = d.standard_normal(n)
    assert z.shape == (n,) and d.standard_normal((2, 3, 1)).shape == (2, 3, 1)
    # the mean has deviation n^-1/2, the sample variance (2/n)^1/2
    assert abs(z.mean()) <= 5 / np.sqrt(n)
    assert abs(z.var() - 1) <= 5 * np.sqrt(2 / n)
    u = d.random(n)
    assert 0 <= u.min() and u.max() < 1 and isinstance(d.random(), float)
    assert abs(u.mean() - 0.5) <= 5 / np.sqrt(12 * n)
    ints = [d.integers(2, 5) for _ in range(300)] + [d.integers(3) for _ in range(300)]
    assert set(ints[:300]) == {2, 3, 4} and set(ints[300:]) == {0, 1, 2}


def test_helpers_take_draws_or_a_numpy_generator(rng):
    for source in (rng, Draws(3)):
        q = haar_unitary(4, source)
        np.testing.assert_allclose(q.conj().T @ q, np.eye(4), atol=1e-12)
        assert abs(np.linalg.norm(random_unit_vector(source, 5)) - 1) <= 1e-12


def _numpy_random_uses(tree):
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "random"
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            yield node.lineno
        if isinstance(node, ast.Import) and any(a.name.startswith("numpy.random")
                                                for a in node.names):
            yield node.lineno
        if isinstance(node, ast.ImportFrom) and (
                (node.module or "").startswith("numpy.random")
                or node.module == "numpy" and any(a.name == "random" for a in node.names)):
            yield node.lineno


def test_the_library_never_references_numpy_random():
    # every draw goes through linalg.Draws, so no process imports numpy.random
    src = pathlib.Path(starrep.__file__).parent
    found = {p.name: lines for p in sorted(src.glob("*.py"))
             if (lines := list(_numpy_random_uses(ast.parse(p.read_text()))))}
    assert found == {}
    bad = "import numpy.random\nfrom numpy import random\nx = np.random.default_rng(1)\n"
    assert list(_numpy_random_uses(ast.parse(bad))) == [1, 2, 3]


def test_tolerances_must_be_positive():
    from starrep.linalg import Tolerances
    with pytest.raises(ValueError):
        Tolerances(rank_rel=0.0)
    for name in ("rank_rel", "eq_abs"):
        with pytest.raises(ValueError):
            Tolerances(**{name: float("inf")})
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


def test_stack_svds_cut_over_all_stacks(rng):
    # a rank-two stack, and one at 1e-10 of its scale: cut against the top of
    # both, the small stack is round-off, as stack_ranks decides
    stacks = [rng.standard_normal((2, 3, 2)) + 1j * rng.standard_normal((2, 3, 2)),
              1e-10 * (rng.standard_normal((2, 3, 1)) @ rng.standard_normal((2, 1, 2)))]
    svds = stack_svds(stacks)
    assert [keep.sum(-1).tolist() for *_, keep in svds] == [[2, 2], [0, 0]]
    assert [r.tolist() for r in stack_ranks(stacks)] == [[2, 2], [0, 0]]
    for (u, sv, vh, _), stack in zip(svds, stacks):
        np.testing.assert_allclose((u * sv[:, None, :]) @ vh, stack, atol=1e-12)


def test_stack_ranges_cut_each_set_on_its_own(rng):
    # the two stacks above as two sets, each beside a stack of its first
    # rows: each set is cut against its own top over both its stacks, as
    # stack_svds cuts the set alone, so the small one keeps its rank one;
    # rows are ranked by norms with u = 1, and the narrow stacks get square u
    big = rng.standard_normal((2, 3, 2)) + 1j * rng.standard_normal((2, 3, 2))
    small = 1e-10 * (rng.standard_normal((2, 3, 1)) @ rng.standard_normal((2, 1, 2)))
    sets = [np.array([big, small]), np.array([big[:, :1], small[:, :1]])]
    (u, keep), (ones, row_keep) = stack_ranges(sets)
    assert u.shape == (2, 2, 3, 3) and keep.sum(-1).tolist() == [[2, 2], [1, 1]]
    np.testing.assert_array_equal(ones, np.ones((2, 2, 1, 1)))
    for i, stack in enumerate((big, small)):
        alone = stack_svds([stack, stack[:, :1]])
        np.testing.assert_array_equal(keep[i, :, :2], alone[0][3])
        np.testing.assert_array_equal(row_keep[i], alone[1][3])
        kept = u[i] * keep[i][:, None, :]
        np.testing.assert_allclose(kept.conj().swapaxes(-1, -2) @ kept,
                                   keep[i][:, None, :] * np.eye(3), atol=1e-12)
        np.testing.assert_allclose(kept @ (kept.conj().swapaxes(-1, -2) @ stack), stack,
                                   atol=1e-12 * np.abs(stack).max())
"""One threshold policy: every cutoff is a Tolerances method applied to a value
and its natural scale, so verdicts do not move when inputs are rescaled and
--tol (eq_abs) reaches every decision."""
import ast
import dataclasses
import functools
import inspect
import json
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import starrep
from starrep.algebra import BlockDecomposition, StarAlgebra, generate_algebra, span_algebra
from starrep.cli import build_parser, main
from starrep.functionals import (
    PositiveFunctional,
    embeds_as_subrepresentation,
    gns,
    is_dominated,
    is_orthogonal,
    orthogonality_witness,
    radon_nikodym_operator,
    types_dominated,
    types_orthogonal,
    vector_state,
)
from starrep.harness import InstanceSpec, random_structure
from starrep.linalg import Tolerances, ToleranceBreach, block_diag, orthonormalize
from starrep.representation import Structure, extend_with_summand, invariance_defect

from conftest import E1, E2, SCENARIO_DIR

PLANS = (InstanceSpec(9, ((1, 2), (2, 2), (3, 1)), (False, False, True), seed=61),
         InstanceSpec(9, ((2, 1), (1, 3), (2, 2)), (False,) * 3, seed=62),
         InstanceSpec(9, ((1, 1), (3, 2), (1, 2)), (False,) * 3, seed=63))
EPS = 1e-6


def _cgauss(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _from_blocks(s, coords):
    return s.algebra.block_decomposition().change_of_basis @ np.concatenate(
        [np.asarray(c, dtype=complex).ravel() for c in coords])


@functools.lru_cache(maxsize=None)
def planted_pairs():
    """30 (structure, v, w, base) over three plans with random block supports:
    on a block both touch, v is w acted on by the commutant (V_i = W_i C_i)
    or generic, so the pairs mix orthogonal, dominated and neither."""
    rng = np.random.default_rng(11)
    out = []
    for spec in PLANS:
        s = random_structure(spec)
        blocks = s.algebra.block_decomposition().blocks
        base = [_from_blocks(s, [_cgauss(rng, k, m) if i == 0 else np.zeros((k, m))
                                 for i, (k, m) in enumerate(blocks)])]
        for _ in range(10):
            on_w = {i for i in range(len(blocks)) if rng.random() < 0.6} or {0}
            on_v = {i for i in range(len(blocks)) if rng.random() < 0.5} or {len(blocks) - 1}
            ws = [_cgauss(rng, k, m) if i in on_w else np.zeros((k, m))
                  for i, (k, m) in enumerate(blocks)]
            vs = [np.zeros((k, m)) if i not in on_v else
                  ws[i] @ _cgauss(rng, m, m) if i in on_w and rng.random() < 0.5 else
                  _cgauss(rng, k, m) for i, (k, m) in enumerate(blocks)]
            v, w = _from_blocks(s, vs), _from_blocks(s, ws)
            out.append((s, v / np.linalg.norm(v), w / np.linalg.norm(w), base))
    return out


def verdicts(s, v, w, base, c):
    phi, psi = vector_state(s, v), vector_state(s, w)
    return (is_dominated(phi, psi)[0],
            embeds_as_subrepresentation(s, v, w),
            is_orthogonal(phi, psi),
            radon_nikodym_operator(s, w, v) is None,
            orthogonality_witness(phi, psi, EPS * c * c).success,
            types_orthogonal(s, v, w, base),
            types_dominated(s, v, w, base),
            gns(s.algebra, phi).space_dim)


@functools.lru_cache(maxsize=None)
def reference_verdicts():
    return [verdicts(s, v, w, base, 1.0) for s, v, w, base in planted_pairs()]


def test_planted_pairs_mix_the_relations():
    refs = reference_verdicts()
    for j in range(3):  # domination, embedding, orthogonality each hold and fail
        assert 0 < sum(r[j] for r in refs) < len(refs)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(exponent=st.floats(-6.0, 6.0))
@example(exponent=-6.0)
@example(exponent=6.0)
def test_verdicts_are_scale_equivariant(exponent):
    c = 10.0 ** exponent
    for (s, v, w, base), want in zip(planted_pairs(), reference_verdicts()):
        assert verdicts(s, c * v, c * w, base, c) == want


@pytest.mark.parametrize("c", [1e-10, 1e8])
def test_scaled_generators_give_the_planted_algebra(c):
    spec = InstanceSpec(9, ((1, 2), (2, 2), (3, 1)), (False,) * 3, seed=5)
    gens = random_structure(spec).algebra.generators
    alg = generate_algebra([c * g for g in gens])
    assert alg.size == spec.algebra_size() == 14
    assert sorted(alg.block_decomposition().blocks) == sorted(spec.blocks)


@pytest.mark.parametrize("c", [1e-8, 1e8])
def test_scalar_generator_gives_the_scalars(c):
    assert generate_algebra([c * np.eye(4)]).size == 1


def test_radon_nikodym_and_embedding_bounds_follow_eq_abs(m2_structure):
    # v leaves the range of w by 5e-9: within the default 100 * eq_abs = 1e-6
    # of the range and orbit certificates, outside them once eq_abs is 1e-12
    v = E1 + 5e-9 * E2
    assert radon_nikodym_operator(m2_structure, E1, v) is not None
    assert embeds_as_subrepresentation(m2_structure, v, E1)
    tight = Structure(generate_algebra(m2_structure.algebra.generators,
                                       tol=Tolerances(eq_abs=1e-12)))
    with pytest.raises(ToleranceBreach):
        radon_nikodym_operator(tight, E1, v)
    with pytest.raises(ToleranceBreach):
        embeds_as_subrepresentation(tight, v, E1)


def test_orthogonality_support_bound_follows_eq_abs(m2_structure):
    # supports at overlap 1e-8: orthogonal by both criteria at the default,
    # while at eq_abs 1e-12 the support test sees the overlap the norm gap
    # (1e-16) cannot
    u = E2 + 1e-8 * E1
    assert is_orthogonal(vector_state(m2_structure, E1), vector_state(m2_structure, u))
    tight = Structure(generate_algebra(m2_structure.algebra.generators,
                                       tol=Tolerances(eq_abs=1e-12)))
    with pytest.raises(ToleranceBreach):
        is_orthogonal(vector_state(tight, E1), vector_state(tight, u))


# ----- the policy lives in one place ------------------------------------------

SCANNED = ("linalg.py", "algebra.py", "representation.py", "independence.py",
           "functionals.py")


def _violations(tree):
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "Tolerances":
            allowed |= {id(sub) for sub in ast.walk(node)}
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "CLUSTER_GAP" for t in node.targets):
            allowed |= {id(sub) for sub in ast.walk(node)}
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if (isinstance(node, ast.Constant) and isinstance(node.value, float)
                and 0 < node.value < 1e-3):
            yield node.lineno, f"literal {node.value!r}"
        if isinstance(node, ast.Call):
            name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(
                node.func, "id", None)
            if name in ("max", "maximum") and any(
                    isinstance(a, ast.Constant) and a.value == 1.0 and isinstance(a.value, float)
                    for a in node.args):
                yield node.lineno, f"{name}(..., 1.0) floor"


@pytest.mark.parametrize("module", SCANNED)
def test_no_cutoff_outside_tolerances(module):
    path = pathlib.Path(starrep.__file__).parent / module
    found = list(_violations(ast.parse(path.read_text())))
    assert found == [], f"{module}: cutoffs outside Tolerances at {found}"


# a span's rank is decided by linalg.orthonormalize alone; the SVDs left in the
# scanned layers decide other things: a null space and a unitary polish
SVD_ALLOWED = ("_commutant_basis", "_split")


def _span_rule_violations(node, func="<module>"):
    """(line, "<call> in <innermost enclosing function>") for each qr call, and
    each svd call outside SVD_ALLOWED."""
    if isinstance(node, ast.Call):
        name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(
            node.func, "id", None)
        if name == "qr" or (name == "svd" and func not in SVD_ALLOWED):
            yield node.lineno, f"{name} in {func}"
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        func = node.name
    for child in ast.iter_child_nodes(node):
        yield from _span_rule_violations(child, func)


@pytest.mark.parametrize("module", [m for m in SCANNED if m != "linalg.py"])
def test_no_span_rule_outside_linalg(module):
    path = pathlib.Path(starrep.__file__).parent / module
    found = list(_span_rule_violations(ast.parse(path.read_text())))
    assert found == [], f"{module}: hand-written span rules at {found}"


def test_span_guard_sees_svd_and_qr():
    tree = ast.parse("def f(a):\n    return np.linalg.svd(a)\n"
                     "def _split(a):\n    return np.linalg.svd(a), np.linalg.qr(a)\n")
    assert sorted(what for _, what in _span_rule_violations(tree)) == ["qr in _split",
                                                                      "svd in f"]


def _basis_reads(node, scope=(), attrs=("basis",)):
    """(line, "Class.function") of each read of an attribute named in attrs."""
    if isinstance(node, ast.Attribute) and node.attr in attrs and isinstance(node.ctx, ast.Load):
        yield node.lineno, ".".join(scope) or "<module>"
    if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        scope = (*scope, node.name)
    for child in ast.iter_child_nodes(node):
        yield from _basis_reads(child, scope, attrs)


def test_functionals_read_the_algebra_basis_only_in_gns_action():
    # every query and certificate works on the Wedderburn blocks; only the
    # lazily built GnsRep.action is indexed by the basis
    path = pathlib.Path(starrep.__file__).parent / "functionals.py"
    found = list(_basis_reads(ast.parse(path.read_text())))
    assert {scope for _, scope in found} == {"GnsRep.action"}, found


def test_closures_read_no_algebra_basis():
    # dcl and acl are solved on the Wedderburn blocks, and a cyclic
    # substructure takes its embedding from the closure's columns
    path = pathlib.Path(starrep.__file__).parent / "representation.py"
    found = list(_basis_reads(ast.parse(path.read_text())))
    assert "extend_with_summand" in {scope for _, scope in found}
    assert [f for f in found if f[1] in ("cyclic_subspace", "acl", "closures", "_rows",
                                         "cyclic_substructure")] == [], found


# a type is its base projections and its residuals' block Grams, by module
TYPE_CODE = {
    "independence.py": {"type_of", "_type_over", "TypeDescriptor", "_descriptor_gaps",
                        "descriptors_close", "descriptor_distance"},
    "functionals.py": {"types_orthogonal", "types_dominated", "_type_states"},
    "representation.py": {"_root", "_residual_grams"},
}


def test_types_read_no_algebra_basis():
    # no type or residual-state code reads an algebra basis, and no structure
    # carries a moment basis or the algebra it originated from
    for module, names in TYPE_CODE.items():
        tree = ast.parse((pathlib.Path(starrep.__file__).parent / module).read_text())
        assert names <= {node.name for node in tree.body
                         if isinstance(node, (ast.FunctionDef, ast.ClassDef))}, module
        found = [(line, scope) for line, scope in _basis_reads(
            tree, attrs=("basis", "moment_basis", "origin")) if scope.split(".")[0] in names]
        assert found == [], f"{module}: {found}"
    s = Structure(generate_algebra([np.diag([1.0, 0.0])]))
    shat = extend_with_summand(s, np.array([[1.0], [0.0]]))
    assert shat.parent is s and s.parent is None
    for st in (s, shat):
        assert not hasattr(st, "origin") and not hasattr(st, "moment_basis")


def test_basis_guard_sees_reads_in_their_scope():
    tree = ast.parse("class A:\n    def f(self):\n        return self.basis\n"
                     "def g(s):\n    s.basis = 1\n    return s.algebra.basis\n"
                     "def h(s):\n    return s.origin.dim + len(s.moment_basis)\n")
    assert list(_basis_reads(tree)) == [(3, "A.f"), (6, "g")]
    assert list(_basis_reads(tree, attrs=("moment_basis", "origin"))) == [(8, "h"), (8, "h")]


# every certificate over an algebra is checked at its probes, never over its basis
CERTIFYING = ("algebra.py", "representation.py", "independence.py")


def _basis_roots(node):
    """Source of each object whose .basis the expression reads."""
    return {ast.unparse(sub.value) for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute) and sub.attr == "basis"}


def _basis_certificates(node, func="<module>"):
    """(line, "<what> in <function>") for each .basis read passed as the
    matrices of invariance_defect or to block_parts, and each product of two
    .basis reads of one object."""
    what = None
    if isinstance(node, ast.Call):
        name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(
            node.func, "id", None)
        if name == "invariance_defect" and node.args and _basis_roots(node.args[0]):
            what = "invariance_defect"
        elif name == "block_parts" and any(_basis_roots(a) for a in node.args):
            what = "block_parts"
        elif name in ("matmul", "dot", "einsum") and any(
                _basis_roots(a) & _basis_roots(b)
                for i, a in enumerate(node.args) for b in node.args[i + 1:]):
            what = "basis product"
    if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
            and _basis_roots(node.left) & _basis_roots(node.right)):
        what = "basis product"
    if what:
        yield node.lineno, f"{what} in {func}"
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        func = node.name
    for child in ast.iter_child_nodes(node):
        yield from _basis_certificates(child, func)


@pytest.mark.parametrize("module", CERTIFYING)
def test_no_certificate_reads_the_algebra_basis(module):
    path = pathlib.Path(starrep.__file__).parent / module
    found = list(_basis_certificates(ast.parse(path.read_text())))
    assert found == [], f"{module}: certificates over the basis at {found}"


def test_certificate_guard_sees_basis_arguments_and_products():
    tree = ast.parse("def f(s, a, dec, b):\n"
                     "    invariance_defect(s.algebra.basis, b)\n"
                     "    invariance_defect(a.probes()[:2], s.discrete.basis)\n"
                     "    dec.block_parts(a.basis)\n"
                     "    dec.block_parts(a.probes())\n"
                     "    p = a.basis.reshape(-1, 3) @ a.basis[0].T\n"
                     "    q = b.conj().T @ s.algebra.basis @ b\n"
                     "    return np.einsum('iab,jbc->ijac', a.basis, a.basis.conj())\n")
    assert list(_basis_certificates(tree)) == [
        (2, "invariance_defect in f"), (4, "block_parts in f"), (6, "basis product in f"),
        (8, "basis product in f")]


def test_guard_sees_literals_and_floors():
    tree = ast.parse("def f(x, tol):\n"
                     "    return x < 1e-6 * max(1.0, abs(x)) + np.maximum(1.0, x)\n"
                     "class Tolerances:\n    eq_abs = 1e-8\n"
                     "CLUSTER_GAP = 1e-6\n")
    assert sorted(what for _, what in _violations(tree)) == [
        "literal 1e-06", "max(..., 1.0) floor", "maximum(..., 1.0) floor"]


def test_one_policy_has_no_new_knobs():
    assert [f.name for f in dataclasses.fields(Tolerances)] == ["rank_rel", "eq_abs"]
    assert "validate" not in inspect.signature(PositiveFunctional).parameters
    assert "check" not in inspect.signature(BlockDecomposition.block_parts).parameters
    assert "validate" not in inspect.signature(span_algebra).parameters
    assert "verify" not in inspect.signature(gns).parameters
    # extensions are certified from their parent with no switch to skip checks
    assert list(inspect.signature(Structure).parameters) == [
        "algebra", "discrete", "vectors", "embedding"]
    assert list(inspect.signature(extend_with_summand).parameters) == ["s", "summand_basis"]
    # --seed is registered only where a subcommand reads it
    with pytest.raises(SystemExit):
        build_parser().parse_args(["dcl", "s.json", "v", "--seed", "1"])
    # and --strict only where a subcommand returns a verdict
    with pytest.raises(SystemExit):
        build_parser().parse_args(["dcl", "s.json", "v", "--strict"])


def test_eq_abs_decides_positivity(tmp_path):
    # the parts (1) and (-1e-6) fail positivity at eq_abs = 1e-8 and pass at 1e-4
    rep = np.diag([1.0, -1e-6])
    with pytest.raises(ValueError, match="not positive"):
        PositiveFunctional(generate_algebra([np.diag([1.0, 0.0])]), rep)
    loose = generate_algebra([np.diag([1.0, 0.0])], tol=Tolerances(eq_abs=1e-4))
    assert PositiveFunctional(loose, rep).norm() == pytest.approx(1 - 1e-6)
    # psd_abs was folded into eq_abs: a scenario that sets it is an input error
    scenario = json.loads((SCENARIO_DIR / "diagonal.json").read_text())
    scenario["tolerances"] = {"psd_abs": 1e-8}
    path = tmp_path / "psd_abs.json"
    path.write_text(json.dumps(scenario))
    assert main(["dcl", str(path), "", "--quiet"]) == 2


# ----- certificates at the probes are no looser than over the basis -------------
# Each sweep finds the smallest t (on one grid) at which a certificate rejects,
# once through the library and once through the check over every basis element
# that it replaced, kept here as the reference: the library must reject at no
# larger t, and accept t = 0.

SWEEP = np.logspace(-9, -2, 71)
E12 = np.array([[0, 1], [0, 0]], dtype=complex)


def _first_rejected(rejects):
    return next((t for t in SWEEP if rejects(t)), np.inf)


def _rejects(build, match):
    try:
        build()
    except ValueError as err:
        assert match in str(err)
        return True
    return False


def _with_full_block(mats, k):
    """Trace-orthonormal basis of span(mats) (+) M_k."""
    m = len(mats[0])
    units = np.eye(k * k).reshape(k * k, k, k)
    return span_algebra([block_diag(x, np.zeros((k, k))) for x in mats]
                        + [block_diag(np.zeros((m, m)), u) for u in units], m + k).basis


def _basis_rejects_adjoints(a):
    return not all(a.contains(b.conj().T) for b in a.basis)


def _basis_rejects_products(a):
    # all b_i b_j as one GEMM, projected back onto the span, judged by their
    # largest entry against max|b|^2 n
    n, d = a.dim, a.size
    flat = a.basis.reshape(d, n * n)
    prods = a.basis.reshape(d * n, n) @ a.basis.transpose(1, 0, 2).reshape(n, d * n)
    prods = prods.reshape(d, n, d, n).transpose(0, 2, 1, 3).reshape(d * d, n * n)
    err = np.max(np.abs((prods @ flat.conj().T / n) @ flat - prods))
    return not a.tol.certified(err, float(np.max(np.abs(a.basis))) ** 2 * n)


@pytest.mark.parametrize("n", [4, 16, 64])
def test_probe_invariance_is_no_looser_than_the_basis(n):
    # span{e1 + t e2} under the diagonal algebra; the basis rejects from 1.26e-6
    algebra = generate_algebra([np.diag(np.arange(n, dtype=float))])
    e = np.eye(n)

    def tilted(t):
        return orthonormalize([e[0] + t * e[1]], n)

    ref = _first_rejected(lambda t: not algebra.tol.certified(
        invariance_defect(algebra.basis, tilted(t).basis), 1.0))
    got = _first_rejected(lambda t: _rejects(
        lambda: Structure(algebra, discrete=tilted(t)), "not invariant"))
    assert got <= ref < np.inf
    assert not _rejects(lambda: Structure(algebra, discrete=tilted(0.0)), "not invariant")


@pytest.mark.parametrize("k", [1, 4, 8])
def test_probe_products_are_no_looser_than_the_basis(k):
    # span{I_3, diag(1, -1, 1 + t)} (+) M_k: diag(1, -1, 1 + t)^2 leaves the
    # span for t != 0; the basis rejects from 2.0e-5, 3.2e-5 and 5.0e-5
    def basis(t):
        return _with_full_block([np.eye(3), np.diag([1, -1, 1 + t])], k)

    ref = _first_rejected(lambda t: _basis_rejects_products(
        StarAlgebra(3 + k, basis(t), validate=False)))
    got = _first_rejected(lambda t: _rejects(lambda: StarAlgebra(3 + k, basis(t)), "products"))
    assert got <= ref < np.inf
    assert not _rejects(lambda: StarAlgebra(3 + k, basis(0.0)), "products")


@pytest.mark.parametrize("k", [1, 4, 8])
def test_probe_adjoints_are_no_looser_than_the_basis(k):
    # span{I_2, sqrt 2 (cos th E12 + sin th E21)} (+) M_k is closed under
    # products for every th, and under adjoints only at th = pi / 4
    def basis(t):
        th = np.pi / 4 + t
        return _with_full_block([np.eye(2), np.sqrt(2) * (np.cos(th) * E12 + np.sin(th) * E12.T)], k)

    ref = _first_rejected(lambda t: _basis_rejects_adjoints(
        StarAlgebra(2 + k, basis(t), validate=False)))
    got = _first_rejected(lambda t: _rejects(lambda: StarAlgebra(2 + k, basis(t)), "adjoints"))
    assert got <= ref < np.inf
    assert not _rejects(lambda: StarAlgebra(2 + k, basis(0.0)), "adjoints")

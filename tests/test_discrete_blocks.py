"""The discrete part is a sum of whole isotypic components.

An irreducible class of finite multiplicity has a finite-dimensional,
invariant isotypic component, so acl of the empty set contains all of it,
and a discrete part is a sum of such components.  Structure checks this by
the discrete part's projector lying in the algebra, and refuses any other
invariant subspace, as do extend_with_summand and direct_sum for results
whose discrete part would split a class.  Every Wedderburn block is then
either filled by the discrete part or missed by it, and the discrete part is
held as Q's columns of the blocks it fills, so acl of the empty set is the
H_d that every acl takes.

An elementary extension, by a summand carrying an essential class of the
structure, keeps every verdict on tuples padded with zeros.
"""
import json

import numpy as np
import pytest

from starrep import cli
from starrep.algebra import generate_algebra
from starrep.functionals import embeds_as_subrepresentation, types_dominated, types_orthogonal
from starrep.harness import (InstanceSpec, commuting_unitary, random_block_plan, random_structure,
                             random_unit_vector)
from starrep.independence import (canonical_base, descriptors_close, finite_base, is_independent,
                                  type_of)
from starrep.linalg import Draws, Subspace, Tolerances, orthonormalize
from starrep.representation import (
    Structure,
    acl,
    cyclic_subspace,
    direct_sum,
    essential_discrete_parts,
    extend_with_summand,
    invariance_defect,
)
from starrep.serialize import vector_to_json

from conftest import E1, E2
from test_closure_reuse import CLOSURE_PLANS, block_vectors, class_columns

SPLITS = "not a sum of isotypic components"


# ----- refusals --------------------------------------------------------------

@pytest.mark.parametrize("with_block", [False, True])
def test_structure_refuses_one_copy_of_a_class(with_block):
    # (2, 2) (+) (1, 1) (+) (1, 2): one of the two copies of the (2, 2) class
    # is an invariant subspace, alone or beside the (1, 1) block, but not a
    # sum of classes
    spec = CLOSURE_PLANS["partial"]
    s = random_structure(InstanceSpec(spec.dim, spec.blocks, (False, with_block, False),
                                      seed=spec.seed))
    copy = class_columns(s) @ random_unit_vector(np.random.default_rng(36), 2)
    disc = Subspace(s.dim, np.hstack([s.discrete.basis, copy]), s.tol)
    assert s.tol.certified(invariance_defect(s.algebra.basis, disc.basis), 1.0)
    with pytest.raises(ValueError, match=SPLITS):
        Structure(s.algebra, disc)


def test_extension_refuses_a_summand_that_carries_a_discrete_class():
    # a second copy of the discrete (2, 1) class would be essential, so the
    # class would be split
    s = random_structure(InstanceSpec(4, ((2, 1), (1, 2)), (True, False), seed=72))
    with pytest.raises(ValueError, match=SPLITS):
        extend_with_summand(s, s.discrete.basis)


def test_direct_sum_refuses_a_discrete_class_that_is_essential_in_the_other_summand():
    # diag(1, 0) on both sides: the 0-eigenspace is discrete in one summand
    # only, and the sum has one class for it
    algebra = generate_algebra([np.diag([1.0, 0.0])])
    with pytest.raises(ValueError, match=SPLITS):
        direct_sum(Structure(algebra, orthonormalize([E2], 2)), Structure(algebra))
    both = direct_sum(Structure(algebra, orthonormalize([E2], 2)),
                      Structure(algebra, orthonormalize([E2], 2)))
    assert both.discrete.dim == 2


def test_scalars_have_one_class():
    # C^2 under C I: span{e1} is invariant, and e2 lies in its class
    algebra = generate_algebra([np.eye(2)])
    with pytest.raises(ValueError, match=SPLITS):
        Structure(algebra, orthonormalize([E1], 2))
    s = Structure(algebra, orthonormalize([E1, E2], 2))
    assert acl(s, []) is s.discrete and acl(s, [E2]).dim == 2


def test_a_loose_tolerance_that_fills_no_block_is_refused(tmp_path, capsys):
    # at eq_abs = 1e-2, span{e1} under C I passes the projector check
    # (||P - E(P)||_F = 1/sqrt 2 against 100 eq_abs), but its norm on the one
    # block is 1 of k m = 2: read as filled or as missed, the block's
    # dimension is not H_d's, so no acl can hold it as it is declared
    loose = Tolerances(eq_abs=1e-2)
    algebra = generate_algebra([np.eye(2)], tol=loose)
    with pytest.raises(ValueError, match=SPLITS):
        Structure(algebra, orthonormalize([E1], 2, loose))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "dimension": 2, "generators": [[vector_to_json(row) for row in np.eye(2)]],
        "discrete_subspace": [vector_to_json(E1)], "vectors": {"e2": vector_to_json(E2)},
        "tolerances": {"eq_abs": 1e-2}}))
    assert cli.main(["acl", str(path), ""]) == 2
    assert SPLITS in capsys.readouterr().err


def test_a_loose_tolerance_extension_adds_no_copy_to_a_filled_block():
    # at eq_abs = 1e-2, ||d1^H b||_F = 1 for the summand e1 of C I on C^2
    # with H_d = C^2 passes the certified bound of sqrt 2, but it adds a copy
    # to the block H_d fills, which H_d (+) 0 would then fill by two thirds
    loose = Tolerances(eq_abs=1e-2)
    scalars = Structure(generate_algebra([np.eye(2)], tol=loose), orthonormalize([E1, E2], 2, loose))
    with pytest.raises(ValueError, match=SPLITS):
        extend_with_summand(scalars, orthonormalize([E1], 2, loose))
    # a summand in the block H_d misses keeps H_d (+) 0 the filled blocks' columns
    e = np.eye(3, dtype=complex)
    s = Structure(generate_algebra([np.diag([1.0, 1.0, 2.0])], tol=loose),
                  orthonormalize([e[2]], 3, loose))
    shat = extend_with_summand(s, orthonormalize([e[0]], 3, loose))
    assert shat.discrete.dim == 1 and shat.essential().dim + shat.discrete.dim == shat.dim
    np.testing.assert_allclose(shat.essential().basis.conj().T @ shat.discrete.basis, 0,
                               atol=1e-12)
    assert acl(shat, [np.concatenate([e[0], [0.0]])]).dim == 2


# ----- H_d held by its blocks ----------------------------------------------------

def test_a_tilted_discrete_part_is_the_block_it_fills():
    # span{e1 + 1e-7 e2} under diag(1, 2, 3) is accepted, within 100 eq_abs;
    # it is held as the block of e1, so acl of the empty set is the one that
    # acl({e3}) takes, and e1 is independent from e3 over it
    e = np.eye(3, dtype=complex)
    s = Structure(generate_algebra([np.diag([1.0, 2.0, 3.0])]),
                  orthonormalize([e[0] + 1e-7 * e[1]], 3))
    assert s.discrete.isclose(orthonormalize([e[0]], 3))
    over_none = is_independent(s, [e[0]], [], [e[2]])
    over_e3 = is_independent(s, [e[0]], [e[2]], [e[1]])
    assert over_none.verdict and over_e3.verdict
    assert over_none.defect == pytest.approx(over_e3.defect, abs=1e-15) and over_none.defect < 1e-15
    assert columns_among(acl(s, []).basis, acl(s, [e[2]]).basis)


def columns_among(basis, within):
    """Whether each column of basis is a column of within, exactly."""
    return all(any(np.array_equal(c, w) for w in within.T) for c in basis.T)


@pytest.mark.parametrize("plan", ["discrete", "partial", "two groups"])
def test_discrete_part_is_q_columns_and_essential_part_its_complement(plan, monkeypatch):
    s = random_structure(CLOSURE_PLANS[plan])
    # a declared basis that is no set of Q's columns
    declared = Subspace(s.dim, s.discrete.basis @ np.linalg.qr(
        np.random.default_rng(37).standard_normal((s.discrete.dim,) * 2))[0], s.tol)
    s = Structure(s.algebra, declared)
    svds = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: svds.append(1) or svd(*a, **kw))
    hd, ess = acl(s, []), s.essential()
    assert svds == [] and hd is s.discrete and hd.isclose(declared)
    q = s.algebra.block_decomposition().change_of_basis
    assert columns_among(hd.basis, q) and columns_among(ess.basis, q)
    assert hd.dim + ess.dim == s.dim
    np.testing.assert_allclose(ess.basis.conj().T @ hd.basis, 0, atol=1e-12)


def test_the_discrete_part_is_read_only(diag_discrete_structure):
    with pytest.raises(AttributeError):
        diag_discrete_structure.discrete = Subspace(2, E1[:, None])


# ----- elementary extensions -------------------------------------------------

STRUCTURES = {
    **{plan: spec for plan, spec in CLOSURE_PLANS.items() if plan != "lopsided"},
    **{f"random {n}": InstanceSpec(n, *random_block_plan(n, Draws([73, n])), seed=73 + n)
       for n in (5, 7, 9, 11, 13)},
}


def pad(vs, k):
    vs = np.atleast_2d(vs)
    return np.hstack([vs, np.zeros((len(vs), k), dtype=complex)])


def verdicts(s, k, vs, blocks, u):
    """Each verdict of the queries on s, the tuples padded with k zeros."""
    v, w, e, f = pad(vs, k)
    b0, b1 = pad([blocks[0], blocks[-1]], k)
    uv = pad(u @ vs[0], k)[0]
    return {
        "independent": [is_independent(s, [v], base, extra).verdict
                        for base, extra in (([], [w]), ([e], [f]), ([e], [e, v]))],
        "typeq": [descriptors_close(type_of(s, [v], []), type_of(s, [uv], [])),
                  descriptors_close(type_of(s, [v], [e]), type_of(s, [w], [e]))],
        "orth": [types_orthogonal(s, b0, b1, []), types_orthogonal(s, v, w, [e])],
        "dom": [types_dominated(s, b0 + b1, b0, []), types_dominated(s, b0, v, [])],
        "cbase": canonical_base(s, [v, w], [e]),
        "fbase": finite_base(s, np.array([v]), [e, f, b0, b1], 1e-9).indices,
        "embeds": [embeds_as_subrepresentation(s, b0, v),
                   embeds_as_subrepresentation(s, v, b0 + b1)],
    }


@pytest.mark.parametrize("plan", sorted(STRUCTURES))
def test_elementary_extension_keeps_every_verdict(plan):
    s = random_structure(STRUCTURES[plan])
    rng = np.random.default_rng(74)
    x = random_unit_vector(rng, s.dim)
    b = cyclic_subspace(s, [essential_discrete_parts(s, x)[0]]).basis
    shat = extend_with_summand(s, b)
    vs = np.array([random_unit_vector(rng, s.dim) for _ in range(4)])
    blocks = block_vectors(s, rng)
    u = commuting_unitary(s, rng)
    want, got = verdicts(s, 0, vs, blocks, u), verdicts(shat, b.shape[1], vs, blocks, u)
    np.testing.assert_allclose(got.pop("cbase"), pad(want.pop("cbase"), b.shape[1]), atol=1e-9)
    assert got == want
    assert want["typeq"][0] and not want["typeq"][1]
    if s.discrete.dim:  # a summand that carries a discrete class
        with pytest.raises(ValueError, match=SPLITS):
            extend_with_summand(s, cyclic_subspace(s, [x]).basis)

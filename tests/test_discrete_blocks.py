"""The discrete part is a sum of whole isotypic components.

An irreducible class of finite multiplicity has a finite-dimensional,
invariant isotypic component, so acl of the empty set contains all of it,
and a discrete part is a sum of such components.  Structure checks this by
the discrete part's projector lying in the algebra, and refuses any other
invariant subspace, as do extend_with_summand and direct_sum for results
whose discrete part would split a class.  Every Wedderburn block is then
either filled by the discrete part or missed by it.

An elementary extension, by a summand carrying an essential class of the
structure, keeps every verdict on tuples padded with zeros.
"""
import numpy as np
import pytest

from starrep.algebra import generate_algebra
from starrep.functionals import embeds_as_subrepresentation, types_dominated, types_orthogonal
from starrep.harness import (InstanceSpec, commuting_unitary, random_block_plan, random_structure,
                             random_unit_vector)
from starrep.independence import (canonical_base, descriptors_close, finite_base, is_independent,
                                  type_of)
from starrep.linalg import Draws, Subspace, orthonormalize
from starrep.representation import (
    Structure,
    acl,
    cyclic_subspace,
    direct_sum,
    essential_discrete_parts,
    extend_with_summand,
    invariance_defect,
)

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

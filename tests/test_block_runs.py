"""The functional calculus batched over zero-padded Wedderburn block groups.

The references below are the per-block loops the batched code replaced, kept
here verbatim in substance: one eigh, eigvalsh, svd or product per block, and
supports cut by slicing.  The batched queries must give the same verdicts,
ranks and shapes, and the same numbers to 1e-12 relative.  The plans include
groups that split: a large block beside small ones, and k from 1 to 5.
"""
import itertools

import numpy as np
import pytest

from starrep.algebra import BlockDecomposition, generate_algebra
from starrep.functionals import (
    PositiveFunctional,
    _orbit_leak,
    difference_norm,
    embeds_as_subrepresentation,
    functional_norm,
    gns,
    is_dominated,
    is_orthogonal,
    orthogonality_witness,
    radon_nikodym_operator,
    vector_state,
)
from starrep.harness import disjoint_state_pair
from starrep.linalg import (block_diag, block_diag_kron, haar_unitary, orthonormalize, project,
                            psd_sqrt)
from starrep.representation import Structure

from conftest import per_block, per_group

RUNS = ((2, 2),) * 3 + ((1, 1),) * 4 + ((3, 1),)
PLANS = {"runs": RUNS, "diag20": ((1, 1),) * 20, "full6": ((6, 1),),
         "lopsided": ((6, 1),) + ((1, 1),) * 4,
         "ladder": ((1, 1),) * 2 + ((1, 3),) + ((2, 1),) * 2 + ((3, 2),) + ((4, 1),)
         + ((5, 1),) * 2 + ((5, 2),)}


def planted(blocks, seed):
    """Q (+)(M_k (x) I_m) Q^H for a Haar Q, from two random Hermitian elements."""
    rng = np.random.default_rng(seed)
    n = sum(k * m for k, m in blocks)
    q = haar_unitary(n, rng)

    def element():
        hs = [cgauss(rng, k, k) for k, _ in blocks]
        x = block_diag_kron([h + h.conj().T for h in hs], [m for _, m in blocks])
        return q @ x @ q.conj().T

    s = Structure(generate_algebra([element(), element()]))
    assert sorted(s.algebra.block_decomposition().blocks) == sorted(blocks)
    return s


def cgauss(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def from_coords(s, coords):
    """Ambient vector whose block i, read as a k_i x m_i matrix, is coords[i]."""
    dec = s.algebra.block_decomposition()
    return dec.change_of_basis @ np.concatenate([c.ravel() for c in coords])


def ranked_coords(s, rng, rank):
    """Block coordinates with rank(i) = rank(i, k, m), a zero block for 0."""
    out = []
    for i, (k, m) in enumerate(s.algebra.block_decomposition().blocks):
        r = min(rank(i, k, m), k, m)
        out.append(cgauss(rng, k, r) @ cgauss(rng, r, m))
    return out


def mixed_ranks(i, k, m):
    # inside each run the ranks cycle 1, 2, 0, ...: a zero block beside fuller ones
    return (i + 1) % 3


# ----- the per-block references ----------------------------------------------

def _h(p):
    return (p + p.conj().T) / 2


def offsets(dec):
    return list(itertools.accumulate([k * m for k, m in dec.blocks], initial=0))[:-1]


def ref_coordinates(dec, x):
    y = dec.change_of_basis.conj().T @ x
    return [y[off:off + k * m].reshape(k, m) for off, (k, m) in zip(offsets(dec), dec.blocks)]


def ref_vector_parts(s, v):
    dec = s.algebra.block_decomposition()
    return [_h(vi @ vi.conj().T / m) for vi, (_, m) in zip(ref_coordinates(dec, v), dec.blocks)]


def ref_trace_norm(dec, parts):
    return sum(m * float(np.sum(np.abs(np.linalg.eigvalsh(p))))
               for (_, m), p in zip(dec.blocks, parts))


def ref_norm(dec, parts):
    return sum(m * float(np.real(np.trace(p))) for (_, m), p in zip(dec.blocks, parts))


def ref_spectra(parts):
    spectra = [np.linalg.eigh(p) for p in parts]
    return spectra, max([0.0] + [float(w[-1]) for w, _ in spectra if w.size])


def ref_is_orthogonal(dec, tol, parts_phi, parts_psi):
    total = ref_norm(dec, parts_phi) + ref_norm(dec, parts_psi)
    gap = abs(ref_trace_norm(dec, [p - q for p, q in zip(parts_phi, parts_psi)]) - total)
    supports = [[v[:, w > tol.rank_cut(top)] for w, v in spectra]
                for spectra, top in map(ref_spectra, (parts_phi, parts_psi))]
    by_support = all(tol.certified(np.linalg.norm(sp.conj().T @ sq), 1.0)
                     for sp, sq in zip(*supports))
    return tol.close(gap, total), by_support


def ref_witness(dec, tol, parts_phi, parts_psi, epsilon):
    mass = ref_norm(dec, parts_phi) + ref_norm(dec, parts_psi)
    spectra, top = ref_spectra(parts_psi)
    cut = tol.rank_cut(top)
    cuts = np.concatenate([[cut], cut + np.unique([x for w, _ in spectra for x in w[w > cut]])])
    phi_gap, psi_gap, killed = np.zeros(cuts.size), np.zeros(cuts.size), []
    for (w, v), sp, (_, m) in zip(spectra, parts_phi, dec.blocks):
        count = np.searchsorted(w, cuts, side="right")
        diag = np.real(np.einsum("ji,jk,ki->i", v.conj(), sp, v))
        psi_gap += m * np.concatenate([[0.0], np.cumsum(w)])[count]
        phi_gap += m * np.concatenate([np.cumsum(diag[::-1])[::-1], [0.0]])[count]
        killed.append(count)
    scores = np.maximum(phi_gap, psi_gap)
    # the first candidate within round-off of the least score
    best = int(np.flatnonzero(tol.close(scores - scores.min(), mass))[0])
    pg, sg = float(phi_gap[best]), float(psi_gap[best])
    element = None
    if pg < epsilon and sg < epsilon:
        kills = [v[:, :count[best]] for (_, v), count in zip(spectra, killed)]
        element = dec.assemble(per_group(dec, [kill @ kill.conj().T for kill in kills]))
    return element is not None, element, pg, sg, max(pg, sg)


def ref_is_dominated(dec, tol, parts_phi, parts_psi):
    spectra, top = ref_spectra(parts_psi)
    gamma = 0.0
    for sp, (w, v) in zip(parts_phi, spectra):
        keep = w > tol.rank_cut(top)
        kernel = v[:, ~keep]
        if not tol.close(float(np.linalg.norm(kernel.conj().T @ sp @ kernel)),
                         ref_norm(dec, parts_phi)):
            return False, None
        white = v[:, keep] / np.sqrt(w[keep])
        gamma = max(gamma, float(np.max(np.linalg.eigvalsh(white.conj().T @ sp @ white),
                                        initial=0.0)))
    return True, gamma


def ref_radon_nikodym(s, w, v):
    dec, tol, n = s.algebra.block_decomposition(), s.tol, s.dim
    dominated, gamma = ref_is_dominated(dec, tol, ref_vector_parts(s, v), ref_vector_parts(s, w))
    if not dominated:
        return None
    svds = [np.linalg.svd(wi, full_matrices=False) for wi in ref_coordinates(dec, w)]
    cut = tol.rank_cut(max((float(sv[0]) for _, sv, _ in svds if sv.size), default=0.0))
    cols, roots = [], []
    for off, (k, m), vi, (u, sv, yh) in zip(offsets(dec), dec.blocks,
                                            ref_coordinates(dec, v), svds):
        r = int(np.sum(sv > cut))
        u, sv, y = u[:, :r], sv[:r], yh[:r].conj().T
        cols.append((dec.change_of_basis[:, off:off + k * m].reshape(n, k, m) @ y.conj())
                    .reshape(n, k * r))
        g = (u.conj().T @ vi) / sv[:, None]
        roots.append(np.kron(np.eye(k), psd_sqrt(g @ g.conj().T, tol).T))
    b = np.hstack(cols)
    t_op = block_diag(*roots)
    return t_op, b, b @ (t_op @ (b.conj().T @ w)), gamma


def ref_gns(algebra, parts):
    dec = algebra.block_decomposition()
    spectra, top = ref_spectra(parts)
    cut = algebra.tol.rank_cut(top)
    roots = [np.sqrt(m) * v[:, w > cut] * np.sqrt(w[w > cut])
             for (w, v), (_, m) in zip(spectra, dec.blocks)]
    ranks = [root.shape[1] for root in roots]
    action = block_diag_kron(per_block(dec, dec.block_parts(algebra.basis)), ranks)
    return action, np.concatenate([root.ravel() for root in roots])


# ----- parity -----------------------------------------------------------------

def assert_rel(got, want, scale=None):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    scale = np.linalg.norm(want) if scale is None else scale
    assert np.linalg.norm(got - want) <= 1e-12 * scale, (np.linalg.norm(got - want), scale)


def states(s, rng):
    """Vector states (generic, mixed ranks inside each run, rank one) and
    in-algebra states with mixed block ranks, with their vectors or None."""
    dec = s.algebra.block_decomposition()
    vectors = [from_coords(s, [cgauss(rng, k, m) for k, m in dec.blocks]),
               from_coords(s, ranked_coords(s, rng, mixed_ranks)),
               from_coords(s, ranked_coords(s, rng, lambda i, k, m: 1))]
    out = [(vector_state(s, v), v) for v in vectors]
    for shift in (1, 2):
        parts = []
        for i, (k, _) in enumerate(dec.blocks):
            g = cgauss(rng, k, min(k, (i + shift) % 3))
            parts.append(g @ g.conj().T)
        out.append((PositiveFunctional.from_stacks(s.algebra, per_group(dec, parts)), None))
    out += [(phi, None) for phi in disjoint_state_pair(s, rng)]
    return out


@pytest.mark.parametrize("plan", sorted(PLANS))
def test_batched_queries_match_the_per_block_loops(plan):
    s = planted(PLANS[plan], seed=sorted(PLANS).index(plan) + 61)
    dec, tol = s.algebra.block_decomposition(), s.tol
    rng = np.random.default_rng(62)
    pool = states(s, rng)
    for phi, v in pool:
        want = ref_vector_parts(s, v) if v is not None else per_block(dec, phi.stacks)
        scale = max(1.0, ref_norm(dec, want))
        for got, ref in zip(per_block(dec, phi.stacks), want):
            assert_rel(got, ref, scale)
        assert abs(phi.norm() - ref_norm(dec, want)) <= 1e-12 * scale
        assert abs(functional_norm(s.algebra, phi.rep)
                   - ref_trace_norm(dec, want)) <= 1e-12 * scale
        action, cyclic = ref_gns(s.algebra, want)
        rep = gns(s.algebra, phi)
        assert rep.space_dim == cyclic.size and rep.action.shape == action.shape
        assert_rel(rep.action, action)
        assert_rel(rep.cyclic, cyclic)
    verdicts, compared, elements = set(), 0, 0
    for phi, _ in pool:
        for psi, _ in pool:
            mass = phi.norm() + psi.norm()
            parts_phi, parts_psi = per_block(dec, phi.stacks), per_block(dec, psi.stacks)
            diff = [p - q for p, q in zip(parts_phi, parts_psi)]
            assert abs(difference_norm(phi, psi) - ref_trace_norm(dec, diff)) <= 1e-12 * mass
            by_norm, by_support = ref_is_orthogonal(dec, tol, parts_phi, parts_psi)
            assert by_norm == by_support == is_orthogonal(phi, psi)
            dominated, gamma = ref_is_dominated(dec, tol, parts_phi, parts_psi)
            got = is_dominated(phi, psi)
            assert got[0] == dominated
            if dominated:
                assert abs(got[1] - gamma) <= 1e-12 * max(gamma, 1.0)
            verdicts.add((by_norm, dominated))
            for eps in (1e-6, 0.5):
                success, element, pg, sg, score = ref_witness(dec, tol, parts_phi,
                                                              parts_psi, eps)
                wit = orthogonality_witness(phi, psi, eps)
                assert wit.success == success
                assert abs(wit.floor - score) <= 1e-12 * mass
                assert abs(wit.phi_gap - pg) <= 1e-12 * mass
                assert abs(wit.psi_gap - sg) <= 1e-12 * mass
                compared += 1
                if success:
                    elements += 1
                    assert_rel(wit.element, element)
    # the pool reaches every verdict the queries can give, and every witness
    # is compared, ties included
    assert {(True, False), (False, True), (False, False)} <= verdicts
    assert compared == 2 * len(pool) ** 2 and elements >= 4


def test_witness_ties_go_to_the_first_candidate():
    # full M_6 with phi = psi of rank one: killing nothing and killing the
    # support both score phi(1), and their scores differ only by round-off,
    # where the batched and per-block sums once picked different candidates
    s = planted(PLANS["full6"], seed=62)
    dec, tol = s.algebra.block_decomposition(), s.tol
    phi = states(s, np.random.default_rng(62))[5][0]
    mass = phi.norm()
    for eps in (1e-6, 0.5):
        wit = orthogonality_witness(phi, phi, eps)
        assert abs(wit.phi_gap - mass) <= 1e-12 * mass and abs(wit.psi_gap) <= 1e-12 * mass
        parts = per_block(dec, phi.stacks)
        _, _, pg, sg, _ = ref_witness(dec, tol, parts, parts, eps)
        assert abs(wit.phi_gap - pg) <= 1e-12 * mass and abs(wit.psi_gap - sg) <= 1e-12 * mass


@pytest.mark.parametrize("plan", sorted(PLANS))
def test_batched_radon_nikodym_matches_the_per_block_loop(plan):
    s = planted(PLANS[plan], seed=sorted(PLANS).index(plan) + 71)
    rng = np.random.default_rng(72)
    dec = s.algebra.block_decomposition()
    ws = [[cgauss(rng, k, m) for k, m in dec.blocks], ranked_coords(s, rng, mixed_ranks),
          ranked_coords(s, rng, lambda i, k, m: 1)]
    cases = []
    for wc in ws:
        # v = w acted on by the commutant blockwise: dominated
        cases.append((wc, [wi @ cgauss(rng, wi.shape[1], wi.shape[1]) for wi in wc]))
    cases.append((ws[1], ws[0]))
    dominated = 0
    for wc, vc in cases:
        w, v = from_coords(s, wc), from_coords(s, vc)
        got, want = radon_nikodym_operator(s, w, v), ref_radon_nikodym(s, w, v)
        assert (got is None) == (want is None)
        if got is None:
            continue
        dominated += 1
        t_op, b, copy, gamma = want
        assert got.operator.shape == t_op.shape and got.basis.shape == b.shape
        assert_rel(got.operator, t_op)
        assert_rel(got.basis, b)
        assert_rel(got.v_copy, copy)
        assert abs(got.gamma - gamma) <= 1e-12 * max(gamma, 1.0)
    assert dominated == 3


def ref_orbit_leak(s, v, w):
    """The n x d orbit-map route embeds_as_subrepresentation took before the
    blocks: the orbit of v over the basis, less its projection onto the span
    the orbit of w gives.  Returns the leak and the orbit's norm."""
    ow = np.einsum("kab,b->ka", s.algebra.basis, w).T
    ov = np.einsum("kab,b->ka", s.algebra.basis, v).T
    span = orthonormalize(ow, s.algebra.size, s.tol)
    return np.linalg.norm(ov - project(span, ov)), np.linalg.norm(ov)


@pytest.mark.parametrize("plan", sorted(PLANS))
def test_block_embedding_leak_matches_the_orbit_map(plan):
    s = planted(PLANS[plan], seed=sorted(PLANS).index(plan) + 91)
    rng = np.random.default_rng(92)
    dec = s.algebra.block_decomposition()
    # w generic, with zero blocks beside fuller ones, and of rank one
    ws = [[cgauss(rng, k, m) for k, m in dec.blocks], ranked_coords(s, rng, mixed_ranks),
          ranked_coords(s, rng, lambda i, k, m: 1)]
    verdicts = set()
    for wc in ws:
        # v inside the range of w blockwise, generic, and on a sub-support
        for vc in ([wi @ cgauss(rng, wi.shape[1], wi.shape[1]) for wi in wc],
                   [cgauss(rng, k, m) for k, m in dec.blocks],
                   ranked_coords(s, rng, lambda i, k, m: (i + 1) % 2)):
            w, v = from_coords(s, wc), from_coords(s, vc)
            leak, scale = _orbit_leak(s, v, w)
            ref_leak, ref_scale = ref_orbit_leak(s, v, w)
            assert abs(leak / scale - ref_leak / ref_scale) <= 1e-12
            verdict = s.tol.certified(leak, scale)
            assert verdict == s.tol.certified(ref_leak, ref_scale)
            assert verdict == embeds_as_subrepresentation(s, v, w)
            verdicts.add(verdict)
    assert verdicts == {True, False}


# ----- one LAPACK call per run ------------------------------------------------

def test_queries_make_one_lapack_call_per_run_and_only_gns_reads_rep(monkeypatch):
    s = planted(PLANS["diag20"], seed=81)
    dec = s.algebra.block_decomposition()
    assert [c for _, c, *_ in dec.runs] == [20]
    rng = np.random.default_rng(82)
    v = from_coords(s, [cgauss(rng, 1, 1) for _ in range(20)])
    w = from_coords(s, [cgauss(rng, 1, 1) for _ in range(20)])
    phi, psi = vector_state(s, v), vector_state(s, w)
    calls, reads = [], []
    for name in ("eigh", "eigvalsh", "svd"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, *args, _real=real, _name=name, **kw:
                            calls.append((_name, np.shape(a))) or _real(a, *args, **kw))
    rep = PositiveFunctional.rep
    monkeypatch.setattr(PositiveFunctional, "rep",
                        property(lambda self: reads.append(1) or rep.fget(self)))
    # one call per batched step, each on the whole run or on an ambient matrix
    queries = {
        "vector_state": (lambda: vector_state(s, v), 0, 0),
        "is_orthogonal": (lambda: is_orthogonal(phi, psi), 3, 0),
        "is_dominated": (lambda: is_dominated(phi, psi), 3, 0),
        "orthogonality_witness": (lambda: orthogonality_witness(phi, psi, 0.5), 1, 0),
        "radon_nikodym_operator": (lambda: radon_nikodym_operator(s, w, v), 5, 0),
        "gns": (lambda: gns(s.algebra, phi), 2, 1),
    }
    for name, (query, budget, rep_reads) in queries.items():
        calls.clear()
        reads.clear()
        query()
        assert len(calls) <= budget, (name, calls)
        assert all(shape in ((20, 1, 1), (20, 20)) for _, shape in calls), (name, calls)
        assert len(reads) == rep_reads, name


def test_coordinates_of_a_stack_are_each_vectors_coordinates():
    # the mixed8 plan pads its one group, so the gather reads the zero row
    s = planted(((1, 2), (2, 1), (1, 1), (3, 1)), 86)
    dec = s.algebra.block_decomposition()
    assert any((g.index == s.dim).any() for g in dec.groups)
    x = cgauss(np.random.default_rng(86), s.dim, 3)
    stacks = dec.coordinates(x)
    assert [y.shape for y in stacks] == [g.index.shape + (3,) for g in dec.groups]
    for j in range(3):
        for y, want in zip(stacks, dec.coordinates(x[:, j])):
            np.testing.assert_allclose(y[..., j], want, rtol=0, atol=1e-14)


# ----- the grouping rule and one LAPACK call per group ------------------------

def groups_of(blocks):
    n = sum(k * m for k, m in blocks)
    return BlockDecomposition(sorted(blocks), np.eye(n)).groups


def test_blocks_group_by_the_small_k_rule():
    # single-shape plans: one group, nothing padded
    for blocks in (((1, 1),) * 20, ((2, 2),) * 3, ((6, 1),), ((5, 2),) * 2, ((12, 1),)):
        [g] = groups_of(blocks)
        assert g.index.shape == (len(blocks),) + blocks[0] and g.rows.all()
        assert (g.index < sum(k * m for k, m in blocks)).all()
    # the mixed12 and mixed20 plans of perfbench/functionals_workload.py batch whole
    for blocks in (((1, 2), (2, 2), (3, 1), (1, 3)), ((1, 2), (2, 2), (3, 2), (2, 3), (1, 2))):
        [g] = groups_of(blocks)
        assert g.index.shape == (len(blocks), 3, 3)
    # a block with k > 4 is never padded in k, nor pads a small one
    lopsided = {"12+1x8": ((12, 1),) + ((1, 1),) * 8, "24+2x4": ((24, 1),) + ((2, 2),) * 4}
    for name, blocks in {**PLANS, **lopsided}.items():
        groups = groups_of(blocks)
        assert [b for g in groups for b in zip(g.k, g.m)] == sorted(blocks), name
        for g in groups:
            size = g.index.shape[1]
            assert size <= 4 or (g.k == size).all(), name
            assert g.rows.sum() == g.k.sum(), name
    assert [g.index.shape for g in groups_of(lopsided["12+1x8"])] == [(8, 1, 1), (1, 12, 1)]
    assert [g.index.shape for g in groups_of(PLANS["ladder"])] == [(7, 4, 3), (3, 5, 2)]


def lapack_calls(monkeypatch, plan, seed):
    """The eigh, eigvalsh and svd calls of four queries on a planted plan, each
    from fresh vector states of a dominated pair, and the plan's run count."""
    s = planted(plan, seed)
    dec = s.algebra.block_decomposition()
    rng = np.random.default_rng(seed)
    wc = [cgauss(rng, k, m) for k, m in dec.blocks]
    w = from_coords(s, wc)
    v = from_coords(s, [wi @ cgauss(rng, wi.shape[1], wi.shape[1]) for wi in wc])
    queries = {
        "is_dominated": lambda: is_dominated(vector_state(s, v), vector_state(s, w)),
        "gns": lambda: gns(s.algebra, vector_state(s, v)),
        "orthogonality_witness": lambda: orthogonality_witness(vector_state(s, v),
                                                               vector_state(s, w), 0.5),
        "radon_nikodym_operator": lambda: radon_nikodym_operator(s, w, v),
    }
    calls, counts = [], {}
    with monkeypatch.context() as patch:
        for name in ("eigh", "eigvalsh", "svd"):
            real = getattr(np.linalg, name)
            patch.setattr(np.linalg, name, lambda a, *args, _real=real, _name=name, **kw:
                          calls.append(_name) or _real(a, *args, **kw))
        for query, run in queries.items():
            calls.clear()
            assert run() is not None
            counts[query] = {name: calls.count(name) for name in ("eigh", "eigvalsh", "svd")}
    return counts, len(dec.runs)


def test_lapack_calls_do_not_grow_with_the_runs_in_a_group(monkeypatch):
    one, runs_one = lapack_calls(monkeypatch, ((2, 2),) * 3, 83)
    four, runs_four = lapack_calls(monkeypatch, ((1, 2), (1, 3), (2, 2), (3, 1)), 84)
    assert (runs_one, runs_four) == (1, 4)
    for query, counts in one.items():
        want = dict(counts)
        if query == "radon_nikodym_operator":
            # its svd alone stays per run: zero padding would change the phases
            # of the singular vectors its block-adapted basis is built from
            want["svd"] += runs_four - runs_one
        assert four[query] == want, (query, counts, four[query])

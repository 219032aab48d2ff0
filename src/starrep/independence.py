"""The forking calculus: independence verdicts, type descriptors, non-forking
extensions, canonical bases, averaged copies and finite bases.

A tuple is independent from F over E when its projections onto acl(E) and
acl(E u F) coincide.  A type is the projections onto the cyclic subspace of
the base and the residuals' block Grams (representation._residual_grams).

Every closure is solved through one entry, representation._rows, which
solves the block rows of one set, or of several sets stacked (is_independent's
base and base u extra, nonforking_extension's base and extension set), in one
call.  The queries project onto the one column form of a closure,
representation._closure_basis, with no Subspace built; in a block group
where every m_i = 1 those are columns of Q.

Closures grow by increments: acl(C u {f}) = acl(C) + dcl(f), as both summands
are invariant and H_d lies in acl(C).  The greedy finite base works on block
rows: it solves acl of the pool and dcl(f) once each, joins acl(C) + dcl(f)
block by block (a mask OR in a group where every m_i = 1, else one batched
SVD per group over the blocks both sides meet, representation._join_rows),
and scores the candidates from the tuple's block coordinates.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (Draws, Subspace, ToleranceBreach, Tolerances, haar_unitary, orthonormalize,
                     project)
from .representation import (
    Structure,
    _acl_rows,
    _block_rows,
    _check_rows,
    _closure_basis,
    _from_rows,
    _join_rows,
    _project_leading,
    _residual_grams,
    _residuals,
    _root,
    _rows,
    _tuple_rows,
    algebra_invariance_defect,
    cyclic_subspace,
    extend_with_summand,
)


def _as_tuple(vectors, n: int):
    """Normalize a vector / iterable of vectors into a (t, n) array plus a flag."""
    arr = np.asarray(vectors, dtype=complex)
    single = arr.ndim == 1
    arr = np.atleast_2d(arr)
    if arr.shape[1] != n:
        raise ValueError(f"vectors of length {arr.shape[1]} do not fit dimension {n}")
    return arr, single


def spanning_word_length(s: Structure) -> int:
    """Smallest L such that words of length <= L in the generators and their
    adjoints span the acting algebra.

    The span of words of length <= L is that of length <= L - 1 plus the
    letters times the directions the previous length added, so only those
    newest directions are multiplied.  Raises RuntimeError when the words stop
    growing below the algebra's dimension.
    """
    n = s.dim
    target = s.algebra.size
    if not s.algebra.generators and target > 1:
        raise RuntimeError(
            "the acting algebra has no generators; word moments are unavailable")
    letters = s.algebra.letters()
    q = orthonormalize(np.eye(n, dtype=complex).reshape(1, -1), n * n, s.tol)
    newest = q.basis.T
    length = 0
    while q.dim < target:
        if newest.shape[0] == 0:
            raise RuntimeError("generator words stopped growing below the algebra's dimension")
        length += 1
        words = (letters[:, None] @ newest.reshape(1, -1, n, n)).reshape(-1, n * n)
        d = q.dim
        q = _append_to_row_basis(q, words, s.tol)
        newest = q.basis.T[d:]
    return length


def _append_to_row_basis(q: Subspace, candidates: np.ndarray, tol: Tolerances) -> Subspace:
    """Extend the span q by the span of the candidate rows."""
    resid = candidates - project(q, candidates)
    norms = np.linalg.norm(resid, axis=1)
    resid = resid[norms > tol.rank_cut(np.max(np.linalg.norm(candidates, axis=1), initial=0.0))]
    new = orthonormalize(resid, q.ambient_dim, tol).basis.T
    # one re-orthogonalization pass keeps the joint basis numerically tight
    new = orthonormalize(new - project(q, new), q.ambient_dim, tol).basis
    return Subspace(q.ambient_dim, np.hstack([q.basis, new]), tol)


@dataclass
class TypeDescriptor:
    """Type data of a tuple over a base set: the projections p onto the base's
    cyclic subspace, and the state of the residuals, their block Grams
    rho_i[j, l] = V_i^(j) V_i^(l)^H on the blocks of the structure's root
    (representation._residual_grams), so types across extensions compare."""

    base_projections: np.ndarray          # (t, n)
    residual_grams: list                  # per block group of the root: (c, t, t, K, K)
    structure: Structure = field(repr=False, default=None)

    @property
    def size(self) -> float:
        """Largest entry norm of the tuple: |v_j|^2 = |p_j|^2 + sum_i tr rho_i[j, j]."""
        square = np.linalg.norm(self.base_projections, axis=1) ** 2 + sum(
            np.einsum("cjjaa->j", rho).real for rho in self.residual_grams)
        return float(np.sqrt(max(np.max(square, initial=0.0), 0.0)))


def type_of(s: Structure, vectors, base) -> TypeDescriptor:
    """Descriptor of tp(vectors / base): projections onto the cyclic subspace
    of the base, and the block Grams of the residuals."""
    vs, _ = _as_tuple(vectors, s.dim)
    [rows] = _rows(s, base)
    return _type_over(s, vs, project(_closure_basis(s, rows), vs))


def _type_over(s: Structure, vs: np.ndarray, bp: np.ndarray) -> TypeDescriptor:
    """type_of with the projections onto the base's cyclic subspace already
    computed."""
    return TypeDescriptor(bp, _residual_grams(s, vs - bp), s)


def descriptor_distance(d1: TypeDescriptor, d2: TypeDescriptor) -> float:
    """Largest deviation between two descriptors.

    The structures' roots must share a block decomposition, else ValueError.
    Each residual pair (j, l) is compared by its moment gap
    (sum_i (n / m_i) ||rho_i(v) - rho_i(w)||_F^2)^(1/2), the root's n and m_i:
    the l2 gap of the moments <a r_j, r_l> over any trace-orthonormal basis a
    of the root's algebra.  The base projections are compared entrywise with
    the shorter zero-padded, as an extension keeps its parent's coordinates."""
    return float(max(_descriptor_gaps(d1, d2)))


def _descriptor_gaps(d1: TypeDescriptor, d2: TypeDescriptor):
    """(base projection gap, moment gap) of descriptor_distance."""
    if len(d1.base_projections) != len(d2.base_projections):
        raise ValueError("descriptors describe tuples of different lengths")
    root = _root(d1.structure)
    dec1, dec2 = (_root(d.structure).algebra.block_decomposition() for d in (d1, d2))
    if dec1 is not dec2 and (dec1.blocks != dec2.blocks
                             or np.any(dec1.change_of_basis != dec2.change_of_basis)):
        raise ValueError("descriptors come from structures over different algebras")
    p1, p2 = d1.base_projections, d2.base_projections
    if p1.shape[1] < p2.shape[1]:
        p1, p2 = p2, p1
    # the longer minus the zero-padded shorter; only the entries' sizes count
    gap = p1.copy()
    gap[:, :p2.shape[1]] -= p2
    pairs = zip(dec1.groups, d1.residual_grams, d2.residual_grams)
    moments = np.sqrt(sum(np.einsum("c,cjlab->jl", root.dim / g.m, np.abs(r1 - r2) ** 2)
                          for g, r1, r2 in pairs))
    return (float(np.abs(gap).max()) if gap.size else 0.0,
            float(moments.max()) if np.size(moments) else 0.0)


def descriptors_close(d1: TypeDescriptor, d2: TypeDescriptor) -> bool:
    """Whether two descriptors agree to the first structure's eq_abs at the
    scale of the tuples: the projection gap against eq_abs size and the
    moment gap against eq_abs size^2, size the larger of the two tuples'
    largest entry norms, so a common rescaling keeps the verdict."""
    projections, moments = _descriptor_gaps(d1, d2)
    size = max(d1.size, d2.size)
    tol = d1.structure.tol
    return bool(tol.close(projections, size) and tol.close(moments, size * size))


@dataclass
class IndependenceReport:
    """Outcome of an independence query, with the raw defect for re-thresholding."""

    verdict: bool
    defect: float
    witnesses: list  # per tuple entry: (projection onto acl(E), onto acl(E u F))

    def __bool__(self):
        return self.verdict


def is_independent(s: Structure, vectors, base, extra) -> IndependenceReport:
    """Whether the tuple is independent from `extra` over `base`.

    True when each entry's projection onto acl(base u extra) already lies in
    acl(base); the defect is the largest projection displacement, judged
    against the largest entry norm.  Both closures come from one stacked
    solve (representation._rows), or one unstacked for an empty base.
    """
    vs, _ = _as_tuple(vectors, s.dim)
    p1, p2 = (project(_closure_basis(s, rows, discrete=True), vs)
              for rows in _rows(s, base, list(base) + list(extra)))
    witnesses = list(zip(p1, p2))
    defect = float(np.max(np.linalg.norm(p2 - p1, axis=1), initial=0.0))
    scale = float(np.max(np.linalg.norm(vs, axis=1), initial=0.0))
    return IndependenceReport(bool(s.tol.close(defect, scale)), defect, witnesses)


def _check_base_extension(base, extra, tol) -> None:
    extra = [np.asarray(f, dtype=complex).ravel() for f in extra]
    for e in base:
        e = np.asarray(e, dtype=complex).ravel()
        if not any(f.size == e.size and tol.close(np.linalg.norm(e - f), np.linalg.norm(e))
                   for f in extra):
            raise ValueError("the extension base must contain every base vector")


def nonforking_extension(s: Structure, vectors, base, extension, seed: int | None = None):
    """Non-forking extension of tp(vectors / base) to the larger base.

    Returns (extended structure, extended tuple).  The structure gains one
    fully essential summand carrying the compression onto the joint cyclic
    subspace of the residuals; each output vector is the base projection plus
    the fresh embedded copy of its residual, and a residual close to zero at
    its vector's norm is zero (_residuals), so a tuple inside acl(base) gets
    no summand.  Both defining conditions (the projection match and the
    residual type match) are verified numerically before returning: the
    projections within eq_abs of the tuple's size, the residual types'
    projection gap within eq_abs of it and their moment gap within eq_abs
    of its square, all with certified's room.  The closures are solved in s
    and shared by the checks: dcl and acl of the base and of the extension
    set from one stacked solve (representation._rows), then dcl of the
    residuals.  The residuals' cyclic subspace, certified orthonormal,
    is the summand (rotated by a Haar unitary for a seed), and the extended
    structure is certified from s (representation.extend_with_summand).
    """
    vs, single = _as_tuple(vectors, s.dim)
    _check_base_extension(base, extension, s.tol)
    # the extension set has no summand part, so its closures in shat are
    # the ones in s, padded: shat is never decomposed
    base_rows, ext_rows = _rows(s, base, extension)
    base_cyc, ext_cyc = _closure_basis(s, base_rows), _closure_basis(s, ext_rows)
    base_cl, ext_cl = (_closure_basis(s, base_rows, discrete=True),
                       _closure_basis(s, ext_rows, discrete=True)) if s.discrete.dim else (
        base_cyc, ext_cyc)
    proj = project(base_cl, vs)
    res = _residuals(vs, proj, s.tol)

    summand = cyclic_subspace(s, res)
    if seed is not None and summand.dim:
        summand = summand.basis @ haar_unitary(summand.dim, Draws([seed, 0x0F0E]))
    shat = extend_with_summand(s, summand)
    compressed = res @ shat.embedding.conj()
    vprime = np.hstack([proj, compressed])

    got = _project_leading(ext_cl, vprime, s.dim)
    miss = np.linalg.norm(got - np.hstack([proj, np.zeros_like(compressed)]), axis=1)
    failed = ~s.tol.certified(miss, np.linalg.norm(vs, axis=1))
    if np.any(failed):
        raise ToleranceBreach(
            f"non-forking projection condition failed by {np.max(miss[failed]):.2e}")
    d_old = _type_over(s, res, project(base_cyc, res))
    resid = vprime - got
    d_new = _type_over(shat, resid, _project_leading(ext_cyc, resid, s.dim))
    projections, moments = _descriptor_gaps(d_old, d_new)
    # projections scale as |v|, moments as |v|^2
    size = float(np.max(np.linalg.norm(vs, axis=1)))
    if not (s.tol.certified(projections, size) and s.tol.certified(moments, size * size)):
        raise ToleranceBreach(
            f"residual type condition failed by {max(projections, moments):.2e}")
    if single:
        return shat, vprime[0]
    return shat, vprime


def canonical_base(s: Structure, vectors, base):
    """Canonical base of tp(vectors / base): projections onto the base's cyclic subspace."""
    vs, single = _as_tuple(vectors, s.dim)
    [rows] = _rows(s, base)
    out = project(_closure_basis(s, rows), vs)
    return out[0] if single else out


@dataclass
class MorleyCheck:
    """Average of independent copies and its distance to the stationary part."""

    average: np.ndarray
    distance: float
    residual_norm: float
    copies: np.ndarray


def morley_average_check(s: Structure, v: np.ndarray, base, k: int) -> MorleyCheck:
    """Average k successive non-forking copies of v over the base.

    The copies share the projection onto acl(base) and carry fresh mutually
    orthogonal residual summands, so the distance of the k-average to the
    stationary part is exactly ||residual|| / sqrt(k), with the residual
    zero when it is close to zero at v's norm (_residuals).  The copies are
    built in one k-fold direct sum (identical to iterating the extension);
    copy orthogonality, the compression isometry and the invariance of the
    residual's cyclic subspace (d-scaled, at the probes) are verified
    numerically.  The average and its distance are read from how the copies
    are built, p and rc / k in each summand, in O(k size), not from the
    k x (n + k size) copies.
    """
    if k < 1:
        raise ValueError("the copy count must be at least 1")
    v = np.asarray(v, dtype=complex).ravel()
    [rows] = _rows(s, base)
    p = project(_closure_basis(s, rows, discrete=True), v)
    r = _residuals(v, p, s.tol)
    hr = cyclic_subspace(s, [r])
    b = hr.basis
    size = b.shape[1]
    rc = b.conj().T @ r
    if not s.tol.certified(abs(np.linalg.norm(rc) - np.linalg.norm(r)), np.linalg.norm(r)):
        raise ToleranceBreach("residual compression is not isometric")
    if not s.tol.certified(algebra_invariance_defect(s.algebra, b), 1.0):
        raise ToleranceBreach("residual cyclic subspace is not invariant under the algebra")

    n = s.dim
    total = n + k * size
    copies = np.zeros((k, total), dtype=complex)
    copies[:, :n] = p
    # copy i carries rc in summand i alone, so the copies' Gram is their summands' norms
    tails = copies[:, n:].reshape(k, k, size)
    tails[np.arange(k), np.arange(k)] = rc
    # |tails[i, j]|^2, read once over a real view of the tails
    real = tails.view(float)
    gap = np.einsum("ijx,ijx->ij", real, real) - np.linalg.norm(r) ** 2 * np.eye(k)
    if not s.tol.certified(np.max(np.abs(gap)), np.linalg.norm(r) ** 2):
        raise ToleranceBreach("independent copies are not orthonormal")
    # the copies share p, and each holds rc in one summand: the average is p
    # and rc / k in every summand, and its distance to (p, 0) is its tail's norm
    average = np.concatenate([p, np.tile(rc / k, k)])
    distance = float(np.linalg.norm(average[n:]))
    return MorleyCheck(average, distance, float(np.linalg.norm(r)), copies)


@dataclass
class FiniteBase:
    """Greedy finite base: indices into F, the chosen sublist, and the moved tuple."""

    indices: list
    subset: list
    replacements: np.ndarray
    defect: float


def finite_base(s: Structure, vectors, pool, epsilon: float) -> FiniteBase:
    """Finite sub-base over which a small perturbation of the tuple is independent.

    Greedily adds elements of the pool whose closures most reduce the worst
    projection defect, stopping once every entry moved by less than epsilon.
    Each replacement keeps the residual and swaps the full-pool projection for
    the sub-pool projection, which makes the independence exact.

    A candidate's closure is an increment: acl(C u {f}) = acl(C) + dcl(f),
    since both summands are invariant and H_d lies in acl(C).  So acl of the
    pool and dcl(f) are solved once each, as block rows, and each round joins
    every remaining candidate's rows with acl(C)'s, block by block
    (representation._join_rows: a mask OR in a group where every m_i = 1,
    else one batched SVD per group over the blocks both sides meet, cut as
    the n-dimensional join of the two orthonormal closures would be, at the
    unit scale, whatever the norms of the pool vectors).  The candidates are
    scored on the tuple's block coordinates, where Q is unitary, and a
    candidate whose joined dimension does not exceed dim acl(C) adds nothing
    and is skipped.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be strictly positive")
    vs, single = _as_tuple(vectors, s.dim)
    pool = [np.asarray(f, dtype=complex).ravel() for f in pool]
    full = _acl_rows(s, _rows(s, pool)[0])
    dec = s.algebra.block_decomposition()
    z = _tuple_rows(s, vs)

    def onto(rows):
        # z projected onto block rows, or onto each set of a stack of them
        return [project((u * keep[..., None, :])[..., None, :, :], zg)
                for (u, keep), zg in zip(rows, z)]

    target = onto(full)
    # in a group where every m_i = 1 a block is in a closure or not, so its
    # part of a defect is its squared norm or nothing
    block_squares = [(y.real ** 2 + y.imag ** 2).sum((1, 3)) for y in z]

    def worst_defect(rows):
        # the largest row defect of one set of block rows, or of each of a stack
        squares = 0.0
        for (u, keep), (_, whole), y, t, y2 in zip(rows, full, z, target, block_squares):
            if u.shape[-1] == 1:
                squares = squares + (keep[..., 0] ^ whole[:, 0]) @ y2
                continue
            gap = t - project((u * keep[..., None, :])[..., None, :, :], y)
            squares = squares + (gap.real ** 2 + gap.imag ** 2).sum((-1, -3, -4))
        return np.sqrt(np.max(squares, axis=-1, initial=0.0))

    def dim(rows):
        return sum(keep.sum(-1) @ g.k for (_, keep), g in zip(rows, dec.groups))

    chosen: list[int] = []
    sub = _acl_rows(s, None)
    current, d = float(worst_defect(sub)), dim(sub)
    size = float(np.max(np.linalg.norm(vs, axis=1), initial=0.0))
    rest = list(range(len(pool)))
    if rest:
        dcl = _block_rows(dec, np.array(pool)[:, None, :], s.tol)
        # block rows that never become Subspaces
        _check_rows(full, s.tol)
        _check_rows(dcl, s.tol)
    while current >= epsilon and rest:
        left = np.array(rest)
        joined = _join_rows(s, sub, [(u[left], keep[left]) for u, keep in dcl])
        dims = dim(joined)
        best = None
        for c, (score, size_c) in enumerate(zip(worst_defect(joined).tolist(), dims.tolist())):
            if size_c <= d:
                continue
            # the first of near-equal scores wins
            if best is None or (score < best[0] and not s.tol.close(best[0] - score, size)):
                best = (float(score), c)
        if best is None:
            break
        current, c = best
        sub, d = [(u[c], keep[c]) for u, keep in joined], dims[c]
        chosen.append(rest.pop(c))

    replacements = vs - _from_rows(s, [t - p for t, p in zip(target, onto(sub))])
    out = replacements[0] if single else replacements
    return FiniteBase(list(chosen), [pool[i] for i in chosen], out, current)

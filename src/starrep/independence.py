"""The forking calculus: independence verdicts, type descriptors, non-forking
extensions, canonical bases, averaged copies and finite bases.

A tuple is independent from F over E when its projections onto acl(E) and
acl(E u F) coincide.  Types are captured by the projections onto the cyclic
subspace of the base together with the moment data of the residuals.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import _append_to_row_basis, _orthonormal_rows
from .linalg import ToleranceBreach, haar_unitary, project
from .representation import (
    Structure,
    acl,
    cyclic_subspace,
    extend_with_summand,
    invariance_defect,
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
    q = _orthonormal_rows(np.eye(n, dtype=complex).reshape(1, -1), s.tol)
    newest = q
    length = 0
    while q.shape[0] < target:
        if newest.shape[0] == 0:
            raise RuntimeError("generator words stopped growing below the algebra's dimension")
        length += 1
        words = (letters[:, None] @ newest.reshape(1, -1, n, n)).reshape(-1, n * n)
        d = q.shape[0]
        q = _append_to_row_basis(q, words, s.tol)
        newest = q[d:]
    return length


@dataclass
class TypeDescriptor:
    """Type data of a tuple over a base set: the projections onto the base's
    cyclic subspace, and the residual moments <a_k r_i, r_j> (entry [k, i, j])
    against every element a_k of the structure's moment basis.

    The moment basis is the basis of the structure's originating algebra as it
    acts on the structure's space: the algebra's own basis, or its images
    through a chain of `extend_with_summand` calls.  Descriptors of structures
    with one originating algebra therefore index the same moments.
    """

    base_projections: np.ndarray          # (t, n)
    moment_tensor: np.ndarray             # (originating algebra size, t, t)
    structure: Structure = field(repr=False, default=None)

    @property
    def tuple_len(self) -> int:
        return self.base_projections.shape[0]


def type_of(s: Structure, vectors, base) -> TypeDescriptor:
    """Descriptor of tp(vectors / base): projections onto the cyclic subspace
    of the base, and the moments of the residuals against s.moment_basis."""
    vs, _ = _as_tuple(vectors, s.dim)
    he = cyclic_subspace(s, base)
    bp = np.array([project(he, v) for v in vs])
    res = vs - bp
    moments = np.einsum("dab,jb,ka->djk", s.moment_basis, res, res.conj())
    return TypeDescriptor(bp, moments, s)


def descriptor_distance(d1: TypeDescriptor, d2: TypeDescriptor) -> float:
    """Largest deviation between two descriptors.

    The structures must share an originating algebra (the same one, or one
    with an equal basis); extensions keep their parent's.  The moments of each
    residual pair (i, j) are then compared by the l2 norm over that algebra's
    basis, which a unitary change of the orthonormal basis leaves unchanged,
    and the base projections entrywise with the shorter zero-padded, since an
    extension keeps its parent's space as the leading coordinates.  Structures
    over different algebras raise ValueError.
    """
    if d1.tuple_len != d2.tuple_len:
        raise ValueError("descriptors describe tuples of different lengths")
    o1, o2 = d1.structure.origin, d2.structure.origin
    if not (o1 is o2 or np.array_equal(o1.basis, o2.basis)):
        raise ValueError("descriptors come from structures over different algebras")
    p1, p2 = d1.base_projections, d2.base_projections
    n = max(p1.shape[1], p2.shape[1])
    gap = (np.pad(p1, ((0, 0), (0, n - p1.shape[1])))
           - np.pad(p2, ((0, 0), (0, n - p2.shape[1]))))
    moments = np.linalg.norm(d1.moment_tensor - d2.moment_tensor, axis=0)
    return float(max(np.max(np.abs(gap), initial=0.0), np.max(moments, initial=0.0)))


def descriptors_close(d1: TypeDescriptor, d2: TypeDescriptor, tol: float | None = None) -> bool:
    if tol is None:
        tol = d1.structure.tol.eq_abs
    return descriptor_distance(d1, d2) <= tol


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
    acl(base); the defect is the largest projection displacement.
    """
    vs, _ = _as_tuple(vectors, s.dim)
    small = acl(s, base)
    big = acl(s, list(base) + list(extra))
    witnesses = []
    defect = 0.0
    for v in vs:
        p1 = project(small, v)
        p2 = project(big, v)
        witnesses.append((p1, p2))
        defect = max(defect, float(np.linalg.norm(p2 - p1)))
    return IndependenceReport(defect <= s.tol.eq_abs, defect, witnesses)


def _check_base_extension(base, extra, tol) -> None:
    extra = [np.asarray(f, dtype=complex).ravel() for f in extra]
    for e in base:
        e = np.asarray(e, dtype=complex).ravel()
        if not any(f.size == e.size and np.linalg.norm(e - f) <= tol for f in extra):
            raise ValueError("the extension base must contain every base vector")


def nonforking_extension(s: Structure, vectors, base, extension, seed: int | None = None):
    """Non-forking extension of tp(vectors / base) to the larger base.

    Returns (extended structure, extended tuple).  The structure gains one
    fully essential summand carrying the compression onto the joint cyclic
    subspace of the residuals; each output vector is the base projection plus
    the fresh embedded copy of its residual.  Both defining conditions (the
    projection match and the residual type match) are verified numerically
    before returning.
    """
    vs, single = _as_tuple(vectors, s.dim)
    _check_base_extension(base, extension, s.tol.eq_abs)
    base_cl = acl(s, base)
    proj = np.array([project(base_cl, v) for v in vs])
    res = vs - proj

    hr = cyclic_subspace(s, list(res))
    rot = None
    if seed is not None and hr.dim:
        rot = haar_unitary(hr.dim, np.random.default_rng([seed, 0x0F0E]))
    shat = extend_with_summand(s, hr.basis, rotation=rot)
    emb = shat.embedding
    n, k = s.dim, emb.shape[1]

    compressed = res @ emb.conj()
    vprime = np.hstack([proj, compressed])
    f_emb = [np.concatenate([np.asarray(f, dtype=complex).ravel(),
                             np.zeros(k, dtype=complex)]) for f in extension]

    ext_cl = acl(shat, f_emb)
    tol = s.tol.eq_abs
    for j in range(vs.shape[0]):
        want = np.concatenate([proj[j], np.zeros(k, dtype=complex)])
        got = project(ext_cl, vprime[j])
        if np.linalg.norm(got - want) > 100 * tol * max(1.0, np.linalg.norm(vs[j])):
            raise ToleranceBreach(
                f"non-forking projection condition failed by {np.linalg.norm(got - want):.2e}")
    d_old = type_of(s, res, base)
    residual_new = vprime - np.array([project(ext_cl, w) for w in vprime])
    d_new = type_of(shat, residual_new, f_emb)
    gap = descriptor_distance(d_old, d_new)
    if gap > 100 * tol * max(1.0, float(np.max(np.abs(vs)))):
        raise ToleranceBreach(f"residual type condition failed by {gap:.2e}")
    if single:
        return shat, vprime[0]
    return shat, vprime


def canonical_base(s: Structure, vectors, base):
    """Canonical base of tp(vectors / base): projections onto the base's cyclic subspace."""
    vs, single = _as_tuple(vectors, s.dim)
    he = cyclic_subspace(s, base)
    out = np.array([project(he, v) for v in vs])
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
    stationary part is exactly ||residual|| / sqrt(k).  The copies are built
    in one k-fold direct sum (identical to iterating the extension); copy
    orthogonality and the compression isometry are verified numerically.
    """
    if k < 1:
        raise ValueError("the copy count must be at least 1")
    v = np.asarray(v, dtype=complex).ravel()
    base_cl = acl(s, base)
    p = project(base_cl, v)
    r = v - p
    hr = cyclic_subspace(s, [r])
    b = hr.basis
    size = b.shape[1]
    rc = b.conj().T @ r
    if abs(np.linalg.norm(rc) - np.linalg.norm(r)) > 100 * s.tol.eq_abs * max(1.0, np.linalg.norm(r)):
        raise ToleranceBreach("residual compression is not isometric")
    if invariance_defect(s.algebra.basis, b) > 100 * s.tol.eq_abs:
        raise ToleranceBreach("residual cyclic subspace is not invariant under the algebra")

    n = s.dim
    total = n + k * size
    copies = np.zeros((k, total), dtype=complex)
    copies[:, :n] = p
    for i in range(k):
        copies[i, n + i * size: n + (i + 1) * size] = rc
    tails = copies[:, n:]
    gram = tails @ tails.conj().T
    expect = np.linalg.norm(r) ** 2 * np.eye(k)
    if np.max(np.abs(gram - expect)) > 100 * s.tol.eq_abs * max(1.0, np.linalg.norm(r) ** 2):
        raise ToleranceBreach("independent copies are not orthonormal")
    average = copies.mean(axis=0)
    limit = np.concatenate([p, np.zeros(k * size, dtype=complex)])
    distance = float(np.linalg.norm(average - limit))
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
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be strictly positive")
    vs, single = _as_tuple(vectors, s.dim)
    pool = [np.asarray(f, dtype=complex).ravel() for f in pool]
    full_cl = acl(s, pool)
    targets = np.array([project(full_cl, v) for v in vs])

    chosen: list[int] = []

    def worst_defect(idx_list):
        sub_cl = acl(s, [pool[i] for i in idx_list])
        return max(
            (float(np.linalg.norm(targets[j] - project(sub_cl, vs[j])))
             for j in range(vs.shape[0])),
            default=0.0,
        ), sub_cl

    current, sub_cl = worst_defect(chosen)
    while current >= epsilon:
        best = None
        for i in range(len(pool)):
            if i in chosen:
                continue
            cand_cl = acl(s, [pool[j] for j in chosen] + [pool[i]])
            if cand_cl.dim <= sub_cl.dim:
                continue
            score = max(
                float(np.linalg.norm(targets[j] - project(cand_cl, vs[j])))
                for j in range(vs.shape[0]))
            if best is None or score < best[0] - 1e-15:
                best = (score, i)
        if best is None:
            break
        chosen.append(best[1])
        current, sub_cl = worst_defect(chosen)

    replacements = vs - targets + np.array([project(sub_cl, v) for v in vs])
    out = replacements[0] if single else replacements
    return FiniteBase(list(chosen), [pool[i] for i in chosen], out, current)

"""Hilbert-space structures: an algebra action with a declared discrete part.

A Structure couples a matrix *-algebra acting on C^n with an algebra-invariant
"discrete" subspace H_d and a bag of named vectors.  Every closure and
independence computation downstream is taken relative to the declared
H_d / H_e split.  Closures are solved on the algebra's Wedderburn blocks,
never against its basis: dcl(E) = Q (+)(C^{k_i} (x) R_i), R_i the row span of
E's block coordinates, and acl(E) = dcl(E) + H_d block by block, with H_d's
own rows S_i solved once per structure.  A block that H_d fills is taken
whole, one it misses keeps R_i, and only a block it meets in part joins
[R_i | S_i], in one batched SVD, so no closure makes an n-dimensional SVD.
On a multiplicity-free decomposition (every m_i = 1) a block's one singular
value is its norm, and the closures are columns of Q, with no SVD at all;
the forking queries then project by a mask over them (_closure_basis).
Block rows also serve as closures themselves, joined block by block
(_join_rows) and projected in block coordinates (_tuple_rows).
"""
from __future__ import annotations

import numpy as np

from .algebra import StarAlgebra, generate_algebra, span_algebra
from .linalg import (
    Subspace,
    ToleranceBreach,
    _require_finite,
    block_diag,
    orthonormalize,
    project,
    set_svds,
    stack_svds,
    subspace_intersection,
    zero_subspace,
)


class Structure:
    """A finite-dimensional representation with named vectors and a discrete part."""

    def __init__(self, algebra: StarAlgebra, discrete: Subspace | None = None,
                 vectors: dict | None = None, embedding: np.ndarray | None = None):
        self.algebra = algebra
        self._discrete_blocks = None  # H_d on the blocks, kept by _discrete_blocks
        self.tol = algebra.tol
        n = algebra.dim
        self.discrete = discrete if discrete is not None else zero_subspace(n, self.tol)
        self.vectors = {str(k): np.asarray(v, dtype=complex).ravel()
                        for k, v in (vectors or {}).items()}
        # for substructures: orthonormal columns embedding this space into the parent
        self.embedding = embedding
        # type moments are taken against the images, acting here, of the basis of the
        # originating algebra; extend_with_summand carries both over from its parent
        self.origin = algebra
        self.moment_basis = algebra.basis
        self._validate()

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def is_trivial(self) -> bool:
        return self.dim == 0

    def essential(self) -> Subspace:
        return self.discrete.perp()

    def vector(self, name: str) -> np.ndarray:
        if name not in self.vectors:
            raise KeyError(f"structure has no vector named {name!r}")
        return self.vectors[name]

    def __repr__(self):
        return (f"Structure(dim={self.dim}, algebra_size={self.algebra.size}, "
                f"discrete_dim={self.discrete.dim}, vectors={sorted(self.vectors)})")

    def _validate(self):
        n = self.dim
        if self.discrete.ambient_dim != n:
            raise ValueError(
                f"discrete subspace lives in dimension {self.discrete.ambient_dim}, "
                f"structure has dimension {n}")
        for name, v in self.vectors.items():
            if v.size != n:
                raise ValueError(f"vector {name!r} has length {v.size}, expected {n}")
            _require_finite(v, f"vector {name!r}")
        if n == 0:
            return
        if not self.algebra.contains(np.eye(n, dtype=complex)):
            raise ValueError("the acting algebra does not contain the identity")
        defect = algebra_invariance_defect(self.algebra, self.discrete.basis)
        if not self.tol.certified(defect, 1.0):
            raise ValueError(
                "declared discrete subspace is not invariant under the algebra "
                f"(relative residual {defect:.2e})")


def invariance_defect(mats: np.ndarray, b: np.ndarray) -> float:
    """Largest ||a b - b b^H a b|| / ||a|| over the nonzero matrices a.

    Zero exactly when span(b) (orthonormal columns) is invariant under every a.
    """
    img = mats @ b
    resid = np.linalg.norm(img - b @ (b.conj().T @ img), axis=(1, 2))
    norms = np.linalg.norm(mats, axis=(1, 2))
    return float(np.max(resid[norms > 0] / norms[norms > 0], initial=0.0))


def algebra_invariance_defect(algebra: StarAlgebra, b: np.ndarray) -> float:
    """d times invariance_defect at the algebra's probes x, y (see algebra.py);
    0, with no probes drawn, when b has no columns."""
    return algebra.size * invariance_defect(algebra.probes()[:2], b) if b.shape[1] else 0.0


def cyclic_subspace(s: Structure, vectors) -> Subspace:
    """Closed span of all algebra images of the given vectors (the dcl of the set).

    On the blocks A = Q (+)(M_{k_i} (x) I_{m_i}) Q^H it is Q (+)(C^{k_i} (x) R_i),
    R_i the row span of the (t k_i) x m_i stack of the vectors' blocks
    (_block_rows).
    """
    return _closure(s, _vector_rows(s, vectors))


def acl(s: Structure, vectors) -> Subspace:
    """Algebraic closure: the cyclic subspace joined with the discrete part,
    block by block (_acl_rows)."""
    return _acl(s, _vector_rows(s, vectors))


def closures(s: Structure, vectors) -> tuple[Subspace, Subspace]:
    """(dcl, acl) of the set from one solve of its block rows."""
    rows = _vector_rows(s, vectors)
    dcl = _closure(s, rows)
    return dcl, dcl if s.discrete.dim == 0 else _acl(s, rows)


def _vector_rows(s: Structure, vectors):
    """_block_rows of the vectors, or None for an empty set or space."""
    vecs = [np.asarray(v, dtype=complex).ravel() for v in vectors]
    n = s.dim
    for v in vecs:
        if v.size != n:
            raise ValueError(f"vector of length {v.size} does not fit dimension {n}")
    if not vecs or n == 0:
        return None
    return _block_rows(s.algebra.block_decomposition(),
                       _require_finite(np.array(vecs), "span input"), s.tol)


def _block_rows(dec, vs: np.ndarray, tol):
    """Orthonormal bases of the row spans R_i of dcl(rows of vs), block by
    block: (u, keep), u an (nb, M, M) stack whose kept columns (keep, (nb, M))
    span each R_i in C^{m_i}, zero-padded to M, the largest m_i.

    The images of the vectors under a trace-orthonormal basis of the algebra
    have singular values sqrt(n / m_i) sigma(stack i), each k_i times, so
    the stacks so scaled are cut as the images would be, at rank_rel times
    the largest over all blocks.  Where every m_i = 1, block i is k_i
    consecutive coordinates of Q^H v and its one singular value their norm
    (the sqrt(n) is common to all): one GEMM and one reduction, with u = 1.
    Otherwise one GEMM against the padded conjugate copy of Q gives every
    stack, transposed, and one batched SVD ranks them.
    """
    unit = dec._unit_blocks
    if unit is not None:
        # vs may also be a (P, t, n) stack of sets, each cut on its own
        y = vs @ dec.change_of_basis.conj()
        norms = np.sqrt(np.add.reduceat((np.abs(y) ** 2).sum(-2), unit[0], axis=-1))
        keep = norms > tol.rank_cut(norms.max(-1, keepdims=True, initial=0.0))
        return np.ones(norms.shape + (1, 1)), keep[..., None]
    q, scaled, _ = dec._padded
    nb, mm, _, n = q.shape
    # [i, j, (a, v)]: sqrt(n / m_i) times entry (a, j) of vector v's block i
    stack = (scaled.reshape(-1, n) @ vs.T).reshape(nb, mm, -1)
    [(u, _, _, keep)] = stack_svds([stack], tol)
    return _padded_rows(u, keep, mm) if u.shape[2] < mm else (u, keep)


def _padded_rows(u: np.ndarray, keep: np.ndarray, mm: int):
    """(u, keep) with zero columns added up to M = mm, for stacks narrower
    than M (K t < M), so that every (u, keep) has one shape."""
    u = np.concatenate([u, np.zeros(u.shape[:-1] + (mm - u.shape[-1],))], axis=-1)
    keep = np.concatenate([keep, np.zeros(keep.shape[:-1] + (mm - keep.shape[-1],), dtype=bool)],
                          axis=-1)
    return u, keep


def _closure(s: Structure, rows) -> Subspace:
    """The subspace Q (+)(C^{k_i} (x) R_i) of block rows (u, keep), or the
    zero subspace for None: on a multiplicity-free decomposition the kept
    blocks' columns of Q, else the basis Q (e_a (x) w_ir) of the kept
    columns w_ir of u, from one batched product with the padded Q."""
    if rows is None:
        return zero_subspace(s.dim, s.tol)
    u, keep = rows
    dec = s.algebra.block_decomposition()
    unit = dec._unit_blocks
    if unit is not None:
        return Subspace(s.dim, dec.change_of_basis[:, np.repeat(keep[:, 0], unit[1])], s.tol)
    q, _, inside = dec._padded
    nb, mm, kk, n = q.shape
    # [i, r, a]: Q (e_a (x) w_ir), w_ir the r-th column of u's block i
    basis = (u.swapaxes(1, 2) @ q.reshape(nb, mm, -1)).reshape(nb, -1, kk, n)
    return Subspace(n, basis[keep[:, :, None] & inside].T, s.tol)


def _acl(s: Structure, rows) -> Subspace:
    """acl from the dcl's block rows: the discrete part itself when the dcl
    is zero, the dcl when the discrete part is, else _acl_rows."""
    if rows is None or not rows[1].any():
        return s.discrete
    if s.discrete.dim == 0:
        return _closure(s, rows)
    return _closure(s, _acl_rows(s, *rows))


def _discrete_blocks(s: Structure):
    """The discrete part's block rows S_i (_block_rows of its basis), with
    masks of the blocks it fills (S_i = C^{m_i}) and of those it meets only
    in part: (full, partial, u, keep).  H_d is invariant (Structure checks
    it), so these are its own rows.  Solved on the first call and kept on s,
    keyed to its discrete part and algebra; on a multiplicity-free
    decomposition every S_i is all or nothing, decided by a norm."""
    cached = s._discrete_blocks
    if cached is None or cached[0] is not s.discrete or cached[1] is not s.algebra:
        dec = s.algebra.block_decomposition()
        u, keep = _block_rows(dec, s.discrete.basis.T, s.tol)
        rank, m = keep.sum(1), np.array([m for _, m in dec.blocks])
        cached = s._discrete_blocks = (s.discrete, s.algebra, rank == m,
                                       (rank > 0) & (rank < m), u, keep)
    return cached[2:]


def _acl_rows(s: Structure, u: np.ndarray, keep: np.ndarray):
    """Block rows of acl = dcl + H_d from those of dcl, R_i + S_i: S_i where
    H_d fills block i, R_i where it misses it, and where it meets it in part
    the range of [R_i | S_i], one batched SVD over those blocks.

    H_d is invariant, so the n-dimensional join of the two orthonormal bases
    has the singular values of [R_i | S_i] over the blocks, each k_i times:
    1 where one of them is zero, sqrt 2 on R_i where S_i is everything, and
    the partial blocks' own.  Their SVD is cut at rank_rel times the largest
    of those, as the n-dimensional join would cut it.
    """
    full, partial, du, dkeep = _discrete_blocks(s)
    rows = np.where(full[:, None, None], du, u)
    kept = np.where(full[:, None], dkeep, keep)
    if partial.any():
        join = np.concatenate([u[partial] * keep[partial, None, :],
                               du[partial] * dkeep[partial, None, :]], axis=2)
        top = np.sqrt(2.0) if (full & keep.any(1)).any() else 1.0
        [(ju, _, _, jkeep)] = stack_svds([join], s.tol, top=top)
        rows[partial], kept[partial] = ju, jkeep
    return rows, kept


def _closure_basis(s: Structure, rows, discrete: bool = False):
    """What linalg.project projects onto the closure of block rows with (dcl,
    or acl with `discrete`).  On a multiplicity-free decomposition it is Q
    with the columns outside the closure zeroed, which projects as
    Q(mask o Q^H v): no Subspace is built, as BlockDecomposition's unitarity
    certificate bounds the Gram of every subset of Q's columns.  On any
    other, the Subspace _closure or _acl builds."""
    dec = s.algebra.block_decomposition()
    unit = dec._unit_blocks
    if unit is None:
        return _acl(s, rows) if discrete else _closure(s, rows)
    kept = np.zeros(unit[1].size, dtype=bool) if rows is None else rows[1][:, 0]
    if discrete and s.discrete.dim:
        kept = kept | _discrete_blocks(s)[0]
    return dec.change_of_basis * np.repeat(kept, unit[1])


def _closure_bases(s: Structure, vectors):
    """(dcl, acl) of the set as _closure_basis gives them, from one solve of
    its block rows."""
    rows = _vector_rows(s, vectors)
    dcl = _closure_basis(s, rows)
    return dcl, dcl if s.discrete.dim == 0 else _closure_basis(s, rows, discrete=True)


def _project_leading(closure, vs: np.ndarray, n: int) -> np.ndarray:
    """Projection of the rows of vs, in an extension of an n-dimensional s by
    a summand, onto the closure there of a set with no summand part, from
    its closure in s: the projection of their leading n coordinates,
    zero-padded, as the extension acts on them as s does and its discrete
    part is s's, padded."""
    out = np.zeros_like(vs)
    out[:, :n] = project(closure, vs[:, :n])
    return out


def _acl_block_rows(s: Structure, vectors):
    """Block rows (u, keep) of acl of the set, shaped as _block_rows shapes
    them (M = 1 on a multiplicity-free decomposition), none kept for an
    empty set in a structure with no discrete part."""
    rows = _vector_rows(s, vectors)
    if s.discrete.dim:
        return _discrete_blocks(s)[2:] if rows is None else _acl_rows(s, *rows)
    if rows is None:
        dec = s.algebra.block_decomposition()
        nb = len(dec.blocks)
        mm = 1 if dec._unit_blocks is not None else max(m for _, m in dec.blocks)
        rows = np.zeros((nb, mm, mm)), np.zeros((nb, mm), dtype=bool)
    return rows


def _each_rows(s: Structure, vs: np.ndarray):
    """dcl block rows of each row of vs alone, stacked as (P, nb, M, M) u and
    (P, nb, M) keep, from one solve: _block_rows of each, in one batched SVD
    that cuts each vector's stacks on their own (linalg.set_svds)."""
    dec = s.algebra.block_decomposition()
    if dec._unit_blocks is not None:
        return _block_rows(dec, vs[:, None, :], s.tol)
    q, scaled, _ = dec._padded
    nb, mm, kk, n = q.shape
    # [p, i, j, a]: sqrt(n / m_i) times entry (a, j) of vector p's block i
    u, _, _, keep = set_svds((vs @ scaled.reshape(-1, n).T).reshape(-1, nb, mm, kk), s.tol)
    return _padded_rows(u, keep, mm) if kk < mm else (u, keep)


def _join_rows(s: Structure, a, b):
    """Block rows of R_i + R'_i from one set of block rows (u, keep), a, and
    each set of a stack of them, b.  On a multiplicity-free decomposition
    every R_i is 0 or C^1, so the keeps are OR-ed.  Otherwise a block where
    one side has no rows takes the other's, and the blocks where both do
    take the range of [R_i | R'_i], one batched SVD over all of them.  The
    n-dimensional join of the two orthonormal closures has those blocks'
    singular values, each k_i times, and 1 on the one-sided blocks, so its
    largest lies in [1, sqrt 2] and the SVD is cut at rank_rel times the
    largest of 1 and its own.  The SVD's rows are checked orthonormal
    (_check_rows)."""
    (ua, ka), (ub, kb) = a, b
    if s.algebra.block_decomposition()._unit_blocks is not None:
        keep = ka | kb
        return np.ones(keep.shape + (1,)), keep
    has_a, has_b = ka.any(-1), kb.any(-1)
    u = np.where(has_a[:, None, None], ua, ub)
    keep = np.where(has_a[:, None], ka, kb)
    both = has_a & has_b
    if both.any():
        c, i = both.nonzero()
        join = np.concatenate([ua[i] * ka[i][:, None, :], ub[c, i] * kb[c, i][:, None, :]],
                              axis=2)
        [(ju, _, _, jkeep)] = stack_svds([join], s.tol, top=1.0)
        _check_rows(ju, jkeep, s.tol)
        u[both], keep[both] = ju, jkeep
    return u, keep


def _check_rows(u: np.ndarray, keep: np.ndarray, tol) -> None:
    """ToleranceBreach unless the kept columns of each stacked u are
    orthonormal: their Gram against I, judged by certified."""
    w = u * keep[..., None, :]
    gram = w.conj().swapaxes(-1, -2) @ w - keep[..., None] * np.eye(keep.shape[-1])
    if gram.size and not tol.certified(np.abs(gram).max(), 1.0):
        raise ToleranceBreach("block rows are not orthonormal")


def _tuple_rows(s: Structure, vs: np.ndarray) -> np.ndarray:
    """The rows of vs in block coordinates, as block rows project them: an
    (nb, K, t, M) stack whose [i, a, v] is row a of vector v's block i read as
    a k_i x m_i matrix, zero past k_i and m_i, so that linalg.project onto
    the kept columns of a block's u projects onto Q(C^{k_i} (x) R_i).  On a
    multiplicity-free decomposition, where a closure takes each block whole
    or not at all, the (nb, t) squared norms of the blocks instead."""
    dec = s.algebra.block_decomposition()
    unit = dec._unit_blocks
    if unit is not None:
        y = vs @ dec.change_of_basis.conj()
        return np.add.reduceat(y.real ** 2 + y.imag ** 2, unit[0], axis=1).T
    q = dec._padded[0]
    nb, mm, kk, n = q.shape
    y = (q.reshape(-1, n) @ vs.conj().T).conj()
    return y.reshape(nb, mm, kk, -1).transpose(0, 2, 3, 1)


def _from_rows(s: Structure, rows: np.ndarray) -> np.ndarray:
    """The inverse of _tuple_rows off a multiplicity-free decomposition: the
    (t, n) vectors with the given block coordinates."""
    q = s.algebra.block_decomposition()._padded[0]
    return rows.transpose(0, 3, 1, 2).reshape(-1, rows.shape[2]).T @ q.reshape(-1, q.shape[-1])


def essential_discrete_parts(s: Structure, v: np.ndarray):
    """Split v = v_e + v_d along the declared essential/discrete decomposition."""
    v = np.asarray(v, dtype=complex).ravel()
    if v.size != s.dim:
        raise ValueError(f"vector of length {v.size} does not fit dimension {s.dim}")
    v_d = project(s.discrete, v)
    return v - v_d, v_d


def _summand_images(mats: np.ndarray, b: np.ndarray) -> np.ndarray:
    """blkdiag(x, b^H x b) for each matrix x of the stack."""
    n, k = b.shape
    out = np.zeros((len(mats), n + k, n + k), dtype=complex)
    out[:, :n, :n] = mats
    out[:, n:, n:] = b.conj().T @ mats @ b
    return out


def direct_sum(s1: Structure, s2: Structure) -> Structure:
    """Direct sum of two structures carrying the same abstract algebra.

    Generator i of s2 acts as the second summand of generator i of s1; the
    summed algebra is generated by the block-diagonal joins.  Vectors of s1
    are re-exported as "a.<name>", those of s2 as "b.<name>".
    """
    g1, g2 = s1.algebra.generators, s2.algebra.generators
    if len(g1) != len(g2):
        raise ValueError(f"generator count mismatch: {len(g1)} versus {len(g2)}")
    n1, n2 = s1.dim, s2.dim
    n = n1 + n2
    joined = [block_diag(a, b) for a, b in zip(g1, g2)]
    algebra = generate_algebra(joined, dim=n, tol=s1.tol)
    d1, d2 = s1.discrete.basis, s2.discrete.basis
    disc = np.zeros((n, d1.shape[1] + d2.shape[1]), dtype=complex)
    disc[:n1, : d1.shape[1]] = d1
    disc[n1:, d1.shape[1]:] = d2
    vectors = {}
    for name, v in s1.vectors.items():
        vectors[f"a.{name}"] = np.concatenate([v, np.zeros(n2, dtype=complex)])
    for name, v in s2.vectors.items():
        vectors[f"b.{name}"] = np.concatenate([np.zeros(n1, dtype=complex), v])
    return Structure(algebra, Subspace(n, disc, s1.tol), vectors)


def cyclic_substructure(s: Structure, v: np.ndarray) -> Structure:
    """The subrepresentation generated by v, compressed to its own coordinates.

    The returned structure records the compressed v under the name "cyclic"
    and keeps the orthonormal embedding back into s as `.embedding`.  A zero
    vector yields the zero-dimensional structure.
    """
    v = np.asarray(v, dtype=complex).ravel()
    if v.size != s.dim:
        raise ValueError(f"vector of length {v.size} does not fit dimension {s.dim}")
    hv = cyclic_subspace(s, [v])
    b = hv.basis
    k = b.shape[1]
    gens = [b.conj().T @ g @ b for g in s.algebra.generators]
    if k == 0:
        algebra = span_algebra([], 0, s.tol, generators=gens)
        return Structure(algebra, zero_subspace(0, s.tol), {}, embedding=b)
    algebra = span_algebra(b.conj().T @ s.algebra.basis @ b, k, s.tol, generators=gens)
    disc = subspace_intersection(hv, s.discrete)
    disc_comp = orthonormalize((b.conj().T @ disc.basis).T, k, s.tol)
    return Structure(algebra, disc_comp, {"cyclic": b.conj().T @ v}, embedding=b)


def extend_with_summand(s: Structure, summand_basis: np.ndarray) -> Structure:
    """Adjoin a fully essential summand carrying the compression of s onto
    the invariant subspace spanned by summand_basis.

    This is the direct sum of s with its cyclic compression, in the
    coordinates the orthonormal columns of summand_basis give it.  The new
    algebra is the image of the old one under x -> blkdiag(x, b^H x b), a
    *-homomorphism because span(b) is invariant, so the image of a basis is
    already a multiplicatively closed span and no word closure is needed.
    ValueError unless b has orthonormal columns and its span is invariant
    under the algebra, checked d-scaled at the probes (algebra_invariance_defect).
    The images of s's moment basis become the moment basis of the result,
    which keeps s's originating algebra: type moments taken in either
    structure, or in any chain of extensions, index the same basis.

    The images are linearly independent, so the algebra's basis is their
    symmetric orthonormalization G^{-1/2} images by their Gram matrix G, with
    no rank to solve for.  G is well conditioned: the map is injective and
    each image keeps its preimage as a block, so G dominates the Gram matrix
    n0 I of the origin's trace-orthonormal basis (n0 the origin's dimension),
    while a compression at most doubles it: n0 I <= G <= 2^c n0 I after c
    extensions.  Its rank is certified all the same; ToleranceBreach if it
    fails.
    """
    b = Subspace(s.dim, summand_basis, s.tol).basis
    defect = algebra_invariance_defect(s.algebra, b)
    if not s.tol.certified(defect, 1.0):
        raise ValueError(
            f"summand is not invariant under the algebra (relative residual {defect:.2e})")
    n, k = s.dim, b.shape[1]
    images = _summand_images(s.moment_basis, b)
    flat = images.reshape(len(images), -1)
    w, v = np.linalg.eigh(flat @ flat.conj().T)
    if w.size and not w[0] > s.tol.rank_cut(w[-1]):
        raise ToleranceBreach(
            f"summand images are not linearly independent (Gram eigenvalues {w[0]:.2e} "
            f"against {w[-1]:.2e})")
    basis = np.sqrt(n + k) * ((v / np.sqrt(w)) @ v.conj().T @ flat)
    gens = s.algebra.generators
    gens = _summand_images(np.array(gens, dtype=complex).reshape(len(gens), n, n), b)
    algebra = StarAlgebra(n + k, basis, list(gens), s.tol, validate=False)
    d1 = s.discrete.basis
    disc = np.zeros((n + k, d1.shape[1]), dtype=complex)
    disc[:n, :] = d1
    vectors = {f"a.{name}": np.concatenate([v, np.zeros(k, dtype=complex)])
               for name, v in s.vectors.items()}
    out = Structure(algebra, Subspace(n + k, disc, s.tol), vectors, embedding=b)
    out.origin = s.origin
    out.moment_basis = images
    return out

"""Hilbert-space structures: an algebra action with a declared discrete part.

A Structure couples a matrix *-algebra acting on C^n with a "discrete"
subspace H_d and a bag of named vectors.  Every closure and independence
computation downstream is taken relative to the declared H_d / H_e split.
H_d is a sum of isotypic components, as acl of the empty set is in a model
(Structure checks it), so it fills each Wedderburn block or misses it.
Closures are solved on the blocks, never against the algebra's basis:
dcl(E) = Q (+)(C^{k_i} (x) R_i), R_i the row span of E's block coordinates,
and acl(E) takes C^{m_i} where H_d fills block i and R_i where it misses it,
so no closure makes an n-dimensional SVD.  Block rows are held in the
algebra's block groups, one (u, keep) per group, read through the group's
gather of Q (BlockDecomposition.columns).  In a group where every m_i = 1 a
block's one singular value is its norm, so its rows come with no SVD and
its closures are columns of Q; every other group makes one batched SVD per
solve.

Every closure has one solve entry and one form.  _rows solves the block
rows of one set, or of several sets stacked, in one _block_rows call, and
_closure_basis turns rows into the closure's (n, r) columns, certified by
the rows' unitarity (_check_rows).  cyclic_subspace, acl and closures wrap
those columns in a Subspace with no second Gram (Subspace._certified); the
forking queries project onto them with none built.  Block rows also serve
as closures themselves, joined block by block (_join_rows) and projected
in block coordinates (_tuple_rows).
"""
from __future__ import annotations

import numpy as np

from .algebra import (BlockDecomposition, StarAlgebra, conditional_expectation, generate_algebra,
                      span_algebra)
from .linalg import (
    Subspace,
    ToleranceBreach,
    _require_finite,
    block_diag,
    frobenius_norms,
    project,
    stack_ranges,
    zero_subspace,
)


class Structure:
    """A finite-dimensional representation with named vectors and a discrete
    part, which must be a sum of isotypic components, else ValueError: an
    invariant subspace whose projector P lies in the algebra, judged as
    ||P - E(P)||_F against ||P||_F, E the conditional expectation."""

    def __init__(self, algebra: StarAlgebra, discrete: Subspace | None = None,
                 vectors: dict | None = None, embedding: np.ndarray | None = None):
        self._fields(algebra, discrete, vectors, embedding)
        self._validate()

    def _fields(self, algebra, discrete, vectors, embedding):
        """Every field __init__ sets, with nothing validated: extend_with_summand
        fills a Structure so, having certified it from its parent."""
        self.algebra = algebra
        self._discrete_blocks = None  # H_d on the blocks, kept by _discrete_blocks
        self.tol = algebra.tol
        n = algebra.dim
        self.discrete = discrete if discrete is not None else zero_subspace(n, self.tol)
        self.vectors = {str(k): np.asarray(v, dtype=complex).ravel()
                        for k, v in (vectors or {}).items()}
        # orthonormal columns: a substructure's space, or an extension's summand, in the parent
        self.embedding = embedding
        self.parent = None  # an extension's parent, on whose blocks its types are read

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
        # I and, for H_d != 0, its projector P, with one pass over the basis
        b = self.discrete.basis
        mats = np.zeros((2 if b.shape[1] else 1, n, n), dtype=complex)
        mats[0].reshape(-1)[::n + 1] = 1
        if b.shape[1]:
            np.matmul(b, b.conj().T, out=mats[1])
        off = frobenius_norms(mats - conditional_expectation(mats, self.algebra))
        if not self.tol.close(off[0], np.sqrt(n)):
            raise ValueError("the acting algebra does not contain the identity")
        defect = algebra_invariance_defect(self.algebra, b)
        if not self.tol.certified(defect, 1.0):
            raise ValueError(
                "declared discrete subspace is not invariant under the algebra "
                f"(relative residual {defect:.2e})")
        if b.shape[1]:
            _require_sum_of_classes(off[1], b.shape[1], self.tol,
                                    "its projector lies off the algebra")


def _require_sum_of_classes(defect: float, dim: int, tol, how: str) -> None:
    """ValueError unless a discrete part of dimension dim is a sum of isotypic
    components, its defect certified at sqrt(dim)."""
    scale = np.sqrt(dim)
    if not tol.certified(defect, scale):
        raise ValueError("declared discrete subspace is not a sum of isotypic components: "
                         f"{how} (relative residual {defect / scale:.2e})")


def invariance_defect(mats: np.ndarray, b: np.ndarray, norms: np.ndarray | None = None) -> float:
    """Largest ||a b - b b^H a b|| / ||a|| over the nonzero matrices a, the
    Frobenius norms ||a|| given or computed.

    Zero exactly when span(b) (orthonormal columns) is invariant under every a.
    """
    img = mats @ b
    resid = frobenius_norms(img - b @ (b.conj().T @ img))
    norms = frobenius_norms(mats) if norms is None else norms
    return float(np.max(resid[norms > 0] / norms[norms > 0], initial=0.0))


def algebra_invariance_defect(algebra: StarAlgebra, b: np.ndarray) -> float:
    """d times invariance_defect at the algebra's probes x, y (see algebra.py),
    against the norms kept with them; 0, with no probes drawn, when b has no
    columns."""
    if not b.shape[1]:
        return 0.0
    return algebra.size * invariance_defect(algebra.probes()[:2], b, algebra.probe_norms()[:2])


def cyclic_subspace(s: Structure, vectors) -> Subspace:
    """Closed span of all algebra images of the given vectors (the dcl of the set).

    On the blocks A = Q (+)(M_{k_i} (x) I_{m_i}) Q^H it is Q (+)(C^{k_i} (x) R_i),
    R_i the row span of the (t k_i) x m_i stack of the vectors' blocks
    (_block_rows).
    """
    [rows] = _rows(s, vectors)
    return Subspace._certified(s.dim, _closure_basis(s, rows), s.tol)


def acl(s: Structure, vectors) -> Subspace:
    """Algebraic closure: the cyclic subspace and the blocks the discrete part
    fills (_acl_rows); the discrete part itself for an empty set."""
    [rows] = _rows(s, vectors)
    if rows is None:
        return s.discrete
    return Subspace._certified(s.dim, _closure_basis(s, rows, discrete=True), s.tol)


def closures(s: Structure, vectors) -> tuple[Subspace, Subspace]:
    """(dcl, acl) of the set from one solve of its block rows."""
    [rows] = _rows(s, vectors)
    dcl = Subspace._certified(s.dim, _closure_basis(s, rows), s.tol)
    if rows is None:
        return dcl, s.discrete
    return dcl, dcl if not s.discrete.dim else Subspace._certified(
        s.dim, _closure_basis(s, rows, discrete=True), s.tol)


def _rows(s: Structure, *sets) -> list:
    """Block rows (_block_rows) of each set, or None for an empty set or
    space, from one solve over the non-empty sets: a lone set as its (t, n)
    vectors, several as their (P, t, n) stack, each padded with zero rows to
    the longest, t vectors.  linalg.stack_ranges cuts each set of a stack on
    its own, and zero rows change neither a rank nor a span."""
    sets = [_fitting(s, vectors) for vectors in sets]
    solved = [i for i, vecs in enumerate(sets) if vecs] if s.dim else []
    out = [None] * len(sets)
    if len(solved) == 1:
        vs = np.array(sets[solved[0]])
    elif solved:
        vs = np.zeros((len(solved), max(len(sets[i]) for i in solved), s.dim), dtype=complex)
        for j, i in enumerate(solved):
            vs[j, :len(sets[i])] = sets[i]
    else:
        return out
    rows = _block_rows(s.algebra.block_decomposition(), _require_finite(vs, "span input"), s.tol)
    for j, i in enumerate(solved):
        out[i] = rows if vs.ndim == 2 else [(u[j], keep[j]) for u, keep in rows]
    return out


def _fitting(s: Structure, vectors) -> list:
    """The vectors as flat complex arrays, ValueError unless each has s's
    dimension."""
    vecs = [np.asarray(v, dtype=complex).ravel() for v in vectors]
    for v in vecs:
        if v.size != s.dim:
            raise ValueError(f"vector of length {v.size} does not fit dimension {s.dim}")
    return vecs


def _block_rows(dec, vs: np.ndarray, tol):
    """Orthonormal bases of the row spans R_i of dcl(rows of vs), block by
    block: one (u, keep) per block group, u a (c, M, M) stack whose kept
    columns (keep, (c, M)) span each R_i in C^{m_i}, zero-padded to M, the
    group's largest m_i.  vs may also be a (P, t, n) stack of sets, each cut
    on its own, for (P, c, M, M) u and (P, c, M) keep.

    The images of the vectors under a trace-orthonormal basis of the algebra
    have singular values sqrt(n / m_i) sigma(stack i), each k_i times, so
    the stacks so scaled are cut as the images would be, at rank_rel times
    the largest over all blocks.  One GEMM per group against the scaled
    conjugate gather of Q (BlockDecomposition.columns) gives its stacks,
    transposed, and linalg.stack_ranges ranks them: by norms in a group
    where every m_i = 1, whose u is then 1, else by one batched SVD.
    """
    return stack_ranges([(scaled.reshape(-1, scaled.shape[-1]) @ vs.swapaxes(-1, -2)).reshape(
        vs.shape[:-2] + scaled.shape[:2] + (-1,)) for _, scaled in dec.columns], tol)


def _columns(dec, rows) -> np.ndarray:
    """The (n, r) orthonormal basis of Q (+)(C^{k_i} (x) R_i) for block rows
    (u, keep): Q (e_a (x) w_ir) for the kept columns w_ir of u, one batched
    product per group with its gather of Q, or in a group where every
    m_i = 1 (u = 1) the gathered columns of Q themselves."""
    parts = []
    for g, (q, _), (u, keep) in zip(dec.groups, dec.columns, rows):
        c, mm, kk, n = q.shape
        # [i, r, a]: Q (e_a (x) w_ir), w_ir the r-th column of u's block i
        basis = q if mm == 1 else (u.swapaxes(1, 2) @ q.reshape(c, mm, -1)).reshape(c, -1, kk, n)
        parts.append(basis[keep[:, :, None] & g.rows[:, None, :]])
    return (parts[0] if len(parts) == 1 else np.concatenate(parts)).T


def _discrete_blocks(s: Structure):
    """(full, u, keep) per group: full marks the blocks the discrete part
    fills, and u = I with keep their m_i rows are its block rows.  Its squared
    norm on block i is k_i m_i or 0 (Structure), and a block is filled unless
    that is certified zero at k_i m_i.  Read on the first call and kept on s,
    keyed to its discrete part and algebra."""
    cached = s._discrete_blocks
    if cached is None or cached[0] is not s.discrete or cached[1] is not s.algebra:
        dec = s.algebra.block_decomposition()
        blocks = []
        for g, y in zip(dec.groups, dec.coordinates(s.discrete.basis)):
            full = ~s.tol.certified((np.abs(y) ** 2).sum((1, 2, 3)), g.k * g.m)
            mm = y.shape[2]
            blocks.append((full, np.eye(mm)[None].repeat(full.size, 0),
                           full[:, None] & (np.arange(mm) < g.m[:, None])))
        cached = s._discrete_blocks = (s.discrete, s.algebra, blocks)
    return cached[2]


def _acl_rows(s: Structure, rows):
    """Block rows of acl = dcl + H_d from those of dcl: C^{m_i} where H_d
    fills block i, R_i where it misses it (_discrete_blocks).  For None, an
    empty set, they are H_d's own: C^{m_i} where it fills block i, and none
    elsewhere."""
    blocks = _discrete_blocks(s)
    if rows is None:
        return [(u, keep) for _, u, keep in blocks]
    return [(np.where(full[:, None, None], du, u), np.where(full[:, None], dkeep, keep))
            for (full, du, dkeep), (u, keep) in zip(blocks, rows)]


def _closure_basis(s: Structure, rows, discrete: bool = False) -> np.ndarray:
    """The (n, r) orthonormal columns of the closure of block rows (dcl, or
    acl with `discrete`), the one form every closure takes (_columns): the
    rows are checked orthonormal (_check_rows), as BlockDecomposition's
    unitarity certificate bounds the columns' Gram by theirs.  For None, an
    empty set, the dcl has no columns and the acl is the discrete part's
    basis."""
    if discrete and s.discrete.dim:
        if rows is None:
            return s.discrete.basis
        rows = _acl_rows(s, rows)
    if rows is None:
        return np.zeros((s.dim, 0), dtype=complex)
    _check_rows(rows, s.tol)
    return _columns(s.algebra.block_decomposition(), rows)


def _project_leading(closure, vs: np.ndarray, n: int) -> np.ndarray:
    """Projection of the rows of vs, in an extension of an n-dimensional s by
    a summand, onto the closure there of a set with no summand part, from
    its closure in s: the projection of their leading n coordinates,
    zero-padded, as the extension acts on them as s does and its discrete
    part is s's, padded."""
    out = np.zeros_like(vs)
    out[:, :n] = project(closure, vs[:, :n])
    return out


def _join_rows(s: Structure, a, b):
    """Block rows of R_i + R'_i from one set of block rows (u, keep), a, and
    each set of a stack of them, b.  In a group where every m_i = 1 each R_i
    is 0 or C^1, so the keeps are OR-ed.  In any other, a block where one
    side has no rows takes the other's, and the blocks where both do take
    the range of [R_i | R'_i], one batched SVD per group.  The
    n-dimensional join of the two orthonormal closures has
    those blocks' singular values, each k_i times, and 1 on the one-sided
    blocks, so its largest lies in [1, sqrt 2] and the joins are cut at
    rank_rel times the largest of 1 and their own.  The joins' rows are
    checked orthonormal (_check_rows)."""
    out, joins, joined = [], [], []
    for (ua, ka), (ub, kb) in zip(a, b):
        if ua.shape[-1] == 1:  # every R_i is 0 or C^1, and u = 1
            out.append((ub, ka | kb))
            continue
        has_a = ka.any(-1)
        out.append((np.where(has_a[..., None, None], ua, ub), np.where(has_a[..., None], ka, kb)))
        both = has_a & kb.any(-1)
        if both.any():
            c, i = both.nonzero()
            joins.append(np.concatenate([ua[i] * ka[i][:, None, :],
                                         ub[c, i] * kb[c, i][:, None, :]], axis=2))
            joined.append(out[-1] + (both,))
    ranges = stack_ranges(joins, s.tol, top=1.0)
    _check_rows(ranges, s.tol)
    for (u, keep, both), (ju, jkeep) in zip(joined, ranges):
        u[both], keep[both] = ju, jkeep
    return out


def _check_rows(rows, tol) -> None:
    """ToleranceBreach unless each stacked u of block rows is unitary, as
    every u that linalg.stack_ranges gives is, so that its kept columns are
    orthonormal: its Gram against I, judged by certified.  A group where
    every m_i = 1 has u = 1, and nothing to check."""
    for u, _ in rows:
        if u.shape[-1] > 1:
            gram = u.conj().swapaxes(-1, -2) @ u - np.eye(u.shape[-1])
            if not tol.certified(np.abs(gram).max(initial=0.0), 1.0):
                raise ToleranceBreach("block rows are not orthonormal")


def _tuple_rows(s: Structure, vs: np.ndarray):
    """The rows of vs in block coordinates, as block rows project them: one
    (c, K, t, M) stack per group whose [i, a, v] is row a of vector v's
    block i read as a k_i x m_i matrix, zero past k_i and m_i, so that
    linalg.project onto the kept columns of a block's u projects onto
    Q(C^{k_i} (x) R_i)."""
    return [y.swapaxes(-1, -2) for y in s.algebra.block_decomposition().coordinates(vs.T)]


def _from_rows(s: Structure, rows) -> np.ndarray:
    """The inverse of _tuple_rows: the (t, n) vectors with the given block
    coordinates."""
    return sum(y.transpose(0, 3, 1, 2).reshape(-1, y.shape[2]).T @ q.reshape(-1, q.shape[-1])
               for y, (q, _) in zip(rows, s.algebra.block_decomposition().columns))


def _root(s: Structure) -> Structure:
    """The structure a chain of extend_with_summand calls started from."""
    while s.parent is not None:
        s = s.parent
    return s


def _residual_grams(s: Structure, vs: np.ndarray):
    """The block Grams of the rows of vs on the blocks of s's root: one
    (c, t, t, K, K) stack per group, [i, j, l] = V_i^(j) V_i^(l)^H, V_i^(j)
    row j's block i as a k_i x m_i matrix (BlockDecomposition.columns).
    x -> b x intertwines an extension's summand with its parent, so a row
    (p, x) has the Grams of p plus those of b x, both read in the parent."""
    t = vs.shape[0]
    while s.parent is not None:
        n = s.parent.dim
        vs, s = np.concatenate([vs[:, :n], vs[:, n:] @ s.embedding.T]), s.parent
    out, xs = [], vs.conj()
    for q, _ in s.algebra.block_decomposition().columns:
        c, mm, kk, n = q.shape
        # conj of [i, (a, j), (copy, b)]: entry (a, b) of row j's block i, in each copy
        z = (xs @ q.reshape(-1, n).T).reshape(-1, t, c, mm, kk).transpose(2, 4, 1, 0, 3)
        z = z.reshape(c, kk * t, -1)
        out.append((z.conj() @ z.swapaxes(1, 2)).reshape(c, kk, t, kk, t).transpose(0, 2, 4, 1, 3))
    return out


def _residuals(vs: np.ndarray, proj: np.ndarray, tol) -> np.ndarray:
    """vs minus its projections onto a closure, row by row, each row close to
    zero at its vector's norm set to zero: that vector lies in the closure
    (Subspace.residual's rule), and its residual is round-off."""
    res = vs - proj
    res[tol.close(np.linalg.norm(res, axis=-1), np.linalg.norm(vs, axis=-1))] = 0
    return res


def essential_discrete_parts(s: Structure, v: np.ndarray):
    """Split v = v_e + v_d along the declared essential/discrete decomposition."""
    [v] = _fitting(s, [v])
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
    are re-exported as "a.<name>", those of s2 as "b.<name>".  ValueError if
    a class is discrete in one summand and essential in the other.
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

    The embedding b is the basis Q(e_a (x) w_ir) of
    dcl(v) = Q (+)(C^{k_i} (x) R_i) from v's block rows (_columns), ordered
    (group, block, r, a).  An element Q (+)(x_i (x) I_{m_i}) Q^H maps
    Q(e_a (x) w_ir) to Q(x_i e_a (x) w_ir), so on b it is (+)(I_{r_i} (x) x_i)
    over the blocks with r_i = dim R_i > 0, and the compressed algebra's
    trace-orthonormal basis is sqrt(k / r_i) (I_{r_i} (x) E_ab)
    (_compressed_basis), k = dim dcl(v): no algebra basis is read, and the
    r_i are the closure's own cut, so no rank is decided anew.  The discrete
    part dcl(v) and H_d share is the span of the columns of b in the blocks
    that H_d fills (_discrete_blocks), coordinate vectors of the compression.
    """
    [v] = _fitting(s, [v])
    [rows] = _rows(s, [v])
    b = _closure_basis(s, rows)
    k = b.shape[1]
    gens = [b.conj().T @ g @ b for g in s.algebra.generators]
    if k == 0:
        algebra = span_algebra([], 0, s.tol, generators=gens)
        return Structure(algebra, zero_subspace(0, s.tol), {}, embedding=b)
    groups = s.algebra.block_decomposition().groups
    algebra = StarAlgebra(k, _compressed_basis(groups, rows, k), gens, s.tol, validate=False)
    disc = zero_subspace(k, s.tol)
    if s.discrete.dim:  # k_i r_i columns per block
        inside = np.concatenate([np.repeat(full, g.k * keep.sum(1)) for g, (full, *_), (_, keep)
                                 in zip(groups, _discrete_blocks(s), rows)])
        disc = Subspace(k, np.eye(k, dtype=complex)[:, inside], s.tol)
    return Structure(algebra, disc, {"cyclic": b.conj().T @ v}, embedding=b)


def _compressed_basis(groups, rows, k: int) -> np.ndarray:
    """The (d, k, k) trace-orthonormal basis of (+)(I_{r_i} (x) M_{k_i}) on the
    k columns that _columns gives for block rows (u, keep): r_i copies of
    block i, each k_i consecutive columns.  Element (i, a, b) is
    sqrt(k / r_i) at (p, q) for each pair of columns p, q of one copy of
    block i, at rows a and b of it."""
    kk = np.concatenate([g.k for g in groups])
    rr = np.concatenate([keep.sum(1) for _, keep in rows])
    kk, rr = kk[rr > 0], rr[rr > 0]
    sizes = np.repeat(kk, rr)  # k_i of each copy
    copy = np.repeat(np.arange(sizes.size), sizes)  # of each column
    row = np.arange(k) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    p, q = np.nonzero(copy[:, None] == copy[None, :])
    i = np.repeat(np.arange(kk.size), rr)[copy[p]]
    out = np.zeros(((kk * kk).sum(), k, k), dtype=complex)
    out[(np.cumsum(kk * kk) - kk * kk)[i] + row[p] * kk[i] + row[q], p, q] = np.sqrt(k / rr[i])
    return out


def _extension_blocks(s: Structure, b: np.ndarray, letters: np.ndarray):
    """extend_with_summand's blocks (k_i, m_i + r_i), sorted by shape, from
    one solve of b's rows: C = Q(e_a (x) w_ir) their closure's columns, block
    i of Q' is Q's block i, zero-padded, then b^H C's, a-major.  Certified by
    Q' unitary (exactly when span(C) = span(b)) and by the block form of the
    extension's letters, as _decompose certifies; ToleranceBreach if not."""
    n, k = b.shape
    [rows] = _rows(s, b.T)
    c = _closure_basis(s, rows)
    if c.shape[1] != k:
        raise ToleranceBreach(f"the summand's closure has dimension {c.shape[1]}, not {k}")
    dec = s.algebra.block_decomposition()
    kk, mm = np.array(dec.blocks, dtype=int).reshape(-1, 2).T
    rr = np.zeros_like(kk) if rows is None else np.concatenate([keep.sum(1) for _, keep in rows])
    ww = mm + rr
    order = np.lexsort((ww, kk))
    sizes = (kk * ww)[order]
    i = np.repeat(order, sizes)  # the block of each column of Q'
    a, j = np.divmod(np.arange(n + k) - np.repeat(np.cumsum(sizes) - sizes, sizes), ww[i])
    q_at, c_at = (np.cumsum(kk * x) - kk * x for x in (mm, rr))  # each block's first column
    cols = np.where(j < mm[i], q_at[i] + a * mm[i] + j, n + c_at[i] + (j - mm[i]) * kk[i] + a)
    out = BlockDecomposition(zip(kk[order], ww[order]),
                             block_diag(dec.change_of_basis, b.conj().T @ c)[:, cols], s.tol)
    out.block_parts(letters)
    return out


def extend_with_summand(s: Structure, summand_basis: Subspace | np.ndarray) -> Structure:
    """Adjoin a fully essential summand carrying the compression of s onto
    the invariant subspace spanned by summand_basis.

    This is the direct sum of s with its cyclic compression, in the
    coordinates the orthonormal columns b of summand_basis give it.  A
    Subspace of s's dimension and tolerances (cyclic_subspace's) is taken as
    certified orthonormal; any other summand_basis is checked by Subspace.
    The new algebra is the image of the old one under
    pi(x) = blkdiag(x, b^H x b), a *-homomorphism because span(b) is
    invariant.  ValueError unless span(b) is invariant under the algebra,
    checked d-scaled at the probes (algebra_invariance_defect), or if it
    carries a class of the discrete part, which it would split.  The result
    keeps s as its parent and b as its embedding, so its types are read on
    s's blocks (_residual_grams) and compare with s's, down any chain of
    extensions.

    pi keeps x as its first block, so it is injective and the algebra's
    size is s's.  The algebra is held by its blocks (_extension_blocks),
    solved on first read from s's with no commutant: span(b) is
    Q (+)(C^{k_i} (x) R_i), R_i of dimension r_i, and
    pi(Q (+)(x_i (x) I_{m_i}) Q^H) = Q' (+)(x_i (x) I_{m_i + r_i}) Q'^H.
    Its basis is their closed form, written on first read.

    The result is certified from s, with no Structure._validate and no probe
    of the new algebra drawn, as each property _validate checks follows from
    one s has:
    - its vectors and its discrete part H_d (+) 0 are s's validated ones,
      padded with exact zeros;
    - pi is unital, so the identity is an image;
    - pi(x) maps H_d (+) 0 onto x H_d (+) 0, so s's invariance certificate
      for H_d carries over;
    - H_d (+) 0 is a sum of isotypic components of the image exactly when
      span(b) misses H_d.  The image has blocks (k_i, m_i + r_i), and H_d
      fills block i of s or misses it; where it fills it, the image's block
      holds H_d's m_i copies and the r_i of the summand, so r_i must be 0.
      This is judged on d1^H b, d1 H_d's basis, certified against
      sqrt(dim H_d) as _validate judges ||P' - E'(P')||_F, P' the projector
      of H_d (+) 0 and E' the new conditional expectation.  The new defect
      is ||d1^H b||_F^2 = sum k_i r_i over the blocks H_d fills, while
      ||P' - E'(P')||_F^2 = sum k_i m_i r_i / (m_i + r_i) <= sum k_i r_i,
      so every summand _validate refuses is refused.
    """
    n = s.dim
    if (isinstance(summand_basis, Subspace) and summand_basis.ambient_dim == n
            and summand_basis.tol == s.tol):
        b = summand_basis.basis
    else:
        b = Subspace(n, getattr(summand_basis, "basis", summand_basis), s.tol).basis
    defect = algebra_invariance_defect(s.algebra, b)
    if not s.tol.certified(defect, 1.0):
        raise ValueError(
            f"summand is not invariant under the algebra (relative residual {defect:.2e})")
    d1 = s.discrete.basis
    if d1.shape[1]:
        _require_sum_of_classes(np.linalg.norm(d1.conj().T @ b), d1.shape[1], s.tol,
                                "the summand meets it")
    k = b.shape[1]
    gens = s.algebra.generators
    gens = _summand_images(np.array(gens, dtype=complex).reshape(len(gens), n, n), b)
    algebra = StarAlgebra._of_blocks(
        n + k, s.algebra.size,
        lambda: _extension_blocks(s, b, _summand_images(s.algebra.letters(), b)),
        list(gens), s.tol)
    disc = np.zeros((n + k, d1.shape[1]), dtype=complex)
    disc[:n, :] = d1
    vectors = {f"a.{name}": np.concatenate([v, np.zeros(k, dtype=complex)])
               for name, v in s.vectors.items()}
    out = Structure.__new__(Structure)
    out._fields(algebra, Subspace(n + k, disc, s.tol), vectors, b)
    out.parent = s
    return out

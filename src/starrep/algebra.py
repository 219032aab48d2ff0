"""Unital matrix *-algebras: generation, commutant, block structure.

A StarAlgebra is a linear span of n x n complex matrices that contains the
identity and is closed under products and adjoints.  The span is carried as a
basis orthonormal under the normalized trace pairing <A, B> = Tr(B^H A) / n.
"""
from __future__ import annotations

import threading

import numpy as np

from .linalg import DEFAULT_TOL, ToleranceBreach, Tolerances, _require_finite, block_diag_kron


class DecompositionError(RuntimeError):
    """Spectral splitting failed to converge (numerically degenerate spectrum)."""


def _orthonormal_rows(flat: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Orthonormal row basis of the row span, relative SVD rank cutoff."""
    if flat.shape[0] == 0:
        return flat
    _, s, vh = np.linalg.svd(flat, full_matrices=False)
    if s.size == 0 or s[0] <= 0:
        return vh[:0]
    rank = int(np.sum(s > tol.rank_rel * s[0]))
    return vh[:rank]


def _append_to_row_basis(q: np.ndarray, candidates: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Extend the orthonormal row basis q by the span of candidate rows."""
    if candidates.shape[0] == 0:
        return q
    resid = candidates - (candidates @ q.conj().T) @ q if q.shape[0] else candidates
    norms = np.linalg.norm(resid, axis=1)
    scale = max(np.max(np.linalg.norm(candidates, axis=1)), 1.0)
    resid = resid[norms > tol.rank_rel * scale]
    if resid.shape[0] == 0:
        return q
    new_rows = _orthonormal_rows(resid, tol)
    # one re-orthogonalization pass keeps the joint basis numerically tight
    if q.shape[0]:
        new_rows = new_rows - (new_rows @ q.conj().T) @ q
        new_rows = _orthonormal_rows(new_rows, tol)
    return np.vstack([q, new_rows]) if q.shape[0] else new_rows


class StarAlgebra:
    """A unital, adjoint- and product-closed span of square complex matrices."""

    def __init__(self, dim: int, basis: np.ndarray, generators=None,
                 tol: Tolerances = DEFAULT_TOL, validate: bool = True):
        self.dim = int(dim)
        basis = _require_finite(basis, "algebra basis")
        basis = basis.reshape(0, dim, dim) if basis.size == 0 else basis.reshape(-1, dim, dim)
        self.basis = basis
        self.generators = [np.asarray(g, dtype=complex) for g in (generators or [])]
        self.tol = tol
        # reentrant: block_decomposition holds it while the decomposition calls commutant()
        self._lock = threading.RLock()
        self._commutant = None
        self._block = None
        if validate and dim > 0:
            self._validate()

    @property
    def size(self) -> int:
        """Linear dimension of the algebra as a vector space."""
        return self.basis.shape[0]

    def __repr__(self):
        return f"StarAlgebra(dim={self.dim}, size={self.size})"

    # ----- span arithmetic -------------------------------------------------

    def coefficients(self, m: np.ndarray) -> np.ndarray:
        """Trace-pairing coordinates of m against the orthonormal basis."""
        m = np.asarray(m, dtype=complex)
        if m.shape != (self.dim, self.dim):
            raise ValueError(f"expected a {self.dim}x{self.dim} matrix")
        return np.einsum("kab,ab->k", self.basis.conj(), m) / max(self.dim, 1)

    def from_coefficients(self, c: np.ndarray) -> np.ndarray:
        return np.einsum("k,kab->ab", np.asarray(c, dtype=complex), self.basis)

    def contains(self, m: np.ndarray) -> bool:
        m = np.asarray(m, dtype=complex)
        r = m - self.from_coefficients(self.coefficients(m))
        return np.linalg.norm(r) <= self.tol.eq_abs * max(1.0, np.linalg.norm(m))

    def identity(self) -> np.ndarray:
        return np.eye(self.dim, dtype=complex)

    def random_hermitian_element(self, rng: np.random.Generator) -> np.ndarray:
        c = rng.standard_normal(self.size) + 1j * rng.standard_normal(self.size)
        x = self.from_coefficients(c)
        return (x + x.conj().T) / 2

    def letters(self) -> np.ndarray:
        """The generators and their adjoints (interleaved), else the basis.

        Commuting with the letters is commuting with the algebra, and a unital
        span closed under left multiplication by them is closed under the
        algebra.
        """
        return _letters(self.generators, self.dim) if self.generators else self.basis

    def spans_equal(self, other: "StarAlgebra") -> bool:
        if self.dim != other.dim or self.size != other.size:
            return False
        qa = _orthonormal_rows(self.basis.reshape(self.size, -1), self.tol)
        fb = other.basis.reshape(other.size, -1)
        resid = fb - (fb @ qa.conj().T) @ qa
        return np.max(np.linalg.norm(resid, axis=1)) <= self.tol.eq_abs * np.sqrt(self.dim)

    # ----- structure (cached) ----------------------------------------------

    def commutant(self) -> "StarAlgebra":
        with self._lock:
            if self._commutant is None:
                self._commutant = commutant(self)
            return self._commutant

    def block_decomposition(self) -> "BlockDecomposition":
        with self._lock:
            if self._block is None:
                self._block = wedderburn_decompose(self)
            return self._block

    # ----- validation -------------------------------------------------------

    def _validate(self):
        if not self.contains(self.identity()):
            raise ValueError("algebra span does not contain the identity")
        for k in range(self.size):
            if not self.contains(self.basis[k].conj().T):
                raise ValueError("algebra span is not closed under adjoints")
        # products checked pairwise: all b_i b_j as one GEMM, rows (i, a) and
        # columns (j, c), then projected back onto the span by two more
        n, d = self.dim, self.size
        flat = self.basis.reshape(d, n * n)
        prods = self.basis.reshape(d * n, n) @ self.basis.transpose(1, 0, 2).reshape(n, d * n)
        prods = prods.reshape(d, n, d, n).transpose(0, 2, 1, 3).reshape(d * d, n * n)
        recon = (prods @ flat.conj().T / n) @ flat
        recon -= prods
        err = np.max(np.abs(recon)) if recon.size else 0.0
        scale = max(1.0, float(np.max(np.abs(self.basis))) ** 2 * self.dim)
        if err > 100 * self.tol.eq_abs * scale:
            raise ValueError("algebra span is not closed under products")


def _letters(generators, n: int) -> np.ndarray:
    g = np.array(generators, dtype=complex).reshape(-1, n, n)
    return np.stack([g, g.conj().transpose(0, 2, 1)], axis=1).reshape(-1, n, n)


def generate_algebra(generators, dim: int | None = None,
                     tol: Tolerances = DEFAULT_TOL) -> StarAlgebra:
    """Smallest unital *-algebra containing the generators, built as A''.

    A = A'' in finite dimension (von Neumann's bicommutant theorem).  A' is
    solved from the generators and their adjoints by _commutant_basis and
    split by _split; A = Q (+)(M_k (x) I_m) Q^H and A' = Q (+)(I_k (x) M_m) Q^H
    are then written in closed form, with the decomposition cached.  Certified
    by the block form of every generator and adjoint; raises
    DecompositionError after 5 fruitless seed retries.
    """
    gens = [np.asarray(g, dtype=complex) for g in generators]
    if gens:
        n = gens[0].shape[0]
        for g in gens:
            if g.ndim != 2 or g.shape != (n, n):
                raise ValueError("generators must be square matrices of equal size")
            _require_finite(g, "generator")
        if dim is not None and dim != n:
            raise ValueError(f"generators are {n}x{n}, expected dimension {dim}")
    else:
        if dim is None:
            raise ValueError("dim is required when no generators are given")
        n = int(dim)
    if n == 0:
        return StarAlgebra(0, np.zeros((0, 0, 0), dtype=complex), gens, tol, validate=False)
    letters = _letters(gens, n)

    def attempt(rng):
        fresh = StarAlgebra(n, _commutant_basis(letters, n, tol, rng), tol=tol, validate=False)
        dec = _split(fresh, rng)
        dec.block_parts(letters, check=True)
        basis, comm_basis = _closed_form_bases(dec)
        algebra = StarAlgebra(n, basis, gens, tol, validate=False)
        algebra._block = dec
        algebra._commutant = StarAlgebra(n, comm_basis, tol=tol, validate=False)
        return algebra

    return _with_seed_retries(attempt, 0, "algebra generation")


def span_algebra(mats, dim: int, tol: Tolerances = DEFAULT_TOL,
                 generators=None, validate: bool = True) -> StarAlgebra:
    """Wrap an already multiplicatively closed span as a StarAlgebra."""
    flat = np.array([np.asarray(m, dtype=complex).ravel() for m in mats])
    if flat.size == 0:
        flat = flat.reshape(0, dim * dim)
    q = _orthonormal_rows(flat, tol)
    basis = (np.sqrt(dim) * q).reshape(-1, dim, dim) if dim else q.reshape(0, dim, dim)
    return StarAlgebra(dim, basis, generators, tol, validate=validate)


def commutant(a: StarAlgebra) -> StarAlgebra:
    """All matrices commuting with the algebra.

    Solved from the algebra's letters on the eigenspaces of one seeded random
    Hermitian combination of them (_commutant_basis), then validated as a
    *-algebra by span_algebra.
    """
    rng = np.random.default_rng(0)
    return span_algebra(_commutant_basis(a.letters(), a.dim, a.tol, rng), a.dim, a.tol)


def _commutant_basis(letters: np.ndarray, n: int, tol: Tolerances,
                     rng: np.random.Generator) -> np.ndarray:
    """Trace-orthonormal basis of the matrices commuting with every letter.

    The letters must be closed under adjoints.  A matrix X commuting with them
    commutes with the Hermitian h = c.letters + (c.letters)^H for random c,
    so X is block diagonal on the eigenvalue clusters E_j of h, and the null
    space of X -> [X, letter] is solved over those sum dim(E_j)^2 unknowns
    only.  Clusters that merge distinct eigenvalues only add unknowns.
    """
    c = rng.standard_normal(len(letters)) + 1j * rng.standard_normal(len(letters))
    h = np.einsum("g,gab->ab", c, letters)
    w, v = np.linalg.eigh(h + h.conj().T)
    label = np.concatenate([np.full(cl.stop - cl.start, j)
                            for j, cl in enumerate(_cluster_eigenvalues(w))])
    p, q = np.nonzero(label[:, None] == label[None, :])
    t = v.conj().T @ letters @ v
    u = np.arange(p.size)
    # column u holds [E_pq, t] = E_pq t - t E_pq: row p is t[q, :], column q gains -t[:, p]
    cols = np.zeros(t.shape + (p.size,), dtype=complex)
    cols[:, p, :, u] = t[:, q, :].transpose(1, 0, 2)
    cols[:, :, q, u] -= t[:, :, p]
    null = np.eye(p.size)
    if len(letters):
        _, s, vh = np.linalg.svd(cols.reshape(-1, p.size), full_matrices=False)
        null = vh[int(np.sum(s > tol.rank_rel * max(s[0], 1.0))):].conj()
    x = np.zeros((len(null), n, n), dtype=complex)
    x[:, p, q] = null
    return np.sqrt(n) * (v @ x @ v.conj().T)


def double_commutant_check(a: StarAlgebra) -> bool:
    """True iff the bicommutant equals the algebra as a linear span."""
    return a.commutant().commutant().spans_equal(a)


def conditional_expectation(m: np.ndarray, a: StarAlgebra) -> np.ndarray:
    """Orthogonal projection of m onto the algebra span under the trace pairing.

    Fixes algebra elements and maps PSD matrices to PSD elements.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (a.dim, a.dim):
        raise ValueError(f"expected a {a.dim}x{a.dim} matrix")
    return a.from_coefficients(a.coefficients(m))


class BlockDecomposition:
    """Wedderburn block data: sizes (k_i, m_i) and the block-diagonalizing unitary.

    Conjugating every algebra element by change_of_basis^H produces the form
    direct-sum of (M_{k_i} tensor I_{m_i}), blocks sorted by (k_i, m_i).
    """

    def __init__(self, blocks, change_of_basis: np.ndarray, tol: Tolerances = DEFAULT_TOL):
        self.blocks = [(int(k), int(m)) for k, m in blocks]
        self.change_of_basis = np.asarray(change_of_basis, dtype=complex)
        self.tol = tol
        q = self.change_of_basis
        if sum(k * m for k, m in self.blocks) != q.shape[0]:
            raise ValueError("block sizes do not add up to the ambient dimension")
        if np.linalg.norm(q.conj().T @ q - np.eye(q.shape[0])) > 100 * tol.eq_abs:
            raise ValueError("change of basis is not unitary")

    @property
    def signature(self):
        return tuple(self.blocks)

    def offsets(self):
        """Start offset of each block in the transformed basis."""
        offs, cur = [], 0
        for k, m in self.blocks:
            offs.append(cur)
            cur += k * m
        return offs

    def block_parts(self, m: np.ndarray, check: bool = True):
        """Extract the k_i x k_i compressed block of each class from an algebra
        element, or from a stack of them (leading axes kept).

        The m_i repeated copies are averaged; with check=True the residual of
        the ideal block shape is verified, element by element, against
        100 * eq_abs relative to the element's norm.
        """
        m = np.asarray(m, dtype=complex)
        t = self.change_of_basis.conj().T @ m @ self.change_of_basis
        parts = []
        for off, (k, mult) in zip(self.offsets(), self.blocks):
            sub = t[..., off:off + k * mult, off:off + k * mult]
            copies = sub.reshape(sub.shape[:-2] + (k, mult, k, mult))
            parts.append(np.einsum("...ajbj->...ab", copies) / mult)
        if check:
            ideal = block_diag_kron(parts, [mult for _, mult in self.blocks])
            resid = np.linalg.norm(ideal - t, axis=(-2, -1))
            scale = np.maximum(1.0, np.linalg.norm(m, axis=(-2, -1)))
            if np.any(resid > 100 * self.tol.eq_abs * scale):
                raise ToleranceBreach(
                    f"matrix is not in the algebra span (block residual "
                    f"{float(np.max(resid)):.2e})")
        return parts

    def assemble(self, parts) -> np.ndarray:
        """Inverse of block_parts: build the ambient algebra element(s)."""
        q = self.change_of_basis
        return q @ block_diag_kron(parts, [mult for _, mult in self.blocks]) @ q.conj().T


def _cluster_eigenvalues(w: np.ndarray):
    """Group sorted eigenvalues into clusters separated by clear gaps.

    The gap does not follow eq_abs: these are eigenvalues of random elements
    chosen here, and a raised eq_abs would merge their eigenspaces.
    """
    spread = float(w[-1] - w[0]) if w.size else 0.0
    gap_tol = 1e-6 * max(spread, 1.0)
    clusters, start = [], 0
    for i in range(1, w.size):
        if w[i] - w[i - 1] > gap_tol:
            clusters.append(slice(start, i))
            start = i
    clusters.append(slice(start, w.size))
    return clusters


def _with_seed_retries(attempt, seed: int, what: str):
    """attempt(rng) on up to 5 seeded generators.  A failed count or a
    ToleranceBreach from a block-form certificate moves on to the next seed."""
    last_err = None
    for i in range(5):
        try:
            return attempt(np.random.default_rng([seed, i, 0x57ED]))
        except (DecompositionError, ToleranceBreach) as err:
            last_err = err
    raise DecompositionError(f"{what} failed after 5 seed retries: {last_err}")


def wedderburn_decompose(a: StarAlgebra, seed: int = 0) -> BlockDecomposition:
    """Simultaneous block diagonalization of a matrix *-algebra.

    Splits the algebra's cached commutant with _split.  The result is
    certified by the block form of every basis element and by
    sum k_i^2 == dim A.  Raises DecompositionError after 5 fruitless seed
    retries.
    """
    if a.dim == 0:
        return BlockDecomposition([], np.zeros((0, 0), dtype=complex), a.tol)

    def attempt(rng):
        dec = _split(a.commutant(), rng)
        if sum(k * k for k, _ in dec.blocks) != a.size:
            raise DecompositionError(
                f"block sizes {dec.blocks} do not account for the algebra dimension {a.size}")
        dec.block_parts(a.basis, check=True)
        return dec

    return _with_seed_retries(attempt, seed, "block decomposition")


def _split(comm: StarAlgebra, rng: np.random.Generator) -> BlockDecomposition:
    """Wedderburn blocks read off a commutant A' = direct-sum of (I_{k_i} tensor M_{m_i}).

    The eigenspaces of one random Hermitian element of A' are the irreducible
    summands of A; the compressions of a second random element between
    summands vanish for inequivalent summands and are scalar multiples of the
    unitary intertwiner for equivalent ones (Schur's lemma), which groups and
    aligns the copies.  Raises DecompositionError unless sum m_i^2 == dim A'.
    """
    w, v = np.linalg.eigh(comm.random_hermitian_element(rng))
    pieces = [v[:, cl] for cl in _cluster_eigenvalues(w)]

    y = comm.random_hermitian_element(rng)
    cutoff = comm.tol.rank_rel * np.linalg.norm(y)
    classes = []  # each: list of aligned member columns; member 0 is the class rep
    for cols in pieces:
        k = cols.shape[1]
        for members in classes:
            if members[0].shape[1] != k:
                continue
            t = cols.conj().T @ y @ members[0]
            norm = np.linalg.norm(t)
            if norm > cutoff:
                # t = c U with U unitary and cols U carrying the rep's representation
                members.append(cols @ (t * (np.sqrt(k) / norm)))
                break
        else:
            classes.append([cols])

    classes.sort(key=lambda members: (members[0].shape[1], len(members)))
    blocks = [(members[0].shape[1], len(members)) for members in classes]
    if sum(m * m for _, m in blocks) != comm.size:
        raise DecompositionError(
            f"block sizes {blocks} do not account for the commutant dimension {comm.size}")
    # aligned copies carry the identical compressed representation, so ordering
    # columns (irrep index outer, copy index inner) yields M_k (x) I_m
    q = np.hstack([np.stack(members, axis=2).reshape(comm.dim, -1) for members in classes])
    # polish unitarity against accumulated rounding
    uq, _, vqh = np.linalg.svd(q)
    return BlockDecomposition(blocks, uq @ vqh, comm.tol)


def _closed_form_bases(dec: BlockDecomposition):
    """Trace-orthonormal bases of A = Q (+)(M_k (x) I_m) Q^H and of its
    commutant Q (+)(I_k (x) M_m) Q^H.  With c the columns of one block read as
    (n, k, m), Q (E_ab (x) I_m) Q^H = sum_j c[:, a, j] c[:, b, j]^H."""
    q = dec.change_of_basis
    n = q.shape[0]
    alg, comm = [], []
    for off, (k, m) in zip(dec.offsets(), dec.blocks):
        c = q[:, off:off + k * m].reshape(n, k, m)
        alg.append(np.sqrt(n / m) * np.einsum("xaj,ybj->abxy", c, c.conj()).reshape(-1, n, n))
        comm.append(np.sqrt(n / k) * np.einsum("xja,yjb->abxy", c, c.conj()).reshape(-1, n, n))
    return np.concatenate(alg), np.concatenate(comm)

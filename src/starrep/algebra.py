"""Unital matrix *-algebras: generation, commutant, block structure.

A StarAlgebra is a linear span of n x n complex matrices that contains the
identity and is closed under products and adjoints.  The span is carried as a
basis orthonormal under the normalized trace pairing <A, B> = Tr(B^H A) / n.
"""
from __future__ import annotations

import threading

import numpy as np

from .linalg import DEFAULT_TOL, ToleranceBreach, Tolerances, _require_finite


class DecompositionError(RuntimeError):
    """Spectral splitting failed to converge (numerically degenerate spectrum)."""


def _flatten(mats: np.ndarray) -> np.ndarray:
    return mats.reshape(mats.shape[0], -1)


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

    def spans_equal(self, other: "StarAlgebra") -> bool:
        if self.dim != other.dim or self.size != other.size:
            return False
        qa = _orthonormal_rows(_flatten(self.basis), self.tol)
        fb = _flatten(other.basis)
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
        # products checked pairwise; spans are tiny so this stays cheap
        prods = np.einsum("iab,jbc->ijac", self.basis, self.basis)
        prods = prods.reshape(-1, self.dim, self.dim)
        coeffs = np.einsum("kab,pab->pk", self.basis.conj(), prods) / max(self.dim, 1)
        recon = np.einsum("pk,kab->pab", coeffs, self.basis)
        err = np.max(np.abs(recon - prods)) if prods.size else 0.0
        scale = max(1.0, float(np.max(np.abs(self.basis))) ** 2 * self.dim)
        if err > 100 * self.tol.eq_abs * scale:
            raise ValueError("algebra span is not closed under products")


def generate_algebra(generators, dim: int | None = None,
                     tol: Tolerances = DEFAULT_TOL) -> StarAlgebra:
    """Smallest unital *-algebra span containing the generators.

    Breadth-first word closure: adjoin adjoints and all pairwise products,
    re-orthonormalize, stop when the rank stabilizes (guaranteed at rank <= n^2).
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

    seed = [np.eye(n, dtype=complex)]
    for g in gens:
        seed.append(g)
        seed.append(g.conj().T)
    q = _orthonormal_rows(np.array([m.ravel() for m in seed]), tol)
    while True:
        d = q.shape[0]
        if d >= n * n:
            break
        mats = (np.sqrt(n) * q).reshape(d, n, n)
        prods = np.einsum("iab,jbc->ijac", mats, mats).reshape(d * d, n, n)
        adjs = mats.conj().transpose(0, 2, 1)
        cand = np.vstack([_flatten(prods), _flatten(adjs)])
        q = _append_to_row_basis(q, cand, tol)
        if q.shape[0] == d:
            break
    basis = (np.sqrt(n) * q).reshape(-1, n, n)
    return StarAlgebra(n, basis, gens, tol)


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

    Null space of the stacked maps X -> X B - B X.  Commuting with the
    generators and their adjoints is equivalent to commuting with the full
    span, so those are used when available.
    """
    n = a.dim
    if n == 0:
        return StarAlgebra(0, np.zeros((0, 0, 0), dtype=complex), tol=a.tol, validate=False)
    if a.generators:
        sources = []
        for g in a.generators:
            sources.append(g)
            sources.append(g.conj().T)
    else:
        sources = list(a.basis)
    if not sources:
        sources = [np.eye(n, dtype=complex)]
    eye = np.eye(n, dtype=complex)
    blocks = [np.kron(b.T, eye) - np.kron(eye, b) for b in sources]
    stacked = np.vstack(blocks)
    _, s, vh = np.linalg.svd(stacked, full_matrices=False)
    cutoff = a.tol.rank_rel * max(s[0] if s.size else 0.0, 1.0)
    rank = int(np.sum(s > cutoff))
    null = vh[rank:].conj()
    mats = [null[j].reshape(n, n, order="F") for j in range(null.shape[0])]
    return span_algebra(mats, n, a.tol)


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
        n = self.change_of_basis.shape[0]
        if sum(k * m for k, m in self.blocks) != n:
            raise ValueError("block sizes do not add up to the ambient dimension")
        if np.linalg.norm(self.change_of_basis.conj().T @ self.change_of_basis - np.eye(n)) > 1e-6:
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

    def transport(self, m: np.ndarray) -> np.ndarray:
        """Conjugate m into the block basis."""
        q = self.change_of_basis
        return q.conj().T @ np.asarray(m, dtype=complex) @ q

    def block_parts(self, m: np.ndarray, check: bool = True):
        """Extract the k_i x k_i compressed block of each class from an algebra element.

        The m_i repeated copies are averaged; with check=True the residual of
        the ideal block shape is verified against eq_abs.
        """
        t = self.transport(m)
        parts = []
        scale = max(1.0, float(np.linalg.norm(m)))
        for off, (k, mult) in zip(self.offsets(), self.blocks):
            sub = t[off:off + k * mult, off:off + k * mult]
            sigma = np.zeros((k, k), dtype=complex)
            for j in range(mult):
                sigma += sub[j::mult, j::mult]
            sigma /= mult
            parts.append(sigma)
        if check:
            rebuilt = np.zeros_like(t)
            for off, (k, mult), sigma in zip(self.offsets(), self.blocks, parts):
                rebuilt[off:off + k * mult, off:off + k * mult] = np.kron(sigma, np.eye(mult))
            if np.linalg.norm(rebuilt - t) > 1e-6 * scale:
                raise ToleranceBreach(
                    f"matrix is not in the algebra span (block residual "
                    f"{np.linalg.norm(rebuilt - t):.2e})")
        return parts

    def assemble(self, parts) -> np.ndarray:
        """Inverse of block_parts: build the ambient algebra element."""
        n = self.change_of_basis.shape[0]
        t = np.zeros((n, n), dtype=complex)
        for off, (k, mult), sigma in zip(self.offsets(), self.blocks, parts):
            t[off:off + k * mult, off:off + k * mult] = np.kron(sigma, np.eye(mult))
        q = self.change_of_basis
        return q @ t @ q.conj().T


def _cluster_eigenvalues(w: np.ndarray, tol: Tolerances):
    """Group sorted eigenvalues into clusters separated by clear gaps."""
    spread = float(w[-1] - w[0]) if w.size else 0.0
    gap_tol = max(100 * tol.eq_abs, 1e-6 * max(spread, 1.0))
    clusters, start = [], 0
    for i in range(1, w.size):
        if w[i] - w[i - 1] > gap_tol:
            clusters.append(slice(start, i))
            start = i
    clusters.append(slice(start, w.size))
    return clusters


def wedderburn_decompose(a: StarAlgebra, seed: int = 0) -> BlockDecomposition:
    """Simultaneous block diagonalization of a matrix *-algebra.

    Works from the algebra's cached commutant A' = direct-sum of
    (I_{k_i} tensor M_{m_i}).  The eigenspaces of one random Hermitian element
    of A' are the irreducible summands; the compressions of a second random
    element between summands vanish for inequivalent summands and are scalar
    multiples of the unitary intertwiner for equivalent ones (Schur's lemma),
    which groups and aligns the copies.  The result is certified by the block
    form of every basis element and by sum k_i^2 == dim A.  Raises
    DecompositionError after 5 fruitless seed retries.
    """
    n = a.dim
    if n == 0:
        return BlockDecomposition([], np.zeros((0, 0), dtype=complex), a.tol)
    last_err = None
    for attempt in range(5):
        rng = np.random.default_rng([seed, attempt, 0x57ED])
        try:
            return _decompose_once(a, rng)
        except DecompositionError as err:
            last_err = err
    raise DecompositionError(f"block decomposition failed after 5 seed retries: {last_err}")


def _decompose_once(a: StarAlgebra, rng: np.random.Generator) -> BlockDecomposition:
    comm = a.commutant()
    w, v = np.linalg.eigh(comm.random_hermitian_element(rng))
    pieces = [v[:, cl] for cl in _cluster_eigenvalues(w, a.tol)]

    y = comm.random_hermitian_element(rng)
    cutoff = a.tol.rank_rel * np.linalg.norm(y)
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
    if sum(k * k for k, _ in blocks) != a.size:
        raise DecompositionError(
            f"block sizes {blocks} do not account for the algebra dimension {a.size}")
    # aligned copies carry the identical compressed representation, so ordering
    # columns (irrep index outer, copy index inner) yields M_k (x) I_m
    q = np.hstack([np.stack(members, axis=2).reshape(a.dim, -1) for members in classes])
    # polish unitarity against accumulated rounding
    uq, _, vqh = np.linalg.svd(q)
    q = uq @ vqh

    dec = BlockDecomposition(blocks, q, a.tol)
    _verify_block_form(a, dec)
    return dec


def _verify_block_form(a: StarAlgebra, dec: BlockDecomposition):
    for b in a.basis:
        try:
            dec.block_parts(b, check=True)
        except ToleranceBreach as err:
            raise DecompositionError(f"block form verification failed: {err}") from err

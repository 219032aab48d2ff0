"""Unital matrix *-algebras: generation, commutant, block structure.

A StarAlgebra is a linear span of n x n complex matrices that contains the
identity and is closed under products and adjoints, held in one form, its
Wedderburn blocks.  Its basis, orthonormal under the trace pairing
<A, B> = Tr(B^H A) / n, is their closed form sqrt(n / m_i) Q (E_ab (x) I_{m_i}) Q^H,
written only when .basis is read, and its coordinates in it are its block
parts, scaled: everything else is read on the blocks.

Its Wedderburn blocks (BlockDecomposition) are sorted by shape (k, m), and
block data has one layout: one zero-padded (..., c, K, K) stack per block
group, as block_parts reads it from algebra elements and assemble writes it
back, and one (c, M, K, n) gather of Q's columns per group
(BlockDecomposition.columns), which the closures and the Radon-Nikodym basis
read.  Every block with k <= 4 is in one group, padded to that group's
largest k and m; each larger k has a group of its own, padded only in m.  So
a block of k > 4 is never padded, nor pads a small one, and the worst case
is the small group, where a 1 x 1 block's part is padded to at most 4 x 4
(16 entries) and its coordinates to at most 4 x M, M the group's largest m.

Every certificate over the algebra is checked at the probes x, y that
StarAlgebra.probes() draws once from a fixed key, and holds with probability
one over it.  A basis element weighs under 1/d in a probe with probability
under 1/d, so linear defects count d times (at x and y), products d^2 times.
The probes and the random elements a decomposition splits on are drawn by
linalg.Draws from fixed keys, so every process draws the same ones.
"""
from __future__ import annotations

import functools
import itertools
import threading
import types

import numpy as np

from .linalg import (CLUSTER_GAP, DEFAULT_TOL, Draws, ToleranceBreach, Tolerances,
                     _require_finite, orthonormalize, stack_ranks)


class DecompositionError(RuntimeError):
    """Spectral splitting failed to converge (numerically degenerate spectrum)."""


class StarAlgebra:
    """A unital, adjoint- and product-closed span of square complex matrices,
    held by its Wedderburn blocks: decomposed at construction from an outside
    basis, or made from its blocks (_of_blocks) as every algebra the library
    builds is.  Its basis is their closed form, written only when read."""

    def __init__(self, dim: int, basis: np.ndarray, generators=None,
                 tol: Tolerances = DEFAULT_TOL):
        """The span of a trace-orthonormal (d, dim, dim) basis, which must be a
        unital *-algebra (_outside_blocks), else ValueError; the basis is not
        kept, and .basis spans the same."""
        n = int(dim)
        basis = _require_finite(basis, "algebra basis")
        basis = basis.reshape(-1 if basis.size else 0, n, n)
        self._fields(n, len(basis), None, generators, tol)
        self._block = _outside_blocks(basis, tol)

    @classmethod
    def _of_blocks(cls, dim, size, decompose, generators, tol):
        """The algebra of size `size` with the blocks decompose() gives."""
        out = cls.__new__(cls)
        out._fields(int(dim), int(size), decompose, generators, tol)
        return out

    def _fields(self, dim, size, decompose, generators, tol):
        self.dim, self.size, self.tol = dim, size, tol
        self.generators = [np.asarray(g, dtype=complex) for g in (generators or [])]
        self._lock, self._decompose = threading.RLock(), decompose
        self._basis = self._block = self._probes = self._probe_parts = None

    @property
    def basis(self) -> np.ndarray:
        """The d x n x n closed form basis of the blocks, written on first
        read and kept."""
        if self._basis is None:
            with self._lock:
                if self._basis is None:
                    self._basis = _closed_form_basis(self.block_decomposition())
        return self._basis

    def __repr__(self):
        return f"StarAlgebra(dim={self.dim}, size={self.size})"

    # ----- span arithmetic -------------------------------------------------

    def _read(self, m: np.ndarray):
        """BlockDecomposition._entries of m or of a stack of them: the block
        entries and ||m - E(m)||_F, with no E(m) assembled."""
        m = np.asarray(m, dtype=complex)
        if m.shape[-2:] != (self.dim, self.dim) or m.ndim > 3:
            raise ValueError(f"expected a {self.dim}x{self.dim} matrix")
        return self.block_decomposition()._entries(m)

    def coefficients(self, m: np.ndarray) -> np.ndarray:
        """Trace-pairing coordinates of m, or of each matrix of a stack of them:
        each block's mean diagonal copy over sqrt(n / m_i)."""
        return self._read(m)[0] / self.block_decomposition()._copies.scale

    def from_coefficients(self, c: np.ndarray) -> np.ndarray:
        """The element of coefficients c, or of each row of c."""
        dec = self.block_decomposition()
        return dec._from_entries(np.asarray(c, dtype=complex) * dec._copies.scale)

    def contains(self, m: np.ndarray) -> bool:
        return bool(self.tol.close(np.linalg.norm(self._read(m)[1]), np.linalg.norm(m)))

    def random_hermitian_element(self, rng) -> np.ndarray:
        """(x + x^H)/2 for x with complex Gaussian coefficients; rng is a
        Draws or a numpy Generator."""
        c = rng.standard_normal(self.size) + 1j * rng.standard_normal(self.size)
        x = self.from_coefficients(c)
        return (x + x.conj().T) / 2

    def probes(self) -> np.ndarray:
        """x, y, xy and x^H, stacked, for two complex Gaussian elements of unit
        coefficient norm (||x||_F = sqrt(n)), drawn once per size d
        (_probe_coefficients), assembled once per algebra and kept, read-only:
        each certificate over its elements is made there (Freivalds 1977),
        sure up to a null set of draws, at d or d^2 times."""
        with self._lock:
            if self._probes is None:
                x, y = (self.from_coefficients(ci) for ci in _probe_coefficients(self.size))
                probes = np.stack([x, y, x @ y, x.conj().T])
                probes.flags.writeable = False
                self._probes = probes
            return self._probes

    def probe_parts(self) -> list:
        """The block parts of probes(), one certified block_parts read of all
        four on first call, kept, read-only."""
        with self._lock:
            if self._probe_parts is None:
                parts = self.block_decomposition().block_parts(self.probes())
                for p in parts:
                    p.flags.writeable = False
                self._probe_parts = parts
            return self._probe_parts

    def letters(self) -> np.ndarray:
        """The generators and their adjoints (interleaved), else the probes x,
        y and theirs, which generate the algebra with probability one (the
        sum k_i^2 == d certificate of wedderburn_decompose catches a miss).
        Commuting with them is commuting with the algebra, and a unital span
        closed under left multiplication by them is closed under it."""
        return _letters(self.generators or self.probes()[:2], self.dim)

    def spans_equal(self, other: "StarAlgebra") -> bool:
        """Equality as spans, read on the blocks with no basis written: equal
        signatures, and each algebra's probes x, y in the other's block form,
        their block residuals (BlockDecomposition._entries) d times within
        eq_abs of their norms, as a linear defect is judged at the probes
        (module docstring), sure up to a null set of draws."""
        mine, theirs = self.block_decomposition(), other.block_decomposition()
        if mine.signature != theirs.signature:
            return False
        probes = np.concatenate([other.probes()[:2], self.probes()[:2]])
        resid = np.concatenate([mine._entries(probes[:2])[1], theirs._entries(probes[2:])[1]])
        return bool(np.all(self.tol.close(self.size * resid, np.linalg.norm(probes, axis=(1, 2)))))

    # ----- structure -------------------------------------------------------

    def commutant(self) -> "StarAlgebra":
        return commutant(self)

    def block_decomposition(self) -> "BlockDecomposition":
        """Solved on first read and kept; a decompose (_of_blocks) that raises
        is kept, to raise at each read."""
        with self._lock:
            if self._block is None:
                self._block = self._decompose()
            return self._block


@functools.cache
def _probe_coefficients(d: int) -> np.ndarray:
    """The probes' coefficients for algebras of size d, read-only: two rows
    of complex Gaussians from linalg.Draws at the fixed key 0x6E5, each of
    unit norm."""
    c = Draws(0x6E5).standard_normal((2, d, 2)) @ [1, 1j]
    c = np.stack([ci / np.linalg.norm(ci) for ci in c])
    c.flags.writeable = False
    return c


def _letters(generators, n: int) -> np.ndarray:
    g = np.array(generators, dtype=complex).reshape(-1, n, n)
    return np.stack([g, g.conj().transpose(0, 2, 1)], axis=1).reshape(-1, n, n)


def generate_algebra(generators, dim: int | None = None,
                     tol: Tolerances = DEFAULT_TOL) -> StarAlgebra:
    """Smallest unital *-algebra containing the generators, built as A''.

    A = A'' in finite dimension (von Neumann's bicommutant theorem).  The
    generators and their adjoints are decomposed by _decompose, and the
    algebra A = Q (+)(M_k (x) I_m) Q^H is held by that decomposition
    (StarAlgebra._of_blocks).  Raises DecompositionError after 5 fruitless
    seed retries.
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
        return StarAlgebra(0, np.zeros((0, 0, 0)), gens, tol)
    letters = _letters(gens, n)
    dec = _with_seed_retries(lambda rng: _decompose(letters, n, tol, rng), 0, "algebra generation")
    return StarAlgebra._of_blocks(n, sum(k * k for k, _ in dec.blocks), lambda: dec, gens, tol)


def span_algebra(mats, dim: int, tol: Tolerances = DEFAULT_TOL, generators=None) -> StarAlgebra:
    """The algebra spanned by a list or stack of dim x dim matrices, which must
    be a unital *-algebra: their span orthonormalized, as StarAlgebra input."""
    flat = np.asarray(mats, dtype=complex).reshape(len(mats), dim * dim)
    span = orthonormalize(flat, dim * dim, tol)
    return StarAlgebra(dim, np.sqrt(dim) * span.basis.T, generators, tol)


def commutant(a: StarAlgebra) -> StarAlgebra:
    """All matrices commuting with the algebra, Q (+)(I_k (x) M_m) Q^H, held
    by its blocks (m_i, k_i): Q's columns (a, j) of block i taken as (j, a)."""
    dec = a.block_decomposition()
    kk, mm = np.array(dec.blocks, dtype=int).reshape(-1, 2).T
    shapes, i, j, b = _block_columns(mm, kk)
    q = dec.change_of_basis[:, (np.cumsum(kk * mm) - kk * mm)[i] + b * mm[i] + j]
    return StarAlgebra._of_blocks(a.dim, (mm * mm).sum(),
                                  lambda: BlockDecomposition(shapes, q, dec.tol), [], a.tol)


def _block_columns(kk: np.ndarray, ww: np.ndarray):
    """(shapes, i, a, j) for blocks (kk[i], ww[i]) sorted by shape: the sorted
    shapes, and for each column of Q its block i and its entry a of copy j."""
    order = np.lexsort((ww, kk))
    sizes = (kk * ww)[order]
    i = np.repeat(order, sizes)
    a, j = np.divmod(np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes), ww[i])
    return list(zip(kk[order], ww[order])), i, a, j


def _commutant_basis(letters: np.ndarray, n: int, tol: Tolerances, rng) -> np.ndarray:
    """Trace-orthonormal basis of the matrices commuting with every letter.

    The letters must be closed under adjoints.  A matrix X commuting with them
    commutes with the Hermitian h = c.letters + (c.letters)^H for random c,
    so X is block diagonal on the eigenvalue clusters E_j of h, and the null
    space of X -> [X, letter] is solved over those sum dim(E_j)^2 unknowns
    only.  Clusters that merge distinct eigenvalues only add unknowns.  The
    null space is cut against the norm of the letters, which bounds the map:
    for scalar letters every commutator is round-off.
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
        null = vh[int(np.sum(s > tol.rank_cut(np.linalg.norm(t)))):].conj()
    x = np.zeros((len(null), n, n), dtype=complex)
    x[:, p, q] = null
    return np.sqrt(n) * (v @ x @ v.conj().T)


def double_commutant_check(a: StarAlgebra) -> bool:
    """True iff the bicommutant equals the algebra as a linear span."""
    return a.commutant().commutant().spans_equal(a)


def conditional_expectation(m: np.ndarray, a: StarAlgebra) -> np.ndarray:
    """Orthogonal projection of m, or of each matrix of a stack of them, onto
    the algebra span under the trace pairing.

    Fixes algebra elements and maps PSD matrices to PSD elements.
    """
    return a.from_coefficients(a.coefficients(m))


# blocks with k <= SMALL_K share one padded group; each larger k has its own
SMALL_K = 4


class BlockGroup:
    """Blocks first, ..., first + c - 1 of a decomposition, held zero-padded
    to the largest k and m among them, K and M: their parts as one
    (c, K, K) stack (parts_shape), their coordinates as one (c, K, M) stack.
    k and m are the blocks' own shapes, offsets their first coordinates;
    index[i, a, j] is the coordinate of entry (a, j) of block i in Q^H x, or
    n (a zero) for a >= k_i or j >= m_i, and rows[i, a] marks a < k_i."""

    def __init__(self, first: int, shapes, offsets, n: int):
        self.first = first
        self.k, self.m = np.array(shapes, dtype=int).reshape(-1, 2).T
        a = np.arange(self.k.max())[None, :, None]
        j = np.arange(self.m.max())[None, None, :]
        inside = (a < self.k[:, None, None]) & (j < self.m[:, None, None])
        self.index = np.where(inside, offsets[:, None, None] + a * self.m[:, None, None] + j, n)
        self.rows = inside[:, :, 0]

    @property
    def parts_shape(self) -> tuple:
        return (len(self.k),) + self.index.shape[1:2] * 2


class BlockDecomposition:
    """Wedderburn block data: sizes (k_i, m_i) and the block-diagonalizing unitary.

    Conjugating every algebra element by change_of_basis^H produces the form
    direct-sum of (M_{k_i} tensor I_{m_i}), blocks sorted by (k_i, m_i); a
    change of basis not certified unitary raises ToleranceBreach.
    `groups` holds the BlockGroups (module docstring), and all block data
    (block_parts, assemble, coordinates, columns) is one zero-padded
    (c, ...) stack per group, blocks in order inside it.  `runs` holds one
    (first block, count c, k, m, offset) per maximal run of equal shapes, for
    the closed form basis, the harness's per-block draws and the
    Radon-Nikodym SVD.
    """

    def __init__(self, blocks, change_of_basis: np.ndarray, tol: Tolerances = DEFAULT_TOL):
        self.blocks = [(int(k), int(m)) for k, m in blocks]
        self.change_of_basis = np.asarray(change_of_basis, dtype=complex)
        self.tol = tol
        q = self.change_of_basis
        n = q.shape[0]
        if sum(k * m for k, m in self.blocks) != n:
            raise ValueError("block sizes do not add up to the ambient dimension")
        if not tol.certified(np.linalg.norm(q.conj().T @ q - np.eye(n)), 1.0):
            raise ToleranceBreach("change of basis is not unitary")
        self.runs, first, off = [], 0, 0
        for (k, m), run in itertools.groupby(self.blocks):
            c = len(list(run))
            self.runs.append((first, c, k, m, off))
            first, off = first + c, off + c * k * m
        offsets = np.cumsum([0] + [k * m for k, m in self.blocks])
        self.groups, first = [], 0
        for _, group in itertools.groupby(self.blocks, key=lambda b: max(b[0], SMALL_K)):
            shapes = list(group)
            self.groups.append(BlockGroup(first, shapes, offsets[first:first + len(shapes)], n))
            first += len(shapes)

    @property
    def signature(self):
        return tuple(self.blocks)

    @functools.cached_property
    def columns(self):
        """Q's columns gathered per group, on first use: one (q, scaled) per
        group, q the (c, M, K, n) array whose [i, j, a] is column (a, j) of
        block i, zero for a >= k_i or j >= m_i, and scaled its conjugate times
        sqrt(n / m_i).  Read by representation's closures and by
        functionals.radon_nikodym_operator; together n^2 entries each where
        no group is padded."""
        q = self.change_of_basis
        n = q.shape[0]
        # Q's columns as rows, then the zero row the padding reads
        rows = np.concatenate([q.T, np.zeros((1, n))])
        out = []
        for g in self.groups:
            cols = rows[g.index.swapaxes(1, 2)]
            scaled = cols.conj() * np.sqrt(n / g.m)[:, None, None, None]
            cols.flags.writeable = scaled.flags.writeable = False
            out.append((cols, scaled))
        return out

    def coordinates(self, x: np.ndarray):
        """Q^H x as one zero-padded (c, K, M) stack per group, block i read as
        a k_i x m_i matrix (the order block_parts uses): an algebra element
        acts on it as X -> x_i X, the commutant as X -> X c.  An (n, t)
        stack of vectors gives (c, K, M, t) stacks."""
        y = self.change_of_basis.conj().T @ x
        if self._copies.pads:
            y = np.concatenate([y, np.zeros((1,) + y.shape[1:])])  # the zero row the padding reads
        return [y[g.index] for g in self.groups]

    def block_parts(self, m: np.ndarray):
        """The k_i x k_i compressed blocks x_i of an algebra element, or of a
        stack of them (leading axes kept), as one zero-padded (..., c, K, K)
        stack per group.  The m_i copies are averaged, and the residual of
        the ideal block shape is certified, element by element, against the
        element's norm; ToleranceBreach if it fails."""
        m = np.asarray(m, dtype=complex)
        entries, resid = self._entries(m)
        if not np.all(self.tol.certified(resid, np.linalg.norm(m, axis=(-2, -1)))):
            raise ToleranceBreach(
                f"matrix is not in the algebra span (block residual {float(np.max(resid)):.2e})")
        at = self._copies
        if at.part is not None:
            padded = np.zeros(m.shape[:-2] + (at.bounds[-1],), dtype=complex)
            padded[..., at.part] = entries
            entries = padded
        return [entries[..., start:end].reshape(m.shape[:-2] + g.parts_shape)
                for g, start, end in zip(self.groups, at.bounds, at.bounds[1:])]

    def assemble(self, stacks) -> np.ndarray:
        """Inverse of block_parts: the ambient algebra element(s) with the
        given (..., c, K, K) stack per group, entries past k_i ignored."""
        lead = np.shape(stacks[0])[:-3] if stacks else ()
        part = self._copies.part
        flat = np.concatenate([np.zeros(lead + (0,))] + [
            np.reshape(stack, lead + (-1,)) for stack in stacks], axis=-1)
        return self._from_entries(flat if part is None else flat[..., part])

    def _entries(self, m: np.ndarray):
        """(entries, resid) for a matrix or a stack of them: entry (a, b) of
        each block i, the mean of its m_i diagonal copies in Q^H m Q, laid
        out block by block, row-major, as the closed form basis is; and the
        Frobenius norm of what is left, ||m - _from_entries(entries)||.  The
        shared step of block_parts, which certifies resid, and of an algebra
        held by its blocks, which projects with it."""
        q = self.change_of_basis
        lead, n = m.shape[:-2], q.shape[0]
        at = self._copies
        # Q^H m Q, its diagonal copies read and then cleared of their mean
        t = (q.conj().T @ m @ q).reshape(lead + (n * n,))
        copies = t[..., at.take]
        if at.spread is None:
            mean, t[..., at.take] = copies, 0
        else:
            mean = np.add.reduceat(copies, at.starts, axis=-1) / at.reps
            t[..., at.take] = copies - mean[..., at.spread]
        return mean, np.linalg.norm(t, axis=-1)

    def _from_entries(self, entries: np.ndarray) -> np.ndarray:
        """Inverse of _entries: Q (+)(x_i (x) I_{m_i}) Q^H, x_i read off the
        (..., sum k_i^2) entries."""
        q = self.change_of_basis
        n = q.shape[0]
        at = self._copies
        t = np.zeros(entries.shape[:-1] + (n * n,), dtype=complex)
        t[..., at.take] = entries if at.spread is None else entries[..., at.spread]
        return q @ t.reshape(entries.shape[:-1] + (n, n)) @ q.conj().T

    def per_block(self, stacks):
        """Each block's (..., k_i, k_i) part of (..., c, K, K) group stacks,
        in block order, as views."""
        return [stack[..., i, :k, :k] for g, stack in zip(self.groups, stacks)
                for i, k in enumerate(g.k)]

    @functools.cached_property
    def _copies(self):
        """Where the parts sit in Q^H x Q, flattened.  take holds entry (a, b)
        of copy j of block i, the m_i copies of each (i, a, b) in a row from
        starts, reps of them; spread maps each entry taken to its (i, a, b),
        part each (i, a, b) to its place in the group stacks laid end to end
        (bounds), and scale holds each (i, a, b)'s sqrt(n / m_i), the weight
        of its closed form basis element.  spread and part are None where
        they are the identity, and pads tells whether any group is padded."""
        n = self.change_of_basis.shape[0]
        take, reps, part, bounds = [], [], [], [0]
        for g in self.groups:
            # [i, a, b, j]: entry (a, b) of block i in its copy j, where all are in range
            rows, cols = g.index[:, :, None, :], g.index[:, None, :, :]
            inside = (rows < n) & (cols < n)
            take.append((rows * n + cols)[inside])
            count = inside.sum(-1).ravel()  # m_i for each (i, a, b) inside, else 0
            reps.append(count[count > 0])
            part.append(bounds[-1] + np.flatnonzero(count))
            bounds.append(bounds[-1] + count.size)
        take, reps, part = (np.concatenate([np.zeros(0, dtype=int)] + x)
                            for x in (take, reps, part))
        spread = None if (reps == 1).all() else np.repeat(np.arange(reps.size), reps)
        part = None if part.size == bounds[-1] else part
        return types.SimpleNamespace(take=take, starts=np.cumsum(reps) - reps, reps=reps,
                                     spread=spread, part=part, bounds=bounds,
                                     scale=np.sqrt(n / reps),
                                     pads=any((g.index == n).any() for g in self.groups))


def _cluster_eigenvalues(w: np.ndarray):
    """Group sorted eigenvalues into clusters separated by clear gaps.

    A gap is clear above CLUSTER_GAP times the spectrum's magnitude, the scale
    of eigh's round-off.  It does not follow eq_abs: these are eigenvalues of
    random elements chosen here, and a raised eq_abs would merge their
    eigenspaces.
    """
    gap_tol = CLUSTER_GAP * float(np.max(np.abs(w), initial=0.0))
    clusters, start = [], 0
    for i in range(1, w.size):
        if w[i] - w[i - 1] > gap_tol:
            clusters.append(slice(start, i))
            start = i
    clusters.append(slice(start, w.size))
    return clusters


def _with_seed_retries(attempt, seed: int, what: str):
    """attempt(rng) on up to 5 keyed Draws.  A failed count or a
    ToleranceBreach from a block-form certificate moves on to the next seed."""
    last_err = None
    for i in range(5):
        try:
            return attempt(Draws([seed, i, 0x57ED]))
        except (DecompositionError, ToleranceBreach) as err:
            last_err = err
    raise DecompositionError(f"{what} failed after 5 seed retries: {last_err}")


def wedderburn_decompose(a: StarAlgebra, seed: int = 0) -> BlockDecomposition:
    """Simultaneous block diagonalization of a matrix *-algebra.

    Decomposes the algebra's letters with _decompose.  The result is also
    certified by sum k_i^2 == dim A and by the block form of the probes, with
    probability one over their seed, unscaled: a wrong Q moves every element.
    Raises DecompositionError after 5 fruitless seed retries.
    """
    if a.dim == 0:
        return BlockDecomposition([], np.zeros((0, 0)), a.tol)

    def attempt(rng):
        dec = _decompose(a.letters(), a.dim, a.tol, rng)
        if sum(k * k for k, _ in dec.blocks) != a.size:
            raise DecompositionError(
                f"block sizes {dec.blocks} do not account for the algebra dimension {a.size}")
        dec.block_parts(a.probes())
        return dec

    return _with_seed_retries(attempt, seed, "block decomposition")


def _decompose(letters: np.ndarray, n: int, tol: Tolerances, rng) -> BlockDecomposition:
    """The one place A' is solved: _commutant_basis, split by _split, and
    certified by the block form of every letter."""
    dec = _split(_commutant_basis(letters, n, tol, rng), tol, rng)
    dec.block_parts(letters)
    return dec


def _outside_blocks(basis: np.ndarray, tol: Tolerances) -> BlockDecomposition:
    """The blocks of the span of an outside trace-orthonormal (d, n, n) basis,
    ValueError unless it holds I and is closed under adjoints and products
    at the probes x, y of _probe_coefficients(d) over the basis (module
    docstring).  x and y, which generate the span with probability one, are
    decomposed, and their algebra certified to be the span: it holds each
    basis element (block_parts' certificate), and sum k_i^2 is the basis's
    rank (stack_ranks).  A failure there, below the probes' bounds, names
    the closure with the larger relative probe defect."""
    d, n = len(basis), basis.shape[-1]
    if n == 0:
        return BlockDecomposition([], np.zeros((0, 0)), tol)
    flat = basis.reshape(d, n * n)
    if not tol.certified(np.max(np.abs(flat @ flat.conj().T / n - np.eye(d)), initial=0.0), 1.0):
        raise ValueError("algebra basis is not trace-orthonormal")
    x, y = (_probe_coefficients(d) @ flat).reshape(2, n, n)
    nx, ny = np.linalg.norm(x), np.linalg.norm(y)
    mats = np.stack([np.eye(n), x.conj().T, y.conj().T, x @ y]).reshape(4, n * n)
    # each minus its projection conj(conj(m) . basis) . basis / n: no conjugated copy of the basis
    one, xh, yh, xy = np.linalg.norm(mats - ((mats.conj() @ flat.T).conj() / n) @ flat, axis=1)
    if not tol.close(one, np.sqrt(n)):
        raise ValueError("algebra span does not contain the identity")
    if not tol.close(d * max(xh, yh), nx):
        raise ValueError("algebra span is not closed under adjoints")
    if not tol.certified(d * d * xy, nx * ny):
        raise ValueError("algebra span is not closed under products")
    dec = _with_seed_retries(lambda rng: _decompose(_letters([x, y], n), n, tol, rng), 0,
                             "block decomposition")
    if (sum(k * k for k, _ in dec.blocks) != stack_ranks([flat], tol)[0]
            or not np.all(tol.certified(dec._entries(basis)[1], np.sqrt(n)))):
        how = "adjoints" if max(xh, yh) * ny >= d * xy else "products"
        raise ValueError(f"algebra span is not closed under {how}: its probes generate "
                         f"the blocks {dec.blocks}, not the span")
    return dec


def _split(comm: np.ndarray, tol: Tolerances, rng) -> BlockDecomposition:
    """Wedderburn blocks read off a trace-orthonormal basis of A' = (+)(I_{k_i} (x) M_{m_i}).

    The eigenspaces of one random Hermitian element of A' are the irreducible
    summands of A; the compressions of a second random element between
    summands vanish for inequivalent summands and are scalar multiples of the
    unitary intertwiner for equivalent ones (Schur's lemma), which groups and
    aligns the copies.  Raises DecompositionError unless sum m_i^2 == dim A'.
    """
    size, n = len(comm), comm.shape[-1]
    flat = comm.reshape(size, n * n)

    def hermitian():
        c = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        x = (c @ flat).reshape(n, n)
        return (x + x.conj().T) / 2

    w, v = np.linalg.eigh(hermitian())
    pieces = [v[:, cl] for cl in _cluster_eigenvalues(w)]

    y = hermitian()
    cutoff = tol.rank_cut(np.linalg.norm(y))
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
    if sum(m * m for _, m in blocks) != size:
        raise DecompositionError(
            f"block sizes {blocks} do not account for the commutant dimension {size}")
    # aligned copies carry the identical compressed representation, so ordering
    # columns (irrep index outer, copy index inner) yields M_k (x) I_m
    q = np.hstack([np.stack(members, axis=2).reshape(n, -1) for members in classes])
    # polish unitarity against accumulated rounding
    uq, _, vqh = np.linalg.svd(q)
    return BlockDecomposition(blocks, uq @ vqh, tol)


def _closed_form_basis(dec: BlockDecomposition) -> np.ndarray:
    """Trace-orthonormal basis of A = Q (+)(M_k (x) I_m) Q^H, block by block.
    With c the columns of one run read as (n, c, k, m), block i gives
    Q (E_ab (x) I_m) Q^H = sum_j c[:, i, a, j] c[:, i, b, j]^H.  Each run is
    written in place into the one (d, n, n) output."""
    q = dec.change_of_basis
    n = q.shape[0]
    out = np.empty((sum(c * k * k for _, c, k, _, _ in dec.runs), n, n), dtype=complex)
    at = 0
    for _, c, k, m, off in dec.runs:
        cols = q[:, off:off + c * k * m].reshape(n, c, k, m)
        part = out[at:at + c * k * k].reshape(c, k, k, n, n)
        np.einsum("xiaj,yibj->iabxy", cols, cols.conj(), out=part)
        part *= np.sqrt(n / m)
        at += c * k * k
    return out

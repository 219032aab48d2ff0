"""Tolerance-controlled dense complex linear algebra.

Subspaces are stored as matrices with orthonormal columns (possibly zero
columns for the trivial subspace).  Every numerical decision of the library
goes through a Tolerances method, which compares a value with its natural
scale, so verdicts do not change when the inputs are rescaled.

Every layer uses two span routines: `orthonormalize` alone decides a span's
rank (`stack_ranks` the ranks of stacked blocks, `stack_svds` and
`stack_ranges` their ranges), and `project` is the one orthogonal projection
onto a span (or onto each span of a stack of bases), of a vector or each row
of an array.

Every random draw of the library comes from a keyed `Draws`, so no process
imports numpy.random.
"""
from __future__ import annotations

import operator
import random
from dataclasses import dataclass

import numpy as np


class ToleranceBreach(RuntimeError):
    """A verified numerical postcondition failed beyond the configured tolerance."""


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared by every operation, each relative to the
    natural scale of what it judges (see the methods).

    rank_rel: singular-value or eigenvalue cutoff for rank and support.
    eq_abs: tolerance for equality comparisons, certificates and how negative
    an eigenvalue may be while still counting as PSD.
    """

    rank_rel: float = 1e-9
    eq_abs: float = 1e-8

    def __post_init__(self):
        for name in ("rank_rel", "eq_abs"):
            value = getattr(self, name)
            if not (value > 0 and np.isfinite(value)):
                raise ValueError(f"tolerance {name} must be finite and strictly positive")

    def rank_cut(self, top):
        """Round-off bound for the singular values or eigenvalues of an object
        whose largest one (over the whole object, never one block) is `top`;
        elementwise on arrays."""
        return self.rank_rel * top

    def close(self, defect, scale):
        """An equality holds to eq_abs relative to the scale of its terms;
        elementwise on arrays."""
        return defect <= self.eq_abs * scale

    def certified(self, defect, scale):
        """A postcondition holds to 100 eq_abs, room for accumulated round-off;
        elementwise on arrays."""
        return defect <= 100 * self.eq_abs * scale

    def nonnegative(self, least, scale):
        """A least eigenvalue is >= 0 to eq_abs relative to the matrix's
        scale; elementwise on arrays."""
        return least >= -self.eq_abs * scale


DEFAULT_TOL = Tolerances()

# Eigenvalue gaps above this share of the spectrum's magnitude split clusters
# (algebra._cluster_eigenvalues says why it is fixed).
CLUSTER_GAP = 1e-6


def _require_finite(a: np.ndarray, what: str = "input") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if not np.isfinite(a).all():
        raise ValueError(f"{what} contains non-finite entries")
    return a


def frobenius_norms(m: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each matrix of a (k, a, b) stack: square roots of
    sums of squares over a real view, with no array of moduli built."""
    real = np.ascontiguousarray(m).reshape(len(m), -1).view(float)
    return np.sqrt(np.einsum("kx,kx->k", real, real))


class Subspace:
    """A linear subspace of C^n given by an orthonormal column basis."""

    def __init__(self, ambient_dim: int, basis: np.ndarray, tol: Tolerances = DEFAULT_TOL):
        ambient_dim = int(ambient_dim)
        basis = np.asarray(basis, dtype=complex)
        if basis.ndim == 1:
            basis = basis[:, None] if basis.size else basis.reshape(ambient_dim, 0)
        # one pass: a non-finite entry makes the Gram non-finite, so the
        # finiteness test runs only on a rejected basis, to name the fault
        r = basis.shape[1] if basis.ndim == 2 else 0
        ok = basis.ndim == 2 and basis.shape[0] == ambient_dim and r <= ambient_dim
        if ok and r:
            with np.errstate(invalid="ignore", over="ignore"):
                gram = basis.conj().T @ basis
            gram.reshape(-1)[::r + 1] -= 1
            ok = tol.certified(np.abs(gram).max(), 1.0)
        if not ok:
            _require_finite(basis, "subspace basis")
            if basis.ndim != 2 or basis.shape[0] != ambient_dim:
                raise ValueError(f"subspace basis of shape {basis.shape} does not fit "
                                 f"ambient dimension {ambient_dim}")
            if r > ambient_dim:
                raise ValueError("subspace basis has more columns than the ambient dimension")
            raise ValueError("subspace basis columns are not orthonormal")
        self.ambient_dim = int(ambient_dim)
        self.basis = basis
        self.tol = tol

    @classmethod
    def _certified(cls, ambient_dim: int, basis: np.ndarray, tol: Tolerances) -> "Subspace":
        """The subspace of (ambient_dim, r) columns that their maker has
        already certified orthonormal, taken with no second Gram."""
        out = cls.__new__(cls)
        out.ambient_dim, out.basis, out.tol = int(ambient_dim), basis, tol
        return out

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"

    def project(self, v: np.ndarray) -> np.ndarray:
        return project(self, v)

    def residual(self, v: np.ndarray):
        """(v minus its projection, whether v lies in the subspace): v is
        inside when that residual is close to zero at the scale of v."""
        v = np.asarray(v, dtype=complex)
        r = v - self.project(v)
        return r, bool(self.tol.close(np.linalg.norm(r), np.linalg.norm(v)))

    def contains(self, v: np.ndarray) -> bool:
        return self.residual(v)[1]

    def perp(self) -> "Subspace":
        """Orthogonal complement within the same ambient space: the trailing
        left singular vectors of the basis, whose dim singular values are 1."""
        u, _, _ = np.linalg.svd(self.basis)
        return Subspace(self.ambient_dim, u[:, self.dim:], self.tol)

    def isclose(self, other: "Subspace") -> bool:
        """Equality as subspaces: same ambient space and rank, and the sine of
        the largest principal angle within eq_abs."""
        if self.ambient_dim != other.ambient_dim or self.dim != other.dim:
            return False
        sine = np.linalg.norm(other.basis - self.basis @ (self.basis.conj().T @ other.basis), 2)
        return bool(self.tol.close(sine, 1.0))


def zero_subspace(ambient_dim: int, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    return Subspace(ambient_dim, np.zeros((ambient_dim, 0), dtype=complex), tol)


def full_subspace(ambient_dim: int, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    return Subspace(ambient_dim, np.eye(ambient_dim, dtype=complex), tol)


def block_diag(*mats) -> np.ndarray:
    """Block-diagonal complex matrix with the given square blocks along the
    diagonal; stacks of blocks (broadcast over leading axes) give a stack."""
    return block_diag_kron(mats, [1] * len(mats))


def block_diag_kron(parts, mults) -> np.ndarray:
    """Direct sum of parts[i] (x) I_{mults[i]}; stacks of parts give a stack.
    Copy j of part i fills every m_i-th row and column from its offset plus j."""
    lead = np.broadcast_shapes(*(p.shape[:-2] for p in parts))
    size = sum(p.shape[-1] * m for p, m in zip(parts, mults))
    out = np.zeros(lead + (size, size), dtype=complex)
    off = 0
    for p, m in zip(parts, mults):
        end = off + p.shape[-1] * m
        for j in range(off, off + m):
            out[..., j:end:m, j:end:m] = p
        off = end
    return out


def orthonormalize(vectors, ambient_dim: int | None = None, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Span of `vectors` as a Subspace; rank decided by relative SVD cutoff.

    `vectors` is a 2-d array whose rows are the vectors, taken as it is, or an
    iterable of equal-length 1-d arrays.  An empty iterable yields the zero
    subspace of `ambient_dim`, which must then be given.
    """
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
        a = vectors
    else:
        mats = [np.asarray(v, dtype=complex).ravel() for v in vectors]
        if not mats:
            if ambient_dim is None:
                raise ValueError("ambient_dim is required for an empty span")
            return zero_subspace(ambient_dim, tol)
        if any(m.size != mats[0].size for m in mats):
            raise ValueError("input vectors have mismatched lengths")
        a = np.array(mats)
    n = a.shape[1]
    if ambient_dim is not None and n != ambient_dim:
        raise ValueError(f"vectors live in dimension {n}, expected {ambient_dim}")
    a = _require_finite(a, "span input")
    if not a.size:
        return zero_subspace(n, tol)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    if s[0] <= 0:
        return zero_subspace(n, tol)
    rank = int(np.sum(s > tol.rank_cut(s[0])))
    # rows of vh span the row space of a; transposing without conjugation
    # keeps the same span (conjugating would flip it)
    return Subspace(n, vh[:rank].T.copy(), tol)


def _common_cut(svs, tol: Tolerances):
    """rank_cut of the largest singular value over all the given stacks."""
    return tol.rank_cut(max((float(sv.max(initial=0.0)) for sv in svs), default=0.0))


def stack_ranks(stacks, tol: Tolerances = DEFAULT_TOL) -> list:
    """Rank of each matrix of each stack, one batched SVD per stack, cut at
    rank_cut of the largest singular value over all of them."""
    svs = [np.linalg.svd(s, compute_uv=False) for s in stacks]
    cut = _common_cut(svs, tol)
    return [(sv > cut).sum(-1) for sv in svs]


def stack_svds(stacks, tol: Tolerances = DEFAULT_TOL) -> list:
    """Thin SVD of each matrix of each stack, one batched call per stack, as
    (u, s, vh, keep) per stack: keep marks the singular values above rank_cut
    of the largest one over all of them, and the columns of u it marks span
    each range."""
    svds = [np.linalg.svd(s, full_matrices=False) for s in stacks]
    cut = _common_cut([sv for _, sv, _ in svds], tol)
    return [(u, sv, vh, sv > cut) for u, sv, vh in svds]


def stack_ranges(stacks, tol: Tolerances = DEFAULT_TOL, top: float = 0.0) -> list:
    """The range of each matrix of each (..., c, M, N) stack, as (u, keep)
    per stack: the columns of the (..., c, M, M) u that keep marks span it.
    Each index of the leading axes (...), the same for every stack, is one
    set, cut at rank_cut of the largest singular value of that set over all
    the stacks (stack_svds's cut, set by set), or of top when larger, for
    stacks that are part of a larger object whose largest is top.  A stack
    of rows (M = 1) is ranked by norms, a row's one singular value, with
    u = 1 and no SVD.  A stack narrower than high gets zero columns, so that
    every u is square and unitary.  Only the spans are LAPACK's, not the
    phases of u (stack_svds keeps those)."""
    if not stacks:
        return []
    ranges, cut = [], None
    for s in stacks:
        m, short = s.shape[-2], s.shape[-2] - s.shape[-1]
        if m == 1:
            u, sv = np.ones(s.shape[:-1] + (1,)), np.sqrt((np.abs(s) ** 2).sum(-1))
        else:
            if short > 0:  # zero columns, so that u is square
                s = np.concatenate([s, np.zeros(s.shape[:-1] + (short,))], axis=-1)
            u, sv, _ = np.linalg.svd(s, full_matrices=False)
        ranges.append((u, sv))
        high = sv.max((-2, -1), keepdims=True, initial=top)
        cut = high if cut is None else np.maximum(cut, high)
    cut = tol.rank_cut(cut)
    return [(u, sv > cut) for u, sv in ranges]


def project(s, v: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the subspace of a vector, or of each row of
    an array of row vectors.

    `s` is a Subspace, or a basis or a stack of bases with orthonormal or
    zero columns, its leading axes broadcast against those of v.
    """
    basis = s.basis if isinstance(s, Subspace) else s
    v = np.asarray(v, dtype=complex)
    if v.ndim == 0 or v.shape[-1] != basis.shape[-2]:
        raise ValueError(
            f"vectors of shape {v.shape} do not fit ambient dimension {basis.shape[-2]}")
    return (v @ basis.conj()) @ basis.swapaxes(-1, -2)


def subspace_sum(s1: Subspace, s2: Subspace) -> Subspace:
    """Smallest subspace containing both summands."""
    if s1.ambient_dim != s2.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return orthonormalize(np.hstack([s1.basis, s2.basis]).T, s1.ambient_dim, s1.tol)


def subspace_intersection(s1: Subspace, s2: Subspace) -> Subspace:
    """Intersection of two subspaces, via the null space of the stacked bases."""
    if s1.ambient_dim != s2.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if s1.dim == 0 or s2.dim == 0:
        return zero_subspace(s1.ambient_dim, s1.tol)
    stacked = np.hstack([s1.basis, -s2.basis])
    _, s, vh = np.linalg.svd(stacked)
    # null vectors (x, y) satisfy B1 x = B2 y, an intersection element
    null_mask = np.concatenate([s, np.zeros(max(0, vh.shape[0] - s.size))]) <= s1.tol.rank_cut(s[0])
    null = vh[null_mask].conj().T
    return orthonormalize((s1.basis @ null[: s1.dim]).T, s1.ambient_dim, s1.tol)


def psd_sqrt(m: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Positive square root of a PSD matrix, or of each matrix of a stack (one
    eigh for the stack), small negative eigenvalues clipped.  Each matrix must
    be PSD against its own largest eigenvalue magnitude, else ValueError."""
    w, v = np.linalg.eigh((m + m.conj().swapaxes(-1, -2)) / 2)
    if w.size and not np.all(tol.nonnegative(w[..., 0], np.max(np.abs(w), axis=-1))):
        raise ValueError(f"matrix is not PSD (min eigenvalue {np.min(w[..., 0]):.3e})")
    return (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ v.conj().swapaxes(-1, -2)


class Draws:
    """Reproducible random draws keyed by a non-negative int or a sequence of
    them, from the standard library's Mersenne Twister (Matsumoto & Nishimura
    1998), seeded by the key's words in decimal joined by commas.  It offers
    the part of numpy's Generator that the library calls, and every helper
    that takes a generator accepts either.  A negative key word raises
    ValueError, as numpy's SeedSequence does."""

    def __init__(self, key):
        try:
            words = [operator.index(key)]
        except TypeError:
            words = [operator.index(w) for w in key]
        if min(words, default=0) < 0:
            raise ValueError(f"random keys must be non-negative, got {min(words)}")
        self._bits = random.Random(",".join(map(str, words)))

    def _uniform(self, count: int) -> np.ndarray:
        """count uniforms on [0, 1), each from 53 random bits."""
        raw = np.frombuffer(self._bits.randbytes(8 * count), dtype="<u8")
        return (raw >> np.uint64(11)) * 2.0 ** -53

    def standard_normal(self, shape) -> np.ndarray:
        """Gaussians by Box-Muller: each pair of uniforms gives two."""
        count = int(np.prod(shape))
        u = self._uniform(2 * -(-count // 2)).reshape(2, -1)
        r, t = np.sqrt(-2.0 * np.log1p(-u[0])), 2 * np.pi * u[1]
        return np.concatenate([r * np.cos(t), r * np.sin(t)])[:count].reshape(shape)

    def random(self, size=None):
        """A uniform on [0, 1), or an array of them of shape `size`."""
        if size is None:
            return float(self._uniform(1)[0])
        return self._uniform(int(np.prod(size))).reshape(size)

    def integers(self, low: int, high: int | None = None) -> int:
        """A uniform integer in [low, high), or in [0, low) without high."""
        if high is None:
            low, high = 0, low
        return self._bits.randrange(int(low), int(high))


def haar_unitary(n: int, rng) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian with phase
    correction; rng is a Draws or a numpy Generator."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))

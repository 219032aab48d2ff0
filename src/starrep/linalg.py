"""Tolerance-controlled dense complex linear algebra.

Subspaces are stored as matrices with orthonormal columns (possibly zero
columns for the trivial subspace).  All rank decisions use a relative
singular-value cutoff so that downstream computations are scale invariant.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ToleranceBreach(RuntimeError):
    """A verified numerical postcondition failed beyond the configured tolerance."""


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared by every operation.

    rank_rel: relative singular-value cutoff for rank decisions.
    eq_abs: absolute tolerance for equality comparisons.
    psd_abs: how negative an eigenvalue may be while still counting as PSD.
    """

    rank_rel: float = 1e-9
    eq_abs: float = 1e-8
    psd_abs: float = 1e-8

    def __post_init__(self):
        for name in ("rank_rel", "eq_abs", "psd_abs"):
            if not getattr(self, name) > 0:
                raise ValueError(f"tolerance {name} must be strictly positive")


DEFAULT_TOL = Tolerances()


def _require_finite(a: np.ndarray, what: str = "input") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.size and (not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag))):
        raise ValueError(f"{what} contains non-finite entries")
    return a


class Subspace:
    """A linear subspace of C^n given by an orthonormal column basis."""

    def __init__(self, ambient_dim: int, basis: np.ndarray, tol: Tolerances = DEFAULT_TOL):
        ambient_dim = int(ambient_dim)
        basis = _require_finite(basis, "subspace basis")
        if basis.ndim == 1:
            basis = basis[:, None] if basis.size else basis.reshape(ambient_dim, 0)
        if basis.ndim != 2 or basis.shape[0] != ambient_dim:
            raise ValueError(
                f"subspace basis of shape {basis.shape} does not fit ambient dimension {ambient_dim}")
        if basis.shape[1] > ambient_dim:
            raise ValueError("subspace basis has more columns than the ambient dimension")
        gram = basis.conj().T @ basis
        if basis.shape[1] and np.max(np.abs(gram - np.eye(basis.shape[1]))) > 100 * tol.eq_abs:
            raise ValueError("subspace basis columns are not orthonormal")
        self.ambient_dim = int(ambient_dim)
        self.basis = basis
        self.tol = tol

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"

    def project(self, v: np.ndarray) -> np.ndarray:
        return project(self, v)

    def contains(self, v: np.ndarray) -> bool:
        v = np.asarray(v, dtype=complex)
        r = v - self.project(v)
        return np.linalg.norm(r) <= self.tol.eq_abs * max(1.0, np.linalg.norm(v))

    def perp(self) -> "Subspace":
        """Orthogonal complement within the same ambient space."""
        if self.dim == 0:
            return Subspace(self.ambient_dim, np.eye(self.ambient_dim, dtype=complex), self.tol)
        q, _ = np.linalg.qr(np.hstack([self.basis, np.eye(self.ambient_dim, dtype=complex)]))
        comp = q[:, self.dim:self.ambient_dim]
        # re-orthonormalize the complement against rounding in the QR pass
        return orthonormalize(list(comp.T), self.ambient_dim, self.tol)

    def largest_principal_angle(self, other: "Subspace") -> float:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        if self.dim == 0 and other.dim == 0:
            return 0.0
        if self.dim != other.dim:
            return np.pi / 2
        overlap = self.basis.conj().T @ other.basis
        # the sine form keeps precision for small angles, the cosine form for large
        sine = np.linalg.norm(other.basis - self.basis @ overlap, 2)
        if sine * sine < 0.5:
            return float(np.arcsin(min(1.0, sine)))
        cosine = np.linalg.svd(overlap, compute_uv=False)[-1]
        return float(np.arccos(min(1.0, cosine)))

    def isclose(self, other: "Subspace") -> bool:
        """Equality as subspaces: same ambient space, same rank, principal angles ~ 0."""
        return (
            self.ambient_dim == other.ambient_dim
            and self.dim == other.dim
            and self.largest_principal_angle(other) <= self.tol.eq_abs
        )


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

    `vectors` is an iterable of equal-length 1-d arrays.  An empty iterable
    yields the zero subspace of `ambient_dim`, which must then be given.
    """
    mats = [np.asarray(v, dtype=complex).ravel() for v in vectors]
    if not mats:
        if ambient_dim is None:
            raise ValueError("ambient_dim is required for an empty span")
        return zero_subspace(ambient_dim, tol)
    n = mats[0].size
    if any(m.size != n for m in mats):
        raise ValueError("input vectors have mismatched lengths")
    if ambient_dim is not None and n != ambient_dim:
        raise ValueError(f"vectors live in dimension {n}, expected {ambient_dim}")
    a = _require_finite(np.array(mats), "span input")
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] <= 0:
        return zero_subspace(n, tol)
    rank = int(np.sum(s > tol.rank_rel * s[0]))
    # rows of vh span the row space of a; transposing without conjugation
    # keeps the same span (conjugating would flip it)
    return Subspace(n, vh[:rank].T.copy(), tol)


def project(s: Subspace, v: np.ndarray) -> np.ndarray:
    """Orthogonal projection of v onto the subspace."""
    v = np.asarray(v, dtype=complex).ravel()
    if v.size != s.ambient_dim:
        raise ValueError(f"vector of length {v.size} does not fit ambient dimension {s.ambient_dim}")
    if s.dim == 0:
        return np.zeros(s.ambient_dim, dtype=complex)
    return s.basis @ (s.basis.conj().T @ v)


def subspace_sum(s1: Subspace, s2: Subspace) -> Subspace:
    """Smallest subspace containing both summands."""
    if s1.ambient_dim != s2.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    cols = list(s1.basis.T) + list(s2.basis.T)
    return orthonormalize(cols, s1.ambient_dim, s1.tol)


def subspace_intersection(s1: Subspace, s2: Subspace) -> Subspace:
    """Intersection of two subspaces, via the null space of the stacked bases."""
    if s1.ambient_dim != s2.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if s1.dim == 0 or s2.dim == 0:
        return zero_subspace(s1.ambient_dim, s1.tol)
    stacked = np.hstack([s1.basis, -s2.basis])
    _, s, vh = np.linalg.svd(stacked)
    # null vectors (x, y) satisfy B1 x = B2 y, an intersection element
    null_mask = np.concatenate([s, np.zeros(max(0, vh.shape[0] - s.size))]) <= s1.tol.rank_rel * max(s[0], 1.0)
    null = vh[null_mask].conj().T
    members = [s1.basis @ null[: s1.dim, j] for j in range(null.shape[1])]
    return orthonormalize(members, s1.ambient_dim, s1.tol)


def hermitian_eig(m: np.ndarray, tol: Tolerances = DEFAULT_TOL):
    """Spectral decomposition of a Hermitian matrix.

    Returns (eigenvalues in descending order, matching unitary of eigenvectors).
    Raises ValueError if the input is not Hermitian within tolerance.
    """
    m = _require_finite(m, "matrix")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("hermitian_eig expects a square matrix")
    scale = np.linalg.norm(m)
    if np.linalg.norm(m - m.conj().T) > tol.eq_abs * max(scale, 1.0):
        raise ValueError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    return w[::-1].copy(), v[:, ::-1].copy()


def is_psd(m: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Positive semidefiniteness of a Hermitian matrix within psd_abs."""
    w = np.linalg.eigvalsh((m + m.conj().T) / 2)
    return bool(w.size == 0 or w[0] >= -tol.psd_abs)


def psd_sqrt(m: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Positive square root of a PSD matrix, small negative eigenvalues clipped."""
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    if w.size and w[0] < -tol.psd_abs:
        raise ValueError(f"matrix is not PSD (min eigenvalue {w[0]:.3e})")
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian with phase correction."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))

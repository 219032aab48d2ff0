"""Hilbert-space structures: an algebra action with a declared discrete part.

A Structure couples a matrix *-algebra acting on C^n with an algebra-invariant
"discrete" subspace H_d and a bag of named vectors.  Every closure and
independence computation downstream is taken relative to the declared
H_d / H_e split.
"""
from __future__ import annotations

import numpy as np

from .algebra import StarAlgebra, generate_algebra, span_algebra
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    Tolerances,
    _require_finite,
    block_diag,
    orthonormalize,
    project,
    subspace_intersection,
    subspace_sum,
    zero_subspace,
)


class Structure:
    """A finite-dimensional representation with named vectors and a discrete part."""

    def __init__(self, algebra: StarAlgebra, discrete: Subspace | None = None,
                 vectors: dict | None = None, tol: Tolerances | None = None,
                 embedding: np.ndarray | None = None):
        self.algebra = algebra
        self.tol = tol or algebra.tol
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
        defect = invariance_defect(self.algebra.basis, self.discrete.basis)
        if defect > 100 * self.tol.eq_abs:
            raise ValueError(
                "declared discrete subspace is not invariant under the algebra "
                f"(relative residual {defect:.2e})")


def invariance_defect(mats: np.ndarray, b: np.ndarray) -> float:
    """Largest ||a b - b b^H a b|| / max(1, ||a b||) over the matrices a.

    Zero exactly when span(b) (orthonormal columns) is invariant under every a.
    """
    if not b.shape[1]:
        return 0.0
    img = mats @ b
    resid = img - b @ (b.conj().T @ img)
    scale = np.maximum(1.0, np.linalg.norm(img, axis=(1, 2)))
    return float(np.max(np.linalg.norm(resid, axis=(1, 2)) / scale, initial=0.0))


def cyclic_subspace(s: Structure, vectors) -> Subspace:
    """Closed span of all algebra images of the given vectors (the dcl of the set)."""
    vecs = [np.asarray(v, dtype=complex).ravel() for v in vectors]
    n = s.dim
    for v in vecs:
        if v.size != n:
            raise ValueError(f"vector of length {v.size} does not fit dimension {n}")
    if not vecs:
        return zero_subspace(n, s.tol)
    images = np.einsum("kab,mb->kma", s.algebra.basis, np.array(vecs)).reshape(-1, n)
    return orthonormalize(list(images), n, s.tol)


def acl(s: Structure, vectors) -> Subspace:
    """Algebraic closure: the cyclic subspace joined with the discrete part."""
    return subspace_sum(cyclic_subspace(s, vectors), s.discrete)


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


def direct_sum(s1: Structure, s2: Structure, prefixes=("a", "b")) -> Structure:
    """Direct sum of two structures carrying the same abstract algebra.

    Generator i of s2 acts as the second summand of generator i of s1; the
    summed algebra is generated by the block-diagonal joins.  Vectors of both
    summands are re-exported under prefixed names.
    """
    g1, g2 = s1.algebra.generators, s2.algebra.generators
    if len(g1) != len(g2):
        raise ValueError(
            f"generator count mismatch: {len(g1)} versus {len(g2)}")
    n1, n2 = s1.dim, s2.dim
    n = n1 + n2
    if n2 == 0:
        joined = [g for g in g1]
    elif n1 == 0:
        joined = [g for g in g2]
    else:
        joined = [block_diag(a, b) for a, b in zip(g1, g2)]
    algebra = generate_algebra(joined, dim=n, tol=s1.tol)
    return _assemble_sum(s1, s2, algebra, prefixes)


def _assemble_sum(s1: Structure, s2: Structure, algebra: StarAlgebra, prefixes) -> Structure:
    n1, n2 = s1.dim, s2.dim
    n = n1 + n2
    d1, d2 = s1.discrete.basis, s2.discrete.basis
    disc = np.zeros((n, d1.shape[1] + d2.shape[1]), dtype=complex)
    disc[:n1, : d1.shape[1]] = d1
    disc[n1:, d1.shape[1]:] = d2
    vectors = {}
    for name, v in s1.vectors.items():
        vectors[f"{prefixes[0]}.{name}"] = np.concatenate([v, np.zeros(n2, dtype=complex)])
    for name, v in s2.vectors.items():
        vectors[f"{prefixes[1]}.{name}"] = np.concatenate([np.zeros(n1, dtype=complex), v])
    return Structure(algebra, Subspace(n, disc, s1.tol), vectors, s1.tol)


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
        algebra = span_algebra([], 0, s.tol, generators=gens, validate=False)
        return Structure(algebra, zero_subspace(0, s.tol), {}, s.tol,
                         embedding=b)
    mats = [b.conj().T @ a @ b for a in s.algebra.basis]
    algebra = span_algebra(mats, k, s.tol, generators=gens, validate=False)
    disc = subspace_intersection(hv, s.discrete)
    disc_comp = orthonormalize([b.conj().T @ c for c in disc.basis.T], k, s.tol)
    return Structure(algebra, disc_comp, {"cyclic": b.conj().T @ v}, s.tol,
                     embedding=b)


def extend_with_summand(s: Structure, summand_basis: np.ndarray,
                        rotation: np.ndarray | None = None) -> Structure:
    """Adjoin a fully essential summand carrying the compression of s onto
    the invariant subspace spanned by summand_basis.

    This is the direct sum of s with its cyclic compression; an optional
    unitary rotation fixes the coordinates used for the new summand.  The new
    algebra is the image of the old one under x -> blkdiag(x, b^H x b), a
    *-homomorphism because span(b) is invariant, so the image of a basis is
    already a multiplicatively closed span and no word closure is needed.
    The images of s's moment basis become the moment basis of the result,
    which keeps s's originating algebra: type moments taken in either
    structure, or in any chain of extensions, index the same basis.
    """
    b = summand_basis
    if rotation is not None:
        b = b @ rotation
    n, k = s.dim, b.shape[1]
    images = _summand_images(s.moment_basis, b)
    gens = s.algebra.generators
    gens = _summand_images(np.array(gens, dtype=complex).reshape(len(gens), n, n), b)
    algebra = span_algebra(images, n + k, s.tol, generators=list(gens), validate=False)
    d1 = s.discrete.basis
    disc = np.zeros((n + k, d1.shape[1]), dtype=complex)
    disc[:n, :] = d1
    vectors = {f"a.{name}": np.concatenate([v, np.zeros(k, dtype=complex)])
               for name, v in s.vectors.items()}
    out = Structure(algebra, Subspace(n + k, disc, s.tol), vectors, s.tol)
    out.embedding = b
    out.origin = s.origin
    out.moment_basis = images
    return out

"""Hilbert-space structures: an algebra action with a declared discrete part.

A Structure couples a matrix *-algebra acting on C^n with an algebra-invariant
"discrete" subspace H_d and a bag of named vectors.  Every closure and
independence computation downstream is taken relative to the declared
H_d / H_e split.  Closures are solved on the algebra's Wedderburn blocks
(cyclic_subspace), never against its basis.
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
    stack_svds,
    subspace_intersection,
    subspace_sum,
    zero_subspace,
)


class Structure:
    """A finite-dimensional representation with named vectors and a discrete part."""

    def __init__(self, algebra: StarAlgebra, discrete: Subspace | None = None,
                 vectors: dict | None = None, embedding: np.ndarray | None = None):
        self.algebra = algebra
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
    R_i the row span of the (t k_i) x m_i stack of the vectors' blocks.  The
    images under a trace-orthonormal basis have singular values sqrt(n / m_i)
    sigma(stack i), so the stacks so scaled are cut as the images would be.
    """
    vecs = [np.asarray(v, dtype=complex).ravel() for v in vectors]
    n = s.dim
    for v in vecs:
        if v.size != n:
            raise ValueError(f"vector of length {v.size} does not fit dimension {n}")
    if not vecs or n == 0:
        return zero_subspace(n, s.tol)
    vs = _require_finite(np.array(vecs), "span input")
    q, scaled, rows = s.algebra.block_decomposition()._padded
    nb, mm, kk, _ = q.shape
    # [i, j, (a, v)]: sqrt(n / m_i) times entry (a, j) of vector v's block i
    stack = (scaled.reshape(-1, n) @ vs.T).reshape(nb, mm, -1)
    [(u, _, _, keep)] = stack_svds([stack], s.tol)
    # [i, r, a]: Q (e_a (x) w_ir), w_ir the r-th left singular vector of stack i
    basis = (u.swapaxes(1, 2) @ q.reshape(nb, mm, -1)).reshape(nb, -1, kk, n)
    return Subspace(n, basis[keep[:, :, None] & rows].T, s.tol)


def acl(s: Structure, vectors) -> Subspace:
    """Algebraic closure: the cyclic subspace joined with the discrete part.

    With no discrete part this is the cyclic subspace (dcl) itself, and with
    an empty cyclic subspace it is the discrete part, so only a proper join
    costs a second SVD.
    """
    return _join_discrete(s, cyclic_subspace(s, vectors))


def _join_discrete(s: Structure, cyc: Subspace) -> Subspace:
    """acl from an already computed cyclic subspace."""
    if s.discrete.dim == 0:
        return cyc
    if cyc.dim == 0:
        return s.discrete
    return subspace_sum(cyc, s.discrete)


def _in_extension(sub: Subspace, k: int) -> Subspace:
    """sub padded with k zero rows: a set with no summand part has this cyclic
    subspace in an extension of s by a k-dimensional summand when sub is its
    cyclic subspace in s, since the extension acts on s's coordinates as s."""
    return Subspace(sub.ambient_dim + k, np.vstack([sub.basis, np.zeros((k, sub.dim))]), sub.tol)


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

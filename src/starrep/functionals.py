"""Positive linear functionals on a matrix *-algebra.

A functional is stored through the Hermitian Wedderburn block parts sigma_i
of its representing element under the trace pairing, phi(a) = Tr(rho^H a),
read and validated once, or given trusted to PositiveFunctional.from_stacks.
Positivity is the sigma_i being PSD, and every norm, orthogonality and
domination question is eigenvalue arithmetic on them.  The Radon-Nikodym
operator and the embedding test are solved on the same blocks, from vectors
read as k_i x m_i matrices.  GNS keeps the cyclic vector's blocks, and two
GNS representations are intertwined on them.  Nothing in this module reads
the algebra basis, except GnsRep.action, built only when read; a generated
algebra or an extension writes that basis only then (StarAlgebra.basis).

All block data is in the algebra's one layout, a zero-padded (c, K, K)
stack per block group (BlockDecomposition.groups: every block with k <= 4 in
one group, padded to its largest k and m, and each larger k in a group of
its own, padded only in m), so each step is one LAPACK call or batched
product per group, and a block's rank inside a group is applied by zeroing
columns.  Padded rows and columns are exact zeros: their eigenvalues fall at
or below every support cut, and they add nothing to traces, norms, witness
scores or least eigenvalues.  Masks are needed only where blocks are read
out: the GNS cyclic vector, GnsRep.pi and the Radon-Nikodym basis.  The
worst case is the small group's padding, a 1 x 1 block held as at most 4 x 4
parts and 4 x M coordinates, M the group's largest m.

What is kept: per algebra, its block decomposition, its two probe
elements with their product and adjoint (StarAlgebra.probes) and their
block parts, read once (StarAlgebra.probe_parts); per
functional, its block stacks and, each on first read, rho, the norm and one
eigh per group (PositiveFunctional.spectra).  What is certified on every call:
the orthogonality norm gap against the block supports, the positivity of
gamma psi - phi, the orbit-map leak of an embedding, the range and
commutation of a Radon-Nikodym copy and its state (at the probes, in ambient
coordinates), and the GNS state round trip, *-homomorphism (at the probes'
kept parts) and cyclicity.

Each decision compares with a scale the inputs carry, so scaling vectors by c
(functionals by c^2) changes no verdict: a support is cut at rank_rel times
the functional's top eigenvalue over all blocks, never per block, so round-off
in a block it does not touch stays out; equalities and leaks are judged
against phi(1), certificates against the norms of what they compare.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import StarAlgebra
from .linalg import (ToleranceBreach, block_diag, block_diag_kron, project, psd_sqrt, stack_ranks,
                     stack_svds)
from .representation import (Structure, _closure_basis, _fitting, _residual_grams, _residuals,
                             _root, _rows)


def _adj(x):
    return x.conj().swapaxes(-1, -2)


def _hermitian(stacks):
    return [(p + _adj(p)) / 2 for p in stacks]


class PositiveFunctional:
    """A positive linear functional: its Hermitian Wedderburn block parts,
    held as one zero-padded (c, K, K) stack per block group.  Its
    in-algebra trace representative `rep`, its norm and its `spectra` (one
    eigh per group) are computed from them on first read and then kept;
    assigning `stacks` drops the spectra only.  ValueError unless the block
    residual puts rep in the algebra span and the parts are PSD."""

    def __init__(self, algebra: StarAlgebra, rep: np.ndarray):
        rep = np.asarray(rep, dtype=complex)
        if rep.shape != (algebra.dim, algebra.dim):
            raise ValueError(f"representative must be {algebra.dim}x{algebra.dim}")
        dec = algebra.block_decomposition()
        try:
            stacks = _hermitian(dec.block_parts(rep))
        except ToleranceBreach as err:
            raise ValueError("representative does not lie in the algebra span") from err
        self.algebra, self.stacks, self._rep, self._norm = algebra, stacks, None, None
        w = np.concatenate([np.zeros(0)] + [ev.ravel() for ev, _ in self.spectra[0]])
        if w.size and not algebra.tol.nonnegative(w.min(), np.max(np.abs(w))):
            raise ValueError(f"functional is not positive (min eigenvalue {w.min():.3e})")

    @classmethod
    def from_stacks(cls, algebra: StarAlgebra, stacks) -> PositiveFunctional:
        """The functional with block parts sigma_i, one (c, K, K) stack per
        group, zero past each k_i, and symmetrised,
        rep = Q (+)(sigma_i (x) I_{m_i}) Q^H; trusted, not validated."""
        phi = cls.__new__(cls)
        phi.algebra, phi.stacks, phi._rep, phi._norm = algebra, _hermitian(stacks), None, None
        return phi

    @property
    def stacks(self):
        return self._stacks

    @stacks.setter
    def stacks(self, stacks):
        self._stacks, self._spectra = stacks, None

    @property
    def spectra(self):
        """(eigh of each group's stack, the top eigenvalue over all of them),
        kept: the support of every query is cut against that top."""
        if self._spectra is None:
            spectra = [np.linalg.eigh(p) for p in self.stacks]
            self._spectra = spectra, max([0.0] + [float(w[:, -1].max()) for w, _ in spectra])
        return self._spectra

    @property
    def rep(self) -> np.ndarray:
        if self._rep is None:
            self._rep = self.algebra.block_decomposition().assemble(self.stacks)
        return self._rep

    def __call__(self, a: np.ndarray) -> complex:
        return complex(np.vdot(self.rep, a))

    def norm(self) -> float:
        """For a positive functional the norm is the value at the identity,
        sum_i m_i Tr sigma_i."""
        if self._norm is None:
            groups = self.algebra.block_decomposition().groups
            self._norm = float(sum(g.m @ np.einsum("bii->b", p).real
                                   for g, p in zip(groups, self.stacks)))
        return self._norm

    def __repr__(self):
        return f"PositiveFunctional(dim={self.algebra.dim}, norm={self.norm():.6g})"


def vector_state(s: Structure, v: np.ndarray) -> PositiveFunctional:
    """The state a -> <pi(a) v, v> of a vector.  With V_i the block coordinates
    of v, its block parts are sigma_i = V_i V_i^H / m_i, the partial trace of
    v v^H over the m_i copies: one batched product per group."""
    [v] = _fitting(s, [v])
    dec = s.algebra.block_decomposition()
    return PositiveFunctional.from_stacks(s.algebra, [
        y @ _adj(y) / g.m[:, None, None] for y, g in zip(dec.coordinates(v), dec.groups)])


def _trace_norms(dec, stacks) -> float:
    """Multiplicity-weighted blockwise trace norm of Hermitian block stacks."""
    return float(sum(g.m @ np.abs(np.linalg.eigvalsh(p)).sum(-1)
                     for g, p in zip(dec.groups, stacks)))


def functional_norm(algebra: StarAlgebra, rep: np.ndarray) -> float:
    """Dual norm of a Hermitian functional: multiplicity-weighted blockwise trace norm."""
    rep = np.asarray(rep, dtype=complex)
    if not algebra.tol.certified(np.linalg.norm(rep - rep.conj().T), np.linalg.norm(rep)):
        raise ValueError("functional representative is not Hermitian")
    dec = algebra.block_decomposition()
    return _trace_norms(dec, _hermitian(dec.block_parts(rep)))


def _on(algebra: StarAlgebra, phi: PositiveFunctional) -> PositiveFunctional:
    """phi in the algebra's decomposition: phi itself, with its kept spectra,
    on the same algebra object; one block read on an equal span; else
    ValueError."""
    if phi.algebra is algebra:
        return phi
    if not algebra.spans_equal(phi.algebra):
        raise ValueError("functionals live on different algebras")
    dec = algebra.block_decomposition()
    return PositiveFunctional.from_stacks(algebra, dec.block_parts(phi.rep))


def difference_norm(phi: PositiveFunctional, psi: PositiveFunctional) -> float:
    return _trace_norms(phi.algebra.block_decomposition(),
                        [p - q for p, q in zip(phi.stacks, _on(phi.algebra, psi).stacks)])


def is_orthogonal(phi: PositiveFunctional, psi: PositiveFunctional) -> bool:
    """Orthogonality of positive functionals: ||phi - psi|| = ||phi|| + ||psi||.

    The norm criterion is cross-checked against blockwise support
    orthogonality of the block parts; a disagreement raises, since both
    must coincide in finite dimension.
    """
    dec, tol = phi.algebra.block_decomposition(), phi.algebra.tol
    psi = _on(phi.algebra, psi)
    total = phi.norm() + psi.norm()
    gap = abs(_trace_norms(dec, [p - q for p, q in zip(phi.stacks, psi.stacks)]) - total)
    by_norm = tol.close(gap, total)
    supports = [[v * (w > tol.rank_cut(top))[:, None, :] for w, v in spectra]
                for spectra, top in (phi.spectra, psi.spectra)]
    # the supports have orthonormal columns (the rest zeroed), so their overlap has scale 1
    by_support = all(tol.certified(np.linalg.norm(_adj(sp) @ sq, axis=(1, 2)), 1.0).all()
                     for sp, sq in zip(*supports))
    if by_norm != by_support:
        raise ToleranceBreach(
            f"orthogonality criteria disagree (norm gap {gap:.3e}, support {by_support})")
    return by_norm


@dataclass
class OrthogonalityWitness:
    """A positive norm-one element separating two functionals, or the best floor."""

    success: bool
    element: np.ndarray | None
    phi_gap: float
    psi_gap: float
    floor: float


def orthogonality_witness(phi: PositiveFunctional, psi: PositiveFunctional,
                          epsilon: float) -> OrthogonalityWitness:
    """Positive a with ||a|| <= 1, phi(I - a) < eps and psi(a) < eps, when one exists.

    The witness is the spectral support-complement projection of psi's block
    representative, which lies in the algebra.  When the functionals are not
    orthogonal the result reports the best achievable floor over the tested
    spectral projections of psi.  Each candidate projection kills the
    eigenvalues of psi's blocks at or below a cut, so from one eigh per group
    it scores psi(a) = sum_i m_i (killed eigenvalues) and
    phi(I - a) = sum_i m_i (kept diagonal of phi's block in that eigenbasis);
    only the best candidate is assembled.  Scores within `Tolerances.close`
    of the least, against phi(1) + psi(1), tie, and the first of them (the
    lowest cut) wins.  Eigenvalues within psi's support cut of a candidate's
    cut are killed with it.  A gap counts as below epsilon only when it is
    below by more than that same round-off, so an exact tie is no witness.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be strictly positive")
    dec = phi.algebra.block_decomposition()
    spectra, top = _on(phi.algebra, psi).spectra
    cut = phi.algebra.tol.rank_cut(top)
    # kernel-of-support projection plus every spectral cut of psi's blocks
    cuts = np.concatenate([[cut], cut + np.unique(np.concatenate(
        [np.zeros(0)] + [w[w > cut] for w, _ in spectra]))])
    phi_gap = np.zeros(cuts.size)
    psi_gap = np.zeros(cuts.size)
    killed = []
    for (w, v), sp, g in zip(spectra, phi.stacks, dec.groups):
        # kill[b, i, j]: cut j kills eigenvalue i of block b (a prefix, eigh sorts ascending)
        kill = w[:, :, None] <= cuts
        diag = (v.conj() * (sp @ v)).sum(1).real
        weights = g.m[:, None]
        psi_gap += np.einsum("bi,bij->j", weights * w, kill)
        phi_gap += np.einsum("bi,bij->j", weights * diag, ~kill)
        killed.append(kill)
    # the first candidate within round-off of the least score, so that ties
    # in exact arithmetic do not go to whichever summation order wins
    scores = np.maximum(phi_gap, psi_gap)
    tol, scale = phi.algebra.tol, phi.norm() + psi.norm()
    best = int(np.argmax(tol.close(scores - scores.min(), scale)))
    pg, sg = float(phi_gap[best]), float(psi_gap[best])
    score = max(pg, sg)
    if not tol.close(epsilon - score, scale):
        kills = [v * kill[:, None, :, best] for (_, v), kill in zip(spectra, killed)]
        a = dec.assemble([kill @ _adj(kill) for kill in kills])
        return OrthogonalityWitness(True, a, pg, sg, score)
    return OrthogonalityWitness(False, None, pg, sg, score)


def is_dominated(phi: PositiveFunctional, psi: PositiveFunctional):
    """Whether gamma * psi - phi is positive for some gamma > 0, with the least gamma.

    Holds exactly when phi's block supports are contained in psi's, that is
    when phi's mass on psi's kernel vanishes against phi(1); the least gamma
    is the largest generalized eigenvalue of the block parts on psi's
    support, and gamma psi - phi is certified PSD blockwise before returning.
    Each step is one batched call per block group.
    """
    tol, mass = phi.algebra.tol, phi.norm()
    psi = _on(phi.algebra, psi)
    spectra, top = psi.spectra
    gamma = 0.0
    for sp, (w, v) in zip(phi.stacks, spectra):
        keep = w > tol.rank_cut(top)
        # phi's part in psi's eigenbasis: its block on psi's kernel is the
        # leak, and whitened by psi's eigenvalues on the support it gives gamma
        t = _adj(v) @ sp @ v
        if not tol.close(np.linalg.norm(t * ~(keep[:, :, None] | keep[:, None, :]), axis=(1, 2)),
                         mass).all():
            return False, None
        white = np.divide(1.0, np.sqrt(np.abs(w)), out=np.zeros_like(w), where=keep)
        ratios = np.linalg.eigvalsh(white[:, :, None] * t * white[:, None, :])
        gamma = max(gamma, float(ratios.max(initial=0.0)))
    least = min(float(np.linalg.eigvalsh(gamma * sq - sp)[:, 0].min())
                for sp, sq in zip(phi.stacks, psi.stacks))
    if not tol.nonnegative(least, gamma * top):
        raise ToleranceBreach(f"certified gamma fails positivity (min eigenvalue {least:.3e})")
    return True, gamma


@dataclass
class GnsRep:
    """Cyclic representation built from a positive functional, held as blocks:
    x acts as pi(x) = (+) x_i (x) I_{r_i} on (+) C^{k_i} (x) C^{r_i}; `roots`
    holds the cyclic vector's blocks Xi_i = sqrt(m_i) sigma_i^{1/2}, one
    zero-padded (c, K, K) stack per group with the columns off each block's
    support zeroed, and `cyclic` the same vector, block by block and row by
    row.  `action`, pi of every basis element (d r^2 entries), is built only
    when read.  The defects are maxima over the algebra's probes, not over
    the basis."""

    algebra: StarAlgebra
    space_dim: int
    cyclic: np.ndarray
    ranks: list
    roots: list
    roundtrip_defect: float = 0.0
    star_hom_defect: float = 0.0

    def pi(self, x: np.ndarray) -> np.ndarray:
        """(+) x_i (x) I_{r_i} for an algebra element or a stack of them; the
        groups are split into blocks here, since ranks differ inside a group."""
        dec = self.algebra.block_decomposition()
        return block_diag_kron(dec.per_block(dec.block_parts(x)), self.ranks)

    @cached_property
    def action(self) -> np.ndarray:
        return self.pi(self.algebra.basis)

    def __repr__(self):
        return f"GnsRep(space_dim={self.space_dim})"


def gns(algebra: StarAlgebra, phi: PositiveFunctional) -> GnsRep:
    """Gelfand-Naimark-Segal construction for a positive functional.

    On the Wedderburn blocks phi(x) = sum_i m_i Tr(sigma_i x_i).  Eigenvalues
    of the sigma_i at or below the support cut (taken over all blocks) span
    the null space; the r_i kept ones give the space, from phi's kept
    spectra, one eigh per block group.  Nothing indexed by the algebra
    basis is built, and the defects are maxima, not over the basis but at
    the algebra's probes x, y (StarAlgebra.probes), of
    <pi(x) xi, xi> = phi(x), of pi(x) pi(y) xi = pi(xy) xi and, on the kept
    blocks, of pi(x)^H = pi(x^H), with the probes' ambient xy and x^H read
    through one block_parts per algebra (StarAlgebra.probe_parts).  xi is
    cyclic when each Xi_i has full column rank r_i.  Only the zero
    functional is degenerate.
    """
    tol = algebra.tol
    spectra, top = _on(algebra, phi).spectra
    if not top > 0:
        raise ValueError("the functional is degenerate (vanishes at the identity)")
    dec = algebra.block_decomposition()
    keeps = [w > tol.rank_cut(top) for w, _ in spectra]
    roots = [np.sqrt(g.m)[:, None, None] * v * np.sqrt(np.where(keep, w, 0.0))[:, None, :]
             for (w, v), keep, g in zip(spectra, keeps, dec.groups)]
    # sqrt(m_i) sigma_i^{1/2} on its range: each block's kept columns, its k_i rows
    cyclic = np.concatenate([root[g.rows[:, :, None] & keep[:, None, :]]
                             for root, keep, g in zip(roots, keeps, dec.groups)])
    ranks = np.concatenate([keep.sum(1) for keep in keeps]).tolist()
    rep = GnsRep(algebra, cyclic.size, cyclic, ranks, roots)
    elements = algebra.probes()
    # each group's parts of x, y, xy and x^H, and the images of xi under the first three
    parts = algebra.probe_parts()
    images = [p[:3] @ root for p, root in zip(parts, roots)]
    values = sum(np.einsum("ecaj,caj->e", im[:2], root.conj()) for im, root in zip(images, roots))
    rep.roundtrip_defect = float(np.max(np.abs(
        values - elements[:2].reshape(2, -1) @ phi.rep.conj().ravel())))
    letter_defect = max(float(np.max(np.abs(p[0] @ im[1] - im[2])))
                        for p, im in zip(parts, images))
    kept = [p[:, keep.any(1)] for p, keep in zip(parts, keeps)]
    adjoint_defect = max(float(np.max(np.abs(_adj(p[0]) - p[3]), initial=0.0)) for p in kept)
    rep.star_hom_defect = max(letter_defect, adjoint_defect)
    if not tol.certified(rep.roundtrip_defect, phi.norm()):
        raise ToleranceBreach(f"GNS state round trip off by {rep.roundtrip_defect:.2e}")
    # |pi(x)[y]| <= |x| |[y]|; the adjoint check compares entries of pi(x)
    letter_scale = np.linalg.norm(elements[0]) * np.sqrt(sum(np.linalg.norm(im[1]) ** 2
                                                             for im in images))
    entry_scale = max(float(np.max(np.abs(p[0]), initial=0.0)) for p in kept)
    if not (tol.certified(letter_defect, letter_scale)
            and tol.certified(adjoint_defect, entry_scale)):
        raise ToleranceBreach(f"GNS action fails *-homomorphism by {rep.star_hom_defect:.2e}")
    # pi(A) xi = (+) M_{k_i} Xi_i is the whole space iff each Xi_i has rank r_i
    if any((r < keep.sum(1)).any() for r, keep in zip(stack_ranks(roots, tol), keeps)):
        raise ToleranceBreach("GNS cyclic vector does not generate the space")
    return rep


def gns_intertwiner(rep1: GnsRep, rep2: GnsRep):
    """The unitary intertwiner carrying one cyclic vector to the other, with
    its defect.

    Pointed GNS representations are equivalent exactly when their states are
    equal (Murphy 1990, ch. 3).  With equal block ranks both act as
    pi(x) = (+) x_i (x) I_{r_i}, so every intertwiner is U = (+) I_{k_i} (x) u_i
    and U xi_1 = xi_2 reads Xi^1_i u_i^T = Xi^2_i on the roots.  Their columns
    are orthogonal, so the least-squares u_i^T is
    diag(1 / ||column of Xi^1_i||^2) Xi^1_i^H Xi^2_i, one batched product per
    group, with no cutoff: the columns off the supports are exactly zero.
    Returns (u, defect): u holds one (c, K, K) stack per group, rows and
    columns off the supports zeroed, and the defect is the larger of the
    largest entries of Xi^1_i u_i^T - Xi^2_i and of u_i^H u_i - I on the
    supports; U commutes with pi by construction.  A defect at tolerance certifies the two
    representations pointedly isomorphic.  Different block ranks give
    (None, inf).
    """
    if rep1.algebra is not rep2.algebra:
        raise ValueError("GNS representations of different algebras")
    if rep1.ranks != rep2.ranks:
        return None, float("inf")
    us, defect = [], 0.0
    for xi1, xi2 in zip(rep1.roots, rep2.roots):
        norms = np.einsum("cjk,cjk->ck", xi1.conj(), xi1).real
        support = norms > 0
        ut = np.divide(1.0, norms, out=np.zeros_like(norms), where=support)[:, :, None] * (
            _adj(xi1) @ xi2)
        u = ut.swapaxes(-1, -2)
        us.append(u)
        unitarity = _adj(u) @ u - support[:, :, None] * np.eye(support.shape[1])
        defect = max(defect, float(np.max(np.abs(xi1 @ ut - xi2))),
                     float(np.max(np.abs(unitarity))))
    return us, defect


def _orbit_leak(s: Structure, v: np.ndarray, w: np.ndarray):
    """(leak, scale) of the orbit map pi(a) w -> pi(a) v, read on the blocks.

    The map exists and is bounded exactly when each V_i lies in the range of
    W_i.  Over a trace-orthonormal basis of the algebra, its part on the
    kernel of a -> pi(a) w has Frobenius norm sqrt(n) times
    leak = sqrt(sum_i (k_i/m_i) ||V_i - P_{W_i} V_i||^2), and the whole map
    sqrt(n) times scale = sqrt(sum_i (k_i/m_i) ||V_i||^2), so leak / scale is
    the orbit route's ratio.  The singular values of a -> pi(a) w are
    sqrt(n/m_i) times those of W_i, so the ranges are cut on W_i / sqrt(m_i).
    """
    dec = s.algebra.block_decomposition()
    ws = [y / np.sqrt(g.m)[:, None, None] for y, g in zip(dec.coordinates(w), dec.groups)]
    leak = scale = 0.0
    for (u, _, _, keep), vi, g in zip(stack_svds(ws, s.tol), dec.coordinates(v), dec.groups):
        u = u * keep[:, None, :]
        vi = vi * np.sqrt(g.k / g.m)[:, None, None]  # so that squared norms carry k_i / m_i
        leak += np.linalg.norm(vi - u @ (_adj(u) @ vi)) ** 2
        scale += np.linalg.norm(vi) ** 2
    return float(np.sqrt(leak)), float(np.sqrt(scale))


def embeds_as_subrepresentation(s: Structure, v: np.ndarray, w: np.ndarray) -> bool:
    """Whether the cyclic representation of v embeds into that of w (pointedly).

    Decided by state domination phi_v <= phi_w and cross-checked on the
    blocks by solvability of the orbit map pi(a) w -> pi(a) v (_orbit_leak),
    which exists and is bounded exactly under domination.
    """
    v, w = _fitting(s, [v, w])
    dominated, _ = is_dominated(vector_state(s, v), vector_state(s, w))
    leak, scale = _orbit_leak(s, v, w)
    solvable = s.tol.certified(leak, scale)
    if solvable != dominated:
        raise ToleranceBreach(
            f"domination and orbit-map solvability disagree (leak {leak:.3e})")
    return dominated


@dataclass
class RadonNikodym:
    """Positive commutant operator T on H_w with T w = v', phi_{v'} = phi_v.

    The basis of H_w is block-adapted: block i contributes the columns of
    Q_i (I_{k_i} (x) conj Y_i), with Q_i the block's columns of the change of
    basis and W_i = U_i S_i Y_i^H the thin SVD of w's block, and in it T is
    the direct sum of I_{k_i} (x) T_i.
    """

    operator: np.ndarray      # acting on H_w coordinates, in the block-adapted basis
    basis: np.ndarray         # orthonormal block-adapted basis of H_w inside the ambient space
    v_copy: np.ndarray        # the realized copy of v, in ambient coordinates
    gamma: float


def _block_svds(dec, coords, tol):
    """Thin SVDs of the blocks of group coordinate stacks, in the group
    layout: (u, s, vh, keep) per group, zero past each block's own shape,
    keep cut as stack_svds cuts.  LAPACK is called once per run of equal
    block shapes, on the blocks themselves: zero padding changes the phases
    zgesdd gives the singular vectors, and the Radon-Nikodym basis shows
    them."""
    views, owners = [], []
    for index, (g, stack) in enumerate(zip(dec.groups, coords)):
        for first, count, k, m, _ in dec.runs:
            if g.first <= first < g.first + len(g.k):
                views.append(stack[first - g.first:first - g.first + count, :k, :m])
                owners.append((index, first - g.first))
    svds = stack_svds(views, tol)
    out = []
    for index, stack in enumerate(coords):
        runs = [(i, svd) for (owner, i), svd in zip(owners, svds) if owner == index]
        if len(runs) == 1:  # the group is one run, so nothing is padded
            out.append(runs[0][1])
            continue
        c, k, m = stack.shape
        p = min(k, m)
        out.append((np.zeros((c, k, p), dtype=complex), np.zeros((c, p)),
                    np.zeros((c, p, m), dtype=complex), np.zeros((c, p), dtype=bool)))
        for i, svd in runs:
            for full, part in zip(out[-1], svd):
                full[(slice(i, i + len(part)),) + tuple(map(slice, part.shape[1:]))] = part
    return out


def radon_nikodym_operator(s: Structure, w: np.ndarray, v: np.ndarray):
    """The Radon-Nikodym operator realizing phi_v inside the cyclic space of w.

    Returns None when phi_v is not dominated by phi_w.  Otherwise works on the
    Wedderburn blocks, with v and w read as k_i x m_i matrices V_i and W_i.
    With W_i = U_i S_i Y_i^H (ranks from one cutoff, rank_rel times the
    largest singular value over all blocks), H_w = Q (+) {Z Y_i^H}, and
    <D pi(a) w, pi(b) w> = phi_v(b^H a) is solved by D: Z -> Z delta_i with
    delta_i = G_i G_i^H, G_i = S_i^{-1} U_i^H V_i.  T = sqrt(D) is
    (+) I_{k_i} (x) sqrt(delta_i)^T and carries w to the copy
    Q (+) U_i S_i sqrt(delta_i) Y_i^H, with one eigh per block group and
    one svd per run of equal block shapes (_block_svds).  D is PSD by
    construction.  Certified:
    V_i lies in the range of W_i, T commutes with the compressed letters of
    the algebra, and the copy carries the state of v at the algebra's probes.
    """
    v, w = _fitting(s, [v, w])
    phi_v, phi_w = vector_state(s, v), vector_state(s, w)
    dominated, gamma = is_dominated(phi_v, phi_w)
    if not dominated:
        return None

    tol, n = s.tol, s.dim
    dec = s.algebra.block_decomposition()
    cols, keeps, roots, outside, scale = [], [], [], [], []
    for grp, (q, _), vi, (u, sv, yh, keep) in zip(dec.groups, dec.columns, dec.coordinates(v),
                                                  _block_svds(dec, dec.coordinates(w), tol)):
        # the columns past a block's rank and the rows past its k_i are
        # zeroed, then dropped
        c, k, m = grp.index.shape
        p = sv.shape[1]
        u = u * keep[:, None, :]
        # q[c, m, a]: column (a, m) of block c
        cols.append(np.einsum("cmax,cjm->xcaj", q, yh).reshape(n, -1))
        keeps.append((grp.rows[:, :, None] & keep[:, None, :]).ravel())
        uv = _adj(u) @ vi
        g = uv * np.divide(1.0, sv, out=np.zeros_like(sv), where=keep)[:, :, None]
        # I_{k_i} (x) sqrt(delta_i)^T, with one eigh per group
        roots.append(np.einsum("cd,ab,cji->caidbj", np.eye(c), np.eye(k),
                               psd_sqrt(g @ _adj(g), tol)).reshape(c * k * p, -1))
        # U S delta S U^H - V V^H: the part of V_i outside the range of W_i
        inside, vv = u @ uv, vi @ _adj(vi)
        outside.append(np.linalg.norm(inside @ _adj(inside) - vv, axis=(1, 2)))
        scale.append(np.linalg.norm(vv, axis=(1, 2)))
    keep = np.concatenate(keeps)
    b = np.hstack(cols)[:, keep]
    if b.shape[1] == 0:
        return RadonNikodym(np.zeros((0, 0), dtype=complex), b, np.zeros(n, dtype=complex),
                            float(gamma))
    resid = float(np.linalg.norm(np.concatenate(outside)))
    if not tol.certified(resid, np.linalg.norm(np.concatenate(scale))):
        raise ToleranceBreach(f"Radon-Nikodym system inconsistent by {resid:.2e}")
    # sqrt of the direct sum is the direct sum of the sqrt(delta_i)
    t_op = block_diag(*roots)[np.ix_(keep, keep)]
    letters = s.algebra.letters()
    comp = b.conj().T @ letters @ b
    comm_defect = float(np.max(np.linalg.norm(t_op @ comp - comp @ t_op, axis=(1, 2)),
                               initial=0.0))
    comp_norm = float(np.max(np.linalg.norm(comp, axis=(1, 2)), initial=0.0))
    if not tol.certified(comm_defect, np.linalg.norm(t_op) * comp_norm):
        raise ToleranceBreach(f"Radon-Nikodym operator leaves the commutant by {comm_defect:.2e}")
    copy = b @ (t_op @ (b.conj().T @ w))
    # phi_copy - phi_v at the probes x, y, in ambient coordinates, so not through Q: a
    # nonzero functional on the algebra vanishes there only on a null set
    x = s.algebra.probes()[:2]
    state_gap = float(np.max(np.abs((x @ copy) @ copy.conj() - (x @ v) @ v.conj())))
    if not tol.certified(state_gap, phi_v.norm()):
        raise ToleranceBreach(f"realized copy carries the wrong state (gap {state_gap:.2e})")
    return RadonNikodym(t_op, b, copy, float(gamma))


def _type_states(s: Structure, v: np.ndarray, w: np.ndarray, base):
    """The vector states of v's and w's residuals over acl(base), each zero if
    close to zero, with block parts rho_i[j, j] / m_i on the blocks of s's root
    (representation._residual_grams), whose algebra is isomorphic to s's."""
    vs = np.array(_fitting(s, [v, w]))
    [rows] = _rows(s, base)
    cl = _closure_basis(s, rows, discrete=True)
    res = _residuals(vs, project(cl, vs), s.tol)
    root = _root(s)
    parts = [rho / g.m[:, None, None, None, None] for rho, g in zip(
        _residual_grams(s, res), root.algebra.block_decomposition().groups)]
    return [PositiveFunctional.from_stacks(root.algebra, [p[:, j, j] for p in parts])
            for j in (0, 1)]


def types_orthogonal(s: Structure, v: np.ndarray, w: np.ndarray, base) -> bool:
    """Orthogonality of tp(v/base) and tp(w/base) via residual vector states."""
    return is_orthogonal(*_type_states(s, v, w, base))


def types_dominated(s: Structure, v: np.ndarray, w: np.ndarray, base) -> bool:
    """Whether tp(v/base) dominates tp(w/base): the w-residual state is
    dominated by the v-residual state."""
    phi_v, phi_w = _type_states(s, v, w, base)
    return is_dominated(phi_w, phi_v)[0]

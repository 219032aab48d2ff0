"""Positive linear functionals on a matrix *-algebra.

A functional is stored through its representing element under the trace
pairing, phi(a) = Tr(rho^H a), with rho inside the algebra span, and through
the Hermitian Wedderburn block parts sigma_i of rho, read once.  Positivity
is equivalent to rho being PSD, and every norm, orthogonality and domination
question is eigenvalue arithmetic on the sigma_i.  The Radon-Nikodym operator
is solved on the same blocks, from vectors read as k_i x m_i matrices, and is
returned in a block-adapted basis of the cyclic space.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import StarAlgebra, conditional_expectation
from .linalg import ToleranceBreach, block_diag, block_diag_kron, project, psd_sqrt
from .representation import Structure, acl, essential_discrete_parts


def _hermitian(parts):
    return [(p + p.conj().T) / 2 for p in parts]


class PositiveFunctional:
    """A positive linear functional: its in-algebra trace representative `rep`
    and the Hermitian Wedderburn block parts `parts` of it."""

    def __init__(self, algebra: StarAlgebra, rep: np.ndarray, validate: bool = True):
        rep = np.asarray(rep, dtype=complex)
        if rep.shape != (algebra.dim, algebra.dim):
            raise ValueError(f"representative must be {algebra.dim}x{algebra.dim}")
        if validate:
            inside = conditional_expectation(rep, algebra)
            if np.linalg.norm(inside - rep) > 1e-6 * max(1.0, np.linalg.norm(rep)):
                raise ValueError("representative does not lie in the algebra span")
            rep = (inside + inside.conj().T) / 2
            w = np.linalg.eigvalsh(rep)
            if w.size and w[0] < -algebra.tol.psd_abs * max(1.0, abs(w[-1])):
                raise ValueError(f"functional is not positive (min eigenvalue {w[0]:.3e})")
        self.algebra = algebra
        self.rep = rep
        self.parts = _hermitian(algebra.block_decomposition().block_parts(rep, check=True))

    @classmethod
    def from_parts(cls, algebra: StarAlgebra, parts) -> PositiveFunctional:
        """The functional with block parts sigma_i, rep = Q (+)(sigma_i (x) I_{m_i}) Q^H."""
        phi = cls.__new__(cls)
        phi.algebra, phi.parts = algebra, _hermitian(parts)
        phi.rep = algebra.block_decomposition().assemble(phi.parts)
        return phi

    def __call__(self, a: np.ndarray) -> complex:
        return complex(np.vdot(self.rep, a))

    def norm(self) -> float:
        """For a positive functional the norm is the value at the identity."""
        return float(np.real(np.trace(self.rep)))

    def __repr__(self):
        return f"PositiveFunctional(dim={self.algebra.dim}, norm={self.norm():.6g})"


def _block_coordinates(dec, x: np.ndarray):
    """Block i of Q^H x read as a k_i x m_i matrix (the order block_parts uses):
    an algebra element acts on it as X -> x_i X, the commutant as X -> X c."""
    y = dec.change_of_basis.conj().T @ x
    return [y[off:off + k * m].reshape(k, m) for off, (k, m) in zip(dec.offsets(), dec.blocks)]


def vector_state(s: Structure, v: np.ndarray) -> PositiveFunctional:
    """The state a -> <pi(a) v, v> of a vector.  With V_i the block coordinates
    of v, its block parts are sigma_i = V_i V_i^H / m_i, the partial trace of
    v v^H over the m_i copies."""
    v = np.asarray(v, dtype=complex).ravel()
    if v.size != s.dim:
        raise ValueError(f"vector of length {v.size} does not fit dimension {s.dim}")
    dec = s.algebra.block_decomposition()
    return PositiveFunctional.from_parts(s.algebra, [
        vi @ vi.conj().T / m for vi, (_, m) in zip(_block_coordinates(dec, v), dec.blocks)])


def _trace_norm(dec, parts) -> float:
    """Multiplicity-weighted blockwise trace norm of Hermitian block parts."""
    return sum(m * float(np.sum(np.abs(np.linalg.eigvalsh(p))))
               for (_, m), p in zip(dec.blocks, parts))


def functional_norm(algebra: StarAlgebra, rep: np.ndarray) -> float:
    """Dual norm of a Hermitian functional: multiplicity-weighted blockwise trace norm."""
    rep = np.asarray(rep, dtype=complex)
    if np.linalg.norm(rep - rep.conj().T) > 1e-6 * max(1.0, np.linalg.norm(rep)):
        raise ValueError("functional representative is not Hermitian")
    dec = algebra.block_decomposition()
    return _trace_norm(dec, _hermitian(dec.block_parts(rep)))


def _block_pair(phi: PositiveFunctional, psi: PositiveFunctional):
    """phi's block decomposition with both functionals' block parts in it."""
    dec = phi.algebra.block_decomposition()
    if phi.algebra is psi.algebra:
        return dec, phi.parts, psi.parts
    if not phi.algebra.spans_equal(psi.algebra):
        raise ValueError("functionals live on different algebras")
    return dec, phi.parts, _hermitian(dec.block_parts(psi.rep))


def _support_cut(w: np.ndarray, tol) -> float:
    """Eigenvalues of a block part above this cut span its support."""
    return max(tol.psd_abs, tol.rank_rel * float(np.max(w, initial=0.0)))


def difference_norm(phi: PositiveFunctional, psi: PositiveFunctional) -> float:
    dec, parts_phi, parts_psi = _block_pair(phi, psi)
    return _trace_norm(dec, [p - q for p, q in zip(parts_phi, parts_psi)])


def is_orthogonal(phi: PositiveFunctional, psi: PositiveFunctional) -> bool:
    """Orthogonality of positive functionals: ||phi - psi|| = ||phi|| + ||psi||.

    The norm criterion is cross-checked against blockwise support
    orthogonality of the block parts; a disagreement raises, since both
    must coincide in finite dimension.
    """
    _, parts_phi, parts_psi = _block_pair(phi, psi)
    tol = phi.algebra.tol
    gap = abs(difference_norm(phi, psi) - (phi.norm() + psi.norm()))
    by_norm = gap <= max(tol.eq_abs, 1e-10 * (phi.norm() + psi.norm()))
    # lazy, so the test stops at the first block whose supports overlap
    supports = ((v[:, w > _support_cut(w, tol)] for w, v in map(np.linalg.eigh, parts))
                for parts in (parts_phi, parts_psi))
    by_support = all(np.linalg.norm(sp.conj().T @ sq) <= 1e-6 for sp, sq in zip(*supports))
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
    eigenvalues of psi's blocks at or below a cut, so from one eigh per block
    it scores psi(a) = sum_i m_i (killed eigenvalues) and
    phi(I - a) = sum_i m_i (kept diagonal of phi's block in that eigenbasis);
    only the best candidate (the first on ties) is assembled.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be strictly positive")
    dec, parts_phi, parts_psi = _block_pair(phi, psi)
    tol = phi.algebra.tol

    spectra = [np.linalg.eigh(sigma) for sigma in parts_psi]
    # kernel-of-support projection plus every spectral cut of psi's blocks
    pooled = sorted({round(float(x), 14) for w, _ in spectra for x in w if x > tol.psd_abs})
    phi_gap = np.zeros(len(pooled) + 1)
    psi_gap = np.zeros(len(pooled) + 1)
    killed = []
    for (w, v), sp, (_, m) in zip(spectra, parts_phi, dec.blocks):
        # eigh sorts ascending, so each cut kills a prefix of the eigenvectors
        count = np.searchsorted(w, [_support_cut(w, tol)] + [th + 1e-12 for th in pooled],
                                side="right")
        diag = np.real(np.einsum("ji,jk,ki->i", v.conj(), sp, v))
        psi_gap += m * np.concatenate([[0.0], np.cumsum(w)])[count]
        phi_gap += m * np.concatenate([np.cumsum(diag[::-1])[::-1], [0.0]])[count]
        killed.append(count)
    best = int(np.argmin(np.maximum(phi_gap, psi_gap)))
    pg, sg = float(phi_gap[best]), float(psi_gap[best])
    score = max(pg, sg)
    if pg < epsilon and sg < epsilon:
        kills = [v[:, :count[best]] for (_, v), count in zip(spectra, killed)]
        a = dec.assemble([kill @ kill.conj().T for kill in kills])
        return OrthogonalityWitness(True, a, pg, sg, score)
    return OrthogonalityWitness(False, None, pg, sg, score)


def is_dominated(phi: PositiveFunctional, psi: PositiveFunctional):
    """Whether gamma * psi - phi is positive for some gamma > 0, with the least gamma.

    Holds exactly when phi's block supports are contained in psi's; the least
    gamma is the largest generalized eigenvalue of the representatives on
    psi's support, certified PSD before returning.
    """
    _, parts_phi, parts_psi = _block_pair(phi, psi)
    tol = phi.algebra.tol
    gamma = 0.0
    for sp, sq in zip(parts_phi, parts_psi):
        w, v = np.linalg.eigh(sq)
        keep = w > _support_cut(w, tol)
        kernel = v[:, ~keep]
        if kernel.shape[1]:
            leak = float(np.linalg.norm(kernel.conj().T @ sp @ kernel))
            if leak > tol.psd_abs * max(1.0, float(np.linalg.norm(sp))):
                return False, None
        if not np.any(keep):
            continue
        bs = v[:, keep]
        s_psi = bs.conj().T @ sq @ bs
        s_phi = bs.conj().T @ sp @ bs
        inv_sqrt = np.linalg.inv(psd_sqrt(s_psi, tol))
        ratios = np.linalg.eigvalsh(inv_sqrt @ s_phi @ inv_sqrt.conj().T)
        if ratios.size:
            gamma = max(gamma, float(ratios[-1]))
    gamma = max(gamma, 0.0)
    slack = np.linalg.eigvalsh(gamma * psi.rep - phi.rep)
    if slack.size and slack[0] < -tol.psd_abs * max(1.0, gamma):
        raise ToleranceBreach(
            f"certified gamma fails positivity (min eigenvalue {slack[0]:.3e})")
    return True, gamma


@dataclass
class GnsRep:
    """Cyclic representation built from a positive functional.

    `action` holds one matrix per algebra basis element; the cyclic vector is
    the class of the identity.
    """

    algebra: StarAlgebra
    space_dim: int
    action: np.ndarray
    cyclic: np.ndarray
    roundtrip_defect: float = 0.0
    star_hom_defect: float = 0.0

    def state_values(self) -> np.ndarray:
        """<pi(b) v, v> over the algebra basis; equals the source functional."""
        return np.einsum("kab,b,a->k", self.action, self.cyclic, self.cyclic.conj())

    def __repr__(self):
        return f"GnsRep(space_dim={self.space_dim})"


def gns(algebra: StarAlgebra, phi: PositiveFunctional, verify: bool = True) -> GnsRep:
    """Gelfand-Naimark-Segal construction for a positive functional.

    On the Wedderburn blocks phi(x) = sum_i m_i Tr(sigma_i x_i).  Eigenvalues
    of the sigma_i at or below the relative rank cutoff (taken over all
    blocks) span the null space; the r_i kept ones give the space, the direct
    sum of C^{k_i} (x) C^{r_i}, with x acting as x_i (x) I_{r_i} and the cyclic
    vector the sum of sqrt(m_i) sigma_i^{1/2} restricted to its range.  The
    action is cross-checked against products of letters and basis elements
    expanded in the algebra basis.
    """
    if phi.algebra is not algebra and not phi.algebra.spans_equal(algebra):
        raise ValueError("functional lives on a different algebra")
    if phi.norm() <= algebra.tol.eq_abs:
        raise ValueError("the functional is degenerate (vanishes at the identity)")
    dec = algebra.block_decomposition()
    sigmas = _hermitian(dec.block_parts(phi.rep))
    spectra = [np.linalg.eigh(sigma) for sigma in sigmas]
    cut = algebra.tol.rank_rel * max(float(w[-1]) for w, _ in spectra)
    roots = [np.sqrt(m) * v[:, w > cut] * np.sqrt(w[w > cut])
             for (w, v), (_, m) in zip(spectra, dec.blocks)]
    ranks = [root.shape[1] for root in roots]
    basis, n = algebra.basis, algebra.dim
    parts = dec.block_parts(basis)
    action = block_diag_kron(parts, ranks)
    cyclic = np.concatenate([root.ravel() for root in roots])
    r = cyclic.size
    rep = GnsRep(algebra, r, action, cyclic)
    roundtrip = float(np.max(np.abs(rep.state_values()
                                    - basis.reshape(len(basis), -1) @ phi.rep.conj().ravel())))
    # pi(l)[b] against [l b] = sum_k c_k [b_k], with [x] = pi(x) xi and c the
    # basis coordinates of l b; and pi(b)^H against pi(b^H) from coordinates,
    # compared on the blocks the space keeps (pi(x) repeats their entries)
    flat = basis.reshape(-1, n * n).conj().T / n
    classes = action @ cyclic
    letters = algebra.letters()
    products = (letters[:, None] @ basis[None]).reshape(-1, n * n)
    expected = ((products @ flat) @ classes).reshape(len(letters), -1, r)
    actual = (block_diag_kron(dec.block_parts(letters), ranks) @ classes.T).transpose(0, 2, 1)
    star_defect = float(np.max(np.abs(actual - expected)))
    adjoints = basis.conj().transpose(0, 2, 1).reshape(-1, n * n) @ flat
    for part in (part for part, rank in zip(parts, ranks) if rank):
        adj_expected = (adjoints @ part.reshape(len(basis), -1)).reshape(part.shape)
        star_defect = max(star_defect, float(np.max(
            np.abs(part.conj().transpose(0, 2, 1) - adj_expected))))
    rep.roundtrip_defect = roundtrip
    rep.star_hom_defect = star_defect

    if verify:
        scale = max(1.0, phi.norm())
        if roundtrip > 100 * algebra.tol.eq_abs * scale:
            raise ToleranceBreach(f"GNS state round trip off by {roundtrip:.2e}")
        if star_defect > 100 * algebra.tol.eq_abs * max(1.0, float(np.max(np.abs(action)))):
            raise ToleranceBreach(f"GNS action fails *-homomorphism by {star_defect:.2e}")
        if np.linalg.matrix_rank(classes) < r:
            raise ToleranceBreach("GNS cyclic vector does not generate the space")
    return rep


def gns_intertwiner(rep1: GnsRep, rep2: GnsRep):
    """Best unitary intertwiner matching cyclic vectors, with its defect.

    Returns (U, defect) where defect bounds the violation of U pi_1 = pi_2 U,
    U v_1 = v_2 and unitarity; a defect at tolerance certifies the two
    representations pointedly isomorphic.
    """
    if rep1.space_dim != rep2.space_dim:
        return None, float("inf")
    y1 = np.concatenate([rep1.action @ rep1.cyclic, rep1.cyclic[None, :]], axis=0).T
    y2 = np.concatenate([rep2.action @ rep2.cyclic, rep2.cyclic[None, :]], axis=0).T
    u, *_ = np.linalg.lstsq(y1.T, y2.T, rcond=None)
    u = u.T
    defect = float(np.max(np.abs(u @ y1 - y2)))
    defect = max(defect, float(np.max(np.abs(u.conj().T @ u - np.eye(rep1.space_dim)))))
    inter = np.einsum("ab,kbc->kac", u, rep1.action) - np.einsum("kab,bc->kac", rep2.action, u)
    if inter.size:
        defect = max(defect, float(np.max(np.abs(inter))))
    return u, defect


def embeds_as_subrepresentation(s: Structure, v: np.ndarray, w: np.ndarray) -> bool:
    """Whether the cyclic representation of v embeds into that of w (pointedly).

    Decided by state domination phi_v <= phi_w and cross-checked by direct
    solvability of the orbit map pi(a) w -> pi(a) v, which exists and is
    bounded exactly under domination.
    """
    v = np.asarray(v, dtype=complex).ravel()
    w = np.asarray(w, dtype=complex).ravel()
    dominated, _ = is_dominated(vector_state(s, v), vector_state(s, w))

    ow = np.einsum("kab,b->ka", s.algebra.basis, w).T        # (n, d) orbit of w
    ov = np.einsum("kab,b->ka", s.algebra.basis, v).T
    _, sv, vh = np.linalg.svd(ow, full_matrices=False)
    cutoff = s.tol.rank_rel * max(float(sv[0]) if sv.size else 0.0, 1.0)
    rows = vh[:int(np.sum(sv > cutoff))]                     # row space of the orbit of w
    leak = float(np.linalg.norm(ov - (ov @ rows.conj().T) @ rows))
    solvable = leak <= 1e-6 * max(1.0, float(np.linalg.norm(ov)))
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


def radon_nikodym_operator(s: Structure, w: np.ndarray, v: np.ndarray):
    """The Radon-Nikodym operator realizing phi_v inside the cyclic space of w.

    Returns None when phi_v is not dominated by phi_w.  Otherwise works on the
    Wedderburn blocks, with v and w read as k_i x m_i matrices V_i and W_i.
    With W_i = U_i S_i Y_i^H (ranks from one cutoff, rank_rel times the
    largest singular value over all blocks), H_w = Q (+) {Z Y_i^H}, and
    <D pi(a) w, pi(b) w> = phi_v(b^H a) is solved by D: Z -> Z delta_i with
    delta_i = G_i G_i^H, G_i = S_i^{-1} U_i^H V_i.  T = sqrt(D) is
    (+) I_{k_i} (x) sqrt(delta_i)^T and carries w to the copy
    Q (+) U_i S_i sqrt(delta_i) Y_i^H.  Certified: V_i lies in the range of
    W_i, D is PSD, T commutes with the compressed letters of the algebra, and
    the copy carries the state of v.
    """
    v = np.asarray(v, dtype=complex).ravel()
    w = np.asarray(w, dtype=complex).ravel()
    phi_v, phi_w = vector_state(s, v), vector_state(s, w)
    dominated, gamma = is_dominated(phi_v, phi_w)
    if not dominated:
        return None

    tol, n = s.tol, s.dim
    dec = s.algebra.block_decomposition()
    svds = [np.linalg.svd(wi, full_matrices=False) for wi in _block_coordinates(dec, w)]
    cut = tol.rank_rel * max((float(sv[0]) for _, sv, _ in svds if sv.size), default=0.0)
    cols, deltas, outside, scale = [], [], [], []
    for off, (k, m), vi, (u, sv, yh) in zip(dec.offsets(), dec.blocks,
                                            _block_coordinates(dec, v), svds):
        r = int(np.sum(sv > cut))
        u, sv, y = u[:, :r], sv[:r], yh[:r].conj().T
        cols.append((dec.change_of_basis[:, off:off + k * m].reshape(n, k, m) @ y.conj())
                    .reshape(n, k * r))
        uv = u.conj().T @ vi
        g = uv / sv[:, None]
        deltas.append(g @ g.conj().T)
        # U S delta S U^H - V V^H: the part of V_i outside the range of W_i
        inside, vv = u @ uv, vi @ vi.conj().T
        outside.append(np.linalg.norm(inside @ inside.conj().T - vv))
        scale.append(np.linalg.norm(vv))
    b = np.hstack(cols)
    if b.shape[1] == 0:
        return RadonNikodym(np.zeros((0, 0), dtype=complex), b, np.zeros(n, dtype=complex),
                            float(gamma))
    resid = float(np.linalg.norm(outside))
    if resid > 1e-6 * max(1.0, float(np.linalg.norm(scale))):
        raise ToleranceBreach(f"Radon-Nikodym system inconsistent by {resid:.2e}")
    d_op = block_diag(*deltas)
    d_op = (d_op + d_op.conj().T) / 2
    eigs = np.linalg.eigvalsh(d_op)
    if eigs[0] < -tol.psd_abs * max(1.0, float(eigs[-1])):
        raise ToleranceBreach(f"Radon-Nikodym operator not PSD ({eigs[0]:.3e})")
    # sqrt of the direct sum is the direct sum of the sqrt(delta_i)
    root = psd_sqrt(d_op, tol)
    ends = np.cumsum([0] + [len(delta) for delta in deltas])
    t_op = block_diag(*[np.kron(np.eye(k), root[lo:hi, lo:hi].T)
                        for (k, _), lo, hi in zip(dec.blocks, ends[:-1], ends[1:])])
    letters = s.algebra.letters()
    comp = b.conj().T @ letters @ b
    comm_defect = float(np.max(np.linalg.norm(t_op @ comp - comp @ t_op, axis=(1, 2)),
                               initial=0.0))
    if comm_defect > 1e-6 * max(1.0, float(np.linalg.norm(t_op))):
        raise ToleranceBreach(f"Radon-Nikodym operator leaves the commutant by {comm_defect:.2e}")
    copy = b @ (t_op @ (b.conj().T @ w))
    # phi_copy(b_k) - phi_v(b_k) = Tr(b_k (copy copy^H - v v^H)) for every basis element
    basis = s.algebra.basis
    gap = basis.reshape(len(basis), -1) @ (np.outer(copy.conj(), copy)
                                           - np.outer(v.conj(), v)).ravel()
    state_gap = float(np.max(np.abs(gap), initial=0.0))
    if state_gap > 1e-6 * max(1.0, phi_v.norm()):
        raise ToleranceBreach(f"realized copy carries the wrong state (gap {state_gap:.2e})")
    return RadonNikodym(t_op, b, copy, float(gamma))


def _residual_states(s: Structure, vectors, base):
    """Vector states of the essential parts of the residuals over acl(base)."""
    closure = acl(s, base)
    return [vector_state(s, essential_discrete_parts(s, v - project(closure, v))[0])
            for v in (np.asarray(x, dtype=complex).ravel() for x in vectors)]


def types_orthogonal(s: Structure, v: np.ndarray, w: np.ndarray, base) -> bool:
    """Orthogonality of tp(v/base) and tp(w/base) via residual vector states."""
    return is_orthogonal(*_residual_states(s, (v, w), base))


def types_dominated(s: Structure, v: np.ndarray, w: np.ndarray, base) -> bool:
    """Whether tp(v/base) dominates tp(w/base): the w-residual state is
    dominated by the v-residual state."""
    phi_v, phi_w = _residual_states(s, (v, w), base)
    return is_dominated(phi_w, phi_v)[0]

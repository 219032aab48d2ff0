"""Checks of starrep outputs against planted truth and against the properties
the method must have.  Truth comes from planted.Plant (numpy on Q and the
block plan); nothing here calls starrep."""
from __future__ import annotations

import numpy as np

TOL = 1e-7


def lazy(fn):
    """Compute a truth once, on first use, outside the timed call."""
    box = []

    def get():
        if not box:
            box.append(fn())
        return box[0]

    return get


def close(got, want, tol: float = TOL) -> bool:
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    return got.shape == want.shape and float(np.max(np.abs(got - want), initial=0.0)) <= tol * scale


def algebra_matches(p, algebra) -> bool:
    if algebra.size != p.algebra_size:
        return False
    # every generator and a random planted element lie in the span
    flat = algebra.basis.reshape(algebra.size, -1)
    q, _ = np.linalg.qr(flat.T)
    x = p.random_algebra_element(np.random.default_rng(0))
    for m in p.generators + [x]:
        f = m.ravel()
        if np.linalg.norm(f - q @ (q.conj().T @ f)) > TOL * max(1.0, np.linalg.norm(f)):
            return False
    return True


# ----- forking -------------------------------------------------------------------

def independence(p, tup, base, extra):
    """(verdict, defect) of tup independent from extra over base, in planted terms."""
    defect = 0.0
    for x in tup:
        d = np.linalg.norm(p.project(x, list(base) + list(extra), True) - p.project(x, base, True))
        defect = max(defect, float(d))
    return defect <= 1e-6, defect


def independence_report(rep, truth) -> bool:
    verdict, defect = truth
    return rep.verdict == verdict and abs(rep.defect - defect) <= TOL


def discrete_part_dim(p, v) -> int:
    """Dimension of dcl(v) intersected with the discrete part."""
    return p.closure_dim([p.vector([c if f else np.zeros_like(c)
                                    for c, f in zip(p.coords(v), p.discrete)])])


def finite_base_truth(p, v, pool, eps):
    """Pool indices the greedy base must pick: pool vectors lie in distinct
    blocks, so the defect of a sub-pool is the root sum of squares of the
    contributions it leaves out; the largest ones go first."""
    none = p.project(v, [], True)
    contrib = [float(np.linalg.norm(p.project(v, [f], True) - none)) for f in pool]
    order = sorted(range(len(pool)), key=lambda i: -contrib[i])
    chosen = []
    while np.sqrt(sum(contrib[i] ** 2 for i in order if i not in chosen)) >= eps:
        chosen.append(order[len(chosen)])
    return set(chosen)


def finite_base(p, v, pool, fb, want, eps) -> bool:
    if set(fb.indices) != want or not fb.defect < eps or len(fb.indices) > p.n:
        return False
    w = np.asarray(fb.replacements)
    subset = [pool[i] for i in fb.indices]
    independent = np.linalg.norm(p.project(w, pool, True) - p.project(w, subset, True)) <= TOL
    return bool(independent) and abs(np.linalg.norm(w - v) - fb.defect) <= TOL


def morley(mc, rnorm, k) -> bool:
    return (abs(mc.distance - rnorm / np.sqrt(k)) <= 1e-8 * max(1.0, rnorm)
            and abs(mc.residual_norm - rnorm) <= 1e-8 * max(1.0, rnorm))


def _span_projector(mats, vectors, extra_cols):
    """Projector onto span{M x : M in mats, x in vectors} + span(extra_cols)."""
    n = mats.shape[1]
    cols = [np.einsum("kab,b->ak", mats, x) for x in vectors] + [extra_cols]
    a = np.hstack(cols) if cols else np.zeros((n, 0))
    if a.shape[1] == 0:
        return np.zeros((n, n), dtype=complex)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] <= 0:
        return np.zeros((n, n), dtype=complex)
    keep = u[:, s > 1e-9 * s[0]]
    return keep @ keep.conj().T


def extension(p, s, x, base, ext, out) -> bool:
    """nonforking_extension: sizes, the base projection, the residual's state in
    the new summand, and independence from the extension set over the base,
    all recomputed with numpy on the extended structure."""
    shat, vprime = out
    n = p.n
    proj = p.project(x, base, True)
    r = residual(p, x, base)
    if shat.dim - n != p.closure_dim([r]) or not close(vprime[:n], proj):
        return False
    tail = vprime[n:]
    if abs(np.linalg.norm(tail) - np.linalg.norm(r)) > TOL:
        return False
    emb = shat.embedding
    probe = p.generators + [p.random_algebra_element(np.random.default_rng(1))]
    for g in probe:
        if abs(np.vdot(tail, emb.conj().T @ g @ emb @ tail) - np.vdot(r, g @ r)) > TOL:
            return False
    pad = np.zeros(shat.dim - n, dtype=complex)
    mats = shat.algebra.basis
    disc = shat.discrete.basis
    p_ext = _span_projector(mats, [np.concatenate([f, pad]) for f in ext], disc)
    p_base = _span_projector(mats, [np.concatenate([f, pad]) for f in base], disc)
    return float(np.linalg.norm(p_ext @ vprime - p_base @ vprime)) <= 1e-6


# ----- functionals ------------------------------------------------------------------

def state_value(rep, m) -> complex:
    return complex(np.trace(rep.conj().T @ m))


def vector_state(p, v, phi) -> bool:
    probe = [np.eye(p.n)] + p.generators + [p.random_algebra_element(np.random.default_rng(2))]
    scale = max(1e-300, float(np.vdot(v, v).real))
    return all(abs(state_value(phi.rep, m) - np.vdot(v, m @ v)) <= TOL * scale * max(1.0, np.linalg.norm(m))
               for m in probe)


def witness(p, x, y, out, truth, eps) -> bool:
    if out.success != truth:
        return False
    if not out.success:
        return True
    a = out.element
    w = np.linalg.eigvalsh((a + a.conj().T) / 2)
    if w[0] < -TOL or w[-1] > 1 + TOL:
        return False
    gap_x = np.vdot(x, x).real - np.vdot(x, a @ x).real
    gap_y = np.vdot(y, a @ y).real
    return gap_x < eps and gap_y < eps


def domination(p, x, y, out) -> bool:
    ok, gamma = out
    if ok != p.dominated(x, y):
        return False
    if not ok:
        return True
    want = p.least_gamma(x, y)
    if abs(gamma - want) > 1e-6 * max(1.0, want):
        return False
    # gamma * phi_y - phi_x is positive: blockwise in planted coordinates
    return all(np.linalg.eigvalsh(gamma * ry - rx)[0] >= -TOL * max(1.0, gamma)
               for rx, ry in zip(p.densities(x), p.densities(y)))


def radon_nikodym(p, w, v, out) -> bool:
    if (out is not None) != p.dominated(v, w):
        return False
    if out is None:
        return True
    if abs(out.gamma - p.least_gamma(v, w)) > 1e-6 * max(1.0, out.gamma):
        return False
    return all(close(a, b, 1e-6) for a, b in zip(p.densities(out.v_copy), p.densities(v)))


def residual(p, v, base):
    """v minus its projection onto acl(base); blocks left with rounding only are zeroed."""
    return p.clean(v - p.project(v, base, True), np.linalg.norm(v))


def residual_essential(p, v, base):
    return p.essential(residual(p, v, base))


def gns(p, algebra, rep, out, want_dim) -> bool:
    """Planted GNS dimension, <pi(b) xi, xi> = phi(b) and pi(ab) = pi(a) pi(b)."""
    if out.space_dim != want_dim:
        return False
    n = algebra.dim
    basis = algebra.basis

    def pi(m):
        c = np.einsum("kab,ab->k", basis.conj(), m) / n
        return np.einsum("k,kab->ab", c, out.action)

    rng = np.random.default_rng(3)
    xs = [p.random_algebra_element(rng) for _ in range(2)]
    scale = max(1.0, float(np.real(np.trace(rep))))
    xi = out.cyclic
    for m in p.generators + xs:
        if abs(np.vdot(xi, pi(m) @ xi) - state_value(rep, m)) > 1e-6 * scale * np.linalg.norm(m):
            return False
    a, b = xs
    prod = pi(a @ b)
    return float(np.max(np.abs(prod - pi(a) @ pi(b)))) <= 1e-6 * max(1.0, float(np.max(np.abs(prod))))

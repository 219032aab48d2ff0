"""Randomized desk-scale verification of the theorem-level properties.

Structures are generated with known block anatomy so every verdict has a
planted ground truth available; suites execute the independence and
functional invariants on seeded random instances and report per-property
tallies with replayable failure exemplars.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import conditional_expectation, generate_algebra
from .functionals import (
    PositiveFunctional,
    embeds_as_subrepresentation,
    gns,
    gns_intertwiner,
    functional_norm,
    is_dominated,
    is_orthogonal,
    orthogonality_witness,
    radon_nikodym_operator,
    vector_state,
)
from .independence import (
    descriptor_distance,
    finite_base,
    is_independent,
    nonforking_extension,
    type_of,
)
from .linalg import Subspace, ToleranceBreach, block_diag_kron, haar_unitary, project
from .representation import Structure, acl
from .serialize import matrix_to_json, vector_to_json


@dataclass(frozen=True)
class InstanceSpec:
    """Shape of a random instance: block plan, discrete flags, generators, seed."""

    dim: int
    blocks: tuple
    discrete_flags: tuple
    generators: int = 2
    seed: int = 0

    def __post_init__(self):
        blocks = tuple((int(k), int(m)) for k, m in self.blocks)
        flags = tuple(bool(f) for f in self.discrete_flags)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "discrete_flags", flags)
        if self.dim < 1 or self.dim > 16:
            raise ValueError("instance dimension must lie in 1..16")
        if sum(k * m for k, m in blocks) != self.dim:
            raise ValueError("block plan does not partition the dimension")
        if len(flags) != len(blocks):
            raise ValueError("one discrete flag per block is required")
        if self.generators < 1:
            raise ValueError("at least one generator is required")
        if self.seed < 0:
            raise ValueError("seeds must be non-negative")

    def algebra_size(self) -> int:
        return sum(k * k for k, _ in self.blocks)

    def rng_key(self):
        flat = [self.seed, self.dim, self.generators]
        for (k, m), f in zip(self.blocks, self.discrete_flags):
            flat += [k, m, int(f)]
        return flat


def random_block_plan(dim: int, rng: np.random.Generator):
    """A random partition of dim into (k, m) blocks, k <= 3, with discrete flags."""
    blocks, remaining = [], dim
    while remaining:
        k = int(rng.integers(1, min(3, remaining) + 1))
        m = int(rng.integers(1, remaining // k + 1))
        blocks.append((k, m))
        remaining -= k * m
    flags = [bool(rng.random() < 0.3) for _ in blocks]
    if all(flags):
        flags[int(rng.integers(len(flags)))] = False
    return tuple(blocks), tuple(flags)


def random_structure(spec: InstanceSpec) -> Structure:
    """Algebra of the planned block type conjugated by a Haar unitary.

    Generators are random Hermitian elements, which generate the planned
    algebra almost surely; RuntimeError if they do not.  Flagged blocks form
    the discrete part.
    """
    rng = np.random.default_rng(spec.rng_key())
    n = spec.dim
    q = haar_unitary(n, rng)

    def block_element():
        hs = [rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
              for k, _ in spec.blocks]
        parts = [(h + h.conj().T) / 2 for h in hs]
        return q @ block_diag_kron(parts, [m for _, m in spec.blocks]) @ q.conj().T

    algebra = generate_algebra([block_element() for _ in range(spec.generators)])
    if algebra.size != spec.algebra_size():
        raise RuntimeError(f"generators span an algebra of size {algebra.size}, "
                           f"the plan has {spec.algebra_size()} (degenerate generators)")

    flagged = np.repeat(spec.discrete_flags, [k * m for k, m in spec.blocks])
    return Structure(algebra, Subspace(n, q[:, flagged], algebra.tol))


def random_unit_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def commuting_unitary(s: Structure, rng: np.random.Generator) -> np.ndarray:
    """A unitary commuting with the algebra (hence preserving a central H_d)."""
    h = s.algebra.commutant().random_hermitian_element(rng)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def random_in_algebra_state(s: Structure, rng: np.random.Generator,
                            keep_prob: float = 0.7) -> PositiveFunctional:
    """Random positive functional with well-conditioned support blocks."""
    dec = s.algebra.block_decomposition()
    parts = []
    nonzero = False
    for k, _ in dec.blocks:
        ranks = rng.random(k) < keep_prob
        lam = np.where(ranks, 0.2 + 0.8 * rng.random(k), 0.0)
        u = haar_unitary(k, rng)
        parts.append(u @ np.diag(lam) @ u.conj().T)
        nonzero = nonzero or bool(np.any(lam))
    if not nonzero:
        k = dec.blocks[0][0]
        parts[0] = np.eye(k) * (0.2 + 0.8 * rng.random())
    return PositiveFunctional.from_parts(s.algebra, parts)


def _compress_state(phi: PositiveFunctional, rng: np.random.Generator) -> PositiveFunctional:
    """A functional dominated by phi: spectral truncation of the representative."""
    w, v = np.linalg.eigh(phi.rep)
    keep = w > 1e-10
    idx = np.where(keep)[0]
    if idx.size == 0:
        return PositiveFunctional(phi.algebra, np.zeros_like(phi.rep), validate=False)
    chosen = idx[rng.random(idx.size) < 0.8]
    if chosen.size == 0:
        chosen = idx[-1:]
    scale = 0.2 + 1.8 * rng.random(chosen.size)
    rep = (v[:, chosen] * (w[chosen] * scale)) @ v[:, chosen].conj().T
    rep = conditional_expectation(rep, phi.algebra)
    return PositiveFunctional(phi.algebra, (rep + rep.conj().T) / 2, validate=False)


def disjoint_state_pair(s: Structure, rng: np.random.Generator):
    """Planted orthogonal pair: states with orthogonal supports in every block."""
    dec = s.algebra.block_decomposition()
    b = len(dec.blocks)
    if b == 1:
        k = dec.blocks[0][0]
        if k == 1:
            raise ValueError("cannot plant a disjoint pair on a scalar algebra")
        # split the one block's support between the two states
        u = haar_unitary(k, rng)
        r = int(rng.integers(1, k))
        lam1 = np.concatenate([0.2 + 0.8 * rng.random(r), np.zeros(k - r)])
        lam2 = np.concatenate([np.zeros(r), 0.2 + 0.8 * rng.random(k - r)])
        parts1 = [u @ np.diag(lam1) @ u.conj().T]
        parts2 = [u @ np.diag(lam2) @ u.conj().T]
    else:
        split = rng.random(b) < 0.5
        if np.all(split):
            split[int(rng.integers(b))] = False
        if not np.any(split):
            split[int(rng.integers(b))] = True
        parts1, parts2 = [], []
        for i, (k, _) in enumerate(dec.blocks):
            lam = 0.2 + 0.8 * rng.random(k)
            u = haar_unitary(k, rng)
            sigma = u @ np.diag(lam) @ u.conj().T
            zero = np.zeros((k, k), dtype=complex)
            if split[i]:
                parts1.append(sigma)
                parts2.append(zero)
            else:
                parts1.append(zero)
                parts2.append(sigma)
    return (PositiveFunctional.from_parts(s.algebra, parts1),
            PositiveFunctional.from_parts(s.algebra, parts2))


def overlapping_state_pair(s: Structure, rng: np.random.Generator):
    """Planted non-orthogonal pair: full-support states share every block."""
    phi = random_in_algebra_state(s, rng, keep_prob=1.1)
    psi = random_in_algebra_state(s, rng, keep_prob=1.1)
    return phi, psi


@dataclass
class PropertyStats:
    passes: int = 0
    trials: int = 0
    max_defect: float = 0.0
    exemplar: dict | None = None

    def record(self, ok: bool, defect: float = 0.0, exemplar: dict | None = None):
        self.trials += 1
        self.passes += int(ok)
        if defect >= self.max_defect:
            self.max_defect = float(defect)
            if exemplar is not None:
                self.exemplar = exemplar
        if not ok and exemplar is not None:
            self.exemplar = exemplar


@dataclass
class SuiteReport:
    name: str
    spec: dict
    properties: dict = field(default_factory=dict)

    def stat(self, prop: str) -> PropertyStats:
        return self.properties.setdefault(prop, PropertyStats())

    @property
    def failures(self) -> int:
        return sum(p.trials - p.passes for p in self.properties.values())

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "suite": self.name,
            "spec": self.spec,
            "failures": self.failures,
            "properties": {
                name: {
                    "passes": p.passes,
                    "trials": p.trials,
                    "max_defect": p.max_defect,
                    "exemplar": p.exemplar,
                }
                for name, p in sorted(self.properties.items())
            },
        }


def _spec_dict(spec: InstanceSpec) -> dict:
    return {
        "dim": spec.dim,
        "blocks": [list(b) for b in spec.blocks],
        "discrete_flags": [bool(f) for f in spec.discrete_flags],
        "generators": spec.generators,
        "seed": spec.seed,
    }


def scenario_of(s: Structure, vectors: dict, sets: dict | None = None) -> dict:
    """Replayable scenario file content for a structure and named vectors."""
    return {
        "dimension": s.dim,
        "generators": [matrix_to_json(g) for g in s.algebra.generators],
        "discrete_subspace": [vector_to_json(c) for c in s.discrete.basis.T],
        "vectors": {name: vector_to_json(v) for name, v in vectors.items()},
        "sets": sets or {},
    }


def _trial_spec(spec: InstanceSpec, trial: int) -> InstanceSpec:
    return InstanceSpec(spec.dim, spec.blocks, spec.discrete_flags,
                        spec.generators, seed=spec.seed * 100003 + trial)


def run_freeness_suite(spec: InstanceSpec, trials: int,
                       unitaries_per_trial: int = 5) -> SuiteReport:
    """Execute the freeness axioms on seeded random instances."""
    if trials < 1:
        raise ValueError("at least one trial is required")
    report = SuiteReport("freeness", _spec_dict(spec))
    for t in range(trials):
        tspec = _trial_spec(spec, t)
        s = random_structure(tspec)
        rng = np.random.default_rng([tspec.seed, 0xF4EE])
        _freeness_trial(report, tspec, s, rng, unitaries_per_trial, planted=(t % 2 == 0))
    return report


def _freeness_trial(report, tspec, s, rng, unitaries, planted):
    n = s.dim
    tolv = s.tol.eq_abs

    # dim(A) = sum k_i^2 and dim(A') = sum m_i^2 against the planted plan
    comm = s.algebra.commutant()
    want_a = sum(k * k for k, _ in tspec.blocks)
    want_c = sum(m * m for _, m in tspec.blocks)
    report.stat("dimension_formula").record(
        s.algebra.size == want_a and comm.size == want_c,
        abs(s.algebra.size - want_a) + abs(comm.size - want_c))

    if planted and len(tspec.blocks) > 1:
        # vectors in distinct central summands are exactly independent
        blocks = s.algebra.block_decomposition()
        q = blocks.change_of_basis
        k1, m1 = blocks.blocks[0]
        v = q[:, :k1 * m1] @ random_unit_vector(rng, k1 * m1)
        w = q[:, k1 * m1:] @ random_unit_vector(rng, n - k1 * m1)
    else:
        planted = False
        v = random_unit_vector(rng, n)
        w = random_unit_vector(rng, n)
    e_set = [random_unit_vector(rng, n) for _ in range(int(rng.integers(0, 3)))]

    sc = scenario_of(s, {"v": v, "w": w, **{f"e{i}": e for i, e in enumerate(e_set)}},
                     {"E": [f"e{i}" for i in range(len(e_set))]})

    r_vw = is_independent(s, v, e_set, [w])
    r_wv = is_independent(s, w, e_set, [v])
    report.stat("symmetry").record(
        r_vw.verdict == r_wv.verdict, 0.0,
        {"scenario": sc, "command": ["indep", "v", "E", "w"],
         "expect": {"verdict": r_vw.verdict}})
    if planted:
        report.stat("planted_independence").record(
            r_vw.verdict and r_wv.verdict, max(r_vw.defect, r_wv.defect),
            {"scenario": sc, "command": ["indep", "v", "E", "w"],
             "expect": {"verdict": True}})

    f_extra = [random_unit_vector(rng, n)]
    g_extra = f_extra + [random_unit_vector(rng, n)]
    lhs = is_independent(s, v, e_set, g_extra).verdict
    rhs = (is_independent(s, v, e_set, f_extra).verdict
           and is_independent(s, v, e_set + f_extra,
                              [x for x in g_extra if x is not f_extra[0]]).verdict)
    report.stat("transitivity").record(lhs == rhs, 0.0)

    full = is_independent(s, v, e_set, g_extra)
    if full.verdict:
        ok = all(is_independent(s, v, e_set, list(sub)).verdict
                 for sub in _sublists(g_extra))
    else:
        ok = any(not is_independent(s, v, e_set, g_extra[:i + 1]).verdict
                 for i in range(len(g_extra)))
    report.stat("monotonicity").record(ok, 0.0 if ok else full.defect)

    base_report = is_independent(s, v, e_set, f_extra)
    inv_ok, inv_defect = True, 0.0
    for _ in range(unitaries):
        u_mat = commuting_unitary(s, rng)
        keep = np.linalg.norm(
            u_mat @ s.discrete.basis
            - s.discrete.basis @ (s.discrete.basis.conj().T @ (u_mat @ s.discrete.basis))) \
            if s.discrete.dim else 0.0
        mapped = is_independent(s, u_mat @ v, [u_mat @ e for e in e_set],
                                [u_mat @ f for f in f_extra])
        inv_ok &= (mapped.verdict == base_report.verdict) and keep <= 1e-6
        inv_defect = max(inv_defect, abs(mapped.defect - base_report.defect))
    report.stat("invariance").record(inv_ok and inv_defect <= 1e-6, inv_defect)

    try:
        ext_base = e_set
        ext_to = e_set + f_extra
        shat, vprime = nonforking_extension(s, v, ext_base, ext_to)
        report.stat("existence").record(True, 0.0)
    except ToleranceBreach as err:
        report.stat("existence").record(False, float("inf"),
                                        {"scenario": sc, "error": str(err)})
        shat = None

    if shat is not None:
        descs = []
        for seed in (int(rng.integers(1 << 30)), int(rng.integers(1 << 30))):
            sh, vp = nonforking_extension(s, v, ext_base, ext_to, seed=seed)
            k = sh.dim - s.dim
            f_emb = [np.concatenate([f, np.zeros(k, dtype=complex)]) for f in ext_to]
            res = np.atleast_2d(vp - project(acl(sh, f_emb), vp))
            descs.append(type_of(sh, res, f_emb))
        gap = descriptor_distance(descs[0], descs[1])
        report.stat("stationarity").record(gap <= 1e-8, gap)

    pool = [random_unit_vector(rng, n) for _ in range(4)]
    fb = finite_base(s, np.array([v, w]), pool, max(tolv, 1e-8))
    ok = (len(fb.indices) <= n
          and is_independent(s, fb.replacements, fb.subset, pool).verdict)
    report.stat("local_character").record(ok, fb.defect)


def _sublists(items):
    out = [[]]
    for x in items:
        out += [sub + [x] for sub in out]
    return out


def run_functional_suite(spec: InstanceSpec, trials: int) -> SuiteReport:
    """Execute the functional-calculus invariants on seeded random instances."""
    if trials < 1:
        raise ValueError("at least one trial is required")
    report = SuiteReport("functionals", _spec_dict(spec))
    for t in range(trials):
        tspec = _trial_spec(spec, t)
        s = random_structure(tspec)
        rng = np.random.default_rng([tspec.seed, 0xFC17])
        _functional_trial(report, s, rng, t)
    return report


def _functional_trial(report, s, rng, t):
    n = s.dim
    v = random_unit_vector(rng, n)
    w = random_unit_vector(rng, n)
    sc = scenario_of(s, {"v": v, "w": w}, {})

    phi_v = vector_state(s, v)
    consistency = max(abs(phi_v(b) - np.vdot(v, b @ v)) for b in s.algebra.basis)
    norm_gap = abs(phi_v.norm() - np.linalg.norm(v) ** 2)
    report.stat("state_consistency").record(
        consistency <= 1e-8 and norm_gap <= 1e-8, max(consistency, norm_gap))

    phi = random_in_algebra_state(s, rng)
    try:
        rep = gns(s.algebra, phi)
        defect = max(rep.roundtrip_defect, rep.star_hom_defect)
        report.stat("gns_round_trip").record(defect <= 1e-8, defect)
    except ToleranceBreach as err:
        report.stat("gns_round_trip").record(False, float("inf"), {"error": str(err)})

    # orthogonality triple: planted-orthogonal / planted-overlap / random rotation
    kind = t % 4
    planted = None
    if kind == 1:
        try:
            a, b = disjoint_state_pair(s, rng)
            planted = True
        except ValueError:
            a, b = random_in_algebra_state(s, rng), random_in_algebra_state(s, rng)
    elif kind == 3:
        a, b = overlapping_state_pair(s, rng)
        planted = False
    else:
        a, b = random_in_algebra_state(s, rng), random_in_algebra_state(s, rng)
    try:
        by_norm = is_orthogonal(a, b)
        agree = True
    except ToleranceBreach:
        by_norm, agree = False, False
    wit = orthogonality_witness(a, b, 1e-6)
    triple_ok = agree and (wit.success == by_norm)
    if planted is not None:
        triple_ok = triple_ok and (by_norm == planted)
    report.stat("orthogonality_triple").record(triple_ok, 0.0 if triple_ok else wit.floor)

    # domination triple on vectors, with planted dominated pairs
    if t % 4 == 2:
        tmat = _random_psd_commutant(s, rng)
        v_dom = tmat @ w
        if np.linalg.norm(v_dom) > 1e-6:
            v_pair, w_pair, expected = v_dom, w, True
        else:
            v_pair, w_pair, expected = v, w, None
    else:
        v_pair, w_pair, expected = v, w, None
    dom, gamma = is_dominated(vector_state(s, v_pair), vector_state(s, w_pair))
    try:
        emb = embeds_as_subrepresentation(s, v_pair, w_pair)
        rn = radon_nikodym_operator(s, w_pair, v_pair)
        ok = (emb == dom) and ((rn is not None) == dom)
        if expected is not None:
            ok = ok and dom == expected
        if dom:
            slack = np.linalg.eigvalsh(gamma * vector_state(s, w_pair).rep
                                       - vector_state(s, v_pair).rep)
            ok = ok and (slack.size == 0 or slack[0] >= -1e-8)
        report.stat("domination_triple").record(
            ok, 0.0, {"scenario": scenario_of(s, {"v": v_pair, "w": w_pair}, {}),
                      "command": ["embed", "v", "w"],
                      "expect": {"verdict": dom}})
    except ToleranceBreach as err:
        report.stat("domination_triple").record(False, float("inf"),
                                                {"scenario": sc, "error": str(err)})

    # monotone orthogonality: compressions of a planted orthogonal pair stay orthogonal
    try:
        a2, b2 = disjoint_state_pair(s, rng)
        a1 = _compress_state(a2, rng)
        b1 = _compress_state(b2, rng)
        mono = is_orthogonal(a2, b2) and is_orthogonal(a1, b1)
        report.stat("monotone_orthogonality").record(mono, 0.0)
    except ValueError:
        pass

    # GNS <-> type: commutant-rotated copies share the state; perturbed ones do not
    try:
        u_mat = commuting_unitary(s, rng)
        w_rot = u_mat @ v
        d1 = type_of(s, v, [])
        d2 = type_of(s, w_rot, [])
        dist = descriptor_distance(d1, d2)
        _, idefect = gns_intertwiner(gns(s.algebra, vector_state(s, v)),
                                     gns(s.algebra, vector_state(s, w_rot)))
        pos_ok = dist <= 1e-8 and idefect <= 1e-8
        pert = v + 0.05 * random_unit_vector(rng, n)
        d3 = type_of(s, pert, [])
        if descriptor_distance(d1, d3) >= 1e-3:
            _, pdefect = gns_intertwiner(gns(s.algebra, vector_state(s, v)),
                                         gns(s.algebra, vector_state(s, pert)))
            neg_ok = pdefect > 1e-6
        else:
            neg_ok = True
        report.stat("gns_type_equivalence").record(pos_ok and neg_ok,
                                                   max(dist, idefect))
    except ToleranceBreach as err:
        report.stat("gns_type_equivalence").record(False, float("inf"),
                                                   {"error": str(err)})

    # norm lower bound against unit-ball elements; the blockwise polar element
    # realizes the supremum and certifies achievability
    phi_h_rep = phi.rep - random_in_algebra_state(s, rng).rep
    nrm = functional_norm(s.algebra, phi_h_rep)
    dec = s.algebra.block_decomposition()
    best, ok = 0.0, True

    def consider(c):
        nonlocal best, ok
        val = abs(np.real(np.trace(phi_h_rep.conj().T @ c)))
        ok &= val <= nrm + 1e-8
        best = max(best, val)

    small_blocks = max(k for k, _ in dec.blocks) <= 2
    for _ in range(200 if small_blocks else 40):
        x = s.algebra.random_hermitian_element(rng)
        opn = np.linalg.norm(x, 2)
        if opn <= 1e-12:
            continue
        consider(x / opn)
    signs = []
    for sigma in dec.block_parts(phi_h_rep, check=False):
        wv, vv = np.linalg.eigh((sigma + sigma.conj().T) / 2)
        signs.append(vv @ np.diag(np.sign(wv)) @ vv.conj().T)
    consider(dec.assemble(signs))
    if small_blocks:
        ok = ok and best >= 0.95 * nrm - 1e-9
    report.stat("norm_lower_bound").record(ok, max(0.0, best - nrm))


def _random_psd_commutant(s: Structure, rng: np.random.Generator) -> np.ndarray:
    h = s.algebra.commutant().random_hermitian_element(rng)
    w, v = np.linalg.eigh(h)
    lam = np.clip(w, 0.0, None)
    return (v * lam) @ v.conj().T

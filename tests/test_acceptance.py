"""Acceptance criteria, one test per criterion.

Each test exercises its criterion at the stated tolerance over seeded random
populations and prints a single PASS line (visible with pytest -s); any
assertion failure marks the criterion red.
"""
import itertools
import json
import time

import numpy as np

from starrep import cli
from starrep.functionals import (
    embeds_as_subrepresentation,
    gns,
    gns_intertwiner,
    is_dominated,
    is_orthogonal,
    orthogonality_witness,
    radon_nikodym_operator,
    vector_state,
)
from starrep.harness import (
    InstanceSpec,
    _random_psd_commutant,
    commuting_unitary,
    disjoint_state_pair,
    overlapping_state_pair,
    random_in_algebra_state,
    random_structure,
    random_unit_vector,
    run_freeness_suite,
)
from starrep.independence import (
    canonical_base,
    descriptor_distance,
    finite_base,
    is_independent,
    morley_average_check,
    type_of,
)
from starrep.representation import acl

from conftest import SCENARIO_DIR

_PLANS = [
    (4, ((2, 1), (1, 2)), (False, True)),
    (6, ((1, 1), (2, 1), (1, 3)), (False, False, True)),
    (8, ((2, 2), (1, 4)), (False, True)),
    (9, ((3, 1), (2, 2), (1, 2)), (False, False, True)),
    (12, ((2, 3), (1, 2), (2, 2)), (False, True, False)),
    (5, ((1, 1), (2, 2)), (True, False)),
    (7, ((2, 1), (1, 2), (1, 3)), (False, False, True)),
    (10, ((3, 2), (1, 4)), (False, True)),
    (11, ((2, 2), (1, 3), (2, 2)), (False, True, False)),
    (12, ((3, 2), (2, 3)), (False, False)),
]


def _specs(seed_base, count=10):
    out = []
    for i in range(count):
        dim, blocks, flags = _PLANS[i % len(_PLANS)]
        out.append(InstanceSpec(dim, blocks, flags, generators=2,
                                seed=seed_base + i))
    return out


def test_criterion_1_gns_round_trip():
    start = time.time()
    worst_state, worst_hom, pairs = 0.0, 0.0, 0
    for spec in _specs(1000, 20):
        s = random_structure(spec)
        rng = np.random.default_rng([spec.seed, 0xC1])
        for j in range(10):
            if j % 3 == 2:
                phi = vector_state(s, random_unit_vector(rng, s.dim))
            else:
                phi = random_in_algebra_state(s, rng)
            if phi.norm() <= 1e-8:
                phi = random_in_algebra_state(s, rng, keep_prob=1.1)
            rep = gns(s.algebra, phi)
            worst_state = max(worst_state, rep.roundtrip_defect)
            worst_hom = max(worst_hom, rep.star_hom_defect)
            pairs += 1
    elapsed = time.time() - start
    assert pairs >= 200
    assert worst_state <= 1e-8
    assert worst_hom <= 1e-8
    assert elapsed <= 30.0
    print(f"\n[acceptance] criterion 1 (GNS round trip, {pairs} pairs): PASS "
          f"(state defect {worst_state:.2e}, *-hom defect {worst_hom:.2e}, {elapsed:.1f}s)")


def test_criterion_2_freeness_suite():
    total = {}
    for spec in _specs(2000, 5):
        report = run_freeness_suite(spec, trials=20)
        assert report.failures == 0
        for name, stats in report.properties.items():
            agg = total.setdefault(name, [0, 0])
            agg[0] += stats.passes
            agg[1] += stats.trials
    for name in ("symmetry", "transitivity", "invariance", "monotonicity",
                 "existence", "stationarity", "local_character"):
        passes, trials = total[name]
        assert trials >= 100, name
        assert passes == trials, name
    line = ", ".join(f"{k} {v[0]}/{v[1]}" for k, v in sorted(total.items()))
    print(f"\n[acceptance] criterion 2 (freeness suite): PASS ({line})")


def test_criterion_3_orthogonality_triple_agreement():
    agree = planted_hits = planted_total = 0
    pairs = []
    # exactly 25 planted-orthogonal, 25 planted-non-orthogonal, 50 random
    for i, spec in enumerate(_specs(3000, 10)):
        s = random_structure(spec)
        rng = np.random.default_rng([spec.seed, 0xC3])
        plant_each = 3 if i < 5 else 2
        schedule = [True] * plant_each + [False] * plant_each \
            + [None] * (10 - 2 * plant_each)
        for truth in schedule:
            if truth is True:
                phi, psi = disjoint_state_pair(s, rng)
            elif truth is False:
                phi, psi = overlapping_state_pair(s, rng)
            else:
                phi, psi = (random_in_algebra_state(s, rng),
                            random_in_algebra_state(s, rng))
            pairs.append((s, phi, psi, truth))
    assert len(pairs) == 100
    assert sum(1 for _, _, _, t in pairs if t is True) == 25
    assert sum(1 for _, _, _, t in pairs if t is False) == 25
    for s, phi, psi, truth in pairs:
        by_norm = is_orthogonal(phi, psi)  # raises if the support check disagrees
        wit = orthogonality_witness(phi, psi, 1e-6)
        assert wit.success == by_norm
        if truth is not None:
            assert by_norm == truth
            planted_hits += truth == by_norm
            planted_total += 1
        agree += 1
    assert agree == 100 and planted_hits == planted_total == 50
    print(f"\n[acceptance] criterion 3 (orthogonality triple): PASS "
          f"(100/100 agreement, {planted_hits}/{planted_total} planted matched)")


def _conditioned_vector(s, rng):
    """A random unit vector whose state has flat nonzero spectrum per block.

    Every block component is a scaled random partial isometry, so the
    vector state's nonzero eigenvalues are bounded below by roughly
    (block size)/(4 n); the gamma-minimality margins in this criterion
    need such a floor at the stated 1e-6 shave.
    """
    from starrep.linalg import haar_unitary
    dec = s.algebra.block_decomposition()
    n = s.dim
    coords = np.zeros(n, dtype=complex)
    for off, (k, m) in zip(itertools.accumulate([k * m for k, m in dec.blocks], initial=0), dec.blocks):
        r = min(k, m)
        u = haar_unitary(k, rng)
        vmat = haar_unitary(m, rng)
        block = (u[:, :r] @ vmat[:r, :]) * np.sqrt(k * m / (n * r))
        coords[off:off + k * m] = block.reshape(-1)
    v = dec.change_of_basis @ coords
    return v / np.linalg.norm(v)


def test_criterion_4_domination_triple_agreement():
    agree = planted_total = 0
    certified = 0
    for i, spec in enumerate(_specs(4000, 10)):
        s = random_structure(spec)
        rng = np.random.default_rng([spec.seed, 0xC4])
        plant_each = 3 if i < 5 else 2
        for j in range(10):
            w = _conditioned_vector(s, rng)
            if j < plant_each:
                h = s.algebra.commutant().random_hermitian_element(rng)
                t = np.eye(s.dim) + 0.2 * h / np.linalg.norm(h, 2)
                v = t @ w
                v = v / np.linalg.norm(v)
                truth = True
                planted_total += 1
            else:
                v = _conditioned_vector(s, rng)
                truth = None
            phi, psi = vector_state(s, v), vector_state(s, w)
            dom, gamma = is_dominated(phi, psi)
            emb = embeds_as_subrepresentation(s, v, w)
            rn = radon_nikodym_operator(s, w, v)
            assert emb == dom
            assert (rn is not None) == dom
            if truth is not None:
                assert dom == truth
            if dom:
                slack = np.linalg.eigvalsh(gamma * psi.rep - phi.rep)
                assert slack[0] >= -1e-8
                shaved = np.linalg.eigvalsh(gamma * (1 - 1e-6) * psi.rep - phi.rep)
                assert shaved[0] < -1e-8
                certified += 1
            agree += 1
    assert agree == 100 and planted_total == 25
    assert certified >= 25
    print(f"\n[acceptance] criterion 4 (domination triple): PASS "
          f"(100/100 agreement, {planted_total} planted, {certified} gammas certified minimal)")


def test_criterion_5_canonical_base_and_morley():
    worst = 0.0
    instances = 0
    for spec in _specs(5000, 10):
        s = random_structure(spec)
        rng = np.random.default_rng([spec.seed, 0xC5])
        for _ in range(5):
            v = random_unit_vector(rng, s.dim)
            base = [random_unit_vector(rng, s.dim)
                    for _ in range(int(rng.integers(0, 3)))]
            for k in (1, 4, 16, 64):
                mc = morley_average_check(s, v, base, k)
                worst = max(worst, abs(mc.distance - mc.residual_norm / np.sqrt(k)))
            instances += 1
    assert instances == 50
    assert worst <= 1e-8

    # canonical base over the empty set with H_d = 0 is the zero tuple
    spec = InstanceSpec(6, ((2, 1), (1, 4)), (False, False), seed=5999)
    s = random_structure(spec)
    rng = np.random.default_rng(5999)
    tup = np.array([random_unit_vector(rng, 6) for _ in range(3)])
    np.testing.assert_allclose(canonical_base(s, tup, []), 0, atol=1e-12)
    print(f"\n[acceptance] criterion 5 (canonical base / Morley law): PASS "
          f"(50 instances, k in 1,4,16,64, worst gap {worst:.2e})")


def test_criterion_6_superstability_finite_base():
    eps = 1e-3
    instances = 0
    for spec in _specs(6000, 10):
        s = random_structure(spec)
        rng = np.random.default_rng([spec.seed, 0xC6])
        for _ in range(5):
            pool = [random_unit_vector(rng, s.dim) for _ in range(8)]
            tup = np.array([random_unit_vector(rng, s.dim) for _ in range(2)])
            fb = finite_base(s, tup, pool, eps)
            assert len(fb.indices) <= s.dim
            for j in range(2):
                moved = np.linalg.norm(tup[j] - fb.replacements[j])
                assert moved < eps
            assert is_independent(s, fb.replacements, fb.subset, pool).verdict
            instances += 1
    assert instances == 50
    print(f"\n[acceptance] criterion 6 (finite base, |F|=8, eps=1e-3): PASS "
          f"({instances} instances)")


def test_criterion_7_type_equality_soundness():
    pos = neg = 0
    worst_pos = 0.0
    for spec in _specs(7000, 10):
        s = random_structure(spec)
        rng = np.random.default_rng([spec.seed, 0xC7])
        for j in range(10):
            v = _conditioned_vector(s, rng)
            if j % 2 == 0:
                u_mat = commuting_unitary(s, rng)
                w = u_mat @ v
                d1, d2 = type_of(s, v, []), type_of(s, w, [])
                assert descriptor_distance(d1, d2) <= 1e-8
                _, defect = gns_intertwiner(gns(s.algebra, vector_state(s, v)),
                                            gns(s.algebra, vector_state(s, w)))
                assert defect <= 1e-8
                worst_pos = max(worst_pos, defect)
                pos += 1
            else:
                pert = None
                for _ in range(50):
                    cand = v + 0.05 * random_unit_vector(rng, s.dim)
                    cand = cand / np.linalg.norm(cand)
                    if descriptor_distance(type_of(s, v, []),
                                           type_of(s, cand, [])) >= 1e-3:
                        pert = cand
                        break
                assert pert is not None
                r1 = gns(s.algebra, vector_state(s, v))
                r2 = gns(s.algebra, vector_state(s, pert))
                _, defect = gns_intertwiner(r1, r2)
                assert defect > 1e-6
                neg += 1
    assert pos == 50 and neg == 50
    print(f"\n[acceptance] criterion 7 (type equality soundness): PASS "
          f"(50 equal pairs intertwined at {worst_pos:.2e}, 50 perturbed pairs rejected)")


def _run_cli(capsys, *argv):
    code = cli.main([*argv, "--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_criterion_8_cli_golden_files(capsys):
    diag = str(SCENARIO_DIR / "diagonal.json")
    diag_hd = str(SCENARIO_DIR / "diagonal_discrete.json")
    m2 = str(SCENARIO_DIR / "m2.json")
    inv = 0.7071067811865476
    checks = 0

    def close(a, b):
        assert abs(a - b) <= 1e-10
        return True

    code, rep = _run_cli(capsys, "indep", diag, "e1", "", "e2")
    assert code == 0 and rep["verdict"] is True and close(rep["defect"], 0.0)
    checks += 1
    code, rep = _run_cli(capsys, "indep", diag, "u", "", "e1")
    assert rep["verdict"] is False and close(rep["defect"], inv)
    checks += 1
    code, rep = _run_cli(capsys, "cbase", diag, "u", "E1")
    assert close(rep["vectors"][0][0][0], inv) and close(rep["vectors"][0][1][0], 0.0)
    checks += 1
    code, rep = _run_cli(capsys, "dcl", diag, "")
    assert rep["dimension"] == 0
    checks += 1
    code, rep = _run_cli(capsys, "acl", diag_hd, "")
    assert rep["dimension"] == 1 and close(abs(rep["basis"][0][1][0]), 1.0)
    checks += 1
    code, rep = _run_cli(capsys, "extend", diag, "e1", "", "E1")
    assert rep["new_dimension"] == 3 and rep["summand_dimension"] == 1
    v = rep["vector"]
    assert close(v[0][0], 0.0) and close(abs(complex(v[2][0], v[2][1])), 1.0)
    checks += 1
    code, rep = _run_cli(capsys, "gns", diag, "--state", "[[[1,0],[0,0]],[[0,0],[1,0]]]")
    assert rep["space_dimension"] == 2 and close(rep["cyclic_norm"], np.sqrt(2))
    checks += 1
    code, rep = _run_cli(capsys, "gns", diag, "e1")
    assert rep["space_dimension"] == 1
    checks += 1
    assert _run_cli(capsys, "orth", diag, "e1", "e2", "")[1]["verdict"] is True
    assert _run_cli(capsys, "orth", diag, "u", "u", "")[1]["verdict"] is False
    checks += 2
    assert _run_cli(capsys, "dom", diag, "u", "e1", "")[1]["verdict"] is True
    assert _run_cli(capsys, "dom", m2, "e1", "e2", "")[1]["verdict"] is False
    checks += 2
    assert _run_cli(capsys, "embed", diag, "e1", "u")[1]["verdict"] is True
    assert _run_cli(capsys, "embed", m2, "e1", "e2")[1]["verdict"] is False
    checks += 2
    code, rep = _run_cli(capsys, "rn", diag, "u", "e1")
    assert rep["success"] is True and close(rep["gamma"], 2.0)
    copy = np.array([complex(re, im) for re, im in rep["copy_vector"]])
    assert close(abs(copy[0]), 1.0) and close(abs(copy[1]), 0.0)
    checks += 1
    code, rep = _run_cli(capsys, "typeq", diag, "e1", "e2", "")
    assert rep["equal"] is False
    code, rep = _run_cli(capsys, "typeq", diag, "u", "u", "")
    assert rep["equal"] is True and close(rep["distance"], 0.0)
    checks += 2
    code, rep = _run_cli(capsys, "fbase", diag, "u", "both", "1e-6")
    assert rep["indices"] == [0, 1] and close(rep["defect"], 0.0)
    checks += 1
    code, rep = _run_cli(capsys, "decompose", m2)
    assert rep["blocks"] == [[2, 1]]
    assert rep["algebra_dimension"] == 4 and rep["commutant_dimension"] == 1
    code, rep = _run_cli(capsys, "decompose", diag)
    assert rep["blocks"] == [[1, 1], [1, 1]]
    assert rep["algebra_dimension"] == 2 and rep["commutant_dimension"] == 2
    checks += 2

    # byte-identical reruns of a representative command
    outs = []
    for _ in range(2):
        cli.main(["rn", diag, "u", "e1", "--json"])
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    checks += 1
    print(f"\n[acceptance] criterion 8 (CLI golden values): PASS ({checks} checks within 1e-10)")

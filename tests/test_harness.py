import json

import numpy as np
import pytest

from starrep.cli import main, scenario_from_dict
from starrep.functionals import is_dominated, is_orthogonal
from starrep.harness import (
    InstanceSpec,
    PropertyStats,
    _commutant_function,
    _compress_state,
    commuting_unitary,
    disjoint_state_pair,
    overlapping_state_pair,
    random_block_plan,
    random_in_algebra_state,
    random_structure,
    run_freeness_suite,
    run_functional_suite,
    scenario_of,
)
from starrep.linalg import block_diag
from starrep.serialize import dumps_canonical

SPEC = InstanceSpec(6, ((1, 1), (2, 1), (1, 3)), (False, False, True), seed=3)


def test_instance_spec_validation():
    with pytest.raises(ValueError):
        InstanceSpec(6, ((1, 1),), (False,))
    with pytest.raises(ValueError):
        InstanceSpec(20, ((4, 5),), (False,))
    with pytest.raises(ValueError):
        InstanceSpec(2, ((1, 2),), (False, True))
    with pytest.raises(ValueError):
        InstanceSpec(2, ((1, 2),), (False,), generators=0)
    with pytest.raises(ValueError):
        InstanceSpec(2, ((1, 2),), (False,), seed=-1)


def test_random_structure_properties():
    s = random_structure(SPEC)
    assert s.dim == 6
    assert s.algebra.size == SPEC.algebra_size() == 6
    assert s.discrete.dim == 3
    # bit-for-bit determinism
    s2 = random_structure(SPEC)
    assert np.array_equal(s.algebra.basis, s2.algebra.basis)
    assert np.array_equal(s.discrete.basis, s2.discrete.basis)
    # a different seed gives a different structure
    s3 = random_structure(InstanceSpec(6, SPEC.blocks, SPEC.discrete_flags, seed=4))
    assert not np.allclose(s.algebra.basis, s3.algebra.basis)


def test_random_block_plan_partitions():
    rng = np.random.default_rng(0)
    for dim in (1, 5, 12, 16):
        blocks, flags = random_block_plan(dim, rng)
        assert sum(k * m for k, m in blocks) == dim
        assert len(flags) == len(blocks)
        assert not all(flags)


def test_planted_pairs_ground_truth():
    s = random_structure(SPEC)
    rng = np.random.default_rng(17)
    for _ in range(15):
        phi, psi = disjoint_state_pair(s, rng)
        assert is_orthogonal(phi, psi)
        phi2, psi2 = overlapping_state_pair(s, rng)
        assert not is_orthogonal(phi2, psi2)
        sigma = random_in_algebra_state(s, rng)
        rho = _compress_state(sigma, rng)
        ok, gamma = is_dominated(rho, sigma)
        assert ok and gamma is not None


def test_commuting_unitary_commutes():
    s = random_structure(SPEC)
    rng = np.random.default_rng(23)
    u = commuting_unitary(s, rng)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(6), atol=1e-10)
    for b in s.algebra.basis:
        assert np.linalg.norm(u @ b - b @ u) < 1e-9
    # H_d is a central subspace, so it is preserved automatically
    img = u @ s.discrete.basis
    resid = img - s.discrete.basis @ (s.discrete.basis.conj().T @ img)
    assert np.linalg.norm(resid) < 1e-9


def test_commutant_draws_read_the_block_decomposition(monkeypatch):
    from starrep.algebra import StarAlgebra
    from starrep.harness import _random_psd_commutant
    # a (2, 2) block tells I_k (x) h_i from h_i (x) I_k
    s = random_structure(InstanceSpec(8, ((2, 2), (1, 3), (1, 1)), (False, True, False), seed=5))
    s.algebra.block_decomposition()
    monkeypatch.setattr(StarAlgebra, "commutant", None)
    rng = np.random.default_rng(24)
    u, t = commuting_unitary(s, rng), _random_psd_commutant(s, rng)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(8), atol=1e-10)
    np.testing.assert_allclose(t, t.conj().T, atol=1e-10)
    assert np.linalg.eigvalsh(t)[0] >= -1e-10
    for b in s.algebra.basis:
        assert np.linalg.norm(u @ b - b @ u) < 1e-9
        assert np.linalg.norm(t @ b - b @ t) < 1e-9


def ref_commutant_function(s, rng, f):
    """One eigh and one Kronecker product per block, joined by block_diag."""
    dec = s.algebra.block_decomposition()
    parts = []
    for k, m in dec.blocks:
        g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        w, v = np.linalg.eigh(np.sqrt(s.dim / k) * (g + g.conj().T) / 2)
        parts.append(np.kron(np.eye(k), (v * f(w)) @ v.conj().T))
    q = dec.change_of_basis
    return q @ block_diag(*parts) @ q.conj().T


@pytest.mark.parametrize("spec", [
    InstanceSpec(8, ((1, 1),) * 8, (False,) * 8, seed=6),
    InstanceSpec(16, ((1, 1), (1, 1), (1, 2), (1, 2), (2, 1), (2, 2), (2, 2)),
                 (False, False, True, False, False, True, False), seed=7),
], ids=["diagonal", "mixed"])
@pytest.mark.parametrize("f", [lambda w: np.exp(1j * w), lambda w: np.clip(w, 0.0, None)],
                         ids=["unitary", "psd"])
def test_commutant_function_keeps_the_per_block_draws(spec, f):
    s = random_structure(spec)
    assert any(c > 1 for _, c, _, _, _ in s.algebra.block_decomposition().runs)
    rng, ref_rng = np.random.default_rng(25), np.random.default_rng(25)
    got, want = _commutant_function(s, rng, f), ref_commutant_function(s, ref_rng, f)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_suites_pass_and_are_deterministic():
    r1 = run_freeness_suite(SPEC, trials=4)
    r2 = run_freeness_suite(SPEC, trials=4)
    assert r1.failures == 0
    assert dumps_canonical(r1.to_json()) == dumps_canonical(r2.to_json())
    f1 = run_functional_suite(SPEC, trials=4)
    f2 = run_functional_suite(SPEC, trials=4)
    assert f1.failures == 0
    assert dumps_canonical(f1.to_json()) == dumps_canonical(f2.to_json())
    with pytest.raises(ValueError):
        run_freeness_suite(SPEC, trials=0)


def test_scenario_round_trip():
    s = random_structure(SPEC)
    rng = np.random.default_rng(1)
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    sc_dict = scenario_of(s, {"v": v}, {"E": []})
    sc = scenario_from_dict(sc_dict)
    assert sc.structure.dim == 6
    assert sc.structure.algebra.spans_equal(s.algebra)
    assert sc.structure.discrete.isclose(s.discrete)
    np.testing.assert_allclose(sc.resolve_vector("v"), v, atol=1e-12)


def test_passing_property_keeps_its_first_exemplar():
    stats = PropertyStats()
    stats.record(True, 1e-15, {"trial": 0})
    stats.record(True, 2e-15, {"trial": 1})
    # round-off in a passing defect does not pick the exemplar
    assert stats.exemplar == {"trial": 0} and stats.max_defect == 2e-15
    stats.record(False, 0.0, {"trial": 2})
    stats.record(True, 3e-15, {"trial": 3})
    assert stats.exemplar == {"trial": 2} and stats.max_defect == 3e-15
    stats.record(False, 1.0, {"trial": 4})
    assert stats.exemplar == {"trial": 4} and stats.max_defect == 1.0
    assert (stats.passes, stats.trials) == (3, 5)


def test_exemplars_replay_through_cli(tmp_path, capsys):
    report = run_freeness_suite(SPEC, trials=4)
    played = 0
    for name, stats in report.properties.items():
        ex = stats.exemplar
        if not ex or "command" not in ex:
            continue
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(ex["scenario"]))
        code = main([ex["command"][0], str(path), *ex["command"][1:], "--json"])
        out = capsys.readouterr().out
        assert code == 0
        got = json.loads(out)
        assert got["verdict"] == ex["expect"]["verdict"]
        played += 1
    assert played >= 1

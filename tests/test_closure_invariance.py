"""Closure-reading verdicts do not depend on coordinates or on generators.

Every verdict the forking and functional subcommands read off a closure
(indep, cbase, typeq, extend, fbase, orth and dom), the dimensions of dcl
and acl, and what gns, embed, rn and decompose decide (the GNS space's
dimension and cyclic norm, the embedding verdict, the Radon-Nikodym success
and gamma, the blocks at three seeds) must stay the same when the whole
scenario moves by one unitary W (generators W g W^H, discrete part and
vectors W x together), when the same algebra is given by another generating
set (an invertible complex mix of the generators, which spans the same
space, and a random element of the algebra), and when the vectors alone move
by a unitary U that commutes with the algebra (U x, the generators and the
discrete part kept).  The inputs are the hand-worked scenario files and
three planted plans with a discrete part.  The subcommands run through the
CLI, so exit codes are compared too, each scenario parsed once.
"""
import itertools
import json

import numpy as np
import pytest

from starrep import cli
from starrep.harness import (InstanceSpec, commuting_unitary, random_structure, random_unit_vector,
                             scenario_of)
from starrep.linalg import haar_unitary
from starrep.serialize import matrix_to_json, parse_matrix, parse_vector, vector_to_json

from conftest import SCENARIO_DIR
from test_closure_reuse import block_vectors

PLANTED = {
    "mixed": InstanceSpec(8, ((1, 2), (2, 1), (1, 1), (1, 1), (1, 2)),
                          (False, False, True, False, False), seed=71),
    "multiple": InstanceSpec(10, ((2, 2), (1, 3), (2, 1), (1, 1)), (False, True, False, True),
                             seed=72),
    "diag7": InstanceSpec(7, ((1, 1),) * 4 + ((3, 1),), (True,) + (False,) * 4, seed=73),
}
INPUTS = sorted(p.stem for p in SCENARIO_DIR.glob("*.json")) + sorted(PLANTED)


def planted_scenario(spec):
    """A scenario on the plan: a vector and a commuting-unitary copy of it,
    a vector in each of the first, second and last Wedderburn blocks, the
    sum of the first and last, and a random vector."""
    s = random_structure(spec)
    rng = np.random.default_rng(spec.seed)
    v = random_unit_vector(rng, s.dim)
    blocks = block_vectors(s, rng)
    vectors = {"a": v, "b": commuting_unitary(s, rng) @ v, "c0": blocks[0], "c1": blocks[1],
               "c2": blocks[-1], "d": blocks[0] + blocks[-1], "x": random_unit_vector(rng, s.dim)}
    return scenario_of(s, vectors, {"E": ["c0"], "EC": ["c0", "c1"], "pool": ["c0", "c1", "d"]})


def load(name):
    if name in PLANTED:
        return json.loads(json.dumps(planted_scenario(PLANTED[name])))
    return json.loads((SCENARIO_DIR / f"{name}.json").read_text())


def rotated(raw, rng):
    """The scenario moved by a Haar unitary W."""
    w = haar_unitary(raw["dimension"], rng)
    out = dict(raw)
    out["generators"] = [matrix_to_json(w @ parse_matrix(g) @ w.conj().T)
                         for g in raw["generators"]]
    out["discrete_subspace"] = [vector_to_json(w @ parse_vector(d))
                                for d in raw.get("discrete_subspace", [])]
    out["vectors"] = {name: vector_to_json(w @ parse_vector(x))
                      for name, x in raw["vectors"].items()}
    return out


def regenerated(raw, rng):
    """The scenario's algebra from another generating set."""
    algebra = cli.scenario_from_dict(raw).structure.algebra
    gens = np.array(algebra.generators)
    mix = rng.standard_normal((len(gens),) * 2) + 1j * rng.standard_normal((len(gens),) * 2)
    out = dict(raw)
    out["generators"] = [matrix_to_json(g) for g in np.einsum("jk,kab->jab", mix, gens)]
    out["generators"].append(matrix_to_json(algebra.random_hermitian_element(rng)))
    return out


def commuted(raw, rng):
    """The scenario's vectors moved by a unitary commuting with its algebra."""
    u = commuting_unitary(cli.scenario_from_dict(raw).structure, rng)
    out = dict(raw)
    out["vectors"] = {name: vector_to_json(u @ parse_vector(x))
                      for name, x in raw["vectors"].items()}
    return out


def commands(raw):
    """Every closure-reading subcommand over the scenario's vectors and sets."""
    vecs, sets = sorted(raw["vectors"]), sorted(raw.get("sets", {}))
    bases = ["", *sets, vecs[0]]
    out = [("dcl", b) for b in bases + vecs] + [("acl", b) for b in bases + vecs]
    for v, b in itertools.product(vecs, bases):
        out.append(("cbase", v, b))
        out += [("indep", v, b, e) for e in sets[-1:] + vecs[-1:]]
    for v, w in itertools.permutations(vecs[:4], 2):
        for b in bases[:2]:
            out += [("typeq", v, w, b), ("orth", v, w, b), ("dom", v, w, b)]
    for v in vecs:
        out.append(("extend", v, "", vecs[-1]))
        if sets:
            members = raw["sets"][sets[0]]
            out.append(("extend", v, sets[0], ",".join(members + [vecs[-1]])))
        out.append(("fbase", v, sets[-1] if sets else ",".join(vecs), "1e-6"))
    out += [("gns", v) for v in vecs]
    for v, w in itertools.permutations(vecs[:4], 2):
        out += [("embed", v, w), ("rn", w, v)]
    return out + [("decompose", "--seed", str(seed)) for seed in range(3)]


def figures(command, rep):
    """What a subcommand's report decides: a verdict, dimensions, the chosen
    sub-base, or the canonical base's norms."""
    if rep is None:
        return None
    if command in ("dcl", "acl"):
        return rep["dimension"]
    if command == "cbase":
        return [round(float(np.linalg.norm(parse_vector(x))), 8) for x in rep["vectors"]]
    if command == "typeq":
        return rep["equal"]
    if command == "extend":
        return rep["new_dimension"], rep["summand_dimension"]
    if command == "fbase":
        return rep["indices"]
    if command == "gns":
        return rep["space_dimension"], round(rep["cyclic_norm"], 8)
    if command == "rn":
        return rep["success"], round(rep["gamma"], 6) if rep["success"] else None
    if command == "decompose":
        return rep["blocks"], rep["algebra_dimension"], rep["commutant_dimension"]
    return rep["verdict"]


def verdicts(raw, tmp_path, capsys, monkeypatch, name):
    """(exit code, figures) of every command, the scenario file parsed once."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(raw))
    sc = cli.load_scenario(str(path))
    monkeypatch.setattr(cli, "load_scenario", lambda *args: sc)
    out = {}
    for command, *args in commands(raw):
        code = cli.main([command, str(path), *args, "--json"])
        text = capsys.readouterr().out
        out[(command, *args)] = code, figures(command, json.loads(text) if text else None)
    monkeypatch.undo()
    return out


@pytest.mark.parametrize("change", ["rotated", "regenerated", "commuted"])
@pytest.mark.parametrize("name", INPUTS)
def test_closure_verdicts_are_invariant(name, change, tmp_path, capsys, monkeypatch):
    raw = load(name)
    rng = np.random.default_rng(sum(map(ord, name + change)))
    moved = {"rotated": rotated, "regenerated": regenerated, "commuted": commuted}[change](raw, rng)
    if change == "regenerated":
        sizes = [cli.scenario_from_dict(r).structure.algebra.size for r in (raw, moved)]
        assert sizes[0] == sizes[1]
    want = verdicts(raw, tmp_path, capsys, monkeypatch, "given")
    got = verdicts(moved, tmp_path, capsys, monkeypatch, change)
    assert got == want
    # both verdicts of the queries that return one, so no case is vacuous
    if name in PLANTED:
        for command in ("indep", "typeq", "orth", "dom", "embed"):
            seen = {fig for key, (_, fig) in want.items() if key[0] == command}
            assert seen == {True, False}, command

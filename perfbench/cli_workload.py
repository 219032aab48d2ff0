"""`cli` workload: one `starrep <subcommand> --json` process per operation.

Every call pays interpreter start, `import starrep`, scenario parsing and
generate_algebra with validation before a small query, so import, the CLI,
serialisation and small-n construction dominate.  Scenarios are the
hand-worked C^2 diagonal (with and without a discrete part) and M_2 files,
plus planted mixed-block (n = 16, with a discrete part), diagonal (n = 12) and
full M_8 files written from the seed.  A round covers every subcommand,
including `decompose` and a short `axioms` run.

Processes are started through launch.py, which calls starrep.cli.main the
way the `starrep` console script does (and installs the span wrappers when
tracing).
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np

import checks
import planted
from bench import OUT, Op, child_env
from planted import INV, Plant, from_json_vector

LAUNCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launch.py")

# (name, blocks (k, m), discrete flags, subcommands run on the scenario)
PLANS = [
    ("mixed16", [(1, 2), (2, 2), (3, 2), (2, 1), (1, 2)], [False, False, False, True, False],
     ("decompose", "gns", "dom", "indep", "extend", "dcl", "cbase", "typeq", "fbase", "orth",
      "embed", "rn")),
    ("diag12", [(1, 1)] * 12, [True] + [False] * 11, ("decompose", "indep", "acl", "extend")),
    ("full8", [(8, 1)], [False], ("decompose", "gns")),
]
SMOKE_PLANS = [("mixed5", [(1, 2), (2, 1), (1, 1)], [False, False, True], PLANS[0][3]),
               ("diag4", [(1, 1)] * 4, [True] + [False] * 3, PLANS[1][3]),
               ("full3", [(3, 1)], [False], PLANS[2][3])]
AXIOMS = ["--trials", "2", "--dim", "6", "--blocks", "1,2;2,2"]


def plan_scenarios(seed: int, smoke: bool = False):
    """Scenario dicts (hand-worked and planted) and the planted vectors of each."""
    rng = np.random.default_rng([seed, 0xC11])
    scenarios = planted.hand_scenarios()
    plants = {}
    for name, blocks, discrete, subcommands in (SMOKE_PLANS if smoke else PLANS):
        p = Plant(blocks, discrete, rng)
        ess = [i for i, f in enumerate(discrete) if not f]
        perm = ess[0::2] + ess[1::2]
        half = max(1, len(perm) // 2)
        vec = {"v": p.random_vector(rng, set(range(len(blocks))))}
        if len(blocks) == 1:
            k = blocks[0][0]
            u = np.linalg.qr(rng.standard_normal((k, 2)) + 1j * rng.standard_normal((k, 2)))[0]
            vec["a"], vec["b"] = p.vector([u[:, :1]]), p.vector([u[:, 1:]])
            vec["e"] = vec["a"]
            vec["x"] = 0.5 * np.exp(1.1j) * vec["a"]
        else:
            vec["a"] = p.random_vector(rng, set(perm[:half]))
            vec["b"] = p.random_vector(rng, set(perm[half:]))
            vec["e"] = p.random_vector(rng, {perm[0]})
            # x inside the support of a, block by block
            coords = [c @ (rng.standard_normal((c.shape[1],) * 2)
                           + 1j * rng.standard_normal((c.shape[1],) * 2))
                      for c in p.coords(vec["a"])]
            x = p.vector(coords)
            vec["x"] = x / np.linalg.norm(x)
        vec["w"] = p.commuting_unitary(rng, fixed={perm[0]}) @ vec["v"]
        pool_blocks = perm[:4]
        for i, j in enumerate(pool_blocks):
            vec[f"f{i}"] = p.random_vector(rng, {j})
        sets = {"E": ["e"], "EB": ["e", "b"], "pool": [f"f{i}" for i in range(len(pool_blocks))]}
        scenarios[name] = p.scenario(vec, sets)
        plants[name] = (p, vec, subcommands)
    return scenarios, plants


def _commands(plants, paths, seed):
    """(argv, check(report)) of one round."""
    diag, diag_hd, m2 = paths["diag"], paths["diag_hd"], paths["m2"]
    cmds = [
        (["indep", diag, "e1", "", "e2"],
         lambda r: r["verdict"] is True and abs(r["defect"]) <= 1e-10),
        (["indep", diag, "u", "", "e1"],
         lambda r: r["verdict"] is False and abs(r["defect"] - INV) <= 1e-10),
        (["acl", diag_hd, ""],
         lambda r: r["dimension"] == 1 and abs(abs(complex(*r["basis"][0][1])) - 1) <= 1e-10),
        (["gns", diag, "--state", "[[[1,0],[0,0]],[[0,0],[1,0]]]"],
         lambda r: r["space_dimension"] == 2 and abs(r["cyclic_norm"] - np.sqrt(2)) <= 1e-10),
        (["dom", m2, "e1", "e2", ""], lambda r: r["verdict"] is False),
        (["rn", diag, "u", "e1"],
         lambda r: r["success"] is True and abs(r["gamma"] - 2) <= 1e-10
         and checks.close(np.abs(from_json_vector(r["copy_vector"])), [1, 0], 1e-10)),
        (["decompose", m2],
         lambda r: r["blocks"] == [[2, 1]] and r["algebra_dimension"] == 4
         and r["commutant_dimension"] == 1),
    ]
    for name, (p, vec, subcommands) in plants.items():
        table = _planted_commands(p, vec, paths[name], seed)
        cmds += [table[c] for c in subcommands]
    cmds.append((["axioms", *AXIOMS, "--seed", str(seed)], _axioms_ok))
    return cmds


def _planted_commands(p, vec, path, seed):
    """Every planted subcommand on one scenario, by name, with its check."""
    v, a, b, e, w, x = (vec[k] for k in "vabewx")
    pool = [vec[k] for k in sorted(vec) if k.startswith("f")]
    return {
        "decompose": (["decompose", path], lambda r:
                      r["blocks"] == [list(bl) for bl in p.signature]
                      and r["algebra_dimension"] == p.algebra_size
                      and r["commutant_dimension"] == p.commutant_size),
        "gns": (["gns", path, "v"], lambda r:
                r["space_dimension"] == p.closure_dim([v])
                and abs(r["cyclic_norm"] - 1) <= 1e-9),
        "dom": (["dom", path, "a", "x", ""], lambda r: r["verdict"] is True),
        "indep": (["indep", path, "v", "E", "EB"], lambda r:
                  r["verdict"] == checks.independence(p, [v], [e], [e, b])[0]
                  and abs(r["defect"] - checks.independence(p, [v], [e], [e, b])[1]) <= 1e-9),
        "acl": (["acl", path, "E"], lambda r: r["dimension"] == p.closure_dim([e], True)),
        "extend": (["extend", path, "v", "E", "EB", "--seed", str(seed)],
                   lambda r: _extend_ok(p, v, [e], r)),
        "dcl": (["dcl", path, "v"], lambda r: r["dimension"] == p.closure_dim([v])),
        "cbase": (["cbase", path, "v", "E"], lambda r:
                  checks.close(from_json_vector(r["vectors"][0]), p.project(v, [e]))),
        "typeq": (["typeq", path, "v", "w", "E"], lambda r: r["equal"] is True),
        "fbase": (["fbase", path, "v", "pool", "1e-3"], lambda r:
                  set(r["indices"]) == checks.finite_base_truth(p, v, pool, 1e-3)),
        "orth": (["orth", path, "a", "b", "E"], lambda r:
                 r["verdict"] == p.orthogonal(checks.residual_essential(p, a, [e]),
                                              checks.residual_essential(p, b, [e]))),
        "embed": (["embed", path, "x", "a"], lambda r: r["verdict"] is True),
        "rn": (["rn", path, "a", "x"], lambda r:
               r["success"] is True
               and abs(r["gamma"] - p.least_gamma(x, a)) <= 1e-6 * max(1.0, r["gamma"])),
    }


def _extend_ok(p, v, base, r) -> bool:
    proj = p.project(v, base, True)
    out = from_json_vector(r["vector"])
    return (r["summand_dimension"] == p.closure_dim([checks.residual(p, v, base)])
            and r["new_dimension"] == p.n + r["summand_dimension"]
            and checks.close(out[:p.n], proj, 1e-9)
            and abs(np.linalg.norm(out[p.n:]) - np.linalg.norm(v - proj)) <= 1e-9)


def _axioms_ok(r) -> bool:
    suites = (r["freeness"], r["functionals"])
    return r["failures"] == 0 and all(
        s["failures"] == 0 and all(prop["trials"] > 0 for prop in s["properties"].values())
        for s in suites)


class CliRunner:
    """Runs one command in its own process; `trace_dir` turns on the span wrappers."""

    def __init__(self):
        self.trace_dir = None
        self.calls = 0

    def __call__(self, argv):
        extra = {}
        if self.trace_dir is not None:
            extra["PERFBENCH_TRACE"] = os.path.join(self.trace_dir, f"call{self.calls:05d}.json.gz")
        self.calls += 1
        proc = subprocess.run([sys.executable, LAUNCH, *argv, "--json"], env=child_env(**extra),
                              capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return json.loads(proc.stdout)


def build(seed: int, smoke: bool = False):
    """Write the scenario files for the seed; return (ops, runner)."""
    scenarios, plants = plan_scenarios(seed, smoke)
    paths = planted.write_scenarios(scenarios, os.path.join(OUT, "scenarios", f"seed{seed}"))
    runner = CliRunner()
    ops = [Op(f"{argv[0]}:{os.path.basename(argv[1]) if argv[1].endswith('.json') else ''}",
              lambda argv=argv: runner(argv), check)
           for argv, check in _commands(plants, paths, seed)]
    return ops, runner

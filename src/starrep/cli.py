"""File-driven command surface.

A scenario JSON file declares the structure (dimension, generators, discrete
subspace, named vectors, named sets); each subcommand runs one operation and
prints a canonical key-sorted JSON or plain-text report.

Exit codes: 0 computed, 1 verdict-false under --strict, 2 input error,
3 tolerance breach.

A process loads what its subcommand runs and no more.  `import starrep`
gives numpy and the core layers (`linalg`, `algebra`, `representation`) that
build every scenario's Structure; the leaf layers are loaded on first use,
here by the handler that calls them: `independence` for indep, cbase, typeq,
extend and fbase, `functionals` for gns, orth, dom, embed and rn, and all
three with `harness` for axioms (dcl, acl and decompose load none).  When the
first argument names a subcommand, only that subcommand's parser is built.
No subcommand imports numpy.random: extend, decompose and axioms key their
draws by --seed through linalg.Draws, and a negative seed is an input error.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .algebra import DecompositionError, generate_algebra, wedderburn_decompose
from .linalg import Draws, Subspace, ToleranceBreach, Tolerances, orthonormalize
from .representation import Structure, acl, cyclic_subspace
from .serialize import (
    SCHEMA_VERSION,
    dumps_canonical,
    matrix_to_json,
    parse_matrix,
    parse_vector,
    vector_to_json,
)


class ScenarioError(ValueError):
    """Malformed scenario file or command arguments."""


class Scenario:
    """Parsed scenario: a validated Structure plus named vectors and sets."""

    def __init__(self, structure: Structure, sets: dict):
        self.structure = structure
        self.sets = sets

    def resolve_vector(self, token: str) -> np.ndarray:
        if token not in self.structure.vectors:
            raise ScenarioError(f"unknown vector name {token!r}")
        return self.structure.vectors[token]

    def resolve_set(self, token: str) -> list:
        """A set token: '' for the empty set, a declared set name, or a
        comma-separated list of vector names."""
        if token == "":
            return []
        if token in self.sets:
            return [self.resolve_vector(name) for name in self.sets[token]]
        return [self.resolve_vector(name) for name in token.split(",")]

    def resolve_tuple(self, token: str) -> np.ndarray:
        if token == "":
            raise ScenarioError("a tuple of vector names must not be empty")
        if token in self.sets:
            names = self.sets[token]
        else:
            names = token.split(",")
        return np.array([self.resolve_vector(n) for n in names])


def load_scenario(path: str, tol_override: float | None = None) -> Scenario:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ScenarioError(f"cannot read scenario file: {err}") from err
    except json.JSONDecodeError as err:
        raise ScenarioError(f"scenario file is not valid JSON: {err}") from err
    return scenario_from_dict(raw, tol_override)


def scenario_from_dict(raw: dict, tol_override: float | None = None) -> Scenario:
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a JSON object")
    try:
        dim = int(raw["dimension"])
    except (KeyError, TypeError, ValueError):
        raise ScenarioError('scenario field "dimension" must be a positive integer')
    if dim < 1:
        raise ScenarioError('scenario field "dimension" must be a positive integer')

    tol_args = dict(raw.get("tolerances", {}))
    if tol_override is not None:
        tol_args["eq_abs"] = tol_override
    try:
        tol = Tolerances(**tol_args)
    except (TypeError, ValueError) as err:
        raise ScenarioError(f'scenario field "tolerances": {err}') from err

    gens = []
    for i, g in enumerate(raw.get("generators", [])):
        m = parse_matrix(g, f"generators[{i}]")
        if m.shape != (dim, dim):
            raise ScenarioError(f"generators[{i}] has shape {m.shape}, expected ({dim}, {dim})")
        gens.append(m)

    disc_vecs = []
    for i, v in enumerate(raw.get("discrete_subspace", [])):
        vec = parse_vector(v, f"discrete_subspace[{i}]")
        if vec.size != dim:
            raise ScenarioError(f"discrete_subspace[{i}] has length {vec.size}, expected {dim}")
        disc_vecs.append(vec)

    vectors = {}
    for name, v in raw.get("vectors", {}).items():
        vec = parse_vector(v, f"vectors[{name!r}]")
        if vec.size != dim:
            raise ScenarioError(f"vectors[{name!r}] has length {vec.size}, expected {dim}")
        vectors[str(name)] = vec

    sets = {}
    for name, members in raw.get("sets", {}).items():
        if not isinstance(members, list) or not all(isinstance(x, str) for x in members):
            raise ScenarioError(f"sets[{name!r}] must be a list of vector names")
        for x in members:
            if x not in vectors:
                raise ScenarioError(f"sets[{name!r}] references unknown vector {x!r}")
        sets[str(name)] = list(members)

    try:
        algebra = generate_algebra(gens, dim=dim, tol=tol)
        discrete = orthonormalize(disc_vecs, dim, tol) if disc_vecs else None
        structure = Structure(algebra, discrete, vectors)
    except ValueError as err:
        raise ScenarioError(f"scenario does not define a valid structure: {err}") from err
    return Scenario(structure, sets)


def _subspace_report(sub: Subspace) -> dict:
    return {
        "dimension": sub.dim,
        "ambient_dimension": sub.ambient_dim,
        "basis": [vector_to_json(c) for c in sub.basis.T],
    }


def _cmd_dcl(sc: Scenario, args) -> tuple[dict, bool | None]:
    return _subspace_report(cyclic_subspace(sc.structure, sc.resolve_set(args.set))), None


def _cmd_acl(sc: Scenario, args):
    return _subspace_report(acl(sc.structure, sc.resolve_set(args.set))), None


def _cmd_indep(sc: Scenario, args):
    from .independence import is_independent

    rep = is_independent(sc.structure, sc.resolve_tuple(args.tuple),
                         sc.resolve_set(args.base), sc.resolve_set(args.extension))
    report = {
        "verdict": rep.verdict,
        "defect": rep.defect,
        "witnesses": [
            {"base_projection": vector_to_json(p1), "joint_projection": vector_to_json(p2)}
            for p1, p2 in rep.witnesses
        ],
    }
    return report, rep.verdict


def _cmd_cbase(sc: Scenario, args):
    from .independence import canonical_base

    out = canonical_base(sc.structure, sc.resolve_tuple(args.tuple), sc.resolve_set(args.base))
    return {"vectors": [vector_to_json(v) for v in np.atleast_2d(out)]}, None


def _cmd_typeq(sc: Scenario, args):
    from .independence import descriptor_distance, descriptors_close, type_of

    base = sc.resolve_set(args.base)
    d1 = type_of(sc.structure, sc.resolve_tuple(args.tuple1), base)
    d2 = type_of(sc.structure, sc.resolve_tuple(args.tuple2), base)
    equal = descriptors_close(d1, d2)
    return {"equal": equal, "distance": descriptor_distance(d1, d2)}, equal


def _cmd_extend(sc: Scenario, args):
    from .independence import nonforking_extension

    shat, vprime = nonforking_extension(
        sc.structure, sc.resolve_vector(args.vector),
        sc.resolve_set(args.base), sc.resolve_set(args.extension), seed=args.seed)
    return {
        "new_dimension": shat.dim,
        "summand_dimension": shat.dim - sc.structure.dim,
        "vector": vector_to_json(vprime),
    }, None


def _cmd_fbase(sc: Scenario, args):
    from .independence import finite_base

    try:
        eps = float(args.epsilon)
    except ValueError:
        raise ScenarioError(f"epsilon {args.epsilon!r} is not a number")
    fb = finite_base(sc.structure, sc.resolve_tuple(args.tuple),
                     sc.resolve_set(args.extension), eps)
    return {
        "indices": fb.indices,
        "size": len(fb.indices),
        "defect": fb.defect,
        "replacements": [vector_to_json(v) for v in np.atleast_2d(fb.replacements)],
    }, None


def _cmd_gns(sc: Scenario, args):
    from .functionals import PositiveFunctional, gns, vector_state

    algebra = sc.structure.algebra
    if args.state is not None:
        rep_mat = parse_matrix(json.loads(args.state), "--state")
        phi = PositiveFunctional(algebra, rep_mat)
    else:
        phi = vector_state(sc.structure, sc.resolve_vector(args.vector))
    rep = gns(algebra, phi)
    return {
        "space_dimension": rep.space_dim,
        "cyclic_norm": float(np.linalg.norm(rep.cyclic)),
        "roundtrip_defect": rep.roundtrip_defect,
        "star_hom_defect": rep.star_hom_defect,
        "cyclic_vector": vector_to_json(rep.cyclic),
    }, None


def _cmd_orth(sc: Scenario, args):
    from .functionals import types_orthogonal

    verdict = types_orthogonal(sc.structure, sc.resolve_vector(args.v),
                               sc.resolve_vector(args.w), sc.resolve_set(args.base))
    return {"verdict": verdict}, verdict


def _cmd_dom(sc: Scenario, args):
    from .functionals import types_dominated

    verdict = types_dominated(sc.structure, sc.resolve_vector(args.v),
                              sc.resolve_vector(args.w), sc.resolve_set(args.base))
    return {"verdict": verdict}, verdict


def _cmd_embed(sc: Scenario, args):
    from .functionals import embeds_as_subrepresentation

    verdict = embeds_as_subrepresentation(sc.structure, sc.resolve_vector(args.v),
                                          sc.resolve_vector(args.w))
    return {"verdict": verdict}, verdict


def _cmd_rn(sc: Scenario, args):
    from .functionals import radon_nikodym_operator

    rn = radon_nikodym_operator(sc.structure, sc.resolve_vector(args.w),
                                sc.resolve_vector(args.v))
    if rn is None:
        return {"success": False}, False
    return {
        "success": True,
        "gamma": rn.gamma,
        "operator": matrix_to_json(rn.operator),
        "copy_vector": vector_to_json(rn.v_copy),
    }, True


def _cmd_decompose(sc: Scenario, args):
    dec = wedderburn_decompose(sc.structure.algebra, seed=args.seed or 0)
    return {
        "blocks": [list(b) for b in dec.blocks],
        "algebra_dimension": sc.structure.algebra.size,
        "commutant_dimension": sum(m * m for _, m in dec.blocks),
        "change_of_basis": matrix_to_json(dec.change_of_basis),
    }, None


def _cmd_axioms(sc: Scenario | None, args):
    from .harness import InstanceSpec, random_block_plan, run_freeness_suite, run_functional_suite

    dim = args.dim
    if dim is None:
        dim = sc.structure.dim if sc is not None else 6
    seed = args.seed or 0
    if args.blocks:
        try:
            blocks = tuple(tuple(int(x) for x in piece.split(","))
                           for piece in args.blocks.split(";"))
        except ValueError:
            raise ScenarioError(f"cannot parse block plan {args.blocks!r}")
        flags = tuple(False for _ in blocks)
    else:
        rng = Draws([seed, 0xB10C])
        blocks, flags = random_block_plan(dim, rng)
    spec = InstanceSpec(dim, blocks, flags, generators=2, seed=seed)
    free = run_freeness_suite(spec, args.trials)
    func = run_functional_suite(spec, args.trials)
    ok = free.failures == 0 and func.failures == 0
    return {"freeness": free.to_json(), "functionals": func.to_json(),
            "failures": free.failures + func.failures}, ok


_COMMANDS = {
    "dcl": (_cmd_dcl, "cyclic subspace (definable closure) of a set"),
    "acl": (_cmd_acl, "algebraic closure of a set"),
    "indep": (_cmd_indep, "independence of a tuple from a set over a base"),
    "cbase": (_cmd_cbase, "canonical base of a tuple's type over a base"),
    "typeq": (_cmd_typeq, "type equality of two tuples over a base"),
    "extend": (_cmd_extend, "non-forking extension of a vector's type"),
    "fbase": (_cmd_fbase, "finite sub-base achieving epsilon-independence"),
    "gns": (_cmd_gns, "GNS representation of a vector state or explicit functional"),
    "orth": (_cmd_orth, "orthogonality of two types over a base"),
    "dom": (_cmd_dom, "domination between two types over a base"),
    "embed": (_cmd_embed, "cyclic subrepresentation embedding"),
    "rn": (_cmd_rn, "Radon-Nikodym operator realizing one state inside another"),
    "decompose": (_cmd_decompose, "Wedderburn block decomposition of the algebra"),
    "axioms": (_cmd_axioms, "randomized verification suites"),
}


# positional arguments after the scenario, by subcommand
_POSITIONALS = {
    "dcl": ("set",), "acl": ("set",), "indep": ("tuple", "base", "extension"),
    "cbase": ("tuple", "base"), "typeq": ("tuple1", "tuple2", "base"),
    "extend": ("vector", "base", "extension"), "fbase": ("tuple", "extension", "epsilon"),
    "gns": (), "orth": ("v", "w", "base"), "dom": ("v", "w", "base"), "embed": ("v", "w"),
    "rn": ("w", "v"), "decompose": (), "axioms": (),
}
# the subcommands that make random choices, and those that return a verdict
_SEEDED = ("extend", "decompose", "axioms")
_VERDICTS = ("indep", "typeq", "orth", "dom", "embed", "rn", "axioms")


def _add_subcommand(sub, name: str) -> None:
    """Add subcommand `name` with its arguments to the subparsers action `sub`."""
    p = sub.add_parser(name, help=_COMMANDS[name][1])
    if name == "axioms":
        p.add_argument("scenario", nargs="?", default=None,
                       help="optional scenario JSON file (supplies the default dimension)")
    else:
        p.add_argument("scenario", help="path to a scenario JSON file")
    p.add_argument("--tol", type=float, default=None, help="override eq_abs")
    if name in _SEEDED:
        p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json", action="store_true", help="emit canonical JSON")
    p.add_argument("--quiet", action="store_true", help="suppress output")
    if name in _VERDICTS:
        p.add_argument("--strict", action="store_true",
                       help="exit 1 when a boolean verdict is false")
    for dest in _POSITIONALS[name]:
        p.add_argument(dest)
    if name == "gns":
        p.add_argument("vector", nargs="?", default=None)
        p.add_argument("--state", default=None,
                       help="explicit representative matrix as JSON, instead of a vector")
    elif name == "axioms":
        p.add_argument("--trials", type=int, default=25)
        p.add_argument("--dim", type=int, default=None)
        p.add_argument("--blocks", default=None,
                       help='block plan like "1,1;2,1" (k,m pairs separated by ;)')


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The starrep parser with every subcommand, or with `command`'s alone.

    The one-subcommand parser spells the whole subcommand list out as its
    metavar, so the one top-level error it can report, unrecognized
    arguments, shows the same usage line as the full parser's."""
    parser = argparse.ArgumentParser(
        prog="starrep",
        description="operate on C*-algebra representation scenarios")
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else (command,):
        _add_subcommand(sub, name)
    return parser


def _render_text(report: dict, indent: str = "") -> str:
    lines = []
    for key in sorted(report):
        val = report[key]
        if isinstance(val, dict):
            lines.append(f"{indent}{key}:")
            lines.append(_render_text(val, indent + "  "))
        elif isinstance(val, list):
            lines.append(f"{indent}{key}: {json.dumps(val)}")
        else:
            lines.append(f"{indent}{key}: {val}")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    handler = _COMMANDS[args.command][0]
    try:
        if args.command == "gns" and (args.vector is None) == (args.state is None):
            raise ScenarioError("gns needs a vector name or --state, not both")
        if args.command == "axioms":
            sc = load_scenario(args.scenario, args.tol) if args.scenario else None
        else:
            sc = load_scenario(args.scenario, args.tol)
        report, verdict = handler(sc, args)
    except (ValueError, KeyError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return 2
    except (ToleranceBreach, DecompositionError) as err:
        print(f"tolerance breach: {err}", file=sys.stderr)
        return 3

    report = {"schema": SCHEMA_VERSION, "command": args.command, **report}
    if not args.quiet:
        if args.json:
            sys.stdout.write(dumps_canonical(report))
        else:
            print(_render_text(report))
    if getattr(args, "strict", False) and verdict is False:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

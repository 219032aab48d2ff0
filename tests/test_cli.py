import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import starrep
from starrep import cli
from starrep.linalg import ToleranceBreach

from conftest import SCENARIO_DIR

DIAG = str(SCENARIO_DIR / "diagonal.json")
DIAG_HD = str(SCENARIO_DIR / "diagonal_discrete.json")
M2 = str(SCENARIO_DIR / "m2.json")

INV_SQRT2 = 0.7071067811865476


def run(capsys, *argv):
    code = cli.main([*argv, "--json"])
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_indep_command(capsys):
    code, rep = run(capsys, "indep", DIAG, "e1", "", "e2")
    assert code == 0
    assert rep["verdict"] is True
    assert rep["defect"] == 0.0
    code, rep = run(capsys, "indep", DIAG, "u", "", "e1")
    assert rep["verdict"] is False
    assert abs(rep["defect"] - INV_SQRT2) < 1e-10


def test_cbase_command(capsys):
    code, rep = run(capsys, "cbase", DIAG, "u", "E1")
    assert code == 0
    got = rep["vectors"][0]
    assert abs(got[0][0] - INV_SQRT2) < 1e-10
    assert abs(got[1][0]) < 1e-12


def test_dcl_acl_commands(capsys):
    code, rep = run(capsys, "dcl", DIAG, "")
    assert code == 0 and rep["dimension"] == 0
    code, rep = run(capsys, "acl", DIAG_HD, "")
    assert rep["dimension"] == 1
    assert abs(rep["basis"][0][1][0]) == 1  # spanned by e2
    code, rep = run(capsys, "dcl", DIAG, "both")
    assert rep["dimension"] == 2


def _scaled_scenario(tmp_path, path, vectors):
    raw = json.loads(Path(path).read_text())
    raw["vectors"].update({name: [[z.real, z.imag] for z in np.asarray(v, dtype=complex)]
                           for name, v in vectors.items()})
    out = tmp_path / "scaled.json"
    out.write_text(json.dumps(raw))
    return str(out)


def test_typeq_verdict_is_scale_invariant(tmp_path, capsys):
    # c e1 against c (0.8 e1 + 0.6 e2) on the diagonal algebra differ in
    # type at every scale, y and e^{0.7i} y on M_2 agree at every scale,
    # though their distances move as c^2
    y = np.array([0.6, 0.48 + 0.64j])
    pairs = [(DIAG, np.array([1.0, 0.0]), np.array([0.8, 0.6]), False),
             (M2, y, np.exp(0.7j) * y, True)]
    for path, a, b, equal in pairs:
        for c in 10.0 ** np.arange(-9, 8):
            scenario = _scaled_scenario(tmp_path, path, {"a": c * a, "b": c * b})
            code, rep = run(capsys, "typeq", scenario, "a", "b", "")
            assert rep["equal"] is equal, (path, c, rep["distance"])


def test_typeq_command(capsys):
    code, rep = run(capsys, "typeq", DIAG, "e1", "e2", "")
    assert rep["equal"] is False
    code, rep = run(capsys, "typeq", DIAG, "e1", "e1", "")
    assert rep["equal"] is True and code == 0


def test_extend_command(capsys):
    code, rep = run(capsys, "extend", DIAG, "e1", "", "E1")
    assert code == 0
    assert rep["new_dimension"] == 3 and rep["summand_dimension"] == 1
    v = np.array([complex(re, im) for re, im in rep["vector"]])
    assert abs(abs(v[2]) - 1) < 1e-10 and abs(v[0]) < 1e-12


def test_fbase_command(capsys):
    code, rep = run(capsys, "fbase", DIAG, "u", "both", "1e-6")
    assert code == 0
    assert rep["indices"] == [0, 1] and rep["size"] == 2
    code, _ = run(capsys, "fbase", DIAG, "u", "both", "junk")
    assert code == 2


def test_gns_command(capsys):
    code, rep = run(capsys, "gns", DIAG, "u")
    assert code == 0
    assert rep["space_dimension"] == 2
    assert rep["roundtrip_defect"] < 1e-10
    # explicit functional: the trace state on the diagonal algebra
    code, rep = run(capsys, "gns", DIAG, "--state",
                    "[[[1,0],[0,0]],[[0,0],[1,0]]]")
    assert code == 0
    assert rep["space_dimension"] == 2
    assert abs(rep["cyclic_norm"] - np.sqrt(2)) < 1e-10


@pytest.mark.parametrize("vector", ["e1", "nosuch"])
def test_gns_rejects_a_vector_name_with_state(capsys, vector):
    # the state would be used and the name ignored, known or not
    code = cli.main(["gns", DIAG, vector, "--state", "[[[1,0],[0,0]],[[0,0],[1,0]]]"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "not both" in captured.err
    code = cli.main(["gns", DIAG])
    assert code == 2 and "vector name or --state" in capsys.readouterr().err


def test_orth_dom_embed_rn_commands(capsys):
    assert run(capsys, "orth", DIAG, "e1", "e2", "")[1]["verdict"] is True
    assert run(capsys, "orth", DIAG, "u", "u", "")[1]["verdict"] is False
    assert run(capsys, "dom", DIAG, "u", "e1", "")[1]["verdict"] is True
    assert run(capsys, "dom", M2, "e1", "e2", "")[1]["verdict"] is False
    assert run(capsys, "embed", DIAG, "e1", "u")[1]["verdict"] is True
    assert run(capsys, "embed", M2, "e1", "e2")[1]["verdict"] is False
    code, rep = run(capsys, "rn", DIAG, "u", "e1")
    assert rep["success"] is True
    assert abs(rep["gamma"] - 2) < 1e-9
    code, rep = run(capsys, "rn", M2, "e2", "e1")
    assert rep["success"] is False


def test_decompose_command(capsys):
    code, rep = run(capsys, "decompose", M2)
    assert code == 0 and rep["blocks"] == [[2, 1]]
    code, rep = run(capsys, "decompose", DIAG)
    assert rep["blocks"] == [[1, 1], [1, 1]]


def test_axioms_command(capsys):
    code, rep = run(capsys, "axioms", "--trials", "2", "--seed", "5", "--dim", "4")
    assert code == 0
    assert rep["failures"] == 0
    assert rep["freeness"]["properties"]["symmetry"]["passes"] == 2


def test_strict_exit_code(capsys):
    code = cli.main(["indep", DIAG, "u", "", "e1", "--strict", "--quiet"])
    assert code == 1
    code = cli.main(["indep", DIAG, "e1", "", "e2", "--strict", "--quiet"])
    assert code == 0


def test_input_error_exit_codes(tmp_path, capsys):
    assert cli.main(["dcl", "/does/not/exist.json", ""]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["dcl", str(bad), ""]) == 2
    bad.write_text(json.dumps({"dimension": 2, "generators": [[[[0, 0]]]]}))
    assert cli.main(["dcl", str(bad), ""]) == 2
    bad.write_text(json.dumps({
        "dimension": 2,
        "generators": [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]],
        "vectors": {"v": [[1, 0], [0, 0]]},
        "sets": {"E": ["missing"]},
    }))
    assert cli.main(["dcl", str(bad), ""]) == 2
    # non-invariant declared discrete subspace
    bad.write_text(json.dumps({
        "dimension": 2,
        "generators": [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]],
        "discrete_subspace": [[[INV_SQRT2, 0], [INV_SQRT2, 0]]],
    }))
    assert cli.main(["dcl", str(bad), ""]) == 2
    # unknown vector name
    assert cli.main(["indep", DIAG, "nope", "", "e1"]) == 2
    # an infinite tolerance, from the command line or the scenario
    assert cli.main(["indep", DIAG, "u", "", "e1", "--tol", "inf"]) == 2
    scenario = json.loads((SCENARIO_DIR / "diagonal.json").read_text())
    scenario["tolerances"] = {"eq_abs": float("inf")}
    bad.write_text(json.dumps(scenario))
    assert cli.main(["indep", str(bad), "u", "", "e1"]) == 2
    # a dimension of 0 is out of range, as 17 is
    capsys.readouterr()
    assert cli.main(["axioms", "--dim", "0", "--trials", "1"]) == 2
    assert "instance dimension must lie in 1..16" in capsys.readouterr().err
    assert cli.main(["axioms", "--dim", "17", "--trials", "1"]) == 2


def test_tolerance_breach_exit_code(monkeypatch, capsys):
    def boom(sc, args):
        raise ToleranceBreach("synthetic")
    monkeypatch.setitem(cli._COMMANDS, "dcl", (boom, "doc"))
    assert cli.main(["dcl", DIAG, ""]) == 3


def test_tol_override(capsys):
    # a defect of 1/sqrt(2) counts as independent under an absurd tolerance
    code, rep = run(capsys, "indep", DIAG, "u", "", "e1", "--tol", "1.0")
    assert rep["verdict"] is True


def test_json_output_is_byte_stable(capsys):
    outs = []
    for _ in range(2):
        cli.main(["rn", DIAG, "u", "e1", "--json"])
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    parsed = json.loads(outs[0])
    assert parsed["schema"] == 1


def test_text_output(capsys):
    code = cli.main(["indep", DIAG, "e1", "", "e2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: True" in out
    code = cli.main(["indep", DIAG, "e1", "", "e2", "--quiet"])
    assert capsys.readouterr().out == ""


def _child_env():
    """The environment of a child interpreter that imports this starrep, with
    the default block-buffered stdout of a pipe."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(starrep.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    return env


CORE = {"starrep", "starrep.linalg", "starrep.algebra", "starrep.representation"}
LEAVES = {"starrep.independence", "starrep.functionals", "starrep.harness"}
# runs a command (or only imports starrep) in a fresh interpreter and reports
# the starrep modules loaded and whether numpy.random was; after a bare import
# it also checks that the lazily loaded names behave as eagerly bound ones did
PROBE = """
import contextlib, io, json, sys
import starrep
argv = json.loads(sys.argv[1])
if argv is not None:
    from starrep import cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
out = {"loaded": sorted(m for m in sys.modules if m.startswith("starrep")),
       "scipy": "scipy" in sys.modules, "numpy.random": "numpy.random" in sys.modules}
if argv is None:
    out["dir"] = set(starrep.__all__) <= set(dir(starrep))
    out["submodule"] = starrep.functionals.gns is starrep.gns
    try:
        starrep.no_such_name
        out["unknown"] = False
    except AttributeError:
        out["unknown"] = True
    names = {}
    exec("from starrep import *", names)
    out["star"] = all(names[n] is getattr(starrep, n) for n in starrep.__all__)
print(json.dumps(out))
"""


@pytest.mark.parametrize("argv, leaves", [
    (None, set()),
    (["indep", DIAG, "e1", "", "e2"], {"independence"}),
    (["gns", DIAG, "u"], {"functionals"}),
    (["decompose", M2], set()),
    (["axioms", "--trials", "1", "--seed", "5", "--dim", "4"],
     {"independence", "functionals", "harness"}),
    (["extend", DIAG, "e1", "", "E2", "--seed", "3"], {"independence"}),
    (["decompose", M2, "--seed", "1"], set()),
], ids=["import", "indep", "gns", "decompose", "axioms", "extend-seeded", "decompose-seeded"])
def test_process_loads_only_the_layers_it_runs(argv, leaves):
    out = json.loads(subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argv)],
        env=_child_env(), capture_output=True, text=True, check=True).stdout)
    loaded = set(out["loaded"])
    assert loaded & LEAVES == {f"starrep.{m}" for m in leaves}
    assert not out["scipy"]
    assert not out["numpy.random"]
    if argv is None:
        assert loaded == CORE
        assert out["dir"] and out["submodule"] and out["unknown"] and out["star"]


@pytest.mark.parametrize("argv", [
    ["extend", DIAG, "e1", "", "E2"],
    ["decompose", M2],
    ["axioms", "--trials", "1", "--dim", "4"],
], ids=["extend", "decompose", "axioms"])
def test_negative_seed_is_an_input_error(argv, capsys):
    assert cli.main(argv + ["--seed", "-1"]) == 2
    assert "non-negative" in capsys.readouterr().err


def _subparser(parser, name):
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices[name]


@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_one_subcommand_parser_matches_the_full_parser(name):
    one, full = cli.build_parser(name), cli.build_parser()

    def arguments(p):
        return [(a.option_strings, a.dest, a.nargs, a.default, a.type) for a in p._actions]

    assert arguments(_subparser(one, name)) == arguments(_subparser(full, name))
    assert _subparser(one, name).format_help() == _subparser(full, name).format_help()
    # the top-level usage, shown with an unrecognized-arguments error
    assert one.format_usage() == full.format_usage()


def test_main_builds_only_the_named_subcommand(monkeypatch, capsys):
    built = []
    add = cli._add_subcommand
    monkeypatch.setattr(cli, "_add_subcommand",
                        lambda sub, name: built.append(name) or add(sub, name))
    monkeypatch.setattr(sys, "argv", ["starrep", "indep", DIAG, "e1", "", "e2", "--json"])
    assert cli.main() == 0
    assert json.loads(capsys.readouterr().out)["verdict"] is True
    assert built == ["indep"]
    built.clear()
    with pytest.raises(SystemExit) as err:
        cli.main(["nope"])
    assert err.value.code == 2 and built == list(cli._COMMANDS)
    assert "invalid choice: 'nope'" in capsys.readouterr().err


def test_a_discrete_part_that_splits_a_class_is_an_input_error(tmp_path, capsys):
    # C^2 under the scalars is one class of multiplicity 2: span{e1} is
    # invariant, but acl(empty set) holds e2 as well
    path = tmp_path / "scalars.json"
    path.write_text(json.dumps({
        "dimension": 2,
        "generators": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]],
        "discrete_subspace": [[[1, 0], [0, 0]]],
        "vectors": {"e2": [[0, 0], [1, 0]]},
        "sets": {"E": ["e2"]},
    }))
    assert cli.main(["acl", str(path), "E"]) == 2
    err = capsys.readouterr().err
    assert "scenario does not define a valid structure" in err
    assert "not a sum of isotypic components" in err


# the commands of the golden-file acceptance criterion
GOLDEN = [
    ["indep", DIAG, "e1", "", "e2"], ["indep", DIAG, "u", "", "e1"],
    ["cbase", DIAG, "u", "E1"], ["dcl", DIAG, ""], ["acl", DIAG_HD, ""],
    ["extend", DIAG, "e1", "", "E1"],
    ["gns", DIAG, "--state", "[[[1,0],[0,0]],[[0,0],[1,0]]]"], ["gns", DIAG, "e1"],
    ["orth", DIAG, "e1", "e2", ""], ["orth", DIAG, "u", "u", ""],
    ["dom", DIAG, "u", "e1", ""], ["dom", M2, "e1", "e2", ""],
    ["embed", DIAG, "e1", "u"], ["embed", M2, "e1", "e2"], ["rn", DIAG, "u", "e1"],
    ["typeq", DIAG, "e1", "e2", ""], ["typeq", DIAG, "u", "u", ""],
    ["fbase", DIAG, "u", "both", "1e-6"], ["decompose", M2], ["decompose", DIAG],
]
# (argv, exit code): the golden commands under --json, a text report, exit 1
# under --strict, exit 2 from an unknown vector and from argparse, and a report
# larger than a pipe buffer, which a truncated flush at exit would cut short
PARITY = [
    *[(argv + ["--json"], 0) for argv in GOLDEN],
    (["indep", DIAG, "u", "", "e1"], 0),
    (["indep", DIAG, "u", "", "e1", "--strict", "--json"], 1),
    (["indep", DIAG, "nope", "", "e1", "--json"], 2),
    (["indep", DIAG, "u", ""], 2),
    (["axioms", "--trials", "5", "--dim", "12", "--json"], 0),
]
LAUNCHERS = [["-c", "import sys; from starrep.cli import main; sys.exit(main())"],
             ["-m", "starrep"]]


@pytest.mark.parametrize("argv, code", PARITY, ids=[
    "-".join(os.path.basename(a) or "''" for a in argv) for argv, _ in PARITY])
def test_a_command_prints_and_exits_alike_in_and_out_of_process(argv, code, capsys):
    try:
        assert cli.main(argv) == code
    except SystemExit as err:
        assert err.code == code
    out = capsys.readouterr().out.encode()
    for launcher in LAUNCHERS:
        child = subprocess.run([sys.executable, *launcher, *argv], env=_child_env(),
                               capture_output=True)
        assert (child.returncode, child.stdout) == (code, out), child.stderr


# runs main once or twice in a fresh interpreter, on its own command line or
# on an explicit argv, and at exit reports the frozen object count seen by a
# handler registered before main (atexit runs the last registered first) and
# the number of atexit handlers main registered
EXIT_PROBE = """
import atexit, contextlib, gc, io, json, sys
from starrep import cli
explicit, calls = json.loads(sys.argv[1])
sys.argv = ["starrep", "decompose", sys.argv[2]]
report = {}
atexit.register(lambda: print(json.dumps(dict(report, frozen=gc.get_freeze_count()))))
before = atexit._ncallbacks()
with contextlib.redirect_stdout(io.StringIO()):
    for _ in range(calls):
        assert (cli.main(sys.argv[1:]) if explicit else cli.main()) == 0
report["hooks"] = atexit._ncallbacks() - before
"""


@pytest.mark.parametrize("explicit, calls, hooks", [
    (False, 1, 1), (False, 2, 1), (True, 1, 0),
], ids=["argv-once", "argv-twice", "explicit"])
def test_only_a_command_line_run_freezes_the_heap_at_exit(explicit, calls, hooks):
    out = json.loads(subprocess.run(
        [sys.executable, "-c", EXIT_PROBE, json.dumps([explicit, calls]), M2],
        env=_child_env(), capture_output=True, text=True, check=True).stdout)
    assert out["hooks"] == hooks
    assert (out["frozen"] > 0) == (hooks > 0)

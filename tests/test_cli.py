import json
import os
import subprocess
import sys

import numpy as np

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


def test_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(starrep.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, starrep; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"

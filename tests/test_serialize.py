import numpy as np
import pytest

from starrep import serialize
from starrep.serialize import parse_complex, parse_matrix, parse_vector


# the per-entry parsers, the reference for the vectorized path
def reference_vector(obj, where="vector"):
    if not isinstance(obj, list):
        raise ValueError(f"{where}: expected a list of [re, im] pairs")
    return np.array([parse_complex(x, f"{where}[{i}]") for i, x in enumerate(obj)],
                    dtype=complex)


def reference_matrix(obj, where="matrix"):
    if not isinstance(obj, list) or not obj:
        raise ValueError(f"{where}: expected a non-empty nested list")
    rows = [reference_vector(r, f"{where}[{i}]") for i, r in enumerate(obj)]
    if any(r.size != rows[0].size for r in rows):
        raise ValueError(f"{where}: ragged rows")
    return np.array(rows, dtype=complex)


def outcome(parse, obj):
    try:
        out = parse(obj)
    except (ValueError, OverflowError) as err:
        return type(err), str(err)
    # bit patterns, so that signed zeros count
    return out.shape, out.dtype, out.view(float).tobytes()


VECTORS = [
    [[1, 2], [3.5, -0.0]], [[0, 0]], [[2 ** 53 + 1, -(2 ** 62)]], [[2 ** 63, 1]],
    [[1e308, -1e-308], [0.1, 0.2]], [[-0.0, 0]], [(1, 2), (3, 4)], [],
    [1, 2.5], [[1, 2], 3], [[True, 1]], [[True, False]], [["1", 2]], [[None, 1]],
    [[float("nan"), 0]], [[0, float("inf")]], [float("inf")], [[1, 2], [3]],
    [[1, 2, 3]], [[[1, 2]]], [[2 ** 70, 0]], [[2 ** 63, -1]], [[10 ** 400, 0.5]],
    [[{}, 1]], [[]], "[[1, 2]]", [[1, 2]] * 17,
]
MATRICES = [
    [[[1, 0], [0, 1]], [[2, -3], [0.5, 0]]], [[[1, 0]]], [[1, 2], [3, 4]],
    [[[1, 0], [0, 1]], [[2, 0]]], [[[1, 0], [0, 1]], [[2, 0], 5]], [[]], [],
    [[[1, 0], [0, float("nan")]]], [[[True, False]]], [[["a", 0]]], [[[1, 0, 0]]],
    [[[2 ** 80, 0]]], [[[-0.0, -0.0], [1, 1]]], [[1, [1, 0]]], {"a": 1},
    [[[[1, 0]]]], [[[1, 2], [3, 4]]] * 3,
]


@pytest.mark.parametrize("obj", VECTORS, ids=range(len(VECTORS)))
def test_parse_vector_matches_the_per_entry_parser(obj):
    assert outcome(parse_vector, obj) == outcome(reference_vector, obj)


@pytest.mark.parametrize("obj", MATRICES, ids=range(len(MATRICES)))
def test_parse_matrix_matches_the_per_entry_parser(obj):
    assert outcome(parse_matrix, obj) == outcome(reference_matrix, obj)


def test_well_formed_input_takes_no_per_entry_pass(monkeypatch):
    def per_entry(*args):
        raise AssertionError("per-entry pass")

    monkeypatch.setattr(serialize, "parse_complex", per_entry)
    assert parse_vector([[1, 2], [0.5, 0]]).tolist() == [1 + 2j, 0.5]
    assert parse_matrix([[[1, 0], [0, -1]]]).tolist() == [[1, -1j]]
    with pytest.raises(AssertionError):
        parse_vector([[True, False]])

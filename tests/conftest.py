import pathlib

import numpy as np
import pytest

from starrep.algebra import generate_algebra
from starrep.linalg import orthonormalize
from starrep.representation import Structure

SCENARIO_DIR = pathlib.Path(__file__).parent / "scenarios"

E1 = np.array([1, 0], dtype=complex)
E2 = np.array([0, 1], dtype=complex)
U = np.array([1, 1], dtype=complex) / np.sqrt(2)


def per_block(stacks):
    """Block data held as one (..., c, k, k) stack per run, split into one
    (..., k, k) part per block, in block order, for per-block references."""
    return [p for stack in stacks for p in np.moveaxis(stack, -3, 0)]


def per_run(dec, parts):
    """One k_i x k_i part per block, stacked into one (c, k, k) stack per run."""
    return [np.array(parts[first:first + c], dtype=complex) for first, c, *_ in dec.runs]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def diag_structure():
    algebra = generate_algebra([np.diag([1.0, 0.0])])
    return Structure(algebra, vectors={"e1": E1, "e2": E2, "u": U})


@pytest.fixture
def diag_discrete_structure():
    algebra = generate_algebra([np.diag([1.0, 0.0])])
    return Structure(algebra, discrete=orthonormalize([E2], 2),
                     vectors={"e1": E1, "e2": E2, "u": U})


@pytest.fixture
def m2_structure():
    e12 = np.zeros((2, 2), dtype=complex)
    e12[0, 1] = 1
    return Structure(generate_algebra([e12]), vectors={"e1": E1, "e2": E2, "u": U})


@pytest.fixture
def scenario_path():
    return str(SCENARIO_DIR / "diagonal.json")

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


def per_block(dec, stacks):
    """Block data held as one zero-padded (..., c, K, K) stack per block
    group, split into one (..., k_i, k_i) part per block, in block order, for
    per-block references."""
    return [stack[..., i, :k, :k] for g, stack in zip(dec.groups, stacks)
            for i, k in enumerate(g.k)]


def per_group(dec, parts):
    """One k_i x k_i part per block, zero-padded into one (c, K, K) stack per
    block group."""
    stacks = []
    for g in dec.groups:
        stack = np.zeros(g.parts_shape, dtype=complex)
        for i, k in enumerate(g.k):
            stack[i, :k, :k] = parts[g.first + i]
        stacks.append(stack)
    return stacks


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

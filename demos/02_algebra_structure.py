#!/usr/bin/env python3
# Generating matrix *-algebras and exposing their block anatomy:
# commutants, the bicommutant identity, and Wedderburn decomposition.

import numpy as np

from starrep import (
    commutant,
    conditional_expectation,
    double_commutant_check,
    generate_algebra,
    haar_unitary,
    wedderburn_decompose,
)
from starrep.linalg import block_diag

# one nilpotent generator is enough to produce all of M_2
e12 = np.array([[0, 1], [0, 0]], dtype=complex)
m2 = generate_algebra([e12])
print("algebra generated by E12 has linear dimension", m2.size)      # 4
print("its commutant has dimension", commutant(m2).size)             # 1 (Schur)
print("bicommutant recovers the algebra:", double_commutant_check(m2))

# a hidden block structure: (1,1) + (2,2) conjugated by a random unitary
rng = np.random.default_rng(7)
q = haar_unitary(5, rng)

def hidden_generator():
    h1 = rng.standard_normal((1, 1))
    h2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    h2 = h2 + h2.conj().T
    return q @ block_diag(h1 + h1.T, np.kron(h2, np.eye(2))) @ q.conj().T

alg = generate_algebra([hidden_generator(), hidden_generator()])
print("\nhidden block algebra: dim(A) =", alg.size,
      " dim(A') =", commutant(alg).size)      # 5 and 5

dec = wedderburn_decompose(alg, seed=0)
print("recovered blocks (k_i, m_i):", dec.blocks)            # [(1, 1), (2, 2)]

# the change of basis makes every element visibly block diagonal
x = alg.random_hermitian_element(rng)
# one zero-padded (c, K, K) stack per block group: the blocks with k <= 4 share
# one, padded to its largest k (and, in coordinates, m); each larger k has its
# own, so at worst a 1 x 1 block is held as 4 x 4
stacks = dec.block_parts(x)
print("compressed block stacks:", [p.shape for p in stacks])  # [(2, 2, 2)]
print("assembling the stacks reproduces the element:",
      np.allclose(dec.assemble(stacks), x))

# the trace-pairing conditional expectation projects onto the span
noise = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
inside = conditional_expectation(noise @ noise.conj().T, alg)
print("conditional expectation is idempotent:",
      np.allclose(conditional_expectation(inside, alg), inside))
print("and keeps PSD inputs PSD:",
      np.linalg.eigvalsh((inside + inside.conj().T) / 2)[0] > -1e-9)

"""Planted block structures and their ground truth, built with numpy alone.

A plan is a tuple of blocks (k, m): the algebra is the direct sum of
M_k (x) I_m, conjugated by a Haar unitary Q.  Vectors are made in block
coordinates: block i of Q^H v, read as a k x m matrix V_i.  Every truth below
(closures, projections, cyclic dimensions, domination, orthogonality, the
Morley law) is computed from Q, the plan and the V_i, never by calling the
library under test.

Rebuild the scenario files of the `cli` workload for a seed with
    python3 perfbench/planted.py --seed 1 --out perfbench/out/scenarios/1
"""
from __future__ import annotations

import argparse
import json
import os

import numpy as np

RANK_CUT = 1e-7


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


# Rank decisions are relative to `scale`, the norm of the vectors involved, so
# the rounding left in blocks a vector does not touch counts as zero.

def _rank(a: np.ndarray, scale: float) -> int:
    if a.size == 0:
        return 0
    return int(np.sum(np.linalg.svd(a, compute_uv=False) > RANK_CUT * scale))


def _row_projector(rows: np.ndarray, m: int, scale: float) -> np.ndarray:
    """Projector P (m x m) with x @ P the projection of a row x onto the row span."""
    if rows.shape[0] == 0:
        return np.zeros((m, m), dtype=complex)
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    y = vh[s > RANK_CUT * scale]
    return y.conj().T @ y


def _col_projector(a: np.ndarray, scale: float) -> np.ndarray:
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    keep = u[:, s > RANK_CUT * scale]
    return keep @ keep.conj().T


def _scale(*vectors) -> float:
    return max([float(np.linalg.norm(v)) for v in vectors] + [1e-300])


class Plant:
    """One planted structure: plan, Haar unitary, generators and discrete part."""

    def __init__(self, blocks, discrete, rng: np.random.Generator):
        self.blocks = tuple((int(k), int(m)) for k, m in blocks)
        self.discrete = tuple(bool(f) for f in discrete)
        self.n = sum(k * m for k, m in self.blocks)
        self.offsets = list(np.cumsum([0] + [k * m for k, m in self.blocks])[:-1])
        self.q = haar_unitary(self.n, rng)
        # generator 1 is diagonal in every block with well-separated values, so
        # no two blocks are isomorphic; generator 2 is a dense Hermitian block,
        # so together they generate each M_k
        total_k = sum(k for k, _ in self.blocks)
        values = rng.permutation(np.linspace(-1.0, 1.0, total_k))
        d_parts, h_parts, cur = [], [], 0
        for k, _ in self.blocks:
            d_parts.append(np.diag(values[cur:cur + k]).astype(complex))
            cur += k
            h = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            h_parts.append((h + h.conj().T) / 2 + np.eye(k))
        self.generators = [self.element(d_parts), self.element(h_parts)]
        cols = [self.q[:, off:off + k * m]
                for off, (k, m), f in zip(self.offsets, self.blocks, self.discrete) if f]
        self.discrete_basis = (np.hstack(cols) if cols
                               else np.zeros((self.n, 0), dtype=complex))

    # ----- planted coordinates ---------------------------------------------

    def element(self, parts) -> np.ndarray:
        """Ambient matrix of the algebra element with block parts (k x k each)."""
        t = np.zeros((self.n, self.n), dtype=complex)
        for off, (k, m), p in zip(self.offsets, self.blocks, parts):
            t[off:off + k * m, off:off + k * m] = np.kron(p, np.eye(m))
        return self.q @ t @ self.q.conj().T

    def commutant_element(self, parts) -> np.ndarray:
        """Ambient matrix of the commutant element with parts (m x m each)."""
        t = np.zeros((self.n, self.n), dtype=complex)
        for off, (k, m), p in zip(self.offsets, self.blocks, parts):
            t[off:off + k * m, off:off + k * m] = np.kron(np.eye(k), p)
        return self.q @ t @ self.q.conj().T

    def coords(self, v) -> list:
        x = self.q.conj().T @ np.asarray(v, dtype=complex).ravel()
        return [x[off:off + k * m].reshape(k, m)
                for off, (k, m) in zip(self.offsets, self.blocks)]

    def vector(self, coords) -> np.ndarray:
        return self.q @ np.concatenate([np.asarray(c, dtype=complex).ravel() for c in coords])

    def random_vector(self, rng, support) -> np.ndarray:
        """Unit vector living in the listed blocks, generic inside each."""
        coords = []
        for i, (k, m) in enumerate(self.blocks):
            if i in support:
                coords.append(rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m)))
            else:
                coords.append(np.zeros((k, m), dtype=complex))
        v = self.vector(coords)
        return v / np.linalg.norm(v)

    def random_algebra_element(self, rng) -> np.ndarray:
        parts = [rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
                 for k, _ in self.blocks]
        return self.element(parts)

    def commuting_unitary(self, rng, fixed=()) -> np.ndarray:
        """A unitary in the commutant; identity on the blocks listed in `fixed`."""
        parts = [np.eye(m, dtype=complex) if i in fixed else haar_unitary(m, rng)
                 for i, (_, m) in enumerate(self.blocks)]
        return self.commutant_element(parts)

    def in_algebra_state(self, rng, ranks):
        """Trace representative Q (+) (sigma_i (x) I_m) Q^H with rank(sigma_i) = ranks[i]."""
        parts = []
        for (k, _), r in zip(self.blocks, ranks):
            u = haar_unitary(k, rng)
            lam = np.concatenate([0.2 + 0.8 * rng.random(r), np.zeros(k - r)])
            parts.append(u @ np.diag(lam) @ u.conj().T)
        return self.element(parts)

    # ----- ground truth ----------------------------------------------------

    @property
    def algebra_size(self) -> int:
        return sum(k * k for k, _ in self.blocks)

    @property
    def commutant_size(self) -> int:
        return sum(m * m for _, m in self.blocks)

    @property
    def signature(self) -> list:
        return sorted(self.blocks)

    def _block_projectors(self, vectors, with_discrete: bool):
        coords = [self.coords(v) for v in vectors]
        scale = _scale(*vectors)
        projs = []
        for i, (k, m) in enumerate(self.blocks):
            if with_discrete and self.discrete[i]:
                projs.append(np.eye(m, dtype=complex))
                continue
            rows = (np.vstack([c[i] for c in coords]) if coords
                    else np.zeros((0, m), dtype=complex))
            projs.append(_row_projector(rows, m, scale))
        return projs

    def closure_dim(self, vectors, with_discrete: bool = False) -> int:
        return sum(k * _rank(p, 1.0) for (k, _), p in
                   zip(self.blocks, self._block_projectors(vectors, with_discrete)))

    def project(self, v, vectors, with_discrete: bool = False) -> np.ndarray:
        """Projection of v onto dcl(vectors), or acl(vectors) with the discrete part."""
        projs = self._block_projectors(vectors, with_discrete)
        return self.vector([c @ p for c, p in zip(self.coords(v), projs)])

    def clean(self, v, scale: float) -> np.ndarray:
        """v with every block whose part is rounding against `scale` set to zero."""
        return self.vector([np.zeros_like(c) if np.linalg.norm(c) <= RANK_CUT * scale else c
                            for c in self.coords(v)])

    def essential(self, v) -> np.ndarray:
        return self.vector([np.zeros_like(c) if f else c
                            for c, f in zip(self.coords(v), self.discrete)])

    def densities(self, v) -> list:
        return [c @ c.conj().T for c in self.coords(v)]

    def dominated(self, v, w) -> bool:
        """phi_v <= gamma phi_w: range(V_i V_i^H) inside range(W_i W_i^H) per block."""
        sv, sw = _scale(v), _scale(w)
        for cv, cw in zip(self.coords(v), self.coords(w)):
            if np.linalg.norm(cv) <= RANK_CUT * sv:
                continue
            leak = cv - _col_projector(cw, sw) @ cv
            if np.linalg.norm(leak) > 1e-6 * np.linalg.norm(cv):
                return False
        return True

    def least_gamma(self, v, w) -> float:
        gamma = 0.0
        cut = (RANK_CUT * _scale(w)) ** 2
        for rv, rw in zip(self.densities(v), self.densities(w)):
            wv, u = np.linalg.eigh(rw)
            keep = wv > cut
            if not np.any(keep):
                continue
            inv = u[:, keep] / np.sqrt(wv[keep])
            gamma = max(gamma, float(np.linalg.eigvalsh(inv.conj().T @ rv @ inv)[-1]))
        return gamma

    def orthogonal(self, v, w) -> bool:
        """phi_v perp phi_w: the column spaces of V_i and W_i are orthogonal per block."""
        sv, sw = _scale(v), _scale(w)
        for cv, cw in zip(self.coords(v), self.coords(w)):
            if np.linalg.norm(cv) <= RANK_CUT * sv or np.linalg.norm(cw) <= RANK_CUT * sw:
                continue
            if np.linalg.norm(_col_projector(cv, sv) @ _col_projector(cw, sw)) > 1e-6:
                return False
        return True

    def difference_norm(self, v, w) -> float:
        return sum(float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))
                   for a, b in zip(self.densities(v), self.densities(w)))

    # ----- scenario files ----------------------------------------------------

    def scenario(self, vectors: dict, sets: dict | None = None) -> dict:
        return {
            "dimension": self.n,
            "generators": [matrix_json(g) for g in self.generators],
            "discrete_subspace": [vector_json(c) for c in self.discrete_basis.T],
            "vectors": {name: vector_json(v) for name, v in vectors.items()},
            "sets": dict(sets or {}),
        }


def vector_json(v) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=complex).ravel()]


def matrix_json(m) -> list:
    return [vector_json(row) for row in np.asarray(m, dtype=complex)]


def from_json_vector(obj) -> np.ndarray:
    return np.array([complex(re, im) for re, im in obj])


# ----- hand-worked files -------------------------------------------------------

INV = 0.7071067811865476


def hand_scenarios() -> dict:
    """The C^2 diagonal (with and without a discrete part) and M_2 files."""
    p1 = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]
    vecs = {"e1": [[1, 0], [0, 0]], "e2": [[0, 0], [1, 0]], "u": [[INV, 0], [INV, 0]]}
    return {
        "diag": {"dimension": 2, "generators": [p1], "vectors": vecs,
                 "sets": {"E1": ["e1"], "E2": ["e2"], "both": ["e1", "e2"]}},
        "diag_hd": {"dimension": 2, "generators": [p1], "vectors": vecs,
                    "discrete_subspace": [[[0, 0], [1, 0]]], "sets": {"E1": ["e1"]}},
        "m2": {"dimension": 2, "generators": [[[[0, 0], [1, 0]], [[0, 0], [0, 0]]]],
               "vectors": vecs},
    }


def write_scenarios(scenarios: dict, out_dir: str) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for name, raw in scenarios.items():
        path = os.path.join(out_dir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(raw, fh)
        paths[name] = path
    return paths


def main(argv=None) -> int:
    from cli_workload import plan_scenarios

    ap = argparse.ArgumentParser(description="write the cli workload's scenario files")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    scenarios, _ = plan_scenarios(args.seed)
    for name, path in sorted(write_scenarios(scenarios, args.out).items()):
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

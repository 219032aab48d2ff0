"""`forking` workload: the subspace calculus, closures and the independence layer.

Set-up builds planted mixed-block (k <= 3) and diagonal structures with n from
8 to 16, some with a discrete part, and forces their block decomposition.  A
round is a fixed sequence, on seeded inputs, of is_independent (each query
also asked the other way round, for symmetry), cyclic_substructure,
canonical_base, type_of + descriptor_distance, finite_base,
morley_average_check (k in 1, 4, 16, 64) and nonforking_extension.  The
functional calculus is never called.
"""
from __future__ import annotations

import numpy as np

import checks
from bench import Op
from planted import Plant

# (name, blocks (k, m), discrete flags, nonforking_extension queries per round).
# On diag16 one extension costs about 2 s (word moments of the extended
# structure), so it gets one query where the others get three.
PLANS = [
    ("mixed8", [(1, 2), (2, 1), (1, 1), (3, 1)], [False, False, True, False], 3),
    ("mixed12", [(1, 3), (2, 2), (3, 1), (1, 2)], [False, False, False, False], 3),
    ("mixed16", [(1, 2), (2, 2), (3, 2), (2, 1), (1, 2)], [False, False, False, True, False], 3),
    ("diag8", [(1, 1)] * 8, [True, True] + [False] * 6, 3),
    ("diag12", [(1, 1)] * 12, [False] * 12, 3),
    ("diag16", [(1, 1)] * 16, [False] * 16, 1),
]
SMOKE_PLANS = PLANS[:1] + PLANS[3:4]
MORLEY_K = (1, 4, 16, 64)
EPS = 1e-3


def build(seed: int, smoke: bool, mark):
    """Planted structures and one round of operations (the set-up); `mark()`
    is called after each structure."""
    import starrep as sr

    rng = np.random.default_rng([seed, 0xF0CC])
    ops = []
    for name, blocks, discrete, extensions in (SMOKE_PLANS if smoke else PLANS):
        p = Plant(blocks, discrete, rng)
        algebra = sr.generate_algebra(p.generators)
        if not checks.algebra_matches(p, algebra):
            raise RuntimeError(f"{name}: generated algebra does not match the plan")
        s = sr.Structure(algebra, sr.orthonormalize(list(p.discrete_basis.T), p.n)
                         if p.discrete_basis.shape[1] else None)
        algebra.block_decomposition()
        ops += _ops(name, p, s, rng, extensions)
        mark()
    return ops


def _ops(name, p: Plant, s, rng, extensions):
    import starrep as sr

    ess = [i for i, f in enumerate(p.discrete) if not f]
    disc = [i for i, f in enumerate(p.discrete) if f]
    # a fixed split of the blocks, so an operation's cost does not depend on the seed
    perm = ess[0::2] + ess[1::2]
    half = len(perm) // 2
    A, B = set(perm[:half]), set(perm[half:])
    v = p.random_vector(rng, set(range(len(p.blocks))))
    a = p.random_vector(rng, A)
    b = p.random_vector(rng, B)
    e = p.random_vector(rng, {perm[0]})
    d = p.random_vector(rng, set(disc)) if disc else p.random_vector(rng, B)
    ops = []

    # independence queries (tuple, base, extra), each also asked reversed
    queries = [([a], [], [b]), ([v], [], [a]), ([v], [e], [e, b]), ([b, d], [e], [a])]
    for qi, (tup, base, extra) in enumerate(queries):
        truth = checks.lazy(lambda tup=tup, base=base, extra=extra:
                            checks.independence(p, tup, base, extra))
        ops.append(Op(f"{name}.is_independent.{qi}",
                      lambda tup=tup, base=base, extra=extra:
                      sr.is_independent(s, tup, base, extra),
                      lambda rep, truth=truth: checks.independence_report(rep, truth())))
        rev = checks.lazy(lambda tup=tup, base=base, extra=extra:
                          checks.independence(p, extra, base, tup))
        ops.append(Op(f"{name}.is_independent.{qi}.reversed",
                      lambda tup=tup, base=base, extra=extra:
                      sr.is_independent(s, extra, base, tup),
                      lambda rep, truth=truth, rev=rev:
                      checks.independence_report(rep, rev()) and rev()[0] == truth()[0]))

    want_sub = checks.lazy(lambda: (p.closure_dim([v]), checks.discrete_part_dim(p, v)))
    ops.append(Op(f"{name}.cyclic_substructure", lambda: sr.cyclic_substructure(s, v),
                  lambda sub: (sub.dim, sub.discrete.dim) == want_sub()))

    for ci, base in enumerate(([e], [a, b])):
        want = checks.lazy(lambda base=base: p.project(v, base))
        ops.append(Op(f"{name}.canonical_base.{ci}",
                      lambda base=base: sr.canonical_base(s, v, base),
                      lambda out, want=want: checks.close(out, want())))

    # equal types: a commutant unitary that fixes e's block; unequal: a perturbation
    u = p.commuting_unitary(rng, fixed={perm[0]})
    twin = u @ v
    moved = v + 0.3 * b
    moved = moved / np.linalg.norm(moved)
    for ti, (w, equal) in enumerate(((twin, True), (moved, False))):
        ops.append(Op(f"{name}.type_distance.{ti}",
                      lambda w=w: sr.descriptor_distance(sr.type_of(s, v, [e]),
                                                        sr.type_of(s, w, [e])),
                      lambda dist, equal=equal: (dist <= s.tol.eq_abs) if equal
                      else dist > 1e-6))

    pool_blocks = [perm[i] for i in range(min(len(perm), 6))]
    pool = [p.random_vector(rng, {j}) for j in pool_blocks]
    want_fb = checks.lazy(lambda: checks.finite_base_truth(p, v, pool, EPS))
    ops.append(Op(f"{name}.finite_base",
                  lambda: sr.finite_base(s, v, pool, EPS),
                  lambda fb: checks.finite_base(p, v, pool, fb, want_fb(), EPS)))

    for k in MORLEY_K:
        want_m = checks.lazy(lambda: np.linalg.norm(v - p.project(v, [e], True)))
        ops.append(Op(f"{name}.morley_average_check.k{k}",
                      lambda k=k: sr.morley_average_check(s, v, [e], k),
                      lambda mc, k=k, want_m=want_m: checks.morley(mc, want_m(), k)))

    ext_queries = ((v, [e], [e, b]), (a, [], [b]), (v, [], [a]))[:extensions]
    for xi, (x, base, ext) in enumerate(ext_queries):
        ops.append(Op(f"{name}.nonforking_extension.{xi}",
                      lambda x=x, base=base, ext=ext: sr.nonforking_extension(s, x, base, ext),
                      lambda out, x=x, base=base, ext=ext:
                      checks.extension(p, s, x, base, ext, out)))
    return ops

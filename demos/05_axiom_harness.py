#!/usr/bin/env python3
# Randomized verification at desk scale: structures with planted block
# anatomy, the freeness axioms, and the functional-calculus equivalences.

from starrep import InstanceSpec, random_structure, run_freeness_suite, run_functional_suite
from starrep.serialize import dumps_canonical

# a 6-dimensional instance: one scalar block, one full 2x2 block, and a
# discrete block of multiplicity 3
spec = InstanceSpec(
    dim=6,
    blocks=((1, 1), (2, 1), (1, 3)),
    discrete_flags=(False, False, True),
    generators=2,
    seed=42,
)

s = random_structure(spec)
print("instance:", s)
print("algebra dimension", s.algebra.size, "= sum of k_i^2 =", spec.algebra_size())

free = run_freeness_suite(spec, trials=20)
print("\nfreeness axioms over 20 seeded trials:")
for name, stats in sorted(free.properties.items()):
    print(f"  {name:24s} {stats.passes}/{stats.trials}  max defect {stats.max_defect:.2e}")
print("failures:", free.failures)

func = run_functional_suite(spec, trials=20)
print("\nfunctional calculus over 20 seeded trials:")
for name, stats in sorted(func.properties.items()):
    print(f"  {name:24s} {stats.passes}/{stats.trials}  max defect {stats.max_defect:.2e}")
print("failures:", func.failures)

# reports serialize canonically, so identical runs are byte-identical
again = run_freeness_suite(spec, trials=20)
print("\nreports are reproducible:",
      dumps_canonical(free.to_json()) == dumps_canonical(again.to_json()))

"""starrep: finite-dimensional C*-algebra representations and their model theory.

Subspace calculus, matrix *-algebras with Wedderburn block structure, cyclic
subspaces and closures, the forking independence calculus with non-forking
extensions and canonical bases, positive linear functionals with GNS
representations, and a randomized verification harness.

`import starrep` loads numpy and the core layers every structure needs:
`linalg`, `algebra` and `representation`.  The leaf layers `independence`,
`functionals` and `harness` (and `serialize`) are imported on first use of
one of their names, such as `starrep.gns` or `from starrep import gns`, or of
the submodule itself; `from starrep import *` loads them all.
"""

import importlib

from .linalg import (
    DEFAULT_TOL,
    Subspace,
    ToleranceBreach,
    Tolerances,
    full_subspace,
    haar_unitary,
    orthonormalize,
    project,
    psd_sqrt,
    subspace_intersection,
    subspace_sum,
    zero_subspace,
)
from .algebra import (
    BlockDecomposition,
    DecompositionError,
    StarAlgebra,
    commutant,
    conditional_expectation,
    double_commutant_check,
    generate_algebra,
    wedderburn_decompose,
)
from .representation import (
    Structure,
    acl,
    closures,
    cyclic_subspace,
    cyclic_substructure,
    direct_sum,
    essential_discrete_parts,
)

# Leaf modules, loaded on first attribute access (PEP 562), so that a process
# which never touches one never imports or compiles it.  `serialize` has no
# names here; it stays reachable as `starrep.serialize`.
_LEAVES = {
    "independence": (
        "FiniteBase", "IndependenceReport", "MorleyCheck", "TypeDescriptor",
        "canonical_base", "descriptor_distance", "descriptors_close", "finite_base",
        "is_independent", "morley_average_check", "nonforking_extension", "type_of",
    ),
    "functionals": (
        "GnsRep", "OrthogonalityWitness", "PositiveFunctional", "RadonNikodym",
        "difference_norm", "embeds_as_subrepresentation", "functional_norm", "gns",
        "gns_intertwiner", "is_dominated", "is_orthogonal", "orthogonality_witness",
        "radon_nikodym_operator", "types_dominated", "types_orthogonal", "vector_state",
    ),
    "harness": (
        "InstanceSpec", "SuiteReport", "random_structure", "run_freeness_suite",
        "run_functional_suite",
    ),
    "serialize": (),
}
# name -> the submodule that defines it; each submodule maps to itself
_LAZY = {name: module for module, names in _LEAVES.items() for name in (module, *names)}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


# every public name: the core ones imported above, then the leaves'
__all__ = [name for name, value in globals().items()
           if getattr(value, "__module__", "").startswith(f"{__name__}.")]
__all__ += [name for names in _LEAVES.values() for name in names]

__version__ = "0.1.0"

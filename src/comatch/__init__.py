"""Exact Helly-type invariants of finite set systems and simplicial complexes.

The library computes, with certificates and exhaustive-search exactness
flags: comatching numbers and their common-point refinement, Helly and
colorful Helly numbers, the constructive transversal dichotomy, nerve
complexes and their homology over exact rational arithmetic,
d-collapsibility, and Leray numbers.  Generators reproduce the named
example families (cyclic sharpness systems, Hamming balls, the
four-circle configuration, polynomial comatchings, the torus grid and
its joins).
"""

from .core import (
    Comatching,
    ComatchingWithIntersection,
    InputError,
    SearchBudget,
    SetSystem,
    SubfamilySelection,
    Verdict,
    intersect_subfamily,
    verify_comatching,
    verify_comatching_with_intersection,
)
from .search import (
    ColorfulInstance,
    DichotomyOutcome,
    FractionalHellyProfile,
    colorful_helly_number,
    colorful_transversal_dichotomy,
    comatching_number,
    comatching_with_intersection_number,
    fractional_helly_profile,
    helly_number,
    instance_admits_empty_transversal,
    minimal_empty_subfamilies,
)
from .simplicial import (
    ComplexComatching,
    SimplicialComplex,
    complex_comatching_number,
    complex_to_set_system,
    faces_of_dim,
    induced_subcomplex,
    join,
    nerve,
    verify_complex_comatching,
)
from .topology import (
    CollapseSequence,
    HomologyProfile,
    KunnethVerdict,
    LerayVerdict,
    is_d_collapsible,
    join_profile_from_factors,
    kunneth_betti_check,
    leray_check,
    leray_number,
    reduced_betti,
    replay_collapse_sequence,
)
from .constructions import (
    GeometricCircleConfig,
    PolynomialComatching,
    gen_circle_config,
    gen_cycle_sharpness,
    gen_good_join_complex,
    gen_hamming_system,
    gen_poly_comatching,
    gen_torus_grid_complex,
    verify_poly_comatching,
)

__version__ = "0.1.0"

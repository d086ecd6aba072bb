"""Relation-set polyhedra: combinatorics, face dimensions, and module action."""

from .relations import (
    RelationSet,
    adjoining_pairs,
    check_admissible,
    connected_components,
    is_reduced,
    is_top_connected,
    reaches,
    standard_set,
    structural_noncritical,
    support,
    vertices,
)
from .patterns import (
    Entry,
    Pattern,
    constant_pattern,
    is_c_pattern,
    is_realization,
    noncritical_at,
    row_sum,
    satisfies,
    weight,
    weight_vector,
)
from .tiling import (
    Inapplicable,
    Tiling,
    TilingMatrix,
    build_perturbation_basis,
    compute_tiling,
    kernel,
    lambda_free,
    min_face_dims,
    min_face_dims_plus,
    tiling_matrix,
)
from .polyhedra import (
    ConstraintSystem,
    assemble,
    count_integral,
    count_integral_weight,
    enumerate_integral,
    enumerate_integral_weight,
    face_dim_oracle,
    first_points,
    is_polytope,
    system_at,
)
from .modaction import (
    LinComb,
    act_cartan,
    act_in_basis,
    act_lower,
    act_raise,
    check_commutators,
    weyl_dim,
)

__all__ = [name for name in dir() if not name.startswith("_")]

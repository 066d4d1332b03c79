"""Desk-scale numerics for topologies on selfadjoint operators.

Finite symmetric matrices stand in for unbounded selfadjoint operators; the
package computes the bounded-transform (Riesz) and resolvent (gap) distances,
realizes graphs as Lagrangian subspaces of the doubled space, discretizes a
one-parameter family of first-order boundary value problems on the interval,
and ships a command-line runner reproducing the checkable claims as tables.
"""

from .errors import FredlabError
from .gallery import (
    FugledeSpec,
    PerturbationSchedule,
    fuglede_expected,
    fuglede_operator,
    perturbation_family,
    random_selfadjoint,
)
from .lagrangian import (
    LagrangianPair,
    SymplecticDoubling,
    fredholm_pair_index,
    graph_subspace,
    is_lagrangian,
    kato_consistency,
    suspension,
)
from .linalg import (
    SpectralDecomposition,
    Subspace,
    Tolerances,
    apply_scalar_function,
    operator_norm,
    projection_from_basis,
    subspace_meet_dims,
    sym_eig,
    symmetric_norm,
)
from .topology import (
    ComponentLabel,
    MetricReport,
    ScalarFunction,
    SelfAdjointOperator,
    TailDescriptor,
    classify_component,
    gap_metric,
    generator_distance_profile,
    relative_bound_surrogate,
    resolvents_at_i,
    riesz_inverse,
    riesz_map,
    riesz_metric,
    subspace_gap,
)

__all__ = [
    "FredlabError",
    "FugledeSpec",
    "PerturbationSchedule",
    "fuglede_expected",
    "fuglede_operator",
    "perturbation_family",
    "random_selfadjoint",
    "LagrangianPair",
    "SymplecticDoubling",
    "fredholm_pair_index",
    "graph_subspace",
    "is_lagrangian",
    "kato_consistency",
    "suspension",
    "SpectralDecomposition",
    "Subspace",
    "Tolerances",
    "apply_scalar_function",
    "operator_norm",
    "projection_from_basis",
    "subspace_meet_dims",
    "sym_eig",
    "symmetric_norm",
    "ComponentLabel",
    "MetricReport",
    "ScalarFunction",
    "SelfAdjointOperator",
    "TailDescriptor",
    "classify_component",
    "gap_metric",
    "generator_distance_profile",
    "relative_bound_surrogate",
    "resolvents_at_i",
    "riesz_inverse",
    "riesz_map",
    "riesz_metric",
    "subspace_gap",
]

__version__ = "0.1.0"

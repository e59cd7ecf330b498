"""Exact minimization of submodular functions under congruency constraints.

The package solves min f(S) over a ring family subject to |S| (or the
sizes of its intersections with fixed sets) hitting prescribed residues,
via bounded enumeration of pinned minimal minimizers.  It also ships the
supporting laboratory: set-system checkers, cardinality transforms, an
exhaustive reference oracle, constrained minimum cuts, and a search for
small obstruction systems.
"""

from .constraints import (
    CongruencyConstraint,
    Constraint,
    GeneralizedConstraint,
    MembershipOracle,
    TCutConstraint,
    TCutReduction,
    default_depth,
    guarantees_exactness,
    is_prime_power,
    tcut_reduce,
)
from .cuts import CutMode, CutProblem, TSetEven, TSetOdd, load_graph, solve_cut
from .enumeration import EnumSolution, candidate_pairs, enum_solve, pair_count
from .errors import (
    CcsmError,
    InputError,
    InternalInconsistencyError,
    UnsupportedSizeError,
)
from .families import (
    FAMILY_NAMES,
    random_closed_covering_system,
    random_generalized_instance,
    random_instance,
    random_oracle,
    random_ring,
    tight_depth_instance,
)
from .ground import GroundSet
from .instances import Instance, instance_from_dict, instance_to_dict, load_instance
from .lattice import RingFamily
from .oracles import (
    Coverage,
    CutDirected,
    CutUndirected,
    ExplicitTable,
    Modular,
    SubmodularOracle,
    SubmodularityReport,
    check_submodular,
)
from .reference import OracleResult, exhaustive_solve
from .systems import (
    SetSystem,
    SystemVerdict,
    atoms,
    check_md_system,
    check_mkd_system,
    construct_mm2_system,
    frankl_wilson_check,
    inclusion_exclusion_check,
    search_md_system,
)
from .transforms import (
    Binomial,
    BinomReport,
    Constant,
    GeneralizedProduct,
    Power,
    PrimePower,
    SetTransform,
    Sum,
    TransformKind,
    TransformReport,
    apply_transform,
    binom_mod_check,
    g_value,
    level,
    transform_system,
    verify_transform,
)

__version__ = "0.1.0"

__all__ = [
    "Binomial",
    "BinomReport",
    "CcsmError",
    "CongruencyConstraint",
    "Constant",
    "Constraint",
    "Coverage",
    "CutDirected",
    "CutMode",
    "CutProblem",
    "CutUndirected",
    "EnumSolution",
    "FAMILY_NAMES",
    "ExplicitTable",
    "GeneralizedConstraint",
    "GeneralizedProduct",
    "GroundSet",
    "InputError",
    "Instance",
    "InternalInconsistencyError",
    "MembershipOracle",
    "Modular",
    "OracleResult",
    "Power",
    "PrimePower",
    "RingFamily",
    "SetSystem",
    "SetTransform",
    "SubmodularOracle",
    "SubmodularityReport",
    "Sum",
    "SystemVerdict",
    "TCutConstraint",
    "TCutReduction",
    "TSetEven",
    "TSetOdd",
    "TransformKind",
    "TransformReport",
    "UnsupportedSizeError",
    "apply_transform",
    "atoms",
    "binom_mod_check",
    "candidate_pairs",
    "check_md_system",
    "check_mkd_system",
    "check_submodular",
    "construct_mm2_system",
    "default_depth",
    "enum_solve",
    "exhaustive_solve",
    "frankl_wilson_check",
    "g_value",
    "guarantees_exactness",
    "inclusion_exclusion_check",
    "instance_from_dict",
    "instance_to_dict",
    "is_prime_power",
    "level",
    "load_graph",
    "load_instance",
    "pair_count",
    "random_closed_covering_system",
    "random_generalized_instance",
    "random_instance",
    "random_oracle",
    "random_ring",
    "search_md_system",
    "solve_cut",
    "tcut_reduce",
    "tight_depth_instance",
    "transform_system",
    "verify_transform",
]

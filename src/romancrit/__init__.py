"""Exact Roman domination engine with a criticality verification harness."""

from .errors import (
    EdgeExists,
    IndexOutOfRange,
    InvalidOrder,
    LengthMismatch,
    MalformedGraph6,
    NoSuchEdge,
    NotVCritical,
    PreconditionViolated,
    RomanCritError,
    SelfLoop,
    TooLarge,
    UnknownClaim,
)
from .graphs import FAMILY_TAGS, Graph, gen_family, graph_new, relabel
from .graph6 import emit_graph6, parse_graph6, read_graph6_lines
from .iso import ISO_MAX_ORDER, is_isomorphic
from .solver import (
    GammaResult,
    ORACLE_MAX_ORDER,
    PARTITIONS_MAX_ORDER,
    RomanAssignment,
    gamma_at_most,
    gamma_r,
    is_roman,
    minimal_partitions,
    roman_number,
    roman_number_oracle,
)
from .criticality import (
    DegreeClasses,
    Facts,
    degree_classes,
    e_critical_condition,
    edge_removal_preserves_gamma,
    first_gamma_changing_edge,
    first_non_critical_vertex,
    first_non_ecritical_edge,
    first_unsaturated_nonedge,
    is_e_critical,
    is_nonelementary,
    is_roman_saturated,
    is_v_critical,
    nonelementary_by_components,
    saturated_by_partitions,
    v_critical_by_partitions,
)
from .gamma4 import (
    CRITICAL_BUT_UNCLASSIFIED,
    ELEMENTARY_G1,
    ELEMENTARY_G2,
    ELEMENTARY_G3,
    IS_C5,
    IS_DN,
    NOT_CRITICAL,
    Classification,
    classify_critical4,
    cut_vertex_structure,
    ecrit4_by_degrees,
    high_class_bounds,
    local8_conditions,
    local8_fast,
    neighborhood_witness,
    saturated4_by_degrees,
    vcrit4_by_degrees,
    witness_chase_ok,
    witness_pairs,
)
from .harness import (
    CLAIMS,
    Claim,
    Counterexample,
    CriticalityReport,
    ENUMERATION_MAX_ORDER,
    VerificationReport,
    claim_catalog,
    criticality_report,
    iter_labeled_graphs,
    verify_claim,
    verify_claims,
)

__version__ = "0.1.0"

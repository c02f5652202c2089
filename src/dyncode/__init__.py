"""
Analysis toolkit for measurement-defined (dynamical) stabilizer codes.

The package classifies the syndromes of an initial stabilizer group
under a schedule of Pauli measurements (unmasked, temporarily masked,
permanently masked), reconstructs syndrome formulas and destabilizers,
computes the associated distance notions, analyzes periodic (Floquet)
schedules, and simulates spacetime Pauli errors.
"""

from .classify import (
    ClassificationReport,
    DistanceResult,
    GaugeGroup,
    UnmaskedStabilizer,
    build_gauge_group,
    isg_distance,
    run_classification,
    subsystem_distance,
    unmasked_distance,
)
from .engine import (
    CapExceededError,
    DynamicalCode,
    InternalInvariantError,
    ISGState,
    OutcomeExpr,
    OutcomeSymbol,
    ValidationError,
    canonical_logicals,
    measure,
    simulate_measurements,
    validate_code,
)
from .errors import (
    DecodingVerdict,
    LogicalTrace,
    SpacetimeError,
    build_logical_trace,
    logical_outcome,
    syndrome_of_spacetime_error,
    verify_round0_decoding,
)
from .floquet import (
    CycleTrace,
    build_1d_chain,
    build_worst_case_sequence,
    check_subset_monotonicity,
    growth_accounting,
    initialization_depth,
    iterate_cycles,
    unmask_cycle_count,
)
from .library import (
    CodeSpec,
    bacon_shor,
    honeycomb,
    honeycomb_cycle,
    honeycomb_plaquettes,
    library_fixtures,
    load_code,
    save_code,
    shor_code,
)
from .pauli import (
    PauliOperator,
    format_pauli,
    identity,
    parse_pauli,
    product,
    symplectic_product,
    weight,
)

__all__ = [name for name in dir() if not name.startswith("_")]

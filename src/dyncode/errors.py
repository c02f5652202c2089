"""
Spacetime Pauli errors: syndromes, logical outcomes, and decodability.

The timing convention throughout: the error e_i acts after round i's
measurements and before round i+1's (e_0 acts before any measurement).
Syndromes and logical values are computed from closed-form products over
the error history, so they can be cross-checked against the fully
symbolic forward simulation in the measurement engine.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field

from .classify import GaugeGroup, subsystem_distance
from .engine import DynamicalCode, Evolution, ISGState, ValidationError, require_size
from .gf2 import Combination, bits
from .pauli import (
    PauliOperator,
    decode,
    encode,
    identity,
    product,
    symplectic_partner,
    symplectic_product,
)


@dataclass(frozen=True)
class SpacetimeError:
    """Pauli errors indexed by the round after which each one acts."""

    n: int
    by_round: tuple[tuple[int, PauliOperator], ...]

    @staticmethod
    def make(n: int, errors: dict[int, PauliOperator]) -> "SpacetimeError":
        for r, op in errors.items():
            if r < 0:
                raise ValidationError([{"kind": "negative-round", "round": r}])
            require_size(n, [op], f"error after round {r}")
        return SpacetimeError(n, tuple(sorted(errors.items())))

    def net_after(self, round_index: int) -> PauliOperator:
        """Product of all errors acting after round ``round_index``'s
        measurements, i.e. e_j for j >= round_index."""
        acc = identity(self.n)
        for r, op in self.by_round:
            if r >= round_index:
                acc = product(acc, op)
        return acc


def syndrome_of_spacetime_error(
    error: SpacetimeError,
    decomposition: dict[int, PauliOperator],
    stabilizer: PauliOperator,
) -> int:
    """Parity flipped onto a reconstructed syndrome by a spacetime error.

    ``decomposition`` maps round index i to the operator m_i whose round-i
    measurement outcomes enter the syndrome product for ``stabilizer``;
    the product of all m_i must equal the stabilizer.  The flip is
    a = sum_j e_j (.) prod_{i > j} m_i, since an error after round j only
    disturbs the constituents measured later.

    Raises:
        ValidationError: if the decomposition does not multiply to the
            stabilizer.
    """
    vecs = {i: encode(m) for i, m in decomposition.items()}
    if functools.reduce(operator.xor, vecs.values(), 0) != encode(stabilizer):
        raise ValidationError(
            [{"kind": "decomposition-mismatch", "stabilizer": str(stabilizer)}]
        )
    a = 0
    for j, e in error.by_round:
        tail = functools.reduce(operator.xor, (v for i, v in vecs.items() if i > j), 0)
        a ^= (encode(e) & symplectic_partner(tail, stabilizer.n)).bit_count() & 1
    return a


@dataclass
class LogicalTrace:
    """Decomposition of a tracked logical's final representative.

    The final operator factors as l0 * s0_part * prod(round factors),
    where the s0 part is a combination over the code's initial
    generators and each round factor collects the measurement operators
    multiplied into the logical during that round (with the occurrence
    indices whose outcomes enter the value).
    """

    code: DynamicalCode
    l0: PauliOperator
    l_final: PauliOperator
    s0_combination: Combination
    round_factors: dict[int, tuple[PauliOperator, tuple[int, ...]]] = field(
        default_factory=dict
    )


def traced_simulation(
    code: DynamicalCode, logicals: list[PauliOperator],
    errors: dict[int, PauliOperator] | None = None,
) -> tuple[Evolution, list, list[LogicalTrace | None]]:
    """One symbolic pass over the schedule that gives both the outcomes
    and the logical traces.

    The pass is :func:`~dyncode.engine.simulate_measurements` with
    ``errors`` placed and ``logicals`` tracked in slots 0, 1, ...; each
    row also carries its trace provenance above its outcome, where errors
    never reach (:meth:`Evolution.trace`): the combination over the
    initial generators and the measurement occurrences whose outcomes
    reproduce the logical's value in the error-free case.  A measurement
    joining the group reads out each logical that anticommutes with it or
    equals it, one logical at a time, so each trace equals the one traced
    alone.

    Returns:
        The evolution after the schedule, the record of
        ``simulate_measurements``, and one :class:`LogicalTrace` per
        logical (None for a logical that a measurement reads out).

    Raises:
        ValidationError: if a logical has the wrong size, does not
            commute with s0 or lies in its span.
    """
    n, k = code.n, len(code.s0)
    measurements = list(code.measurements())
    evolution = Evolution(
        ISGState.initial(code, track_logicals=True, logicals=logicals), code.encoded_s0,
        trace_at=k + 1 + len(logicals) + len(measurements),  # above every outcome bit
    )
    tab = evolution.tableau
    for op in logicals:
        anti, logical_anti, _, _ = tab.masks(bits(encode(op)))
        if anti or not logical_anti:
            raise ValidationError([{"kind": "not-a-logical", "operator": str(op)}])
    record = evolution.run(code, len(code.rounds), errors or {})
    traces = []
    for slot, op in enumerate(logicals):
        traced = evolution.trace(slot)
        if traced is None:
            traces.append(None)
            continue
        row, expr = traced
        factors: dict[int, tuple[PauliOperator, tuple[int, ...]]] = {}
        for occ in bits(expr.random):
            r, m = measurements[occ]
            f_op, occs = factors.get(r, (identity(n), ()))
            factors[r] = (product(f_op, m), occs + (occ,))
        traces.append(
            LogicalTrace(code, op, decode(row, n), Combination(expr.initial, k), factors))
    return evolution, record, traces


def build_logical_trace(
    code: DynamicalCode, logicals: list[PauliOperator]
) -> list[LogicalTrace | None]:
    """Track logical representatives through the schedule, with
    provenance: the traces of :func:`traced_simulation` without errors."""
    return traced_simulation(code, logicals)[2]


def logical_outcome(
    trace: LogicalTrace,
    error: SpacetimeError,
    l0_value: int,
    initial_values: dict[int, int],
    measurement_values: dict[int, int],
) -> int:
    """Value of the final logical representative under a spacetime error.

    Each factor of the final representative contributes its known value
    times a sign counting the anticommuting errors that occurred after it
    was measured:

        O(L) = O(l0) (-1)^{l0 (.) E_0}
             * O(s0 part) (-1)^{s0 (.) E_0}
             * prod_r [ O(m_r) (-1)^{m_r (.) E_r} ]

    where E_r is the net error from round r onward and O(m_r) is the
    product of the recorded round-r measurement outcomes.

    Args:
        l0_value: +/-1 value of the initial logical.
        initial_values: +/-1 per initial-generator index.
        measurement_values: observed +/-1 outcome per occurrence index.
    """
    e0 = error.net_after(0)
    value = l0_value
    if symplectic_product(trace.l0, e0):
        value = -value
    s0_part = identity(trace.code.n)
    for i in trace.s0_combination.indices():
        value *= initial_values[i]
        s0_part = product(s0_part, trace.code.s0[i])
    if symplectic_product(s0_part, e0):
        value = -value
    for r, (m_op, occurrences) in trace.round_factors.items():
        for occ in occurrences:
            value *= measurement_values[occ]
        if symplectic_product(m_op, error.net_after(r)):
            value = -value
    return value


@dataclass(frozen=True)
class DecodingVerdict:
    """Result of the round-0 pairwise distinguishability check;
    ``errors_checked`` counts the candidates its search tested."""

    ok: bool
    max_weight: int
    errors_checked: int
    violation: tuple[PauliOperator, PauliOperator] | None = None


def verify_round0_decoding(gauge: GaugeGroup, max_weight: int) -> DecodingVerdict:
    """Check that round-0 errors up to a weight are decodable.

    Two errors sharing every unmasked-stabilizer syndrome must differ by
    an element of the gauge group; otherwise they corrupt the code
    indistinguishably.  This standard correctability condition fails
    exactly when an operator f of weight <= 2*max_weight commutes with
    every unmasked stabilizer and lies outside the gauge group: the
    product of two such errors is one, and each one splits into two.  So
    the check is :func:`subsystem_distance` (the gauge group's center is
    the unmasked group) capped at 2*max_weight.  Its witness f gives the
    violating pair: f's letters on its lowest ceil(wt(f)/2) support
    qubits, and the rest.
    """
    if max_weight < 0:
        raise ValidationError([{"kind": "max-weight-out-of-range", "max_weight": max_weight}])
    result = subsystem_distance(gauge, 2 * max_weight)
    f = result.witness
    if f is None:
        return DecodingVerdict(True, max_weight, result.candidates)
    low = sum(1 << q for q in bits(f.x_mask | f.z_mask)[: (result.value + 1) // 2])
    first = PauliOperator(gauge.n, f.x_mask & low, f.z_mask & low)
    return DecodingVerdict(False, max_weight, result.candidates, (first, product(f, first)))

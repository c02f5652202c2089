"""
Spacetime Pauli errors: syndromes, logical outcomes, and decodability.

The timing convention throughout: the error e_i acts after round i's
measurements and before round i+1's (e_0 acts before any measurement).
Syndromes and logical values are computed from closed-form products over
the error history, so they can be cross-checked against the fully
symbolic forward simulation in the measurement engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .classify import ClassificationReport, GaugeGroup, _min_weight_outside
from .engine import (
    INITIAL_STABILIZER,
    RANDOM_BIT,
    DynamicalCode,
    OutcomeExpr,
    ValidationError,
    symbol_expr,
)
from .gf2 import Combination, bits
from .pauli import (
    PauliOperator,
    decode,
    encode,
    identity,
    product,
    symplectic_product,
)
from .tableau import Tableau, encoding


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
            if op.n != n:
                raise ValidationError(
                    [{"kind": "size-mismatch", "round": r, "got": op.n}]
                )
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
    acc = identity(stabilizer.n)
    for op in decomposition.values():
        acc = product(acc, op)
    if acc != stabilizer:
        raise ValidationError(
            [{"kind": "decomposition-mismatch", "stabilizer": str(stabilizer)}]
        )
    a = 0
    for j, e in error.by_round:
        tail = identity(stabilizer.n)
        for i, m in decomposition.items():
            if i > j:
                tail = product(tail, m)
        a ^= symplectic_product(e, tail)
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


def build_logical_trace(
    code: DynamicalCode, logicals: list[PauliOperator]
) -> list[LogicalTrace | None]:
    """Track logical representatives through the schedule, with provenance.

    The ISG generators are the stabilizer rows of a :class:`Tableau`,
    whose provenance is their combination over the initial generators
    and one random-bit symbol per measurement occurrence they were built
    from, packed in one int; each logical is a tracked row of the same
    tableau.
    Whenever a measurement anticommutes with a generator, the pivot
    generator is multiplied into every anticommuting logical, folding in
    its provenance.  The occurrence set records whose measured outcomes
    reproduce the logical's value in the error-free case.  A measurement
    joining the group reads out each logical that anticommutes with it
    or equals it.  The generators evolve the same way whichever logicals
    ride along, and the read-out rule looks at one logical at a time, so
    each trace equals the one traced alone.

    Returns:
        One :class:`LogicalTrace` per logical, or None for a logical that
        a measurement reads out.

    Raises:
        ValidationError: if a logical is not a logical of s0 (it must
            commute with every initial generator and lie outside their
            span).
    """
    n, k = code.n, len(code.s0)
    # Provenance is an outcome expression packed at width k: initial symbol
    # i marks generator i in the combination, random bit t occurrence t.
    tab = Tableau(n)
    tracked = tab.tracked
    for i, (vec, vec_bits, partner_bits) in enumerate(code.encoded_s0):
        prov = symbol_expr(INITIAL_STABILIZER, i).pack(k)
        tab.append(vec, partner_bits, tab.masks(vec_bits), prov)
    for op in logicals:
        vec, vec_bits, partner_bits = encoding(encode(op), n)
        anti, logical_anti, _, _ = tab.masks(vec_bits)
        if anti or not logical_anti:
            raise ValidationError([{"kind": "not-a-logical", "operator": str(op)}])
        tracked.append(vec, 0, partner_bits)

    first_random = symbol_expr(RANDOM_BIT, 0).pack(k)  # random bits pack in order
    measured: list[tuple[int, PauliOperator]] = []  # (round, operator) per occurrence
    for round_index, (rnd, encoded) in enumerate(
        zip(code.rounds, code.encoded_rounds), start=1
    ):
        for m, (vec, vec_bits, partner_bits) in zip(rnd, encoded):
            rank = len(tab)
            slot, _ = tab.measure(vec, vec_bits, partner_bits)
            if slot is not None:
                tab.stab.prov[slot] = first_random << len(measured)
            if len(tab) > rank:
                # The measure step freed the anticommuting logicals.
                for s in tracked.slots():
                    if tracked.rows[s] == vec:
                        tracked.free(s)
            measured.append((round_index, m))

    traces = []
    for slot, op in enumerate(logicals):
        if tracked.rows[slot] is None:
            traces.append(None)
            continue
        expr = OutcomeExpr.unpack(tracked.prov[slot], k)
        factors: dict[int, tuple[PauliOperator, tuple[int, ...]]] = {}
        for occ in bits(expr.random):
            r, m = measured[occ]
            f_op, occs = factors.get(r, (identity(n), ()))
            factors[r] = (product(f_op, m), occs + (occ,))
        traces.append(LogicalTrace(
            code, op, decode(tracked.rows[slot], n),
            Combination(expr.initial, k), factors,
        ))
    return traces


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


def verify_round0_decoding(
    code: DynamicalCode,
    report: ClassificationReport,
    gauge: GaugeGroup,
    max_weight: int,
) -> DecodingVerdict:
    """Check that round-0 errors up to a weight are decodable.

    Two errors sharing every unmasked-stabilizer syndrome must differ by
    an element of the gauge group; otherwise they corrupt the code
    indistinguishably.  This standard correctability condition fails
    exactly when an operator f of weight <= 2*max_weight commutes with
    every unmasked stabilizer and lies outside the gauge group: the
    product of two such errors is one, and each one splits into two.  So
    the check is the distance search of :func:`unmasked_distance` under
    the canonical policy, capped at 2*max_weight.  Its witness f gives
    the violating pair: f's letters on its lowest ceil(wt(f)/2) support
    qubits, and the rest.
    """
    if max_weight < 0:
        raise ValidationError([{"kind": "max-weight-out-of-range", "max_weight": max_weight}])
    result = _min_weight_outside(
        code.n,
        [encode(u.op) for u in report.U],
        [encode(g) for g in gauge.generators],
        2 * max_weight,
    )
    f = result.witness
    if f is None:
        return DecodingVerdict(True, max_weight, result.candidates)
    low = sum(1 << q for q in bits(f.x_mask | f.z_mask)[: (result.value + 1) // 2])
    first = PauliOperator(code.n, f.x_mask & low, f.z_mask & low)
    return DecodingVerdict(False, max_weight, result.candidates, (first, product(f, first)))

"""
Brute-force reference implementations and random instance generators.

Everything here recomputes results by direct enumeration over small
groups, so the main suite can compare them with the package internals.
The references share no stabilizer update or search code with the
package; they use only its data types and ``gf2`` spans.
:func:`reference_measure` and :func:`reference_forward` are the
stabilizer update and the classification's forward pass written as scans
over generator lists with a fresh span per membership test, the way the
package computed them before its stabilizer tableau; :func:`forward_oracle`
reads its outcome expressions from :func:`reference_measure`.
:func:`reference_min_weight_outside` is the distance search as it was
before the syndrome table: the same result type, but a parity test of
every candidate against every row.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from dyncode import DynamicalCode, OutcomeExpr, PauliOperator
from dyncode.engine import (
    INITIAL_STABILIZER,
    ONE,
    RANDOM_BIT,
    CapExceededError,
    InternalInvariantError,
    ISGState,
    OutcomeSymbol,
    ValidationError,
    resolve_window,
    symbol_expr,
)
from dyncode.classify import DistanceResult, RemovalEvent, TrackedPauli
from dyncode.gf2 import BitMatrix, Combination, Echelon, in_span, kernel_under_form
from dyncode.pauli import (
    decode,
    encode,
    identity,
    paulis_up_to_weight,
    product,
    symplectic_partner,
    symplectic_product,
    weight,
)


def all_paulis(n: int):
    """Every phaseless Pauli on n qubits, identity first."""
    for x_mask in range(1 << n):
        for z_mask in range(1 << n):
            yield PauliOperator(n, x_mask, z_mask)


def group_elements(generators: list[PauliOperator], n: int) -> set[PauliOperator]:
    """All elements of the generated group, by direct expansion."""
    elements = {identity(n)}
    for g in generators:
        elements |= {product(e, g) for e in elements}
    return elements


def spans_equal(a: list[PauliOperator], b: list[PauliOperator], n: int) -> bool:
    return group_elements(a, n) == group_elements(b, n)


def combination_op(code: DynamicalCode, mask: int) -> PauliOperator:
    op = identity(code.n)
    for i in range(len(code.s0)):
        if (mask >> i) & 1:
            op = product(op, code.s0[i])
    return op


def brute_force_min_weight(
    n: int,
    commute_with: list[PauliOperator],
    exclude: list[PauliOperator],
) -> int | None:
    """Minimum weight over operators commuting with all of ``commute_with``
    but outside the group generated by ``exclude``; None if empty."""
    excluded = group_elements(exclude, n)
    best = None
    for op in all_paulis(n):
        if op in excluded:
            continue
        if any(symplectic_product(op, c) for c in commute_with):
            continue
        w = weight(op)
        if best is None or w < best:
            best = w
    return best


def reference_min_weight_outside(
    n: int, commute_rows: list[int], exclude_rows: list[int], cap: int
) -> DistanceResult:
    """``classify._min_weight_outside`` by a parity test per candidate:
    every operator up to ``cap``, lightest first, is tested against every
    constraint row, and the first commuting one outside the excluded span
    is the witness."""
    if cap < 0:
        raise ValidationError([{"kind": "cap-out-of-range", "cap": cap}])
    constraints = [symplectic_partner(row, n) for row in commute_rows]
    exclude = Echelon(2 * n, exclude_rows)
    kernel = kernel_under_form(BitMatrix(commute_rows, 2 * n))
    if all(exclude.reduce(vec)[0] == 0 for vec in kernel.rows):
        return DistanceResult(None, cap, no_logicals=True)
    for vec in paulis_up_to_weight(n, cap):
        if any((vec & c).bit_count() & 1 for c in constraints):
            continue
        if exclude.reduce(vec)[0]:
            witness = decode(vec, n)
            return DistanceResult(weight(witness), cap, witness=witness)
    return DistanceResult(None, cap, exceeded_cap=True)


def check_abelian(generators: list[PauliOperator]) -> None:
    """Raise unless the generators commute pairwise."""
    for a in range(len(generators)):
        for b in range(a + 1, len(generators)):
            if symplectic_product(generators[a], generators[b]):
                raise InternalInvariantError(
                    f"ISG generators {a} and {b} anticommute"
                )


def reference_measure(state: ISGState, m: PauliOperator) -> tuple[ISGState, OutcomeExpr]:
    """``engine.measure`` as a scan: every generator and tracked logical is
    tested with ``symplectic_product``, and rule 1 builds a span of the
    generators."""
    new = ISGState(
        state.n, list(state.generators), list(state.outcomes),
        None if state.logicals is None else list(state.logicals),
        state.rand_counter, state.events,
    )

    def fresh():
        new.rand_counter += 1
        return symbol_expr(RANDOM_BIT, new.rand_counter - 1)

    anti = [i for i, g in enumerate(new.generators) if symplectic_product(g, m)]
    if not anti:
        combo = in_span(
            encode(m), Echelon(2 * m.n, [encode(g) for g in new.generators])
        )
        if combo is not None:
            outcome = ONE
            for i in combo.indices():
                outcome = outcome * new.outcomes[i]
            return new, outcome
        matching = None
        if new.logicals is not None:
            for op, expr in new.logicals:
                if op == m:
                    matching = expr
                    break
        outcome = matching if matching is not None else fresh()
        if new.logicals is not None and any(
            symplectic_product(op, m) for op, _ in new.logicals
        ):
            new.events = new.events + (
                {"kind": "logical-measurement", "measurement": m},
            )
            new.logicals = [
                (op, expr) for op, expr in new.logicals
                if op != m and not symplectic_product(op, m)
            ]
        new.generators.append(m)
        new.outcomes.append(outcome)
        return new, outcome
    outcome = fresh()
    j = anti[0]
    s1, s1_outcome = new.generators[j], new.outcomes[j]
    for i in anti[1:]:
        new.generators[i] = product(new.generators[i], s1)
        new.outcomes[i] = new.outcomes[i] * s1_outcome
    if new.logicals is not None:
        new.logicals = [
            (product(op, s1), expr * s1_outcome) if symplectic_product(op, m)
            else (op, expr)
            for op, expr in new.logicals
        ]
    new.generators[j] = m
    new.outcomes[j] = outcome
    return new, outcome


def _times(a: TrackedPauli, b: TrackedPauli) -> TrackedPauli:
    """Product of the operators, the associated combinations (a None
    ``assoc`` counts as empty) and the carried outcomes."""
    assoc = a.assoc if b.assoc is None else b.assoc
    if a.assoc is not None and b.assoc is not None:
        assoc = Combination(a.assoc.mask ^ b.assoc.mask, a.assoc.size)
    return TrackedPauli(product(a.op, b.op), assoc, a.carry * b.carry)


def _pivot(m: PauliOperator, *groups: list[TrackedPauli]):
    """The first element anticommuting with ``m``, searching the groups in
    order, as (group, index); every later anticommuting element is
    multiplied by it in place."""
    found = None
    for group in groups:
        for i, tracked in enumerate(group):
            if symplectic_product(tracked.op, m):
                if found is None:
                    found, first = (group, i), tracked
                else:
                    group[i] = _times(tracked, first)
    return found


def reference_forward(
    code: DynamicalCode, window: int | None = None
) -> tuple[list[TrackedPauli], list[TrackedPauli], list[RemovalEvent]]:
    """The classification's forward pass over lists: (C, V, removals) as
    ``run_classification`` reports them in ``C_final``, ``V_final`` and
    ``removals``."""
    window = resolve_window(code, window)
    k = len(code.s0)
    C = [TrackedPauli(op, Combination(1 << i, k), ONE) for i, op in enumerate(code.s0)]
    V: list[TrackedPauli] = []
    removals: list[RemovalEvent] = []
    t = 0
    for round_index, rnd in enumerate(code.rounds[:window], start=1):
        for m in rnd:
            outcome = symbol_expr(RANDOM_BIT, t)
            t += 1
            hit = _pivot(m, V, C)
            if hit is None:
                if in_span(encode(m), Echelon(2 * code.n, [encode(v.op) for v in V])) is None:
                    V.append(TrackedPauli(m, None, outcome))
                continue
            group, j = hit
            removed = group.pop(j)
            removals.append(RemovalEvent(
                round_index, "V" if group is V else "C",
                removed.op, removed.assoc, removed.carry,
            ))
            V.append(TrackedPauli(m, None, outcome))
    return C, V, removals


def reference_record(code: DynamicalCode, window: int | None = None):
    """Per-measurement states and the outcome record of the schedule,
    measured with :func:`reference_measure` from ``ISGState.initial``."""
    state = ISGState.initial(code)
    states, record = [], []
    for t, (_, m) in enumerate(code.measurements(window)):
        state, outcome = reference_measure(state, m)
        states.append(state)
        record.append((t, m, outcome))
    return states, record


def formula_reproduces_stabilizer(
    code: DynamicalCode,
    record: list[tuple[int, PauliOperator, OutcomeExpr]],
    combination_mask: int,
    occurrences: tuple[int, ...],
) -> bool:
    """Check a syndrome formula algebraically against the simulation record.

    The product of the recorded outcome expressions over the formula's
    occurrence set must equal the plus-signed product of the initial
    symbols of the combination: equivalent to agreement under every
    outcome assignment.  Also checks the operator identity: the measured
    operators must multiply to the stabilizer.
    """
    expr = ONE
    op = identity(code.n)
    by_occurrence = {t: (m, e) for t, m, e in record}
    for t in occurrences:
        m, e = by_occurrence[t]
        expr = expr * e
        op = product(op, m)
    expected = ONE
    for i in range(len(code.s0)):
        if (combination_mask >> i) & 1:
            expected = expected * OutcomeExpr(
                0, frozenset({OutcomeSymbol(INITIAL_STABILIZER, i)})
            )
    return expr == expected and op == combination_op(code, combination_mask)


def random_pauli(rng: random.Random, n: int) -> PauliOperator:
    while True:
        op = PauliOperator(
            n, rng.getrandbits(n), rng.getrandbits(n)
        )
        if not op.is_identity():
            return op


def random_commuting_independent(
    rng: random.Random, n: int, count: int
) -> list[PauliOperator]:
    """A random independent set of pairwise commuting Paulis."""
    chosen: list[PauliOperator] = []
    guard = 0
    while len(chosen) < count:
        guard += 1
        if guard > 5000:
            break
        op = random_pauli(rng, n)
        if any(symplectic_product(op, c) for c in chosen):
            continue
        if op in group_elements(chosen, n):
            continue
        chosen.append(op)
    return chosen


def random_round(rng: random.Random, n: int, size: int) -> list[PauliOperator]:
    """A random internally commuting measurement round (may be dependent)."""
    ops: list[PauliOperator] = []
    guard = 0
    while len(ops) < size and guard < 2000:
        guard += 1
        op = random_pauli(rng, n)
        if any(symplectic_product(op, other) for other in ops):
            continue
        ops.append(op)
    return ops


def random_instance(
    rng: random.Random,
    max_n: int = 6,
    max_s0: int = 6,
    max_measurements: int = 8,
) -> DynamicalCode:
    """A random small dynamical code with a valid initial group."""
    n = rng.randint(2, max_n)
    k = rng.randint(1, min(max_s0, n))
    s0 = random_commuting_independent(rng, n, k)
    budget = rng.randint(1, max_measurements)
    rounds: list[list[PauliOperator]] = []
    while budget > 0:
        size = rng.randint(1, min(3, budget))
        rnd = random_round(rng, n, size)
        if rnd:
            rounds.append(rnd)
            budget -= len(rnd)
        else:
            budget -= 1
    if not rounds:
        rounds = [[random_pauli(rng, n)]]
    return DynamicalCode.make(n, s0, rounds)


@dataclass(frozen=True)
class OracleEntry:
    """Oracle verdict for one element of the initial stabilizer group."""

    combination: Combination
    op: PauliOperator
    unmasked: bool
    formula: tuple[int, ...] | None  # measurement occurrence indices


def forward_oracle(
    code: DynamicalCode, window: int | None = None, cap: int = 16
) -> list[OracleEntry]:
    """Independent unmasking oracle by exhaustive symbolic simulation.

    Enumerates every element of the initial group and reports it unmasked
    iff some GF(2) combination of measurement outcome expressions contains
    no random-bit symbols and matches the element's initial symbols
    exactly.  Quadratic-exponential in the generator count, so guarded by
    ``cap``.
    """
    k = len(code.s0)
    if k > cap:
        raise CapExceededError(f"initial group too large to enumerate: {k} > {cap}")
    _, record = reference_record(code, window)
    symbols = sorted(
        {s for _, _, expr in record for s in expr.symbols},
        key=lambda s: (s.kind, s.index),
    )
    col = {s: i for i, s in enumerate(symbols)}
    ech = Echelon(len(symbols))
    for _, _, expr in record:
        vec = 0
        for s in expr.symbols:
            vec |= 1 << col[s]
        ech.add(vec)
    entries = []
    for mask in range(1 << k):
        op = identity(code.n)
        target = 0
        for i in range(k):
            if (mask >> i) & 1:
                op = product(op, code.s0[i])
                sym = OutcomeSymbol(INITIAL_STABILIZER, i)
                if sym in col:
                    target ^= 1 << col[sym]
                else:
                    target = -1
                    break
        combo = Combination(mask, k)
        if target < 0:
            entries.append(OracleEntry(combo, op, False, None))
            continue
        residue, meas_combo = ech.reduce(target)
        if residue == 0:
            formula = tuple(
                t for t in range(len(record)) if (meas_combo >> t) & 1
            )
            entries.append(OracleEntry(combo, op, True, formula))
        else:
            entries.append(OracleEntry(combo, op, False, None))
    return entries

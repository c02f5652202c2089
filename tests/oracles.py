"""
Brute-force reference implementations and random instance generators.

Everything here recomputes results by direct enumeration over small
groups, so the main suite can compare them with the package internals.
The references share no stabilizer update or search code with the
package; they use only its data types and ``gf2`` spans.
:func:`reference_measure` and :func:`reference_forward` are the
stabilizer update and the classification's forward pass written as scans
over generator lists with a fresh span per membership test, the way the
package computed them before its stabilizer tableau, and
:func:`reference_cycles` traces a repeated sequence with them, testing
every generator of each earlier snapshot.
:func:`reference_unmask_cycle_count` is the unmask probe as it was
before its one forward pass: it runs the package's classification from
round 0 once per cycle count, so it checks the windows of the one pass,
not the classification.  :func:`forward_oracle` reads its outcome expressions from :func:`reference_measure`, and
:func:`apply_error` flips them past an error by the same scan.
:func:`reference_min_weight_outside` is the distance search as it was
before the syndrome join: the same result type, but every candidate of
:func:`paulis_up_to_weight` is parity-tested against every row, so it
checks the join's values and witnesses; given a family of excluded spans
it searches each member in turn, as ``unmasked_distance`` did before its
single search over the destabilizer choices.
:func:`reference_exhaustive_d_u` is that loop over every choice of the
exhaustive policy, with the bare logicals computed here, and
:func:`brute_force_exhaustive_d_u` enumerates every valid destabilizer
instead.
:func:`reference_round0_decoding` is the round-0 decodability check as
the package computed it before the capped search: every error up to the
weight, bucketed by its syndrome on the unmasked stabilizers.
:func:`reference_group_center` is the gauge group's center from the
nullspace of its pairing matrix, as ``subsystem_distance`` computed it
before the gauge group recorded U as its center, and
:func:`reference_logical_trace` is ``build_logical_trace`` as its own
pass, before it shared the simulation's, written as a scan.
:func:`forced_split` pins the join to one of its two splits
(:data:`SPLITS`), so that both are compared at small sizes.  :class:`ReferenceOutcomeExpr`,
:func:`reference_rref` and :class:`ReferenceEchelon` are the outcome
expression (a sign and a set of symbols), the row reduction (every
column tested for a pivot) and the incremental span (every pivot
scanned in insertion order) as the package wrote them before bit masks
and pivot-indexed reduction.  :func:`final_sets` and :func:`round_isgs`
are no references: they read the final C and V of a classification and
the ISG after each round in the form the tests compare.
:func:`reference_emit_text` is the ``--format text`` writer as it was
before it collected its lines: one ``click.echo`` per leaf.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from unittest import mock

import click

from dyncode import DynamicalCode, OutcomeExpr, PauliOperator, pauli
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
    validate_code,
)
from dyncode.classify import DistanceResult, run_classification
from dyncode.errors import LogicalTrace
from dyncode.floquet import isg_rows
from dyncode.gf2 import BitMatrix, Combination, Echelon, in_span, kernel_under_form, nullspace
from dyncode.pauli import (
    decode,
    encode,
    identity,
    product,
    symplectic_partner,
    symplectic_product,
    weight,
)


@dataclass(frozen=True)
class ReferenceOutcomeExpr:
    """``engine.OutcomeExpr`` as a sign and a set of symbols: a product
    XORs the signs and takes the symmetric difference of the sets."""

    sign: int = 0
    symbols: frozenset[OutcomeSymbol] = frozenset()

    def __mul__(self, other: "ReferenceOutcomeExpr") -> "ReferenceOutcomeExpr":
        return ReferenceOutcomeExpr(self.sign ^ other.sign, self.symbols ^ other.symbols)

    def negate(self) -> "ReferenceOutcomeExpr":
        return ReferenceOutcomeExpr(self.sign ^ 1, self.symbols)

    def is_deterministic(self) -> bool:
        return all(s.kind != RANDOM_BIT for s in self.symbols)

    def evaluate(self, assignment: dict[OutcomeSymbol, int]) -> int:
        value = -1 if self.sign else 1
        for symbol in self.symbols:
            value *= assignment[symbol]
        return value


def reference_rref(matrix: BitMatrix) -> tuple[BitMatrix, BitMatrix, int]:
    """``gf2.rref`` testing every column in turn for a pivot."""
    rows = list(matrix.rows)
    m = len(rows)
    trans = [1 << i for i in range(m)]
    pivot_row = 0
    for col in range(matrix.cols):
        bit = 1 << col
        found = -1
        for r in range(pivot_row, m):
            if rows[r] & bit:
                found = r
                break
        if found < 0:
            continue
        rows[pivot_row], rows[found] = rows[found], rows[pivot_row]
        trans[pivot_row], trans[found] = trans[found], trans[pivot_row]
        for r in range(m):
            if r != pivot_row and rows[r] & bit:
                rows[r] ^= rows[pivot_row]
                trans[r] ^= trans[pivot_row]
        pivot_row += 1
        if pivot_row == m:
            break
    return BitMatrix(rows, matrix.cols), BitMatrix(trans, matrix.cols), pivot_row


class ReferenceEchelon:
    """``gf2.Echelon`` whose reduction scans every pivot in the order the
    rows were added."""

    def __init__(self, cols: int, rows=()) -> None:
        self.cols = cols
        self.pivots: dict[int, tuple[int, int]] = {}
        self.size = 0
        for row in rows:
            self.add(row)

    def __len__(self) -> int:
        return len(self.pivots)

    def reduce(self, vec: int) -> tuple[int, int]:
        combo = 0
        for pivot, (row, row_combo) in self.pivots.items():
            if vec & (1 << pivot):
                vec ^= row
                combo ^= row_combo
        return vec, combo

    def add(self, vec: int) -> bool:
        vec, combo = self.reduce(vec)
        combo ^= 1 << self.size
        self.size += 1
        if vec == 0:
            return False
        self.pivots[(vec & -vec).bit_length() - 1] = (vec, combo)
        return True


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


def paulis_up_to_weight(n: int, max_weight: int):
    """Yield the encoded vector of every operator of weight <= max_weight.

    The order is fixed: by weight (identity first), then by support in
    lexicographic order, then by the per-qubit letters with X < Z < Y,
    the last qubit of the support varying fastest.
    """
    letters = [(1 << q, 1 << (q + n), (1 << q) | (1 << (q + n))) for q in range(n)]
    for w in range(min(max_weight, n) + 1):
        for support in itertools.combinations(letters, w):
            yield from map(sum, itertools.product(*support))


def reference_round0_decoding(
    n: int, unmasked: list[PauliOperator], gauge: list[PauliOperator], max_weight: int
) -> tuple[bool, tuple[PauliOperator, PauliOperator] | None]:
    """Round-0 decodability by enumeration: every error of weight <=
    ``max_weight`` is bucketed by its syndrome on ``unmasked``, and two
    errors in one bucket whose residues modulo the ``gauge`` span differ
    are a violation.

    Returns:
        ``(ok, the first violating pair or None)``.
    """
    gauge_ech = Echelon(2 * n, [encode(g) for g in gauge])
    partners = [symplectic_partner(encode(u), n) for u in unmasked]
    buckets: dict[tuple[int, ...], tuple[int, int]] = {}
    for vec in paulis_up_to_weight(n, max_weight):
        syndrome = tuple((vec & p).bit_count() & 1 for p in partners)
        residue = gauge_ech.reduce(vec)[0]
        if syndrome not in buckets:
            buckets[syndrome] = (residue, vec)
        elif buckets[syndrome][0] != residue:
            return False, (decode(buckets[syndrome][1], n), decode(vec, n))
    return True, None


def reference_min_weight_outside(
    n: int, commute_rows: list[int], exclude_rows: list[int], cap: int,
    destabs: list[int] = (), bare: list[int] = (),
) -> DistanceResult:
    """``classify._min_weight_outside`` by a parity test per candidate:
    every operator up to ``cap``, lightest first, is tested against every
    constraint row, and the first commuting one outside the excluded span
    is the witness.

    With bare logicals the excluded span is a family: the rows plus
    ``destabs[i]`` times any element L_i of span(``bare``).  Each choice of
    the L_i is searched in turn, as ``unmasked_distance`` did before its
    single search, skipping a choice with no logicals, and the choice whose
    witness comes last in the candidate order gives the result: the
    largest distance, past the cap if any choice's search is.
    """
    if cap < 0:
        raise ValidationError([{"kind": "cap-out-of-range", "cap": cap}])
    constraints = [symplectic_partner(row, n) for row in commute_rows]
    candidates = [
        vec for vec in paulis_up_to_weight(n, cap)
        if not any((vec & c).bit_count() & 1 for c in constraints)
    ]
    kernel = kernel_under_form(BitMatrix(commute_rows, 2 * n))
    last = None
    for choice in itertools.product(span_elements(bare), repeat=len(destabs)):
        exclude = Echelon(2 * n, [*exclude_rows, *(d ^ l for d, l in zip(destabs, choice))])
        if all(exclude.reduce(vec)[0] == 0 for vec in kernel.rows):
            continue
        first = next(
            (i for i, vec in enumerate(candidates) if exclude.reduce(vec)[0]), len(candidates)
        )
        last = first if last is None else max(last, first)
    if last is None:
        return DistanceResult(None, cap, no_logicals=True)
    if last == len(candidates):
        return DistanceResult(None, cap, exceeded_cap=True)
    witness = decode(candidates[last], n)
    return DistanceResult(weight(witness), cap, witness=witness)


def span_elements(rows: list[int]) -> list[int]:
    """Every element of the span of ``rows``, by doubling."""
    elements = [0]
    for row in rows:
        elements += [e ^ row for e in elements]
    return elements


def reference_exhaustive_d_u(report, gauge, cap: int) -> DistanceResult:
    """``d_u`` under the exhaustive policy as one search per choice: each
    destabilizer of T times any element of the span of the bare logicals,
    computed here as the operators commuting with every gauge generator,
    modulo U."""
    n = report.n
    rows = [encode(g) for g in gauge.generators]
    fixed = len(rows) - len(report.T)
    u_rows = [encode(u.op) for u in report.U]
    modulo = Echelon(2 * n, u_rows)
    bare = [vec for vec in kernel_under_form(BitMatrix(rows, 2 * n)).rows if modulo.add(vec)]
    return reference_min_weight_outside(n, u_rows, rows[:fixed], cap, rows[fixed:], bare)


def brute_force_exhaustive_d_u(report, max_tuples: int) -> tuple[bool, int | None]:
    """The largest unmasked distance over every valid choice of T's
    destabilizers, by enumeration and with no cap: each operator that
    anticommutes with exactly its target among U | T | P | K, every tuple
    of them that commutes pairwise, grouped by the span (its RREF) that it
    gives with U | T | P | K, and each span's distance by scanning every
    operator that commutes with U, lightest first.

    Returns (False, None) past ``max_tuples`` tuples, else (True, the
    distance, or None when no span leaves a logical).
    """
    n = report.n
    members = [encode(u.op) for u in report.U] + [encode(t) for t in report.T]
    members += [encode(p) for p in report.P] + [encode(k) for k in report.K]
    partners = [symplectic_partner(row, n) for row in members]
    valid = [
        [vec for vec in range(1, 1 << 2 * n)
         if all(((vec & p).bit_count() & 1) == (i == len(report.U) + idx)
                for i, p in enumerate(partners))]
        for idx in range(len(report.T))
    ]
    if math.prod(map(len, valid)) > max_tuples:
        return False, None
    spans = set()
    for choice in itertools.product(*valid):
        if any((a & symplectic_partner(b, n)).bit_count() & 1
               for a, b in itertools.combinations(choice, 2)):
            continue
        echelon, _, r = reference_rref(BitMatrix(members + list(choice), 2 * n))
        spans.add(tuple(echelon.rows[:r]))
    u_partners = partners[:len(report.U)]
    candidates = sorted(
        (vec for vec in range(1, 1 << 2 * n)
         if not any((vec & p).bit_count() & 1 for p in u_partners)),
        key=lambda vec: weight(decode(vec, n)),
    )
    best = None
    for span in spans:
        excluded = Echelon(2 * n, span)
        first = next((vec for vec in candidates if excluded.reduce(vec)[0]), None)
        if first is not None:
            d = weight(decode(first, n))
            best = d if best is None else max(best, d)
    return True, best


def reference_group_center(n: int, rows: list[int]) -> list[int]:
    """The gauge group's center as ``subsystem_distance`` computed it
    before the gauge group recorded U as its center: a basis of the
    elements of the row span commuting with every row, from the nullspace
    of the pairing matrix."""
    ech = Echelon(2 * n)
    basis = [row for row in rows if ech.add(row)]
    # Row j of the pairing matrix records which basis elements anticommute
    # with generator j; combinations in its nullspace form the center.
    partners = [symplectic_partner(row, n) for row in rows]
    pairing = [
        sum(((b & p).bit_count() & 1) << i for i, b in enumerate(basis)) for p in partners
    ]
    return [
        Combination(combo, len(basis)).evaluate(basis)
        for combo in nullspace(BitMatrix(pairing, len(basis)))
    ]


# The splits w = (w - b) + b of the syndrome join: the last qubit from the
# 3n-letter table, and halves (b = 0 at w = 1, the identity as the table).
SPLITS = {"letters": lambda n, w: 1, "halves": lambda n, w: w // 2}


def forced_split(name: str):
    """Context manager running the syndrome join under one of
    :data:`SPLITS` at every weight, instead of its size rule."""
    return mock.patch.object(pauli, "_suffix_weight", SPLITS[name])


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


def apply_error(state: ISGState, e: PauliOperator) -> ISGState:
    """``Evolution.apply_error`` on a value: the outcome of every generator
    and tracked logical anticommuting with ``e`` (``symplectic_product``)
    flips sign, in a new state."""

    def flip(op, expr):
        return expr.negate() if symplectic_product(op, e) else expr

    return ISGState(
        state.n, list(state.generators),
        [flip(g, expr) for g, expr in zip(state.generators, state.outcomes)],
        None if state.logicals is None else [(op, flip(op, expr)) for op, expr in state.logicals],
        state.rand_counter, state.events,
    )


def reference_logical_trace(
    code: DynamicalCode, logicals: list[PauliOperator]
) -> list[LogicalTrace | None]:
    """``errors.build_logical_trace`` as its own pass, before it shared the
    simulation's, written as a scan over generator lists: every
    generator's provenance is (its combination over s0, the measurement
    occurrences it was built from), the lowest-index anticommuting
    generator is the pivot, a fresh span answers membership, and a
    measurement joining the group reads out each logical that
    anticommutes with it or equals it."""
    n = code.n
    gens = [[encode(g), 1 << i, 0] for i, g in enumerate(code.s0)]  # row, combination, occurrences
    for op in logicals:
        vec = encode(op)
        if any(symplectic_product(op, g) for g in code.s0) or in_span(
            vec, Echelon(2 * n, [row for row, _, _ in gens])
        ) is not None:
            raise ValidationError([{"kind": "not-a-logical", "operator": str(op)}])
    tracked: list[list[int] | None] = [[encode(op), 0, 0] for op in logicals]
    measured = list(code.measurements())

    def anti(vec: int, row: int) -> int:
        return (vec & symplectic_partner(row, n)).bit_count() & 1

    for t, (_, m) in enumerate(measured):
        vec = encode(m)
        hit = [g for g in gens if anti(vec, g[0])]
        if hit:
            pivot = hit[0]
            for entry in hit[1:] + [e for e in tracked if e is not None and anti(vec, e[0])]:
                for i in range(3):
                    entry[i] ^= pivot[i]
            pivot[:] = [vec, 0, 1 << t]
        elif in_span(vec, Echelon(2 * n, [row for row, _, _ in gens])) is None:
            tracked = [
                None if e is None or anti(vec, e[0]) or e[0] == vec else e for e in tracked
            ]
            gens.append([vec, 0, 1 << t])
    traces: list[LogicalTrace | None] = []
    for op, entry in zip(logicals, tracked):
        if entry is None:
            traces.append(None)
            continue
        factors: dict[int, tuple[PauliOperator, tuple[int, ...]]] = {}
        for occ in range(len(measured)):
            if entry[2] >> occ & 1:
                r, m = measured[occ]
                f_op, occs = factors.get(r, (identity(n), ()))
                factors[r] = (product(f_op, m), occs + (occ,))
        traces.append(LogicalTrace(
            code, op, decode(entry[0], n), Combination(entry[1], len(code.s0)), factors
        ))
    return traces


@dataclass
class TrackedPauli:
    """An element of C or V with its provenance.

    For C elements, ``assoc`` is the combination over the initial
    generators giving the associated stabilizer, and ``carry`` is the
    outcome of (op * associated stabilizer).  For V elements ``assoc`` is
    None and ``carry`` is the known outcome of ``op`` itself.
    """

    op: PauliOperator
    assoc: Combination | None
    carry: OutcomeExpr


def final_sets(report) -> tuple[list[TrackedPauli], list[TrackedPauli]]:
    """The C and V of a classification at the end of its window, read
    from the (row, packed provenance) pairs of ``report._final``, in the
    form :func:`reference_forward` gives them."""
    n, k = report.n, len(report.s0)

    def element(row, prov, assoc):
        expr = OutcomeExpr.unpack(prov, k)
        combination = Combination(expr.initial, k) if assoc else None
        return TrackedPauli(decode(row, n), combination, OutcomeExpr(expr.sign, expr.random))

    C, V = report._final
    return ([element(row, prov, True) for row, prov in C],
            [element(row, prov, False) for row, prov in V])


def round_isgs(code: DynamicalCode) -> list[list[PauliOperator]]:
    """The generators of the ISG after each round, from
    ``floquet.isg_rows``: entry r-1 after round r."""
    return [[decode(row, code.n) for row in isg_rows(code, r)]
            for r in range(1, len(code.rounds) + 1)]


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
) -> tuple[list[TrackedPauli], list[TrackedPauli], list[tuple[int, str, int]]]:
    """The classification's forward pass over lists: (C, V, removals) as
    :func:`final_sets` reads them off a classification report, and as its
    ``_removals``, (round, kind, encoded row) records."""
    window = resolve_window(code, window)
    k = len(code.s0)
    C = [TrackedPauli(op, Combination(1 << i, k), ONE) for i, op in enumerate(code.s0)]
    V: list[TrackedPauli] = []
    removals: list[tuple[int, str, int]] = []
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
            removals.append((round_index, "V" if group is V else "C", encode(removed.op)))
            V.append(TrackedPauli(m, None, outcome))
    return C, V, removals


def reference_cycles(
    sequence: list[PauliOperator], n: int, max_cycles: int = 0, skip=frozenset()
) -> tuple[list[list[list[int]]], list[tuple[int, int, int]], int | None]:
    """``floquet.iterate_cycles`` as a scan: (snapshots, escapes, fixpoint)
    from :func:`reference_measure`, with every generator of the previous
    cycle's snapshot tested against a fresh span of the current one.  The
    measurements whose running numbers are in ``skip`` are left out."""
    state, count = ISGState(n), 0
    snapshots: list[list[list[int]]] = []
    escapes: list[tuple[int, int, int]] = []
    for cycle in range(max_cycles if max_cycles > 0 else n + 2):
        cycle_rows, settled = [], cycle > 0
        for i, m in enumerate(sequence):
            if count not in skip:
                state, _ = reference_measure(state, m)
            count += 1
            rows = [encode(g) for g in state.generators]
            if cycle:
                prev = snapshots[-1][i]
                span = Echelon(2 * n, rows)
                outside = [row for row in prev if span.reduce(row)[0]]
                escapes += [(cycle - 1, i, row) for row in outside[:1]]
                settled = settled and not outside and len(rows) == len(prev)
            cycle_rows.append(rows)
        snapshots.append(cycle_rows)
        if settled:
            return snapshots, escapes, cycle - 1
    return snapshots, escapes, None


def reference_unmask_cycle_count(
    code: DynamicalCode, isg_round: int = 0, max_cycles: int = 0
) -> int:
    """``floquet.unmask_cycle_count`` as it was before its one forward
    pass: a code derived and classified from round 0 for each cycle
    count 1, 2, ... in turn."""
    period = len(code.rounds)
    if not period:
        raise ValidationError([{"kind": "empty-schedule"}])
    isg = isg_rows(code, isg_round)
    shift = isg_round % period
    cycle = [(shift + i) % period for i in range(period)]
    if not isg:
        diagnostics = validate_code(code.derive(isg, cycle))
        if diagnostics:
            raise ValidationError(diagnostics)
        return 1
    if max_cycles <= 0:
        max_cycles = len(isg) + 2
    for count in range(1, max_cycles + 1):
        report = run_classification(code.derive(isg, cycle * count))
        if not report.T:
            return count
    raise CapExceededError(
        f"syndromes not settled within {max_cycles} cycles"
    )


def reference_record(code: DynamicalCode, window: int | None = None):
    """Per-measurement states and the outcome record of the schedule,
    measured with :func:`reference_measure` from ``ISGState.initial``."""
    state = ISGState.initial(code)
    states, record = [], []
    for t, m in enumerate(m for rnd in code.rounds[:window] for m in rnd):
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
            expected = expected * symbol_expr(INITIAL_STABILIZER, i)
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


def reference_emit_text(node, prefix: str = "", file=None) -> None:
    """Write a report as "path: value" lines, one echo per leaf, to ``file``
    (standard output if None); a provenance-wrapped number is one leaf."""
    if isinstance(node, dict):
        if set(node) == {"value", "provenance"}:
            click.echo(f"{prefix}: {node['value']}", file=file)
            return
        for key in sorted(node):
            reference_emit_text(node[key], f"{prefix}.{key}" if prefix else key, file)
    elif isinstance(node, list):
        for i, item in enumerate(node):
            reference_emit_text(item, f"{prefix}[{i}]", file)
    else:
        click.echo(f"{prefix}: {node}", file=file)

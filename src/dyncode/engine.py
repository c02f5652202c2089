"""
Forward evolution of instantaneous stabilizer groups under Pauli
measurements, with fully symbolic outcome tracking.

Every measurement outcome and every stabilizer value is an
:class:`OutcomeExpr`: a +/- sign together with a set of symbols.  Symbols
come in two kinds: the unknown initial values of the starting
generators, and fresh random bits minted whenever a measurement outcome
is nondeterministic.  Because the bookkeeping is symbolic, the same
simulation validates both syndrome reconstruction (which combinations of
measurement outcomes are deterministic) and sign-exact outcome formulas.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field

# in_span stays importable from this module, as from gf2 and floquet.
from .gf2 import BitMatrix, Echelon, bits, in_span as in_span, kernel_under_form, rank
from .pauli import PauliOperator, decode, encode
from .tableau import Tableau, anticommutation_masks, encoding

INITIAL_STABILIZER = "initial-stabilizer"
RANDOM_BIT = "random-bit"

_VALID_KINDS = (INITIAL_STABILIZER, RANDOM_BIT)


class ValidationError(ValueError):
    """Raised when an input fails structural validation."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


class CapExceededError(RuntimeError):
    """An enumeration or search cap was exceeded."""


class InternalInvariantError(RuntimeError):
    """An internal consistency check failed; indicates an implementation bug."""


@dataclass(frozen=True)
class OutcomeSymbol:
    """One tracked +/-1 unknown; (kind, index) pairs are unique per run."""

    kind: str
    index: int

    def __post_init__(self) -> None:
        if self.kind not in _VALID_KINDS:
            raise ValueError(f"unknown symbol kind {self.kind!r}")


@dataclass(unsafe_hash=True, slots=True)
class OutcomeExpr:
    """A +/-1 value written as a signed product of symbols.

    ``sign`` is 1 for a leading minus; bit i of ``random`` stands for the
    random-bit symbol i and bit i of ``initial`` for the initial-stabilizer
    symbol i.  Multiplication XORs the sign and both masks, matching how
    +/-1 products of square-to-one unknowns behave.  Expressions are
    values: nothing changes one after it is built.
    """

    sign: int = 0
    random: int = 0
    initial: int = 0

    def __mul__(self, other: "OutcomeExpr") -> "OutcomeExpr":
        return OutcomeExpr(self.sign ^ other.sign, self.random ^ other.random,
                           self.initial ^ other.initial)

    def pack(self, width: int) -> int:
        """The expression as one int, for products by XOR: the sign in bit
        0, the initial mask (indices below ``width``) in the next ``width``
        bits and the random mask above them."""
        return self.sign | self.initial << 1 | self.random << (width + 1)

    @staticmethod
    def unpack(packed: int, width: int) -> "OutcomeExpr":
        """Inverse of :meth:`pack`."""
        return OutcomeExpr(packed & 1, packed >> (width + 1), packed >> 1 & ((1 << width) - 1))

    @property
    def symbols(self) -> frozenset[OutcomeSymbol]:
        """The symbols of the product, as :class:`OutcomeSymbol` values."""
        return frozenset(
            [OutcomeSymbol(INITIAL_STABILIZER, i) for i in bits(self.initial)]
            + [OutcomeSymbol(RANDOM_BIT, i) for i in bits(self.random)]
        )

    def negate(self) -> "OutcomeExpr":
        return OutcomeExpr(self.sign ^ 1, self.random, self.initial)

    def is_deterministic(self) -> bool:
        """True when no random-bit symbols remain in the expression."""
        return not self.random

    def evaluate(self, assignment: dict[OutcomeSymbol, int]) -> int:
        """Evaluate to +/-1 under a symbol assignment (values in {+1,-1})."""
        value = -1 if self.sign else 1
        for symbol in self.symbols:
            value *= assignment[symbol]
        return value


ONE = OutcomeExpr()


def symbol_expr(kind: str, index: int) -> OutcomeExpr:
    if kind == RANDOM_BIT:
        return OutcomeExpr(0, 1 << index)
    if kind == INITIAL_STABILIZER:
        return OutcomeExpr(0, 0, 1 << index)
    raise ValueError(f"unknown symbol kind {kind!r}")


@dataclass(frozen=True)
class DynamicalCode:
    """A code defined by an initial ISG and rounds of commuting measurements.

    A code caches on itself its encoded operators, each with its set bits
    and partner bits (:func:`tableau.encoding`), its structural
    diagnostics and its canonical logicals.  :meth:`derive` builds a code
    from its rounds that reuses their encodings.
    """

    n: int
    s0: tuple[PauliOperator, ...]
    rounds: tuple[tuple[PauliOperator, ...], ...]
    labels: dict | None = None

    @staticmethod
    def make(n, s0, rounds, labels=None) -> "DynamicalCode":
        return DynamicalCode(
            n, tuple(s0), tuple(tuple(r) for r in rounds), labels
        )

    def measurements(self, window: int | None = None):
        """Yield (round_index, measurement) over the first ``window`` rounds."""
        upto = len(self.rounds) if window is None else window
        for i, rnd in enumerate(self.rounds[:upto], start=1):
            for m in rnd:
                yield i, m

    @functools.cached_property
    def encoded_s0(self) -> tuple[tuple[int, list[int], list[int]], ...]:
        """(encoded row, set bits, partner bits) of each initial generator."""
        return self._encode(map(encode, self.s0))

    @functools.cached_property
    def encoded_rounds(self) -> tuple[tuple[tuple[int, list[int], list[int]], ...], ...]:
        """Per round, (encoded row, set bits, partner bits) of each measurement.

        The bits of each distinct operator are split once, and equal
        rounds share one tuple."""
        rounds: dict[tuple[int, ...], tuple] = {}
        return tuple(
            rounds.get(rows) or rounds.setdefault(rows, self._encode(rows))
            for rows in (tuple(map(encode, rnd)) for rnd in self.rounds)
        )

    @functools.cached_property
    def _encodings(self) -> dict[int, tuple[int, list[int], list[int]]]:
        return {}

    def _encode(self, rows) -> tuple[tuple[int, list[int], list[int]], ...]:
        """(row, set bits, partner bits) of each row; the bits of each
        distinct row are split once per code."""
        known, n = self._encodings, self.n
        out = []
        for vec in rows:
            entry = known.get(vec)
            if entry is None:
                entry = known[vec] = encoding(vec, n)
            out.append(entry)
        return tuple(out)

    @functools.cached_property
    def logical_basis(self) -> tuple[PauliOperator, ...]:
        """The operators of :func:`canonical_logicals` for ``s0``."""
        return tuple(op for op, _ in canonical_logicals(self.n, list(self.s0)))

    def derive(self, s0_rows: list[int], round_indices) -> "DynamicalCode":
        """The code on the same qubits whose initial generators are the
        encoded ``s0_rows`` and whose schedule is this code's rounds at
        ``round_indices``, taking its encodings from this code."""
        n, rounds, encoded = self.n, self.rounds, self.encoded_rounds
        code = DynamicalCode.make(
            n, [decode(row, n) for row in s0_rows], [rounds[i] for i in round_indices],
            self.labels,
        )
        code.__dict__["encoded_s0"] = tuple(encoding(row, n) for row in s0_rows)
        code.__dict__["encoded_rounds"] = tuple(encoded[i] for i in round_indices)
        return code

    @functools.cached_property
    def _diagnostics(self) -> tuple[dict, ...]:
        return tuple(_validate(self))


def validate_code(code: DynamicalCode) -> list[dict]:
    """Structural diagnostics for a dynamical code; empty means valid.

    Checks operator sizes, pairwise commutation of the initial generators
    and within every round, and linear independence of the initial set.
    Returns diagnostics rather than raising so callers can report them;
    the check runs once per code object and each call gets its own copy.
    """
    return [dict(d) for d in code._diagnostics]


def _size_mismatches(n: int, ops, where: str) -> list[dict]:
    return [{"kind": "size-mismatch", "where": where, "index": j, "got": op.n, "expected": n}
            for j, op in enumerate(ops) if op.n != n]


def require_size(n: int, ops, where: str) -> None:
    """Raise :class:`ValidationError`, with a ``size-mismatch`` diagnostic
    for each, if any operator of ``ops`` is not on ``n`` qubits."""
    if diagnostics := _size_mismatches(n, ops, where):
        raise ValidationError(diagnostics)


def _validate(code: DynamicalCode) -> list[dict]:
    groups = [("s0", code.s0)]
    groups += [(f"round {i}", rnd) for i, rnd in enumerate(code.rounds, start=1)]
    diagnostics = [d for where, ops in groups for d in _size_mismatches(code.n, ops, where)]
    if diagnostics:
        return diagnostics
    # Equal rounds share one encoded tuple (alive as long as the code), so
    # its identity keys one check; each copy reports under its own name.
    violations: dict[int, list[tuple[int, int]]] = {}
    for (where, ops), encoded in zip(groups, (code.encoded_s0, *code.encoded_rounds)):
        pairs = violations.get(id(encoded))
        if pairs is None:
            pairs = violations[id(encoded)] = _anticommuting_pairs(code.n, ops, encoded)
        diagnostics += [
            {"kind": "commutation-violation", "where": where, "pair": pair}
            for pair in pairs
        ]
    s0_rows = [vec for vec, _, _ in code.encoded_s0]
    if s0_rows and rank(s0_rows, 2 * code.n) < len(s0_rows):
        diagnostics.append({"kind": "dependent-generators", "where": "s0"})
    return diagnostics


def _anticommuting_pairs(n: int, ops, encoded) -> list[tuple[int, int]]:
    """Index pairs (a, b), a < b, of the anticommuting operators of a group."""
    supports = [op.x_mask | op.z_mask for op in ops]
    union = functools.reduce(operator.or_, supports, 0)
    if sum(map(int.bit_count, supports)) == union.bit_count():
        return []  # pairwise disjoint supports: every pair commutes
    vecs, vec_bits, _ = zip(*encoded)
    return [
        (a, a + 1 + b)
        for a, mask in enumerate(anticommutation_masks(n, vecs, vec_bits)) if mask
        for b in bits(mask >> (a + 1))
    ]


@dataclass
class ISGState:
    """An instantaneous stabilizer group with symbolic outcomes.

    ``generators[i]`` currently has value ``outcomes[i]``; ``logicals`` is
    an optional list of (operator, outcome) pairs tracked through the
    evolution.  States are treated as values: ``measure`` returns a new
    state and never mutates its argument.  The generators are
    independent and commute, so their count is the rank of the group.
    """

    n: int
    generators: list[PauliOperator] = field(default_factory=list)
    outcomes: list[OutcomeExpr] = field(default_factory=list)
    logicals: list[tuple[PauliOperator, OutcomeExpr]] | None = None
    rand_counter: int = 0
    events: tuple[dict, ...] = ()

    @staticmethod
    def initial(code: DynamicalCode, track_logicals: bool = False, logicals=None) -> "ISGState":
        """Starting state: each generator carries its own initial symbol.

        With ``track_logicals`` the logical representatives ``logicals``
        (by default a canonical basis) are attached, each valued at a fresh
        random-bit symbol (the encoded state's unknown logical content).
        """
        outcomes = [symbol_expr(INITIAL_STABILIZER, i) for i in range(len(code.s0))]
        state = ISGState(code.n, list(code.s0), outcomes)
        if track_logicals:
            ops = code.logical_basis if logicals is None else logicals
            state.logicals = [(op, symbol_expr(RANDOM_BIT, i)) for i, op in enumerate(ops)]
            state.rand_counter = len(ops)
        return state


def canonical_logicals(
    n: int, generators: list[PauliOperator]
) -> list[tuple[PauliOperator, OutcomeExpr]]:
    """A deterministic basis of logical representatives for a stabilizer set.

    Returns operators spanning the normalizer modulo the group, each with
    the trivial outcome expression (+1): tracked logicals start in a known
    eigenstate by convention, and callers reassign values as needed.
    """
    require_size(n, generators, "generators")
    rows = [encode(g) for g in generators]
    normalizer = kernel_under_form(BitMatrix(rows, 2 * n))
    ech = Echelon(2 * n, rows)
    logicals = []
    for vec in normalizer.rows:
        residue, _ = ech.reduce(vec)
        if residue and ech.add(residue):
            logicals.append((decode(residue, n), ONE))
    return logicals


class Evolution:
    """An :class:`ISGState` held in a :class:`Tableau` and measured in place.

    The generators are the tableau's stabilizer rows, in slot order, with
    their outcomes as provenance; tracked logicals are its tracked rows.
    Outcomes stay packed (:meth:`OutcomeExpr.pack`, at the width of the
    state's initial symbols) until they are returned.
    """

    def __init__(self, state: ISGState, encoded=None, trace_at: int | None = None) -> None:
        """``encoded`` holds (row, set bits, partner bits) of each generator
        when known; ``trace_at`` turns on trace provenance (:meth:`trace`)
        from that bit up, above every outcome bit of the run."""
        n = self.n = state.n
        tab = self.tableau = Tableau(n, destabilizers=True)
        logicals = state.logicals or []
        require_size(n, state.generators + [op for op, _ in logicals], "state")
        self.width = max(
            (expr.initial.bit_length() for expr in state.outcomes + [e for _, e in logicals]),
            default=0,
        )
        self.trace_at = trace_at
        self.outcome_bits = -1 if trace_at is None else (1 << trace_at) - 1
        self.traced_out = 0  # the tracked slots read out for the trace only
        self.occurrences = 0
        if encoded is None:
            encoded = [encoding(encode(g), n) for g in state.generators]
        for (vec, vec_bits, partner_bits), expr in zip(encoded, state.outcomes):
            packed = expr.pack(self.width)
            if trace_at is not None:
                packed |= expr.initial << (trace_at + 1)
            tab.append(vec, partner_bits, tab.masks(vec_bits), packed)
        self.track_logicals = state.logicals is not None
        for op, expr in logicals:
            tab.tracked.append(encode(op), expr.pack(self.width))
        self.rand_counter = state.rand_counter
        self.events = state.events

    def measure(self, m: PauliOperator, encoded=None) -> OutcomeExpr:
        """Apply :func:`measure`'s rules in place and return the outcome;
        ``encoded`` is (row, set bits, partner bits) of ``m`` when known."""
        tab = self.tableau
        vec, vec_bits, partner_bits = encoded or encoding(encode(m), self.n)
        rank = len(tab)
        slot, read_out = tab.measure(vec, vec_bits, partner_bits)
        self.occurrences += 1
        prov = tab.stab.prov
        if slot is None:
            packed = 0
            for s in tab.combination(vec_bits):
                packed ^= prov[s]
            return OutcomeExpr.unpack(packed & self.outcome_bits, self.width)
        tracked = tab.tracked
        # Reading out a tracked logical representative directly, as m joins
        # the group: the outcome is its tracked value, not fresh randomness.
        joined = len(tab) > rank
        matching = [s for s in tracked.slots() if tracked.rows[s] == vec] if joined else []
        if matching:
            packed = tracked.prov[matching[0]] & self.outcome_bits
        else:
            packed = symbol_expr(RANDOM_BIT, self.rand_counter).pack(self.width)
            self.rand_counter += 1
        outcome = OutcomeExpr.unpack(packed, self.width)
        if self.trace_at is not None:
            # random bit t of the trace, past its sign bit, for measurement t
            packed |= 1 << (self.trace_at + self.width + self.occurrences)
            for s in matching:
                self.traced_out |= 1 << s
        prov[slot] = packed
        if read_out:
            self.events = self.events + ({"kind": "logical-measurement", "measurement": m},)
            # m is now a stabilizer: the representatives it read out and
            # m itself leave the logical basis (k-reduction).
            for s in matching:
                tracked.free(s)
        return outcome

    def apply_error(self, e: PauliOperator) -> None:
        """Flip the outcome of every generator and tracked logical that
        anticommutes with the error."""
        require_size(self.n, [e], "error")
        tab = self.tableau
        s, _, t, _ = tab.masks(bits(encode(e)))
        for group, mask in ((tab.stab, s), (tab.tracked, t)):
            for slot in bits(mask):
                group.prov[slot] ^= 1  # the sign bit

    def outcome(self, slot: int) -> OutcomeExpr:
        """The value of the tracked row in ``slot``."""
        return OutcomeExpr.unpack(self.tableau.tracked.prov[slot] & self.outcome_bits, self.width)

    def trace(self, slot: int) -> tuple[int, OutcomeExpr] | None:
        """The tracked row in ``slot`` and its trace provenance: the initial
        symbols of its combination, random bit t for each measurement t
        multiplied in.  None once a joining measurement anticommutes with
        it or equals it (which frees it only if it reads out another)."""
        tracked = self.tableau.tracked
        if tracked.rows[slot] is None or self.traced_out >> slot & 1:
            return None
        expr = OutcomeExpr.unpack(tracked.prov[slot] >> self.trace_at, self.width)
        return tracked.rows[slot], expr

    def run(self, code: DynamicalCode, window: int, errors: dict[int, PauliOperator]) -> list:
        """Measure the first ``window`` rounds of ``code`` in place with
        ``errors`` placed; the record of :func:`simulate_measurements`."""
        if 0 in errors:
            self.apply_error(errors[0])
        record = []
        for round_index, (rnd, encoded) in enumerate(
            zip(code.rounds[:window], code.encoded_rounds), start=1
        ):
            for m, entry in zip(rnd, encoded):
                record.append((len(record), m, self.measure(m, entry)))
            if round_index in errors:
                self.apply_error(errors[round_index])
        return record

    def state(self) -> ISGState:
        n, stab, tracked = self.n, self.tableau.stab, self.tableau.tracked
        unpack, width, mask = OutcomeExpr.unpack, self.width, self.outcome_bits
        logicals = None
        if self.track_logicals:
            logicals = [(decode(tracked.rows[s], n), self.outcome(s)) for s in tracked.slots()]
        live = stab.slots()
        return ISGState(
            n, [decode(stab.rows[s], n) for s in live],
            [unpack(stab.prov[s] & mask, width) for s in live],
            logicals, self.rand_counter, self.events,
        )


def measure(state: ISGState, m: PauliOperator) -> tuple[ISGState, OutcomeExpr]:
    """Measure a Pauli operator, returning the new state and the outcome.

    The three stabilizer update rules:

    1. ``m`` in the group: state unchanged, outcome is the (signed)
       product of the combination's outcome expressions.
    2. ``m`` anticommutes with some generators: the lowest-index such
       generator is the pivot.  It is replaced by ``m`` with a fresh
       random-bit outcome, and every other anticommuting generator and
       tracked logical is multiplied by it, outcomes composing
       accordingly.
    3. ``m`` independent and commuting: appended with a fresh random bit.

    In rule 3, if ``m`` anticommutes with a tracked logical it is acting
    as a logical measurement: the anticommuting logicals leave the tracked
    set and a ``"logical-measurement"`` event is recorded.

    The rules run on a :class:`Tableau` built from ``state``: membership
    and the rule-1 combination are read from its destabilizer rows in
    O(wt(m)).  A run of measurements should keep one :class:`Evolution`
    (as :func:`simulate_measurements` does) rather than rebuild it per
    call.
    """
    require_size(state.n, [m], "measurement")
    evolution = Evolution(state)
    outcome = evolution.measure(m)
    return evolution.state(), outcome


def resolve_window(code: DynamicalCode, window: int | None) -> int:
    """The number of rounds to run: ``window``, or the whole schedule
    when it is None.  A window outside the schedule raises
    :class:`ValidationError`."""
    rounds = len(code.rounds)
    if window is None:
        return rounds
    if not 0 <= window <= rounds:
        kind = "window-out-of-range" if window < 0 else "window-too-large"
        raise ValidationError([{"kind": kind, "window": window, "rounds": rounds}])
    return window


def simulate_measurements(
    code: DynamicalCode, window: int | None = None,
    errors: dict[int, PauliOperator] | None = None,
    track_logicals: bool = False,
) -> tuple[ISGState, list[tuple[int, PauliOperator, OutcomeExpr]]]:
    """Run the measurement schedule symbolically.

    ``errors`` optionally maps a round index r to a Pauli applied after
    round r's measurements (round 0 means before any measurement).

    Returns the final state and the per-occurrence record
    (occurrence index, operator measured, outcome expression).
    A window outside the schedule raises :class:`ValidationError`.
    """
    window = resolve_window(code, window)
    evolution = Evolution(
        ISGState.initial(code, track_logicals=track_logicals), code.encoded_s0
    )
    record = evolution.run(code, window, errors or {})
    return evolution.state(), record

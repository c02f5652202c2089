"""
Classification of initial-round stabilizers under a measurement schedule,
and the three distance notions built on top of it.

Two tracked sets drive the classification.  ``C`` follows the evolution
of the initial generators: each element carries the initial-group
combination it is "associated" with, plus the known outcome of (element *
associated stabilizer), which is always a product of measurement
outcomes.  ``V`` collects an independent set of operators generated by
the measurements themselves, each with a known outcome.  Together they
generate the current ISG.

Both sets live in one :class:`~dyncode.tableau.Tableau`: V is its
stabilizer set and C its tracked rows.  Each row's provenance is one int,
its full outcome expression packed at the width of s0
(:meth:`~dyncode.engine.OutcomeExpr.pack`): the initial symbols are the
``assoc`` combination and the rest is the carry.  Every
measurement m applies one pivot rule (the Aaronson-Gottesman stabilizer
update): the first element anticommuting with m is the pivot, searching
V before C in list order (the lowest set bit of the tableau's
anticommutation masks), and every other anticommuting element of V and
C is multiplied by it.  With no pivot, m joins V if it is independent of
V (case 1), which the tableau's logical rows answer in O(wt(m)).
Otherwise the pivot is removed, recorded as (round, kind "C" or "V",
row), and m joins V: a C pivot means m hit only C (case 2), and a V
pivot covers m hitting only V (case 3) or both sets (case 4).

After the window, the intersection of the two spans yields every
syndrome that the schedule reveals.  The removals are replayed backwards
through the same pivot rule, on a tableau of the final ISG, to recover
the permanently masked stabilizers together with their destabilizers.
One incremental basis of the initial group, in the order U | T | P,
collects the three parts as they are found; the partition check and the
classification of every element read it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .engine import (
    INITIAL_STABILIZER,
    RANDOM_BIT,
    DynamicalCode,
    InternalInvariantError,
    OutcomeExpr,
    ValidationError,
    require_size,
    resolve_window,
    symbol_expr,
    validate_code,
)
from .gf2 import (
    BitMatrix,
    Combination,
    Echelon,
    in_span,
    kernel_under_form,
    lowest,
    solve_linear,
    span_intersection,
)
from .pauli import (
    PauliOperator,
    commuting_paulis_up_to_weight,
    decode,
    encode,
    symplectic_partner,
    weight,
)
from .tableau import Tableau, anticommutation_masks, encoding


@dataclass(frozen=True)
class UnmaskedStabilizer:
    op: PauliOperator
    combination: Combination
    syndrome: OutcomeExpr


@dataclass
class ClassificationReport:
    """Output of the classification: the partition U / T / P plus destabilizers.

    ``U[j].syndrome`` is the product of measurement outcomes revealing
    that stabilizer.  ``K[j]`` is the destabilizer paired with ``P[j]``.
    ``tags[i]`` classifies initial generator i.  ``_basis`` holds the
    rows of U, T and P in that order, tagged by position; rows it rejected
    as dependent took a tag bit too, so ``_ends`` records its size when U
    and when T were complete.  ``_removals`` holds the forward pass's
    removal records, (round, kind, row) with kind "C" or "V" for the set
    the row left, in schedule order, and ``_final`` the (row, packed
    provenance) pairs of the final C and V.
    """

    n: int
    window: int
    s0: tuple[PauliOperator, ...]
    U: list[UnmaskedStabilizer]
    T: list[PauliOperator]
    P: list[PauliOperator]
    K: list[PauliOperator]
    tags: list[str]
    _removals: list[tuple] = field(default_factory=list, repr=False)
    _final: tuple = field(default=((), ()), repr=False)
    _basis: Echelon | None = field(default=None, repr=False, compare=False)
    _ends: tuple[int, int] = (0, 0)

    def element_class(self, op: PauliOperator) -> str:
        """Classify an arbitrary element of the initial group.

        Products mixing the three kinds classify by the strongest masking
        present: any permanently masked factor makes the element
        permanently masked, else any temporarily masked factor makes it
        temporarily masked.
        """
        require_size(self.n, [op], "operator")
        combo = in_span(encode(op), self._basis)
        if combo is None:
            raise ValueError("operator is not in the initial stabilizer group")
        u_end, t_end = self._ends
        if combo.mask >> t_end:
            return "permanently-masked"
        if combo.mask >> u_end:
            return "temporarily-masked"
        return "unmasked"


def _provenance(prov: int, k: int) -> tuple[Combination, OutcomeExpr]:
    """The ``assoc`` combination and the carry of a packed provenance."""
    expr = OutcomeExpr.unpack(prov, k)
    return Combination(expr.initial, k), OutcomeExpr(expr.sign, expr.random)


def run_classification(code: DynamicalCode, window: int | None = None) -> ClassificationReport:
    """Classify the initial generators over a measurement window.

    Processes each measurement through the four commutation cases on a
    tableau whose stabilizers are V and whose tracked rows are C, so a
    measurement costs O(wt) plane XORs plus the rows it multiplies, not a
    commutation test per element.  Then intersects the spans of C and V
    at the end of the window, and derives the unmasked set with syndrome
    formulas, the permanently masked set with destabilizers (via the
    reversed-schedule replay), and the temporarily masked remainder.

    Raises:
        ValidationError: if the code fails structural validation.
        InternalInvariantError: if the derived partition violates its
            completeness/independence invariants (implementation bug).
    """
    diagnostics = validate_code(code)
    if diagnostics:
        raise ValidationError(diagnostics)
    return next(_reports(code, [resolve_window(code, window)]))


def _reports(code: DynamicalCode, windows):
    """The report at each window of the rising ``windows``, from one
    forward pass over a valid ``code``.  Each post-pass reads fresh lists
    of C and V and a copy of the removals so far."""
    n, k = code.n, len(code.s0)
    s0_rows = [vec for vec, _, _ in code.encoded_s0]
    # V is the stabilizer set of the tableau, C its tracked rows.
    tab = Tableau(n)
    c, v = tab.tracked, tab.stab
    for i, (vec, _, partner_bits) in enumerate(code.encoded_s0):
        c.append(vec, symbol_expr(INITIAL_STABILIZER, i).pack(k), partner_bits)
    removals: list[tuple] = []
    # Random bit t, packed, for measurement t: random bits are packed in order.
    outcome = symbol_expr(RANDOM_BIT, 0).pack(k)
    done = 0
    for window in windows:
        for round_index, rnd in enumerate(code.encoded_rounds[done:window], start=done + 1):
            for vec, vec_bits, partner_bits in rnd:
                masks = anti, logical, hit, _ = tab.masks(vec_bits)
                if anti:
                    # Cases 3-4: the V pivot is removed and m joins V.
                    row, _ = tab.pivot(masks, vec, partner_bits, outcome, fresh=True)
                    removals.append((round_index, "V", row))
                elif hit:
                    # Case 2: the C pivot is removed; m commutes with V and is
                    # independent of it, as it anticommutes with the pivot.
                    q = lowest(hit)
                    row = c.rows[q]
                    if hit ^ (1 << q):
                        c.mul(hit ^ (1 << q), row, c.row_bits(q), c.prov[q])
                    removals.append((round_index, "C", row))
                    c.free(q)
                    tab.append(vec, partner_bits, masks, outcome)
                elif logical:
                    # Case 1: add to V only if independent of it.
                    tab.append(vec, partner_bits, masks, outcome)
                outcome <<= 1
        done = window
        c_slots, v_slots = c.slots(), v.slots()
        C = [(c.rows[s], c.prov[s]) for s in c_slots]
        V = [(v.rows[s], v.prov[s]) for s in v_slots]
        # The replay takes the ISG with the partner bits the tableau still holds.
        isg = [(c.rows[s], c.known_bits[s]) for s in c_slots]
        isg += [(v.rows[s], v.known_bits[s]) for s in v_slots]
        so_far = removals[:]
        basis = Echelon(2 * n)
        U = _extract_unmasked(n, C, V, s0_rows, basis)
        u_end = basis.size
        P, K = _extract_permanently_masked(n, isg, so_far, s0_rows)
        T = _extract_temporarily_masked(n, C, s0_rows, basis)
        t_end = basis.size
        _check_partition(n, U, T, P, K, s0_rows, basis)
        report = ClassificationReport(
            n=n, window=window, s0=code.s0, U=U, T=T, P=P, K=K,
            tags=[], _removals=so_far, _final=(C, V),
            _basis=basis, _ends=(u_end, t_end),
        )
        report.tags = [report.element_class(op) for op in code.s0]
        yield report


def _extract_unmasked(
    n: int, C: list[tuple[int, int]], V: list[tuple[int, int]],
    s0_rows: list[int], basis: Echelon,
) -> list[UnmaskedStabilizer]:
    """Read the revealed syndromes off the intersection of the two spans,
    adding each independent one to ``basis``.

    Every intersection generator u lies in the span of V (its outcome is
    a product of known measurement outcomes) and in the span of C (it
    carries an associated initial stabilizer s with known outcome of
    u*s); the product of the two outcomes is the syndrome of s.  Zero
    rows of the block matrix are dependencies among C and contribute
    their associated stabilizers with the carry alone.  ``C`` and ``V``
    hold (row, packed provenance) pairs, so the XOR of an entry's
    provenances holds both the associated combination and the syndrome.
    """
    c_rows = BitMatrix([row for row, _ in C], 2 * n)
    v_rows = BitMatrix([row for row, _ in V], 2 * n)
    elements, redundancies = span_intersection(c_rows, v_rows)
    unmasked: list[UnmaskedStabilizer] = []
    for entry in itertools.chain(elements, redundancies):
        prov = 0
        for i in entry.left_combo.indices():
            prov ^= C[i][1]
        for i in entry.right_combo.indices():
            prov ^= V[i][1]
        combination, syndrome = _provenance(prov, len(s0_rows))
        s_vec = combination.evaluate(s0_rows)
        if combination.mask and basis.add(s_vec):
            unmasked.append(UnmaskedStabilizer(decode(s_vec, n), combination, syndrome))
    return unmasked


def _extract_permanently_masked(
    n: int,
    isg: list[tuple[int, list[int] | None]],
    removals: list[tuple],
    s0_rows: list[int],
) -> tuple[list[PauliOperator], list[PauliOperator]]:
    """Recover permanently masked stabilizers and destabilizers by replay.

    The final ISG (R) is evolved backwards by "measuring" the removed
    elements, from their (round, kind, row) records, in reverse order;
    each row's set and partner bits are rebuilt only when it is replayed.
    Each element that was removed from C pairs with the group element
    that anticommutes with it at that point; the pair behaves as the two
    logical operators of a gauge qubit and is propagated back to round 0
    by the ordinary update rules.  Pairs form only at C removals, so with
    none there is nothing to replay.

    Each removal is one pivot step.  Let W be generated by R and the pair
    rows, and G_t be the ISG after measurement t, of m_t; R starts as the
    final ISG.  The x_t removed at t anticommutes with m_t, and G_{t-1} =
    <x_t> (G_{t-1} ∩ C(m_t)) with the second factor in G_t.  The pivot
    on x_t, the measurement update of W, keeps what commutes with x_t,
    so W ⊇ G_t gives W ⊇ G_{t-1}; moving a pair out of R keeps W, and G
    grows between removals.  So m_t, in W, anticommutes with x_t, and R
    commutes with the pair rows (pivots multiply by rows of R): if no row
    of R anticommutes, x_t acts as a gauge logical and the replay raises.

    ``isg`` holds the rows of C and then V at the end of the window, each
    with its partner bits where the forward pass still knew them; one
    incremental basis selects the independent ones as R.  The replay
    tableau holds R as its stabilizers and the pairs, flattened, as its
    tracked rows, and no logical rows: no replayed element reads them.
    """
    if all(record[1] != "C" for record in removals):
        return [], []
    tab = Tableau(n, logicals=False)
    stab, tracked = tab.stab, tab.tracked
    independent = Echelon(2 * n)
    for row, row_bits in isg:
        if independent.add(row):
            stab.append(row, 0, row_bits)
    # The removals are in schedule order: replay the most recent first.
    for _, kind, removed in reversed(removals):
        vec, vec_bits, partner = encoding(removed, n)
        masks = anti, _, _, _ = tab.masks(vec_bits)
        if not anti:
            raise InternalInvariantError("replayed removal has no anticommuting row in R")
        row, row_bits = tab.pivot(masks, vec, partner)
        if kind == "C":
            stab.free(lowest(anti))
            tracked.append(vec, 0, partner)
            tracked.append(row, 0, row_bits)
    return _strip_pairs(n, tab.generators(), tracked.rows, s0_rows)


def _strip_pairs(
    n: int, R: list[int], flat: list[int], s0_rows: list[int]
) -> tuple[list[PauliOperator], list[PauliOperator]]:
    """The (P, K) pairs of the replayed group R and the flattened pair rows.

    The replayed pair elements are gauge logicals, defined only modulo
    the replayed stabilizer group: strip the R component so each masked
    stabilizer lands in the initial group.  R commutes with every pair
    element, so the reduction cannot change any commutation pattern,
    which is asserted.
    """
    basis = Echelon(2 * n, R + s0_rows)
    P: list[int] = []
    for p_vec in flat[::2]:
        combo = in_span(p_vec, basis)
        if combo is None:
            raise InternalInvariantError(
                "replayed masked stabilizer is not in the initial group"
            )
        P.append(Combination(combo.mask >> len(R), len(s0_rows)).evaluate(s0_rows))
    stripped = [p_vec ^ p for p_vec, p in zip(flat[::2], P)]
    if any(mask >> len(P) for mask in anticommutation_masks(n, stripped + flat)[:len(P)]):
        raise InternalInvariantError(
            "replayed stabilizer group does not centralize the pairs"
        )
    return [decode(p, n) for p in P], [decode(kappa, n) for kappa in flat[1::2]]


def _extract_temporarily_masked(
    n: int, C: list[tuple[int, int]], s0_rows: list[int], basis: Echelon
) -> list[PauliOperator]:
    """Surviving associated stabilizers whose syndromes were not revealed:
    those independent of ``basis`` (U so far), added to it.  ``C`` holds
    (row, packed provenance) pairs."""
    T: list[PauliOperator] = []
    for _, prov in C:
        s_vec = _provenance(prov, len(s0_rows))[0].evaluate(s0_rows)
        if s_vec and basis.add(s_vec):
            T.append(decode(s_vec, n))
    return T


def _check_partition(n, U, T, P, K, s0_rows, basis) -> None:
    """Add P to ``basis`` (holding U and T) and check that U | T | P is a
    basis of S0 with K[j] anticommuting with P[j] alone."""
    p_rows = [encode(p) for p in P]
    if not all(map(basis.add, p_rows)) or len(basis) != len(s0_rows):
        raise InternalInvariantError("U, T, P is not an independent basis of S0")
    if any(basis.reduce(row)[0] for row in s0_rows):
        raise InternalInvariantError("U, T, P does not span the initial group")
    if len(P) != len(K):
        raise InternalInvariantError("P and K length mismatch")
    members = [encode(u.op) for u in U] + [encode(t) for t in T] + p_rows
    masks = anticommutation_masks(n, [encode(kappa) for kappa in K] + members)
    offset = len(U) + len(T)
    if any(mask >> len(K) != 1 << (offset + j) for j, mask in enumerate(masks[:len(K)])):
        raise InternalInvariantError("destabilizer commutation pattern violated")


@dataclass
class GaugeGroup:
    """Gauge group: stabilizers plus destabilizers for the masked ones.

    ``center`` spans the group's center: the unmasked stabilizers, since
    every other generator pairs with a partner alone (T with its chosen
    destabilizer, P with K) and all of them commute with U.  In a
    subsystem code the stabilizer is the gauge group's center (Poulin,
    quant-ph/0508131).  ``alternatives`` holds the bare logicals under the
    exhaustive policy when T is non-empty: a basis of the group's
    centralizer modulo its center.  Each of T's destabilizers may be
    multiplied by any product of them, and by nothing else that changes
    the group.
    """

    n: int
    generators: list[PauliOperator]
    t_destabs: list[PauliOperator]
    center: list[PauliOperator]
    alternatives: list[PauliOperator] = field(default_factory=list)

    def has_choices(self) -> bool:
        """Whether T's destabilizers have a choice that changes the group."""
        return bool(self.alternatives)


def build_gauge_group(
    report: ClassificationReport,
    t_destab_policy: str = "canonical",
    t_destabs: list[PauliOperator] | None = None,
) -> GaugeGroup:
    """Assemble the gauge group from a classification report.

    Destabilizers for the temporarily masked stabilizers are free; the
    canonical policy solves for the lexicographically least operator
    anticommuting with exactly its target, and the exhaustive policy
    additionally records the bare logicals, by which any of them may be
    multiplied, so the distance search can maximize over every choice.
    Explicit ``t_destabs`` override the solver.
    """
    if t_destab_policy not in ("canonical", "exhaustive"):
        raise ValueError(f"unknown policy {t_destab_policy!r}")
    n = report.n
    width = 2 * n
    stab_ops = [u.op for u in report.U] + list(report.T) + list(report.P)
    if t_destabs is not None and len(t_destabs) != len(report.T):
        raise ValidationError(
            [{"kind": "destabilizer-count-mismatch", "expected": len(report.T)}]
        )
    require_size(n, t_destabs or [], "t_destabs")
    # An operator's parities against the partner rows are its commutation
    # pattern with U | T | P | K and with each chosen destabilizer.
    partners = [symplectic_partner(encode(op), n) for op in stab_ops + report.K]
    chosen: list[PauliOperator] = []
    for idx in range(len(report.T)):
        target = len(report.U) + idx
        if t_destabs is not None:
            kappa = t_destabs[idx]
        else:
            rhs = [int(i == target) for i in range(len(partners))]
            solution = solve_linear(partners, rhs, width)
            if solution is None:
                raise InternalInvariantError("no destabilizer solution exists")
            kappa = decode(solution, n)
        vec = encode(kappa)
        if any(((vec & row).bit_count() & 1) != (i == target) for i, row in enumerate(partners)):
            raise ValidationError([{"kind": "bad-destabilizer", "index": idx}])
        partners.append(symplectic_partner(vec, n))
        chosen.append(kappa)
    generators = stab_ops + list(report.K) + chosen
    gauge = GaugeGroup(n, generators, chosen, [u.op for u in report.U])
    if t_destab_policy == "exhaustive" and report.T:
        # The centralizer is span(U) plus the bare logicals (Poulin).
        center = Echelon(width, [encode(u) for u in gauge.center])
        kernel = kernel_under_form(BitMatrix([encode(g) for g in generators], width))
        gauge.alternatives = [decode(vec, n) for vec in kernel.rows if center.add(vec)]
    return gauge


@dataclass(frozen=True)
class DistanceResult:
    """Result of a minimum-weight search.

    ``value`` is None when the search hit the cap (``exceeded_cap``) or
    when the constrained set is empty (``no_logicals``: every operator
    commuting with the constraints already lies in the excluded group).
    ``candidates`` counts the commuting operators tested against the
    excluded group; it is work done, not part of the answer.
    """

    value: int | None
    cap: int
    exceeded_cap: bool = False
    no_logicals: bool = False
    witness: PauliOperator | None = None
    candidates: int = field(default=0, compare=False)

    def __str__(self) -> str:
        if self.no_logicals:
            return "undefined"
        if self.exceeded_cap:
            return f"> {self.cap}"
        return str(self.value)


def _min_weight_outside(
    n: int, commute_rows: list[int], exclude_rows: list[int], cap: int,
    destabs: list[int] = (), bare: list[int] = (),
) -> DistanceResult:
    """Minimum weight over operators commuting with all constraint rows
    but outside the excluded span, up to ``cap``.

    The commuting operators come lightest first (by weight, then by
    support in lexicographic order, then by letters with X < Z < Y, the
    last qubit fastest) from a syndrome join
    (:func:`commuting_paulis_up_to_weight`: the 3n letters at small
    sizes, halves of the weight at large ones), so only they are tested
    against the excluded span; the first one outside it is the witness.
    Every weight below the answer is searched in full, and at the answer
    weight the join stops at the witness.

    With bare logicals ``bare``, the excluded span is a family: the rows
    and ``destabs[i]`` times L_i, for every choice of the L_i in
    span(bare), and the result is the maximum over the family.  With
    ``destabs`` and ``bare`` independent modulo the rows, a candidate lies
    in a choice's span exactly when it reduces to zero modulo all three
    and its ``bare`` part is the sum of the L_i whose ``destabs[i]`` the
    reduction used: linear conditions on the coordinates of the L_i.  So
    the choices left by every candidate so far form an affine space, an
    echelon with the right-hand side in its top bit, and the witness is
    the first candidate that leaves it empty.  It lies outside the span
    of each choice left until then, those of the largest distance.
    """
    if cap < 0:
        raise ValidationError([{"kind": "cap-out-of-range", "cap": cap}])
    exclude = Echelon(2 * n, [*exclude_rows, *destabs])
    kernel = kernel_under_form(BitMatrix(commute_rows, 2 * n))
    # Every choice's span has the same dimension, so one of them decides.
    if all(exclude.reduce(vec)[0] == 0 for vec in kernel.rows):
        return DistanceResult(None, cap, no_logicals=True)
    offset, t, top = len(exclude_rows), len(destabs), len(destabs) * len(bare)
    for row in bare:
        exclude.add(row)
    alive = Echelon(top + 1)  # coordinate j*t + i is bit j of L_i
    tested = 0
    for tested, vec in enumerate(commuting_paulis_up_to_weight(n, cap, commute_rows), 1):
        residue, combo = exclude.reduce(vec)
        if bare and not residue:
            used, part = combo >> offset & ((1 << t) - 1), combo >> (offset + t)
            for j in range(len(bare)):
                alive.add(used << (j * t) | (part >> j & 1) << top)
            residue = alive.mask >> top
        if residue:
            witness = decode(vec, n)
            return DistanceResult(weight(witness), cap, witness=witness, candidates=tested)
    return DistanceResult(None, cap, exceeded_cap=True, candidates=tested)


def isg_distance(generators: list[PauliOperator], n: int, cap: int = 6) -> DistanceResult:
    """Distance of a static stabilizer group: lightest normalizer element
    outside the group."""
    require_size(n, generators, "generators")
    rows = [encode(g) for g in generators]
    return _min_weight_outside(n, rows, rows, cap)


def subsystem_distance(gauge: GaugeGroup, cap: int = 6) -> DistanceResult:
    """Lightest dressed logical: commutes with the gauge group's center
    but lies outside the gauge group."""
    return _min_weight_outside(
        gauge.n, [encode(c) for c in gauge.center], [encode(g) for g in gauge.generators], cap
    )


def unmasked_distance(gauge: GaugeGroup, cap: int = 6) -> DistanceResult:
    """Lightest operator commuting with every unmasked stabilizer but
    outside the gauge group.

    Under the exhaustive destabilizer policy the result is the maximum
    over every choice of T's destabilizers, the freedom the temporarily
    masked stabilizers leave open, found in one search: with no bare
    logical, that of :func:`subsystem_distance`, as U is the center.
    """
    rows = [encode(g) for g in gauge.generators]
    fixed = len(rows) - len(gauge.t_destabs)
    return _min_weight_outside(
        gauge.n, [encode(c) for c in gauge.center], rows[:fixed], cap,
        rows[fixed:], [encode(b) for b in gauge.alternatives],
    )

"""
Cycle-level analysis of periodic measurement schedules.

A Floquet schedule repeats one measurement sequence forever, starting
from the empty stabilizer group.  The tools here trace the ISG through
whole cycles, verify the two structural theorems (cycle-over-cycle group
inclusion and non-increasing generator growth), measure initialization
depth, and build the two explicit slow-initialization schedules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import filterfalse

from .classify import _reports
from .engine import (
    CapExceededError,
    DynamicalCode,
    InternalInvariantError,
    ValidationError,
    resolve_window,
    validate_code,
)
# in_span stays importable from this module, as from gf2 and engine.
from .gf2 import bits, in_span as in_span, solve_linear
from .pauli import PauliOperator, decode, encode, product, symplectic_partner
from .tableau import Tableau, encoding


@dataclass
class CycleTrace:
    """Per-cycle, per-measurement-index ISG snapshots of a repeated sequence.

    ``snapshots[j][i]`` is the generator list right after measuring
    element i of the sequence in cycle j (both zero-based), as encoded
    rows (:func:`~dyncode.pauli.encode`).  ``fixpoint`` is the first
    cycle index j (zero-based) with every in-cycle group equal to that of
    cycle j+1, or None if never reached.  ``escapes`` lists, per (j, i)
    in order, the encoded first generator of snapshot (j, i) outside the
    group of snapshot (j+1, i), where there is one.  Callers decode the
    rows they report (:func:`~dyncode.pauli.decode`).
    """

    n: int
    sequence: tuple[PauliOperator, ...]
    snapshots: list[list[list[int]]] = field(default_factory=list)
    new_counts: list[int] = field(default_factory=list)
    fixpoint: int | None = None
    escapes: list[tuple[int, int, int]] = field(default_factory=list)


def iterate_cycles(
    sequence: list[PauliOperator], n: int, max_cycles: int = 0, encoded=None
) -> CycleTrace:
    """Repeat a measurement sequence from the empty group, snapshotting.

    Runs until the in-cycle groups repeat exactly (fixpoint) or
    ``max_cycles`` is hit; a zero cap defaults to n+2 cycles, enough for
    any schedule since the generator count grows by at least one per
    non-stationary cycle.  After each measurement the tableau tests each
    generator of the previous cycle's snapshot at the same index for
    membership, in one O(weight) pass, unless it is literally one of the
    current generators: the first one outside is recorded in ``escapes``,
    and two snapshots hold the same group when none escapes and they have
    as many generators.  ``encoded`` holds (row, set bits, partner bits)
    of each element of the sequence when known.
    """
    if max_cycles <= 0:
        max_cycles = n + 2
    trace = CycleTrace(n, tuple(sequence))
    tab = Tableau(n)
    if encoded is None:
        encoded = [encoding(encode(op), n) for op in sequence]
    for cycle in range(max_cycles):
        start_rank = len(tab)
        cycle_rows: list[list[int]] = []
        settled = cycle > 0
        for i, entry in enumerate(encoded):
            tab.measure(*entry)
            rows = tab.generators()
            if cycle > 0:
                prev_rows = trace.snapshots[-1][i]
                for row in filterfalse(set(rows).__contains__, prev_rows):
                    if not tab.member(bits(row)):
                        trace.escapes.append((cycle - 1, i, row))
                        settled = False
                        break
                settled = settled and len(rows) == len(prev_rows)
            cycle_rows.append(rows)
        trace.snapshots.append(cycle_rows)
        trace.new_counts.append(len(tab) - start_rank)
        if settled:
            trace.fixpoint = cycle - 1
            break
    return trace


def check_subset_monotonicity(trace: CycleTrace) -> list[dict]:
    """Verify cycle-over-cycle group inclusion of all in-cycle ISGs.

    Returns a violation record per failing (cycle, index) pair, naming
    the first generator outside the later group (the trace's
    ``escapes``); an empty list means every snapshot group is contained
    in the corresponding group one cycle later.
    """
    return [
        {"cycle": j, "index": i, "operator": str(decode(row, trace.n))}
        for j, i, row in trace.escapes
    ]


def growth_accounting(trace: CycleTrace) -> dict:
    """Rank growth per cycle and per in-cycle measurement index.

    Returns the per-cycle deltas, the per-(cycle, index) growth flags,
    and any violations of the two growth laws: deltas never increase
    cycle over cycle, and an index can only grow the group in a cycle if
    it also did in the previous cycle.
    """
    growth_flags: list[list[bool]] = []
    prev_rank = 0
    for cycle_snaps in trace.snapshots:
        flags = []
        for snap in cycle_snaps:
            # Snapshot generators are independent: the rank is the count.
            flags.append(len(snap) > prev_rank)
            prev_rank = len(snap)
        growth_flags.append(flags)
    deltas = trace.new_counts
    violations = []
    for j in range(1, len(deltas)):
        if deltas[j] > deltas[j - 1]:
            violations.append({"kind": "delta-increase", "cycle": j})
        for i, grew in enumerate(growth_flags[j]):
            if grew and not growth_flags[j - 1][i]:
                violations.append({"kind": "new-growth-index", "cycle": j, "index": i})
    return {"deltas": list(deltas), "growth_flags": growth_flags,
            "violations": violations}


def initialization_depth(trace: CycleTrace) -> int:
    """Number of cycles until the end-of-cycle group stops growing.

    Once a full cycle adds no generator, no later cycle can, so this is
    the index of the last growing cycle.  Note the mid-cycle snapshots
    may keep reshuffling for one more cycle before the per-index
    fixpoint (``trace.fixpoint``) is reached.
    """
    if trace.fixpoint is None and (not trace.new_counts or trace.new_counts[-1]):
        raise CapExceededError("growth did not settle within the traced cycles")
    depth = 0
    for j, delta in enumerate(trace.new_counts, start=1):
        if delta:
            depth = j
    return depth


def build_worst_case_sequence(n: int) -> DynamicalCode:
    """A periodic schedule on n qubits taking exactly n-1 cycles to initialize.

    The fully initialized group is <Z_1..Z_n>.  The base three-generator
    sequence gains one stabilizer per cycle; each extension level inserts
    a four-measurement block, built from the group present just before
    the final measurement of the steady cycle, that defers the new
    generator Z_k by one more cycle.  The advertised cycle count is
    asserted at construction time.

    Raises:
        ValueError: if n < 3.
    """
    if n < 3:
        raise ValueError("the construction needs at least 3 stabilizers")

    def z(*qubits):
        mask = 0
        for q in qubits:
            mask |= 1 << (q - 1)
        return PauliOperator(n, 0, mask)

    def pauli(x_qubits, z_qubits):
        xm = zm = 0
        for q in x_qubits:
            xm |= 1 << (q - 1)
        for q in z_qubits:
            zm |= 1 << (q - 1)
        return PauliOperator(n, xm, zm)

    # Base sequence for three stabilizers, with s_i = Z_i and d_i = X_i.
    seq = [
        z(1),
        pauli([1, 2, 3], []),
        pauli([2, 3], [1]),
        pauli([1], [2, 3]),
        z(2),
    ]
    for k in range(4, n + 1):
        seq = _extend_worst_case(seq, k, n)
    trace = iterate_cycles(seq, n)
    depth = initialization_depth(trace)
    final_rank = len(trace.snapshots[-1][-1])
    if depth != n - 1 or final_rank != n:
        raise InternalInvariantError(
            f"worst-case construction failed: depth {depth} (want {n - 1}), "
            f"final rank {final_rank} (want {n})"
        )
    return DynamicalCode.make(n, [], [[m] for m in seq],
                              labels={"name": "worst-case", "stabilizers": n})


def _extend_worst_case(
    seq: list[PauliOperator], k: int, n: int
) -> list[PauliOperator]:
    """Insert the level-k block before the final measurement of ``seq``.

    ``seq`` initializes <Z_1..Z_{k-1}> in k-2 cycles.  In the steady
    cycle the generator evolved from Z_i is tracked by list position;
    the block reuses the base sequence's shape with Z_1 -> (slot of
    Z_1), Z_2 -> (slot of Z_{k-1}), Z_3 -> Z_k, and destabilizers solved
    against the group at the insertion point.
    """
    # Evolve position-tracked generators through the steady cycle, up to
    # just before the final measurement.
    z = [PauliOperator(n, 0, 1 << i) for i in range(k - 1)]  # Z_1 .. Z_{k-1}
    steady = DynamicalCode.make(n, z, [[m] for m in seq[:-1]])
    slots = [decode(row, n) for row in isg_rows(steady, len(steady.rounds))]
    if len(slots) != k - 1:
        raise InternalInvariantError("steady-cycle tracking changed the rank")

    sigma_s1 = slots[0]
    sigma_s2 = slots[k - 2]
    sigma_s3 = PauliOperator(n, 0, 1 << (k - 1))

    # Destabilizers: anticommute with their own target only, commute with
    # every other slot and with each other.  The slots act on the first
    # k-1 qubits only, so the least solution does too, and it commutes
    # with Z_k and X_k.
    def solve_destab(target_index: int, others: list[PauliOperator]) -> PauliOperator:
        rows = [symplectic_partner(encode(op), n) for op in slots + others]
        rhs = [int(i == target_index) for i in range(len(rows))]
        solution = solve_linear(rows, rhs, 2 * n)
        if solution is None:
            raise InternalInvariantError("no destabilizer for the insertion block")
        return decode(solution, n)

    sigma_d1 = solve_destab(0, [])
    sigma_d2 = solve_destab(k - 2, [sigma_d1])
    sigma_d3 = PauliOperator(n, 1 << (k - 1), 0)

    block = [
        product(product(sigma_d1, sigma_d2), sigma_d3),
        product(product(sigma_s1, sigma_d2), sigma_d3),
        product(product(sigma_d1, sigma_s2), sigma_s3),
        sigma_s1,
    ]
    return seq[:-1] + block + [seq[-1]]


def build_1d_chain(n: int) -> DynamicalCode:
    """The local 1D schedule that needs O(n) cycles to initialize.

    Round 1 measures X1; later rounds repeat a 4-round pattern of
    nearest-neighbor XX and ZZ checks whose X-chain grows by at most
    one link per round.

    Raises:
        ValueError: if n < 5.
    """
    if n < 5:
        raise ValueError("the chain pattern needs at least 5 qubits")

    def xx(a, b):
        return PauliOperator(n, (1 << (a - 1)) | (1 << (b - 1)), 0)

    def zz(a, b):
        return PauliOperator(n, 0, (1 << (a - 1)) | (1 << (b - 1)))

    patterns = [
        lambda i: (4 * i + 2, 4 * i + 3, xx),
        lambda i: (4 * i + 1, 4 * i + 2, zz),
        lambda i: (4 * i + 4, 4 * i + 5, xx),
        lambda i: (4 * i + 3, 4 * i + 4, zz),
    ]
    rounds: list[list[PauliOperator]] = [[PauliOperator(n, 1, 0)]]
    for r in range(n + 2):
        make = patterns[r % 4]
        rnd = []
        i = 0
        while True:
            a, b, ctor = make(i)
            if b > n:
                break
            rnd.append(ctor(a, b))
            i += 1
        rounds.append(rnd)
    return DynamicalCode.make(n, [], rounds, labels={"name": "1d-chain", "n": n})


def isg_rows(code: DynamicalCode, rounds: int) -> list[int]:
    """Encoded generators of the ISG reached from s0 after ``rounds``
    rounds (plain stabilizer update, no outcomes), as
    :func:`simulate_measurements` leaves them.  A count outside the
    schedule raises :class:`ValidationError`."""
    window = resolve_window(code, rounds)
    tab = Tableau(code.n)
    for vec, vec_bits, partner_bits in code.encoded_s0:
        tab.append(vec, partner_bits, tab.masks(vec_bits))
    for rnd in code.encoded_rounds[:window]:
        for entry in rnd:
            tab.measure(*entry)
    return tab.generators()


def unmask_cycle_count(
    code: DynamicalCode, isg_round: int = 0, max_cycles: int = 0
) -> int:
    """Whole cycles of the schedule needed to settle every syndrome.

    Treats ``code.rounds`` as one cycle.  The ISG reached after
    ``isg_round`` rounds is classified in one forward pass over the
    repeated (rotated) cycle, read at each cycle boundary; returns the
    smallest count after which no stabilizer is left temporarily masked.
    An empty ISG has no stabilizer to mask, so its count is 1 once the
    code of one cycle passes validation, with no classification run.

    Raises:
        ValidationError: if the schedule has no rounds, or the derived
            code fails validation.
        CapExceededError: if the cap is hit before T empties.
    """
    period = len(code.rounds)
    if not period:
        raise ValidationError([{"kind": "empty-schedule"}])
    isg = isg_rows(code, isg_round)
    shift = isg_round % period
    cycle = [(shift + i) % period for i in range(period)]
    diagnostics = validate_code(code.derive(isg, cycle))
    if diagnostics:
        raise ValidationError(diagnostics)
    if not isg:
        return 1
    if max_cycles <= 0:
        max_cycles = len(isg) + 2
    windows = range(period, period * max_cycles + 1, period)
    reports = _reports(code.derive(isg, cycle * max_cycles), windows)
    for count, report in enumerate(reports, start=1):
        if not report.T:
            return count
    raise CapExceededError(
        f"syndromes not settled within {max_cycles} cycles"
    )

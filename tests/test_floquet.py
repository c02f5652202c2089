import hashlib
import json
import random

import pytest

from dyncode import (
    DynamicalCode,
    build_1d_chain,
    build_worst_case_sequence,
    check_subset_monotonicity,
    growth_accounting,
    initialization_depth,
    iterate_cycles,
    unmask_cycle_count,
)
from dyncode import classify, floquet
from dyncode.classify import run_classification
from dyncode.engine import CapExceededError, ValidationError, simulate_measurements
from dyncode.floquet import isg_rows
from dyncode.gf2 import rank
from dyncode.library import bacon_shor, honeycomb, honeycomb_cycle, shor_code
from dyncode.pauli import decode, format_pauli, parse_pauli
from dyncode.tableau import Tableau

from dyncode import ISGState

from oracles import (
    group_elements,
    random_instance,
    random_round,
    reference_cycles,
    reference_measure,
    reference_unmask_cycle_count,
    round_isgs,
    spans_equal,
)


def flat(code):
    return [m for rnd in code.rounds for m in rnd]


CYCLE_SEQUENCES = {
    **{f"worst-case-{n}": (flat(build_worst_case_sequence(n)), n) for n in range(3, 17)},
    **{f"chain-{n}": (flat(build_1d_chain(n)), n) for n in (5, 8, 13, 16)},
    "honeycomb-3x3": (flat(honeycomb(3, 3)), 18),
}


class SkippingTableau(Tableau):
    """A tableau that leaves out the measurements whose running numbers
    are in ``skip``, so that a later snapshot can lose generators of an
    earlier one: a trace with escapes, which no schedule measured in full
    has."""

    def __init__(self, n, skip):
        super().__init__(n)
        self.skip, self.count = skip, 0

    def measure(self, vec, vec_bits, partner_bits):
        self.count += 1
        if self.count - 1 in self.skip:
            return None, 0
        return super().measure(vec, vec_bits, partner_bits)


class TestIterateCycles:
    def test_honeycomb_reaches_fixpoint_quickly(self):
        n, cycle = honeycomb_cycle(3, 3)
        flat = [m for rnd in cycle for m in rnd]
        trace = iterate_cycles(flat, n)
        assert trace.fixpoint is not None
        assert initialization_depth(trace) == 2
        assert check_subset_monotonicity(trace) == []
        assert growth_accounting(trace)["violations"] == []

    def test_truncated_trace_raises_on_depth(self):
        n, cycle = honeycomb_cycle(3, 3)
        flat = [m for rnd in cycle for m in rnd]
        trace = iterate_cycles(flat, n, max_cycles=1)
        with pytest.raises(CapExceededError):
            initialization_depth(trace)

    def test_snapshots_and_fixpoint_match_the_reference(self):
        rng = random.Random(6022)
        for _ in range(40):
            n = rng.randint(2, 5)
            sequence = []
            for _ in range(rng.randint(1, 3)):
                sequence.extend(random_round(rng, n, rng.randint(1, 2)))
            trace = iterate_cycles(sequence, n)
            snapshots = [[[decode(row, n) for row in snap] for snap in cycle_snaps]
                         for cycle_snaps in trace.snapshots]
            state = ISGState(n)
            for j, cycle_snaps in enumerate(snapshots):
                for i, m in enumerate(sequence):
                    state, _ = reference_measure(state, m)
                    assert cycle_snaps[i] == state.generators
                    if j:
                        earlier = group_elements(snapshots[j - 1][i], n)
                        assert earlier <= group_elements(state.generators, n)
            last = len(snapshots) - 1
            equal = [
                all(spans_equal(a, b, n) for a, b in zip(snapshots[j], snapshots[j + 1]))
                for j in range(last)
            ]
            assert trace.fixpoint == (last - 1 if equal and equal[-1] else None)
            assert not any(equal[:-1])

    @pytest.mark.parametrize("name", CYCLE_SEQUENCES)
    def test_trace_matches_the_scan_reference(self, name):
        # Most snapshot generators are literally generators of the next
        # cycle's snapshot, and only the others are tested for membership.
        sequence, n = CYCLE_SEQUENCES[name]
        trace = iterate_cycles(sequence, n)
        assert (trace.snapshots, trace.escapes, trace.fixpoint) == reference_cycles(sequence, n)
        assert not trace.escapes and trace.fixpoint is not None

    def trace_skipping(self, monkeypatch, sequence, n, skip, max_cycles=0):
        monkeypatch.setattr(floquet, "Tableau", lambda n: SkippingTableau(n, skip))
        trace = iterate_cycles(sequence, n, max_cycles=max_cycles)
        assert (trace.snapshots, trace.escapes, trace.fixpoint) == reference_cycles(
            sequence, n, max_cycles, skip
        )
        return trace

    def test_escapes_of_a_hand_made_trace(self, monkeypatch):
        # Z1 X1 with the second Z1 left out: the snapshot after Z1 is X1 in
        # cycle 1, so Z1 (row 2) escapes; in cycle 2 X1 (row 1) does.
        sequence = [parse_pauli("Z", 1), parse_pauli("X", 1)]
        trace = self.trace_skipping(monkeypatch, sequence, 1, {2}, max_cycles=5)
        assert trace.escapes == [(0, 0, 2), (1, 0, 1)]
        assert trace.fixpoint == 2

    def test_escapes_match_the_scan_reference(self, monkeypatch):
        rng = random.Random(6023)
        escaping = 0
        for _ in range(60):
            n = rng.randint(2, 5)
            sequence = []
            for _ in range(rng.randint(1, 3)):
                sequence.extend(random_round(rng, n, rng.randint(1, 3)))
            count = len(sequence) * (n + 2)
            skip = {c for c in range(len(sequence), count) if rng.random() < 0.2}
            escaping += bool(self.trace_skipping(monkeypatch, sequence, n, skip).escapes)
        assert escaping >= 20

    def test_fuzzed_schedules_obey_the_growth_laws(self):
        rng = random.Random(6021)
        for _ in range(40):
            n = rng.randint(2, 5)
            sequence = []
            for _ in range(rng.randint(1, 3)):
                sequence.extend(random_round(rng, n, rng.randint(1, 2)))
            trace = iterate_cycles(sequence, n)
            assert trace.fixpoint is not None
            assert check_subset_monotonicity(trace) == []
            accounting = growth_accounting(trace)
            assert accounting["violations"] == []
            deltas = accounting["deltas"]
            assert all(b <= a for a, b in zip(deltas, deltas[1:]))


@pytest.mark.parametrize("sequence, n", [
    ([m for rnd in honeycomb_cycle(3, 3)[1] for m in rnd], 18),
    ([m for rnd in build_worst_case_sequence(5).rounds for m in rnd], 5),
    ([m for rnd in build_1d_chain(10).rounds for m in rnd], 10),
])
def test_snapshot_rank_is_its_length(sequence, n):
    # growth_accounting reads ranks as generator counts.
    trace = iterate_cycles(sequence, n)
    for cycle_snaps in trace.snapshots:
        for snap in cycle_snaps:
            assert rank(snap, 2 * n) == len(snap)


class TestWorstCase:
    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            build_worst_case_sequence(2)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_initializes_in_exactly_n_minus_1_cycles(self, n):
        code = build_worst_case_sequence(n)
        sequence = [m for rnd in code.rounds for m in rnd]
        trace = iterate_cycles(sequence, n)
        assert initialization_depth(trace) == n - 1
        assert rank(trace.snapshots[-1][-1], 2 * n) == n

    def test_schedules_are_pinned(self):
        # sha256 of every schedule for n = 3..16, recorded before the
        # destabilizer solve moved from truncated to full-width rows.
        schedules = {
            n: [[format_pauli(m) for m in r] for r in build_worst_case_sequence(n).rounds]
            for n in range(3, 17)
        }
        digest = hashlib.sha256(json.dumps(schedules, sort_keys=True).encode()).hexdigest()
        assert digest == "5f06dc9b8d9b15185c992d4ee082168294d1e0ffd7a869379bf010ed6d1b1123"

    def test_one_new_generator_per_cycle(self):
        code = build_worst_case_sequence(5)
        sequence = [m for rnd in code.rounds for m in rnd]
        trace = iterate_cycles(sequence, 5)
        deltas = growth_accounting(trace)["deltas"]
        assert deltas[0] == 2
        assert all(d == 1 for d in deltas[1 : 4])
        assert all(d == 0 for d in deltas[4:])


class TestChain:
    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            build_1d_chain(4)

    def test_known_early_history(self):
        code = build_1d_chain(10)
        hist = round_isgs(code)
        n = 10

        def ops(strings):
            return [parse_pauli(s, n) for s in strings]

        assert spans_equal(hist[0], ops(["X1"]), n)
        assert spans_equal(hist[1], ops(["X1", "X2 X3", "X6 X7"]), n)
        assert spans_equal(
            hist[2], ops(["Z1 Z2", "Z5 Z6", "Z9 Z10", "X1 X2 X3"]), n
        )

    def test_x_chain_takes_linear_time(self):
        n = 10
        code = build_1d_chain(n)
        hist = round_isgs(code)
        full_chain = parse_pauli(" ".join(f"X{i}" for i in range(1, n)), n)
        first = next(
            r for r, snap in enumerate(hist, start=1) if full_chain in snap
        )
        assert first == n - 1


class TestIsgAfter:
    def test_generators_match_the_symbolic_simulation(self):
        rng = random.Random(519)
        codes = [random_instance(rng) for _ in range(40)]
        codes += [build_1d_chain(12), honeycomb(3, 3), bacon_shor(3, 3)]
        for code in codes:
            for rounds in range(len(code.rounds) + 1):
                state, _ = simulate_measurements(code, window=rounds)
                assert [decode(row, code.n) for row in isg_rows(code, rounds)] == state.generators


class TestUnmaskCycles:
    def test_trivial_schedule_unmasks_in_one_cycle(self):
        code = DynamicalCode.make(
            1, [parse_pauli("Z1", 1)], [[parse_pauli("Z1", 1)]]
        )
        assert unmask_cycle_count(code) == 1

    def test_cap_is_enforced(self):
        # The measurement never reveals the initial Z, so T never empties.
        code = DynamicalCode.make(
            2, [parse_pauli("Z1", 2)], [[parse_pauli("Z2", 2)]]
        )
        with pytest.raises(CapExceededError):
            unmask_cycle_count(code, max_cycles=3)

    @pytest.mark.parametrize("name", CYCLE_SEQUENCES)
    def test_empty_isg_takes_one_cycle(self, name):
        # The classification of the first derived code, which an empty ISG
        # skips, finds nothing temporarily masked.
        sequence, n = CYCLE_SEQUENCES[name]
        code = DynamicalCode.make(n, [], [[m] for m in sequence])
        assert unmask_cycle_count(code) == 1
        assert not run_classification(code.derive([], range(len(sequence)))).T

    def test_empty_isg_of_random_schedules(self):
        rng = random.Random(6024)
        for _ in range(40):
            code = random_instance(rng)
            code = DynamicalCode.make(code.n, [], code.rounds)
            assert unmask_cycle_count(code) == 1
            assert not run_classification(code.derive([], range(len(code.rounds)))).T

    @pytest.mark.parametrize("empty, isg_round, where", [
        (1, 0, "round 2"), (1, 1, "round 1"), (2, 1, "round 2"), (2, 2, "round 1"),
    ])
    def test_empty_isg_reports_the_derived_codes_diagnostics(self, empty, isg_round, where):
        # The last round anticommutes, and the ISG after the empty rounds
        # is empty: the rotated cycle names the faulty round as the
        # classification of the first derived code does.
        bad = [parse_pauli("X", 1), parse_pauli("Z", 1)]
        code = DynamicalCode.make(1, [], [[]] * empty + [bad])
        period = empty + 1
        cycle = [(isg_round + i) % period for i in range(period)]
        with pytest.raises(ValidationError) as expected:
            run_classification(code.derive([], cycle))
        with pytest.raises(ValidationError) as caught:
            unmask_cycle_count(code, isg_round=isg_round)
        assert caught.value.diagnostics == expected.value.diagnostics
        assert [d["where"] for d in caught.value.diagnostics] == [where]

    @pytest.mark.parametrize(
        "isg_round, kind", [(-1, "window-out-of-range"), (2, "window-too-large")]
    )
    def test_isg_round_outside_the_schedule(self, isg_round, kind):
        code = DynamicalCode.make(
            1, [parse_pauli("Z1", 1)], [[parse_pauli("Z1", 1)]]
        )
        with pytest.raises(ValidationError) as caught:
            unmask_cycle_count(code, isg_round=isg_round)
        assert caught.value.diagnostics[0]["kind"] == kind


def probe_outcome(probe, code, isg_round):
    """The count, or the type, message and diagnostics of the exception."""
    try:
        return probe(code, isg_round=isg_round)
    except (CapExceededError, ValidationError) as error:
        return type(error), str(error), getattr(error, "diagnostics", None)


class TestUnmaskProbeOnePass:
    def test_matches_the_per_count_reference(self):
        codes = [random_instance(random.Random(seed)) for seed in range(400)]
        codes += [shor_code(mask_z1z2=True), honeycomb(3, 3), bacon_shor(3, 3)]
        # A last round that anticommutes: the one-cycle code's diagnostics.
        bad = [parse_pauli("X1", 2), parse_pauli("Z1", 2)]
        codes += [DynamicalCode.make(2, [parse_pauli("Z2", 2)], [[parse_pauli("Z1", 2)], bad])]
        counts = set()
        for code in codes:
            for isg_round in range(len(code.rounds) + 1):
                got = probe_outcome(unmask_cycle_count, code, isg_round)
                assert got == probe_outcome(reference_unmask_cycle_count, code, isg_round)
                counts.add(got if isinstance(got, int) else got[0])
        assert counts == {1, 2, CapExceededError, ValidationError}

    def test_masked_shor_is_one_pass_of_ten_cycles(self, monkeypatch):
        # 7 measurements a cycle and a cap of |ISG| + 2 = 10 cycles: one
        # pass of 70, where a classification per count measured
        # 7 * (1 + 2 + ... + 10) = 385.
        processed = []

        class CountingTableau(Tableau):
            """One ``masks`` call per measurement of a forward pass; the
            replay's tableau keeps no logical rows and is not counted."""

            def masks(self, vec_bits):
                if self.logical.rows:
                    processed.append(vec_bits)
                return super().masks(vec_bits)

        code = shor_code(mask_z1z2=True)
        monkeypatch.setattr(classify, "Tableau", CountingTableau)
        for probe, expected in ((unmask_cycle_count, 70), (reference_unmask_cycle_count, 385)):
            processed.clear()
            with pytest.raises(CapExceededError, match="not settled within 10 cycles"):
                probe(code)
            assert len(processed) == expected

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyncode import (
    DynamicalCode,
    SpacetimeError,
    build_gauge_group,
    build_logical_trace,
    logical_outcome,
    run_classification,
    simulate_measurements,
    syndrome_of_spacetime_error,
    verify_round0_decoding,
)
from dyncode.classify import _min_weight_outside
from dyncode.cli import _syndrome_decomposition
from dyncode.engine import ISGState, ValidationError
from dyncode.errors import traced_simulation
from dyncode.gf2 import Echelon, bits, in_span
from dyncode.library import shor_code
from dyncode.pauli import (
    PauliOperator,
    commuting_paulis_up_to_weight,
    encode,
    identity,
    parse_pauli,
    product,
    symplectic_product,
    weight,
)

from oracles import (
    apply_error,
    random_instance,
    random_pauli,
    reference_logical_trace,
    reference_measure,
    reference_round0_decoding,
)
from test_golden import codes as golden_codes


def code_of(n, s0, rounds):
    return DynamicalCode.make(
        n,
        [parse_pauli(s, n) for s in s0],
        [[parse_pauli(m, n) for m in rnd] for rnd in rounds],
    )


class TestSpacetimeError:
    def test_rejects_negative_round(self):
        with pytest.raises(ValidationError):
            SpacetimeError.make(2, {-1: parse_pauli("X1", 2)})

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValidationError):
            SpacetimeError.make(2, {0: parse_pauli("X1", 3)})

    def test_net_after_accumulates_later_errors(self):
        e = SpacetimeError.make(
            3, {0: parse_pauli("X1", 3), 2: parse_pauli("Z2", 3)}
        )
        assert e.by_round == ((0, parse_pauli("X1", 3)), (2, parse_pauli("Z2", 3)))
        assert e.net_after(0) == parse_pauli("X1 Z2", 3)
        assert e.net_after(1) == parse_pauli("Z2", 3)
        assert e.net_after(3) == identity(3)


class TestSyndromeFlip:
    def test_rejects_bad_decomposition(self):
        e = SpacetimeError.make(2, {})
        with pytest.raises(ValidationError):
            syndrome_of_spacetime_error(
                e, {1: parse_pauli("X1", 2)}, parse_pauli("X1 X2", 2)
            )

    def test_flip_depends_on_error_timing(self):
        # Stabilizer x1..x6 reconstructed from three two-body pieces.
        n = 6
        pieces = {
            1: parse_pauli("X1 X2", n),
            2: parse_pauli("X3 X4", n),
            3: parse_pauli("X5 X6", n),
        }
        stabilizer = parse_pauli("X1 X2 X3 X4 X5 X6", n)

        def flip(round_index, pauli):
            e = SpacetimeError.make(n, {round_index: parse_pauli(pauli, n)})
            return syndrome_of_spacetime_error(e, pieces, stabilizer)

        # Z3 before the x3x4 measurement disturbs it; afterwards it does not.
        assert flip(1, "Z3") == 1
        assert flip(2, "Z3") == 0
        # Z2 after round 1 leaves the remaining pieces untouched.
        assert flip(1, "Z2") == 0
        # Z3 Z4 flips nothing: both flips land on the same piece.
        assert flip(1, "Z3 Z4") == 0

    def test_matches_forward_simulation(self):
        rng = random.Random(777)
        checked = 0
        while checked < 60:
            code = random_instance(rng)
            report = run_classification(code)
            if not any(u.syndrome.symbols for u in report.U):
                continue
            checked += 1
            round_index = rng.randint(0, len(code.rounds))
            e_op = random_pauli(rng, code.n)
            error = SpacetimeError.make(code.n, {round_index: e_op})
            _, clean = simulate_measurements(code)
            _, errored = simulate_measurements(
                code, errors={round_index: e_op}
            )
            for u in report.U:
                if not u.syndrome.symbols:
                    continue
                a = syndrome_of_spacetime_error(
                    error, _syndrome_decomposition(code.n, list(code.measurements()), u), u.op
                )
                diff_sign = 0
                for s in u.syndrome.symbols:
                    diff_sign ^= clean[s.index][2].sign ^ errored[s.index][2].sign
                    assert clean[s.index][2].symbols == errored[s.index][2].symbols
                assert diff_sign == a


# Seeds of random_instance(max_n=6, max_s0=4) among 0-1999 where a joining
# measurement equals a tracked logical and reads out no other, so the
# simulation keeps that logical live while its trace is read out.
READ_OUT_RULES_DIFFER = (158, 217, 363, 434, 503, 719, 1276, 1575, 1764)


def check_one_pass(code, logicals, errors):
    """``traced_simulation`` gives the traces of the standalone reference
    (None where it gives None), each trace still in its own tracked slot,
    and the state and record of the scan update with ``apply_error``."""
    evolution, record, traces = traced_simulation(code, logicals, errors)
    assert traces == reference_logical_trace(code, logicals)
    tracked = evolution.tableau.tracked
    for slot, trace in enumerate(traces):
        if trace is not None:
            assert encode(trace.l_final) == tracked.rows[slot]
    state = ISGState.initial(code, track_logicals=True, logicals=logicals)
    expected = []
    if 0 in errors:
        state = apply_error(state, errors[0])
    for r, rnd in enumerate(code.rounds, start=1):
        for m in rnd:
            state, outcome = reference_measure(state, m)
            expected.append((len(expected), m, outcome))
        if r in errors:
            state = apply_error(state, errors[r])
    assert (evolution.state(), record) == (state, expected)
    return evolution, traces


class TestOnePass:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.data())
    def test_drawn_codes_logicals_and_errors(self, seed, data):
        code = random_instance(random.Random(seed))
        n, basis = code.n, code.logical_basis
        logicals = []
        for _ in range(data.draw(st.integers(0, 4)) if basis else 0):
            # a nonzero combination of the basis times an element of s0
            op = identity(n)
            for i in bits(data.draw(st.integers(1, (1 << len(basis)) - 1))):
                op = product(op, basis[i])
            for i in bits(data.draw(st.integers(0, (1 << len(code.s0)) - 1))):
                op = product(op, code.s0[i])
            logicals.append(op)
        rounds = data.draw(st.sets(st.integers(0, len(code.rounds))))
        errors = {
            r: PauliOperator(n, data.draw(st.integers(0, (1 << n) - 1)),
                             data.draw(st.integers(0, (1 << n) - 1)))
            for r in sorted(rounds)
        }
        check_one_pass(code, logicals, errors)

    def test_two_qubit_code_reads_out_both_logicals(self):
        code = code_of(2, ["XZ"], [["IZ"], ["IY"]])
        _, traces = check_one_pass(code, list(code.logical_basis), {1: parse_pauli("X1", 2)})
        assert traces == [None, None]

    @pytest.mark.parametrize("seed", READ_OUT_RULES_DIFFER)
    def test_codes_where_the_read_out_rules_differ(self, seed):
        code = random_instance(random.Random(seed), max_n=6, max_s0=4)
        logicals = list(code.logical_basis)
        error = random_pauli(random.Random(seed), code.n)
        evolution, traces = check_one_pass(code, logicals, {0: error})
        live = evolution.tableau.tracked.slots()
        assert len(live) > sum(trace is not None for trace in traces)


class TestLogicalTrace:
    def example_code(self):
        return code_of(3, ["Z1 Z2"], [["Z2 Z3"], ["X3"]])

    def test_rejects_non_logicals(self):
        code = self.example_code()
        with pytest.raises(ValidationError):
            build_logical_trace(code, [parse_pauli("X1", 3)])
        with pytest.raises(ValidationError):
            build_logical_trace(code, [parse_pauli("Z3", 3), parse_pauli("Z1 Z2", 3)])

    def test_one_pass_equals_separate_traces(self):
        from dyncode import canonical_logicals

        rng = random.Random(3131)
        for _ in range(40):
            code = random_instance(rng)
            logicals = [op for op, _ in canonical_logicals(code.n, list(code.s0))]
            expected = [build_logical_trace(code, [op])[0] for op in logicals]
            assert build_logical_trace(code, logicals) == expected

    def test_schedules_that_measure_the_logical_read_it_out(self):
        # Z2 joins the group: it reads out X2, which anticommutes with it,
        # and Z2 itself, which it equals, whether traced alone or together.
        code = code_of(2, ["Z1"], [["Z2"]])
        x2, z2 = parse_pauli("X2", 2), parse_pauli("Z2", 2)
        assert build_logical_trace(code, [x2]) == [None]
        assert build_logical_trace(code, [z2]) == [None]
        assert build_logical_trace(code, [x2, z2]) == [None, None]
        # Measuring IZ reads out ZX and equals the logical IZ, so neither
        # has a trace; IY then replaces IZ in the group.
        code = code_of(2, ["X1 Z2"], [["Z2"], ["Y2"]])
        logicals = [parse_pauli("Z1 X2", 2), parse_pauli("Z2", 2)]
        assert build_logical_trace(code, logicals) == [None, None]
        assert build_logical_trace(code, logicals[1:]) == [None]

    def test_final_representative_decomposition(self):
        code = self.example_code()
        [trace] = build_logical_trace(code, [parse_pauli("Z3", 3)])
        assert trace.l_final == parse_pauli("Z2", 3)
        acc = trace.l0
        for i in trace.s0_combination.indices():
            acc = product(acc, code.s0[i])
        for op, _ in trace.round_factors.values():
            acc = product(acc, op)
        assert acc == trace.l_final

    @pytest.mark.parametrize("l0_value", [1, -1])
    @pytest.mark.parametrize("outcome", [1, -1])
    def test_worked_examples_flip_only_for_the_early_error(
        self, l0_value, outcome
    ):
        # X1X2 commutes with the logical Z3 but anticommutes with the
        # measured Z2Z3; only an error preceding that measurement flips
        # the reconstructed logical value.
        code = self.example_code()
        [trace] = build_logical_trace(code, [parse_pauli("Z3", 3)])
        initial = {0: 1}
        measured = {0: outcome, 1: 1}
        e = parse_pauli("X1 X2", 3)

        before = SpacetimeError.make(3, {0: e})
        value = logical_outcome(trace, before, l0_value, initial, measured)
        assert value == l0_value * outcome

        after = SpacetimeError.make(3, {1: e})
        value = logical_outcome(trace, after, l0_value, initial, measured)
        assert value == -l0_value * outcome

    def test_error_free_value_matches_simulation(self):
        from dyncode import canonical_logicals
        from dyncode.engine import RANDOM_BIT, OutcomeSymbol

        rng = random.Random(778)
        checked = 0
        while checked < 40:
            code = random_instance(rng)
            basis = canonical_logicals(code.n, list(code.s0))
            state, record = simulate_measurements(code, track_logicals=True)
            if not basis or len(state.logicals) != len(basis):
                continue
            l0 = basis[0][0]
            expr = state.logicals[0][1]
            [trace] = build_logical_trace(code, [l0])
            if trace is None:
                continue
            checked += 1
            symbols = {s for _, _, e in record for s in e.symbols}
            symbols |= expr.symbols
            symbols.add(OutcomeSymbol(RANDOM_BIT, 0))
            assignment = {s: rng.choice((1, -1)) for s in symbols}
            initial = {
                s.index: v
                for s, v in assignment.items()
                if s.kind == "initial-stabilizer"
            }
            measured = {t: e.evaluate(assignment) for t, _, e in record}
            l0_value = assignment[OutcomeSymbol(RANDOM_BIT, 0)]
            no_error = SpacetimeError.make(code.n, {})
            value = logical_outcome(
                trace, no_error, l0_value, initial, measured
            )
            assert value == expr.evaluate(assignment)


def check_violation(report, gauge, verdict):
    """Both errors weigh at most the bound, share every unmasked
    syndrome, and differ by an operator outside the gauge group."""
    first, second = verdict.violation
    assert weight(first) <= verdict.max_weight and weight(second) <= verdict.max_weight
    for u in report.U:
        assert symplectic_product(first, u.op) == symplectic_product(second, u.op)
    gauge_span = Echelon(2 * first.n, [encode(g) for g in gauge.generators])
    assert in_span(encode(product(first, second)), gauge_span) is None


def check_against_enumeration(code, weights=range(4)):
    report = run_classification(code)
    gauge = build_gauge_group(report)
    for max_weight in weights:
        verdict = verify_round0_decoding(gauge, max_weight)
        ok, _ = reference_round0_decoding(
            code.n, [u.op for u in report.U], gauge.generators, max_weight
        )
        assert verdict.ok == ok, max_weight
        assert verdict.max_weight == max_weight
        assert (verdict.violation is None) == ok
        if not ok:
            check_violation(report, gauge, verdict)


class TestDecoding:
    def test_shor_corrects_weight_one(self):
        code = shor_code()
        report = run_classification(code)
        gauge = build_gauge_group(report)
        verdict = verify_round0_decoding(gauge, 1)
        assert verdict.ok and verdict.violation is None
        # d_u is 3, so the search tests every commuting operator up to
        # weight 2 and finds none outside the gauge group.
        rows = [encode(u.op) for u in report.U]
        assert verdict.errors_checked == len(list(commuting_paulis_up_to_weight(9, 2, rows)))

    def test_weak_gauge_choice_breaks_decoding(self):
        code = shor_code(mask_z1z2=True)
        report = run_classification(code)
        gauge = build_gauge_group(report, t_destabs=[parse_pauli("X2 X3", 9)])
        verdict = verify_round0_decoding(gauge, 1)
        assert not verdict.ok
        assert verdict.violation is not None
        check_violation(report, gauge, verdict)

    def test_violation_splits_the_witness_at_its_lower_half(self):
        # Shor's d_u is 3: at weight 2 the witness is the lightest logical
        # of the search order, split into its lowest two qubits and the rest.
        code = shor_code()
        report = run_classification(code)
        gauge = build_gauge_group(report)
        verdict = verify_round0_decoding(gauge, 2)
        first, second = verdict.violation
        witness = product(first, second)
        assert weight(witness) == 3 and (weight(first), weight(second)) == (2, 1)
        assert (first.x_mask | first.z_mask) < (second.x_mask | second.z_mask)
        rows = [encode(u.op) for u in report.U]
        search = _min_weight_outside(9, rows, [encode(g) for g in gauge.generators], 4)
        assert search.witness == witness
        assert verdict.errors_checked == search.candidates

    def test_no_logicals_is_decodable_at_any_weight(self):
        # Every qubit is fixed by a Z check, so each operator commuting with
        # the unmasked stabilizers is in the gauge group: the search tests
        # no candidate, however large the weight.
        n = 40
        code = DynamicalCode.make(
            n, [parse_pauli(f"Z{q}", n) for q in range(1, n + 1)],
            [[parse_pauli(f"Z{q}", n) for q in range(1, n + 1)]],
        )
        report = run_classification(code)
        gauge = build_gauge_group(report)
        verdict = verify_round0_decoding(gauge, 10**6)
        assert verdict.ok and verdict.errors_checked == 0

    @pytest.mark.parametrize("name", sorted(golden_codes()))
    def test_matches_the_enumeration_on_the_golden_codes(self, name):
        check_against_enumeration(golden_codes()[name])

    def test_matches_the_enumeration_on_seeded_random_codes(self):
        for seed in range(200):
            check_against_enumeration(random_instance(random.Random(f"round0/{seed}")))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 7), st.integers(1, 5), st.integers(0, 3))
    def test_matches_the_enumeration_on_drawn_codes(self, seed, max_n, max_s0, max_weight):
        code = random_instance(random.Random(seed), max_n=max_n, max_s0=max_s0)
        check_against_enumeration(code, [max_weight])

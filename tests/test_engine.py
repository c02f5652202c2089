import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyncode import (
    DynamicalCode,
    ISGState,
    build_1d_chain,
    build_gauge_group,
    build_logical_trace,
    canonical_logicals,
    isg_distance,
    measure,
    simulate_measurements,
    validate_code,
)
from dyncode import engine
from dyncode.classify import run_classification
from dyncode.errors import SpacetimeError, traced_simulation
from dyncode.cli import _shift_code
from dyncode.engine import (
    INITIAL_STABILIZER,
    ONE,
    RANDOM_BIT,
    CapExceededError,
    OutcomeExpr,
    OutcomeSymbol,
    ValidationError,
    symbol_expr,
)
from dyncode.gf2 import bits, rank
from dyncode.library import load_code, save_code, shor_code
from dyncode.pauli import encode, parse_pauli, symplectic_partner, symplectic_product
from dyncode.tableau import encoding

from oracles import (
    apply_error,
    ReferenceOutcomeExpr,
    check_abelian,
    formula_reproduces_stabilizer,
    forward_oracle,
    random_instance,
    random_pauli,
)


def code_of(n, s0, rounds):
    return DynamicalCode.make(
        n,
        [parse_pauli(s, n) for s in s0],
        [[parse_pauli(m, n) for m in rnd] for rnd in rounds],
    )


class TestValidate:
    def test_clean_code(self):
        assert validate_code(code_of(2, ["Z1 Z2"], [["X1 X2"]])) == []

    def test_size_mismatch(self):
        code = DynamicalCode.make(3, [parse_pauli("Z1", 2)], [])
        kinds = {d["kind"] for d in validate_code(code)}
        assert kinds == {"size-mismatch"}

    @pytest.mark.parametrize("call", [
        lambda: run_classification(shor_code()).element_class(parse_pauli("Y1 Y2 Y3", 3)),
        lambda: isg_distance([parse_pauli("Z1", 3)], 9),
        lambda: measure(ISGState.initial(shor_code()), parse_pauli("Y1 Y2 Y3", 3)),
        lambda: measure(ISGState(9, [parse_pauli("Z3", 3)], [symbol_expr(INITIAL_STABILIZER, 0)]),
                        parse_pauli("X6", 9)),
        lambda: canonical_logicals(9, [parse_pauli("Z1", 3)]),
        lambda: traced_simulation(shor_code(), [parse_pauli("X1 X12", 12)]),
        lambda: build_logical_trace(shor_code(), [parse_pauli("X1 X12", 12)]),
        lambda: simulate_measurements(shor_code(), errors={0: parse_pauli("Z3", 3)}),
        lambda: build_gauge_group(run_classification(shor_code(mask_z1z2=True)),
                                  t_destabs=[parse_pauli("X1", 3)]),
        lambda: SpacetimeError.make(9, {1: parse_pauli("X1", 3)}),
    ], ids=["element-class", "isg-distance", "measure", "state", "canonical-logicals",
            "traced-simulation", "logical-trace", "placed-error", "t-destabs",
            "spacetime-error"])
    def test_operator_of_another_size(self, call):
        # All but the last two once answered for the wrong operator or
        # ended in an IndexError.
        with pytest.raises(ValidationError) as info:
            call()
        [diagnostic] = info.value.diagnostics
        assert diagnostic["kind"] == "size-mismatch"
        assert (diagnostic["expected"], diagnostic["got"]) in {(9, 3), (9, 12)}

    def test_commutation_violation_in_round(self):
        diags = validate_code(code_of(2, [], [["X1", "Z1"]]))
        assert any(d["kind"] == "commutation-violation" for d in diags)

    def test_anticommuting_initial_generators(self):
        diags = validate_code(code_of(2, ["X1", "Z1"], []))
        assert any(d["kind"] == "commutation-violation" for d in diags)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 6), st.integers(0, 9))
    def test_commutation_pairs_match_the_pairwise_check(self, seed, n, size):
        rng = random.Random(seed)
        rnd = [random_pauli(rng, n) for _ in range(size)]
        expected = [
            {"kind": "commutation-violation", "where": "round 1", "pair": (a, b)}
            for a in range(size) for b in range(a + 1, size)
            if symplectic_product(rnd[a], rnd[b])
        ]
        assert validate_code(DynamicalCode.make(n, [], [rnd])) == expected

    def test_dependent_initial_generators(self):
        diags = validate_code(code_of(2, ["Z1", "Z2", "Z1 Z2"], []))
        assert any(d["kind"] == "dependent-generators" for d in diags)


class TestMeasureRules:
    def test_in_group_outcome_is_symbol_product(self):
        code = code_of(2, ["Z1", "Z2"], [])
        state = ISGState.initial(code)
        state, outcome = measure(state, parse_pauli("Z1 Z2", 2))
        assert outcome.sign == 0
        assert outcome.symbols == frozenset(
            {OutcomeSymbol(INITIAL_STABILIZER, 0), OutcomeSymbol(INITIAL_STABILIZER, 1)}
        )
        assert len(state.generators) == 2

    def test_anticommuting_replaces_lowest_index(self):
        code = code_of(2, ["Z1", "Z2"], [])
        state = ISGState.initial(code)
        state, outcome = measure(state, parse_pauli("X1 X2", 2))
        assert state.generators[0] == parse_pauli("X1 X2", 2)
        # The other anticommuting generator absorbed the removed one.
        assert state.generators[1] == parse_pauli("Z1 Z2", 2)
        assert outcome == symbol_expr(RANDOM_BIT, 0)

    def test_independent_commuting_appends(self):
        code = code_of(2, ["Z1"], [])
        state = ISGState.initial(code)
        state, outcome = measure(state, parse_pauli("Z2", 2))
        assert state.generators[-1] == parse_pauli("Z2", 2)
        assert outcome == symbol_expr(RANDOM_BIT, 0)

    def test_remeasuring_reproduces_outcome(self):
        code = code_of(3, [], [])
        state = ISGState.initial(code)
        m = parse_pauli("X1 X2", 3)
        state, first = measure(state, m)
        state, second = measure(state, m)
        assert first == second

    def test_measure_does_not_mutate_input(self):
        code = code_of(2, ["Z1"], [])
        state = ISGState.initial(code)
        measure(state, parse_pauli("X1", 2))
        assert state.generators == [parse_pauli("Z1", 2)]

    def test_random_sequences_keep_state_coherent(self):
        rng = random.Random(20240817)
        for _ in range(60):
            code = random_instance(rng)
            state = ISGState.initial(code)
            for _, m in code.measurements():
                state, _ = measure(state, m)
                check_abelian(state.generators)
                assert rank(
                    [encode(g) for g in state.generators], 2 * code.n
                ) == len(state.generators)


class TestLogicals:
    def test_canonical_logicals_of_shor(self):
        code = shor_code()
        logicals = canonical_logicals(code.n, list(code.s0))
        assert len(logicals) == 2
        for op, _ in logicals:
            assert all(symplectic_product(op, g) == 0 for g in code.s0)

    def test_track_policy_reduces_logical_count(self):
        code = shor_code()
        state = ISGState.initial(code, track_logicals=True)
        logical = state.logicals[0][0]
        state, _ = measure(state, logical_partner(code, logical))
        assert len(state.logicals) == 1
        assert state.events and state.events[0]["kind"] == "logical-measurement"

    def test_reading_out_a_tracked_logical_returns_its_value(self):
        code = shor_code()
        state = ISGState.initial(code, track_logicals=True)
        op, expr = state.logicals[0]
        _, outcome = measure(state, op)
        assert outcome == expr


def logical_partner(code, logical):
    """Some operator anticommuting with ``logical`` but commuting with s0."""
    from dyncode.gf2 import solve_linear
    from dyncode.pauli import decode, symplectic_partner

    n = code.n
    rows = [symplectic_partner(encode(g), n) for g in code.s0]
    rows.append(symplectic_partner(encode(logical), n))
    rhs = [0] * len(code.s0) + [1]
    return decode(solve_linear(rows, rhs, 2 * n), n)


class TestErrorsAndSimulation:
    def test_error_flips_anticommuting_outcomes(self):
        code = code_of(2, ["Z1", "Z2"], [])
        state = ISGState.initial(code)
        flipped = apply_error(state, parse_pauli("X1", 2))
        assert flipped.outcomes[0].sign == 1
        assert flipped.outcomes[1].sign == 0
        evolution = engine.Evolution(state)
        evolution.apply_error(parse_pauli("X1", 2))
        assert evolution.state() == flipped

    def test_simulation_record_covers_every_measurement(self):
        code = shor_code()
        _, record = simulate_measurements(code)
        assert [m for _, m, _ in record] == [m for _, m in code.measurements()]

    def test_error_only_flips_later_determined_outcomes(self):
        # Measuring z1 then x-type error then remeasuring z1 flips the
        # second outcome relative to the first.
        code = code_of(1, [], [["Z1"], ["Z1"]])
        _, record = simulate_measurements(
            code, errors={1: parse_pauli("X1", 1)}
        )
        first, second = record[0][2], record[1][2]
        assert second == first.negate()


class TestForwardOracle:
    def test_known_unmasked_chain(self):
        code = code_of(
            6, ["X1 X2 X3 X4 X5 X6"], [["X1 X2"], ["X3 X4"], ["X5 X6"]]
        )
        entries = forward_oracle(code)
        by_mask = {e.combination.mask: e for e in entries}
        assert by_mask[1].unmasked
        assert by_mask[1].formula == (0, 1, 2)

    def test_masked_after_interruption(self):
        code = code_of(
            6,
            ["X1 X2 X3 X4 X5 X6"],
            [["X1 X2"], ["Z2 Z3"], ["X3 X4"], ["X5 X6"]],
        )
        entries = forward_oracle(code)
        by_mask = {e.combination.mask: e for e in entries}
        assert not by_mask[1].unmasked

    def test_formulas_verify_against_the_record(self):
        rng = random.Random(99)
        for _ in range(40):
            code = random_instance(rng)
            _, record = simulate_measurements(code)
            for entry in forward_oracle(code):
                if entry.unmasked and entry.combination.mask:
                    assert formula_reproduces_stabilizer(
                        code, record, entry.combination.mask, entry.formula
                    )

    def test_cap_guard(self):
        rng = random.Random(1)
        code = random_instance(rng, max_n=5, max_s0=5)
        with pytest.raises(CapExceededError):
            forward_oracle(code, cap=len(code.s0) - 1)


symbol_sets = st.frozensets(
    st.builds(OutcomeSymbol, st.sampled_from([INITIAL_STABILIZER, RANDOM_BIT]),
              st.integers(0, 200)),
    max_size=12,
)
reference_exprs = st.builds(ReferenceOutcomeExpr, st.integers(0, 1), symbol_sets)


def from_reference(ref: ReferenceOutcomeExpr) -> OutcomeExpr:
    expr = ONE.negate() if ref.sign else ONE
    for s in ref.symbols:
        expr = expr * symbol_expr(s.kind, s.index)
    return expr


class TestOutcomeExprOracle:
    """The bit-mask expressions against the symbol-set reference."""

    @settings(max_examples=200, deadline=None)
    @given(reference_exprs, reference_exprs, st.randoms(use_true_random=False))
    def test_operations_match_the_reference(self, a_ref, b_ref, rng):
        a, b = from_reference(a_ref), from_reference(b_ref)
        for expr, ref in [(a, a_ref), (b, b_ref), (a * b, a_ref * b_ref),
                          (a.negate(), a_ref.negate()), (b * a * b, a_ref)]:
            assert expr.sign == ref.sign
            assert expr.symbols == ref.symbols
            assert expr.is_deterministic() == ref.is_deterministic()
            assignment = {s: rng.choice((1, -1)) for s in ref.symbols}
            assert expr.evaluate(assignment) == ref.evaluate(assignment)
        assert (a == b) == (a_ref == b_ref)
        assert (a * b == ONE) == (a_ref == b_ref)
        if a == b:
            assert hash(a) == hash(b)
        assert hash(from_reference(a_ref)) == hash(a)

    @settings(max_examples=200, deadline=None)
    @given(reference_exprs, reference_exprs, st.integers(0, 40))
    def test_packed_expressions_round_trip_and_multiply_by_xor(self, a_ref, b_ref, extra):
        # Initial indices reach 200, so the packed random masks start past
        # bit 200 and run to bit 400 or more: several 64-bit words.
        a, b = from_reference(a_ref), from_reference(b_ref)
        width = max(a.initial.bit_length(), b.initial.bit_length()) + extra
        for expr in (a, b, a * b, a.negate(), ONE):
            assert OutcomeExpr.unpack(expr.pack(width), width) == expr
        assert (a * b).pack(width) == a.pack(width) ^ b.pack(width)
        assert a.negate().pack(width) == a.pack(width) ^ 1
        assert ONE.pack(width) == 0

    def test_packed_layout(self):
        wide = OutcomeExpr(1, 1 << 70 | 1, 0b101)
        assert wide.pack(3) == 1 | 0b101 << 1 | (1 << 70 | 1) << 4
        assert OutcomeExpr.unpack(wide.pack(3), 3) == wide
        assert symbol_expr(INITIAL_STABILIZER, 2).pack(3) == 1 << 3
        assert symbol_expr(RANDOM_BIT, 0).pack(3) == 1 << 4
        assert symbol_expr(RANDOM_BIT, 0).pack(0) == 1 << 1

    def test_symbol_kinds_and_empty_expression(self):
        assert ONE == OutcomeExpr() and ONE.symbols == frozenset()
        assert ONE.is_deterministic() and ONE.evaluate({}) == 1
        assert symbol_expr(RANDOM_BIT, 70) != symbol_expr(INITIAL_STABILIZER, 70)
        assert not symbol_expr(RANDOM_BIT, 70).is_deterministic()
        assert symbol_expr(INITIAL_STABILIZER, 70).is_deterministic()
        with pytest.raises(ValueError):
            symbol_expr("no-such-kind", 0)


@pytest.fixture
def validations(monkeypatch):
    """The codes passed to the private structural check, in call order."""
    calls = []
    validate = engine._validate

    def counting(code):
        calls.append(code)
        return validate(code)

    monkeypatch.setattr(engine, "_validate", counting)
    return calls


class TestCodeCache:
    def test_load_then_classify_validates_once(self, tmp_path, validations):
        path = tmp_path / "shor.json"
        save_code(shor_code(), path)
        code = load_code(path)
        run_classification(code)
        assert validations == [code]

    def test_each_call_gets_a_fresh_list(self):
        code = code_of(2, ["X1", "Z1"], [])
        first = validate_code(code)
        first[0]["kind"] = "edited"
        first.append({})
        second = validate_code(code)
        assert second is not first
        assert [d["kind"] for d in second] == ["commutation-violation"]

    def test_equal_codes_are_validated_separately(self, validations):
        a, b = shor_code(), shor_code()
        assert a == b and a is not b
        validate_code(a)
        validate_code(b)
        validate_code(a)
        assert len(validations) == 2
        assert validations[0] is a and validations[1] is b

    def test_a_shifted_code_is_validated_again(self, validations):
        # --isg-round builds a new code object, with a cache of its own.
        code = shor_code()
        validate_code(code)
        shifted = _shift_code(code, 1)
        run_classification(shifted)
        assert validations == [code, shifted]

    def test_each_distinct_round_is_checked_once(self, monkeypatch):
        checked = []
        check = engine._anticommuting_pairs

        def counting(n, ops, encoded):
            checked.append(ops)
            return check(n, ops, encoded)

        monkeypatch.setattr(engine, "_anticommuting_pairs", counting)
        bad = ["X1", "Z1"]
        code = code_of(2, ["Z2"], [bad, ["Z2"], bad, bad])
        assert validate_code(code) == [
            {"kind": "commutation-violation", "where": f"round {i}", "pair": (0, 1)}
            for i in (1, 3, 4)
        ]
        assert checked == [code.s0, code.rounds[0], code.rounds[1]]

    def test_equal_operators_share_one_encoding(self):
        code = build_1d_chain(12)
        rounds = code.encoded_rounds
        assert rounds[1] is rounds[5] and rounds[2] is rounds[6]
        pairs = {id(pair) for rnd in rounds for pair in rnd}
        assert len(pairs) == len({op for rnd in code.rounds for op in rnd})

    def test_a_derived_code_reuses_the_encodings(self):
        code = build_1d_chain(12)
        for isg_round in (0, 3, 7):
            shifted = _shift_code(code, isg_round)
            assert all(
                a is b for a, b in zip(shifted.encoded_rounds, code.encoded_rounds[isg_round:])
            )
            assert shifted.encoded_s0 == tuple(encoding(encode(op), 12) for op in shifted.s0)
            assert shifted.rounds == code.rounds[isg_round:]

    def test_cached_encoding_matches_encode(self):
        rng = random.Random(5)
        for _ in range(40):
            code = random_instance(rng)
            n = code.n
            assert code.encoded_s0 == tuple(encoding(encode(op), n) for op in code.s0)
            assert code.encoded_rounds == tuple(
                tuple(encoding(encode(m), n) for m in rnd) for rnd in code.rounds
            )
            for vec, vec_bits, partner_bits in code._encodings.values():
                assert sorted(partner_bits) == bits(symplectic_partner(vec, n))

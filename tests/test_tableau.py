"""The bit-plane tableau against brute force and the scan-based references.

``tests/oracles.py`` keeps the stabilizer update and the classification's
forward pass as scans over generator lists (``reference_measure``,
``reference_forward``, ``apply_error``); every evolution built on the
tableau must match them exactly, pivot choices, carries and outcome
expressions included.  The codes are seeded random ones, the worst-case
schedules for n = 3..16, chains, ``honeycomb(3, 3)`` and ``bacon_shor(3, 3)``.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyncode import (
    ISGState,
    bacon_shor,
    build_1d_chain,
    build_worst_case_sequence,
    honeycomb,
    run_classification,
    simulate_measurements,
)
from dyncode.engine import ONE, Evolution
from dyncode.gf2 import Echelon, bits, in_span
from dyncode.pauli import (
    PauliOperator,
    decode,
    encode,
    symplectic_partner,
    symplectic_product,
)
from dyncode.tableau import Tableau, encoding

from oracles import (
    apply_error,
    final_sets,
    random_instance,
    random_pauli,
    reference_forward,
    reference_measure,
)


def anticommute(a: int, b: int, n: int) -> int:
    return symplectic_product(decode(a, n), decode(b, n))


def brute_masks(tab: Tableau, vec: int) -> tuple[int, ...]:
    """The slot masks of the rows of each group anticommuting with ``vec``,
    in the order of :meth:`Tableau.masks`."""
    return tuple(
        sum(1 << s for s in group.slots() if anticommute(group.rows[s], vec, tab.n))
        for group in (tab.stab, tab.logical, tab.tracked, tab.destab)
    )


def check_invariants(tab: Tableau) -> None:
    """Symplectic basis, and every plane agrees with the rows."""
    n = tab.n
    stab = [(s, tab.stab.rows[s]) for s in tab.stab.slots()]
    destab = {tab.owner[d]: tab.destab.rows[d] for d in tab.destab.slots()}
    logical = [(s, tab.logical.rows[s]) for s in tab.logical.slots()]
    assert sorted(destab) == [s for s, _ in stab]
    assert len(stab) * 2 + len(logical) == 2 * n
    for i, (s, row) in enumerate(stab):
        for t, other in stab[i + 1:]:
            assert not anticommute(row, other, n)
        for t, d in destab.items():
            assert anticommute(row, d, n) == (s == t)
        for _, lrow in logical:
            assert not anticommute(row, lrow, n)
    for d in destab.values():
        for _, lrow in logical:
            assert not anticommute(d, lrow, n)
    for s, lrow in logical:
        for t, other in logical:
            assert anticommute(lrow, other, n) == (t == s ^ 1)
    for q in range(2 * n):
        assert tab.masks([q]) == brute_masks(tab, 1 << q)
    for group in (tab.stab, tab.destab, tab.logical, tab.tracked):
        for s in group.slots():
            assert sorted(group.row_bits(s)) == bits(symplectic_partner(group.rows[s], n))


@st.composite
def measurement_runs(draw):
    n = draw(st.integers(1, 5))
    ops = st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1))
    run = draw(st.lists(ops, min_size=1, max_size=14))
    return n, [x | (z << n) for x, z in run]


class TestInvariants:
    @settings(max_examples=60, deadline=None)
    @given(measurement_runs())
    def test_measurements_keep_a_symplectic_basis(self, run):
        n, vecs = run
        tab = Tableau(n, destabilizers=True)
        for vec in vecs:
            vec, vec_bits, partner_bits = encoding(vec, n)
            tab.measure(vec, vec_bits, partner_bits)
            check_invariants(tab)
            assert tab.member(vec_bits)
            combo = 0
            for slot in tab.combination(vec_bits):
                combo ^= tab.stab.rows[slot]
            assert combo == vec

    @settings(max_examples=40, deadline=None)
    @given(measurement_runs())
    def test_membership_in_one_pass(self, run):
        n, vecs = run
        tab = Tableau(n)
        for vec in vecs:
            tab.measure(*encoding(vec, n))
        group = Echelon(2 * n, tab.generators())
        for vec in range(1 << (2 * n)):
            vec_bits = bits(vec)
            assert tab.masks(vec_bits) == brute_masks(tab, vec)
            assert tab.member(vec_bits) == (group.reduce(vec)[0] == 0)


def fixture_codes():
    """60 seeded random codes and the fixtures, numbered as they were when
    the list held the first 40 random codes and four fixtures."""
    rng = random.Random(4242)
    codes = [random_instance(rng) for _ in range(40)]
    codes += [
        build_1d_chain(16), honeycomb(3, 3), bacon_shor(3, 3), build_worst_case_sequence(6),
    ]
    codes += [random_instance(rng) for _ in range(20)]
    codes += [build_worst_case_sequence(n) for n in range(3, 17) if n != 6]
    return codes + [build_1d_chain(n) for n in (5, 8, 13)]


CODES = fixture_codes()


@pytest.mark.parametrize("code", CODES, ids=range(len(CODES)))
def test_forward_pass_matches_the_reference(code):
    report = run_classification(code)
    C, V, removals = reference_forward(code)
    assert report._removals == removals
    assert final_sets(report) == (C, V)


@pytest.mark.parametrize("code", CODES, ids=range(len(CODES)))
def test_measure_returns_the_slot_and_the_read_out_rows(code):
    """``Tableau.measure`` with the logicals as tracked rows: the slot holds
    the measured row, None exactly for a member, and the read-out mask
    holds the logicals the reference drops, apart from the measured
    operator itself (which joins the group)."""
    n = code.n
    state = ISGState.initial(code, track_logicals=True)
    tab = Tableau(n)
    for vec, vec_bits, partner_bits in code.encoded_s0:
        tab.append(vec, partner_bits, tab.masks(vec_bits))
    for op, _ in state.logicals:
        tab.tracked.append(encode(op))
    for _, m in code.measurements():
        vec = encode(m)
        member = in_span(vec, Echelon(2 * n, [encode(g) for g in state.generators]))
        before, live = [op for op, _ in state.logicals], tab.tracked.slots()
        state, _ = reference_measure(state, m)
        after = [op for op, _ in state.logicals]
        dropped = [i for i, op in enumerate(before) if len(after) < len(before) and op not in after]
        slot, read_out = tab.measure(*encoding(vec, n))
        assert (slot is None) == (member is not None)
        assert slot is None or tab.stab.rows[slot] == vec
        assert read_out == sum(1 << live[i] for i in dropped if before[i] != m)
        for i in dropped:
            if before[i] == m:
                tab.tracked.free(live[i])
        assert [decode(row, n) for row in tab.generators()] == state.generators
        assert [decode(tab.tracked.rows[s], n) for s in tab.tracked.slots()] == after


@pytest.mark.parametrize("code", CODES, ids=range(len(CODES)))
@pytest.mark.parametrize("track_logicals", [False, True])
def test_every_state_matches_the_reference(code, track_logicals):
    state = ISGState.initial(code, track_logicals=track_logicals)
    evolution = Evolution(state)
    expected = []
    for t, (_, m) in enumerate(code.measurements()):
        state, outcome = reference_measure(state, m)
        expected.append((t, m, outcome))
        assert evolution.measure(m) == outcome
        assert evolution.state() == state
    assert simulate_measurements(code, track_logicals=track_logicals) == (state, expected)


@pytest.mark.parametrize("code", CODES, ids=range(len(CODES)))
def test_placed_errors_and_read_out_logicals_match_the_reference(code):
    """``simulate_measurements`` with seeded errors after some rounds and
    the logicals tracked, against the scan update and ``apply_error``:
    every outcome, the tracked logicals that survive and their values."""
    rng = random.Random(len(code.rounds) * 1000 + code.n)
    errors = {r: random_pauli(rng, code.n)
              for r in range(len(code.rounds) + 1) if rng.random() < 0.4}
    state = ISGState.initial(code, track_logicals=True)
    expected = []
    if 0 in errors:
        state = apply_error(state, errors[0])
    for r, rnd in enumerate(code.rounds, start=1):
        for m in rnd:
            state, outcome = reference_measure(state, m)
            expected.append((len(expected), m, outcome))
        if r in errors:
            state = apply_error(state, errors[r])
    got = simulate_measurements(code, errors=errors, track_logicals=True)
    assert got == (state, expected)


@pytest.mark.parametrize("second", [PauliOperator(2, 0, 1), PauliOperator(2, 1, 0)])
def test_dependent_or_anticommuting_generators_are_rejected(second):
    with pytest.raises(ValueError):
        Evolution(ISGState(2, [PauliOperator(2, 0, 1), second], [ONE, ONE]))

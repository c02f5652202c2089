import gc
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyncode import (
    DynamicalCode,
    bacon_shor,
    build_1d_chain,
    build_gauge_group,
    honeycomb,
    isg_distance,
    run_classification,
    simulate_measurements,
    subsystem_distance,
    unmasked_distance,
)
from dyncode import classify, pauli
from dyncode.classify import DistanceResult
from dyncode.engine import InternalInvariantError, ValidationError
from dyncode.floquet import isg_rows
from dyncode.gf2 import Echelon, in_span, rank
from dyncode.library import shor_code
from dyncode.pauli import (
    PauliOperator,
    decode,
    encode,
    format_pauli,
    parse_pauli,
    product,
    symplectic_product,
)
from dyncode.tableau import Tableau

from oracles import (
    SPLITS,
    brute_force_exhaustive_d_u,
    brute_force_min_weight,
    final_sets,
    forced_split,
    formula_reproduces_stabilizer,
    forward_oracle,
    group_elements,
    random_instance,
    random_round,
    reference_group_center,
    reference_exhaustive_d_u,
    reference_min_weight_outside,
    span_elements,
    spans_equal,
)


def code_of(n, s0, rounds):
    return DynamicalCode.make(
        n,
        [parse_pauli(s, n) for s in s0],
        [[parse_pauli(m, n) for m in rnd] for rnd in rounds],
    )


class TestOrderingExamples:
    def stabilizer_tag(self, measurements, n=6):
        code = code_of(
            n, [" ".join(f"X{i}" for i in range(1, 7))], [[m] for m in measurements]
        )
        return run_classification(code).tags[0]

    def test_plain_chain_is_unmasked(self):
        assert self.stabilizer_tag(["X1 X2", "X3 X4", "X5 X6"]) == "unmasked"

    def test_early_interruption_masks_temporarily(self):
        assert (
            self.stabilizer_tag(["X1 X2", "Z2 Z3", "X3 X4", "X5 X6"])
            == "temporarily-masked"
        )

    def test_late_interruption_stays_unmasked(self):
        assert (
            self.stabilizer_tag(["X1 X2", "X3 X4", "Z2 Z3", "X5 X6"])
            == "unmasked"
        )

    def test_destroyed_stabilizer_can_still_unmask(self):
        assert (
            self.stabilizer_tag(["X5 X6", "Z6 Z7", "X1 X2", "X3 X4"], n=7)
            == "unmasked"
        )

    def test_destroyed_stabilizer_trace(self):
        # Per-round C and V contents for the sequence above, as groups.
        n = 7
        rounds = [["X5 X6"], ["Z6 Z7"], ["X1 X2", "X3 X4"]]
        expected = [
            (["X1 X2 X3 X4 X5 X6"], ["X5 X6"]),
            (["X1 X2 X3 X4"], ["Z6 Z7"]),
            (["X1 X2 X3 X4"], ["Z6 Z7", "X1 X2", "X3 X4"]),
        ]
        for window, (c_ops, v_ops) in enumerate(expected, start=1):
            report = run_classification(code_of(n, [" ".join(
                f"X{i}" for i in range(1, 7))], rounds), window=window)
            C, V = final_sets(report)
            assert spans_equal(
                [t.op for t in C],
                [parse_pauli(s, n) for s in c_ops], n)
            assert spans_equal(
                [t.op for t in V],
                [parse_pauli(s, n) for s in v_ops], n)

    def test_simplified_plaquette_example(self):
        # One hexagon: Z-plaquette unmasked by an X round then a Y round.
        n = 6
        code = code_of(
            n,
            [" ".join(f"Z{i}" for i in range(1, 7))],
            [["X1 X2", "X3 X4", "X5 X6"], ["Y2 Y3", "Y4 Y5", "Y6 Y1"]],
        )
        report = run_classification(code)
        assert report.tags == ["unmasked"]
        [entry] = report.U
        _, record = simulate_measurements(code)
        occurrences = tuple(sorted(s.index for s in entry.syndrome.symbols))
        assert formula_reproduces_stabilizer(code, record, 1, occurrences)


class TestAgainstOracle:
    def test_unmasked_span_matches_oracle(self):
        rng = random.Random(512)
        for _ in range(60):
            code = random_instance(rng)
            report = run_classification(code)
            u_span = group_elements([u.op for u in report.U], code.n)
            for entry in forward_oracle(code):
                assert entry.unmasked == (entry.op in u_span)

    def test_syndrome_formulas_check_out(self):
        rng = random.Random(513)
        for _ in range(60):
            code = random_instance(rng)
            report = run_classification(code)
            _, record = simulate_measurements(code)
            for entry in report.U:
                occurrences = tuple(
                    sorted(s.index for s in entry.syndrome.symbols)
                )
                assert entry.syndrome.sign == 0
                assert formula_reproduces_stabilizer(
                    code, record, entry.combination.mask, occurrences
                )

    def test_partition_is_a_basis_of_s0(self):
        rng = random.Random(514)
        for _ in range(60):
            code = random_instance(rng)
            report = run_classification(code)
            ops = [u.op for u in report.U] + report.T + report.P
            assert len(ops) == len(code.s0)
            rows = [encode(op) for op in ops]
            assert rank(rows, 2 * code.n) == len(code.s0)
            basis = Echelon(2 * code.n, [encode(g) for g in code.s0])
            for op in ops:
                assert in_span(encode(op), basis) is not None

    def test_destabilizer_commutation_pattern(self):
        rng = random.Random(515)
        for _ in range(60):
            code = random_instance(rng)
            report = run_classification(code)
            stabs = [u.op for u in report.U] + report.T + report.P
            offset = len(report.U) + len(report.T)
            for j, kappa in enumerate(report.K):
                for i, s in enumerate(stabs):
                    expected = 1 if i == offset + j else 0
                    assert symplectic_product(kappa, s) == expected
                for other in report.K[:j]:
                    assert symplectic_product(kappa, other) == 0

    def test_permanent_masking_survives_extra_rounds(self):
        rng = random.Random(516)
        checked = 0
        while checked < 30:
            code = random_instance(rng)
            report = run_classification(code)
            if not report.P:
                continue
            checked += 1
            extra = [
                random_round(rng, code.n, rng.randint(1, 2)) for _ in range(3)
            ]
            extended = DynamicalCode.make(
                code.n, code.s0, list(code.rounds) + extra
            )
            new_report = run_classification(extended)
            for p in report.P:
                assert new_report.element_class(p) == "permanently-masked"


class TestOnePassWindows:
    """One forward pass reports at every window what a classification
    run to that window reports.  The whole pass runs before any report is
    compared, so a report that shared state the pass changed later would
    differ."""

    FIELDS = ("U", "T", "P", "K", "tags", "_removals", "_final")

    def check(self, code):
        windows = range(len(code.rounds) + 1)
        reports = list(classify._reports(code, windows))
        assert [report.window for report in reports] == list(windows)
        for window, report in zip(windows, reports):
            expected = run_classification(code, window=window)
            for name in self.FIELDS:
                assert getattr(report, name) == getattr(expected, name), (window, name)

    def test_seeded_random_codes(self):
        for seed in range(400):
            self.check(random_instance(random.Random(seed)))

    @pytest.mark.parametrize("code", [
        shor_code(mask_z1z2=True), honeycomb(3, 3), bacon_shor(3, 3), build_1d_chain(12),
    ], ids=["shor-masked", "honeycomb-3x3", "bacon-shor-3x3", "chain-12"])
    def test_fixtures(self, code):
        self.check(code)


def test_memory_grows_no_faster_than_the_schedule():
    """Doubling the chain multiplies its measurements by 3.97; the traced
    peak of the classification may grow at most 5x (it grows 3.7x).
    Records that kept a provenance as wide as the schedule so far grew it
    7.7x."""
    def peak(n):
        code = build_1d_chain(n)
        # A full collection empties the free lists, whose reused objects
        # tracemalloc would not count, so the peak is independent of the
        # tests that ran before.
        gc.collect()
        tracemalloc.start()
        try:
            run_classification(code)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(160) <= 5 * peak(80)


class TestInvariantChecks:
    """Each InternalInvariantError of the post-pass, reached by corrupting
    one intermediate result of an otherwise valid classification."""

    def first_code(self, wanted):
        rng = random.Random(518)
        while True:
            code = random_instance(rng)
            report = run_classification(code)
            if wanted(report):
                return code, report

    def corrupt_replay(self, monkeypatch, change):
        """Pass the replay's (P, K) through ``change`` before the check."""
        original = classify._extract_permanently_masked

        def corrupted(*args, **kwargs):
            P, K = original(*args, **kwargs)
            return change(list(P), list(K))

        monkeypatch.setattr(classify, "_extract_permanently_masked", corrupted)

    def assert_raises(self, code, message):
        with pytest.raises(InternalInvariantError, match=message):
            run_classification(code)

    def test_swapped_destabilizers(self, monkeypatch):
        code, _ = self.first_code(lambda r: len(r.P) >= 2)
        self.corrupt_replay(monkeypatch, lambda P, K: (P, [K[1], K[0]] + K[2:]))
        self.assert_raises(code, "destabilizer commutation pattern violated")

    def test_permanently_masked_row_repeating_an_unmasked_one(self, monkeypatch):
        code, report = self.first_code(lambda r: r.U and r.P)
        self.corrupt_replay(monkeypatch, lambda P, K: ([report.U[0].op] + P[1:], K))
        self.assert_raises(code, "U, T, P is not an independent basis of S0")

    def test_missing_row(self, monkeypatch):
        code, _ = self.first_code(lambda r: r.P)
        self.corrupt_replay(monkeypatch, lambda P, K: (P[:-1], K[:-1]))
        self.assert_raises(code, "U, T, P is not an independent basis of S0")

    def test_row_outside_the_initial_group(self, monkeypatch):
        # K[0] anticommutes with P[0], so it is outside the abelian S0 and
        # independent of every other row.
        code, _ = self.first_code(lambda r: r.P)
        self.corrupt_replay(monkeypatch, lambda P, K: ([K[0]] + P[1:], K))
        self.assert_raises(code, "U, T, P does not span the initial group")

    def test_unpaired_permanently_masked_row(self, monkeypatch):
        code, _ = self.first_code(lambda r: r.P)
        self.corrupt_replay(monkeypatch, lambda P, K: (P, K[:-1]))
        self.assert_raises(code, "P and K length mismatch")

    def corrupt_replayed_group(self, monkeypatch, change):
        """Pass R, the generators of the replayed group, through
        ``change`` (with the flattened pair rows) before the pairs are
        stripped."""
        original = classify._strip_pairs

        def corrupted(n, R, flat, s0_rows):
            return original(n, change(list(R), list(flat)), flat, s0_rows)

        monkeypatch.setattr(classify, "_strip_pairs", corrupted)

    def test_replayed_pair_outside_the_initial_group(self, monkeypatch):
        # The pair element needs a generator of the final ISG: without
        # them it has no expression over the initial group.
        code = code_of(2, ["YZ"], [["ZX"], ["YX", "XZ"]])
        assert run_classification(code).P
        self.corrupt_replayed_group(monkeypatch, lambda R, flat: [])
        self.assert_raises(
            code, "replayed masked stabilizer is not in the initial group"
        )

    def test_replayed_group_not_centralizing_the_pairs(self, monkeypatch):
        # With the masked pair elements counted as generators of the final
        # ISG, each strips to itself and anticommutes with its partner.
        code, _ = self.first_code(lambda r: r.P)
        self.corrupt_replayed_group(monkeypatch, lambda R, flat: R + flat[::2])
        self.assert_raises(
            code, "replayed stabilizer group does not centralize the pairs"
        )


class TestReplayCommutingBranch:
    """The replay of a removed element commuting with every generator of
    the replayed group R, on hand-made removal lists: no forward pass
    records one (:class:`TestReplayInvariant`), and the replay raises."""

    def replay(self, monkeypatch, n, isg, events, s0):
        """R, P and K (dense strings) of the replay of ``events``, given as
        (round, kind, operator), from the final ISG ``isg``."""
        def rows(texts):
            return [encode(parse_pauli(t, n)) for t in texts]

        removals = [(r, kind, encode(parse_pauli(t, n))) for r, kind, t in events]
        replayed = []
        strip = classify._strip_pairs

        def recording(n, R, flat, s0_rows):
            replayed.extend(R)
            return strip(n, R, flat, s0_rows)

        monkeypatch.setattr(classify, "_strip_pairs", recording)
        final = [(row, None) for row in rows(isg)]
        P, K = classify._extract_permanently_masked(n, final, removals, rows(s0))
        return (
            [format_pauli(decode(row, n)) for row in replayed],
            [format_pauli(p) for p in P], [format_pauli(k) for k in K],
        )

    def test_staged_removal_without_a_partner(self, monkeypatch):
        with pytest.raises(InternalInvariantError, match="no anticommuting row in R"):
            self.replay(monkeypatch, 2, ["ZI"], [(1, "C", "IZ")], ["ZI"])

    def test_v_removal_without_a_partner(self, monkeypatch):
        # Round 2 replays first: XI takes over ZI, and the two leave R as a
        # pair.  IZ then commutes with the empty R and with the pair.
        events = [(1, "V", "IZ"), (2, "C", "XI")]
        with pytest.raises(InternalInvariantError, match="no anticommuting row in R"):
            self.replay(monkeypatch, 2, ["ZI"], events, ["XI"])

    def test_only_v_removals_replay_to_nothing(self, monkeypatch):
        # Pairs form only at C removals, so a list without one returns
        # ([], []) before the loop.
        events = [(1, "V", "XI"), (2, "V", "IZ"), (3, "V", "ZZ")]
        assert self.replay(monkeypatch, 2, ["ZI", "IX"], events, ["XI"]) == ([], [], [])

    def test_only_v_removals_of_random_schedules(self, monkeypatch):
        # Shadowing the builtin ``all`` of the guard in the module makes
        # the loop run, and it returns ([], []) as the guard does.
        rng = random.Random(520)
        checked = 0
        while checked < 20:
            code = random_instance(rng)
            report = run_classification(code)
            if any(kind == "C" for _, kind, _ in report._removals):
                continue
            checked += 1
            s0_rows = [encode(op) for op in code.s0]
            isg = [(row, None) for row, _ in report._final[0] + report._final[1]]
            args = (code.n, isg, report._removals, s0_rows)
            assert classify._extract_permanently_masked(*args) == ([], [])
            with monkeypatch.context() as patch:
                patch.setattr(classify, "all", lambda _: False, raising=False)
                assert classify._extract_permanently_masked(*args) == ([], [])


class TestReplayInvariant:
    """The replay's invariant on the records of real forward passes: with
    W the group of R and the pair rows, W contains the ISG after round r
    once every removal after round r is replayed, and each removal is one
    pivot step.  The loop is forced on windows with no C removal too."""

    class Recording(Tableau):
        """The replay tableau, keeping W's rows before each removal."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.before, self.pivots = [], 0

        def rows(self):
            return self.generators() + [row for row in self.tracked.rows if row is not None]

        def masks(self, vec_bits):
            self.before.append(self.rows())
            return super().masks(vec_bits)

        def pivot(self, *args, **kwargs):
            self.pivots += 1
            return super().pivot(*args, **kwargs)

    def check(self, monkeypatch, code):
        n = code.n
        isgs = [isg_rows(code, r) for r in range(len(code.rounds) + 1)]
        s0_rows = [encode(op) for op in code.s0]
        made = []

        def recording(*args, **kwargs):
            made.append(self.Recording(*args, **kwargs))
            return made[-1]

        for report in classify._reports(code, range(len(code.rounds) + 1)):
            made.clear()
            records = report._removals
            isg = [(row, None) for row, _ in report._final[0] + report._final[1]]
            with monkeypatch.context() as patch:
                patch.setattr(classify, "all", lambda _: False, raising=False)
                patch.setattr(classify, "Tableau", recording)
                P, K = classify._extract_permanently_masked(n, isg, records, s0_rows)
            assert (P, K) == (report.P, report.K)
            [tab] = made
            assert tab.pivots == len(records)
            states = tab.before + [tab.rows()]
            for r in range(report.window + 1):
                W = Echelon(2 * n, states[sum(record[0] > r for record in records)])
                assert all(W.reduce(row)[0] == 0 for row in isgs[r]), (report.window, r)

    def test_seeded_random_codes(self, monkeypatch):
        for seed in range(400):
            self.check(monkeypatch, random_instance(random.Random(seed)))

    @pytest.mark.parametrize("code", [
        shor_code(mask_z1z2=True), honeycomb(3, 3), bacon_shor(3, 3),
        build_1d_chain(8), build_1d_chain(12),
    ], ids=["shor-masked", "honeycomb-3x3", "bacon-shor-3x3", "chain-8", "chain-12"])
    def test_fixtures(self, monkeypatch, code):
        self.check(monkeypatch, code)


class TestElementClass:
    def test_mixed_products_take_strongest_masking(self):
        rng = random.Random(517)
        found = 0
        while found < 10:
            code = random_instance(rng)
            report = run_classification(code)
            if not report.U or not report.P:
                continue
            found += 1
            mixed = product(report.U[0].op, report.P[0])
            assert report.element_class(mixed) == "permanently-masked"
            if report.T:
                mixed = product(report.U[0].op, report.T[0])
                assert report.element_class(mixed) == "temporarily-masked"

    def test_rejects_operators_outside_s0(self):
        code = shor_code()
        report = run_classification(code)
        with pytest.raises(ValueError):
            report.element_class(parse_pauli("X1", code.n))


class TestGaugeGroup:
    def masked_shor(self):
        return run_classification(shor_code(mask_z1z2=True))

    def test_canonical_destabilizer_is_x1(self):
        report = self.masked_shor()
        assert report.T == [parse_pauli("Z1 Z2", 9)]
        gauge = build_gauge_group(report)
        assert gauge.t_destabs == [parse_pauli("X1", 9)]

    def test_explicit_destabilizers_are_validated(self):
        report = self.masked_shor()
        with pytest.raises(ValidationError):
            build_gauge_group(report, t_destabs=[parse_pauli("Z1", 9)])
        with pytest.raises(ValidationError):
            build_gauge_group(report, t_destabs=[])

    def test_explicit_destabilizers_are_checked_against_every_row(self):
        # The golden instance random-142: |U| = 1, |T| = 3 and |P| = 2.
        report = run_classification(random_instance(random.Random(142), max_measurements=12))
        assert report.U and report.T and report.P
        n, canonical = report.n, build_gauge_group(report).t_destabs
        assert build_gauge_group(report, t_destabs=canonical).t_destabs == canonical
        # kappa * P[0] keeps kappa's pattern on U | T | P and anticommutes
        # with K[0] alone; kappa * K[1] commutes with K and the other
        # destabilizers and anticommutes with the non-target P[1] alone.
        stab_ops = [u.op for u in report.U] + report.T + report.P
        for idx, other, hits_stabilizer in [(0, report.P[0], False), (2, report.K[1], True)]:
            kappa = product(canonical[idx], other)
            target = len(report.U) + idx
            pattern = [symplectic_product(kappa, op) for op in stab_ops]
            assert (pattern != [int(i == target) for i in range(len(stab_ops))]) == hits_stabilizer
            assert any(symplectic_product(kappa, k) for k in report.K) != hits_stabilizer
            t_destabs = canonical[:idx] + [kappa] + canonical[idx + 1:]
            with pytest.raises(ValidationError) as caught:
                build_gauge_group(report, t_destabs=t_destabs)
            assert caught.value.diagnostics == [{"kind": "bad-destabilizer", "index": idx}]
        # One qubit wider, with the same encoded row as the canonical choice.
        vec = encode(canonical[1])
        wide = PauliOperator(n + 1, vec & ((1 << (n + 1)) - 1), vec >> (n + 1))
        assert encode(wide) == vec
        with pytest.raises(ValueError):
            build_gauge_group(report, t_destabs=[canonical[0], wide, canonical[2]])

    def test_exhaustive_policy_records_alternatives(self):
        """The bare logicals of masked Shor's one logical qubit: two, each
        commuting with every gauge generator, independent modulo U."""
        report = self.masked_shor()
        gauge = build_gauge_group(report, t_destab_policy="exhaustive")
        assert len(gauge.alternatives) == 2 * (9 - len(report.s0))
        assert not any(
            symplectic_product(b, g) for b in gauge.alternatives for g in gauge.generators
        )
        rows = [encode(u.op) for u in report.U] + [encode(b) for b in gauge.alternatives]
        assert rank(rows, 18) == len(rows)
        assert not build_gauge_group(report).alternatives

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            build_gauge_group(self.masked_shor(), t_destab_policy="other")


def check_center(n: int, report, gauge, cap: int = 6) -> None:
    """The gauge group records U as its center, the reference center spans
    span(U), and the subsystem search equals the search against the
    reference center in value, witness and candidates."""
    rows = [encode(g) for g in gauge.generators]
    reference = reference_group_center(n, rows)
    assert gauge.center == [u.op for u in report.U]
    assert spans_equal([decode(row, n) for row in reference], gauge.center, n)
    got = subsystem_distance(gauge, cap=cap)
    want = classify._min_weight_outside(n, reference, rows, cap)
    assert got == want and got.candidates == want.candidates


def check_exhaustive_d_u(report, gauge, cap: int, max_choices: int = 1 << 16) -> None:
    """The exhaustive ``d_u`` equals one search per destabilizer choice in
    value, status and witness, when there are at most ``max_choices``
    choices, and its witness commutes with U and lies outside U | T | P | K."""
    got = unmasked_distance(gauge, cap=cap)
    if (1 << len(gauge.alternatives)) ** len(report.T) <= max_choices:
        assert got == reference_exhaustive_d_u(report, gauge, cap)
    if got.witness is not None:
        assert not any(symplectic_product(got.witness, u.op) for u in report.U)
        shared = gauge.generators[: len(gauge.generators) - len(report.T)]
        assert Echelon(2 * report.n, [encode(g) for g in shared]).reduce(encode(got.witness))[0]


class TestCenter:
    """The gauge group's center is span(U): T pairs with its chosen
    destabilizers and P with K, non-degenerately, and all of them commute
    with U.  So ``subsystem_distance`` searches against U, and under the
    canonical policy it is the search of ``unmasked_distance``."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.data())
    def test_drawn_codes_policies_and_destabilizers(self, seed, data):
        code = random_instance(random.Random(seed), max_n=7, max_s0=5)
        report = run_classification(code)
        policy = data.draw(st.sampled_from(["canonical", "exhaustive"]))
        gauge = build_gauge_group(report, t_destab_policy=policy)
        if data.draw(st.booleans()) and report.T:
            # Explicit destabilizers: each canonical one times an element of
            # the span of the bare logicals, commuting with the ones drawn
            # before it (times 0 always does).
            bare = span_elements(
                [encode(b) for b in build_gauge_group(report, "exhaustive").alternatives]
            )
            t_destabs = []
            for kappa in gauge.t_destabs:
                valid = [
                    k for k in (decode(encode(kappa) ^ b, code.n) for b in bare)
                    if not any(symplectic_product(k, other) for other in t_destabs)
                ]
                assert valid
                t_destabs.append(data.draw(st.sampled_from(valid)))
            gauge = build_gauge_group(report, t_destab_policy=policy, t_destabs=t_destabs)
            assert gauge.t_destabs == t_destabs
        check_center(code.n, report, gauge)

    @pytest.mark.parametrize("block", range(4))
    def test_seeded_codes_under_both_policies(self, block):
        """Seeds 0-199 of ``random_instance(max_n=7, max_s0=5)``."""
        for seed in range(50 * block, 50 * (block + 1)):
            code = random_instance(random.Random(seed), max_n=7, max_s0=5)
            report = run_classification(code)
            canonical = build_gauge_group(report)
            check_center(code.n, report, canonical)
            d_u = unmasked_distance(canonical, cap=6)
            d_sub = subsystem_distance(canonical, cap=6)
            assert d_u == d_sub and d_u.candidates == d_sub.candidates
            exhaustive = build_gauge_group(report, t_destab_policy="exhaustive")
            check_center(code.n, report, exhaustive)
            check_exhaustive_d_u(report, exhaustive, cap=6)

    def test_masked_shor_center_and_choices(self):
        report = run_classification(shor_code(mask_z1z2=True))
        assert not build_gauge_group(report).has_choices()
        exhaustive = build_gauge_group(report, t_destab_policy="exhaustive")
        assert exhaustive.has_choices()
        check_center(9, report, exhaustive, cap=4)


class TestExhaustiveUnmaskedDistance:
    """Under the exhaustive policy ``d_u`` is the maximum over every choice
    of T's destabilizers, each canonical one times any product of the bare
    logicals, found by one search."""

    @staticmethod
    def shor_2x3_report():
        """Shor's code on two blocks of three qubits, with Z5 Z6 left out of
        its one round, so that it stays temporarily masked."""
        n = 6
        checks = [parse_pauli(s, n) for s in ["Z1 Z2", "Z2 Z3", "Z4 Z5", "X1 X2 X3 X4 X5 X6"]]
        return run_classification(DynamicalCode.make(n, checks + [parse_pauli("Z5 Z6", n)], [checks]))

    def test_shor_2x3_with_z5z6_withheld(self):
        """Its destabilizer choices give spans of distance 1, 1, 1 and 2:
        the reports of a search over non-destabilizers read 1."""
        report = self.shor_2x3_report()
        assert report.T == [parse_pauli("Z5 Z6", 6)]
        gauge = build_gauge_group(report, t_destab_policy="exhaustive")
        result = unmasked_distance(gauge, cap=6)
        assert result.value == 2
        assert brute_force_exhaustive_d_u(report, 1 << 12) == (True, 2)
        check_exhaustive_d_u(report, gauge, cap=6)
        assert unmasked_distance(build_gauge_group(report), cap=6).value == 1

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.data())
    def test_drawn_codes_match_one_search_per_choice(self, seed, data):
        code = random_instance(random.Random(seed), max_n=7, max_s0=5)
        report = run_classification(code)
        gauge = build_gauge_group(report, t_destab_policy="exhaustive")
        cap = data.draw(st.integers(0, code.n + 1), label="cap")
        check_exhaustive_d_u(report, gauge, cap, max_choices=1 << 12)

    def test_brute_force_over_every_valid_destabilizer(self):
        """Seeds 0-199 of ``random_instance(max_n=7, max_s0=5)`` with n <= 6
        and at most 4,096 tuples of valid destabilizers: the maximum over
        the pairwise commuting tuples, grouped by span, is the exhaustive
        ``d_u`` over every product with the bare logicals."""
        compared = 0
        for seed in range(200):
            code = random_instance(random.Random(seed), max_n=7, max_s0=5)
            if code.n > 6:
                continue
            report = run_classification(code)
            done, want = brute_force_exhaustive_d_u(report, 1 << 12)
            if not done:
                continue
            gauge = build_gauge_group(report, t_destab_policy="exhaustive")
            result = unmasked_distance(gauge, cap=code.n)
            assert (None if result.no_logicals else result.value) == want, seed
            compared += bool(gauge.has_choices())
        assert compared >= 40


class TestDistances:
    def test_shor_isg_distance(self):
        code = shor_code()
        assert isg_distance(list(code.s0), code.n, cap=4).value == 3

    def test_masked_shor_unmasked_distance_choices(self):
        report = run_classification(shor_code(mask_z1z2=True))
        canonical = build_gauge_group(report)
        assert unmasked_distance(canonical, cap=4).value == 2
        with_x1 = build_gauge_group(report, t_destabs=[parse_pauli("X1", 9)])
        assert unmasked_distance(with_x1, cap=4).value == 2
        with_x2x3 = build_gauge_group(
            report, t_destabs=[parse_pauli("X2 X3", 9)]
        )
        assert unmasked_distance(with_x2x3, cap=4).value == 1
        exhaustive = build_gauge_group(report, t_destab_policy="exhaustive")
        assert unmasked_distance(exhaustive, cap=4).value == 2

    def test_distance_result_rendering(self):
        assert str(DistanceResult(3, 6)) == "3"
        assert str(DistanceResult(None, 4, exceeded_cap=True)) == "> 4"
        assert str(DistanceResult(None, 4, no_logicals=True)) == "undefined"

    def test_cap_exceeded_is_reported(self):
        code = shor_code()
        result = isg_distance(list(code.s0), code.n, cap=2)
        assert result.exceeded_cap and result.value is None

    def test_isg_distance_matches_brute_force(self):
        rng = random.Random(518)
        for _ in range(25):
            code = random_instance(rng, max_n=5, max_s0=4)
            result = isg_distance(list(code.s0), code.n, cap=code.n)
            expected = brute_force_min_weight(
                code.n, list(code.s0), list(code.s0)
            )
            if expected is None:
                assert result.no_logicals
            else:
                assert result.value == expected

    def test_subsystem_and_unmasked_match_brute_force(self):
        rng = random.Random(519)
        for _ in range(25):
            code = random_instance(rng, max_n=5, max_s0=4)
            report = run_classification(code)
            gauge = build_gauge_group(report)
            elements = group_elements(gauge.generators, code.n)
            center = [
                e for e in elements
                if all(symplectic_product(e, g) == 0 for g in gauge.generators)
            ]
            d_sub = subsystem_distance(gauge, cap=code.n)
            expected_sub = brute_force_min_weight(
                code.n, center, gauge.generators
            )
            if expected_sub is None:
                assert d_sub.no_logicals
            else:
                assert d_sub.value == expected_sub
            d_u = unmasked_distance(gauge, cap=code.n)
            expected_u = brute_force_min_weight(
                code.n, [u.op for u in report.U], gauge.generators
            )
            if expected_u is None:
                assert d_u.no_logicals
            else:
                assert d_u.value == expected_u

    def test_results_match_the_reference_search(self, monkeypatch):
        """The whole DistanceResult (value, witness, exceeded_cap and
        no_logicals) equals the per-candidate parity search's, with the
        cap above n and just below each distance found, under the join's
        size rule and under each of its splits."""

        def searches(code, report, gauge, cap):
            return [
                isg_distance(list(code.s0), code.n, cap=cap),
                subsystem_distance(gauge, cap=cap),
                unmasked_distance(gauge, cap=cap),
            ]

        rng = random.Random(520)
        outcomes = set()
        for _ in range(30):
            code = random_instance(rng, max_n=6, max_s0=4)
            report = run_classification(code)
            gauge = build_gauge_group(report, t_destab_policy="exhaustive")
            above = searches(code, report, gauge, code.n + 1)
            caps = [code.n + 1] + sorted({r.value - 1 for r in above if r.value})
            for cap in caps:
                results = searches(code, report, gauge, cap)
                with monkeypatch.context() as patch:
                    patch.setattr(
                        classify, "_min_weight_outside", reference_min_weight_outside
                    )
                    assert results == searches(code, report, gauge, cap)
                for split in SPLITS:
                    with forced_split(split):
                        assert results == searches(code, report, gauge, cap), split
                outcomes |= {
                    "exceeded" if r.exceeded_cap
                    else "undefined" if r.no_logicals else "value"
                    for r in results
                }
        assert outcomes == {"exceeded", "undefined", "value"}

    def test_honeycomb_6x6_at_cap_4_takes_the_half_split(self, monkeypatch):
        """At n=72 weight 4 is joined as 2 + 2 (C(72, 3) * 3^3 > 2^20), and
        no operator of weight <= 4 is a logical for any of the three
        distances."""
        splits = []
        rule = pauli._suffix_weight

        def recorded(n, w):
            splits.append((w, rule(n, w)))
            return splits[-1][1]

        monkeypatch.setattr(pauli, "_suffix_weight", recorded)
        code = honeycomb(6, 6)
        report = run_classification(code)
        gauge = build_gauge_group(report)
        results = [
            isg_distance(list(code.s0), code.n, cap=4),
            subsystem_distance(gauge, cap=4),
            unmasked_distance(gauge, cap=4),
        ]
        assert all(r.exceeded_cap and r.value is None for r in results)
        assert set(splits) == {(1, 1), (2, 1), (3, 1), (4, 2)}

    def test_window_larger_than_schedule_rejected(self):
        code = shor_code()
        with pytest.raises(ValidationError):
            run_classification(code, window=5)

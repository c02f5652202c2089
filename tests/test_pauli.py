import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dyncode import pauli
from dyncode.engine import CapExceededError
from dyncode.pauli import (
    PauliOperator,
    commuting_paulis_up_to_weight,
    decode,
    encode,
    format_pauli,
    identity,
    parse_pauli,
    product,
    symplectic_partner,
    symplectic_product,
    weight,
)

from oracles import SPLITS, all_paulis, forced_split, paulis_up_to_weight


def paulis(max_n=8, min_n=1):
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n), st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1)
        )
    ).map(lambda t: PauliOperator(*t))


class TestParseFormat:
    def test_dense_round_trip(self):
        op = parse_pauli("XIZYI", 5)
        assert format_pauli(op) == "XIZYI"

    def test_sparse_one_based(self):
        assert parse_pauli("X1 Z3", 4) == parse_pauli("XIZI", 4)

    def test_sparse_rejects_duplicate_index(self):
        with pytest.raises(ValueError):
            parse_pauli("X2 Z2", 3)

    def test_rejects_sign_prefix(self):
        with pytest.raises(ValueError):
            parse_pauli("-X1", 2)

    def test_identity_text(self):
        assert parse_pauli("IIII", 4).is_identity()

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            parse_pauli("XX", 3)

    def test_rejects_bad_letter(self):
        with pytest.raises(ValueError):
            parse_pauli("XQ", 2)

    @pytest.mark.parametrize("text, n, message", [
        ("XQ", 2, "invalid Pauli character 'Q' in 'XQ'"),
        (" XyZé ", 4, "invalid Pauli character 'y' in ' XyZé '"),
        ("XX", 3, "dense Pauli string has length 2, expected 3: 'XX'"),
        ("X_1", 3, "invalid sparse Pauli token 'X_1' in 'X_1'"),
    ])
    def test_error_messages(self, text, n, message):
        with pytest.raises(ValueError) as caught:
            parse_pauli(text, n)
        assert str(caught.value) == message

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValueError):
            parse_pauli("X5", 4)

    @given(st.text("IXYZxz1 -", max_size=7), st.integers(0, 6))
    def test_dense_fast_path_matches_the_general_path(self, text, n):
        # Surrounding spaces keep a string off the fast path, and change
        # nothing else but its quoting in error messages.
        def outcome(text):
            try:
                return parse_pauli(text, n)
            except ValueError as exc:
                return str(exc)

        padded = f" {text} "
        expected = outcome(padded)
        if isinstance(expected, str):
            expected = expected.replace(repr(padded), repr(text))
        assert outcome(text) == expected

    @pytest.mark.parametrize("text, n", [("", 0), ("", 2), ("I", 1), ("I", 3), ("IXYZ", 4)])
    def test_dense_fast_path_edge_cases(self, text, n):
        assert parse_pauli(text, n) == parse_pauli(f" {text}\t", n)

    @given(paulis(max_n=130, min_n=0))
    def test_round_trip_everything(self, op):
        assert parse_pauli(format_pauli(op), op.n) == op

    def test_format_edge_cases(self):
        assert format_pauli(identity(0)) == ""
        assert format_pauli(identity(3)) == "III"
        assert format_pauli(PauliOperator(17, 1 << 16, 1 << 16)) == "I" * 16 + "Y"


class TestAlgebra:
    def test_product_is_xor(self):
        # X * Z = Y up to phase, which is dropped.
        assert product(parse_pauli("X", 1), parse_pauli("Z", 1)) == parse_pauli("Y", 1)

    def test_product_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            product(identity(2), identity(3))

    @given(paulis())
    def test_self_product_is_identity(self, op):
        assert product(op, op).is_identity()

    @given(paulis())
    def test_identity_is_neutral(self, op):
        assert product(op, identity(op.n)) == op

    def test_anticommuting_pair(self):
        assert symplectic_product(parse_pauli("X1", 2), parse_pauli("Z1", 2)) == 1

    def test_commuting_pair(self):
        assert symplectic_product(parse_pauli("X1 X2", 2), parse_pauli("Z1 Z2", 2)) == 0

    @given(paulis(), st.data())
    def test_symplectic_symmetry(self, a, data):
        b = data.draw(
            st.tuples(
                st.integers(0, (1 << a.n) - 1), st.integers(0, (1 << a.n) - 1)
            ).map(lambda t: PauliOperator(a.n, *t))
        )
        assert symplectic_product(a, b) == symplectic_product(b, a)

    @given(paulis(), st.data())
    def test_symplectic_bilinear(self, a, data):
        ints = st.tuples(
            st.integers(0, (1 << a.n) - 1), st.integers(0, (1 << a.n) - 1)
        ).map(lambda t: PauliOperator(a.n, *t))
        b, c = data.draw(ints), data.draw(ints)
        assert symplectic_product(a, product(b, c)) == (
            symplectic_product(a, b) ^ symplectic_product(a, c)
        )

    def test_weight_counts_support(self):
        assert weight(parse_pauli("XYZII", 5)) == 3
        assert weight(identity(4)) == 0


class TestEncoding:
    @given(paulis())
    def test_encode_decode(self, op):
        assert decode(encode(op), op.n) == op

    @given(paulis(), st.data())
    def test_partner_computes_commutation(self, a, data):
        b = data.draw(
            st.tuples(
                st.integers(0, (1 << a.n) - 1), st.integers(0, (1 << a.n) - 1)
            ).map(lambda t: PauliOperator(a.n, *t))
        )
        parity = (encode(a) & symplectic_partner(encode(b), a.n)).bit_count() & 1
        assert parity == symplectic_product(a, b)


class TestEnumeration:
    @pytest.mark.parametrize("n, max_weight", [(1, 1), (3, 2), (4, 4), (5, 3), (3, 5)])
    def test_each_pauli_up_to_the_weight_once(self, n, max_weight):
        vecs = list(paulis_up_to_weight(n, max_weight))
        assert len(vecs) == sum(
            math.comb(n, i) * 3 ** i for i in range(min(n, max_weight) + 1)
        )
        expected = {encode(op) for op in all_paulis(n) if weight(op) <= max_weight}
        assert len(set(vecs)) == len(vecs) and set(vecs) == expected
        weights = [weight(decode(vec, n)) for vec in vecs]
        assert vecs[0] == 0 and weights == sorted(weights)

    def test_order_within_a_weight(self):
        ops = [format_pauli(decode(v, 2)) for v in paulis_up_to_weight(2, 2)]
        assert ops == [
            "II", "XI", "ZI", "YI", "IX", "IZ", "IY",
            "XX", "XZ", "XY", "ZX", "ZZ", "ZY", "YX", "YZ", "YY",
        ]

    @staticmethod
    def commuting_subsequence(n, max_weight, rows):
        ops = [decode(row, n) for row in rows]
        return [
            vec for vec in paulis_up_to_weight(n, max_weight)
            if not any(symplectic_product(decode(vec, n), op) for op in ops)
        ]

    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.integers(0, n + 1),
                st.lists(st.integers(0, (1 << (2 * n)) - 1), max_size=5),
            )
        )
    )
    def test_commuting_enumeration_is_the_commuting_subsequence(self, case):
        n, max_weight, rows = case
        expected = self.commuting_subsequence(n, max_weight, rows)
        assert list(commuting_paulis_up_to_weight(n, max_weight, rows)) == expected
        for split in SPLITS:
            with forced_split(split):
                assert list(commuting_paulis_up_to_weight(n, max_weight, rows)) == (
                    expected
                ), split

    @pytest.mark.parametrize(
        "n, max_weight, rows",
        [
            (4, 3, []),
            (3, 3, [0b000111, 0b101000, 0b101111, 0b000111, 0]),
            (1, 1, [0b10]),
            (1, 1, [0b11]),
            (1, 3, []),
            (3, 6, [0b011011]),
            (2, 0, [0b0011]),
        ],
        ids=["no-rows", "dependent-rows", "n1-z", "n1-y", "n1-beyond-n",
             "weight-beyond-n", "weight-zero"],
    )
    def test_commuting_enumeration_cases(self, n, max_weight, rows):
        expected = self.commuting_subsequence(n, max_weight, rows)
        if not any(rows):
            assert expected == list(paulis_up_to_weight(n, max_weight))
        assert list(commuting_paulis_up_to_weight(n, max_weight, rows)) == expected
        for split in SPLITS:
            with forced_split(split):
                vecs = list(commuting_paulis_up_to_weight(n, max_weight, rows))
                assert vecs == expected, split

    def test_weight_is_clamped_at_n(self):
        assert list(paulis_up_to_weight(2, 10**9)) == list(paulis_up_to_weight(2, 2))
        for split in SPLITS:
            with forced_split(split):
                assert list(commuting_paulis_up_to_weight(2, 10**9, [0b0101])) == list(
                    commuting_paulis_up_to_weight(2, 2, [0b0101])
                )

    @pytest.mark.parametrize("split", sorted(SPLITS))
    def test_each_operator_once_at_larger_sizes(self, split):
        """Seeded row sets at n 6-9, weights up to 4: each split yields the
        commuting subsequence, including operators whose syndromes collide."""
        rng = random.Random(f"join/{split}")
        with forced_split(split):
            for _ in range(12):
                n = rng.randint(6, 9)
                rows = [rng.getrandbits(2 * n) for _ in range(rng.randint(0, 4))]
                assert list(commuting_paulis_up_to_weight(n, 4, rows)) == (
                    self.commuting_subsequence(n, 4, rows)
                )

    def test_size_rule_takes_the_letters_then_halves(self):
        # At n=18 the (w-1)-prefix level passes 2^20 only at w=6:
        # C(18, 5) * 3^5 = 2,082,024.
        assert [pauli._suffix_weight(18, w) for w in range(1, 8)] == [1] * 5 + [3, 3]
        assert [pauli._suffix_weight(72, w) for w in range(1, 7)] == [1, 1, 1, 2, 2, 3]

    def test_a_table_past_the_limit_raises_at_the_weight_that_needs_it(self, monkeypatch):
        # Under the half split, weights 2 and 3 join the 27-entry letter
        # table and weight 4 needs the C(9, 2) * 9 = 324 pairs.
        monkeypatch.setattr(pauli, "_MAX_TABLE", 100)
        rows = [encode(parse_pauli("Z1 Z2", 9)), encode(parse_pauli("X1 X2 X3", 9))]
        with forced_split("halves"):
            lighter = list(commuting_paulis_up_to_weight(9, 3, rows))
            search = commuting_paulis_up_to_weight(9, 4, rows)
            assert [next(search) for _ in lighter] == lighter
            with pytest.raises(CapExceededError):
                next(search)

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyncode.gf2 import (
    BitMatrix,
    Combination,
    Echelon,
    in_span,
    kernel_under_form,
    nullspace,
    rank,
    rref,
    solve_linear,
    span_intersection,
)

from oracles import ReferenceEchelon, reference_rref


def matrices(max_rows=6, max_cols=8):
    return st.integers(1, max_cols).flatmap(
        lambda cols: st.tuples(
            st.lists(
                st.integers(0, (1 << cols) - 1), min_size=0, max_size=max_rows
            ),
            st.just(cols),
        )
    ).map(lambda t: BitMatrix(*t))


@given(st.integers(0, 1 << 40), st.integers(0, 40))
def test_combination_indices_are_the_set_bits_below_size(mask, size):
    combo = Combination(mask, size)
    assert combo.indices() == tuple(i for i in range(size) if (mask >> i) & 1)


def brute_span(rows):
    elements = {0}
    for row in rows:
        elements |= {e ^ row for e in elements}
    return elements


class TestRref:
    def test_known_rank(self):
        m = BitMatrix([0b011, 0b110, 0b101], 3)
        _, _, r = rref(m)
        assert r == 2

    @given(matrices())
    def test_transform_reproduces_rows(self, m):
        echelon, transform, r = rref(m)
        for row, combo in zip(echelon.rows, transform.rows):
            acc = 0
            for i in range(len(m.rows)):
                if (combo >> i) & 1:
                    acc ^= m.rows[i]
            assert acc == row

    @given(matrices())
    def test_rank_equals_span_size(self, m):
        assert 1 << rank(m.rows, m.cols) == len(brute_span(m.rows))

    @given(matrices())
    def test_zero_rows_sorted_last(self, m):
        echelon, _, r = rref(m)
        assert all(row != 0 for row in echelon.rows[:r])
        assert all(row == 0 for row in echelon.rows[r:])


class TestInSpan:
    @given(matrices(), st.data())
    def test_membership_matches_brute_force(self, m, data):
        vec = data.draw(st.integers(0, (1 << m.cols) - 1))
        combo = in_span(vec, Echelon(m.cols, m.rows))
        if vec in brute_span(m.rows):
            assert combo is not None and combo.evaluate(m.rows) == vec
        else:
            assert combo is None

    def test_rejects_wide_vector(self):
        with pytest.raises(ValueError):
            in_span(0b1000, Echelon(3, [0b11]))


class TestEchelon:
    @given(matrices(max_rows=8))
    def test_add_reports_span_growth(self, m):
        span = Echelon(m.cols)
        for i, row in enumerate(m.rows):
            grows = row not in brute_span(m.rows[:i])
            assert span.add(row) == grows
        assert len(span) == rref(m)[2]
        assert len(Echelon(m.cols, m.rows)) == len(span)

    @given(matrices(max_rows=8), st.data())
    def test_in_span_combination_covers_every_row_added(self, m, data):
        # Rows added one by one, dependent ones included: each membership
        # combination is over all of them, in insertion order.
        span = Echelon(m.cols)
        for i, row in enumerate(m.rows):
            span.add(row)
            vec = data.draw(st.sampled_from(sorted(brute_span(m.rows[: i + 1]))))
            combo = in_span(vec, span)
            assert combo is not None
            assert combo.size == i + 1
            assert combo.evaluate(m.rows) == vec


class TestIntersection:
    @given(matrices(max_rows=5, max_cols=6), st.data())
    def test_matches_brute_force(self, c, data):
        # The right-hand basis must be independent.
        rows = data.draw(
            st.lists(st.integers(0, (1 << c.cols) - 1), max_size=5)
        )
        v_rows = []
        for row in rows:
            if row not in brute_span(v_rows):
                v_rows.append(row)
        v = BitMatrix(v_rows, c.cols)
        elements, redundancies = span_intersection(c, v)
        expected = brute_span(c.rows) & brute_span(v.rows)
        got = brute_span([e.vector for e in elements])
        assert got == expected
        for e in elements:
            assert e.left_combo.evaluate(c.rows) == e.vector
            assert e.right_combo.evaluate(v.rows) == e.vector
        for e in redundancies:
            assert e.left_combo.evaluate(c.rows) == 0
            assert e.left_combo


class TestNullspaceSolve:
    @given(matrices())
    def test_nullspace_is_orthogonal_and_complete(self, m):
        basis = nullspace(m)
        for vec in basis:
            assert all((vec & row).bit_count() % 2 == 0 for row in m.rows)
        assert rank(basis, m.cols) == m.cols - rank(m.rows, m.cols)

    @given(matrices(), st.data())
    def test_solve_linear_solutions_check_out(self, m, data):
        """The least solution, or None exactly when there is none."""
        rhs = data.draw(
            st.lists(
                st.integers(0, 1), min_size=len(m.rows), max_size=len(m.rows)
            )
        )
        solutions = [
            v for v in range(1 << m.cols)
            if all((v & row).bit_count() % 2 == bit for row, bit in zip(m.rows, rhs))
        ]
        assert solve_linear(m.rows, rhs, m.cols) == min(solutions, default=None)


class TestKernelUnderForm:
    def test_matches_commutant(self):
        from dyncode.pauli import decode, encode, parse_pauli, symplectic_product

        n = 3
        gens = [parse_pauli("Z1 Z2", n), parse_pauli("X1 X2 X3", n)]
        kernel = kernel_under_form(BitMatrix([encode(g) for g in gens], 2 * n))
        commuting = {
            vec
            for vec in range(1 << (2 * n))
            if all(
                symplectic_product(decode(vec, n), g) == 0 for g in gens
            )
        }
        assert brute_span(kernel.rows) == commuting


@st.composite
def structured_matrices(draw):
    """Up to 40 rows of width 1-150, mixing fresh rows (dense or sparse)
    with zero rows, repeats and XORs of two earlier rows."""
    cols = draw(st.integers(1, 150))
    rows: list[int] = []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(["dense", "sparse", "zero", "repeat", "sum"]))
        if kind in ("repeat", "sum") and rows:
            row = draw(st.sampled_from(rows))
            if kind == "sum":
                row ^= draw(st.sampled_from(rows))
        elif kind == "sparse":
            row = 0
            for col in draw(st.lists(st.integers(0, cols - 1), max_size=4)):
                row |= 1 << col
        elif kind == "zero":
            row = 0
        else:
            row = draw(st.integers(0, (1 << cols) - 1))
        rows.append(row)
    return BitMatrix(rows, cols)


class TestKernelOracles:
    """``rref`` and ``Echelon`` against the column-scanning references."""

    @settings(max_examples=300, deadline=None)
    @given(structured_matrices())
    def test_rref_matches_the_reference(self, m):
        echelon, transform, r = rref(m)
        ref_echelon, ref_transform, ref_r = reference_rref(m)
        assert echelon.rows == ref_echelon.rows
        assert transform.rows == ref_transform.rows
        assert r == ref_r

    @settings(max_examples=300, deadline=None)
    @given(structured_matrices(), st.data())
    def test_echelon_matches_the_reference(self, m, data):
        span, ref = Echelon(m.cols), ReferenceEchelon(m.cols)
        for row in m.rows:
            assert span.add(row) == ref.add(row)
            assert span.pivots == ref.pivots
        assert len(span) == len(ref) and span.size == ref.size
        queries = data.draw(st.lists(st.integers(0, (1 << m.cols) - 1), max_size=8))
        for i in range(len(m.rows)):
            queries.append(m.rows[i] ^ m.rows[i // 2])
        for vec in queries:
            assert span.reduce(vec) == ref.reduce(vec)

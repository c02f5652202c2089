"""
Dense GF(2) linear algebra on bit-packed rows.

A matrix is a list of Python integers, one per row, with column ``c``
stored in bit ``c`` (LSB first).  All routines track the row operations
they perform, so every derived vector can be expressed as an explicit
combination of the original rows; the set-tracking machinery in the
classification algorithm depends on that.

Two primitives, and no linear algebra outside them: :func:`rref` for
canonical forms with their row transforms (span intersections,
nullspaces, least solutions), and :class:`Echelon` for incremental
spans, built once per row set and asked every question about it.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

from .pauli import symplectic_partner

# Set-bit offsets of every byte value, for dense vectors.
_BYTE_BITS = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))


def bits(vec: int) -> list[int]:
    """Positions of the set bits of ``vec``, lowest first."""
    if vec.bit_count() * 12 < vec.bit_length():
        out = []
        while vec:
            low = vec & -vec
            out.append(low.bit_length() - 1)
            vec ^= low
        return out
    data = vec.to_bytes((vec.bit_length() + 7) >> 3, "little")
    return [j + i for j, byte in zip(range(0, 8 * len(data), 8), data)
            if byte for i in _BYTE_BITS[byte]]


def lowest(mask: int) -> int:
    """Index of the lowest set bit of a nonzero mask."""
    return (mask & -mask).bit_length() - 1


@dataclass(frozen=True)
class Combination:
    """A GF(2) combination of rows from a named generator list.

    ``mask`` has bit ``i`` set iff generator ``i`` participates; ``size``
    is the length of the generator list the mask refers to.
    """

    mask: int
    size: int

    def indices(self) -> tuple[int, ...]:
        return tuple(bits(self.mask & ((1 << self.size) - 1)))

    def evaluate(self, rows: list[int]) -> int:
        """XOR together the selected rows; reproduces the combined vector."""
        acc = 0
        for i in self.indices():
            acc ^= rows[i]
        return acc

    def __bool__(self) -> bool:
        return self.mask != 0


@dataclass
class BitMatrix:
    """Row-major bit matrix; row order is significant."""

    rows: list[int]
    cols: int


def rref(matrix: BitMatrix) -> tuple[BitMatrix, BitMatrix, int]:
    """Reduced row echelon form over GF(2) with transform tracking.

    Pivots are chosen leftmost-column first, lowest row index first, and
    elimination clears the pivot column both below and above, so the
    result is canonical for a given row span and row order.

    Args:
        matrix: Input matrix (not modified).

    Returns:
        (echelon, transform, rank): ``echelon.rows[i]`` equals the XOR of
        the input rows selected by ``transform.rows[i]``; ``transform`` is
        invertible; ``rank`` counts the nonzero echelon rows (which come
        first, zero rows are kept at the bottom with their transforms).
    """
    rows = list(matrix.rows)
    m = len(rows)
    trans = [1 << i for i in range(m)]
    width = (1 << matrix.cols) - 1
    # The columns set in the rows not yet used as pivots: the lowest one
    # is the next pivot column, and every column below it is empty there.
    rest = functools.reduce(operator.or_, rows, 0) & width
    pivot_row = 0
    while rest:
        bit = rest & -rest
        found = pivot_row
        while not rows[found] & bit:
            found += 1
        rows[pivot_row], rows[found] = rows[found], rows[pivot_row]
        trans[pivot_row], trans[found] = trans[found], trans[pivot_row]
        pivot, pivot_trans = rows[pivot_row], trans[pivot_row]
        for r in range(pivot_row):
            if rows[r] & bit:
                rows[r] ^= pivot
                trans[r] ^= pivot_trans
        rest = 0
        for r in range(pivot_row + 1, m):
            row = rows[r]
            if row & bit:
                row = rows[r] = row ^ pivot
                trans[r] ^= pivot_trans
            rest |= row
        rest &= width
        pivot_row += 1
    return BitMatrix(rows, matrix.cols), BitMatrix(trans, matrix.cols), pivot_row


class Echelon:
    """Incremental row span; ``len`` is its rank.

    Row i added (dependent rows counted too) is tagged with bit i, so a
    reduction also reports the combination of added rows it used.
    """

    def __init__(self, cols: int, rows=()) -> None:
        self.cols = cols
        self.pivots: dict[int, tuple[int, int]] = {}  # pivot bit -> (row, combo)
        self.mask = 0  # OR of the pivot bits
        self.size = 0  # rows added so far
        for row in rows:
            self.add(row)

    def __len__(self) -> int:
        return len(self.pivots)

    def reduce(self, vec: int) -> tuple[int, int]:
        """Reduce ``vec`` by the span: (residue, combination of the rows
        used), with a zero residue exactly when ``vec`` is in the span.

        Each stored row's lowest bit is its pivot, so clearing the lowest
        pivot present never sets a lower one; the residue, free of pivot
        bits, and its combination are unique."""
        combo = 0
        pivots, mask = self.pivots, self.mask
        present = vec & mask
        while present:
            row, row_combo = pivots[(present & -present).bit_length() - 1]
            vec ^= row
            combo ^= row_combo
            present = vec & mask
        return vec, combo

    def add(self, vec: int) -> bool:
        """Add the next row; True if it was independent of the span."""
        vec, combo = self.reduce(vec)
        combo ^= 1 << self.size
        self.size += 1
        if vec == 0:
            return False
        pivot = lowest(vec)
        self.pivots[pivot] = (vec, combo)
        self.mask |= 1 << pivot
        return True


def rank(rows: list[int], cols: int) -> int:
    """GF(2) rank of a list of bit-packed rows."""
    return len(Echelon(cols, rows))


def in_span(vector: int, span: Echelon) -> Combination | None:
    """Express a vector over the rows added to ``span`` if possible.

    Returns:
        A :class:`Combination` ``c`` over the rows added so far, in order,
        with ``c.evaluate(rows) == vector``, or None outside the span.
    """
    if vector >> span.cols:
        raise ValueError("vector is wider than the span")
    residue, combo = span.reduce(vector)
    if residue != 0:
        return None
    return Combination(combo, span.size)


@dataclass(frozen=True)
class IntersectionElement:
    """One generator of the span intersection, with row provenance.

    ``vector`` is zero for redundancy witnesses: those arise from linear
    dependencies among the first-argument rows, and each one still carries
    a distinct combination over those rows.
    """

    vector: int
    left_combo: Combination
    right_combo: Combination


def span_intersection(
    c_basis: BitMatrix, v_basis: BitMatrix
) -> tuple[list[IntersectionElement], list[IntersectionElement]]:
    """Intersection of two row spans via the doubled-width block matrix.

    Rows ``[v | v]`` for the second span and ``[c | 0]`` for the first are
    stacked and row reduced; echelon rows of shape ``[0 | w]`` yield the
    intersection generators, and all-zero rows witness dependencies among
    the ``c`` rows.  The rows of ``v_basis`` must be independent so that
    zero rows can be attributed unambiguously.

    Returns:
        (elements, redundancies): intersection generators (nonzero
        ``vector``) and zero-vector redundancy witnesses.  Both carry the
        combination over ``c_basis`` rows (``left_combo``) and over
        ``v_basis`` rows (``right_combo``) that produces them.
    """
    if c_basis.cols != v_basis.cols:
        raise ValueError("width mismatch between the two bases")
    width = c_basis.cols
    m = len(v_basis.rows)
    k = len(c_basis.rows)
    block_rows = [row | (row << width) for row in v_basis.rows]
    block_rows += list(c_basis.rows)
    echelon, transform, _ = rref(BitMatrix(block_rows, 2 * width))
    low_mask = (1 << width) - 1
    v_mask = (1 << m) - 1
    elements: list[IntersectionElement] = []
    redundancies: list[IntersectionElement] = []
    for row, combo in zip(echelon.rows, transform.rows):
        if row & low_mask:
            continue
        left = Combination(combo >> m, k)
        right = Combination(combo & v_mask, m)
        entry = IntersectionElement(row >> width, left, right)
        if entry.vector:
            elements.append(entry)
        elif left:
            redundancies.append(entry)
    return elements, redundancies


def nullspace(matrix: BitMatrix) -> list[int]:
    """Basis of ``{v : parity(v & row) == 0 for every row}``."""
    echelon, _, r = rref(matrix)
    pivot_cols = [lowest(row) for row in echelon.rows[:r]]
    pivot_set = set(pivot_cols)
    free_cols = [c for c in range(matrix.cols) if c not in pivot_set]
    basis = []
    for free in free_cols:
        vec = 1 << free
        for row, pivot in zip(echelon.rows[:r], pivot_cols):
            if (row >> free) & 1:
                vec |= 1 << pivot
        basis.append(vec)
    return basis


def solve_linear(rows: list[int], rhs: list[int], cols: int) -> int | None:
    """The least solution of ``parity(v & rows[i]) == rhs[i]`` for all i,
    or None.  The solution read off the reduced form is zero on every free
    column, and the homogeneous basis vector of free column f has f as
    its top bit (a row's pivot is its lowest bit): any other solution
    differs from it last at a free column, where the other one is set.
    """
    augmented = [row | (bit << cols) for row, bit in zip(rows, rhs)]
    echelon, _, r = rref(BitMatrix(augmented, cols + 1))
    # The row 0 = 1 of an inconsistent system has the last pivot.
    if r and lowest(echelon.rows[r - 1]) == cols:
        return None
    return sum(1 << lowest(row) for row in echelon.rows[:r] if row >> cols & 1)


def kernel_under_form(generators: BitMatrix) -> BitMatrix:
    """Basis of all symplectic vectors orthogonal to every generator row.

    Rows are 2n-bit vectors (x block low, z block high); orthogonality is
    under the symplectic form, i.e. the returned vectors encode exactly
    the Pauli operators commuting with every input operator.
    """
    if generators.cols % 2:
        raise ValueError("symplectic rows must have even width")
    n = generators.cols // 2
    swapped = [symplectic_partner(row, n) for row in generators.rows]
    return BitMatrix(nullspace(BitMatrix(swapped, 2 * n)), 2 * n)

"""
Phaseless n-qubit Pauli operators in the binary symplectic picture.

An operator is a pair of n-bit masks (x_mask, z_mask): qubit i carries
X iff only x_mask has bit i, Z iff only z_mask, Y iff both, I iff neither.
Group multiplication is bitwise XOR of the masks, so every operator is its
own inverse.  All +/-1 sign bookkeeping is deliberately kept out of this
module and lives in outcome expressions instead.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass


@dataclass(frozen=True)
class PauliOperator:
    """A phaseless Pauli operator on ``n`` qubits."""

    n: int
    x_mask: int
    z_mask: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("qubit count must be non-negative")
        full = (1 << self.n) - 1
        if self.x_mask & ~full or self.z_mask & ~full:
            raise ValueError("mask has bits outside the qubit range")

    def is_identity(self) -> bool:
        return self.x_mask == 0 and self.z_mask == 0

    def __str__(self) -> str:
        return format_pauli(self)


def identity(n: int) -> PauliOperator:
    """The identity operator on ``n`` qubits."""
    return PauliOperator(n, 0, 0)


_CHAR_TO_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
# str.translate tables for dense strings: delete the four letters (what
# remains is invalid), and map each letter to its x or z bit.
_DENSE_LETTERS = str.maketrans("", "", "IXYZ")
_X_DIGITS = str.maketrans("IXYZ", "0110")
_Z_DIGITS = str.maketrans("IXYZ", "0011")
# format_pauli's digit x + 2z of each qubit to its letter.
_LETTERS = str.maketrans("0123", "IXZY")


def parse_pauli(text: str, n: int) -> PauliOperator:
    """Parse a Pauli operator from text.

    Two grammars are accepted:

    * dense: ``"XIZY..."``, exactly ``n`` characters from ``IXYZ``;
    * sparse: whitespace-separated tokens like ``"X1 Z3 Y7"`` with 1-based
      qubit indices (at most one letter per qubit).

    Sign prefixes are rejected; operators are phaseless by construction.

    Args:
        text: The operator in either grammar.  The empty string or ``"I"``
            denotes the identity in sparse form.
        n: Qubit count of the resulting operator.

    Returns:
        The corresponding :class:`PauliOperator`.

    Raises:
        ValueError: on malformed characters, out-of-range indices,
            duplicate sparse indices, or a sign prefix.
    """
    if text and len(text) == n and not text.translate(_DENSE_LETTERS):
        return _parse_dense(text, n)  # exactly n letters, as saved codes hold
    stripped = text.strip()
    if stripped.startswith(("+", "-")):
        raise ValueError(f"sign prefixes are not permitted: {text!r}")
    tokens = stripped.split()
    if not tokens or (len(tokens) == 1 and tokens[0] == "I" and n != 1):
        return identity(n)
    # Characters other than the four letters, in order; a digit among
    # them makes the token sparse.
    invalid = tokens[0].translate(_DENSE_LETTERS) if len(tokens) == 1 else ""
    if len(tokens) == 1 and not any(ch.isdigit() for ch in invalid):
        dense = tokens[0]
        if len(dense) != n:
            raise ValueError(
                f"dense Pauli string has length {len(dense)}, expected {n}: {text!r}"
            )
        if invalid:
            raise ValueError(f"invalid Pauli character {invalid[0]!r} in {text!r}")
        return _parse_dense(dense, n)

    x_mask = z_mask = 0
    seen: set[int] = set()
    for token in tokens:
        letter, digits = token[0].upper(), token[1:]
        if letter not in "XYZ" or not digits.isdigit():
            raise ValueError(f"invalid sparse Pauli token {token!r} in {text!r}")
        index = int(digits)
        if not 1 <= index <= n:
            raise ValueError(f"qubit index {index} out of range 1..{n} in {text!r}")
        if index in seen:
            raise ValueError(f"duplicate qubit index {index} in {text!r}")
        seen.add(index)
        xb, zb = _CHAR_TO_BITS[letter]
        x_mask |= xb << (index - 1)
        z_mask |= zb << (index - 1)
    return PauliOperator(n, x_mask, z_mask)


def _parse_dense(dense: str, n: int) -> PauliOperator:
    """The operator of ``n`` letters from ``IXYZ``."""
    rev = dense[::-1]  # qubit i is bit i
    return PauliOperator(n, int(rev.translate(_X_DIGITS), 2), int(rev.translate(_Z_DIGITS), 2))


def format_pauli(op: PauliOperator) -> str:
    """Render an operator in the canonical dense form (``"XIZY..."``).

    The binary digits of each mask, read as hexadecimal, put qubit i in
    hex digit i; x + 2z then has digit 0-3 per qubit (I, X, Z, Y).
    """
    if not op.n:
        return ""
    digits = int(f"{op.x_mask:b}", 16) + 2 * int(f"{op.z_mask:b}", 16)
    return f"{digits:0{op.n}x}"[::-1].translate(_LETTERS)


def product(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    """Phaseless product of two operators (bitwise XOR of the masks)."""
    if a.n != b.n:
        raise ValueError(f"size mismatch: {a.n} vs {b.n} qubits")
    return PauliOperator(a.n, a.x_mask ^ b.x_mask, a.z_mask ^ b.z_mask)


def symplectic_product(a: PauliOperator, b: PauliOperator) -> int:
    """Symplectic inner product; 1 iff the operators anticommute."""
    if a.n != b.n:
        raise ValueError(f"size mismatch: {a.n} vs {b.n} qubits")
    return ((a.x_mask & b.z_mask).bit_count() + (a.z_mask & b.x_mask).bit_count()) & 1


def weight(op: PauliOperator) -> int:
    """Number of qubits on which the operator acts non-trivially."""
    return (op.x_mask | op.z_mask).bit_count()


def encode(op: PauliOperator) -> int:
    """Pack an operator into a 2n-bit row vector (x block low, z block high)."""
    return op.x_mask | (op.z_mask << op.n)


def decode(vec: int, n: int) -> PauliOperator:
    """Inverse of :func:`encode`."""
    mask = (1 << n) - 1
    return PauliOperator(n, vec & mask, (vec >> n) & mask)


# The last qubit of each operator comes from the 3n-letter table while a
# weight's (w - 1)-qubit prefixes have at most this many letter assignments
# in all; past it the weight is split in halves (meet in the middle).
_LETTER_JOIN_LEVEL = 1 << 20
# A set of a table's syndromes, at most this many, screens each prefix's
# assignments in C; a larger table is searched by bisection alone, which
# keeps the half split's memory at the sorted table (~48 bytes an entry).
_SCREENED_TABLE = 1 << 16
# The most entries a table may hold (about 200 MB): honeycomb(6,6)'s
# weight-3 table has 1.6M, its weight-4 table 83M.
_MAX_TABLE = 1 << 22


def _suffix_weight(n: int, w: int) -> int:
    """The weight b of the table side when weight w is joined as (w - b) + b."""
    if math.comb(n, w - 1) * 3 ** (w - 1) <= _LETTER_JOIN_LEVEL:
        return 1
    return w // 2


def _assignments(syndromes, stop: int, size: int, start: int = 0, support=(), syns=(0,)):
    """Yield ``(support, syns)`` for every ``size``-qubit support in
    ``range(start, stop)``, in :func:`itertools.combinations` order, with
    the syndromes of its 3**size letter assignments in product order (the
    last qubit fastest, X < Z < Y).  Each list extends its parent's."""
    if not size:
        yield support, syns
        return
    for q in range(start, stop - size + 1):
        ext = [s ^ letter for s in syns for letter in syndromes[q]]
        if size == 1:
            yield support + (q,), ext
        else:
            yield from _assignments(syndromes, stop, size - 1, q + 1, support + (q,), ext)


def _syndrome_table(n: int, syndromes, b: int):
    """The weight-b operators, each as ``syndrome << shift | k``, sorted.

    k numbers the operators by support in lexicographic order, then by
    letters (the last qubit fastest, X < Z < Y), so k // 3**b is the rank
    of its support and k % 3**b its letters, and the entries of one
    syndrome rise with their first qubit.  A table of more than
    ``_MAX_TABLE`` entries raises :class:`CapExceededError` instead.
    """
    size = math.comb(n, b) * 3 ** b
    if size > _MAX_TABLE:
        from .engine import CapExceededError  # engine imports this module

        raise CapExceededError(
            f"the weight-{b} syndrome table would hold {size} operators, "
            f"more than {_MAX_TABLE}"
        )
    shift = size.bit_length()
    syns = itertools.chain.from_iterable(s for _, s in _assignments(syndromes, n, b))
    table = sorted(map(operator.or_, map(operator.lshift, syns, itertools.repeat(shift)),
                       itertools.count()))
    screen = {e >> shift for e in table} if len(table) <= _SCREENED_TABLE else None
    return table, shift, screen, list(itertools.combinations(range(n), b))


def commuting_paulis_up_to_weight(n: int, max_weight: int, rows: list[int]):
    """Yield the encoded operators of weight <= max_weight that commute
    with every encoded row, lightest first.

    The order is fixed: by weight (identity first), then by support in
    lexicographic order, then by the per-qubit letters with X < Z < Y,
    the last qubit of the support varying fastest.  The result is exactly
    the commuting subsequence of all operators in that order, found by a
    syndrome join instead of a parity test per candidate.  A letter's
    syndrome has bit j set iff it anticommutes with ``rows[j]``; an
    operator's syndrome is the XOR over its letters and is zero iff it
    commutes with every row.  Weight w is joined as a + b qubits: the
    a-qubit prefix supports are walked in lexicographic order, each
    extending its parent's assignment syndromes, and each assignment
    looks its syndrome up in a sorted table of the weight-b operators,
    taking only entries whose first qubit follows the prefix, so that
    every operator is found once.  A prefix's hits are yielded sorted by
    (support, letters), lazily, prefix by prefix.

    b = 1 (the 3n letters) while the prefix level C(n, w-1) * 3^(w-1)
    is at most 2^20, and b = floor(w/2) past it.  A weight costs
    C(n, a) * 3^a lookups into a table of C(n, b) * 3^b entries: at n=72
    (honeycomb(6,6)) weight 6 is 1.6M lookups into 1.6M entries, where
    the letter table would take C(72, 5) * 3^5 = 3.4G lookups.  A
    table is built when the first weight that needs it is reached, and
    one past ``_MAX_TABLE`` entries raises :class:`CapExceededError`
    there, after every lighter operator was yielded.
    """
    planes = [0] * (2 * n)  # bit j of planes[b] is bit b of rows[j]
    for j, row in enumerate(rows):
        while row:
            low = row & -row
            planes[low.bit_length() - 1] |= 1 << j
            row ^= low
    # X on q anticommutes with a row that has z on q, and Z with x.
    syndromes = [(planes[q + n], planes[q], planes[q + n] ^ planes[q]) for q in range(n)]
    letters = [(1 << q, 1 << (q + n), (1 << q) | (1 << (q + n))) for q in range(n)]
    if max_weight >= 0:
        yield 0
    tables = {}
    for w in range(1, min(max_weight, n) + 1):
        b = _suffix_weight(n, w)
        if b not in tables:
            tables[b] = _syndrome_table(n, syndromes, b)
        table, shift, screen, supports = tables[b]
        per = 3 ** b
        for prefix, syns in _assignments(syndromes, n - b, w - b):
            if screen is not None and screen.isdisjoint(syns):
                continue
            # Skip the entries whose support starts at or before the
            # prefix's last qubit: they lead every syndrome's run.
            lo = per * (len(supports) - math.comb(n - 1 - prefix[-1], b)) if prefix else 0
            hits = []
            for i, s in enumerate(syns):
                base = s << shift
                j = bisect.bisect_left(table, base | lo)
                while j < len(table) and table[j] >> shift == s:
                    k = table[j] - base
                    hits.append((k // per, i, k))
                    j += 1
            hits.sort()
            for rank, i, k in hits:
                digits = i * per + k % per
                vec = 0
                for q in reversed(prefix + supports[rank]):
                    vec |= letters[q][digits % 3]
                    digits //= 3
                yield vec


def symplectic_partner(vec: int, n: int) -> int:
    """Swap the x and z blocks of a 2n-bit row vector.

    ``parity(a & symplectic_partner(b, n))`` equals the symplectic product
    of the operators encoded by ``a`` and ``b``.
    """
    mask = (1 << n) - 1
    return ((vec & mask) << n) | (vec >> n)


def swap_halves(vec_bits: list[int], n: int) -> list[int]:
    """Swap the x and z halves of a row's set bits ``vec_bits``: the set
    bits of :func:`symplectic_partner` of the row, in the same order (not
    sorted).  The swap is its own inverse."""
    return [b + n if b < n else b - n for b in vec_bits]

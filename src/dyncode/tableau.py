"""
A stabilizer tableau on encoded rows with per-qubit bit-planes.

The layout follows Aaronson and Gottesman's CHP tableau
(quant-ph/0406196), extended to groups of any rank, with the rows kept
bit-sliced as in Stim (arXiv:2103.02202).  Rows are encoded operators
(:func:`pauli.encode`) held in numbered slots, and each group of rows
keeps one bit-plane per encoded bit: bit s of a plane is set when the row
in slot s has the partner of that bit (the other Pauli letter on the same
qubit).  The anticommutation mask of an operator m against the rows of a
group is then the XOR of the planes at the bits of m, at most 2 wt(m)
big-integer XORs, and multiplying every row of a mask by one row updates
the planes in O(wt(row)) XORs.

A :class:`Tableau` holds four groups of rows:

* the stabilizer generators;
* destabilizers, one for each stabilizer and anticommuting with that
  stabilizer only, where they are kept;
* logical rows, symplectic pairs in slots 2j and 2j+1 commuting with
  every stabilizer and destabilizer, so that together the three groups
  form a symplectic basis;
* tracked rows, which follow the evolution but are not generators (the
  initial-generator set of the classification, tracked logical
  representatives).

A measurement is one pass over the operator's set bits that yields its
masks against all four groups (:meth:`Tableau.masks`), and one pivot step
(:meth:`Tableau.pivot`) that multiplies each affected group once by the
pivot.  The partner bits a row adds to the planes come with it: the
encodings of a code's operators hold them (:func:`encoding`), and a row
keeps them until a multiplication changes it.  Stabilizer and tracked
rows carry provenance as one int each, XORed on multiplication: callers
pack an outcome expression into it (``engine.OutcomeExpr.pack``) and
unpack it only where they report it.

An operator commuting with every stabilizer lies in the group exactly
when it commutes with every logical row, and its anticommutation mask
against the destabilizers is then its combination over the stabilizer
slots: membership and combinations cost O(wt(m)) plane lookups and no
elimination.

Slot order is list order: an appended row takes a fresh highest slot, a
replacement in place keeps its slot and a removal frees only its own, so
"the first anticommuting row" is the lowest set bit of a mask.
:meth:`Tableau.measure` is the one ISG update (CHP's measurement rule)
that simulation, logical traces and Floquet cycles share.
"""

from __future__ import annotations

from .gf2 import bits, lowest
from .pauli import swap_halves, symplectic_partner


def encoding(vec: int, n: int) -> tuple[int, list[int], list[int]]:
    """An encoded row with its set bits and its partner bits (the set
    bits of :func:`~dyncode.pauli.symplectic_partner`), as a
    :class:`Tableau` takes it."""
    vec_bits = bits(vec)
    return vec, vec_bits, swap_halves(vec_bits, n)


class Rows:
    """Encoded rows in slots, with bit-planes over the slots.

    ``planes[b]`` has bit s set iff the row in slot s anticommutes with
    the single-letter operator of encoded bit b.  A freed slot holds None
    and leaves the ``live`` mask; its stale plane bits are masked off
    rather than cleared, and only :meth:`compact` renumbers slots.  A
    row's partner bits are kept until a multiplication changes it, and
    each row's provenance ``prov`` is an int XORed on multiplication.
    """

    __slots__ = ("n", "rows", "known_bits", "prov", "planes", "live")

    def __init__(self, n: int) -> None:
        self.n = n
        self.rows: list[int | None] = []
        self.known_bits: list[list[int] | None] = []
        self.prov: list[int] = []
        self.planes = [0] * (2 * n)
        self.live = 0

    def row_bits(self, slot: int) -> list[int]:
        """Partner bits of the row in ``slot``: the plane indices it occupies."""
        known = self.known_bits[slot]
        if known is None:
            known = self.known_bits[slot] = bits(symplectic_partner(self.rows[slot], self.n))
        return known

    def put(self, slot: int, vec: int, prov: int, row_bits: list[int]) -> None:
        """Overwrite the row in a live ``slot`` with ``vec``, whose partner
        bits are ``row_bits``."""
        bit, planes = 1 << slot, self.planes
        for b in self.row_bits(slot):
            planes[b] ^= bit
        for b in row_bits:
            planes[b] ^= bit
        self.known_bits[slot] = row_bits
        self.rows[slot] = vec
        self.prov[slot] = prov

    def append(self, vec: int, prov: int = 0, row_bits: list[int] | None = None) -> int:
        """Add a row in a fresh highest slot and return the slot;
        ``row_bits`` are its partner bits when already known."""
        slot = len(self.rows)
        if row_bits is None:
            row_bits = bits(symplectic_partner(vec, self.n))
        self.rows.append(vec)
        self.known_bits.append(row_bits)
        self.prov.append(prov)
        bit, planes = 1 << slot, self.planes
        for b in row_bits:
            planes[b] ^= bit
        self.live |= bit
        return slot

    def free(self, slot: int) -> None:
        self.live &= ~(1 << slot)
        self.rows[slot] = None

    def compact(self) -> None:
        """Renumber the occupied slots 0, 1, ... in order and rebuild the
        planes, dropping the freed slots and their stale bits."""
        keep = self.slots()
        row_bits = [self.row_bits(s) for s in keep]
        for name in ("rows", "known_bits", "prov"):
            column = getattr(self, name)
            setattr(self, name, [column[s] for s in keep])
        self.planes = planes = [0] * (2 * self.n)
        for slot, slot_bits in enumerate(row_bits):
            for b in slot_bits:
                planes[b] ^= 1 << slot
        self.live = (1 << len(keep)) - 1

    def mul(self, mask: int, vec: int, vec_partner_bits: list[int], prov: int = 0) -> None:
        """Multiply every row in ``mask`` by the row ``vec``, XORing ``prov``
        into their provenance."""
        planes = self.planes
        for b in vec_partner_bits:
            planes[b] ^= mask
        rows, known, provs = self.rows, self.known_bits, self.prov
        while mask:
            low = mask & -mask
            s = low.bit_length() - 1
            mask ^= low
            rows[s] ^= vec
            known[s] = None
            if prov:
                provs[s] ^= prov

    def slots(self) -> list[int]:
        """Occupied slots in order."""
        return [s for s, row in enumerate(self.rows) if row is not None]


def anticommutation_masks(n: int, vecs: list[int], vec_bits=None) -> list[int]:
    """Bit b of entry a is set iff ``vecs[a]`` and ``vecs[b]`` anticommute:
    one set of planes over the list, then one XOR per bit of each entry.
    ``vec_bits`` are the entries' set bits when already known."""
    planes = [0] * (2 * n)
    if vec_bits is None:
        vec_bits = [bits(vec) for vec in vecs]
    for a, a_bits in enumerate(vec_bits):
        bit = 1 << a
        for b in a_bits:
            planes[b + n if b < n else b - n] ^= bit
    masks = []
    for a_bits in vec_bits:
        mask = 0
        for b in a_bits:
            mask ^= planes[b]
        masks.append(mask)
    return masks


class Tableau:
    """A stabilizer group in CHP form, evolved in place.

    Starts as the trivial group on ``n`` qubits, with the logical pairs
    (X_q, Z_q).  :meth:`measure` applies the stabilizer update; the
    classification, which removes rows and tracks C, applies its own rules
    with :meth:`pivot` and :meth:`append` on the same :meth:`masks`.
    Destabilizer rows are kept only with ``destabilizers``: membership
    needs the logical rows alone, and only :meth:`combination` reads
    them.  Each write of a destabilizer takes a fresh slot of its own
    group, so no dense row is ever re-scanned; ``owner`` maps a
    destabilizer slot to its stabilizer slot.  Without ``logicals`` no
    logical row is kept, and the caller fills the stabilizer rows
    directly: only :meth:`pivot` applies.  A group that is not kept
    stays empty, with zero masks.
    """

    def __init__(self, n: int, destabilizers: bool = False, logicals: bool = True) -> None:
        self.n = n
        self.stab, self.logical, self.tracked, self.destab = Rows(n), Rows(n), Rows(n), Rows(n)
        self.destabilizers = destabilizers
        self.owner: list[int] = []
        self._destab_of: dict[int, int] = {}
        for q in range(n if logicals else 0):
            # X_q and Z_q, whose partner bits are z_q and x_q
            self.logical.append(1 << q, 0, [q + n])
            self.logical.append(1 << (q + n), 0, [q])

    def __len__(self) -> int:
        """Number of stabilizer generators (the rank of the group)."""
        return self.stab.live.bit_count()

    def masks(self, vec_bits: list[int]) -> tuple[int, int, int, int]:
        """The slot masks of the stabilizers, logical rows, tracked rows
        and destabilizers anticommuting with an operator, in one pass over
        its set bits."""
        stab, logical, tracked, destab = self.stab, self.logical, self.tracked, self.destab
        sp, lp, tp, dp = stab.planes, logical.planes, tracked.planes, destab.planes
        s = l = t = d = 0
        for b in vec_bits:
            s ^= sp[b]
            l ^= lp[b]
            t ^= tp[b]
            d ^= dp[b]
        return s & stab.live, l & logical.live, t & tracked.live, d & destab.live

    def member(self, vec_bits: list[int]) -> bool:
        """Membership of any operator: no stabilizer and no logical row
        anticommutes with it."""
        s, l, _, _ = self.masks(vec_bits)
        return not (s or l)

    def combination(self, vec_bits: list[int]) -> list[int]:
        """Stabilizer slots whose product is the operator, a member of the
        group."""
        owner = self.owner
        return [owner[d] for d in bits(self.masks(vec_bits)[3])]

    def _add_destab(self, p: int, row: int, row_bits: list[int]) -> None:
        self._destab_of[p] = self.destab.append(row, 0, row_bits)
        self.owner.append(p)

    def pivot(self, masks: tuple[int, int, int, int], vec: int, partner_bits: list[int],
              prov: int = 0, fresh: bool = False) -> tuple[int, list[int]]:
        """Measure ``vec`` (partner bits ``partner_bits``), whose
        :meth:`masks` are ``masks`` with some stabilizer anticommuting; the
        lowest, slot p, is the pivot.

        Every other row anticommuting with ``vec`` is multiplied by the
        pivot, each group once, stabilizers and tracked rows with its
        provenance; the pivot becomes the destabilizer of ``vec``, which
        takes slot p with provenance ``prov``, or a fresh highest slot with
        ``fresh``.  Without destabilizers, whose slots refer to the
        stabilizer slots, a fresh replacement compacts the stabilizer
        slots once fewer than half are occupied, so the planes stay as
        wide as the group rather than the run.  Returns the pivot's (row,
        partner bits).
        """
        s, l, t, d = masks
        stab, destab = self.stab, self.destab
        low = s & -s
        p = low.bit_length() - 1
        old, old_prov = stab.rows[p], stab.prov[p]
        old_bits = stab.known_bits[p] or stab.row_bits(p)
        s ^= low
        if s:
            stab.mul(s, old, old_bits, old_prov)
        if l:
            self.logical.mul(l, old, old_bits)
        if t:
            self.tracked.mul(t, old, old_bits, old_prov)
        slot = p
        if fresh:
            stab.free(p)
            slot = stab.append(vec, prov, partner_bits)
            if not self.destabilizers and len(stab.rows) > 2 * stab.live.bit_count() + 128:
                stab.compact()
        else:
            stab.put(p, vec, prov, partner_bits)
        if self.destabilizers:
            d_p = self._destab_of.pop(p)
            d &= ~(1 << d_p)
            if d:
                destab.mul(d, old, old_bits)
            destab.free(d_p)
            self._add_destab(slot, old, old_bits)
        return old, old_bits

    def append(self, vec: int, partner_bits: list[int], masks: tuple[int, int, int, int],
               prov: int = 0) -> int:
        """Add ``vec``, whose :meth:`masks` are ``masks``, as a generator in
        a fresh highest slot; it must commute with every stabilizer and lie
        outside the group.

        The first logical row anticommuting with ``vec`` becomes its
        destabilizer, and that row's partner leaves the logical basis.

        Raises:
            ValueError: if ``vec`` anticommutes with a stabilizer or lies
                in the group.
        """
        s, l, _, d = masks
        if s or not l:
            raise ValueError("generator is dependent or does not commute")
        logical = self.logical
        x = lowest(l)
        x_row, x_bits = logical.rows[x], logical.row_bits(x)
        rest = l & ~(3 << (x & ~1))
        if rest:
            logical.mul(rest, x_row, x_bits)
        logical.free(x)
        logical.free(x ^ 1)
        slot = self.stab.append(vec, prov, partner_bits)
        if self.destabilizers:
            if d:
                self.destab.mul(d, x_row, x_bits)
            self._add_destab(slot, x_row, x_bits)
        return slot

    def measure(self, vec: int, vec_bits: list[int],
                partner_bits: list[int]) -> tuple[int | None, int]:
        """The stabilizer update of ``vec`` (set bits ``vec_bits``, partner
        bits ``partner_bits``): replace the first anticommuting generator
        in place, or else append a ``vec`` outside the group and free the
        tracked rows it reads out (those anticommuting with it).  Returns
        (the slot holding ``vec``, or None for a member; the slot mask of
        the freed tracked rows).  Callers set the provenance of the slot."""
        masks = s, l, t, _ = self.masks(vec_bits)
        if s:
            self.pivot(masks, vec, partner_bits)
            return (s & -s).bit_length() - 1, 0
        if not l:
            return None, 0
        for slot in bits(t):
            self.tracked.free(slot)
        return self.append(vec, partner_bits, masks), t

    def generators(self) -> list[int]:
        """The stabilizer rows in slot order."""
        return [row for row in self.stab.rows if row is not None]

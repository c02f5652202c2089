"""
A stabilizer tableau on encoded rows with per-qubit bit-planes.

The layout follows Aaronson and Gottesman's CHP tableau
(quant-ph/0406196), extended to groups of any rank, with the rows kept
bit-sliced as in Stim (arXiv:2103.02202).  Rows are encoded operators
(:func:`pauli.encode`) held in numbered slots, and each group of rows
keeps one bit-plane per encoded bit: bit s of a plane is set when the row
in slot s has the partner of that bit (the other Pauli letter on the same
qubit).  The anticommutation mask of an operator m against every row of a
group is then the XOR of the planes at the bits of m, at most 2 wt(m)
big-integer XORs, and multiplying every row of a mask by one row updates
the planes in O(wt(row)) XORs.

A :class:`Tableau` holds four groups of rows:

* the stabilizer generators, each carrying provenance (an ``assoc`` bit
  mask and an outcome expression);
* optionally, a destabilizer for each stabilizer, anticommuting with
  that stabilizer only;
* logical rows, symplectic pairs in slots 2j and 2j+1 commuting with
  every stabilizer and destabilizer, so that together the three groups
  form a symplectic basis;
* tracked rows with provenance, which follow the evolution but are not
  generators (the initial-generator set of the classification, tracked
  logical representatives).

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


class Rows:
    """Encoded rows in slots, with bit-planes over the slots.

    ``planes[b]`` has bit s set iff the row in slot s anticommutes with
    the single-letter operator of encoded bit b, so :meth:`anti` of an
    operator XORs the planes at its own bits.  A freed slot holds None
    and leaves the ``live`` mask; its stale plane bits are masked off
    rather than cleared, and only :meth:`compact` renumbers slots.  A
    row's partner bits are kept until a multiplication changes it.  Each
    row also carries provenance: an ``assoc`` mask, XORed on
    multiplication, and an outcome expression, multiplied.  A group whose
    rows need no outcome keeps None there throughout.
    """

    __slots__ = ("n", "rows", "known_bits", "assoc", "exprs", "planes", "live")

    def __init__(self, n: int) -> None:
        self.n = n
        self.rows: list[int | None] = []
        self.known_bits: list[list[int] | None] = []
        self.assoc: list[int] = []
        self.exprs: list = []
        self.planes = [0] * (2 * n)
        self.live = 0

    def partner_bits(self, vec: int) -> list[int]:
        """Plane indices a row ``vec`` occupies: its bits with the x and z
        blocks swapped."""
        return bits(symplectic_partner(vec, self.n))

    def row_bits(self, slot: int) -> list[int]:
        """:meth:`partner_bits` of the row in ``slot``."""
        known = self.known_bits[slot]
        if known is None:
            known = self.known_bits[slot] = self.partner_bits(self.rows[slot])
        return known

    def anti(self, vec_bits: list[int]) -> int:
        """Slot mask of the rows anticommuting with the operator whose
        set bits are ``vec_bits``."""
        planes = self.planes
        mask = 0
        for b in vec_bits:
            mask ^= planes[b]
        return mask & self.live

    def _flip(self, slot: int, row_bits: list[int]) -> None:
        bit = 1 << slot
        planes = self.planes
        for b in row_bits:
            planes[b] ^= bit

    def put(self, slot: int, vec: int, assoc, expr, row_bits: list[int]) -> None:
        """Overwrite the row in a live ``slot`` with ``vec``, whose
        :meth:`partner_bits` are ``row_bits``."""
        self._flip(slot, self.row_bits(slot))
        self._flip(slot, row_bits)
        self.known_bits[slot] = row_bits
        self.rows[slot] = vec
        self.assoc[slot] = assoc
        self.exprs[slot] = expr

    def append(self, vec: int, assoc: int = 0, expr=None, row_bits=None) -> int:
        """Add a row in a fresh highest slot and return the slot;
        ``row_bits`` are its :meth:`partner_bits` when already known."""
        slot = len(self.rows)
        if row_bits is None:
            row_bits = self.partner_bits(vec)
        self.rows.append(vec)
        self.known_bits.append(row_bits)
        self.assoc.append(assoc)
        self.exprs.append(expr)
        self._flip(slot, row_bits)
        self.live |= 1 << slot
        return slot

    def free(self, slot: int) -> None:
        self.live &= ~(1 << slot)
        self.rows[slot] = None

    def compact(self) -> None:
        """Renumber the occupied slots 0, 1, ... in order and rebuild the
        planes, dropping the freed slots and their stale bits."""
        keep = self.slots()
        row_bits = [self.row_bits(s) for s in keep]
        for name in ("rows", "known_bits", "assoc", "exprs"):
            column = getattr(self, name)
            setattr(self, name, [column[s] for s in keep])
        self.planes = [0] * (2 * self.n)
        for slot, slot_bits in enumerate(row_bits):
            self._flip(slot, slot_bits)
        self.live = (1 << len(keep)) - 1

    def mul(self, mask: int, vec: int, vec_partner_bits: list[int],
            assoc: int = 0, expr=None) -> None:
        """Multiply every row in ``mask`` by the row ``vec`` (with the
        given provenance; an ``expr`` of None leaves outcomes alone)."""
        planes = self.planes
        for b in vec_partner_bits:
            planes[b] ^= mask
        rows, known, assocs, exprs = self.rows, self.known_bits, self.assoc, self.exprs
        while mask:
            low = mask & -mask
            s = low.bit_length() - 1
            mask ^= low
            rows[s] ^= vec
            known[s] = None
            if assoc:
                assocs[s] ^= assoc
            if expr is not None:
                exprs[s] = exprs[s] * expr

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
    with :meth:`replace`, :meth:`append`, :meth:`remove` and
    :meth:`tracked_pivot`.  Destabilizer rows are kept only with
    ``destabilizers``: membership needs the logical rows alone, and only
    :meth:`combination` reads them.  Each write of a destabilizer takes a
    fresh slot of its own group, so no dense row is ever re-scanned;
    ``owner`` maps a destabilizer slot to its stabilizer slot.  Without
    ``logicals`` no logical row is kept, and the caller fills the
    stabilizer rows directly and answers membership itself: only
    :meth:`replace`, :meth:`remove` and :meth:`tracked_pivot` apply.
    """

    def __init__(self, n: int, destabilizers: bool = False, logicals: bool = True) -> None:
        self.n = n
        self.stab = Rows(n)
        self.destab = Rows(n) if destabilizers else None
        self.owner: list[int] = []
        self._destab_of: dict[int, int] = {}
        self.logical = Rows(n) if logicals else None
        self.tracked = Rows(n)
        for q in range(n if logicals else 0):
            # X_q and Z_q, whose partner bits are z_q and x_q
            self.logical.append(1 << q, row_bits=[q + n])
            self.logical.append(1 << (q + n), row_bits=[q])

    def __len__(self) -> int:
        """Number of stabilizer generators (the rank of the group)."""
        return self.stab.live.bit_count()

    def contains(self, vec_bits: list[int]) -> bool:
        """Membership of an operator commuting with every stabilizer."""
        return not self.logical.anti(vec_bits)

    def masks(self, vec_bits: list[int]) -> tuple[int, int]:
        """The slot masks of the stabilizers and of the logical rows
        anticommuting with an operator, in one pass over its bits."""
        stab, logical = self.stab, self.logical
        s_planes, l_planes = stab.planes, logical.planes
        s = l = 0
        for b in vec_bits:
            s ^= s_planes[b]
            l ^= l_planes[b]
        return s & stab.live, l & logical.live

    def member(self, vec_bits: list[int]) -> bool:
        """Membership of any operator: both :meth:`masks` are zero."""
        return self.masks(vec_bits) == (0, 0)

    def combination(self, vec_bits: list[int]) -> list[int]:
        """Stabilizer slots whose product is the operator, a member of the
        group."""
        owner = self.owner
        return [owner[d] for d in bits(self.destab.anti(vec_bits))]

    def _add_destab(self, p: int, row: int, row_bits: list[int]) -> None:
        self._destab_of[p] = self.destab.append(row, row_bits=row_bits)
        self.owner.append(p)

    def replace(self, anti: int, vec: int, vec_bits: list[int], assoc: int = 0,
                expr=None, fresh: bool = False) -> tuple[int, int, object]:
        """Measure ``vec``, which anticommutes with the stabilizers in the
        nonzero slot mask ``anti``; the lowest, slot p, is the pivot.

        Every other row anticommuting with ``vec`` (stabilizers,
        destabilizers, logicals and tracked rows) is multiplied by the
        pivot, with its provenance; the pivot becomes the destabilizer of
        ``vec``, which takes slot p, or a fresh highest slot with
        ``fresh``.  Without destabilizers, whose slots refer to the
        stabilizer slots, a fresh replacement compacts the stabilizer
        slots once fewer than half are occupied, so the planes stay as
        wide as the group rather than the run.  Returns the pivot's (row,
        assoc, expr, partner bits).
        """
        stab, destab = self.stab, self.destab
        p = lowest(anti)
        old, old_assoc, old_expr = stab.rows[p], stab.assoc[p], stab.exprs[p]
        old_bits = stab.row_bits(p)
        mask = anti ^ (1 << p)
        if mask:
            stab.mul(mask, old, old_bits, old_assoc, old_expr)
        if self.logical is not None:
            mask = self.logical.anti(vec_bits)
            if mask:
                self.logical.mul(mask, old, old_bits)
        mask = self.tracked.anti(vec_bits)
        if mask:
            self.tracked.mul(mask, old, old_bits, old_assoc, old_expr)
        if destab is not None:
            mask = destab.anti(vec_bits) & ~(1 << self._destab_of[p])
            if mask:
                destab.mul(mask, old, old_bits)
        slot = p
        row_bits = swap_halves(vec_bits, self.n)
        if fresh:
            stab.free(p)
            slot = stab.append(vec, assoc, expr, row_bits)
            if destab is None and len(stab.rows) > 2 * len(self) + 64:
                stab.compact()
        else:
            stab.put(p, vec, assoc, expr, row_bits)
        if destab is not None:
            destab.free(self._destab_of.pop(p))
            self._add_destab(slot, old, old_bits)
        return old, old_assoc, old_expr, old_bits

    def append(self, vec: int, vec_bits: list[int], assoc: int = 0, expr=None) -> int:
        """Add ``vec``, which commutes with every stabilizer and lies
        outside the group, as a generator in a fresh highest slot.

        The first logical row anticommuting with ``vec`` becomes its
        destabilizer, and that row's partner leaves the logical basis.

        Raises:
            ValueError: if ``vec`` anticommutes with a stabilizer or lies
                in the group.
        """
        logical = self.logical
        mask = logical.anti(vec_bits)
        if not mask or self.stab.anti(vec_bits):
            raise ValueError("generator is dependent or does not commute")
        x = lowest(mask)
        x_row = logical.rows[x]
        x_bits = logical.row_bits(x)
        rest = mask & ~(3 << (x & ~1))
        if rest:
            logical.mul(rest, x_row, x_bits)
        logical.free(x)
        logical.free(x ^ 1)
        slot = self.stab.append(vec, assoc, expr, swap_halves(vec_bits, self.n))
        if self.destab is not None:
            mask = self.destab.anti(vec_bits)
            if mask:
                self.destab.mul(mask, x_row, x_bits)
            self._add_destab(slot, x_row, x_bits)
        return slot

    def remove(self, p: int, partner: int) -> None:
        """Drop the generator in slot p; it and ``partner``, which
        anticommutes with it and commutes with every other row, become a
        logical pair."""
        if self.logical is not None:
            self.logical.append(self.stab.rows[p])
            self.logical.append(partner)
        self.stab.free(p)
        if self.destab is not None:
            self.destab.free(self._destab_of.pop(p))

    def tracked_pivot(self, vec_bits: list[int]) -> int | None:
        """The first tracked row anticommuting with the operator, or None;
        every later anticommuting tracked row is multiplied by it."""
        tracked = self.tracked
        mask = tracked.anti(vec_bits)
        if not mask:
            return None
        q = lowest(mask)
        mask ^= 1 << q
        if mask:
            tracked.mul(mask, tracked.rows[q], tracked.row_bits(q),
                        tracked.assoc[q], tracked.exprs[q])
        return q

    def measure(self, vec: int, vec_bits: list[int]) -> tuple[int | None, int]:
        """The stabilizer update of ``vec`` (set bits ``vec_bits``): replace
        the first anticommuting generator in place, or else append a ``vec``
        outside the group and free the tracked rows it reads out (those
        anticommuting with it).  Returns (the slot holding ``vec``, or None
        for a member; the slot mask of the freed tracked rows)."""
        mask = self.stab.anti(vec_bits)
        if mask:
            self.replace(mask, vec, vec_bits)
            return lowest(mask), 0
        if self.contains(vec_bits):
            return None, 0
        read_out = self.tracked.anti(vec_bits)
        for slot in bits(read_out):
            self.tracked.free(slot)
        return self.append(vec, vec_bits), read_out

    def generators(self) -> list[int]:
        """The stabilizer rows in slot order."""
        return [row for row in self.stab.rows if row is not None]

"""Interned complex numbers with tolerance-based identity.

Every amplitude and matrix entry lives in a ComplexTable and is passed
around as a handle, a ``complex`` the table made. A lookup that lands
within DEFAULT_TOL of an entry (per component) returns that entry, so
object identity doubles as approximate value equality. This is what
keeps floating-point noise from breaking node sharing in the diagrams
built on top: two structurally equal nodes hash to the same unique-table
slot because their edge weights are the *same objects*.

A lookup is one dict probe: each entry is filed under every block of
cells that its 3x3 cell neighbourhood touches, so an input's own block
lists every entry within tolerance of it (see ComplexTable).
"""

from __future__ import annotations

import cmath
import math

SQRT2_INV = 1.0 / math.sqrt(2.0)

# Absolute, per component; the canonical-form contract fixes it.
DEFAULT_TOL = 1e-10

# Exact cell first; near-boundary values then unify via the neighbors.
# Where several entries are within tolerance, the one whose cell comes
# first here wins.
_PROBE_OFFSETS = ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1),
                  (-1, -1), (-1, 1), (1, -1), (1, 1))
_PROBE_RANK = {offset: rank for rank, offset in enumerate(_PROBE_OFFSETS)}

# A block is 32 x 32 cells. Its key packs the block coordinates of the
# real and imaginary parts into one int: (real << 40) + imaginary.
_BLOCK_BITS = 5
_BLOCK_MASK = (1 << _BLOCK_BITS) - 1
_KEY_SHIFT = 40


class ComplexValue(complex):
    """Handle to one interned complex number; ``idx`` is its creation rank,
    for deterministic orderings. Handles mix with plain ``complex`` and
    compare by value, but a table never holds two equal ones: compare
    handles with ``is``."""

    __slots__ = ("idx",)


def magnitude_squared(a: complex) -> float:
    """|a|^2 as a plain float (never interned)."""
    re, im = a.real, a.imag
    return re * re + im * im


class ComplexTable:
    """Interning table with the per-component tolerance DEFAULT_TOL.

    Values are bucketed by flooring each component into tolerance-sized
    cells. Two values in the same cell are always within tolerance, so
    each cell holds at most one entry, and entries are never removed: the
    table's size is the next entry's rank.

    ``_blocks`` maps each block of 32 x 32 cells to the entries whose 3x3
    cell neighbourhood touches it: one ComplexValue, or a tuple of
    several. A lookup reads the block of the input's cell and returns,
    among its entries within tolerance, the one whose cell comes first in
    the probe order: the entry a scan of the input's nine neighbour cells
    would return. One probe suffices because an entry within tolerance of
    the input lies in the input's neighbourhood, so the input's cell lies
    in the entry's, and the entry is filed under the input's block. Block
    keys collide only for imaginary parts beyond about 1,750 in magnitude
    (block coordinates past 2^39); a collision merges two blocks' lists,
    which adds candidates that fail the tolerance test and drops none.

    The table is single-owner: no internal locking, not safe for
    concurrent mutation. The constants 0, 1, 1/sqrt(2) and -1/sqrt(2) are
    pre-interned, in that order, and stable for the table's lifetime.
    """

    def __init__(self):
        self._blocks: dict[int, ComplexValue | tuple[ComplexValue, ...]] = {}
        self._size = 0
        self.zero = self.intern(0.0)
        self.one = self.intern(1.0)
        self.sqrt2_inv = self.intern(SQRT2_INV)
        self.neg_sqrt2_inv = self.intern(-SQRT2_INV)

    def __len__(self) -> int:
        return self._size

    def intern(self, z: complex) -> ComplexValue:
        """Return the canonical handle for ``z``.

        Repeated calls with inputs within DEFAULT_TOL of each other (per
        component) return the identical handle. Non-finite components, and
        components too large to bucket (beyond about 1.8e298), are
        rejected with ValueError.
        """
        if not cmath.isfinite(z):
            raise ValueError(f"cannot intern non-finite value {z!r}")
        re, im = z.real, z.imag
        try:
            cr = math.floor(re / DEFAULT_TOL)
            ci = math.floor(im / DEFAULT_TOL)
        except OverflowError:
            raise ValueError(f"cannot intern {z!r}: a component is too "
                             "large for the tolerance cells") from None
        blocks = self._blocks
        key = ((cr >> _BLOCK_BITS) << _KEY_SHIFT) + (ci >> _BLOCK_BITS)
        held = blocks.get(key)
        if held is not None:
            if type(held) is not tuple:
                if (abs(held.real - re) < DEFAULT_TOL
                        and abs(held.imag - im) < DEFAULT_TOL):
                    return held
            else:
                near = [e for e in held if abs(e.real - re) < DEFAULT_TOL
                        and abs(e.imag - im) < DEFAULT_TOL]
                if near:
                    return min(near, key=lambda e: _rank(e, cr, ci))
        value = ComplexValue(z)
        value.idx = self._size
        self._size += 1
        if (0 < cr & _BLOCK_MASK < _BLOCK_MASK
                and 0 < ci & _BLOCK_MASK < _BLOCK_MASK):  # interior cell
            blocks[key] = value if held is None else _listed(held, value)
        else:
            rows = {(cr - 1) >> _BLOCK_BITS, (cr + 1) >> _BLOCK_BITS}
            cols = {(ci - 1) >> _BLOCK_BITS, (ci + 1) >> _BLOCK_BITS}
            for k in {(br << _KEY_SHIFT) + bi for br in rows for bi in cols}:
                held = blocks.get(k)
                blocks[k] = value if held is None else _listed(held, value)
        return value

    # Arithmetic is exact double-precision on the components; only the
    # result goes back through intern(), which maps a product's -0.0 onto
    # zero. Shortcuts on the canonical 1 handle keep hot paths cheap.

    def cmul(self, a: ComplexValue, b: ComplexValue) -> ComplexValue:
        if a is self.one:
            return b
        if b is self.one:
            return a
        return self.intern(a * b)

    def cdiv(self, a: ComplexValue, b: ComplexValue) -> ComplexValue:
        if b is self.one:
            return a
        # The explicit formula, not a / b: CPython divides another way.
        br, bi = b.real, b.imag
        d = br * br + bi * bi
        if d < DEFAULT_TOL * DEFAULT_TOL:
            raise ZeroDivisionError(f"divisor magnitude below tolerance: {b!r}")
        ar, ai = a.real, a.imag
        return self.intern(complex((ar * br + ai * bi) / d,
                                   (ai * br - ar * bi) / d))


def _rank(e: ComplexValue, cr: int, ci: int) -> int:
    """Probe rank of entry ``e``'s cell, seen from cell (cr, ci)."""
    return _PROBE_RANK[math.floor(e.real / DEFAULT_TOL) - cr,
                       math.floor(e.imag / DEFAULT_TOL) - ci]


def _listed(held, value: ComplexValue) -> tuple[ComplexValue, ...]:
    """A block's entries ``held`` with ``value`` added."""
    return held + (value,) if type(held) is tuple else (held, value)

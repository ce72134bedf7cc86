"""Interned complex numbers with tolerance-based identity.

Every amplitude and matrix entry lives in a ComplexTable and is passed
around as a handle, a ``complex`` the table made. A lookup that lands
within DEFAULT_TOL of an entry (per component) returns that entry, so
object identity doubles as approximate value equality. This is what
keeps floating-point noise from breaking node sharing in the diagrams
built on top: two structurally equal nodes hash to the same unique-table
slot because their edge weights are the *same objects*.
"""

from __future__ import annotations

import cmath
import math

SQRT2_INV = 1.0 / math.sqrt(2.0)

# Absolute, per component; the canonical-form contract fixes it.
DEFAULT_TOL = 1e-10

# Exact cell first; near-boundary values then unify via the neighbors.
_PROBE_OFFSETS = ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1),
                  (-1, -1), (-1, 1), (1, -1), (1, 1))


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
    cells; lookups probe the neighboring cells so values straddling a cell
    border still unify. Two values in the same cell are always within
    tolerance, so each cell holds at most one entry, and entries are never
    removed: the table's size is the next entry's rank.

    The table is single-owner: no internal locking, not safe for
    concurrent mutation. The constants 0, 1, 1/sqrt(2) and -1/sqrt(2) are
    pre-interned, in that order, and stable for the table's lifetime.
    """

    def __init__(self):
        self._cells: dict[tuple[int, int], ComplexValue] = {}
        self.zero = self.intern(0.0)
        self.one = self.intern(1.0)
        self.sqrt2_inv = self.intern(SQRT2_INV)
        self.neg_sqrt2_inv = self.intern(-SQRT2_INV)

    def __len__(self) -> int:
        return len(self._cells)

    def intern(self, z: complex) -> ComplexValue:
        """Return the canonical handle for ``z``.

        Repeated calls with inputs within DEFAULT_TOL of each other (per
        component) return the identical handle. Non-finite components are
        rejected.
        """
        if not cmath.isfinite(z):
            raise ValueError(f"cannot intern non-finite value {z!r}")
        re, im = z.real, z.imag
        cr = math.floor(re / DEFAULT_TOL)
        ci = math.floor(im / DEFAULT_TOL)
        cells = self._cells
        for dr, di in _PROBE_OFFSETS:
            hit = cells.get((cr + dr, ci + di))
            if (hit is not None and abs(hit.real - re) < DEFAULT_TOL
                    and abs(hit.imag - im) < DEFAULT_TOL):
                return hit
        value = cells[cr, ci] = ComplexValue(z)
        value.idx = len(cells) - 1
        return value

    # Arithmetic is exact double-precision on the components; only the
    # result goes back through intern(). Shortcuts on the canonical 0/1
    # handles keep hot paths cheap and exact.

    def cmul(self, a: ComplexValue, b: ComplexValue) -> ComplexValue:
        if a is self.one:
            return b
        if b is self.one:
            return a
        if a is self.zero or b is self.zero:
            return self.zero
        return self.intern(a * b)

    def cadd(self, a: ComplexValue, b: ComplexValue) -> ComplexValue:
        if a is self.zero:
            return b
        if b is self.zero:
            return a
        return self.intern(a + b)

    def cdiv(self, a: ComplexValue, b: ComplexValue) -> ComplexValue:
        if b is self.one:
            return a
        # The explicit formula, not a / b: CPython divides another way.
        br, bi = b.real, b.imag
        d = br * br + bi * bi
        if d < DEFAULT_TOL * DEFAULT_TOL:
            raise ZeroDivisionError(f"divisor magnitude below tolerance: {b!r}")
        if a is self.zero:
            return self.zero
        ar, ai = a.real, a.imag
        return self.intern(complex((ar * br + ai * bi) / d,
                                   (ai * br - ar * bi) / d))

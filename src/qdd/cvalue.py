"""Interned complex numbers with tolerance-based identity.

Every amplitude and matrix entry lives in a ComplexTable and is passed
around as a handle. A lookup that lands within ``tol`` of an existing
entry (per component) returns that entry's handle, so object identity
doubles as approximate value equality. This is what keeps floating-point
noise from breaking node sharing in the diagrams built on top: two
structurally equal nodes hash to the same unique-table slot because their
edge weights are the *same objects*.
"""

from __future__ import annotations

import math

SQRT2_INV = 1.0 / math.sqrt(2.0)

# Absolute, per component; the canonical-form contract fixes it.
DEFAULT_TOL = 1e-10

# Exact cell first; near-boundary values then unify via the neighbors.
_PROBE_OFFSETS = ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1),
                  (-1, -1), (-1, 1), (1, -1), (1, 1))


class ComplexValue:
    """Handle to one interned complex number. Compare handles with ``is``."""

    __slots__ = ("re", "im", "idx")

    def __init__(self, re: float, im: float, idx: int):
        self.re = re
        self.im = im
        self.idx = idx  # creation rank; used for deterministic orderings

    def as_complex(self) -> complex:
        return complex(self.re, self.im)

    def __repr__(self) -> str:
        return f"ComplexValue({self.re!r}, {self.im!r})"


def magnitude_squared(a: ComplexValue) -> float:
    """|a|^2 as a plain float (never interned)."""
    return a.re * a.re + a.im * a.im


class ComplexTable:
    """Interning table with per-component tolerance ``tol`` (DEFAULT_TOL).

    Values are bucketed by flooring each component into tol-sized cells;
    lookups probe the neighboring cells so values straddling a cell border
    still unify. Two values in the same cell are always within tolerance,
    so each cell holds at most one entry.

    The table is single-owner: no internal locking, not safe for
    concurrent mutation. The constants 0, 1, 1/sqrt(2) and -1/sqrt(2) are
    pre-interned and stable for the table's lifetime.
    """

    def __init__(self):
        self.tol = DEFAULT_TOL
        self._cells: dict[tuple[int, int], ComplexValue] = {}
        self._count = 0
        self.zero = self.intern(0.0, 0.0)
        self.one = self.intern(1.0, 0.0)
        self.sqrt2_inv = self.intern(SQRT2_INV, 0.0)
        self.neg_sqrt2_inv = self.intern(-SQRT2_INV, 0.0)

    def __len__(self) -> int:
        return len(self._cells)

    def intern(self, re: float, im: float) -> ComplexValue:
        """Return the canonical handle for ``re + im*i``.

        Repeated calls with inputs within ``tol`` of each other (per
        component) return the identical handle. Non-finite components are
        rejected.
        """
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ValueError(f"cannot intern non-finite value ({re!r}, {im!r})")
        tol = self.tol
        cr = math.floor(re / tol)
        ci = math.floor(im / tol)
        cells = self._cells
        for dr, di in _PROBE_OFFSETS:
            hit = cells.get((cr + dr, ci + di))
            if hit is not None and abs(hit.re - re) < tol and abs(hit.im - im) < tol:
                return hit
        value = ComplexValue(re, im, self._count)
        self._count += 1
        cells[(cr, ci)] = value
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
        return self.intern(a.re * b.re - a.im * b.im,
                           a.re * b.im + a.im * b.re)

    def cadd(self, a: ComplexValue, b: ComplexValue) -> ComplexValue:
        if a is self.zero:
            return b
        if b is self.zero:
            return a
        return self.intern(a.re + b.re, a.im + b.im)

    def cdiv(self, a: ComplexValue, b: ComplexValue) -> ComplexValue:
        if b is self.zero or magnitude_squared(b) < self.tol * self.tol:
            raise ZeroDivisionError(f"divisor magnitude below tolerance: {b!r}")
        if b is self.one:
            return a
        if a is self.zero:
            return self.zero
        d = b.re * b.re + b.im * b.im
        return self.intern((a.re * b.re + a.im * b.im) / d,
                           (a.im * b.re - a.re * b.im) / d)

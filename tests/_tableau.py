"""A stabilizer-tableau simulator (Aaronson and Gottesman, "Improved
simulation of stabilizer circuits", PRA 70, 052328, 2004), used as an
oracle for Clifford circuits too wide for the dense one.

Rows 0..n-1 are the destabilizers, rows n..2n-1 the stabilizers and row
2n is scratch space for deterministic measurements. Each row is a Pauli
product held as two Python-int bitsets, bit q of ``x`` and of ``z``
standing for qubit q, plus a sign bit ``r``.
"""

from __future__ import annotations

from qdd import GateKind, GateSpec


class Tableau:
    def __init__(self, n: int):
        self.n = n
        # |0...0>: destabilizer i is X_i, stabilizer i is Z_i
        self.x = [1 << i for i in range(n)] + [0] * (n + 1)
        self.z = [0] * n + [1 << i for i in range(n)] + [0]
        self.r = [0] * (2 * n + 1)

    # -- gates ---------------------------------------------------------------

    def h(self, a: int) -> None:
        bit = 1 << a
        x, z, r = self.x, self.z, self.r
        for i in range(2 * self.n):
            xa, za = x[i] & bit, z[i] & bit
            if xa and za:
                r[i] ^= 1
            if xa != za:
                x[i] ^= bit
                z[i] ^= bit

    def s(self, a: int) -> None:
        bit = 1 << a
        x, z, r = self.x, self.z, self.r
        for i in range(2 * self.n):
            if x[i] & bit:
                if z[i] & bit:
                    r[i] ^= 1
                z[i] ^= bit

    def sdg(self, a: int) -> None:
        # X -> -Y and Y -> X: the sign flips where S leaves it
        bit = 1 << a
        x, z, r = self.x, self.z, self.r
        for i in range(2 * self.n):
            if x[i] & bit:
                if not z[i] & bit:
                    r[i] ^= 1
                z[i] ^= bit

    def pauli(self, a: int, px: bool, pz: bool) -> None:
        """Conjugate by X^px Z^pz on qubit a: a row's sign flips where
        the row and that Pauli anticommute."""
        bit = 1 << a
        for i in range(2 * self.n):
            if bool(px and self.z[i] & bit) != bool(pz and self.x[i] & bit):
                self.r[i] ^= 1

    def cx(self, c: int, t: int) -> None:
        cb, tb = 1 << c, 1 << t
        x, z, r = self.x, self.z, self.r
        for i in range(2 * self.n):
            xc, zt = bool(x[i] & cb), bool(z[i] & tb)
            if xc and zt and bool(x[i] & tb) == bool(z[i] & cb):
                r[i] ^= 1
            if xc:
                x[i] ^= tb
            if zt:
                z[i] ^= cb

    def cz(self, c: int, t: int) -> None:
        self.h(t)
        self.cx(c, t)
        self.h(t)

    def apply(self, spec: GateSpec) -> None:
        """A Clifford gate: H, S, Sdg, X, Y or Z, or X or Z with one
        control."""
        kind, t = spec.kind, spec.target
        if spec.controls:
            (c,) = spec.controls
            {GateKind.X: self.cx, GateKind.Z: self.cz}[kind](c, t)
        elif kind is GateKind.H:
            self.h(t)
        elif kind is GateKind.S:
            self.s(t)
        elif kind is GateKind.SDG:
            self.sdg(t)
        else:
            px, pz = {GateKind.X: (True, False), GateKind.Z: (False, True),
                      GateKind.Y: (True, True)}[kind]
            self.pauli(t, px, pz)

    # -- measurement ---------------------------------------------------------

    def _rowsum(self, h: int, i: int) -> None:
        """Row h becomes row i times row h, with the sign of the product."""
        x1, z1, x2, z2 = self.x[i], self.z[i], self.x[h], self.z[h]
        y1, xo1, zo1 = x1 & z1, x1 & ~z1, z1 & ~x1
        y2, xo2, zo2 = x2 & z2, x2 & ~z2, z2 & ~x2
        # per qubit, the power of i in the product of the two Paulis
        plus = (y1 & zo2) | (xo1 & y2) | (zo1 & xo2)
        minus = (y1 & xo2) | (xo1 & zo2) | (zo1 & y2)
        phase = (2 * self.r[h] + 2 * self.r[i] + bin(plus).count("1")
                 - bin(minus).count("1")) % 4
        assert phase in (0, 2)
        self.r[h] = phase // 2
        self.x[h] ^= x1
        self.z[h] ^= z1

    def _random_row(self, a: int) -> int | None:
        """A stabilizer anticommuting with Z_a, or None when Z_a's
        outcome is determined."""
        bit = 1 << a
        return next((p for p in range(self.n, 2 * self.n)
                     if self.x[p] & bit), None)

    def peek(self, a: int) -> int | None:
        """The outcome of measuring qubit a in Z if it is determined, None
        if it is uniformly random; the state is left as it is."""
        if self._random_row(a) is not None:
            return None
        scratch, bit = 2 * self.n, 1 << a
        self.x[scratch] = self.z[scratch] = self.r[scratch] = 0
        for i in range(self.n):
            if self.x[i] & bit:
                self._rowsum(scratch, i + self.n)
        return self.r[scratch]

    def measure(self, a: int, outcome: int) -> None:
        """Measure qubit a in Z and keep ``outcome``, which must be
        possible: any outcome when the measurement is random."""
        p = self._random_row(a)
        if p is None:
            assert self.peek(a) == outcome, f"qubit {a} cannot read {outcome}"
            return
        d = p - self.n  # the one row anticommuting with p; replaced below
        for i in range(2 * self.n):
            if i not in (p, d) and self.x[i] & (1 << a):
                self._rowsum(i, p)
        self.x[d], self.z[d], self.r[d] = self.x[p], self.z[p], self.r[p]
        self.x[p], self.z[p], self.r[p] = 0, 1 << a, outcome

"""Standard gate set and O(n)-node diagram construction.

Gates are single-target with any number of positive controls (active on
|1>). Negative controls are expressible at the circuit layer by X
conjugation. Y is included for gate-set completeness even though the
core set is X/Z/H plus phases.

The engine's gate diagram (_gate_dd) is built bottom-up without ever
forming a dense matrix, in heights (qubit q at n - 1 - q, see qdd.dd),
with one node per involved qubit: every height the gate does not touch
is skipped (Universe._make_node, given a height, reduces the identity
there to the edge below), so the diagram feeds qdd.ops.multiply only.
Each quadrant track of the base matrix starts as its entry times the
identity below, a terminal-bound edge; a control below the target gates
the tracks into e11 (identity in e00), the target joins them, and each
control above adds one node. That is at most 1 + 3 * (controls below
the target) + (controls above) nodes whatever n is, as a control below
holds the two diagonal tracks and one node the off-diagonal pair
shares.

build_gate_dd derives the full n-qubit operator from that diagram,
filling every skipped height with identity, so every nonzero path visits
every height: at most 2n nodes when no control sits below the target,
else at most 4n, as such a height can hold the identity and three
distinct tracks. For every kind but H a zero diagonal or off-diagonal
merges or drops one of them, so 3n.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, field
from enum import Enum

from .cvalue import SQRT2_INV
from .dd import TERMINAL, Edge, Universe, _qubit_index


class GateKind(Enum):
    X = "x"
    Y = "y"
    Z = "z"
    H = "h"
    S = "s"
    SDG = "sdg"
    T = "t"
    TDG = "tdg"
    PHASE = "p"     # diag(1, e^{i*theta}), theta in radians
    RK = "rk"       # diag(1, e^{2*pi*i / 2^k})


_H = complex(SQRT2_INV)
# the 2x2 unitary of every kind without a parameter, as nested tuples
_FIXED = {
    GateKind.X: ((0j, 1 + 0j), (1 + 0j, 0j)),
    GateKind.Y: ((0j, -1j), (1j, 0j)),
    GateKind.Z: ((1 + 0j, 0j), (0j, -1 + 0j)),
    GateKind.H: ((_H, _H), (_H, -_H)),
    GateKind.S: ((1 + 0j, 0j), (0j, 1j)),
    GateKind.SDG: ((1 + 0j, 0j), (0j, -1j)),
    GateKind.T: ((1 + 0j, 0j), (0j, cmath.exp(1j * math.pi / 4))),
    GateKind.TDG: ((1 + 0j, 0j), (0j, cmath.exp(-1j * math.pi / 4))),
}


def _finite_real(x) -> bool:
    """x is a real number other than a bool, and a finite float."""
    try:
        return (isinstance(x, numbers.Real) and not isinstance(x, bool)
                and math.isfinite(x))
    except OverflowError:  # an int too large for a float
        return False


@dataclass(frozen=True)
class GateSpec:
    """One gate application: kind, target qubit, positive controls."""

    kind: GateKind
    target: int
    controls: frozenset[int] = field(default_factory=frozenset)
    param: float | int | None = None

    def __post_init__(self):
        if not isinstance(self.kind, GateKind):
            raise ValueError(f"unknown gate kind {self.kind!r}")
        object.__setattr__(self, "target", _qubit_index(self.target))
        object.__setattr__(self, "controls",
                           frozenset(map(_qubit_index, self.controls)))
        if self.target in self.controls:
            raise ValueError(f"target {self.target} is also a control")
        if self.kind in _FIXED:
            if self.param is not None:
                raise ValueError(f"{self.kind.name} takes no parameter")
        elif self.kind is GateKind.RK:
            try:
                k = _qubit_index(self.param)
            except ValueError:
                k = 0
            if k < 1:
                raise ValueError(f"RK needs an integer k >= 1, got {self.param!r}")
            object.__setattr__(self, "param", k)
        elif not _finite_real(self.param):
            raise ValueError(f"{self.kind.name} needs a finite real angle, "
                             f"got {self.param!r}")


def base2x2(kind: GateKind, param: float | int | None = None):
    """The 2x2 unitary for a gate kind as nested tuples; a kind or a
    parameter that GateSpec rejects raises its ValueError."""
    return _unitary(GateSpec(kind, 0, param=param))


def _unitary(spec: GateSpec):
    """base2x2 of a spec, which GateSpec has judged already."""
    if spec.kind in _FIXED:
        return _FIXED[spec.kind]
    phase = (spec.param if spec.kind is GateKind.PHASE else
             math.ldexp(2 * math.pi, -spec.param))  # 2**k overflows a float
    return ((1 + 0j, 0j), (0j, cmath.exp(1j * phase)))


def identity_dd(uni: Universe, n: int) -> Edge:
    """Identity over n qubits: n diagonal nodes, shared per universe."""
    n = _qubit_index(n, "count")
    return Edge(*_full(uni, (uni.ctab.one, TERMINAL), n))


def build_gate_dd(uni: Universe, n: int, spec: GateSpec) -> Edge:
    """n-qubit diagram of a controlled single-qubit gate, one node per
    height on every path: the engine's diagram with each skipped height
    filled in by identity. Memoized until GC."""
    n = _qubit_index(n, "count")
    return Edge(*_full(uni, _gate_dd(uni, n, spec), n))


def _full(uni: Universe, e: tuple, h: int) -> tuple:
    """The pair ``e`` as an operator over h qubits, rebuilt with a node
    at every height: each height between its node and h - 1 takes one
    diagonal node, built bottom-up in a loop and memoized per (node,
    height) in the gates cache, the terminal counting as a node at
    height -1."""
    w, node = e
    ct = uni.ctab
    if w is ct.zero:
        return e
    memo = uni.cache.gates
    got = memo.get((node, h))
    if got is None:
        z = uni.zero_edge
        k = node.height + 1
        got = memo.get((node, k))
        if got is None:
            got = memo[node, k] = (
                (ct.one, TERMINAL) if node is TERMINAL else
                uni._make_node([_full(uni, x, node.height) for x in
                                zip(node.succ[::2], node.succ[1::2])]))
        while k < h:
            k += 1
            below, got = got, memo.get((node, k))
            if got is None:
                got = memo[node, k] = uni._make_node((below, z, z, below))
    return ct.cmul(w, got[0]), got[1]


def _gate_dd(uni: Universe, n: int, spec: GateSpec) -> tuple:
    """The engine's gate diagram, one node per involved qubit, as a
    (weight, node) pair."""
    memo = uni.cache.gates.get((n, spec))
    if memo is not None:
        return memo
    if not 0 <= spec.target < n:
        raise ValueError(f"target {spec.target} out of range for n={n}")
    for c in spec.controls:
        if not 0 <= c < n:
            raise ValueError(f"control {c} out of range for n={n}")
    ct = uni.ctab
    zero = uni.zero_edge
    ident = (ct.one, TERMINAL)
    target = n - 1 - spec.target
    controls = sorted(n - 1 - c for c in spec.controls)
    tracks = [(ct.intern(a), TERMINAL) for row in _unitary(spec) for a in row]
    # input/output 0 on a control: the gate never fires, so the diagonal
    # tracks take the identity in e00, the others zero
    for h in controls:
        if h < target:
            for k, t in enumerate(tracks):
                tracks[k] = uni._make_node(
                    (ident if k in (0, 3) else zero, zero, zero, t), h)
    e = uni._make_node(tracks, target)
    for h in controls:
        if h > target:
            e = uni._make_node((ident, zero, zero, e), h)
    uni.cache.gates[n, spec] = e
    return e

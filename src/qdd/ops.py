"""Diagram arithmetic: Kronecker product, addition, matrix-vector
multiplication, and projective measurement.

Multiplication recurses on the quadrant decomposition

    U * psi = [U00*psi0 + U01*psi1; U10*psi0 + U11*psi1]

with sub-products and sub-sums memoized in the universe's compute cache.
Cache keys factor the operands' top weights out (multiply) or down to a
single weight ratio (add); both are exact rewrites, and they make the
memoization hit on shared structure instead of on per-path weight
products. Measurement multiplies the state with the projector onto an
outcome; the outcome's probability is the projection's squared norm,
read from the masses nodes get when built (qdd.dd.Node.mass)

    p(node) = |w_l|^2 * p(left) + |w_r|^2 * p(right),   p(terminal) = 1,

and the kept projection is renormalized through its root edge weight.
Each vector node memoizes at which heights below it a |0> and a |1>
successor is nonzero, so a projection onto a certain or an impossible
outcome returns the state or the zero edge without a walk.
"""

from __future__ import annotations

import math

from .cvalue import ComplexValue, magnitude_squared
from .dd import Edge, TERMINAL, Universe, _qubit_index

PROB_TOL = 1e-8


class NormDriftError(RuntimeError):
    """Probability mass stopped summing to 1 within tolerance."""

    def __init__(self, message: str, deviation: float | None = None,
                 op_index: int | None = None):
        super().__init__(message)
        self.deviation = deviation
        self.op_index = op_index


def _arity(e: tuple) -> int:
    """2 for a vector root, 4 for a matrix root, 0 for the terminal."""
    return len(e[1].succ) // 2


def _edge(uni: Universe, w: ComplexValue, node) -> tuple:
    # Keep the zero edge canonical even when a product underflows the
    # interning tolerance.
    return uni.zero_edge if w is uni.ctab.zero else (w, node)


# -- Kronecker product ---------------------------------------------------

def kron(uni: Universe, a: Edge, b: Edge) -> Edge:
    """Tensor product with a's qubits above (more significant than) b's.

    Rebuilds a with every nonzero terminal-bound edge redirected to b's
    root node, which lifts each of a's nodes by b's qubit count; the two
    root weights multiply. a and b must be two vectors or two full
    matrices; an engine gate diagram raises ValueError.
    """
    if {_arity(a), _arity(b)} == {2, 4}:
        raise ValueError("kron of a vector and a matrix")
    uni._check_root(a)
    uni._check_root(b)
    return Edge(*_edge(uni, uni.ctab.cmul(a.w, b.w),
                       _kron_rebuild(uni, {}, a.node, b.node)))


def _kron_rebuild(uni: Universe, memo: dict, node, below):
    """``node`` of a, rebuilt over b's root node ``below`` (no closure: see
    the note above qdd.dd._build)."""
    if node is TERMINAL:
        return below
    got = memo.get(node)
    if got is not None:
        return got
    s = node.succ
    edges = [(w, _kron_rebuild(uni, memo, nxt, below))
             for w, nxt in zip(s[::2], s[1::2])]
    # weights were normalized already, so no factor comes back up, and
    # _make_node drops the node under a zero weight
    res = memo[node] = uni._make_node(edges)[1]
    return res


# -- addition --------------------------------------------------------------

def add(uni: Universe, p: Edge, q: Edge) -> Edge:
    """Component-wise sum of two vectors, or two full matrices (an engine
    gate diagram raises ValueError), over the same qubit set."""
    if {_arity(p), _arity(q)} == {2, 4}:
        raise ValueError("sum of a vector and a matrix")
    uni._check_root(p)
    uni._check_root(q)
    (pw, pn), (qw, qn) = p, q
    zero = uni.ctab.zero
    if pw is not zero and qw is not zero and pn.height != qn.height:
        at = "" if TERMINAL in (pn, qn) else f": {pn.height} vs {qn.height}"
        raise ValueError(f"operands span different qubit sets{at}")
    return Edge(*_add(uni, p, q))


def _add(uni: Universe, p: tuple, q: tuple) -> tuple:
    """add over (weight, node) pairs of one height, returning a pair."""
    ct = uni.ctab
    cache = uni.cache
    cache.ops_count += 1
    pw, pn = p
    qw, qn = q
    if pw is ct.zero:
        return q
    if qw is ct.zero:
        return p
    if pn is TERMINAL:
        return ct.intern(pw + qw), TERMINAL
    # Deterministic operand order makes the cache line commutative.
    if (qn.idx, qw.idx) < (pn.idx, pw.idx):
        pw, qw = qw, pw
        pn, qn = qn, pn
    ratio = ct.cdiv(qw, pw)
    key = (pn, ratio, qn)
    hit = cache.add.get(key)
    if hit is None:
        parts = []
        ps, qs = pn.succ, qn.succ
        for i in range(0, len(ps), 2):
            qe = qs[i], qs[i + 1]
            if qe[0] is not ct.zero:
                qe = _edge(uni, ct.cmul(ratio, qe[0]), qe[1])
            parts.append(_add(uni, (ps[i], ps[i + 1]), qe))
        hit = cache.add[key] = uni._make_node(parts)
    return _edge(uni, ct.cmul(pw, hit[0]), hit[1])


# -- matrix-vector multiplication -------------------------------------------

def multiply(uni: Universe, u: Edge, v: Edge) -> Edge:
    """Apply the operator u to the state v. A u over fewer qubits acts on
    v's lowest ones, as identity on the qubits above its top; u's edges
    may skip heights, each an identity on the qubits it skips, and
    (w, TERMINAL) is w times the identity on every qubit below (the
    engine's gate diagrams, see qdd.gates); a node diag(x, x) of a full
    operator acts as x on the heights below, as a skipped height does. A
    u over more qubits than v, a vector u or a matrix v raises
    ValueError."""
    if _arity(u) == 2 or _arity(v) == 4:
        raise ValueError("multiply takes a matrix u and a vector v")
    ct = uni.ctab
    (uw, un), (vw, vn) = u, v
    if uw is ct.zero or vw is ct.zero:
        return uni.zero_edge
    if un.height > vn.height:
        raise ValueError("operator spans more qubits than the state: "
                         f"{un.height + 1} vs {vn.height + 1}")
    rw, rn = _mul_nodes(uni, un, vn)
    return Edge(*_edge(uni, ct.cmul(ct.cmul(uw, vw), rw), rn))


def _mul_nodes(uni: Universe, un, vn) -> tuple:
    ct = uni.ctab
    cache = uni.cache
    cache.ops_count += 1
    if un is TERMINAL:
        return ct.one, vn
    key = (un, vn)
    hit = cache.mult.get(key)
    if hit is not None:
        return hit
    zero = ct.zero
    a, an, b, bn, c, cn, d, dn = un.succ
    # diag(x, x) is the identity on its height, so it acts as x on the
    # heights below, as a height that a gate diagram skips does; x's
    # weight is the interned 1, the first nonzero weight of a node
    while b is zero and c is zero and an is dn and a == d:
        un = an
        if un is TERMINAL:
            return ct.one, vn
        a, an, b, bn, c, cn, d, dn = un.succ
    v0, vn0, v1, vn1 = vn.succ
    e0 = e1 = uni.zero_edge
    if un.height < vn.height:
        # identity on vn's qubit: diag(u, u), both weights the interned 1
        if v0 is not zero:
            sw, sn = _mul_nodes(uni, un, vn0)
            e0 = _edge(uni, ct.cmul(v0, sw), sn)
        if v1 is not zero:
            sw, sn = _mul_nodes(uni, un, vn1)
            e1 = _edge(uni, ct.cmul(v1, sw), sn)
    else:
        # row r of the product: U_r0 * psi0 + U_r1 * psi1
        if a is not zero and v0 is not zero:
            sw, sn = _mul_nodes(uni, an, vn0)
            e0 = _edge(uni, ct.cmul(ct.cmul(a, v0), sw), sn)
        if b is not zero and v1 is not zero:
            sw, sn = _mul_nodes(uni, bn, vn1)
            t = _edge(uni, ct.cmul(ct.cmul(b, v1), sw), sn)
            e0 = t if e0[0] is zero else _add(uni, e0, t)
        if c is not zero and v0 is not zero:
            sw, sn = _mul_nodes(uni, cn, vn0)
            e1 = _edge(uni, ct.cmul(ct.cmul(c, v0), sw), sn)
        if d is not zero and v1 is not zero:
            sw, sn = _mul_nodes(uni, dn, vn1)
            t = _edge(uni, ct.cmul(ct.cmul(d, v1), sw), sn)
            e1 = t if e1[0] is zero else _add(uni, e1, t)
    res = cache.mult[key] = uni._make_node((e0, e1))
    return res


# -- probabilities and measurement ------------------------------------------

def norm_squared(uni: Universe, v: Edge) -> float:
    """Total probability mass of the state (1 for a normalized state);
    ``v`` may be a (weight, node) pair."""
    w, node = v
    return magnitude_squared(w) * node.mass


def qubit_probabilities(uni: Universe, v: Edge) -> tuple[float, float]:
    """(P(root qubit -> 0), P(root qubit -> 1)), root weight included."""
    if v.node is TERMINAL:
        raise ValueError("state has no qubits to measure")
    uni._check_root(v, 2)
    return (norm_squared(uni, _project(uni, v, 0, 0)),
            norm_squared(uni, _project(uni, v, 0, 1)))


def _levels(uni: Universe, node) -> tuple[int, int]:
    """(zeros, ones): bit h of zeros is set when some node at height h
    under the vector node ``node``, itself included, has a nonzero |0>
    successor; ones likewise for |1>. Every nonzero path visits every
    height, so a clear bit means no amplitude takes that value on that
    qubit. Memoized in ``Node.levels``, which TERMINAL holds as (0, 0)."""
    got = node.levels
    if got is not None:
        return got
    zero = uni.ctab.zero
    bit = 1 << node.height
    zeros = ones = 0
    w0, n0, w1, n1 = node.succ
    if w0 is not zero:
        zeros, ones = _levels(uni, n0)
        zeros |= bit
    if w1 is not zero:
        z, o = _levels(uni, n1)
        zeros |= z
        ones |= o | bit
    got = node.levels = zeros, ones
    return got


def _project(uni: Universe, v: Edge, q: int, o: int) -> tuple:
    """P_o v, unnormalized: the state times the projector |o><o| on qubit
    q, as a pair; P(o) is its squared norm.

    The state's level masks (_levels) answer a certain or impossible
    outcome without a walk: onto an impossible outcome the projection is
    the zero edge, onto a certain one it is v itself, exactly what the
    product gives (every node it rebuilds is a unique-table hit). Only a
    random outcome builds the product. The projector is one node, at
    qubit q, whose terminal-bound link is the identity on the qubits
    below (see Universe._make_node), so multiply passes them through
    and memoizes each rebuilt node in the mult cache under (projector
    node, state node): a later shot that measures the same state again
    pays a lookup.
    """
    height = v.node.height - q
    levels = _levels(uni, v.node)
    if not levels[o] >> height & 1:
        return uni.zero_edge
    if not levels[1 - o] >> height & 1:
        return v
    link = (uni.ctab.one, TERMINAL)
    z = uni.zero_edge
    proj = uni._make_node(
        (link, z, z, z) if o == 0 else (z, z, z, link), height)[1]
    cw, cn = _mul_nodes(uni, proj, v.node)
    return _edge(uni, uni.ctab.cmul(v.w, cw), cn)


def measure_top(uni: Universe, v: Edge, rng) -> tuple[int, Edge]:
    """Measure the root node's qubit; returns (outcome, collapsed state).

    ``rng`` is any object with random() -> [0, 1); outcome 0 is chosen
    when the draw falls below P(0). Raises NormDriftError when the two
    probabilities stop summing to 1 within tolerance.
    """
    return measure_qubit(uni, v, 0, rng)


def measure_qubit(uni: Universe, v: Edge, q: int, rng) -> tuple[int, Edge]:
    """Measure qubit q anywhere in the diagram, without SWAP gates.

    Projects the state onto outcome 0 and draws against that
    projection's squared norm over the state's, as measure_all splits, so
    a state whose norm falls short of 1 never draws an impossible
    outcome; the projection onto 1 is built only when 1 is drawn. The
    projected state is renormalized by its own norm; NormDriftError if
    the kept state's norm still misses 1.
    """
    q = _qubit_index(q)
    if v.node is TERMINAL:
        raise ValueError("state has no qubits to measure")
    uni._check_root(v, 2)
    if not 0 <= q <= v.node.height:
        raise ValueError(
            f"qubit {q} out of range for {v.node.height + 1} qubits")
    total = norm_squared(uni, v)
    dev = abs(total - 1.0)
    if dev > PROB_TOL:
        raise NormDriftError(
            f"measurement probabilities sum to {total!r}", deviation=dev)
    pv = _project(uni, v, q, 0)
    p = norm_squared(uni, pv)
    outcome = 0 if rng.random() < p / total else 1
    if outcome:
        pv = _project(uni, v, q, 1)
        p = norm_squared(uni, pv)
        if p <= 0.0:
            raise NormDriftError("collapse branch has zero probability",
                                 deviation=dev)
    ct = uni.ctab
    w, node = pv
    kept = _edge(uni, ct.cmul(w, ct.intern(1.0 / math.sqrt(p))), node)
    dev = abs(norm_squared(uni, kept) - 1.0)
    if dev > PROB_TOL:
        raise NormDriftError(f"collapsed state misses norm 1 by {dev:g}",
                             deviation=dev)
    return outcome, Edge(*kept)


def measure_all(uni: Universe, v: Edge, rng) -> str:
    """Sample one full bitstring from |psi|^2.

    Equivalent to measuring the top qubit and recursing into the observed
    branch, qubit by qubit; the conditional split at each node is its |0>
    branch's mass over the node's own, memoized per node in the compute
    cache. One uniform draw per qubit.
    """
    uni._check_root(v, 2)
    total = norm_squared(uni, v)
    dev = abs(total - 1.0)
    if dev > PROB_TOL:
        raise NormDriftError(f"state norm is {total!r}", deviation=dev)
    branch = uni.cache.branch
    bits: list[str] = []
    node = v.node
    while node is not TERMINAL:
        w0, n0, w1, n1 = node.succ
        p0_share = branch.get(node)
        if p0_share is None:
            p0_share = branch[node] = (magnitude_squared(w0) * n0.mass
                                       / node.mass)
        if rng.random() < p0_share:
            bits.append("0")
            node = n0
        else:
            bits.append("1")
            node = n1
    return "".join(bits)

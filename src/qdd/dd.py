"""Edge-weighted decision diagrams for state vectors and unitaries.

A vector over n qubits decomposes qubit by qubit: a node splits its
amplitude block into |0> and |1> halves, with qubit 0, the most
significant bit of a basis-state index, at the root. A node's height is
the number of qubits below it (-1 for the terminal; qubit q of n sits at
height n - 1 - q), so a sub-diagram is one node in every width. Matrices
split into four quadrants per qubit, stored in the order

    (e00, e01, e10, e11) = (out 0 / in 0, out 0 / in 1,
                            out 1 / in 0, out 1 / in 1),

i.e. row index = output basis state, column index = input basis state, and
e01 is the upper-right quadrant. An entry is the product of the edge
weights along its root-to-terminal path.

Both kinds share one Node type, and so does the terminal, a node with
no successors. Inside the package an edge is a plain (weight, node)
pair, read by unpacking: recursion results and cache values are pairs.
A node stores its successors inline, as one flat tuple (w0, n0, w1, n1)
or (w00, n00, ..., w11, n11), its unique-table key.
Edge is the public, named view of a pair; every exported function
returns one, and Node.edges views a node's successors as Edges. Edges
compare and hash as their pairs do. Universe.make_node reduces and
normalizes both kinds:

* structurally identical nodes are shared through one unique table (a
  node with two equal successors is therefore stored once and shared,
  never skipped; in a vector or a full operator every nonzero path
  visits every height);
* per node, the first successor edge with a nonzero weight carries weight
  exactly the interned 1; the common factor moves to the incoming edge;
* an all-zero sub-block is the universe's one zero edge (weight 0,
  straight to the terminal), never a node.

The engine's gate diagrams and measurement projectors are the one
exception: Universe._make_node, given a node's height, lets its edges
skip every height the operator leaves alone (an edge to a lower node is
the identity on the heights between, (w, TERMINAL) is w times the
identity on every qubit below). They feed qdd.ops.multiply only; add,
kron and read_matrix_entry reject them (qdd.gates.build_gate_dd gives
the full operator).

A Universe owns the unique table, the complex table and the operation
caches. It is single-owner: one simulation, one thread. Edges are only
meaningful within the universe that created them.
"""

from __future__ import annotations

import operator
from typing import Iterable, NamedTuple, Sequence

from .cvalue import ComplexTable, ComplexValue


class Node:
    """A node: its height and successors, two for a vector node (e0, e1)
    and four for a matrix node (e00, e01, e10, e11), none for TERMINAL.
    ``succ`` holds them as one flat tuple, (w0, n0, w1, n1) or (w00, n00,
    w01, n01, w10, n10, w11, n11), the node's unique-table key (an engine
    gate node's key is (height, succ)); ``edges`` returns them as Edge
    views. ``mass``, the summed |w|^2 * (successor's mass) in edge order,
    is a vector node's probability mass, set here (the terminal's is 1).
    ``size`` is set here to a bound on count_nodes' count from this node:
    1 plus the abs(size) of each distinct successor (the terminal's is 0).
    count_nodes replaces it with the count, negated, so that a small bound
    stays one of Python's shared small ints (0 to 256), not an int object
    per node. ``levels`` memoizes qdd.ops._levels. A node's successors
    never change, so none of the four goes stale."""

    __slots__ = ("height", "succ", "idx", "size", "levels", "mass")

    def __init__(self, height: int, succ: tuple, idx: int):
        self.height = height
        self.succ = succ
        self.idx = idx
        self.levels = None  # _levels memo; None until first asked
        mass = 0.0  # a plain sum: 3.12's sum() of floats is compensated
        for i in range(0, len(succ), 2):
            w = succ[i]
            if w:
                mass += (w.real * w.real + w.imag * w.imag) * succ[i + 1].mass
        self.mass = mass
        if len(succ) == 4:
            n0, n1 = succ[1], succ[3]
            below = abs(n0.size) + (abs(n1.size) if n1 is not n0 else 0)
        else:
            below = sum(abs(nd.size) for nd in set(succ[1::2]))
        self.size = 1 + below

    @property
    def edges(self) -> tuple["Edge", ...]:
        s = self.succ
        return tuple(map(Edge, s[::2], s[1::2]))

    def __repr__(self) -> str:
        return f"<Node h{self.height} #{self.idx}>"


# The unique sink, a 1-dimensional vector / 1x1 matrix holding 1: height
# -1, no successors, probability mass 1, no node below it to count and no
# levels below it.
TERMINAL = Node(-1, (), -1)
TERMINAL.mass = 1.0
TERMINAL.size = 0
TERMINAL.levels = (0, 0)


class Edge(NamedTuple):
    """A weighted pointer to a node or the terminal; vector and matrix
    diagrams share this type and differ only in their nodes' arity. The
    public view of the package's (weight, node) pairs, equal to them."""

    w: ComplexValue
    node: Node


class ComputeCache:
    """Memo tables for the diagram operations.

    Keys embed operand identities (nodes and interned weight handles), so
    a hit returns exactly the edge recomputation would produce.
    Measurement keeps ``branch``, a node's measure_all draw threshold (a
    node's probability mass is its own, Node.mass); a projection onto an
    outcome is a multiplication, memoized in ``mult``. ``gates`` holds the
    gate diagrams and the full operators, identities included. Garbage
    collection drops the whole cache, these memos included, because a
    memoized result may name a swept node.
    """

    def __init__(self):
        self.ops_count = 0  # recursion-entry counter; clear() keeps it
        self.clear()

    def clear(self) -> None:
        self.add: dict = {}
        self.mult: dict = {}
        self.prob: dict = {}  # always empty, until perfbench stops reading it
        self.branch: dict = {}
        self.gates: dict = {}


class Universe:
    """Node storage and construction for one simulation.

    Holds the complex table, the unique table, the compute cache (which
    gc_collect drops, so that no swept node is reused) and the shared zero
    edge. Nodes are keyed by their flat successor tuple alone (a 4-tuple
    for a vector node, an 8-tuple for a matrix node), so both kinds share
    the table without colliding, except the engine's gate nodes, keyed by
    (height, succ), so a gate node is not the entry under its own
    successors, which is how add, kron and read_matrix_entry tell one
    apart and reject it;
    its size is the live node count. Every node is built by _make_node,
    the pair core of make_node, which normalizes and deduplicates.
    """

    def __init__(self):
        self.ctab = ComplexTable()
        self.cache = ComputeCache()
        # the canonical zero edge of every diagram, pair and Edge at once;
        # edges are immutable and compare by value, so one serves them all
        self.zero_edge = Edge(self.ctab.zero, TERMINAL)
        self._table: dict[tuple, Node] = {}
        self._node_seq = 0

    # -- bookkeeping ----------------------------------------------------

    @property
    def live_nodes(self) -> int:
        """Distinct nodes currently held by the unique table."""
        return len(self._table)

    # -- node construction ----------------------------------------------

    def make_node(self, *edges: Edge) -> Edge:
        """Build (or find) the normalized node over ``edges``: two for a
        vector node (e0, e1), four for a matrix node (e00, e01, e10, e11),
        whose nonzero successors must share a height, one below the node's;
        a successor of the other kind, or an engine gate diagram (see
        _check_root), or any other count of edges, raises ValueError.

        The first nonzero weight becomes the returned edge's weight; the
        node keeps the interned 1 there and every later weight divided
        through it. Zero weights, and ratios that intern to zero, become
        the zero edge; all-zero operands return it.
        """
        if len(edges) not in (2, 4):
            raise ValueError(f"make_node takes 2 or 4 edges, got {len(edges)}")
        heights = [nd.height for w, nd in edges if w is not self.ctab.zero]
        for h in heights:
            if h != heights[0]:
                raise ValueError(f"successors at heights {heights[0]} and {h}")
        for e in edges:
            self._check_root(e, len(edges))
        return Edge(*self._make_node(edges))

    def _make_node(self, edges, height: int | None = None) -> tuple:
        """make_node over pairs, without its checks, returning a pair. A
        given ``height`` places the node there and keys it by (height,
        succ), as its successors may then sit at any lower heights, as in
        a gate diagram (see qdd.gates): an edge to a lower node is the
        identity on every height it skips, and (w, TERMINAL) is w times
        the identity on every qubit below; (x, 0, 0, x), the identity on
        the given height, is then x itself, with no node."""
        ct = self.ctab
        zero = ct.zero
        if height is not None:
            e00, e01, e10, e11 = edges
            if e01[0] is zero and e10[0] is zero and e00 == e11:
                return e00
        d = None
        out = []
        for w, node in edges:
            if w is zero:
                node = TERMINAL
            elif d is None:
                d = w
                below = node.height
                w = ct.one
            else:
                w = ct.cdiv(w, d)
                if w is zero:
                    node = TERMINAL
            out.append(w)
            out.append(node)
        if d is None:
            return self.zero_edge
        succ = tuple(out)
        if height is None:
            key, height = succ, below + 1
        else:
            key = height, succ
        node = self._table.get(key)
        if node is None:
            node = self._table[key] = Node(height, succ, self._node_seq)
            self._node_seq += 1
        return d, node

    # -- vector construction and readout ---------------------------------

    def basis_state(self, n: int, bits: str) -> Edge:
        """The computational basis state |bits>, one node per qubit."""
        _check_bits(n, bits)
        edge = (self.ctab.one, TERMINAL)
        zero = self.zero_edge
        for b in reversed(bits):
            edge = self._make_node((edge, zero) if b == "0" else (zero, edge))
        return Edge(*edge)

    def build_vector(self, amplitudes: Sequence[complex]) -> Edge:
        """Decompose a dense amplitude vector (length 2^n) into a diagram.

        The first half of the input is the most-significant-qubit |0>
        branch. No normalization of the input is required or checked.
        """
        size = len(amplitudes)
        if size == 0 or size & (size - 1):
            raise ValueError(f"length {size} is not a power of two")
        return Edge(*_build(self, (amplitudes,), 0, 0, size, 2))

    def _check_root(self, e: tuple, arity: int = 0, n=None):
        """Reject a root of the other kind than ``arity`` asks for (2, a
        vector, whose flat successor tuple counts 4; 4, a matrix, counting
        8; 0, either; the terminal is neither), and a matrix root that is
        not its own unique-table entry; a given qubit count ``n`` must be
        an integer (_qubit_index) that a nonzero root spans, returned."""
        node = e[1]
        if node is not TERMINAL:
            if arity and len(node.succ) != 2 * arity:
                kind = "vector" if arity == 2 else "matrix"
                raise ValueError(f"not a {kind} diagram")
            if len(node.succ) == 8 and self._table.get(node.succ) is not node:
                raise ValueError("not a full matrix diagram: an engine gate "
                                 "diagram (build_gate_dd gives the full one), "
                                 "or one that gc_collect swept")
        if n is not None:
            n = _qubit_index(n, "count")
            if e[0] is not self.ctab.zero and node.height != n - 1:
                raise ValueError(f"diagram has {node.height + 1} qubits, not {n}")
        return n

    def read_amplitude(self, v: Edge, n: int, index: int) -> complex:
        """Amplitude of basis state ``index``: the path weight product."""
        return self._read_path(v, n, 0, index, 2)

    def read_dense(self, v: Edge, n: int) -> list[complex]:
        """Expand a vector diagram back to its 2^n amplitudes (n <= 20)."""
        if _qubit_index(n, "count") > 20:
            raise ValueError(f"read_dense caps at 20 qubits, got {n}")
        n = self._check_root(v, 2, n)
        out = [0j] * (1 << n)
        _fill_dense(out, v, 0, 1.0 + 0j)
        return out

    # -- matrix construction and readout ---------------------------------

    def build_matrix(self, entries: Sequence[Sequence[complex]]) -> Edge:
        """Decompose a dense 2^n x 2^n matrix into a diagram."""
        size = len(entries)
        if size == 0 or size & (size - 1):
            raise ValueError(f"dimension {size} is not a power of two")
        if any(len(row) != size for row in entries):
            raise ValueError("matrix is not square")
        return Edge(*_build(self, entries, 0, 0, size, 4))

    def read_matrix_entry(self, m: Edge, n: int, row: int, col: int) -> complex:
        """Entry (row, col): row indexes the output basis state."""
        return self._read_path(m, n, row, col, 4)

    def _read_path(self, e: Edge, n: int, row: int, col: int,
                   arity: int) -> complex:
        """Path weight product to entry (row, col); a vector's row is 0."""
        dim = 1 << _qubit_index(n, "count")
        if not (0 <= row < dim and 0 <= col < dim):
            at = f"index {col}" if arity == 2 else f"entry ({row}, {col})"
            raise ValueError(f"{at} out of range for {n} qubits")
        self._check_root(e, arity, n)
        w = complex(e.w)
        node = e.node
        while node is not TERMINAL and w != 0:
            h = node.height
            i = ((row >> h) & 1) * 4 + ((col >> h) & 1) * 2
            w *= node.succ[i]
            node = node.succ[i + 1]
        return w

    # -- garbage collection ----------------------------------------------

    def gc_collect(self, roots: Iterable[Edge]) -> int:
        """Drop nodes unreachable from ``roots``; returns the freed count.

        Invalidates the whole compute cache, gate diagrams included. Never
        called implicitly, so peak statistics stay deterministic.
        """
        live = _reachable(roots)
        before = len(self._table)
        self._table = {k: nd for k, nd in self._table.items() if nd in live}
        self.cache.clear()
        return before - len(self._table)


def _qubit_index(q, what: str = "index") -> int:
    """q as a plain int (numpy integers included); ValueError otherwise,
    a bool included, naming q the qubit ``what``: an index or a count,
    which must also be nonnegative."""
    try:
        if not isinstance(q, bool):
            q = operator.index(q)
            if q < 0 and what == "count":
                raise ValueError(f"qubit count {q} must be nonnegative")
            return q
    except TypeError:
        pass
    raise ValueError(f"qubit {what} {q!r} is not an integer")


def _check_bits(n: int, bits: str) -> None:
    if len(bits) != _qubit_index(n, "count") or set(bits) - set("01"):
        raise ValueError(f"need a length-{n} bitstring, got {bits!r}")


# Recursions take explicit arguments instead of closing over them: a
# recursive closure is a reference cycle that keeps the universe alive
# until the cycle collector runs, which qdd.engine pauses.

def _build(uni: Universe, entries: Sequence[Sequence[complex]], row: int,
           col: int, span: int, arity: int) -> tuple:
    """The span x span block at (row, col) as a pair, interning e0, e1 of
    a vector (arity 2, row 0) or e00, e01, e10, e11 of a matrix (4)."""
    if span == 1:
        return uni.ctab.intern(complex(entries[row][col])), TERMINAL
    half = span // 2
    e0 = _build(uni, entries, row, col, half, arity)
    e1 = _build(uni, entries, row, col + half, half, arity)
    if arity == 2:
        return uni._make_node((e0, e1))
    return uni._make_node((
        e0, e1, _build(uni, entries, row + half, col, half, arity),
        _build(uni, entries, row + half, col + half, half, arity)))


def _fill_dense(out: list[complex], edge: tuple, offset: int,
                scale: complex) -> None:
    ew, node = edge
    w = scale * ew
    if w == 0:
        return
    if node is TERMINAL:
        out[offset] = w
        return
    w0, n0, w1, n1 = node.succ
    _fill_dense(out, (w0, n0), offset, w)
    _fill_dense(out, (w1, n1), offset + (1 << node.height), w)


def _reachable(roots: Iterable[Edge]) -> dict[Node, None]:
    """The distinct nonterminal nodes reachable from ``roots``, as dict keys
    in depth-first preorder: successors are pushed in edge order and the
    last pushed is visited first. export_dot numbers nodes in this order.
    """
    seen: dict[Node, None] = {}
    stack = [node for _, node in roots]
    while stack:
        node = stack.pop()
        if node is TERMINAL or node in seen:
            continue
        seen[node] = None
        for nxt in node.succ[1::2]:
            if nxt is not TERMINAL:
                stack.append(nxt)
    return seen


def count_nodes(edge: Edge) -> int:
    """Number of distinct nonterminal nodes reachable from ``edge``. The
    root's ``size`` keeps it, negated, once counted; until then it holds
    the bound Node.__init__ set (the terminal's 0 is exact)."""
    node = edge.node
    if node.size > 0:
        node.size = -len(_reachable((edge,)))
    return -node.size


def _format_weight(w: ComplexValue) -> str:
    return f"{w.real:.6g}{w.imag:+.6g}i"


def export_dot(edge: Edge) -> str:
    """Render a diagram as DOT text.

    One graph node per diagram node, labeled "q<i>" for its qubit i, counted
    from the root; edges carry the
    weight as "a+bi" with 6 significant digits; zero stubs become boxed
    "0" leaves; the terminal is a boxed "1".
    """
    lines = [
        "digraph dd {",
        "  ordering=out;",
        '  __root [shape=point, label=""];',
        '  __t [shape=box, label="1"];',
    ]
    ids = {node: f"n{i}" for i, node in enumerate(_reachable((edge,)))}
    for node, name in ids.items():
        lines.append(f'  {name} [label="q{edge.node.height - node.height}"];')

    stubs = 0

    def emit(src: str, e: Edge) -> None:
        nonlocal stubs
        if e.node is TERMINAL and e.w == 0:
            name = f"z{stubs}"
            stubs += 1
            lines.append(f'  {name} [shape=box, label="0"];')
            lines.append(f"  {src} -> {name};")
        else:
            dest = "__t" if e.node is TERMINAL else ids[e.node]
            lines.append(f'  {src} -> {dest} [label="{_format_weight(e.w)}"];')

    emit("__root", edge)
    for node, name in ids.items():
        for e in node.edges:
            emit(name, e)
    lines.append("}")
    return "\n".join(lines)

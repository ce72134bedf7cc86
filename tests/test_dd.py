import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdd import TERMINAL, Edge, Universe, count_nodes, export_dot
from qdd.cvalue import DEFAULT_TOL
from qdd.dd import Node, _reachable

from _util import (assert_canonical, assert_interned, cyclic_garbage,
                   dd_matrix_to_array, dd_to_array, flat_key)

S = 1 / math.sqrt(2)

WORKED_VECTOR = [0, 0, 0.5, 0, 0.5, 0, -S, 0]


@pytest.fixture
def uni():
    return Universe()


class TestTerminal:
    def test_is_a_node_with_the_base_cases_in_its_slots(self):
        # _levels and count_nodes read these instead of testing for it
        assert isinstance(TERMINAL, Node)
        assert (TERMINAL.height, TERMINAL.succ) == (-1, ())
        assert TERMINAL.mass == 1.0 and TERMINAL.levels == (0, 0)

    def test_counts_no_nodes(self, uni):
        assert count_nodes(uni.zero_edge) == 0
        assert count_nodes(Edge(uni.ctab.one, TERMINAL)) == 0


class TestMakeVectorNode:
    def test_factor_moves_to_edge(self, uni):
        ct = uni.ctab
        e = uni.make_node(Edge(ct.intern(complex(0.5, 0)), TERMINAL),
                          Edge(ct.zero, TERMINAL))
        assert e.w.real == 0.5
        assert e.node.edges[0].w is ct.one
        assert e.node.edges[1].w is ct.zero

    def test_both_zero_collapses(self, uni):
        z = uni.zero_edge
        assert uni.make_node(z, z) == z

    def test_ratio_normalization(self, uni):
        ct = uni.ctab
        e = uni.make_node(Edge(ct.intern(complex(0.5, 0)), TERMINAL),
                          Edge(ct.neg_sqrt2_inv, TERMINAL))
        assert e.w.real == 0.5
        assert e.node.edges[0].w is ct.one
        assert e.node.edges[1].w.real == pytest.approx(-math.sqrt(2), abs=1e-12)

    def test_zero_left_normalizes_by_right(self, uni):
        ct = uni.ctab
        e = uni.make_node(uni.zero_edge,
                          Edge(ct.intern(complex(0, 0.25)), TERMINAL))
        assert e.w.imag == 0.25
        assert e.node.edges[1].w is ct.one

    def test_deduplication(self, uni):
        ct = uni.ctab
        a = uni.make_node(Edge(ct.one, TERMINAL),
                          Edge(ct.intern(complex(0.5, 0)), TERMINAL))
        b = uni.make_node(Edge(ct.intern(complex(2.0, 0)), TERMINAL),
                          Edge(ct.one, TERMINAL))
        assert a.node is b.node
        assert b.w.real == 2.0

    def test_level_order_enforced(self, uni):
        # a node's height follows from its successors, so nonzero
        # successors at different heights cannot share a node
        leaf = Edge(uni.ctab.one, TERMINAL)
        inner = uni.make_node(leaf, uni.zero_edge)
        assert inner.node.height == 0
        assert uni.make_node(inner, uni.zero_edge).node.height == 1
        with pytest.raises(ValueError):
            uni.make_node(inner, leaf)
        with pytest.raises(ValueError):
            uni.make_node(leaf, uni.zero_edge, uni.zero_edge, inner)
        # a zero weight names no height, whatever it points at
        e = uni.make_node(leaf, Edge(uni.ctab.zero, inner.node))
        assert e.node is inner.node

    def test_given_height_lets_successors_skip_heights(self, uni):
        # a gate-diagram node: its height is given, so its nonzero
        # successors may sit at different lower heights; make_node
        # derives the height and still rejects them
        ct = uni.ctab
        leaf = (ct.one, TERMINAL)
        z = uni.zero_edge
        pairs = (leaf, z, z, uni._make_node((leaf, z, z, leaf)))
        w, node = uni._make_node(pairs, 3)
        assert w is ct.one and node.height == 3
        assert node.succ == tuple(x for e in pairs for x in e)
        assert uni._make_node(pairs, 3)[1] is node
        assert uni._make_node(pairs, 2)[1] is not node
        with pytest.raises(ValueError, match="heights -1 and 0"):
            uni.make_node(*(Edge(*e) for e in pairs))

    def test_engine_gate_node_successor_rejected(self, uni):
        # a full node over a gate node would carry its skipped heights
        # into add, kron and read_matrix_entry
        from qdd import GateKind, GateSpec, gate_dd_for
        h = gate_dd_for(uni, 4, GateSpec(GateKind.H, 2), {})
        assert h.node.height == 1
        z = uni.zero_edge
        with pytest.raises(ValueError, match="not a full matrix diagram"):
            uni.make_node(h, z, z, h)

    def test_successor_of_the_other_kind_rejected(self, uni):
        # a matrix node over vector nodes read 0j, or failed to unpack
        leaf = Edge(uni.ctab.one, TERMINAL)
        z = uni.zero_edge
        v = uni.make_node(leaf, z)
        m = uni.make_node(leaf, z, z, leaf)
        with pytest.raises(ValueError, match="not a matrix diagram"):
            uni.make_node(v, z, z, v)
        with pytest.raises(ValueError, match="not a vector diagram"):
            uni.make_node(m, z)


class TestMakeMatrixNode:
    def test_hadamard_shape(self, uni):
        ct = uni.ctab
        one = Edge(ct.one, TERMINAL)
        neg = Edge(ct.intern(complex(-1, 0)), TERMINAL)
        e = uni.make_node(one, one, one, neg)
        assert e.w is ct.one
        assert [x.w.real for x in e.node.edges] == [1, 1, 1, -1]

    def test_identity_shape(self, uni):
        ct = uni.ctab
        one = Edge(ct.one, TERMINAL)
        z = uni.zero_edge
        e = uni.make_node(one, z, z, one)
        assert e.node.edges[1].node is TERMINAL
        assert e.node.edges[3].w is ct.one

    def test_all_zero(self, uni):
        z = uni.zero_edge
        assert uni.make_node(z, z, z, z) == z


class TestMakeNode:
    """The one normalizer at both arities, on seeded random weights."""

    @staticmethod
    def check(uni, edges, snapped=()):
        ct = uni.ctab
        e = uni.make_node(*edges)
        nonzero = [i for i, x in enumerate(edges) if x.w is not ct.zero]
        if not nonzero:
            assert e == uni.zero_edge
            return
        first = nonzero[0]
        assert e.w is edges[first].w
        assert e.node.edges[first].w is ct.one
        w = complex(e.w)
        for i, (x, y) in enumerate(zip(edges, e.node.edges)):
            if x.w is ct.zero or i in snapped:
                assert y == uni.zero_edge
            else:
                assert y.node is x.node
                back = w * complex(y.w)
                assert abs(back - complex(x.w)) < 1e-10
        again = uni.make_node(*edges)
        assert again.node is e.node and again.w is e.w

    @staticmethod
    def kids(uni, arity):
        """Two distinct height-0 successors of the given arity."""
        one = Edge(uni.ctab.one, TERMINAL)
        return [uni.make_node(*[one] * arity).node,
                uni.make_node(one, *[uni.zero_edge] * (arity - 1)).node]

    @pytest.mark.parametrize("count", [0, 1, 3, 5])
    def test_other_edge_counts_rejected(self, uni, count):
        # 1, 3 or 5 successors built a node that add then summed, and no
        # edges returned the zero edge
        leaf = Edge(uni.ctab.one, TERMINAL)
        with pytest.raises(ValueError, match=f"2 or 4 edges, got {count}"):
            uni.make_node(*[leaf] * count)

    @pytest.mark.parametrize("count", [2, 4])
    def test_two_and_four_edges_build_nodes(self, uni, count):
        leaf = Edge(uni.ctab.one, TERMINAL)
        e = uni.make_node(*[leaf] * count)
        assert e.w is uni.ctab.one and e.node.edges == (leaf,) * count
        assert uni.make_node(*[uni.zero_edge] * count) == uni.zero_edge

    @pytest.mark.parametrize("arity", [2, 4])
    def test_random_weight_patterns(self, uni, arity):
        ct = uni.ctab
        rng = np.random.default_rng(100 + arity)
        kids = self.kids(uni, arity)
        # every zero/nonzero mask, leading zeros included; a zero weight
        # may point at a node and must still come back as the zero edge
        for mask in itertools.product((False, True), repeat=arity):
            for _ in range(10):
                edges = [Edge(ct.intern(complex(*rng.normal(size=2)))
                              if nz else ct.zero, kids[rng.integers(2)])
                         for nz in mask]
                self.check(uni, edges)

    @pytest.mark.parametrize("arity", [2, 4])
    def test_ratio_snapping_to_zero(self, uni, arity):
        ct = uni.ctab
        kid, other = self.kids(uni, arity)
        big = Edge(ct.intern(complex(1e3, 0)), kid)
        tiny = Edge(ct.intern(complex(0, 1e-8)), other)  # tiny / big interns to 0
        rng = np.random.default_rng(7)
        for i, j in itertools.combinations(range(arity), 2):
            edges = [uni.zero_edge] * arity
            edges[i], edges[j] = big, tiny
            for k in range(j + 1, arity):
                edges[k] = Edge(ct.intern(complex(*rng.normal(size=2))), kid)
            self.check(uni, edges, snapped={j})


class TestBuildVector:
    def test_worked_vector_structure(self, uni):
        v = uni.build_vector(WORKED_VECTOR)
        assert v.w.real == pytest.approx(0.5, abs=1e-12)
        assert count_nodes(v) == 4

    def test_basis_vector(self, uni):
        v = uni.build_vector([1, 0, 0, 0])
        assert v.w is uni.ctab.one
        assert count_nodes(v) == 2

    def test_rejects_non_power_of_two(self, uni):
        with pytest.raises(ValueError):
            uni.build_vector([1, 0, 0])

    def test_rejects_amplitudes_too_large_to_intern(self, uni):
        with pytest.raises(ValueError, match="too large"):
            uni.build_vector([1e299, 0])

    def test_roundtrip_random_3q(self, uni):
        rng = np.random.default_rng(11)
        a = rng.normal(size=8) + 1j * rng.normal(size=8)
        v = uni.build_vector(list(a))
        back = dd_to_array(uni, v, 3)
        assert np.max(np.abs(back - a)) < 1e-9


class TestBasisState:
    @pytest.mark.parametrize("bits,index", [("00", 0), ("11", 3), ("10", 2)])
    def test_two_qubits(self, uni, bits, index):
        v = uni.basis_state(2, bits)
        dense = dd_to_array(uni, v, 2)
        want = np.zeros(4, dtype=complex)
        want[index] = 1
        assert np.array_equal(dense, want)
        assert count_nodes(v) == 2

    def test_single_qubit(self, uni):
        v = uni.basis_state(1, "0")
        assert v.node.edges[0].w is uni.ctab.one
        assert v.node.edges[1].w is uni.ctab.zero

    def test_subdiagrams_shared_across_widths(self, uni):
        # heights count from the terminal, so |01> is the low half of
        # |0001> whatever the width of the diagram holding it
        low = uni.basis_state(2, "01")
        node = uni.basis_state(4, "0001").node
        for _ in range(2):
            node = node.edges[0].node
        assert node is low.node

    def test_bad_bits(self, uni):
        with pytest.raises(ValueError):
            uni.basis_state(2, "02")
        with pytest.raises(ValueError):
            uni.basis_state(2, "0")


class TestReadAmplitude:
    def test_worked_vector_entry(self, uni):
        v = uni.build_vector(WORKED_VECTOR)
        assert uni.read_amplitude(v, 3, 6) == pytest.approx(-S, abs=1e-12)

    def test_zero_edge(self, uni):
        z = uni.zero_edge
        assert uni.read_amplitude(z, 3, 5) == 0

    def test_matches_dense_randomly(self, uni):
        rng = np.random.default_rng(5)
        a = rng.normal(size=16) + 1j * rng.normal(size=16)
        v = uni.build_vector(list(a))
        for idx in range(16):
            assert uni.read_amplitude(v, 4, idx) == pytest.approx(a[idx], abs=1e-9)

    def test_index_range(self, uni):
        v = uni.basis_state(2, "00")
        with pytest.raises(ValueError):
            uni.read_amplitude(v, 2, 4)

    def test_qubit_count_must_match(self, uni):
        v = uni.basis_state(2, "11")
        for n in (1, 3):
            with pytest.raises(ValueError, match="diagram has 2 qubits"):
                uni.read_amplitude(v, n, 1)
        assert uni.read_amplitude(v, 2, 3) == 1


class TestMatrices:
    def test_h_kron_i_entry(self, uni):
        # the upper-left 4x4 of H (x) I2; entry (2, 0) crosses the target
        m = [[S, 0, S, 0], [0, S, 0, S], [S, 0, -S, 0], [0, S, 0, -S]]
        e = uni.build_matrix(m)
        assert uni.read_matrix_entry(e, 2, 2, 0) == pytest.approx(S, abs=1e-12)
        assert count_nodes(e) == 2

    def test_identity_roundtrip(self, uni):
        e = uni.build_matrix([[1, 0], [0, 1]])
        back = dd_matrix_to_array(uni, e, 1)
        assert np.array_equal(back, np.eye(2))

    @pytest.mark.parametrize("rows, message", [
        (np.eye(3), "dimension 3 is not a power of two"),
        ([[1, 0], [0]], "matrix is not square")], ids=["3x3", "ragged"])
    def test_malformed_matrix_rejected(self, uni, rows, message):
        with pytest.raises(ValueError) as err:
            uni.build_matrix(rows)
        assert str(err.value) == message

    def test_random_matrix_roundtrip(self, uni):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        e = uni.build_matrix(m.tolist())
        back = dd_matrix_to_array(uni, e, 3)
        assert np.max(np.abs(back - m)) < 1e-9


# Copies of the vector and matrix builders that qdd.dd._build replaced:
# the one builder must intern entries and make nodes in their order, or
# tolerance snapping keeps another copy of an entry and results move.

def old_build_vector(uni, amplitudes, offset, span):
    if span == 1:
        return uni.ctab.intern(complex(amplitudes[offset])), TERMINAL
    half = span // 2
    e0 = old_build_vector(uni, amplitudes, offset, half)
    e1 = old_build_vector(uni, amplitudes, offset + half, half)
    return uni._make_node((e0, e1))


def old_build_matrix(uni, entries, row, col, span):
    if span == 1:
        return uni.ctab.intern(complex(entries[row][col])), TERMINAL
    half = span // 2
    return uni._make_node((
        old_build_matrix(uni, entries, row, col, half),
        old_build_matrix(uni, entries, row, col + half, half),
        old_build_matrix(uni, entries, row + half, col, half),
        old_build_matrix(uni, entries, row + half, col + half, half),
    ))


def near_repeats(rng, count):
    """``count`` entries: zeros and copies of a few values, each copy
    moved by under half the intern tolerance, so any two copies are
    within tolerance and the first one interned is the one kept."""
    pool = [complex(rng.choice((0.5, -S, 0.25, 1.0)), rng.choice((0, S, -0.5)))
            for _ in range(4)]
    jitter = 0.45 * DEFAULT_TOL
    return [0j if rng.random() < 0.2 else rng.choice(pool) + complex(
        rng.uniform(-jitter, jitter), rng.uniform(-jitter, jitter))
        for _ in range(count)]


def build_log(build):
    """Run ``build`` on a fresh universe; return its root edge and every
    node reachable from it, as (idx, height, weight idx, weight bits,
    child idx) rows, and each intern call's result as (idx, bits)."""
    uni = Universe()
    intern, calls = uni.ctab.intern, []

    def logged(z):
        v = intern(z)
        calls.append((v.idx, v.real.hex(), v.imag.hex()))
        return v

    uni.ctab.intern = logged
    w, root = build(uni)

    def row(w, nd):
        return (w.idx, w.real.hex(), w.imag.hex(),
                -1 if nd is TERMINAL else nd.idx)

    nodes = [(nd.idx, nd.height,
              *(row(*e) for e in zip(nd.succ[::2], nd.succ[1::2])))
             for nd in _reachable(((w, root),))]
    return row(w, root), nodes, calls


@pytest.mark.parametrize("seed", [1, 2, 3])
class TestDenseBuildOrder:
    def test_vector_matches_the_old_builder(self, seed):
        amps = near_repeats(random.Random(seed), 256)
        got = build_log(lambda uni: uni.build_vector(amps))
        want = build_log(lambda uni: old_build_vector(uni, amps, 0, 256))
        assert got == want
        assert len(want[1]) > 8 and len(want[2]) > 256

    def test_matrix_matches_the_old_builder(self, seed):
        flat = near_repeats(random.Random(seed), 16 * 16)
        rows = [flat[r * 16:(r + 1) * 16] for r in range(16)]
        got = build_log(lambda uni: uni.build_matrix(rows))
        want = build_log(lambda uni: old_build_matrix(uni, rows, 0, 0, 16))
        assert got == want
        assert len(want[1]) > 8 and len(want[2]) > 256


class TestInvariants:
    # Components are either exactly zero or well above the interning
    # tolerance; amplitudes *at* the 1e-10 scale are outside the band the
    # representation covers (they may unify with neighbors, and dividing
    # by them amplifies tolerance-scale wobble; the norm check is the
    # runtime guard for states that drift there).
    _comps = st.one_of(
        st.just(0.0),
        st.floats(1e-8, 1.0),
        st.floats(-1.0, -1e-8),
    )

    @settings(max_examples=40)
    @given(data=st.data())
    def test_roundtrip_and_canonical(self, data):
        n = data.draw(st.integers(1, 6))
        vec = data.draw(st.lists(st.tuples(self._comps, self._comps),
                                 min_size=1 << n, max_size=1 << n))
        a = [complex(re, im) for re, im in vec]
        uni = Universe()
        v = uni.build_vector(a)
        back = uni.read_dense(v, n)
        assert all(abs(x - y) <= n * DEFAULT_TOL + 1e-12
                   for x, y in zip(back, a))
        if any(x != 0 for x in a):
            assert_canonical(uni, v)
        assert count_nodes(v) <= (1 << n) - 1

    def test_tolerance_scale_amplitudes_are_out_of_band(self):
        # inputs sitting at the interning tolerance unify with neighbors;
        # the diagram still builds, reads back finitely, and stays canonical
        uni = Universe()
        v = uni.build_vector([0, 0.75, 1e-10j, 1j])
        assert_canonical(uni, v)
        assert all(abs(x) < 2 for x in uni.read_dense(v, 2))

    def test_shared_subvectors_share_nodes(self, uni):
        v = uni.build_vector([0.25, -0.5, 0.25, -0.5])
        assert count_nodes(v) == 2

    def test_construction_order_does_not_matter(self, uni):
        # the same vector assembled bottom-up or via gate application
        # lands on the same node (canonical form, empirically)
        import math
        from qdd import GateKind, GateSpec, build_gate_dd, multiply
        s = 1 / math.sqrt(2)
        direct = uni.build_vector([s, 0, 0, s])
        h = build_gate_dd(uni, 2, GateSpec(GateKind.H, 0))
        cx = build_gate_dd(uni, 2, GateSpec(GateKind.X, 1, frozenset({0})))
        computed = multiply(uni, cx, multiply(uni, h, uni.basis_state(2, "00")))
        assert direct.node is computed.node
        assert direct.w is computed.w

    def test_every_live_node_is_its_edges_table_entry(self, uni):
        # the key is the edge tuple alone: vectors, gates and identity
        # chains of several widths share one table without collisions
        from qdd import GateKind, GateSpec, build_gate_dd
        rng = np.random.default_rng(8)
        roots = []
        for n in (1, 2, 3, 5):
            roots.append(uni.build_vector(list(rng.normal(size=1 << n))))
            roots.append(uni.basis_state(n, "1" * n))
            roots.append(build_gate_dd(uni, n, GateSpec(GateKind.H, n - 1)))
        roots.append(build_gate_dd(uni, 5, GateSpec(GateKind.X, 1,
                                                    frozenset({0, 4}))))
        for gc in (False, True):
            if gc:
                uni.gc_collect(roots[::2])
                roots = roots[::2]
            seen = set()
            stack = [r.node for r in roots]
            while stack:
                node = stack.pop()
                if node is TERMINAL or node in seen:
                    continue
                seen.add(node)
                assert uni._table[flat_key(node)] is node
                assert {e.node.height for e in node.edges
                        if e.w is not uni.ctab.zero} == {node.height - 1}
                stack.extend(e.node for e in node.edges)
            if gc:
                assert len(seen) == uni.live_nodes

    def test_unique_table_has_no_duplicates(self, uni):
        # repeated halves and repeated builds meet the same keys again, so
        # a lookup that misses them leaves a stale node behind
        rng = np.random.default_rng(3)
        built = []
        for _ in range(5):
            a = rng.normal(size=4) + 1j * rng.normal(size=4)
            built += [uni.build_vector(list(np.tile(a, 2))) for _ in range(2)]
        for roots in (built, built[::4]):
            uni.gc_collect(roots)
            for key, node in uni._table.items():
                assert flat_key(node) == key
            assert uni.live_nodes == len(uni._table)
            for v in roots:
                assert_interned(uni, v)


class TestGc:
    def test_collect_frees_garbage_and_keeps_roots(self, uni):
        keep = uni.build_vector([0.6, 0.8, 0, 0])
        rng = np.random.default_rng(1)
        for _ in range(10):
            uni.build_vector(list(rng.normal(size=4)))
        before = uni.live_nodes
        freed = uni.gc_collect([keep])
        assert freed > 0
        assert uni.live_nodes == before - freed
        assert uni.live_nodes == count_nodes(keep)
        back = dd_to_array(uni, keep, 2)
        assert back[0] == pytest.approx(0.6, abs=1e-12)

    def test_live_nodes_counts_the_tables(self, uni):
        from qdd import GateKind, GateSpec, build_gate_dd

        def stored():
            return len(uni._table)

        rng = np.random.default_rng(4)
        keep = uni.build_vector(list(rng.normal(size=8)))
        for _ in range(4):
            uni.build_vector(list(rng.normal(size=8)))
        build_gate_dd(uni, 3, GateSpec(GateKind.H, 1, frozenset({2})))
        assert uni.live_nodes == stored() > count_nodes(keep)
        uni.gc_collect([keep])
        assert uni.live_nodes == stored() == count_nodes(keep)
        build_gate_dd(uni, 3, GateSpec(GateKind.X, 0))
        assert uni.live_nodes == stored() > count_nodes(keep)

    def test_collect_clears_caches(self, uni):
        import random
        from qdd import add, measure_qubit
        a = uni.build_vector([0.5, 0.5, 0.5, 0.5])
        b = uni.build_vector([0.5, -0.5, 0.5, -0.5])
        add(uni, a, b)
        measure_qubit(uni, a, 1, random.Random(0))
        assert uni.cache.add and uni.cache.mult
        uni.gc_collect([a, b])
        assert not uni.cache.add
        assert not uni.cache.mult
        assert not uni.cache.prob


class TestDot:
    def test_dot_contains_labels_weights_and_stubs(self, uni):
        v = uni.build_vector(WORKED_VECTOR)
        dot = export_dot(v)
        assert dot.startswith("digraph")
        assert '[label="q0"]' in dot and '[label="q2"]' in dot
        assert '[shape=box, label="0"]' in dot
        assert '[shape=box, label="1"]' in dot
        assert "-1.41421+0i" in dot  # the -sqrt(2) ratio edge

    def test_dot_zero_diagram(self, uni):
        dot = export_dot(uni.zero_edge)
        assert '[shape=box, label="0"]' in dot


def test_read_dense_qubit_count_must_match(uni):
    v = uni.basis_state(2, "11")
    for n in (1, 3):
        with pytest.raises(ValueError, match="diagram has 2 qubits"):
            uni.read_dense(v, n)
    assert uni.read_dense(uni.zero_edge, 3) == [0j] * 8


def test_read_matrix_entry_qubit_count_must_match(uni):
    from qdd import GateKind, GateSpec, build_gate_dd
    cnot = build_gate_dd(uni, 2, GateSpec(GateKind.X, 1, frozenset({0})))
    for n in (1, 3):
        with pytest.raises(ValueError, match="diagram has 2 qubits"):
            uni.read_matrix_entry(cnot, n, 1, 1)
    assert uni.read_matrix_entry(cnot, 2, 3, 2) == 1
    assert uni.read_matrix_entry(uni.zero_edge, 3, 3, 2) == 0


def test_readouts_check_the_kind(uni):
    from qdd import GateKind, GateSpec, build_gate_dd
    h2 = build_gate_dd(uni, 2, GateSpec(GateKind.H, 0))
    v = uni.basis_state(2, "01")
    # a matrix read as a vector gave 0j and [0.707, 0, 0.707, 0]; a vector
    # read as a matrix raised IndexError
    with pytest.raises(ValueError, match="not a vector diagram"):
        uni.read_amplitude(h2, 2, 1)
    with pytest.raises(ValueError, match="not a vector diagram"):
        uni.read_dense(h2, 2)
    with pytest.raises(ValueError, match="not a matrix diagram"):
        uni.read_matrix_entry(v, 2, 1, 1)
    # a terminal root is neither kind
    one = Edge(uni.ctab.one, TERMINAL)
    assert uni.read_amplitude(one, 0, 0) == uni.read_matrix_entry(one, 0, 0, 0)


def test_read_matrix_entry_rejects_engine_gate_diagram(uni):
    from qdd import GateKind, GateSpec, build_gate_dd, gate_dd_for
    spec = GateSpec(GateKind.H, 0)
    # the skipped heights below the target read as (0, 1) = 0.7071
    with pytest.raises(ValueError, match="not a full matrix diagram"):
        uni.read_matrix_entry(gate_dd_for(uni, 4, spec, {}), 4, 0, 1)
    assert uni.read_matrix_entry(build_gate_dd(uni, 4, spec), 4, 0, 1) == 0


def test_read_dense_cap(uni):
    v = uni.basis_state(2, "00")
    with pytest.raises(ValueError):
        uni.read_dense(v, 21)


def test_construction_and_readout_leave_no_cyclic_garbage(uni):
    assert cyclic_garbage(uni.build_vector, WORKED_VECTOR) == 0
    assert cyclic_garbage(uni.build_matrix, [[S, S], [S, -S]]) == 0
    v = uni.build_vector(WORKED_VECTOR)
    assert cyclic_garbage(uni.read_dense, v, 3) == 0

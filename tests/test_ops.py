import math
import random

import numpy as np
import pytest

import qdd.dense as dense
from qdd import (Circuit, EngineConfig, GateKind, GateSpec, MeasureAllOp,
                 MeasureOp, TERMINAL, Universe, add, build_gate_dd,
                 count_nodes, gate_dd_for, identity_dd, kron, measure_all,
                 measure_qubit, measure_top, multiply, norm_squared,
                 qubit_probabilities, run, NormDriftError)
from qdd.ops import _levels

from _util import (assert_interned, assert_valid_state, cyclic_garbage,
                   dd_matrix_to_array, dd_to_array, random_circuit,
                   random_gate_spec, random_state)

S = 1 / math.sqrt(2)

WORKED_VECTOR = [0, 0, 0.5, 0, 0.5, 0, -S, 0]


@pytest.fixture
def uni():
    return Universe()


class Forced:
    """Stub RNG returning a fixed stream of uniforms."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def random(self):
        return self.draws.pop(0) if len(self.draws) > 1 else self.draws[0]


FULL_ONLY = "not a full matrix diagram"


class TestKron:
    def test_engine_gate_diagram_rejected(self, uni):
        # its root sits at the target's height, not at the top: rebuilt
        # over a 1-qubit identity it landed at height 1, not 4
        h0 = gate_dd_for(uni, 4, GateSpec(GateKind.H, 0), {})
        ident = identity_dd(uni, 1)
        for a, b in ((h0, ident), (ident, h0)):
            with pytest.raises(ValueError, match=FULL_ONLY):
                kron(uni, a, b)
        full = build_gate_dd(uni, 4, GateSpec(GateKind.H, 0))
        assert kron(uni, full, ident).node.height == 4

    def test_vector_and_matrix_rejected(self, uni):
        h = uni.build_matrix([[S, S], [S, -S]])
        v = uni.basis_state(1, "1")
        for a, b in ((h, v), (v, h)):
            with pytest.raises(ValueError, match="vector and a matrix"):
                kron(uni, a, b)
        # a terminal root is neither kind
        assert kron(uni, _one_edge(uni), v) == v

    def test_h_times_identity(self, uni):
        h = uni.build_matrix([[S, S], [S, -S]])
        ident = uni.build_matrix([[1, 0], [0, 1]])
        got = kron(uni, h, ident)
        want = S * np.array([[1, 0, 1, 0], [0, 1, 0, 1],
                             [1, 0, -1, 0], [0, 1, 0, -1]])
        assert np.allclose(dd_matrix_to_array(uni, got, 2), want, atol=1e-12)

    def test_scalar_right_identity(self, uni):
        h = uni.build_matrix([[S, S], [S, -S]])
        assert kron(uni, h, _one_edge(uni)) == h

    def test_random_against_dense(self, uni):
        rng = np.random.default_rng(21)
        for _ in range(10):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            ea = uni.build_matrix(a.tolist())
            eb = uni.build_matrix(b.tolist())
            got = dd_matrix_to_array(uni, kron(uni, ea, eb), 4)
            assert np.max(np.abs(got - np.kron(a, b))) < 1e-9

    def test_level_overlap_rejected(self, uni):
        # two 1-qubit operands at the same height: kron lifts a over b
        a = np.array([[1, 0], [0, 1j]])
        b = np.array([[0, 1], [1, 0]])
        ea = uni.build_matrix(a.tolist())
        eb = uni.build_matrix(b.tolist())
        assert ea.node.height == eb.node.height == 0
        got = kron(uni, ea, eb)
        assert got.node.height == 1
        assert np.allclose(dd_matrix_to_array(uni, got, 2), np.kron(a, b),
                           atol=1e-12)

    def test_zero_operand(self, uni):
        # kron has no zero test: cmul gives the zero handle, and _edge
        # the zero edge, whichever side is zero
        zero = uni.zero_edge
        for x in (uni.build_matrix([[1, 0], [0, 1]]),
                  uni.build_vector([S, 0, 0.5j, -0.5]),
                  uni.build_matrix([[S, S], [S, -S]]),
                  build_gate_dd(uni, 3, GateSpec(GateKind.X, 2, {0}))):
            for a, b in ((x, zero), (zero, x)):
                got = kron(uni, a, b)
                assert got.w is uni.ctab.zero and got.node is TERMINAL

    def test_leaves_no_cyclic_garbage(self, uni):
        a = uni.build_matrix([[S, S], [S, -S]])
        b = uni.build_matrix([[1, 0], [0, 1j]])
        assert cyclic_garbage(kron, uni, a, b) == 0

    def test_underflowing_weight_gives_the_zero_edge(self, uni):
        # 1e-6 * 1e-6 interns to zero, which only the zero edge may carry
        a = uni.build_vector([1e-6, 0])
        assert a.w is not uni.ctab.zero
        assert kron(uni, a, a) == uni.zero_edge


def _one_edge(uni):
    from qdd import Edge
    return Edge(uni.ctab.one, TERMINAL)


class TestAdd:
    def test_engine_gate_diagrams_rejected(self, uni):
        # H + X on qubit 0 of 4 came back as a root at height 0, not 3
        h0, x0 = (gate_dd_for(uni, 4, GateSpec(kind, 0), {})
                  for kind in (GateKind.H, GateKind.X))
        with pytest.raises(ValueError, match=FULL_ONLY):
            add(uni, h0, x0)
        # a CX whose control sits three heights above its target
        cx = gate_dd_for(uni, 4, GateSpec(GateKind.X, 3, frozenset({0})), {})
        with pytest.raises(ValueError, match=FULL_ONLY):
            add(uni, cx, cx)
        with pytest.raises(ValueError, match=FULL_ONLY):
            add(uni, uni.zero_edge, h0)
        full = build_gate_dd(uni, 4, GateSpec(GateKind.H, 0))
        assert add(uni, full, full).node.height == 3

    def test_swept_matrix_rejected(self, uni):
        h = uni.build_matrix([[S, S], [S, -S]])
        uni.gc_collect([])
        with pytest.raises(ValueError, match="gc_collect swept"):
            add(uni, h, h)

    def test_different_heights_rejected(self, uni):
        two, three = uni.basis_state(2, "01"), uni.basis_state(3, "011")
        for p, q in ((two, three), (three, two)):
            with pytest.raises(ValueError,
                               match="different qubit sets: [12] vs [21]"):
                add(uni, p, q)
        with pytest.raises(ValueError, match="different qubit sets$"):
            add(uni, two, _one_edge(uni))
        # a zero operand spans every qubit set
        assert add(uni, two, uni.zero_edge) == two

    def test_vector_and_matrix_rejected(self, uni):
        v = uni.basis_state(2, "01")
        gate = build_gate_dd(uni, 2, GateSpec(GateKind.H, 0))
        for p, q in ((v, gate), (gate, v)):
            with pytest.raises(ValueError, match="vector and a matrix"):
                add(uni, p, q)
        # a terminal root, the zero edge included, is neither kind
        assert add(uni, gate, uni.zero_edge) == gate

    def test_additive_identity(self, uni):
        v = uni.build_vector(list(np.arange(4) + 0.5))
        assert add(uni, v, uni.zero_edge) == v
        assert add(uni, uni.zero_edge, v) == v

    def test_worked_superposition(self, uni):
        a = uni.build_vector([S, 0, 0, 0])
        b = uni.build_vector([0, 0, S, 0])
        got = dd_to_array(uni, add(uni, a, b), 2)
        assert np.allclose(got, [S, 0, S, 0], atol=1e-12)

    def test_random_against_dense(self, uni):
        rng = np.random.default_rng(17)
        for _ in range(5):
            a = rng.normal(size=256) + 1j * rng.normal(size=256)
            b = rng.normal(size=256) + 1j * rng.normal(size=256)
            va = uni.build_vector(list(a))
            vb = uni.build_vector(list(b))
            got = dd_to_array(uni, add(uni, va, vb), 8)
            assert np.max(np.abs(got - (a + b))) < 1e-12

    def test_commutative_cache_line(self, uni):
        a = uni.build_vector(list(np.arange(8) + 1.0))
        b = uni.build_vector(list(np.arange(8) * 1j - 2))
        r1 = add(uni, a, b)
        hits_before = len(uni.cache.add)
        r2 = add(uni, b, a)
        assert r1 == r2
        assert len(uni.cache.add) == hits_before

    def test_cancellation_returns_zero_edge(self, uni):
        a = uni.build_vector([0.5, -0.25, 0, 1])
        b = uni.build_vector([-0.5, 0.25, 0, -1])
        assert add(uni, a, b) == uni.zero_edge

    def test_matrices_add_in_every_quadrant(self, uni):
        rng = np.random.default_rng(18)
        a, b = (rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
                for _ in range(2))
        got = add(uni, uni.build_matrix(a.tolist()),
                  uni.build_matrix(b.tolist()))
        err = dd_matrix_to_array(uni, got, 3) - (a + b)
        assert np.max(np.abs(err)) < 1e-12


class TestMultiply:
    def test_operand_kinds_checked(self, uni):
        v = uni.basis_state(2, "01")
        gate = build_gate_dd(uni, 2, GateSpec(GateKind.H, 0))
        for u, x in ((gate, gate), (v, v), (v, gate)):
            with pytest.raises(ValueError, match="matrix u and a vector v"):
                multiply(uni, u, x)
        # a terminal root, scalar or zero, is neither kind
        assert multiply(uni, _one_edge(uni), v) == v
        assert multiply(uni, gate, uni.zero_edge) == uni.zero_edge

    def test_cnot_flips(self, uni):
        cnot = build_gate_dd(uni, 2, GateSpec(GateKind.X, 1, frozenset({0})))
        got = multiply(uni, cnot, uni.basis_state(2, "11"))
        assert np.allclose(dd_to_array(uni, got, 2), [0, 0, 1, 0], atol=1e-12)

    def test_h_on_top_qubit(self, uni):
        h0 = build_gate_dd(uni, 2, GateSpec(GateKind.H, 0))
        got = multiply(uni, h0, uni.basis_state(2, "00"))
        assert np.allclose(dd_to_array(uni, got, 2), [S, 0, S, 0], atol=1e-12)

    def test_identity(self, uni):
        from qdd import identity_dd
        rng = np.random.default_rng(2)
        for n in (1, 2, 3, 5, 8):
            for _ in range(3):
                v = uni.build_vector(list(random_state(rng, n)))
                assert multiply(uni, identity_dd(uni, n), v) == v

    def test_identity_chain_levels_cost_one_entry(self, uni):
        # the full gate's identity heights, diag(x, x) nodes above and
        # below the target, are read off the nodes: each run of them costs
        # one recursion entry, not a walk down to the terminal, also after
        # a GC that kept the gate alive
        n = 48
        for target in (0, 5, 20, 47):
            gate = build_gate_dd(uni, n, GateSpec(GateKind.H, target))
            v = uni.basis_state(n, "0" * n)
            for _ in range(2):
                uni.cache.ops_count = 0
                multiply(uni, gate, v)
                assert uni.cache.ops_count <= target + 3
                uni.gc_collect([gate, v])

    def test_identity_heights_read_off_the_node(self, uni):
        # no identity_dd or build_gate_dd call before: an identity height
        # of any full operator, diag(x, x), is recognized by its structure
        h = dense.controlled_gate(1, GateSpec(GateKind.H, 0))
        v = uni.basis_state(8, "0" * 8)
        u = uni.build_matrix(np.kron(h, np.eye(2 ** 7)))
        uni.cache.ops_count = 0
        got = multiply(uni, u, v)
        # H's node, then one entry per row into I over 7 qubits
        assert uni.cache.ops_count <= 3 and len(uni.cache.mult) <= 1
        assert got == multiply(uni, build_gate_dd(
            uni, 8, GateSpec(GateKind.H, 0)), v)
        low = Universe()
        u = low.build_matrix(np.kron(np.eye(2 ** 7), h))
        v = low.basis_state(8, "0" * 8)
        low.cache.ops_count = 0
        multiply(low, u, v)
        # one entry into the identity run and one per state level below
        # it, as before the identity was read off the node
        assert low.cache.ops_count == 10

    def test_zero_short_circuit(self, uni):
        v = uni.basis_state(2, "01")
        assert multiply(uni, uni.zero_edge, v) == uni.zero_edge

    def test_random_step_against_dense(self, uni):
        rng = np.random.default_rng(4)
        from _util import random_gate_spec
        v = random_state(rng, 8)
        ve = uni.build_vector(list(v))
        for _ in range(10):
            spec = random_gate_spec(rng, 8)
            ve = multiply(uni, build_gate_dd(uni, 8, spec), ve)
            v = dense.controlled_gate(8, spec) @ v
            assert np.max(np.abs(dd_to_array(uni, ve, 8) - v)) < 1e-9

    def test_lower_operator_acts_as_identity_above(self, uni):
        # an operator over the k lowest qubits of n: the product equals the
        # one with the operator padded by kron, and the one with the
        # full-width gate shifted down by n - k, edge for edge
        from _util import random_gate_spec
        from qdd import identity_dd
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            k = int(rng.integers(1, n))
            spec = random_gate_spec(rng, k)
            u = build_gate_dd(uni, k, spec)
            full = build_gate_dd(uni, n, GateSpec(
                spec.kind, spec.target + n - k,
                frozenset(c + n - k for c in spec.controls), spec.param))
            v = uni.build_vector(list(random_state(rng, n)))
            padded = kron(uni, identity_dd(uni, n - k), u)
            got = multiply(uni, u, v)
            assert got == multiply(uni, padded, v) == multiply(uni, full, v)

    def test_taller_operator_rejected(self, uni):
        gate = build_gate_dd(uni, 3, GateSpec(GateKind.H, 0))
        with pytest.raises(ValueError, match="more qubits than the state"):
            multiply(uni, gate, uni.basis_state(2, "01"))

    def test_cost_stays_proportional_to_node_product(self, uni):
        # multiply on a linear-size gate and a built state should touch
        # at most a small multiple of |u|*|v| recursion entries
        rng = np.random.default_rng(13)
        v = uni.build_vector(list(random_state(rng, 8)))
        gate = build_gate_dd(uni, 8, GateSpec(GateKind.H, 4, frozenset({1, 6})))
        uni.cache.ops_count = 0
        uni.cache.mult.clear()
        uni.cache.add.clear()
        multiply(uni, gate, v)
        budget = 16 * count_nodes(gate) * count_nodes(v)
        assert uni.cache.ops_count <= budget


class TestNodeProbability:
    def test_worked_vector_nodes(self, uni):
        v = uni.build_vector(WORKED_VECTOR)
        top = v.node
        left_q1 = top.edges[0].node
        right_q1 = top.edges[1].node
        q2 = right_q1.edges[0].node
        assert q2.mass == pytest.approx(1.0, abs=1e-12)
        assert right_q1.mass == pytest.approx(3.0, abs=1e-12)
        assert left_q1.mass == pytest.approx(1.0, abs=1e-12)

    def test_terminal_base_case(self, uni):
        assert TERMINAL.mass == 1.0


def _summed_mass(node, memo: dict) -> float:
    """A node's probability mass by recursion: |w|^2 as re*re + im*im
    times the successor's mass, added left to right over the nonzero
    weights, in edge order."""
    if node is TERMINAL:
        return 1.0
    if node not in memo:
        p = 0.0
        s = node.succ
        for w, nxt in zip(s[::2], s[1::2]):
            if w != 0:
                p += (w.real * w.real + w.imag * w.imag) * _summed_mass(
                    nxt, memo)
        memo[node] = p
    return memo[node]


def assert_masses_exact(uni: Universe) -> None:
    """Every stored node's mass equals the recursion's float exactly: a
    mass summed in another order, or by another formula, differs in the
    last bit on some node (and on some Python)."""
    memo: dict = {}
    for node in uni._table.values():
        assert node.mass == _summed_mass(node, memo), node


class TestNodeMass:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_vectors_and_matrices(self, uni, seed):
        rng = np.random.default_rng(seed)
        for n in (1, 3, 5):
            a = random_state(rng, n)
            uni.build_vector(list(a))
            a[rng.random(a.size) < 0.4] = 0
            uni.build_vector(list(a))
            m = rng.normal(size=(1 << n, 1 << n)) + 1j * rng.normal(
                size=(1 << n, 1 << n))
            uni.build_matrix(m.tolist())
            m[rng.random(m.shape) < 0.4] = 0
            uni.build_matrix(m.tolist())
        assert_masses_exact(uni)
        assert TERMINAL.mass == 1.0

    def test_engine_gate_nodes(self, uni):
        rng = np.random.default_rng(5)
        for _ in range(60):
            gate_dd_for(uni, 6, random_gate_spec(rng, 6), {})
        # gate nodes are keyed (height, succ)
        assert any(len(key) == 2 for key in uni._table)
        assert_masses_exact(uni)

    @pytest.mark.parametrize("seed", range(3))
    def test_every_universe_of_a_measured_run(self, seed):
        rng = np.random.default_rng(seed)
        n = 5
        ops = []
        for i, op in enumerate(random_circuit(rng, n, 60).ops):
            ops.append(op)
            if i % 6 == 5:
                ops.append(MeasureOp(int(rng.integers(n))))
        ops.append(MeasureAllOp())
        live = []

        def check(uni, state, i):
            assert_masses_exact(uni)
            live.append(uni.live_nodes)
        run(Circuit(n, ops), EngineConfig(seed=seed, gc_threshold=20),
            on_op=check)
        assert len(live) == len(ops)
        assert max(live) > 20  # so the collector swept the table


class TestQubitProbabilities:
    def test_worked_vector(self, uni):
        v = uni.build_vector(WORKED_VECTOR)
        p0, p1 = qubit_probabilities(uni, v)
        assert p0 == pytest.approx(0.25, abs=1e-12)
        assert p1 == pytest.approx(0.75, abs=1e-12)

    def test_basis_state(self, uni):
        p0, p1 = qubit_probabilities(uni, uni.basis_state(3, "000"))
        assert (p0, p1) == (1.0, 0.0)

    def test_random_against_dense_split(self, uni):
        rng = np.random.default_rng(23)
        a = random_state(rng, 8)
        v = uni.build_vector(list(a))
        p0, p1 = qubit_probabilities(uni, v)
        assert p0 == pytest.approx(float(np.sum(np.abs(a[:128]) ** 2)), abs=1e-10)
        assert p1 == pytest.approx(float(np.sum(np.abs(a[128:]) ** 2)), abs=1e-10)


class TestMeasureTop:
    def test_forced_outcome_one(self, uni):
        v = uni.build_vector(WORKED_VECTOR)
        outcome, post = measure_top(uni, v, Forced(0.99))
        assert outcome == 1
        assert post.w.real == pytest.approx(1 / math.sqrt(3), abs=1e-12)
        assert post.w.imag == 0.0
        # discarded branch reads zero everywhere
        for idx in range(4):
            assert uni.read_amplitude(post, 3, idx) == 0
        assert_valid_state(uni, post)

    def test_deterministic_branch(self, uni):
        v = uni.basis_state(1, "0")
        outcome, post = measure_top(uni, v, random.Random(1))
        assert outcome == 0
        assert post == v

    def test_bell_sampling_frequency(self, uni):
        bell = uni.build_vector([S, 0, 0, S])
        rng = random.Random(42)
        zeros = sum(1 - measure_top(uni, bell, rng)[0] for _ in range(100_000))
        assert abs(zeros / 100_000 - 0.5) < 0.01

    def test_norm_drift_detected(self, uni):
        bad = uni.build_vector([1.0, 1.0])  # norm 2
        with pytest.raises(NormDriftError):
            measure_top(uni, bad, Forced(0.1))


class TestMeasureQubit:
    def test_root_matches_measure_top(self, uni):
        v = uni.build_vector(WORKED_VECTOR)
        o1, p1 = measure_top(uni, v, Forced(0.6))
        o2, p2 = measure_qubit(uni, v, 0, Forced(0.6))
        assert o1 == o2 and p1 == p2

    def test_ghz_collapse_correlates(self, uni):
        ghz = uni.build_vector([S, 0, 0, 0, 0, 0, 0, S])
        for draw, want in ((0.1, "000"), (0.9, "111")):
            outcome, post = measure_qubit(uni, ghz, 1, Forced(draw))
            dense_post = dd_to_array(uni, post, 3)
            idx = int(want, 2)
            assert abs(dense_post[idx]) == pytest.approx(1.0, abs=1e-12)
            assert outcome == int(want[1])

    def test_conditional_against_dense(self, uni):
        ct = uni.ctab
        rng = np.random.default_rng(31)
        # the 0.999 pass comes second, so the 0.37 pass draws as before
        for draw, n in [(d, n) for d in (0.37, 0.999) for n in (3, 5, 8, 1)]:
            a = random_state(rng, n)
            v = uni.build_vector(list(a))
            q = int(rng.integers(n))
            outcome, post = measure_qubit(uni, v, q, Forced(draw))
            if draw > 0.5:
                assert outcome == 1  # every state drawn here has P(0) < 0.999
            shift = n - 1 - q
            mask = np.array([(i >> shift) & 1 == outcome for i in range(1 << n)])
            want = np.where(mask, a, 0)
            want = want / np.linalg.norm(want)
            got = dd_to_array(uni, post, n)
            # global phase is fixed by construction here: weights are scaled
            # by a positive real, so direct comparison is valid
            assert np.max(np.abs(got - want)) < 1e-9
            assert_valid_state(uni, post)
            # edge for edge, the post-state is the projector product scaled
            # by 1/sqrt(p), p that product's own squared norm
            m = multiply(uni, uni.build_matrix(np.diag(mask.astype(float))), v)
            p = norm_squared(uni, m)
            assert post.node is m.node
            assert post.w is ct.cmul(m.w, ct.intern(1 / math.sqrt(p)))

    def test_out_of_range(self, uni):
        v = uni.basis_state(2, "00")
        with pytest.raises(ValueError):
            measure_qubit(uni, v, 2, Forced(0.5))

    def test_unnormalized_collapse_raises(self, uni):
        # a tiny first weight: the renormalized root weight interns back
        # to the old one, so the kept state would have squared norm 0.8
        v = uni.build_vector([1.3416407864998738e-10j, 0, 0.8944271909999159j,
                              0, 0, 0.4472135954999579j, 0, 0])
        assert norm_squared(uni, v) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(NormDriftError, match="collapsed state") as err:
            measure_qubit(uni, v, 0, Forced(0.5))
        assert err.value.deviation == pytest.approx(0.2)

    @pytest.mark.parametrize("q", [1.0, "1", None])
    def test_non_integer_qubit_rejected(self, uni, q):
        v = uni.basis_state(2, "01")
        with pytest.raises(ValueError, match="not an integer"):
            measure_qubit(uni, v, q, Forced(0.5))

    def test_numpy_integer_qubit_accepted(self, uni):
        v = uni.basis_state(2, "01")
        assert measure_qubit(uni, v, np.int64(1), Forced(0.5)) == (1, v)

    @pytest.mark.parametrize("bit", [0, 1])
    def test_short_norm_never_draws_the_impossible_outcome(self, uni, bit):
        # squared norm 1 - 5e-9 passes the entry check; a draw between it
        # and 1 must still give the one possible outcome
        amps = [0, 0]
        amps[bit] = math.sqrt(1 - 5e-9)
        outcome, post = measure_qubit(uni, uni.build_vector(amps), 0,
                                      Forced(0.999999999))
        assert outcome == bit
        assert post == uni.basis_state(1, str(bit))


def _by_value(edge):
    """An edge as nested tuples of weight components and node heights."""
    node = edge.node
    below = None if node is TERMINAL else (
        node.height, tuple(_by_value(e) for e in node.edges))
    return edge.w.real, edge.w.imag, below


class TestCollapseMemo:
    def test_warm_remeasure_builds_no_node(self, uni, monkeypatch):
        a = random_state(np.random.default_rng(41), 6)
        v = uni.build_vector(list(a))
        for draw in (0.0, 0.9999999):
            first = measure_qubit(uni, v, 3, Forced(draw))
            calls = []
            make = uni._make_node
            def counted(edges, height=None):
                # the projector, the one node given a height, is found in
                # the table; every product node is built height-less
                if height is None:
                    calls.append(edges)
                return make(edges, height)
            monkeypatch.setattr(uni, "_make_node", counted)
            again = measure_qubit(uni, v, 3, Forced(draw))
            monkeypatch.undo()
            assert calls == []
            assert again == first
            fresh = Universe()
            want = measure_qubit(fresh, fresh.build_vector(list(a)), 3,
                                 Forced(draw))
            assert again[0] == want[0] == (draw > 0.5)
            assert _by_value(again[1]) == _by_value(want[1])

    @pytest.mark.parametrize("n", range(3, 9))
    def test_certain_outcome_returns_the_state(self, uni, n):
        rng = random.Random(n)
        states = [(uni.basis_state(n, bits), bits) for bits in (
            "0" * n, "1" * n, "".join(rng.choice("01") for _ in range(n)))]
        ghz = uni.build_vector([S] + [0] * ((1 << n) - 2) + [S])
        for draw, bit in ((0.0, "0"), (0.9999999, "1")):
            states.append((measure_qubit(uni, ghz, 0, Forced(draw))[1],
                           bit * n))
        # every outcome here is certain, so _project answers it from the
        # state's level masks: it builds no projector and no product, and
        # the state comes back as it is
        for v, bits in states:
            for q in range(n):
                for draw in (0.0, 0.9999999):
                    uni.cache.mult.clear()
                    before = uni._node_seq
                    outcome, post = measure_qubit(uni, v, q, Forced(draw))
                    assert outcome == int(bits[q])
                    assert post.node is v.node
                    assert uni._node_seq == before

    @pytest.mark.parametrize("n", range(3, 9))
    def test_random_outcome_rebuilds_from_table_hits(self, uni, n):
        # a random outcome does build the projection; with the mult memo
        # dropped, the rebuild finds the projector and every product node
        # in the unique table, and constructs none
        v = uni.build_vector(list(random_state(np.random.default_rng(n), n)))
        for q in range(n):
            for draw in (0.0, 0.9999999):
                first = measure_qubit(uni, v, q, Forced(draw))
                uni.cache.mult.clear()
                before = uni._node_seq
                again = measure_qubit(uni, v, q, Forced(draw))
                assert uni._node_seq == before
                assert again == first

    def test_gc_drops_the_memo(self, uni):
        v = uni.build_vector(list(random_state(np.random.default_rng(42), 6)))
        _, first = measure_qubit(uni, v, 2, Forced(0.0))
        uni.gc_collect([v])
        _, again = measure_qubit(uni, v, 2, Forced(0.0))
        assert_interned(uni, again)
        assert _by_value(again) == _by_value(first)


def _support_states(rng: np.random.Generator, n: int) -> list:
    """Dense vectors over n qubits with varied supports: random, sparse,
    basis, GHZ, product and zeroed-half states."""
    dim = 1 << n
    rand = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    states = [rand, np.where(rng.random(dim) < 0.2, rand, 0)]
    for i in (0, dim - 1, int(rng.integers(dim))):
        states.append(np.eye(dim)[i].astype(complex))
    states.append(np.where(np.isin(np.arange(dim), (0, dim - 1)), S, 0))
    singles = ([1, 0], [0, 1], rng.normal(size=2) + 1j * rng.normal(size=2))
    for _ in range(3):
        prod = np.ones(1, dtype=complex)
        for _ in range(n):
            prod = np.kron(prod, singles[int(rng.integers(3))])
        states.append(prod)
    for q in range(n):
        shift = n - 1 - q
        bit = np.arange(dim) >> shift & 1
        for b in (0, 1):
            states.append(np.where(bit == b, 0, rand))
    return [a for a in states if np.any(a != 0)]


def _fixed_qubit_state(rng: np.random.Generator, n: int, q: int,
                       value: int) -> np.ndarray:
    """A random n-qubit state whose qubit q is certainly ``value``, with
    the other qubits in an entangled superposition."""
    rest = random_state(rng, n - 1)
    idx = np.arange(1 << n)
    shift = n - 1 - q
    others = (idx >> (shift + 1) << shift) | (idx & ((1 << shift) - 1))
    return np.where(idx >> shift & 1 == value, rest[others], 0)


class TestLevels:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_bits_match_the_dense_support(self, uni, n):
        rng = np.random.default_rng(100 + n)
        for a in _support_states(rng, n):
            v = uni.build_vector(list(a))
            zeros, ones = _levels(uni, v.node)
            assert v.node.levels == (zeros, ones)
            for q in range(n):
                shift = n - 1 - q
                bit = np.arange(1 << n) >> shift & 1
                assert bool(zeros >> shift & 1) == bool(np.any(a[bit == 0]))
                assert bool(ones >> shift & 1) == bool(np.any(a[bit == 1]))
            assert (zeros | ones) >> n == 0

    def test_terminal(self, uni):
        assert _levels(uni, TERMINAL) == (0, 0)

    @pytest.mark.parametrize("q", [0, 2, 5])
    @pytest.mark.parametrize("value", [0, 1])
    def test_certain_measurement_builds_and_files_nothing(self, q, value):
        uni = Universe()
        cache = uni.cache
        n = 6
        v = uni.build_vector(list(
            _fixed_qubit_state(np.random.default_rng(q), n, q, value)))
        for draw in (0.0, 0.9999999):
            before = cache.ops_count, len(cache.mult), uni.live_nodes
            outcome, post = measure_qubit(uni, v, q, Forced(draw))
            assert outcome == value and post.node is v.node
            assert (cache.ops_count, len(cache.mult),
                    uni.live_nodes) == before
        # a random outcome still builds and files its projection
        before = cache.ops_count, len(cache.mult), uni.live_nodes
        measure_qubit(uni, v, 3 if q < 3 else 1, Forced(0.5))
        after = cache.ops_count, len(cache.mult), uni.live_nodes
        assert all(x > y for x, y in zip(after, before))

    @pytest.mark.parametrize("q", [0, 2, 4])
    @pytest.mark.parametrize("value", [0, 1])
    def test_certain_post_state_is_the_scaled_projection(self, uni, q, value):
        ct = uni.ctab
        n = 5
        a = _fixed_qubit_state(np.random.default_rng(10 + q), n, q, value)
        v = uni.build_vector(list(a))
        shift = n - 1 - q
        for draw in (0.0, 0.5, 0.9999999):
            outcome, post = measure_qubit(uni, v, q, Forced(draw))
            assert outcome == value
            # edge for edge, as in the walk: the projector product scaled
            # by 1/sqrt(p), p that product's own squared norm
            mask = np.arange(1 << n) >> shift & 1 == outcome
            m = multiply(uni, uni.build_matrix(np.diag(mask.astype(float))), v)
            p = norm_squared(uni, m)
            assert post.node is m.node is v.node
            assert post.w is ct.cmul(m.w, ct.intern(1 / math.sqrt(p)))
            assert np.max(np.abs(dd_to_array(uni, post, n) - a)) < 1e-9
            assert_valid_state(uni, post)


class TestMeasureAll:
    def test_deterministic_basis_state(self, uni):
        v = uni.basis_state(2, "10")
        rng = random.Random(0)
        assert all(measure_all(uni, v, rng) == "10" for _ in range(50))

    def test_bell_outcomes(self, uni):
        bell = uni.build_vector([S, 0, 0, S])
        rng = random.Random(7)
        seen = {measure_all(uni, bell, rng) for _ in range(2000)}
        assert seen == {"00", "11"}

    def test_histogram_close_to_dense(self, uni):
        rng_np = np.random.default_rng(12)
        a = random_state(rng_np, 3)
        v = uni.build_vector(list(a))
        rng = random.Random(99)
        counts: dict[str, int] = {}
        shots = 100_000
        for _ in range(shots):
            b = measure_all(uni, v, rng)
            counts[b] = counts.get(b, 0) + 1
        probs = dense.measure_distribution(a)
        tvd = 0.5 * sum(abs(counts.get(k, 0) / shots - probs.get(k, 0.0))
                        for k in set(counts) | set(probs))
        assert tvd < 0.01

    def test_norm_drift_detected(self, uni):
        with pytest.raises(NormDriftError) as err:
            measure_all(uni, uni.build_vector([1, 1]), Forced(0.5))
        assert str(err.value) == "state norm is 2.0"
        assert err.value.deviation == 1.0

    def test_same_seed_same_sequence(self, uni):
        bell = uni.build_vector([S, 0, 0, S])
        seq1 = [measure_all(uni, bell, random.Random(5)) for _ in range(20)]
        seq2 = [measure_all(uni, bell, random.Random(5)) for _ in range(20)]
        assert seq1 == seq2

    @staticmethod
    def _walk(uni, v, rng):
        """measure_all's loop without the per-node threshold memo."""
        from qdd.cvalue import magnitude_squared
        bits = []
        node = v.node
        while node is not TERMINAL:
            w0, n0, w1, n1 = node.succ
            p0 = p1 = 0.0
            if w0 is not uni.ctab.zero:
                p0 = magnitude_squared(w0) * n0.mass
            if w1 is not uni.ctab.zero:
                p1 = magnitude_squared(w1) * n1.mass
            if rng.random() < p0 / (p0 + p1):
                bits.append("0")
                node = n0
            else:
                bits.append("1")
                node = n1
        return "".join(bits)

    def test_warm_state_costs_a_lookup_per_level(self, uni):
        rng_np = np.random.default_rng(17)
        v = uni.build_vector(list(random_state(rng_np, 6)))

        def shots(sample, seed):
            rng = random.Random(seed)
            return [sample(uni, v, rng) for _ in range(50)]
        cold = [shots(measure_all, seed) for seed in range(8)]
        memo = dict(uni.cache.branch)
        assert memo
        # the same draws revisit only nodes whose threshold is memoized
        assert [shots(measure_all, seed) for seed in range(8)] == cold
        assert uni.cache.branch == memo
        assert [shots(self._walk, seed) for seed in range(8)] == cold


class TestMeasuredOperandIsAVector:
    # a matrix's four successors were read as a vector's two, or as a
    # probability mass that blamed drift for the wrong operand

    @pytest.fixture
    def h2(self, uni):
        return build_gate_dd(uni, 2, GateSpec(GateKind.H, 0))

    def test_qubit_probabilities(self, uni, h2):
        with pytest.raises(ValueError, match="not a vector diagram"):
            qubit_probabilities(uni, h2)

    def test_measure_qubit(self, uni, h2):
        for measure in (measure_top, lambda u, v, r: measure_qubit(u, v, 1, r)):
            with pytest.raises(ValueError, match="not a vector diagram"):
                measure(uni, h2, Forced(0.5))

    def test_measure_all(self, uni, h2):
        with pytest.raises(ValueError, match="not a vector diagram"):
            measure_all(uni, h2, Forced(0.5))
        assert measure_all(uni, _one_edge(uni), Forced(0.5)) == ""

    @pytest.mark.parametrize("measure", [
        qubit_probabilities,
        lambda uni, v: measure_qubit(uni, v, 0, Forced(0.5))],
        ids=["qubit_probabilities", "measure_qubit"])
    def test_terminal_root_has_no_qubits(self, uni, measure):
        with pytest.raises(ValueError) as err:
            measure(uni, _one_edge(uni))
        assert str(err.value) == "state has no qubits to measure"


class TestNormSquared:
    def test_normalized_state(self, uni):
        v = uni.build_vector(list(random_state(np.random.default_rng(8), 6)))
        assert norm_squared(uni, v) == pytest.approx(1.0, abs=1e-10)

    def test_zero_state(self, uni):
        assert norm_squared(uni, uni.zero_edge) == 0.0


class TestCacheSoundness:
    def test_recompute_after_clear_is_identical(self, uni):
        rng = np.random.default_rng(3)
        a = uni.build_vector(list(random_state(rng, 6)))
        gate = build_gate_dd(uni, 6, GateSpec(GateKind.H, 2, frozenset({0})))
        r1 = multiply(uni, gate, a)
        uni.cache.clear()
        r2 = multiply(uni, gate, a)
        assert r1 == r2  # same weight handle, same node object
        b = uni.build_vector(list(random_state(rng, 6)))
        s1 = add(uni, a, b)
        uni.cache.clear()
        assert add(uni, a, b) == s1

    def test_oracle_equivalence_sweep(self, uni):
        # kron/add/multiply/read_dense against dense linear algebra
        rng = np.random.default_rng(77)
        for n in (2, 4, 6):
            a = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            b = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            va, vb = uni.build_vector(list(a)), uni.build_vector(list(b))
            assert np.max(np.abs(dd_to_array(uni, add(uni, va, vb), n)
                                 - (a + b))) < 1e-9
            m = rng.normal(size=(1 << n, 1 << n))
            me = uni.build_matrix(m.tolist())
            got = dd_to_array(uni, multiply(uni, me, va), n)
            assert np.max(np.abs(got - m @ a)) < 1e-9

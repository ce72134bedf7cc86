import cmath
import math
import re

import numpy as np
import pytest

import qdd.dense as dense
from qdd import (TERMINAL, Circuit, GateKind, GateSpec, MeasureOp, Universe,
                 base2x2, build_gate_dd, count_nodes, gate_dd_for, identity_dd,
                 measure_qubit, multiply, norm_squared)

from _util import (assert_interned, dd_matrix_to_array, dd_to_array,
                   random_gate_spec, random_state)

S = 1 / math.sqrt(2)


@pytest.fixture
def uni():
    return Universe()


def as_matrix(kind, param=None):
    return np.array(base2x2(kind, param))


class TestBase2x2:
    def test_hadamard(self):
        assert np.allclose(as_matrix(GateKind.H),
                           S * np.array([[1, 1], [1, -1]]), atol=1e-15)

    def test_x_z(self):
        assert np.array_equal(as_matrix(GateKind.X), [[0, 1], [1, 0]])
        assert np.array_equal(as_matrix(GateKind.Z), [[1, 0], [0, -1]])

    def test_phase_zero_is_identity(self):
        assert np.allclose(as_matrix(GateKind.PHASE, 0.0), np.eye(2), atol=1e-15)

    def test_rk2_is_s(self):
        assert np.allclose(as_matrix(GateKind.RK, 2), [[1, 0], [0, 1j]],
                           atol=1e-15)
        assert np.allclose(as_matrix(GateKind.RK, 2), as_matrix(GateKind.S),
                           atol=1e-15)

    def test_rk_phase_unchanged_for_float_orders(self):
        for k in range(1, 1024):
            want = cmath.exp(2j * math.pi / 2 ** k)
            assert base2x2(GateKind.RK, k)[1][1] == want

    @pytest.mark.parametrize("k", [1024, 5000])
    def test_rk_order_beyond_float_range(self, k):
        # 2**k does not fit a float; the angle 2*pi / 2**k is (nearly) 0
        u = as_matrix(GateKind.RK, k)
        assert np.allclose(u, np.eye(2), atol=1e-300)
        assert np.array_equal(dense.gate_matrix(GateKind.RK, k), u)

    @pytest.mark.parametrize("kind", list(GateKind))
    def test_unitary(self, kind):
        param = {GateKind.PHASE: 1.234, GateKind.RK: 5}.get(kind)
        u = as_matrix(kind, param)
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-15

    @pytest.mark.parametrize("kind", list(GateKind))
    def test_matches_dense_oracle(self, kind):
        param = {GateKind.PHASE: 1.234, GateKind.RK: 5}.get(kind)
        diff = as_matrix(kind, param) - dense.gate_matrix(kind, param)
        assert np.max(np.abs(diff)) <= 1e-15

    @pytest.mark.parametrize("kind", ["x", None, 0])
    def test_unknown_kind_rejected(self, kind):
        with pytest.raises(ValueError, match="unknown gate kind"):
            base2x2(kind, 1)

    @pytest.mark.parametrize("kind, param", [
        (GateKind.RK, 0), (GateKind.RK, None), (GateKind.PHASE, None),
        (GateKind.PHASE, math.inf), (GateKind.PHASE, math.nan),
        (GateKind.X, 3)])
    def test_follows_gate_spec_rule(self, kind, param):
        with pytest.raises(ValueError) as want:
            GateSpec(kind, 0, param=param)
        with pytest.raises(ValueError) as got:
            base2x2(kind, param)
        assert str(got.value) == str(want.value)


class TestGateSpec:
    def test_target_cannot_be_control(self):
        with pytest.raises(ValueError):
            GateSpec(GateKind.X, 1, frozenset({1}))

    def test_param_policing(self):
        with pytest.raises(ValueError):
            GateSpec(GateKind.X, 0, param=1.0)
        with pytest.raises(ValueError):
            GateSpec(GateKind.PHASE, 0)
        with pytest.raises(ValueError):
            GateSpec(GateKind.RK, 0, param=0)
        with pytest.raises(ValueError):
            GateSpec(GateKind.RK, 0, param=1.5)

    @pytest.mark.parametrize("param", [
        "x", "0.5", math.nan, math.inf, -math.inf, 1 + 2j, complex(0.5),
        True, False, np.nan, np.float64(np.inf), 10 ** 400])
    def test_phase_needs_finite_real_angle(self, param):
        with pytest.raises(ValueError, match="finite real angle"):
            GateSpec(GateKind.PHASE, 0, param=param)

    @pytest.mark.parametrize("param", [
        0, -3, 0.5, -1e300, np.float64(0.25), np.float32(0.25), np.int64(2)])
    def test_phase_keeps_finite_reals(self, param):
        assert GateSpec(GateKind.PHASE, 0, param=param).param is param

    @pytest.mark.parametrize("param", [True, False, np.bool_(True)])
    def test_rk_order_is_not_a_bool(self, param):
        with pytest.raises(ValueError, match="RK needs an integer"):
            GateSpec(GateKind.RK, 0, param=param)

    def test_rk_order_becomes_int(self):
        spec = GateSpec(GateKind.RK, 0, param=np.int64(3))
        assert spec == GateSpec(GateKind.RK, 0, param=3)
        assert type(spec.param) is int

    @pytest.mark.parametrize("target, controls", [
        (1.0, ()), (1.5, ()), ("1", ()), (None, ()), (0, (1.0,)), (0, ("2",))])
    def test_non_integer_qubit_rejected(self, target, controls):
        with pytest.raises(ValueError, match="not an integer"):
            GateSpec(GateKind.H, target, frozenset(controls))

    def test_numpy_integer_qubits_become_ints(self):
        spec = GateSpec(GateKind.X, np.int64(2), {np.int32(0), 1})
        assert spec == GateSpec(GateKind.X, 2, frozenset({0, 1}))
        assert type(spec.target) is int
        assert all(type(c) is int for c in spec.controls)

    @pytest.mark.parametrize("param", [None, 0.5])
    @pytest.mark.parametrize("kind", ["x", None, 0, []])
    def test_unknown_kind_rejected(self, kind, param):
        with pytest.raises(ValueError, match="unknown gate kind"):
            GateSpec(kind, 0, param=param)

    def test_hashable_for_caching(self):
        a = GateSpec(GateKind.RK, 1, frozenset({0}), param=3)
        b = GateSpec(GateKind.RK, 1, frozenset({0}), param=3)
        assert a == b and hash(a) == hash(b)


class TestBuildGateDD:
    def test_cnot_dense(self, uni):
        got = dd_matrix_to_array(
            uni, build_gate_dd(uni, 2, GateSpec(GateKind.X, 1, frozenset({0}))), 2)
        want = np.array([[1, 0, 0, 0], [0, 1, 0, 0],
                         [0, 0, 0, 1], [0, 0, 1, 0]])
        assert np.array_equal(got, want)

    def test_h_padded_diagram_shape(self, uni):
        e = build_gate_dd(uni, 2, GateSpec(GateKind.H, 0))
        assert e.w.real == pytest.approx(S, abs=1e-15)
        assert count_nodes(e) == 2
        got = dd_matrix_to_array(uni, e, 2)
        want = S * np.array([[1, 0, 1, 0], [0, 1, 0, 1],
                             [1, 0, -1, 0], [0, 1, 0, -1]])
        assert np.allclose(got, want, atol=1e-12)

    def test_toffoli(self, uni):
        got = dd_matrix_to_array(
            uni,
            build_gate_dd(uni, 3, GateSpec(GateKind.X, 2, frozenset({0, 1}))), 3)
        want = np.eye(8)
        want[[6, 7]] = want[[7, 6]]
        assert np.allclose(got, want, atol=1e-12)

    def test_control_below_target(self, uni):
        spec = GateSpec(GateKind.X, 0, frozenset({1}))
        got = dd_matrix_to_array(uni, build_gate_dd(uni, 2, spec), 2)
        assert np.array_equal(got, dense.controlled_gate(2, spec))

    @pytest.mark.parametrize("n,spec", [
        (4, GateSpec(GateKind.Y, 2)),
        (5, GateSpec(GateKind.PHASE, 0, frozenset({4}), param=0.3)),
        (6, GateSpec(GateKind.Z, 5, frozenset({0, 2, 3}))),
        (6, GateSpec(GateKind.H, 3, frozenset({0, 1, 4, 5}))),
        (7, GateSpec(GateKind.RK, 2, frozenset({5}), param=4)),
    ])
    def test_against_dense_oracle(self, uni, n, spec):
        got = dd_matrix_to_array(uni, build_gate_dd(uni, n, spec), n)
        assert np.max(np.abs(got - dense.controlled_gate(n, spec))) < 1e-12

    def test_linear_size_controls_above_target(self, uni):
        for n in (4, 8, 16, 32):
            spec = GateSpec(GateKind.X, n - 1, frozenset(range(n - 1)))
            assert count_nodes(build_gate_dd(uni, n, spec)) <= 2 * n

    def test_linear_size_any_control_placement(self, uni):
        # a level between the target and a control below it holds the
        # identity plus up to three distinct tracks (the two diagonal ones
        # and the off-diagonal pair); X's zero diagonal merges two of them
        for kind, per_level in ((GateKind.X, 3), (GateKind.H, 4)):
            for n in (4, 8, 16, 32):
                spec = GateSpec(kind, n // 2,
                                frozenset(q for q in range(n) if q != n // 2))
                assert count_nodes(build_gate_dd(uni, n, spec)) <= per_level * n

    def test_canonical_against_dense_decomposition(self, uni):
        # one universe, several qubit counts: the shared identity chains
        # must not leak between them
        rng = np.random.default_rng(21)
        placements = set()
        for _ in range(120):
            n = int(rng.integers(1, 7))
            spec = random_gate_spec(rng, n)
            placements.add((any(c < spec.target for c in spec.controls),
                            any(c > spec.target for c in spec.controls)))
            want = uni.build_matrix(dense.controlled_gate(n, spec))
            assert build_gate_dd(uni, n, spec) == want
        assert len(placements) == 4
        for n in range(1, 5):
            assert identity_dd(uni, n) == uni.build_matrix(np.eye(1 << n))

    def test_rebuilt_after_gc_stays_canonical(self, uni):
        rng = np.random.default_rng(22)
        specs = [random_gate_spec(rng, 5) for _ in range(12)]
        for spec in specs:
            build_gate_dd(uni, 5, spec)
        uni.gc_collect([])
        for spec in specs:
            e = build_gate_dd(uni, 5, spec)
            assert_interned(uni, e)
            assert e == uni.build_matrix(dense.controlled_gate(5, spec))
        assert_interned(uni, identity_dd(uni, 5))

    @pytest.mark.parametrize("target,controls", [
        (0, ()), (20, ()), (47, ()), (30, (2, 11)),
        (0, (1,)), (10, (5, 12, 40)), (20, tuple(range(21, 48))),
    ])
    def test_build_cost_on_warm_universe(self, uni, target, controls):
        # identity_dd memoizes the identities, so a build only pays for
        # the levels from its lowest lower control up to the root
        n = 48
        identity_dd(uni, n)
        calls = 0

        make = uni._make_node

        def counting(edges, height=None):
            # the nodes of a full diagram; the engine's diagram, whose
            # nodes take a height, is not counted
            nonlocal calls
            calls += height is None
            return make(edges, height)

        uni._make_node = counting
        build_gate_dd(uni, n, GateSpec(GateKind.H, target, frozenset(controls)))
        low = max((c for c in controls if c > target), default=target)
        assert calls <= 4 * (low - target) + target + 1

    def test_index_out_of_range(self, uni):
        with pytest.raises(ValueError):
            build_gate_dd(uni, 2, GateSpec(GateKind.X, 2))
        with pytest.raises(ValueError):
            build_gate_dd(uni, 2, GateSpec(GateKind.X, 0, frozenset({5})))

    @pytest.mark.parametrize("n", [2.0, "2", None])
    def test_non_integer_qubit_count_rejected(self, uni, n):
        spec = GateSpec(GateKind.X, 0)
        for build in (lambda: build_gate_dd(uni, n, spec),
                      lambda: identity_dd(uni, n)):
            with pytest.raises(ValueError, match=re.escape(
                    f"qubit count {n!r} is not an integer")):
                build()
        assert uni.live_nodes == 0

    def test_negative_qubit_count_rejected(self, uni):
        with pytest.raises(ValueError) as err:
            identity_dd(uni, -1)
        assert str(err.value) == "qubit count must be nonnegative"

    def test_numpy_integer_qubit_count_accepted(self, uni):
        spec = GateSpec(GateKind.X, 0)
        assert build_gate_dd(uni, np.int64(2), spec) == build_gate_dd(
            uni, 2, spec)
        assert identity_dd(uni, np.int32(2)) == identity_dd(uni, 2)
        assert all(type(node.height) is int for node in
                   (identity_dd(uni, np.int64(3)).node,
                    build_gate_dd(uni, np.int64(3), spec).node))

    def test_deep_full_builds(self, uni):
        # the heights a node skips are filled in by a loop, so the build
        # depth does not grow with them
        n = 1500
        assert count_nodes(build_gate_dd(uni, n, GateSpec(GateKind.H, 1499))) == n
        assert count_nodes(identity_dd(uni, n)) == n
        assert count_nodes(build_gate_dd(uni, n, GateSpec(GateKind.H, 0))) == n
        # X on 700, controls 3 and 1400, at heights t, hi above and lo
        # below: the diagonals above the control node on hi, that node,
        # the identity over hi qubits (which the lower nodes share), the
        # diagonals above the target node, the target node, and the
        # diagonals above the two control-on-lo nodes (|0><0| and |1><1|,
        # the tracks X's zero diagonal and unit off-diagonal take), and
        # those nodes
        t, hi, lo = n - 1 - 700, n - 1 - 3, n - 1 - 1400
        want = ((n - 1 - hi) + 1 + hi + (hi - 1 - t) + 1
                + 2 * (t - 1 - lo) + 2)
        assert want == 3597
        e = build_gate_dd(uni, n, GateSpec(GateKind.X, 700, frozenset({3, 1400})))
        assert count_nodes(e) == want


class TestGateProperties:
    def test_unitarity_preserved_on_random_states(self, uni):
        rng = np.random.default_rng(6)
        for n in (3, 6, 8):
            v = uni.build_vector(list(random_state(rng, n)))
            for _ in range(8):
                gate = build_gate_dd(uni, n, random_gate_spec(rng, n))
                v = multiply(uni, gate, v)
                assert abs(norm_squared(uni, v) - 1.0) < 1e-10

    def test_unitarity_at_larger_n_via_norm_only(self, uni):
        v = uni.basis_state(24, "01" * 12)
        gate = build_gate_dd(uni, 24, GateSpec(GateKind.H, 7, frozenset({3, 20})))
        v = multiply(uni, gate, v)
        assert abs(norm_squared(uni, v) - 1.0) < 1e-10

    @pytest.mark.parametrize("kind", [GateKind.X, GateKind.H, GateKind.Z])
    def test_self_inverse(self, uni, kind):
        rng = np.random.default_rng(14)
        v0 = random_state(rng, 4)
        v = uni.build_vector(list(v0))
        gate = build_gate_dd(uni, 4, GateSpec(kind, 2, frozenset({0})))
        v = multiply(uni, gate, multiply(uni, gate, v))
        assert np.max(np.abs(dd_to_array(uni, v, 4) - v0)) < 1e-10


class TestIdentityDD:
    def test_chain_of_n_nodes(self, uni):
        e = identity_dd(uni, 5)
        assert count_nodes(e) == 5
        assert e.w is uni.ctab.one

    def test_dense(self, uni):
        got = dd_matrix_to_array(uni, identity_dd(uni, 3), 3)
        assert np.array_equal(got, np.eye(8))

    def test_one_chain_serves_every_width(self, uni):
        wide = identity_dd(uni, 5)
        live = uni.live_nodes
        narrow = identity_dd(uni, 3)
        assert uni.live_nodes == live
        assert wide.node.edges[0].node.edges[0].node is narrow.node
        assert wide.node.edges[3].node.edges[3].node is narrow.node

    def test_gate_nodes_rebuild_to_themselves(self, uni):
        # a node's height follows from its successors, so make_node over
        # a stored node's edges finds that node again
        rng = np.random.default_rng(23)
        for _ in range(20):
            e = build_gate_dd(uni, 5, random_gate_spec(rng, 5))
            assert e.node.height == 4
            stack, seen = [e.node], set()
            while stack:
                node = stack.pop()
                if node is TERMINAL or node in seen:
                    continue
                seen.add(node)
                again = uni.make_node(*node.edges)
                assert again.node is node and again.w is uni.ctab.one
                stack.extend(x.node for x in node.edges)


def sided_gate_spec(rng: np.random.Generator, n: int) -> GateSpec:
    """A random gate with 0-3 controls above its target and 0-3 below."""
    spec = random_gate_spec(rng, n)
    above = list(range(spec.target))
    below = list(range(spec.target + 1, n))
    controls = set()
    for side in (above, below):
        rng.shuffle(side)
        controls.update(side[:int(rng.integers(0, min(3, len(side)) + 1))])
    return GateSpec(spec.kind, spec.target, frozenset(controls), spec.param)


class TestEngineGateDD:
    """The engine's gate diagram: one node per involved qubit, whose edges
    skip the heights the gate does not touch."""

    def test_multiply_matches_the_full_diagram(self, uni):
        # same Edge, same recursion count: a skipped height costs multiply
        # what the full diagram's diagonal node there cost
        rng = np.random.default_rng(51)
        placements = set()
        for _ in range(300):
            n = int(rng.integers(1, 8))
            spec = sided_gate_spec(rng, n)
            placements.add((any(c < spec.target for c in spec.controls),
                            any(c > spec.target for c in spec.controls)))
            v = uni.build_vector(list(random_state(rng, n)))
            got = []
            for gate in (gate_dd_for(uni, n, spec, {}),
                         build_gate_dd(uni, n, spec)):
                uni.cache.mult.clear()
                uni.cache.add.clear()
                uni.cache.ops_count = 0
                e = multiply(uni, gate, v)
                got.append((e.w, e.node, uni.cache.ops_count))
            (aw, an, a_ops), (bw, bn, b_ops) = got
            assert aw is bw and an is bn and a_ops == b_ops
        assert len(placements) == 4

    def test_full_diagram_is_the_dense_gate(self, uni):
        rng = np.random.default_rng(52)
        for _ in range(60):
            n = int(rng.integers(1, 8))
            spec = sided_gate_spec(rng, n)
            e = build_gate_dd(uni, n, spec)
            got = dd_matrix_to_array(uni, e, n)
            assert np.max(np.abs(got - dense.controlled_gate(n, spec))) < 1e-12
            assert e == uni.build_matrix(dense.controlled_gate(n, spec))

    @pytest.mark.parametrize("n", [8, 48, 300])
    def test_node_count_does_not_grow_with_n(self, uni, n):
        rng = np.random.default_rng(53)
        for _ in range(40):
            spec = sided_gate_spec(rng, 8)
            spec = GateSpec(spec.kind, spec.target * (n // 8),
                            frozenset(c * (n // 8) for c in spec.controls),
                            spec.param)
            below = sum(c > spec.target for c in spec.controls)
            above = len(spec.controls) - below
            gate = gate_dd_for(uni, n, spec, {})
            assert count_nodes(gate) <= 1 + 3 * below + above
        for target, control in ((n - 1, 0), (0, n - 1)):
            cp = GateSpec(GateKind.PHASE, target, frozenset({control}), 0.5)
            assert count_nodes(gate_dd_for(uni, n, cp, {})) == 2

    def test_height_is_part_of_the_key(self, uni):
        # X on qubit 2 and on qubit 5 share the edges (0, 1, 1, 0) to the
        # terminal; only the height tells their nodes apart
        x2, x5 = (gate_dd_for(uni, 8, GateSpec(GateKind.X, q), {})
                  for q in (2, 5))
        assert x2.node.edges == x5.node.edges
        assert (x2.node.height, x5.node.height) == (5, 2)
        assert x2.node is not x5.node
        v = uni.basis_state(8, "0" * 8)
        assert multiply(uni, x2, v) == uni.basis_state(8, "00100000")
        assert multiply(uni, x5, v) == uni.basis_state(8, "00000100")

    def test_identity_on_a_height_is_skipped(self, uni):
        ct = uni.ctab
        x = (ct.intern(0.5j), TERMINAL)
        z = uni.zero_edge
        assert uni._make_node((x, z, z, x), 3) == x
        # controls whose e00 and e11 agree add no node: a zero phase is
        # the identity, and cz's |0> track below its target is too
        phase0 = GateSpec(GateKind.PHASE, 1, frozenset({0, 4}), 0.0)
        assert gate_dd_for(uni, 6, phase0, {}) == (ct.one, TERMINAL)
        cz = gate_dd_for(uni, 6, GateSpec(GateKind.Z, 1, frozenset({4})), {})
        assert cz.node.edges[0] == (ct.one, TERMINAL)
        assert count_nodes(cz) == 2

    def test_full_build_makes_each_node_once(self, uni):
        # the expansion memoizes per (node, height), so every node it asks
        # for is a new one
        rng = np.random.default_rng(54)
        for _ in range(40):
            n = int(rng.integers(1, 12))
            spec = sided_gate_spec(rng, n)
            uni.gc_collect([])
            identity_dd(uni, n)
            gate_dd_for(uni, n, spec, {})
            calls = 0

            def counting(make):
                def call(*args):
                    nonlocal calls
                    calls += 1
                    return make(*args)
                return call

            before = uni.live_nodes
            uni._make_node = counting(uni._make_node)
            build_gate_dd(uni, n, spec)
            del uni._make_node
            assert calls == uni.live_nodes - before

    def test_gate_nodes_are_counted_and_swept(self, uni):
        spec = GateSpec(GateKind.H, 3, frozenset({0, 6}))
        gate = gate_dd_for(uni, 8, spec, {})
        # the target, three tracks at the control below, one control above
        assert uni.live_nodes == count_nodes(gate) == 5
        assert uni.gc_collect([gate]) == 0
        assert uni.gc_collect([]) == 5 and uni.live_nodes == 0
        assert uni.cache.gates == {}


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize("make", [
    lambda uni, q: GateSpec(GateKind.X, q),
    lambda uni, q: GateSpec(GateKind.X, 2, frozenset({q})),
    lambda uni, q: MeasureOp(q),
    lambda uni, q: Circuit(q),
    lambda uni, q: measure_qubit(uni, uni.basis_state(2, "01"), q,
                                 np.random.default_rng(0)),
    lambda uni, q: identity_dd(uni, q),
    lambda uni, q: build_gate_dd(uni, q, GateSpec(GateKind.H, 0)),
], ids=["target", "control", "measure", "circuit", "measure_qubit",
        "identity_dd", "build_gate_dd"])
def test_bool_is_no_qubit_index_or_count(uni, make, flag):
    # a bool is an int to operator.index, but never a qubit
    with pytest.raises(ValueError, match=f"qubit (index|count) {flag} is not"):
        make(uni, flag)

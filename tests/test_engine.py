import cmath
import dataclasses
import gc
import math
import random
import sys

import numpy as np
import pytest

import qdd.cli as cli
import qdd.dd as dd
import qdd.dense as dense
from qdd import (TERMINAL, Circuit, Edge, EngineConfig, GateKind, GateOp,
                 GateSpec, MeasureAllOp, MeasureOp, NormDriftError, SimStats,
                 Universe, add, build_gate_dd, count_nodes, gate_dd_for,
                 gen_entangle, gen_grover, gen_qft, grover_iterations,
                 identity_dd, kron, measure_all, measure_qubit, measure_top,
                 multiply, parse, run, sample)

from _util import (cyclic_garbage, dft_matrix, flat_key, random_circuit,
                   random_gate_spec)

S = 1 / math.sqrt(2)

BELL_MEASURE = "qubits 2\nh 0\ncx 0 1\nmeasure 0\n"
H_WALL = "qubits 80\n" + "".join(f"h {q}\n" for q in range(80))


def state_vector(circuit, config=None):
    """Run and read back the final amplitudes (test convenience)."""
    from qdd.engine import _execute
    cfg = config or EngineConfig()
    uni, stats = Universe(), SimStats()
    state = _execute(uni, circuit.n_qubits, circuit.ops,
                     random.Random(cfg.seed), stats, cfg.gc_threshold)
    return np.array(uni.read_dense(state, circuit.n_qubits)), stats


class TestRun:
    def test_empty_circuit(self):
        state, stats = run(Circuit(3))
        assert stats.gates_applied == 0
        assert stats.peak_vector_nodes == 3
        vec, _ = state_vector(Circuit(3))
        assert np.array_equal(vec, dense.zero_state(3))

    def test_measured_bell_collapses_both_qubits(self):
        seen = set()
        for seed in range(12):
            vec, stats = state_vector(parse(BELL_MEASURE),
                                      EngineConfig(seed=seed))
            nonzero = np.flatnonzero(np.abs(vec) > 1e-12)
            assert list(nonzero) in ([0], [3])  # |00> or |11>
            assert vec[nonzero[0]] == pytest.approx(1.0, abs=1e-10)
            seen.add(int(nonzero[0]))
        assert seen == {0, 3}  # both outcomes occur across seeds

    def test_pre_measurement_state_is_bell(self):
        c = parse("qubits 2\nh 0\ncx 0 1\n")
        vec, _ = state_vector(c)
        assert np.allclose(vec, [S, 0, 0, S], atol=1e-12)

    def test_qft_matches_dense_oracle(self):
        bits = "1011001010"
        vec, _ = state_vector(gen_qft(10, bits))
        want = dft_matrix(10)[:, int(bits, 2)]
        assert np.max(np.abs(vec - want)) < 1e-9

    def test_measurement_free_run_is_seed_independent(self):
        c = gen_qft(5, "10110")
        v1, _ = state_vector(c, EngineConfig(seed=1))
        v2, _ = state_vector(c, EngineConfig(seed=999))
        assert np.array_equal(v1, v2)

    def test_stats_reproducible_modulo_wall_time(self):
        c = random_circuit(np.random.default_rng(0), 5, 30)
        _, s1 = run(c, EngineConfig(seed=5))
        _, s2 = run(c, EngineConfig(seed=5))
        d1 = dataclasses.asdict(s1)
        d2 = dataclasses.asdict(s2)
        d1.pop("wall_time_ms")
        d2.pop("wall_time_ms")
        assert d1 == d2

    def test_measure_all_op_collapses_to_basis_state(self):
        c = Circuit(3, (GateOp(GateSpec(GateKind.H, 0)),
                        GateOp(GateSpec(GateKind.H, 1)),
                        MeasureAllOp()))
        vec, _ = state_vector(c, EngineConfig(seed=3))
        assert sorted(np.abs(vec).round(9)) == [0] * 7 + [1]

    def test_on_op_observer_sees_every_op(self):
        calls = []
        run(gen_entangle(4), on_op=lambda uni, state, i: calls.append(i))
        assert calls == list(range(4))


class TestPeaks:
    def test_entangle_peak_linear(self):
        for n in (8, 32, 64):
            _, stats = run(gen_entangle(n))
            assert stats.peak_vector_nodes <= 2 * n

    def test_qft_peak_linear(self):
        for n in (4, 8, 16, 24, 32, 40):
            bits = "10" * (n // 2)
            _, stats = run(gen_qft(n, bits))
            assert stats.peak_vector_nodes <= 4 * n

    def test_peak_at_least_final(self):
        c = random_circuit(np.random.default_rng(2), 6, 25)
        state, stats = run(c)
        assert stats.peak_vector_nodes >= count_nodes(state)
        assert stats.gates_applied == 25

    @staticmethod
    def measured_circuit(seed: int, n: int = 6) -> Circuit:
        """H on every qubit, so that controlled gates entangle, then a
        random circuit with a measurement after every fifth gate."""
        rng = np.random.default_rng(seed)
        ops = [GateOp(GateSpec(GateKind.H, q)) for q in range(n)]
        for i, op in enumerate(random_circuit(rng, n, 40).ops):
            ops.append(op)
            if i % 5 == 4:
                ops.append(MeasureOp(int(rng.integers(n))))
        return Circuit(n, ops)

    @pytest.mark.parametrize("threshold", [1_000_000, 20])
    @pytest.mark.parametrize("seed", range(4))
    def test_peak_is_the_largest_walked_state(self, monkeypatch, seed,
                                              threshold):
        # the engine counts a state only when its bound exceeds the peak;
        # the peak must still be the exact maximum over every state, the
        # initial |0...0> (n nodes) and each state after an op, in run and
        # in a re-simulating sample alike
        import qdd.engine as engine
        c = self.measured_circuit(seed)
        walked = [c.n_qubits]
        execute = engine._execute

        def walk(uni, state, i):
            walked.append(_replay_walk((state,)))
        _, stats = run(c, EngineConfig(seed=seed, gc_threshold=threshold),
                       on_op=walk)
        assert stats.peak_vector_nodes == max(walked)
        walked[1:] = []
        monkeypatch.setattr(engine, "_execute",
                            lambda *args: execute(*args, walk))
        stats = sample(c, EngineConfig(seed=seed, shots=8,
                                       gc_threshold=threshold))
        assert len(walked) == 1 + 8 * len(c.ops)
        assert stats.peak_vector_nodes == max(walked) > c.n_qubits


class TestSample:
    def test_bell_histogram(self):
        stats = sample(gen_entangle(2), EngineConfig(seed=11, shots=10_000))
        assert set(stats.histogram) == {"00", "11"}
        assert sum(stats.histogram.values()) == 10_000
        assert abs(stats.histogram["00"] / 10_000 - 0.5) < 0.02

    def test_deterministic_preparation(self):
        c = parse("qubits 2\nx 0\n")
        stats = sample(c, EngineConfig(seed=0, shots=100))
        assert stats.histogram == {"10": 100}

    def test_trailing_measure_equivalent_to_sampling(self):
        # explicit trailing measurement ops do not change the joint stats
        with_measure = parse(BELL_MEASURE)
        stats = sample(with_measure, EngineConfig(seed=4, shots=5_000))
        assert set(stats.histogram) == {"00", "11"}

    def test_mid_circuit_measurement_resimulates(self):
        text = "qubits 2\nh 0\nmeasure 0\nh 0\nmeasure_all\n"
        stats = sample(parse(text), EngineConfig(seed=2, shots=2_000))
        assert sum(stats.histogram.values()) == 2_000
        # outcomes follow |+/-><0| structure: second bit always 0
        assert all(k.endswith("0") for k in stats.histogram)
        # without the mid-circuit collapse, H twice would always give 00
        assert set(stats.histogram) == {"00", "10"}

    def test_same_seed_same_histogram(self):
        c = gen_entangle(3)
        s1 = sample(c, EngineConfig(seed=123, shots=500))
        s2 = sample(c, EngineConfig(seed=123, shots=500))
        assert s1.histogram == s2.histogram
        assert s1.peak_vector_nodes == s2.peak_vector_nodes

    def test_stats_describe_one_pass_over_the_gates(self):
        mid = parse("qubits 3\nh 0\ncx 0 1\nmeasure 0\nh 2\ncx 2 1\n")
        stats = sample(mid, EngineConfig(seed=3, shots=5))
        assert stats.gates_applied == 4
        trailing = parse("qubits 3\nh 0\ncx 0 1\nh 2\nmeasure 1\n"
                         "measure_all\n")
        stats = sample(trailing, EngineConfig(seed=3, shots=50))
        prefix = Circuit(3, trailing.ops[:3], trailing.name)
        _, want = run(prefix, EngineConfig(seed=3))
        assert (stats.gates_applied, stats.peak_vector_nodes,
                stats.peak_unique_nodes) == (want.gates_applied,
                                             want.peak_vector_nodes,
                                             want.peak_unique_nodes)

    def test_grover_sampling_concentrates(self):
        from qdd import gen_grover
        marked = "10011010"
        stats = sample(gen_grover(8, marked), EngineConfig(seed=8, shots=1000))
        assert stats.histogram.get(marked, 0) / 1000 >= 0.97


class TestGateDDCache:
    def test_cache_hit_returns_same_edge(self):
        uni = Universe()
        cache = {}
        spec = GateSpec(GateKind.H, 1)
        a = gate_dd_for(uni, 3, spec, cache)
        b = gate_dd_for(uni, 3, spec, cache)
        assert a == b and len(cache) == 1

    def test_warm_build_constructs_nothing_until_gc(self, monkeypatch):
        # the full-width build fills in the heights the engine's diagram
        # skips (and, for the second spec, the two above its top qubit);
        # that expansion must be memoized too
        for spec in (GateSpec(GateKind.X, 2, frozenset({0, 4})),
                     GateSpec(GateKind.H, 3, frozenset({2}))):
            uni = Universe()
            cold = build_gate_dd(uni, 5, spec)
            cold_core = gate_dd_for(uni, 5, spec, {})

            def no_build(*args):
                raise AssertionError("warm gate build constructed a node")
            monkeypatch.setattr(uni, "_make_node", no_build)
            warm = build_gate_dd(uni, 5, spec)
            assert warm.w is cold.w and warm.node is cold.node
            assert gate_dd_for(uni, 5, spec, {}) == cold_core
            monkeypatch.undo()
            uni.gc_collect([])
            assert uni.cache.gates == {} and uni.live_nodes == 0
            rebuilt = build_gate_dd(uni, 5, spec)
            assert rebuilt.w is cold.w and rebuilt.node is not cold.node
            assert count_nodes(rebuilt) == count_nodes(cold)

    def test_engine_gate_ends_at_its_top_qubit(self):
        uni = Universe()
        gate = gate_dd_for(uni, 48, GateSpec(GateKind.H, 47), {})
        assert gate.node.height == 0
        # one node, and no identity below it
        assert uni.live_nodes == 1
        top = GateSpec(GateKind.X, 40, frozenset({9, 45}))
        assert gate_dd_for(uni, 48, top, {}).node.height == 48 - 1 - 9


class TestNodeCountMemo:
    MID = "qubits 3\nh 0\ncx 0 1\nmeasure 0\nh 2\ncx 2 1\nmeasure 2\n"

    def test_each_distinct_state_counted_once(self, monkeypatch):
        import qdd.dd as dd
        from qdd.engine import _execute
        walked = []
        reachable = dd._reachable
        monkeypatch.setattr(dd, "_reachable", lambda roots: walked.extend(
            r.node for r in roots) or reachable(roots))
        c = parse(self.MID)
        uni, rng, stats = Universe(), random.Random(3), SimStats()
        per_op = []
        for _ in range(40):
            _execute(uni, c.n_qubits, c.ops, rng, stats, 1_000_000,
                     lambda uni, state, i: per_op.append(
                         len(reachable((state,)))))
        assert len(walked) == len(set(walked)) < len(per_op) / 4
        assert stats.peak_vector_nodes == max(per_op)

    def test_memo_dropped_when_gc_fires(self):
        from qdd.engine import _execute
        c = parse(self.MID)
        collected, gc_free = SimStats(), SimStats()
        for stats, threshold in ((collected, 0), (gc_free, 1_000_000)):
            uni, rng = Universe(), random.Random(3)
            for _ in range(10):
                _execute(uni, c.n_qubits, c.ops, rng, stats, threshold)
        assert collected.peak_vector_nodes == gc_free.peak_vector_nodes
        assert collected.peak_unique_nodes < gc_free.peak_unique_nodes


class TestGc:
    def test_low_threshold_forces_collection_and_stays_correct(self):
        c = random_circuit(np.random.default_rng(9), 5, 40)
        v1, s1 = state_vector(c, EngineConfig(gc_threshold=40))
        v2, s2 = state_vector(c, EngineConfig())
        assert np.max(np.abs(v1 - v2)) < 1e-12
        assert s2.peak_unique_nodes >= s1.peak_unique_nodes

    def test_gate_dds_are_collected(self, monkeypatch):
        # gate diagrams are no GC roots, so a threshold just above what the
        # state needs collects rarely instead of after nearly every op
        collections = []
        collect = Universe.gc_collect

        def counted(uni, roots):
            collections.append(roots)
            return collect(uni, roots)
        monkeypatch.setattr(Universe, "gc_collect", counted)
        c = gen_qft(16, "10" * 8)
        _, low = run(c, EngineConfig(gc_threshold=840))
        _, default = run(c)  # never collects; its table peaks at 1,208
        assert 1 <= len(collections) <= 4
        assert low.peak_unique_nodes < 900
        for s in (low, default):
            s.wall_time_ms = s.peak_unique_nodes = 0
        assert low == default


class TestNormCheck:
    def test_norm_deviation_reported_small(self):
        _, stats = run(gen_qft(8, "10101010"))
        assert stats.final_norm_deviation < 1e-10

    def test_precision_wall_stops_the_run(self):
        # H on each of 80 qubits takes the amplitudes below the interning
        # tolerance, so the norm collapses and the per-gate check aborts
        with pytest.raises(NormDriftError) as err:
            run(parse(H_WALL))
        assert str(err.value) == "norm drifted to deviation 1 after op 63 (H)"
        assert err.value.op_index == 63
        assert err.value.deviation == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("op", ["measure 1", "measure_all"])
    def test_measurement_drift_names_the_op(self, op, monkeypatch):
        import qdd.engine as engine

        def drift(uni, state, q, rng):
            raise NormDriftError("forced", deviation=0.25)
        monkeypatch.setattr(engine, "measure_qubit", drift)
        with pytest.raises(NormDriftError) as err:
            run(parse(f"qubits 2\nh 0\ncx 0 1\n{op}\nh 0\n"))
        assert str(err.value) == "forced (op 2)"
        assert (err.value.op_index, err.value.deviation) == (2, 0.25)


class TestQftClosedForm:
    """QFT of |x> against its closed form, e^{2 pi i xk / 2^n} / 2^{n/2}
    at index k, read one amplitude at a time, so at any qubit count. The
    rule, fixed before the first run: x, then 64 indices k, drawn from
    random.Random(n); amplitudes scaled by 2^{n/2} within perfbench's
    AMP_TOL. At 64 qubits every input tried meets the precision wall
    (ROADMAP item 10) at one of the last Hadamards."""

    AMP_TOL = 1e-8

    @pytest.mark.parametrize("n", [16, 32, 48, 63, pytest.param(
        64, marks=pytest.mark.xfail(
            raises=NormDriftError, strict=True,
            reason="ROADMAP item 10: after 64 Hadamards the root weight "
                   "2^-32 interns onto the 2^-31.5 entry"))])
    def test_amplitudes_match_the_dft(self, n):
        rng = random.Random(n)
        x = rng.getrandbits(n)
        unis = []
        state, _ = run(gen_qft(n, format(x, f"0{n}b")),
                       on_op=lambda uni, state, i: unis.append(uni))
        scale = math.sqrt(2.0 ** n)
        for _ in range(64):
            k = rng.randrange(1 << n)
            want = cmath.exp(2j * math.pi * ((x * k) % (1 << n)) / 2 ** n)
            got = unis[0].read_amplitude(state, n, k) * scale
            assert abs(got - want) <= self.AMP_TOL, (k, got, want)


class TestGroverClosedForm:
    """Grover amplitudes against their closed form: after iteration k
    the marked one has modulus |sin((2k+1)θ)| and every other one
    |cos((2k+1)θ)| / sqrt(2^n - 1), with sin θ = 2^(-n/2), read through
    on_op after the H layer (k = 0) and after each iteration. The rule,
    fixed before the first run: every even n from 2 to 16, the marked
    pattern and then 8 other indices drawn from random.Random(n), within
    AMP_TOL. The n = 14 draw drifts at its last op (ROADMAP item 10),
    as the pattern 1010... does at op 7213."""

    AMP_TOL = 1e-8

    @pytest.mark.parametrize("n", [pytest.param(n, marks=pytest.mark.xfail(
        raises=NormDriftError, strict=True,
        reason="ROADMAP item 10: 00111011111010 drifts at op 6813"))
        if n == 14 else n for n in range(2, 17, 2)])
    def test_amplitudes_match_the_closed_form(self, n):
        rng = random.Random(n)
        marked = "".join(rng.choice("01") for _ in range(n))
        m = int(marked, 2)
        others = [k + (k >= m) for k in
                  (rng.randrange((1 << n) - 1) for _ in range(8))]
        circuit = gen_grover(n, marked)
        iters = grover_iterations(n)
        step = (len(circuit.ops) - n) // iters
        seen = []

        def read(uni, state, i):
            if i >= n - 1 and (i - n + 1) % step == 0:
                seen.append([abs(uni.read_amplitude(state, n, j))
                             for j in [m, *others]])

        run(circuit, on_op=read)
        assert len(seen) == iters + 1
        theta = math.asin(2 ** (-n / 2))
        for k, (got_m, *got) in enumerate(seen):
            angle = (2 * k + 1) * theta
            assert abs(got_m - abs(math.sin(angle))) <= self.AMP_TOL, k
            want = abs(math.cos(angle)) / math.sqrt(2 ** n - 1)
            assert max(abs(g - want) for g in got) <= self.AMP_TOL, k


class TestRelabelMetamorphic:
    """Relabelling the qubits by a permutation π moves amplitude i of a
    circuit's state to index π(i), bit q of i moved to bit π(q), while
    the diagrams and their weights differ (MorphQ, ICSE 2023). The rule,
    fixed before the first run: for n in 20, 32, 48 and 60, 2n gates
    from random.Random(f"relabel/{n}"), each drawing r, then a qubit pair
    (c, t): H on t (r < 0.25), T on t (< 0.5), RK with k from 2 to 5 on
    t controlled by c (< 0.65), else CX; then π from the same generator.
    The indices are 48 measure_all draws from the original state with
    random.Random(n), then 16 uniform ones, within AMP_TOL."""

    AMP_TOL = 1e-8

    @pytest.mark.parametrize("n", [20, 32, 48, 60])
    def test_relabelled_amplitudes_match(self, n):
        rng = random.Random(f"relabel/{n}")
        specs = []
        for _ in range(2 * n):
            r = rng.random()
            c, t = rng.sample(range(n), 2)
            if r < 0.25:
                specs.append(GateSpec(GateKind.H, t))
            elif r < 0.5:
                specs.append(GateSpec(GateKind.T, t))
            elif r < 0.65:
                specs.append(GateSpec(GateKind.RK, t, frozenset({c}),
                                      param=rng.randint(2, 5)))
            else:
                specs.append(GateSpec(GateKind.X, t, frozenset({c})))
        perm = list(range(n))
        rng.shuffle(perm)
        relabelled = [dataclasses.replace(
            s, target=perm[s.target],
            controls=frozenset(perm[c] for c in s.controls)) for s in specs]

        def simulate(gate_specs):
            unis = []
            state, _ = run(Circuit(n, tuple(map(GateOp, gate_specs))),
                           on_op=lambda uni, state, i: unis.append(uni))
            return unis[0], state

        uni, state = simulate(specs)
        uni_p, state_p = simulate(relabelled)
        draw = random.Random(n)
        indices = [int(measure_all(uni, state, draw), 2) for _ in range(48)]
        indices += [draw.randrange(1 << n) for _ in range(16)]
        for i in indices:
            bits = format(i, f"0{n}b")
            moved = [""] * n
            for q, b in enumerate(bits):
                moved[perm[q]] = b
            j = int("".join(moved), 2)
            got = uni_p.read_amplitude(state_p, n, j)
            want = uni.read_amplitude(state, n, i)
            assert abs(got - want) <= self.AMP_TOL, (i, got, want)


class TestCollectorPause:
    MID = TestNodeCountMemo.MID

    @pytest.mark.parametrize("entry", [run, sample])
    @pytest.mark.parametrize("enabled", [True, False])
    def test_caller_state_restored(self, entry, enabled):
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            entry(parse(self.MID), EngineConfig(shots=5))
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("entry", [run, sample])
    @pytest.mark.parametrize("enabled", [True, False])
    def test_caller_state_restored_on_error(self, entry, enabled,
                                            monkeypatch):
        import qdd.engine as engine

        def drift(uni, gate, state):
            raise NormDriftError("forced", deviation=1.0)
        monkeypatch.setattr(engine, "multiply", drift)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            with pytest.raises(NormDriftError, match="forced"):
                entry(parse(self.MID), EngineConfig(shots=5))
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("entry", [run, sample, cli._dump_state])
    def test_universe_freed_before_collector_resumes(self, entry,
                                                     monkeypatch):
        import weakref
        import qdd.engine as engine
        universes, alive_at_enable = [], []

        class Recording(Universe):
            def __init__(self):
                super().__init__()
                universes.append(weakref.ref(self))

        enable = gc.enable

        def checked_enable():
            alive_at_enable.extend(ref() is not None for ref in universes)
            enable()
        was = gc.isenabled()
        gc.enable()
        monkeypatch.setattr(engine, "Universe", Recording)
        monkeypatch.setattr(cli, "Universe", Recording)
        monkeypatch.setattr(gc, "enable", checked_enable)
        try:
            entry(parse(self.MID), EngineConfig(shots=5))
        finally:
            monkeypatch.undo()
            (gc.enable if was else gc.disable)()
        assert len(universes) == 1
        assert alive_at_enable == [False]

    @pytest.mark.parametrize("threshold", [1_000_000, 20])
    def test_sample_leaves_no_cyclic_garbage(self, threshold):
        cfg = EngineConfig(seed=3, shots=20, gc_threshold=threshold)
        assert cyclic_garbage(sample, parse(self.MID), cfg) == 0


class TestQubitCap:
    """run, sample and the CLI's state dump reject a circuit too tall for
    the recursion limit with the CLI's ValueError, never RecursionError,
    and restore the caller's collector setting."""

    ENTRIES = [run, sample, cli._dump_state]
    MESSAGE = "qubits exceed the recursion depth of the diagram operations"

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("enabled", [True, False])
    def test_rejected_on_entry_before_allocating(self, entry, enabled,
                                                 monkeypatch):
        import qdd.engine as engine

        def no_universe():
            raise AssertionError("Universe built")
        monkeypatch.setattr(engine, "Universe", no_universe)
        monkeypatch.setattr(cli, "Universe", no_universe)
        n = sys.getrecursionlimit()
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            with pytest.raises(ValueError) as err:
                entry(Circuit(n), EngineConfig())
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert str(err.value) == f"{n} {self.MESSAGE}"

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("enabled", [True, False])
    def test_overflow_mid_run_becomes_the_same_error(self, entry, enabled):
        n = sys.getrecursionlimit() - 5
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            with pytest.raises(ValueError) as err:
                entry(parse(f"qubits {n}\nx 0\ncx 0 {n - 1}\n"),
                      EngineConfig())
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert str(err.value) == f"{n} {self.MESSAGE}"
        assert err.value.__context__ is None


def clifford_t_text(seed: int, n_gates: int, measure_every: int = 0) -> str:
    """A seeded 10-qubit H/T/CX circuit; with ``measure_every``, a measure
    of a drawn qubit after every that many gates, and measure_all last."""
    rng = random.Random(seed)
    lines = ["qubits 10"]
    for i in range(1, n_gates + 1):
        r = rng.random()
        if r < 0.3:
            lines.append(f"h {rng.randrange(10)}")
        elif r < 0.5:
            lines.append(f"t {rng.randrange(10)}")
        else:
            lines.append("cx {} {}".format(*rng.sample(range(10), 2)))
        if measure_every and i % measure_every == 0:
            lines.append(f"measure {rng.randrange(10)}")
    if measure_every:
        lines.append("measure_all")
    return "\n".join(lines) + "\n"


class TestEdgeBudget:
    """Edges are (weight, node) pairs inside the package: a run builds an
    Edge only for what the public calls return, one per gate applied and
    one per qubit measured."""

    @pytest.mark.parametrize("measure_every", [0, 15])
    def test_one_edge_per_gate_and_measured_qubit(self, monkeypatch,
                                                  measure_every):
        circuit = parse(clifford_t_text(7, 200, measure_every))
        built = 0
        new = Edge.__new__

        def counting(cls, *args):
            nonlocal built
            built += 1
            return new(cls, *args)
        monkeypatch.setattr(Edge, "__new__", counting)
        seen = []
        run(circuit, EngineConfig(seed=5),
            on_op=lambda uni, state, i: seen.append(uni))
        monkeypatch.undo()
        gates = sum(isinstance(op, GateOp) for op in circuit.ops)
        measured = sum(10 if isinstance(op, MeasureAllOp) else 1
                       for op in circuit.ops if not isinstance(op, GateOp))
        assert built <= gates + measured + 4
        assert seen[-1].cache.ops_count >= 10 * built


def _replay_walk(edges) -> int:
    """Distinct nodes below ``edges``, walked through the public view the
    way perfbench's replay walks the gate cache."""
    seen: set = set()
    stack = [e.node for e in edges]
    while stack:
        node = stack.pop()
        if node is TERMINAL or node in seen:
            continue
        seen.add(node)
        stack.extend(e.node for e in node.edges)
    return len(seen)


class TestPublicEdgeView:
    def test_exported_functions_return_edges(self):
        uni = Universe()
        ct = uni.ctab
        leaf = Edge(ct.one, TERMINAL)
        v = uni.build_vector([S, 0, 0, S])
        gate = build_gate_dd(uni, 2, GateSpec(GateKind.H, 0))
        results = [
            uni.make_node(leaf, uni.zero_edge),
            uni.make_node(uni.zero_edge, uni.zero_edge),
            uni.make_node(leaf, uni.zero_edge, uni.zero_edge, leaf),
            uni.basis_state(2, "01"), v,
            uni.build_matrix([[0, 1], [1, 0]]),
            kron(uni, leaf, v), add(uni, v, v),
            add(uni, v, Edge(ct.intern(-S), v.node)),
            multiply(uni, gate, v), multiply(uni, uni.zero_edge, v),
            measure_top(uni, v, random.Random(1))[1],
            measure_qubit(uni, v, 1, random.Random(2))[1],
            gate, identity_dd(uni, 2),
            gate_dd_for(uni, 2, GateSpec(GateKind.T, 1), {}),
            run(parse(BELL_MEASURE))[0],
        ]
        assert [type(e) for e in results] == [Edge] * len(results)

    def test_node_edges_view_the_table_key(self):
        unis = []
        run(gen_qft(5, "10110"), on_op=lambda uni, state, i: unis.append(uni))
        uni = unis[0]
        for spec in (GateSpec(GateKind.H, 2, frozenset({0, 4})),
                     GateSpec(GateKind.RK, 1, frozenset({3}), 3)):
            build_gate_dd(uni, 5, spec)
        uni.build_vector([0.5, 0, 0.5j, 0, 0, -0.5, 0, 0.5])
        assert uni.live_nodes > 0
        # an engine gate node's edges may skip heights, so its key is
        # (height, edges laid out flat); every other node's key is its
        # edges laid out flat
        kinds = set()
        for key, node in uni._table.items():
            assert all(type(e) is Edge for e in node.edges)
            view = flat_key(node)
            if type(key[0]) is int:
                kinds.add("gate")
                view = (node.height, view)
            else:
                kinds.add("full")
            assert view == key and hash(view) == hash(key)
            assert uni._table[view] is node
        assert kinds == {"gate", "full"}

    def test_every_node_stores_its_successors_flat(self):
        got = []
        run(parse("qubits 3\nh 0\ncx 0 1\nt 1\nh 2\n"),
            on_op=lambda uni, state, i: got.append((uni, state)))
        uni, state = got[-1]
        rng = np.random.default_rng(30)
        dense_m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = uni.build_matrix(dense_m.tolist())
        gate = build_gate_dd(uni, 3, GateSpec(GateKind.H, 1, frozenset({0})))
        # qubit 2 reads 0 or 1 with probability 1/2: the projection is built
        assert measure_qubit(uni, state, 2, random.Random(1))[1] != state
        kinds = set()
        for key, node in uni._table.items():
            kinds.add("gate" if type(key[0]) is int else "full")
            assert len(node.succ) in (4, 8)
            assert not any(isinstance(x, tuple) for x in node.succ)
            assert flat_key(node) == node.succ
        assert kinds == {"gate", "full"}
        # a full matrix node's mass is its sub-block's, all four quadrants
        dense_g = np.array([[uni.read_matrix_entry(gate, 3, r, c)
                             for c in range(8)] for r in range(8)])
        for e, block in ((m, dense_m), (gate, dense_g)):
            assert e.node.mass == pytest.approx(
                np.sum(np.abs(block) ** 2) / abs(e.w) ** 2, rel=1e-12)

    def test_replay_walk_counts_what_count_nodes_counts(self):
        uni = Universe()
        cache = {}
        rng = np.random.default_rng(29)
        for _ in range(30):
            spec = random_gate_spec(rng, 6)
            gate = gate_dd_for(uni, 6, spec, cache)
            assert _replay_walk([gate]) == count_nodes(gate)
        # the walk count_nodes makes, over the whole gate cache
        assert _replay_walk(cache.values()) == len(dd._reachable(
            cache.values()))

"""Acceptance suite. Each criterion prints one PASS/FAIL line; run with

    pytest tests/test_acceptance.py -v -s
"""

import json
import math
import time

import numpy as np
import pytest

import qdd.cli as cli
import qdd.dense as dense
from qdd import (EngineConfig, GateKind, GateSpec, Universe, build_gate_dd,
                 count_nodes, gen_entangle, gen_grover, gen_qft,
                 grover_iterations, identity_dd, kron, measure_top, multiply,
                 norm_squared, qubit_probabilities, run, sample)

from _util import assert_canonical, dd_to_array, dft_matrix, random_circuit

S = 1 / math.sqrt(2)


def report(num: int, ok: bool, detail: str = "") -> None:
    line = f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


class Forced:
    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def checked_run(circuit, config=None):
    """Run a circuit, checking canonical form and norm after every op.

    Returns (universe, final state, stats, per-op violations)."""
    violations = []
    captured = {}

    def observer(uni, state, index):
        captured["uni"] = uni
        try:
            assert_canonical(uni, state)
        except AssertionError as err:
            violations.append((circuit.name, index, str(err)))
        dev = abs(norm_squared(uni, state) - 1.0)
        if dev >= 1e-8:
            violations.append((circuit.name, index, f"norm deviation {dev:g}"))

    state, stats = run(circuit, config, on_op=observer)
    return captured["uni"], state, stats, violations


# Workloads for criteria 3-7 execute once (with per-op checking) and feed
# both their own criterion and the criterion-8 invariant sweep.

@pytest.fixture(scope="module")
def sweep_results():
    rng = np.random.default_rng(20260810)
    t0 = time.perf_counter()
    results = []
    for trial in range(100):
        n = int(rng.integers(2, 9))
        n_gates = int(rng.integers(5, 51))
        circuit = random_circuit(rng, n, n_gates, name=f"sweep-{trial}")
        uni, state, _, violations = checked_run(circuit)
        got = dd_to_array(uni, state, n)
        want = dense.run_circuit(circuit)
        results.append((float(np.max(np.abs(got - want))), violations))
    return results, time.perf_counter() - t0


@pytest.fixture(scope="module")
def qft_results():
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    errors = []
    violations = []
    for n in range(1, 11):
        for _ in range(5):
            bits = "".join(rng.choice(["0", "1"]) for _ in range(n))
            circuit = gen_qft(n, bits)
            uni, state, _, v = checked_run(circuit)
            got = dd_to_array(uni, state, n)
            want = dft_matrix(n)[:, int(bits, 2)]
            errors.append(float(np.max(np.abs(got - want))))
            violations += v
    return errors, violations, time.perf_counter() - t0


@pytest.fixture(scope="module")
def qft_scaling_results():
    rng = np.random.default_rng(7)
    rows = []
    violations = []
    for n in (8, 16, 24, 32, 40):
        bits = "".join(rng.choice(["0", "1"]) for _ in range(n))
        t0 = time.perf_counter()
        _, _, stats, v = checked_run(gen_qft(n, bits))
        rows.append((n, time.perf_counter() - t0, stats.peak_vector_nodes))
        violations += v
    return rows, violations


@pytest.fixture(scope="module")
def entangle_results():
    t0 = time.perf_counter()
    _, _, stats, violations = checked_run(gen_entangle(64))
    build_time = time.perf_counter() - t0
    shot_stats = sample(gen_entangle(64), EngineConfig(seed=20260810,
                                                       shots=10_000))
    return build_time, stats, shot_stats, violations


@pytest.fixture(scope="module")
def grover_results():
    marked10 = "1001110101"
    t0 = time.perf_counter()
    uni, state, _, violations = checked_run(gen_grover(10, marked10))
    p_marked = abs(uni.read_amplitude(state, 10, int(marked10, 2))) ** 2
    elapsed10 = time.perf_counter() - t0

    marked8 = "01101001"
    circuit8 = gen_grover(8, marked8)
    uni8, state8, _, v8 = checked_run(circuit8)
    got8 = dd_to_array(uni8, state8, 8)
    want8 = dense.run_circuit(circuit8)
    cross_err = float(np.max(np.abs(got8 - want8)))
    dense_p8 = abs(want8[int(marked8, 2)]) ** 2
    return (p_marked, elapsed10, cross_err, dense_p8, violations + v8)


def test_01_worked_examples():
    t0 = time.perf_counter()
    uni = Universe()
    cnot = build_gate_dd(uni, 2, GateSpec(GateKind.X, 1, frozenset({0})))
    got = dd_to_array(uni, multiply(uni, cnot, uni.basis_state(2, "11")), 2)
    err = np.max(np.abs(got - np.array([0, 0, 1, 0])))

    h1 = uni.build_matrix([[S, S], [S, -S]])
    i1 = identity_dd(uni, 1)
    h_kron_i = kron(uni, h1, i1)
    padded = build_gate_dd(uni, 2, GateSpec(GateKind.H, 0))
    assert h_kron_i == padded  # kron and padded construction coincide
    got2 = dd_to_array(uni, multiply(uni, h_kron_i, uni.basis_state(2, "00")), 2)
    err2 = np.max(np.abs(got2 - np.array([S, 0, S, 0])))
    elapsed = time.perf_counter() - t0
    report(1, bool(err <= 1e-12 and err2 <= 1e-12 and elapsed < 1.0),
           f"errors {err:.2e}/{err2:.2e}, {elapsed:.2f}s")


def test_02_measurement_example():
    t0 = time.perf_counter()
    uni = Universe()
    v = uni.build_vector([0, 0, 0.5, 0, 0.5, 0, -S, 0])
    p0, p1 = qubit_probabilities(uni, v)
    outcome, post = measure_top(uni, v, Forced(0.999))
    weight_err = abs(complex(post.w) - 1 / math.sqrt(3))
    elapsed = time.perf_counter() - t0
    ok = (abs(p0 - 0.25) <= 1e-12 and abs(p1 - 0.75) <= 1e-12
          and outcome == 1 and weight_err <= 1e-12 and elapsed < 1.0)
    report(2, bool(ok),
           f"P=({p0:.3f},{p1:.3f}), weight err {weight_err:.2e}, {elapsed:.2f}s")


def test_03_oracle_equivalence_sweep(sweep_results):
    results, elapsed = sweep_results
    worst = max(err for err, _ in results)
    ok = worst <= 1e-9 and elapsed < 60.0
    report(3, bool(ok), f"100 circuits, max |delta| {worst:.2e}, {elapsed:.1f}s")


def test_04_qft_correctness(qft_results):
    errors, _, elapsed = qft_results
    worst = max(errors)
    ok = worst <= 1e-9 and elapsed < 30.0
    report(4, bool(ok),
           f"n in [1,10] x5 inputs, max |delta| {worst:.2e}, {elapsed:.1f}s")


def test_05_qft_scaling(qft_scaling_results):
    rows, _ = qft_scaling_results
    ok = all(t < 10.0 and peak <= 4 * n for n, t, peak in rows)
    detail = ", ".join(f"n={n}:{t:.2f}s/{peak}nodes" for n, t, peak in rows)
    report(5, bool(ok), detail)


def test_06_entanglement_scaling(entangle_results):
    build_time, stats, shot_stats, _ = entangle_results
    freq0 = shot_stats.histogram.get("0" * 64, 0) / 10_000
    keys_ok = set(shot_stats.histogram) <= {"0" * 64, "1" * 64}
    ok = (build_time < 1.0 and stats.peak_vector_nodes <= 128
          and keys_ok and 0.48 <= freq0 <= 0.52)
    report(6, bool(ok),
           f"{build_time:.2f}s, peak {stats.peak_vector_nodes}, freq0 {freq0:.3f}")


def test_07_grover(grover_results):
    p_marked, elapsed10, cross_err, dense_p8, _ = grover_results
    assert grover_iterations(10) == 25
    ok = (p_marked >= 0.99 and elapsed10 < 120.0
          and cross_err <= 1e-9 and dense_p8 >= 0.99)
    report(7, bool(ok),
           f"P(marked)={p_marked:.4f}, {elapsed10:.1f}s, "
           f"n=8 cross err {cross_err:.2e}")


def test_08_normalization_invariants(sweep_results, qft_results,
                                     qft_scaling_results, entangle_results,
                                     grover_results):
    violations = []
    for _, v in sweep_results[0]:
        violations += v
    violations += qft_results[1]
    violations += qft_scaling_results[1]
    violations += entangle_results[3]
    violations += grover_results[4]
    report(8, not violations,
           f"{len(violations)} violations across criteria 3-7"
           + (f"; first: {violations[0]}" if violations else ""))


def test_09_worst_case_node_bound():
    rng = np.random.default_rng(99)
    counts = []
    for _ in range(10):
        uni = Universe()
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        counts.append(count_nodes(uni.build_vector(list(amps))))
    ok = all(c <= 15 for c in counts) and max(counts) == 15
    report(9, bool(ok), f"counts {sorted(set(counts))}, bound 15")


def test_10_cli_determinism(tmp_path, capsys):
    path = tmp_path / "bell.qc"
    path.write_text("qubits 2\nh 0\ncx 0 1\nmeasure 0\n", encoding="utf-8")
    reports = []
    for _ in range(2):
        code = cli.main(["run", str(path), "--seed", "9", "--shots", "500"])
        out = capsys.readouterr().out
        assert code == 0
        r = json.loads(out)
        r["stats"].pop("wall_time_ms")
        reports.append(r)
    same = reports[0] == reports[1]
    with capsys.disabled():
        report(10, same, "histogram and peak stats identical across runs")

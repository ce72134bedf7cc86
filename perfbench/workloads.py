"""The benchmark's workloads: seeded circuit generators and the oracle
checks that validate each workload's reference report.

Every workload is a small set of circuits drawn from the benchmark seed.
Several circuits per run average out how much the cost of one random
circuit depends on its draw, so two runs with different seeds measure the
same kind of work.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

import numpy as np

import qdd
import qdd.dense
from qdd import Circuit, GateKind, GateOp, GateSpec, MeasureAllOp, MeasureOp

NORM_TOL = 1e-8
AMP_TOL = 1e-8
QFT_AMPLITUDES = 64


@dataclass(frozen=True)
class Job:
    """One circuit file of a workload, with the flags it runs under."""

    circuit: Circuit
    seed: int
    shots: int
    index: int


def _cx(c: int, t: int) -> GateOp:
    return GateOp(GateSpec(GateKind.X, t, frozenset({c})))


def gen_clifford_t(rng: random.Random, n: int, n_gates: int,
                   name: str) -> Circuit:
    """Unstructured circuit: each gate is H (30%), T (20%) or CX (50%) on
    uniformly drawn qubits."""
    ops = []
    for _ in range(n_gates):
        r = rng.random()
        if r < 0.3:
            ops.append(GateOp(GateSpec(GateKind.H, rng.randrange(n))))
        elif r < 0.5:
            ops.append(GateOp(GateSpec(GateKind.T, rng.randrange(n))))
        else:
            ops.append(_cx(*rng.sample(range(n), 2)))
    return Circuit(n, tuple(ops), name)


def gen_syndrome(rng: random.Random, n_data: int, rounds: int,
                 name: str) -> Circuit:
    """Repetition-code syndrome extraction with mid-circuit measurement.

    Data qubits 0..n_data-1 start in a GHZ state; ancilla n_data+i holds
    the parity of data qubits i and i+1. Each round applies H to a drawn
    data qubit, extracts all parities and measures every ancilla; the
    circuit ends with measure_all. The rounds hit distinct data qubits:
    a repeated H undoes itself, and drawing with repeats made the table
    size of one circuit vary threefold between draws.
    """
    ops = [GateOp(GateSpec(GateKind.H, 0))]
    ops += [_cx(q, q + 1) for q in range(n_data - 1)]
    for target in rng.sample(range(n_data), rounds):
        ops.append(GateOp(GateSpec(GateKind.H, target)))
        for i in range(n_data - 1):
            ancilla = n_data + i
            ops += [_cx(i, ancilla), _cx(i + 1, ancilla), MeasureOp(ancilla)]
    ops.append(MeasureAllOp())
    return Circuit(2 * n_data - 1, tuple(ops), name)


def _qft(rng: random.Random, name: str) -> Circuit:
    bits = "".join(rng.choice("01") for _ in range(48))
    return qdd.Circuit(48, qdd.gen_qft(48, bits).ops, name)


# name -> (circuits per run, shots per circuit, generator(rng, name))
WORKLOADS = {
    "qft-48": (1, 1000, _qft),
    "clifford-t-10": (5, 100,
                      lambda rng, name: gen_clifford_t(rng, 10, 300, name)),
    "syndrome-23": (6, 50, lambda rng, name: gen_syndrome(rng, 12, 8, name)),
}


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The workload's circuits for ``seed``; the same seed gives the same
    circuits, engine seeds and shot counts."""
    count, shots, gen = WORKLOADS[workload]
    jobs = []
    for k in range(count):
        rng = random.Random(f"{workload}/{seed}/{k}")
        circuit = gen(rng, f"{workload}-s{seed}-{k}")
        jobs.append(Job(circuit, rng.randrange(1 << 31), shots, k))
    return jobs


def dense_state(circuit: Circuit) -> np.ndarray:
    """Final amplitudes from qdd.dense's own gate matrices, applied to the
    state tensor axis by axis.

    qdd.dense.run_circuit forms a 2^n x 2^n matrix per gate, about 6 s for
    300 gates on 10 qubits; this path takes milliseconds, so every circuit
    of a run can be checked. It is pinned to run_circuit once per run.
    """
    n = circuit.n_qubits
    psi = qdd.dense.zero_state(n).reshape((2,) * n)
    for op in circuit.ops:
        spec = op.spec
        u = qdd.dense.gate_matrix(spec.kind, spec.param)
        index = tuple(1 if q in spec.controls else slice(None)
                      for q in range(n))
        axis = spec.target - sum(c < spec.target for c in spec.controls)
        block = np.tensordot(u, psi[index], axes=([1], [axis]))
        psi[index] = np.moveaxis(block, 0, axis)
    return psi.reshape(-1)


def check_engine_run(workload: str, job: Job, state, stats: qdd.SimStats,
                     uni: qdd.Universe) -> dict:
    """Validate one direct ``qdd.run`` of the job against an oracle that
    shares none of the diagram code; returns what its reports must show.

    The result holds the stats every report must repeat (None when
    mid-circuit measurement makes the sampled run differ from one direct
    run) and, where the oracle knows it, the set of bitstrings with
    nonzero probability.
    """
    if stats.final_norm_deviation > NORM_TOL:
        raise AssertionError(
            f"norm deviation {stats.final_norm_deviation:g}")
    n = job.circuit.n_qubits
    expect = {"stats": None, "support": None}
    if workload == "qft-48":
        x = 0
        for op in job.circuit.ops:
            if op.spec.kind is GateKind.X and not op.spec.controls:
                x |= 1 << (n - 1 - op.spec.target)
        rng = random.Random(job.seed)
        # Amplitudes have magnitude 2^-24; compare them scaled to 1.
        scale = math.sqrt(2.0 ** n)
        for _ in range(QFT_AMPLITUDES):
            k = rng.randrange(1 << n)
            want = cmath.exp(2j * math.pi * ((x * k) % (1 << n)) / 2 ** n)
            got = uni.read_amplitude(state, n, k) * scale
            if abs(got - want) > AMP_TOL:
                raise AssertionError(
                    f"QFT amplitude {k}: {got} differs from the DFT {want}")
    elif workload == "clifford-t-10":
        want = dense_state(job.circuit)
        if job.index == 0:
            err = np.max(np.abs(want - qdd.dense.run_circuit(job.circuit)))
            if err > 1e-12:
                raise AssertionError(f"axis-wise oracle differs from "
                                     f"qdd.dense.run_circuit by {err:g}")
        err = np.max(np.abs(np.array(uni.read_dense(state, n)) - want))
        if err > AMP_TOL:
            raise AssertionError(f"state differs from the dense oracle "
                                 f"by {err:g}")
        expect["support"] = {format(i, f"0{n}b") for i, a in enumerate(want)
                             if abs(a) ** 2 > 1e-12}
    if not any(isinstance(op, MeasureOp) for op in job.circuit.ops):
        expect["stats"] = {
            "gates_applied": stats.gates_applied,
            "peak_vector_nodes": stats.peak_vector_nodes,
            "peak_unique_nodes": stats.peak_unique_nodes,
            "norm_deviation": stats.final_norm_deviation}
    return expect


def check_report(job: Job, report: dict, expect: dict) -> None:
    """Validate a report (CLI JSON layout) of the job against ``expect``."""
    hist = report["histogram"]
    n = job.circuit.n_qubits
    if sum(hist.values()) != job.shots:
        raise AssertionError(f"histogram sums to {sum(hist.values())}, "
                             f"not {job.shots} shots")
    if any(len(k) != n or set(k) - set("01") for k in hist):
        raise AssertionError("histogram key is not an n-bit string")
    if report["stats"]["norm_deviation"] > NORM_TOL:
        raise AssertionError(
            f"norm deviation {report['stats']['norm_deviation']:g}")
    for key, value in (expect["stats"] or {}).items():
        if report["stats"][key] != value:
            raise AssertionError(f"report {key}={report['stats'][key]!r} but "
                                 f"a direct engine run gives {value!r}")
    if expect["support"] is not None and set(hist) - expect["support"]:
        raise AssertionError("sampled a bitstring of zero probability")

"""Clifford circuits with mid-circuit measurements, too wide for the dense
oracle, checked in lockstep against a stabilizer tableau (tests/_tableau).

Before each measurement the diagram's P(1) for the measured qubit must be
0, 1/2 or 1: 1/2 exactly where the tableau says the outcome is random,
else the tableau's fixed outcome. The tableau then takes the outcome the
diagram drew, and after the last op every qubit's marginal must match.
"""

import random

import pytest

from qdd import (Circuit, EngineConfig, GateKind, GateOp, GateSpec,
                 MeasureOp, run)
from qdd.cvalue import magnitude_squared

from _tableau import Tableau

ONE_QUBIT = (GateKind.H, GateKind.S, GateKind.SDG, GateKind.X, GateKind.Y,
             GateKind.Z)


def _cx(c: int, t: int) -> GateOp:
    return GateOp(GateSpec(GateKind.X, t, frozenset({c})))


def syndrome_circuit(rng: random.Random, n_data: int, rounds: int) -> Circuit:
    """Repetition-code syndrome extraction, as perfbench's syndrome
    workload draws it: a GHZ state on the data qubits, then per round an
    H on a drawn data qubit and every neighbour parity measured into its
    ancilla (never reset)."""
    ops = [GateOp(GateSpec(GateKind.H, 0))]
    ops += [_cx(q, q + 1) for q in range(n_data - 1)]
    for target in rng.sample(range(n_data), rounds):
        ops.append(GateOp(GateSpec(GateKind.H, target)))
        for i in range(n_data - 1):
            ancilla = n_data + i
            ops += [_cx(i, ancilla), _cx(i + 1, ancilla), MeasureOp(ancilla)]
    return Circuit(2 * n_data - 1, tuple(ops), f"syndrome-{n_data}")


def random_clifford(rng: random.Random, n: int, n_ops: int) -> Circuit:
    """H/S/Sdg/X/Y/Z, CX and CZ on drawn qubits; after the first op, each
    op is a measurement of a drawn qubit with probability 1/20."""
    ops = [GateOp(GateSpec(GateKind.H, rng.randrange(n)))]
    while len(ops) < n_ops:
        r = rng.random()
        if r < 0.05:
            ops.append(MeasureOp(rng.randrange(n)))
        elif r < 0.6:
            ops.append(GateOp(GateSpec(rng.choice(ONE_QUBIT),
                                       rng.randrange(n))))
        else:
            c, t = rng.sample(range(n), 2)
            kind = rng.choice((GateKind.X, GateKind.Z))
            ops.append(GateOp(GateSpec(kind, t, frozenset({c}))))
    return Circuit(n, tuple(ops), f"clifford-{n}")


def marginals(uni, state, n: int) -> list[float]:
    """P(qubit q reads 1) for every q, from the squared path weights into
    each node: every nonzero path visits every height, so the nodes a
    level's mass sits on all carry qubit q."""
    w, root = state
    mass, ones = {root: magnitude_squared(w)}, []
    for _ in range(n):
        below, p1 = {}, 0.0
        for node, m in mass.items():
            for bit, (ew, child) in enumerate(node.edges):
                share = m * magnitude_squared(ew)
                if share:
                    below[child] = below.get(child, 0.0) + share
                    if bit:
                        p1 += share * child.mass
        mass = below
        ones.append(p1)
    return ones


def check_against(tab: Tableau, p1: float, q: int, where: str) -> None:
    fixed = tab.peek(q)
    want = 0.5 if fixed is None else float(fixed)
    assert abs(p1 - want) < 1e-12, (
        f"{where}: qubit {q} has P(1) = {p1!r}, the tableau says "
        + ("random" if fixed is None else f"fixed at {fixed}"))


def lockstep(circuit: Circuit, seed: int, tab: Tableau) -> int:
    """Run the circuit with ``tab`` following op by op; returns the number
    of measurements compared."""
    n, ops = circuit.n_qubits, circuit.ops
    measured = []

    def on_op(uni, state, i):
        op = ops[i]
        if isinstance(op, GateOp):
            tab.apply(op.spec)
        else:
            p1 = marginals(uni, state, n)[op.qubit]
            outcome = round(p1)
            assert abs(p1 - outcome) < 1e-12, f"op {i} left P(1) = {p1!r}"
            tab.measure(op.qubit, outcome)
            measured.append(i)
        if i + 1 < len(ops) and isinstance(ops[i + 1], MeasureOp):
            q = ops[i + 1].qubit
            check_against(tab, marginals(uni, state, n)[q], q,
                          f"before op {i + 1}")
        if i + 1 == len(ops):
            for q, p1 in enumerate(marginals(uni, state, n)):
                check_against(tab, p1, q, "at the end")

    assert not isinstance(ops[0], MeasureOp)
    run(circuit, EngineConfig(seed=seed), on_op=on_op)
    return len(measured)


@pytest.mark.parametrize("n_data,rounds", [(17, 4), (25, 5), (33, 6)])
def test_syndrome_circuits_match_tableau(n_data, rounds):
    rng = random.Random(f"syndrome/{n_data}")
    circuit = syndrome_circuit(rng, n_data, rounds)
    assert lockstep(circuit, rng.randrange(1 << 31), Tableau(
        circuit.n_qubits)) == rounds * (n_data - 1)


@pytest.mark.parametrize("n", [16, 24, 32])
@pytest.mark.parametrize("seed", range(3))
def test_random_clifford_circuits_match_tableau(n, seed):
    rng = random.Random(f"clifford/{n}/{seed}")
    circuit = random_clifford(rng, n, 300)
    assert lockstep(circuit, rng.randrange(1 << 31), Tableau(n)) > 0


def test_extra_tableau_gate_fails_the_comparison():
    # H on qubit 0 twice on the tableau side: the data stays in |0...0>
    # where the diagram holds a GHZ state
    circuit = syndrome_circuit(random.Random("syndrome/17"), 17, 4)
    tab = Tableau(circuit.n_qubits)
    tab.h(0)
    with pytest.raises(AssertionError, match="tableau says"):
        lockstep(circuit, 1, tab)

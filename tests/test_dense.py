import math

import numpy as np
import pytest

import qdd.dense as dense
from qdd import Circuit, GateKind, GateSpec, MeasureOp, gen_entangle

S = 1 / math.sqrt(2)

CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                dtype=complex)


def test_controlled_gate_cnot():
    got = dense.controlled_gate(2, GateSpec(GateKind.X, 1, frozenset({0})))
    assert np.array_equal(got, CNOT)


def test_controlled_gate_no_controls_is_kron_padding():
    h = dense.gate_matrix(GateKind.H)
    got = dense.controlled_gate(2, GateSpec(GateKind.H, 0))
    assert np.allclose(got, np.kron(h, np.eye(2)), atol=1e-15)


def test_toffoli_is_a_permutation():
    got = dense.controlled_gate(3, GateSpec(GateKind.X, 2, frozenset({0, 1})))
    want = np.eye(8)
    want[[6, 7]] = want[[7, 6]]
    assert np.array_equal(got, want)


def test_control_below_target():
    got = dense.controlled_gate(2, GateSpec(GateKind.X, 0, frozenset({1})))
    want = np.eye(4)
    want[[1, 3]] = want[[3, 1]]
    assert np.array_equal(got, want)


def test_run_circuit_bell():
    out = dense.run_circuit(gen_entangle(2))
    assert np.allclose(out, [S, 0, 0, S], atol=1e-15)


def test_run_circuit_rejects_measurement():
    c = Circuit(1, (MeasureOp(0),))
    with pytest.raises(ValueError):
        dense.run_circuit(c)


def test_run_circuit_preserves_norm():
    rng = np.random.default_rng(2)
    from _util import random_circuit
    c = random_circuit(rng, 6, 200)
    out = dense.run_circuit(c)
    assert abs(np.sum(np.abs(out) ** 2) - 1.0) < 1e-10


def test_qubit_cap():
    with pytest.raises(ValueError):
        dense.zero_state(13)


def test_gate_matrices_are_unitary():
    for kind in GateKind:
        param = {GateKind.PHASE: 0.7, GateKind.RK: 3}.get(kind)
        u = dense.gate_matrix(kind, param)
        assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-15)

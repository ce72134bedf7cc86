"""Brute-force reference simulator over explicit 2^n arrays.

This module exists so the diagram code can be checked against something
that shares none of its arithmetic: states are flat numpy vectors,
operators are full matrices, and the gate definitions below are written
out independently of the gate-lib (on purpose; agreement between the two
paths is evidence, not tautology). Capped at 12 qubits, which is all a
correctness oracle needs.
"""

from __future__ import annotations

import math

import numpy as np

from .circuit import Circuit, GateOp
from .gates import GateKind, GateSpec

MAX_QUBITS = 12


def _check_qubits(n: int) -> None:
    if not 0 < n <= MAX_QUBITS:
        raise ValueError(f"dense oracle handles 1..{MAX_QUBITS} qubits, got {n}")


def gate_matrix(kind: GateKind, param: float | int | None = None) -> np.ndarray:
    """2x2 matrix for a gate kind, defined from scratch."""
    s = 1.0 / math.sqrt(2.0)
    if kind is GateKind.X:
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if kind is GateKind.Y:
        return np.array([[0, -1j], [1j, 0]], dtype=complex)
    if kind is GateKind.Z:
        return np.array([[1, 0], [0, -1]], dtype=complex)
    if kind is GateKind.H:
        return np.array([[s, s], [s, -s]], dtype=complex)
    if kind is GateKind.S:
        return np.array([[1, 0], [0, 1j]], dtype=complex)
    if kind is GateKind.SDG:
        return np.array([[1, 0], [0, -1j]], dtype=complex)
    if kind is GateKind.T:
        return np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex)
    if kind is GateKind.TDG:
        return np.array([[1, 0], [0, np.exp(-1j * math.pi / 4)]], dtype=complex)
    if kind is GateKind.PHASE:
        return np.array([[1, 0], [0, np.exp(1j * param)]], dtype=complex)
    if kind is GateKind.RK:
        phase = math.ldexp(2 * math.pi, -param)  # 2**k overflows a float
        return np.array([[1, 0], [0, np.exp(1j * phase)]], dtype=complex)
    raise ValueError(f"unknown gate kind {kind!r}")


def zero_state(n: int) -> np.ndarray:
    _check_qubits(n)
    v = np.zeros(1 << n, dtype=complex)
    v[0] = 1.0
    return v


def basis_state(n: int, bits: str) -> np.ndarray:
    _check_qubits(n)
    v = np.zeros(1 << n, dtype=complex)
    v[int(bits, 2)] = 1.0
    return v


def apply(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix-vector product; the textbook sum over columns."""
    return np.asarray(m) @ np.asarray(v)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.kron(np.asarray(a), np.asarray(b))


def controlled_gate(n: int, spec: GateSpec) -> np.ndarray:
    """Full 2^n x 2^n matrix for a (multi-)controlled single-qubit gate.

    Qubit 0 is the most significant index bit. Columns whose control bits
    are not all 1 stay identity.
    """
    _check_qubits(n)
    if not 0 <= spec.target < n or any(not 0 <= c < n for c in spec.controls):
        raise ValueError(f"qubit index out of range for n={n}: {spec!r}")
    u = gate_matrix(spec.kind, spec.param)
    dim = 1 << n
    m = np.eye(dim, dtype=complex)
    tbit = 1 << (n - 1 - spec.target)
    cmask = 0
    for c in spec.controls:
        cmask |= 1 << (n - 1 - c)
    cols = np.arange(dim)
    active = cols[(cols & cmask) == cmask]
    b = (active & tbit).astype(bool).astype(int)
    lo = active & ~tbit
    hi = active | tbit
    m[:, active] = 0
    m[lo, active] = u[0, b]
    m[hi, active] = u[1, b]
    return m


def run_circuit(circuit: Circuit) -> np.ndarray:
    """Apply the circuit's gates one by one to |0...0>.

    Measurement operations are rejected; the oracle exists to pin down
    pre-measurement amplitudes.
    """
    _check_qubits(circuit.n_qubits)
    v = zero_state(circuit.n_qubits)
    for op in circuit.ops:
        if not isinstance(op, GateOp):
            raise ValueError(f"dense oracle cannot execute {op!r}")
        v = apply(controlled_gate(circuit.n_qubits, op.spec), v)
    return v


def measure_distribution(v: np.ndarray) -> dict[str, float]:
    """Map each basis state with nonzero amplitude to its probability."""
    v = np.asarray(v)
    n = int(v.size).bit_length() - 1
    probs = np.abs(v) ** 2
    return {format(i, f"0{n}b"): float(p) for i, p in enumerate(probs) if p > 0.0}

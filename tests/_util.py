"""Shared test helpers: random inputs, dense references, invariant checks."""

from __future__ import annotations

import gc

import numpy as np

from qdd import (Circuit, GateKind, GateOp, GateSpec, TERMINAL, Universe,
                 norm_squared)

FULL_GATE_SET = (GateKind.X, GateKind.Y, GateKind.Z, GateKind.H, GateKind.S,
                 GateKind.SDG, GateKind.T, GateKind.TDG, GateKind.PHASE,
                 GateKind.RK)


def random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return v / np.linalg.norm(v)


def random_gate_spec(rng: np.random.Generator, n: int) -> GateSpec:
    kind = FULL_GATE_SET[rng.integers(len(FULL_GATE_SET))]
    target = int(rng.integers(n))
    others = [q for q in range(n) if q != target]
    rng.shuffle(others)
    n_controls = int(rng.integers(0, min(3, len(others)) + 1))
    controls = frozenset(others[:n_controls])
    param = None
    if kind is GateKind.PHASE:
        param = float(rng.uniform(0, 2 * np.pi))
    elif kind is GateKind.RK:
        param = int(rng.integers(1, 9))
    return GateSpec(kind, target, controls, param)


def random_circuit(rng: np.random.Generator, n: int, n_gates: int,
                   name: str = "random") -> Circuit:
    ops = tuple(GateOp(random_gate_spec(rng, n)) for _ in range(n_gates))
    return Circuit(n, ops, name)


def dft_matrix(n: int) -> np.ndarray:
    dim = 1 << n
    jk = np.outer(np.arange(dim), np.arange(dim))
    return np.exp(2j * np.pi * jk / dim) / np.sqrt(dim)


def dd_to_array(uni: Universe, edge, n: int) -> np.ndarray:
    return np.array(uni.read_dense(edge, n))


def dd_matrix_to_array(uni: Universe, edge, n: int) -> np.ndarray:
    dim = 1 << n
    return np.array([[uni.read_matrix_entry(edge, n, r, c) for c in range(dim)]
                     for r in range(dim)])


def assert_canonical(uni: Universe, edge) -> None:
    """Every reachable node: first nonzero weight is the interned one,
    zero weights are stubs to the terminal, no all-zero nodes, heights
    strictly decrease."""
    one = uni.ctab.one
    zero = uni.ctab.zero
    seen = set()
    stack = [edge.node]
    while stack:
        node = stack.pop()
        if node is TERMINAL or node in seen:
            continue
        seen.add(node)
        nonzero = [e for e in node.edges if e.w is not zero]
        assert nonzero, f"all-zero node at height {node.height}"
        assert nonzero[0].w is one, \
            f"first nonzero weight at height {node.height} is {nonzero[0].w!r}"
        for e in node.edges:
            if e.w is zero:
                assert e.node is TERMINAL, "zero edge not stubbed"
            elif e.node is not TERMINAL:
                assert e.node.height < node.height, "height order violated"
                stack.append(e.node)


def flat_key(node) -> tuple:
    """A node's edges laid out flat, (w0, n0, w1, n1, ...): its
    unique-table key, read through the public Edge view."""
    return tuple(x for e in node.edges for x in e)


def assert_interned(uni: Universe, edge) -> None:
    """Every node reachable from ``edge`` is the one the unique table
    holds for its edges, so no two live nodes share a key."""
    seen = set()
    stack = [edge.node]
    while stack:
        node = stack.pop()
        if node is TERMINAL or node in seen:
            continue
        seen.add(node)
        assert uni._table.get(flat_key(node)) is node, \
            f"node at height {node.height} is not the table's node for its key"
        stack.extend(e.node for e in node.edges)


def assert_valid_state(uni: Universe, edge, tol: float = 1e-8) -> None:
    assert_canonical(uni, edge)
    assert abs(norm_squared(uni, edge) - 1.0) < tol


def cyclic_garbage(fn, *args) -> int:
    """Objects in reference cycles that one call fn(*args) leaves behind,
    after one warm-up call; the result is dropped before counting. The
    caller's collector state is restored."""
    enabled = gc.isenabled()
    fn(*args)
    gc.collect()
    gc.disable()
    try:
        fn(*args)
        return gc.collect()
    finally:
        if enabled:
            gc.enable()

"""Circuit execution: gate application, measurement, statistics.

One run owns one Universe (and therefore one complex table, one unique
table, one compute cache); concurrent simulations need disjoint engines.
The state starts as |0...0>, every gate goes through a diagram
multiplication, and the squared norm is checked against 1 after each one.
Node statistics are sampled at op boundaries, where they are
well-defined, so identical configs reproduce identical stats (modulo
wall time).

Diagrams are acyclic and the diagram code makes no reference cycles, so
reference counts free what a simulation drops and Universe.gc_collect
trims the tables. Python's cycle collector would find nothing, yet it
re-walks every live node as the tables grow, so run and sample pause it
(process-wide, as the single-owner contract allows) and restore the
caller's setting when they return or raise. They pause it as decorators,
so a return frees the universe their frame owns first.
"""

from __future__ import annotations

import gc
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from .circuit import Circuit, GateOp, MeasureOp
from .dd import Edge, Universe, count_nodes
from .gates import GateSpec, _gate_dd
from .ops import (NormDriftError, PROB_TOL, measure_all, measure_qubit,
                  multiply, norm_squared)


@dataclass(frozen=True)
class EngineConfig:
    seed: int = 0
    shots: int = 1
    gc_threshold: int = 1_000_000


@dataclass
class SimStats:
    gates_applied: int = 0
    peak_vector_nodes: int = 0
    peak_unique_nodes: int = 0
    wall_time_ms: float = 0.0
    final_norm_deviation: float = 0.0
    histogram: dict[str, int] = field(default_factory=dict)


def gate_dd_for(uni: Universe, n: int, spec: GateSpec, cache: dict) -> Edge:
    """The gate diagram the engine applies, one node per involved qubit,
    skipping the heights the gate does not touch (see qdd.gates), also
    recorded in ``cache[spec]``. It feeds qdd.ops.multiply only; add,
    kron and read_matrix_entry reject it and take build_gate_dd's."""
    edge = cache[spec] = Edge(*_gate_dd(uni, n, spec))
    return edge


class _Simulation:
    """One Universe and RNG, shared by every pass over the ops.

    Peak stats accumulate over all passes; ``gates_applied`` and the final
    norm deviation describe the latest pass.
    """

    def __init__(self, circuit: Circuit, config: EngineConfig):
        self.circuit = circuit
        self.config = config
        self.uni = Universe()
        self.rng = random.Random(config.seed)
        self.stats = SimStats()

    def _note_state(self) -> None:
        st = self.stats
        st.peak_vector_nodes = max(st.peak_vector_nodes,
                                   count_nodes(self.state))
        st.peak_unique_nodes = max(st.peak_unique_nodes, self.uni.live_nodes)

    def _apply(self, op, index: int) -> None:
        if isinstance(op, GateOp):
            gate = _gate_dd(self.uni, self.circuit.n_qubits, op.spec)
            self.state = multiply(self.uni, gate, self.state)
            self.stats.gates_applied += 1
            dev = abs(norm_squared(self.uni, self.state) - 1.0)
            if dev > PROB_TOL:
                raise NormDriftError(
                    f"norm drifted to deviation {dev:g} after op {index}"
                    f" ({op.spec.kind.name})", deviation=dev, op_index=index)
        else:
            qubits = ([op.qubit] if isinstance(op, MeasureOp)
                      else range(self.circuit.n_qubits))
            try:
                for q in qubits:
                    _, self.state = measure_qubit(self.uni, self.state, q,
                                                  self.rng)
            except NormDriftError as err:
                raise NormDriftError(f"{err} (op {index})",
                                     deviation=err.deviation,
                                     op_index=index) from None

    def _maybe_gc(self) -> None:
        if self.uni.live_nodes > self.config.gc_threshold:
            self.uni.gc_collect([self.state])

    def execute(self, on_op=None) -> Edge:
        """One pass over the circuit's ops, starting from |0...0>."""
        n = self.circuit.n_qubits
        self.state = self.uni.basis_state(n, "0" * n)
        self.stats.gates_applied = 0
        self._note_state()
        for index, op in enumerate(self.circuit.ops):
            self._apply(op, index)
            self._note_state()
            if on_op is not None:
                on_op(self.uni, self.state, index)
            self._maybe_gc()
        self.stats.final_norm_deviation = abs(
            norm_squared(self.uni, self.state) - 1.0)
        return self.state


@contextmanager
def _collector_paused():
    """gc.disable() until exit, then the caller's gc.isenabled() state.
    As a decorator, returning frees the frame that owns the universe
    first: after gc.enable(), the first allocation traverses every object
    allocated during the pause that still lives."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@_collector_paused()
def run(circuit: Circuit, config: EngineConfig | None = None,
        on_op=None) -> tuple[Edge, SimStats]:
    """Execute the circuit once; returns (final state, stats).

    Measurement ops collapse the state in place. ``on_op(uni, state, i)``
    is called after each op, for instrumentation.
    """
    cfg = config if config is not None else EngineConfig()
    t0 = time.perf_counter()
    sim = _Simulation(circuit, cfg)
    state, stats = sim.execute(on_op), sim.stats
    stats.wall_time_ms = (time.perf_counter() - t0) * 1e3
    return state, stats


@_collector_paused()
def sample(circuit: Circuit, config: EngineConfig | None = None) -> SimStats:
    """Run with ``config.shots`` repetitions; histogram over full-register
    bitstrings.

    When every measurement sits at the end of the circuit (or there is
    none), the gates are simulated once and the final state is sampled
    per shot; a mid-circuit measurement forces a full re-simulation per
    shot. Either way each shot contributes one n-bit key.
    """
    cfg = config if config is not None else EngineConfig()
    if cfg.shots < 1:
        raise ValueError(f"shots must be at least 1, got {cfg.shots}")
    t0 = time.perf_counter()
    gates = tuple(op for op in circuit.ops if isinstance(op, GateOp))
    # a gate follows a measurement exactly when the gates are not a prefix
    resimulate = any(op is not g for op, g in zip(circuit.ops, gates))
    if not resimulate:
        circuit = Circuit(circuit.n_qubits, gates, circuit.name)
    sim = _Simulation(circuit, cfg)
    histogram = sim.stats.histogram
    for shot in range(cfg.shots):
        if shot == 0 or resimulate:
            sim.execute()
        bits = measure_all(sim.uni, sim.state, sim.rng)
        histogram[bits] = histogram.get(bits, 0) + 1
    sim.stats.wall_time_ms = (time.perf_counter() - t0) * 1e3
    return sim.stats

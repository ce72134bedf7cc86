"""Circuit execution: gate application, measurement, statistics.

_execute runs one pass over the ops; its caller owns the Universe (one
complex table, one unique table, one compute cache), the RNG and the
stats, and concurrent simulations need disjoint universes. The state
starts as |0...0>, every gate goes through a diagram multiplication, and
the squared norm is checked against 1 after each one. Node statistics
are sampled at op boundaries, where they are well-defined, so identical
configs reproduce identical stats (modulo wall time).

The diagram operations recurse once per qubit level: run and sample
raise ValueError for a circuit at or over Python's recursion limit, on
entry (before any allocation) or when a RecursionError escapes. The
public recursions of qdd.ops raise RecursionError on taller diagrams.

Diagrams are acyclic and the diagram code makes no reference cycles, so
reference counts free what a simulation drops and Universe.gc_collect
trims the tables. Python's cycle collector would find nothing, yet it
re-walks every live node as the tables grow, so run and sample pause it
(process-wide, as the single-owner contract allows) and restore the
caller's setting when they return or raise. One decorator does both, so
a return frees the universe the decorated frame owns first.
"""

from __future__ import annotations

import functools
import gc
import random
import sys
import time
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


def _execute(uni: Universe, n: int, ops, rng: random.Random,
             stats: SimStats, gc_threshold: int, on_op=None) -> Edge:
    """One pass over ``ops`` from |0...0>; returns the final state.

    A pass resets ``stats.gates_applied`` and the final norm deviation;
    the peak stats accumulate over every pass that shares ``stats``, as
    the universe and the RNG stream carry over between passes.
    ``on_op(uni, state, i)`` is called after each op.
    """
    def note_peaks() -> None:
        # a count never exceeds its node's bound, abs(size): a state whose
        # bound is at most the peak cannot raise it, and goes uncounted
        if abs(state[1].size) > stats.peak_vector_nodes:
            stats.peak_vector_nodes = max(stats.peak_vector_nodes,
                                          count_nodes(state))
        stats.peak_unique_nodes = max(stats.peak_unique_nodes,
                                      uni.live_nodes)

    state = uni.basis_state(n, "0" * n)
    stats.gates_applied = 0
    note_peaks()
    for index, op in enumerate(ops):
        if isinstance(op, GateOp):
            state = multiply(uni, _gate_dd(uni, n, op.spec), state)
            stats.gates_applied += 1
            dev = abs(norm_squared(uni, state) - 1.0)
            if dev > PROB_TOL:
                raise NormDriftError(
                    f"norm drifted to deviation {dev:g} after op {index}"
                    f" ({op.spec.kind.name})", deviation=dev, op_index=index)
        else:
            qubits = [op.qubit] if isinstance(op, MeasureOp) else range(n)
            try:
                for q in qubits:
                    _, state = measure_qubit(uni, state, q, rng)
            except NormDriftError as err:
                raise NormDriftError(f"{err} (op {index})",
                                     deviation=err.deviation,
                                     op_index=index) from None
        note_peaks()
        if on_op is not None:
            on_op(uni, state, index)
        if uni.live_nodes > gc_threshold:
            uni.gc_collect([state])
    stats.final_norm_deviation = abs(norm_squared(uni, state) - 1.0)
    return state


_TOO_DEEP = ("{} qubits exceed the recursion depth of the diagram "
             "operations")


def _simulation(func):
    """The module docstring's qubit-count guard and collector pause, for
    a call whose first argument is the circuit. After gc.enable(), the
    first allocation traverses every live object allocated in the pause."""
    @functools.wraps(func)
    def guarded(circuit: Circuit, *args, **kwargs):
        n = circuit.n_qubits
        if n < sys.getrecursionlimit():
            was_enabled = gc.isenabled()
            gc.disable()
            try:
                return func(circuit, *args, **kwargs)
            except RecursionError:
                pass  # raised below, once the overflowed frames are gone
            finally:
                if was_enabled:
                    gc.enable()
        raise ValueError(_TOO_DEEP.format(n))
    return guarded


@_simulation
def run(circuit: Circuit, config: EngineConfig | None = None,
        on_op=None) -> tuple[Edge, SimStats]:
    """Execute the circuit once; returns (final state, stats).

    Measurement ops collapse the state in place. ``on_op(uni, state, i)``
    is called after each op, for instrumentation.
    """
    cfg = config if config is not None else EngineConfig()
    t0 = time.perf_counter()
    stats = SimStats()
    state = _execute(Universe(), circuit.n_qubits, circuit.ops,
                     random.Random(cfg.seed), stats, cfg.gc_threshold, on_op)
    stats.wall_time_ms = (time.perf_counter() - t0) * 1e3
    return state, stats


@_simulation
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
    ops = circuit.ops if resimulate else gates
    uni, rng, stats = Universe(), random.Random(cfg.seed), SimStats()
    for shot in range(cfg.shots):
        if shot == 0 or resimulate:
            state = _execute(uni, circuit.n_qubits, ops, rng, stats,
                             cfg.gc_threshold)
        bits = measure_all(uni, state, rng)
        stats.histogram[bits] = stats.histogram.get(bits, 0) + 1
    stats.wall_time_ms = (time.perf_counter() - t0) * 1e3
    return stats

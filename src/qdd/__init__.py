"""Quantum circuit simulation on edge-weighted decision diagrams."""

from .dd import Edge, TERMINAL, Universe, count_nodes, export_dot
from .ops import (NormDriftError, PROB_TOL, add, kron, measure_all,
                  measure_qubit, measure_top, multiply, norm_squared,
                  qubit_probabilities)
from .gates import GateKind, GateSpec, base2x2, build_gate_dd, identity_dd
from .circuit import (Circuit, GateOp, MeasureAllOp, MeasureOp,
                      ParseError, gen_entangle, gen_grover, gen_qft,
                      grover_iterations, parse, serialize)
from .engine import EngineConfig, SimStats, gate_dd_for, run, sample

__version__ = "0.1.0"

__all__ = [
    "Edge", "TERMINAL", "Universe", "count_nodes", "export_dot",
    "NormDriftError", "PROB_TOL", "add", "kron", "measure_all",
    "measure_qubit", "measure_top", "multiply", "norm_squared",
    "qubit_probabilities",
    "GateKind", "GateSpec", "base2x2", "build_gate_dd", "identity_dd",
    "Circuit", "GateOp", "MeasureAllOp", "MeasureOp",
    "ParseError", "gen_entangle", "gen_grover", "gen_qft",
    "grover_iterations", "parse", "serialize",
    "EngineConfig", "SimStats", "gate_dd_for", "run", "sample",
]

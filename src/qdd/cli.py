"""Command-line front-end: run circuit files, generated benchmarks, and
DOT renderings. Reports are a single JSON object on stdout.

Exit codes: 0 success, 2 unusable input or --stats-json path, a closed
stdout or out of memory, 3 norm drift.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from pathlib import Path

from . import __version__
from .circuit import Circuit, GateOp, ParseError, gen_entangle, gen_grover, \
    gen_qft, parse
from .dd import Universe, export_dot
from .engine import EngineConfig, SimStats, _TOO_DEEP, _execute, \
    _simulation, run, sample
from .gates import build_gate_dd
from .ops import NormDriftError

# a gate diagram has a node per qubit, so its DOT text grows with n
DOT_GATE_MAX_QUBITS = 10_000


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--shots", type=int, default=1,
                   help="number of sampled runs (default 1)")
    p.add_argument("--dump-state", action="store_true",
                   help="include final amplitudes (only for <= 20 qubits)")
    p.add_argument("--stats-json", metavar="PATH",
                   help="also write the report to this file")
    p.add_argument("--gc-threshold", type=int, default=1_000_000,
                   help="live-node count that triggers collection")


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="qdd",
                                description="decision-diagram circuit simulator")
    sub = p.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a circuit file")
    p_run.add_argument("file", help="circuit file path")
    _add_common_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_bench = sub.add_parser("bench", help="generate and run a benchmark")
    p_bench.add_argument("family", choices=("entangle", "qft", "grover"))
    p_bench.add_argument("n", type=int, help="qubit count")
    p_bench.add_argument("--input", metavar="BITS",
                         help="qft basis input (default: random from seed)")
    p_bench.add_argument("--marked", metavar="BITS",
                         help="grover marked element (default: all ones)")
    _add_common_flags(p_bench)
    p_bench.set_defaults(func=_cmd_bench)

    p_dot = sub.add_parser("dot", help="render a diagram as DOT")
    p_dot.add_argument("file", help="circuit file path")
    group = p_dot.add_mutually_exclusive_group()
    group.add_argument("--state", action="store_true",
                       help="render the final state (default)")
    group.add_argument("--gate", type=int, metavar="IDX",
                       help="render the diagram of the IDX-th gate op")
    p_dot.add_argument("--seed", type=int, default=0)
    p_dot.set_defaults(func=_cmd_dot)
    return p


def _config(args: argparse.Namespace) -> EngineConfig:
    return EngineConfig(seed=args.seed, shots=args.shots,
                        gc_threshold=args.gc_threshold)


def _load_circuit(path_str: str) -> Circuit:
    path = Path(path_str)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise ParseError(f"cannot read {path}: {err.strerror}", 0, 0) from None
    return parse(text, name=path.stem)


def _report(circuit: Circuit, cfg: EngineConfig, stats: SimStats) -> dict:
    return {
        "tool": "qdd",
        "version": __version__,
        "circuit": {
            "name": circuit.name,
            "qubits": circuit.n_qubits,
            "ops": len(circuit.ops),
        },
        "config": {"seed": cfg.seed, "shots": cfg.shots},
        "stats": {
            "gates_applied": stats.gates_applied,
            "peak_vector_nodes": stats.peak_vector_nodes,
            "peak_unique_nodes": stats.peak_unique_nodes,
            "wall_time_ms": stats.wall_time_ms,
            "norm_deviation": stats.final_norm_deviation,
        },
        "histogram": dict(sorted(stats.histogram.items())),
    }


def _emit(report: dict, args: argparse.Namespace) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.stats_json:
        try:
            Path(args.stats_json).write_text(text + "\n", encoding="utf-8")
        except OSError as err:
            raise ValueError(f"cannot write {args.stats_json}: "
                             f"{err.strerror}") from None
    print(text, flush=True)  # a closed pipe raises here, not at exit


def _run_and_report(circuit: Circuit, args: argparse.Namespace) -> int:
    cfg = _config(args)
    report = _report(circuit, cfg, sample(circuit, cfg))
    if args.dump_state and circuit.n_qubits <= 20:
        report["state"] = _dump_state(circuit, cfg)
    _emit(report, args)
    return 0


@_simulation
def _dump_state(circuit: Circuit, cfg: EngineConfig) -> list[list[float]]:
    uni, n = Universe(), circuit.n_qubits
    state = _execute(uni, n, circuit.ops, random.Random(cfg.seed),
                     SimStats(), cfg.gc_threshold)
    return [[a.real, a.imag] for a in uni.read_dense(state, n)]


def _cmd_run(args: argparse.Namespace) -> int:
    return _run_and_report(_load_circuit(args.file), args)


def _cmd_bench(args: argparse.Namespace) -> int:
    n = args.n
    if n < 1:
        raise ValueError(f"qubit count must be at least 1, got {n}")
    if n >= sys.getrecursionlimit():
        raise ValueError(_TOO_DEEP.format(n))  # before generating
    if args.family == "entangle":
        circuit = gen_entangle(n)
    elif args.family == "qft":
        bits = args.input
        if bits is None:
            bits = "".join(random.Random(args.seed).choice("01")
                           for _ in range(n))
        circuit = gen_qft(n, bits)
    else:
        marked = "1" * n if args.marked is None else args.marked
        circuit = gen_grover(n, marked)
    return _run_and_report(circuit, args)


def _cmd_dot(args: argparse.Namespace) -> int:
    circuit = _load_circuit(args.file)
    n = circuit.n_qubits
    if args.gate is None:
        edge, _ = run(circuit, EngineConfig(seed=args.seed))
    else:
        if n > DOT_GATE_MAX_QUBITS:
            raise ValueError(f"dot --gate renders at most "
                             f"{DOT_GATE_MAX_QUBITS} qubits, got {n}")
        gate_ops = [op for op in circuit.ops if isinstance(op, GateOp)]
        if not 0 <= args.gate < len(gate_ops):
            raise ValueError(f"gate index {args.gate} out of range "
                             f"({len(gate_ops)} gate ops)")
        edge = build_gate_dd(Universe(), n, gate_ops[args.gate].spec)
    print(export_dot(edge), flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the rest of the output goes nowhere, so the exit flush succeeds
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: cannot write the report: broken pipe", file=sys.stderr)
        return 2
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 2
    except NormDriftError as err:
        print(f"norm drift: {err}", file=sys.stderr)
        return 3
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

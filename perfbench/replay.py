"""Traced replay of ``qdd.sample``, built from the package's public calls.

The replay performs the same calls in the same order as the engine's
sample loop, with a span around each call into a layer. Spans are kept in
memory as (name, start, end, parent) tuples and written out by the caller
when the run ends. The replay must reproduce the engine's report exactly;
``check_against`` refuses layer times from a replay that drifted.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from qdd import (TERMINAL, Circuit, EngineConfig, GateOp, MeasureAllOp,
                 MeasureOp, NormDriftError, PROB_TOL, Universe, count_nodes,
                 gate_dd_for, measure_all, measure_qubit, multiply,
                 norm_squared)

ROOT = "engine.sample"
LAYERS = ("gates", "ops.multiply", "engine.norm", "engine.stats",
          "ops.measure", "ops.sample", "engine.gc", "dd.basis")


class Tracer:
    """Flat span recorder; a span's parent is the span open around it."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self._open: list[int] = []

    def begin(self, name: str) -> None:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.spans.append((name, time.perf_counter(), 0.0, parent))

    def end(self) -> None:
        i = self._open.pop()
        name, start, _, parent = self.spans[i]
        self.spans[i] = (name, start, time.perf_counter(), parent)

    def call(self, name: str, fn, *args):
        parent = self._open[-1] if self._open else -1
        t0 = time.perf_counter()
        result = fn(*args)
        self.spans.append((name, t0, time.perf_counter(), parent))
        return result

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus time covered by children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def total(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans
                   if parent < 0)


@dataclass
class Replay:
    """Outcome and counters of one replayed sample."""

    histogram: dict[str, int] = field(default_factory=dict)
    gates_applied: int = 0
    peak_vector_nodes: int = 0
    peak_unique_nodes: int = 0
    norm_deviation: float = 0.0
    gate_calls: int = 0
    gate_builds: int = 0
    gate_nodes: int = 0
    measure_calls: int = 0
    gc_runs: int = 0
    gc_freed: int = 0
    memo_entries_added: int = 0
    recursions: int = 0
    cache_entries: int = 0
    prob_cache_entries: int = 0
    complex_entries: int = 0
    # (ops_count, live_nodes) after each op of the first shot
    first_shot: list[tuple[int, int]] = field(default_factory=list)


def _trailing_split(circuit: Circuit) -> int | None:
    """Where the engine splits off trailing measurements (see qdd.sample)."""
    first = None
    for i, op in enumerate(circuit.ops):
        if isinstance(op, (MeasureOp, MeasureAllOp)):
            if first is None:
                first = i
        elif first is not None:
            return None
    return first if first is not None else len(circuit.ops)


def _distinct_nodes(edges) -> int:
    seen: set = set()
    stack = [e.node for e in edges]
    while stack:
        node = stack.pop()
        if node is TERMINAL or node in seen:
            continue
        seen.add(node)
        stack.extend(e.node for e in node.edges)
    return len(seen)


def replay(circuit: Circuit, seed: int, shots: int, tr: Tracer) -> Replay:
    """Run ``qdd.sample(circuit, EngineConfig(seed, shots))`` step by step."""
    out = Replay()
    uni = Universe()
    rng = random.Random(seed)
    gate_cache: dict = {}
    n = circuit.n_qubits
    split = _trailing_split(circuit)
    ops = circuit.ops if split is None else circuit.ops[:split]
    sims = shots if split is None else 1
    gc_threshold = EngineConfig().gc_threshold

    def note(state) -> None:
        vec = tr.call("engine.stats", count_nodes, state)
        live = tr.call("engine.stats", lambda: uni.live_nodes)
        out.peak_vector_nodes = max(out.peak_vector_nodes, vec)
        out.peak_unique_nodes = max(out.peak_unique_nodes, live)

    def maybe_gc(state) -> None:
        tr.begin("engine.gc")
        if uni.live_nodes > gc_threshold:
            out.gc_runs += 1
            out.memo_entries_added += len(uni.cache.mult) + len(uni.cache.add)
            out.gc_freed += uni.gc_collect([state, *gate_cache.values()])
        tr.end()

    def simulate(first: bool):
        state = tr.call("dd.basis", uni.basis_state, n, "0" * n)
        note(state)
        for index, op in enumerate(ops):
            if isinstance(op, GateOp):
                out.gate_calls += 1
                out.gate_builds += op.spec not in gate_cache
                gate = tr.call("gates", gate_dd_for, uni, n, op.spec,
                               gate_cache)
                state = tr.call("ops.multiply", multiply, uni, gate, state)
                out.gates_applied += first
                dev = abs(tr.call("engine.norm", norm_squared, uni, state)
                          - 1.0)
                if dev > PROB_TOL:
                    raise NormDriftError(f"replay drifted by {dev:g} after "
                                         f"op {index}", dev, index)
            else:
                qubits = [op.qubit] if isinstance(op, MeasureOp) else range(n)
                out.measure_calls += len(qubits)
                for q in qubits:
                    _, state = tr.call("ops.measure", measure_qubit, uni,
                                       state, q, rng)
            note(state)
            if first:
                out.first_shot.append((uni.cache.ops_count, uni.live_nodes))
            maybe_gc(state)
        out.norm_deviation = abs(
            tr.call("engine.norm", norm_squared, uni, state) - 1.0)
        return state

    tr.begin(ROOT)
    state = None
    for shot in range(shots):
        if shot < sims:
            state = simulate(first=shot == 0)
        out.measure_calls += 1
        bits = tr.call("ops.sample", measure_all, uni, state, rng)
        out.histogram[bits] = out.histogram.get(bits, 0) + 1
    tr.end()

    cache = uni.cache
    out.recursions = cache.ops_count
    out.cache_entries = len(cache.mult) + len(cache.add)
    out.memo_entries_added += out.cache_entries
    out.prob_cache_entries = len(cache.prob)
    out.complex_entries = len(uni.ctab)
    out.gate_nodes = _distinct_nodes(gate_cache.values())
    return out


def check_against(rep: Replay, report: dict,
                  engine_first_shot: list[tuple[int, int]]) -> None:
    """Fail loudly unless the replay reproduced the engine.

    ``report`` is the untraced report of the same circuit and seed;
    ``engine_first_shot`` holds the real engine's (ops_count, live_nodes)
    after each op of one ``qdd.run``, seen through its ``on_op`` hook.
    """
    stats = report["stats"]
    mismatches = []
    if rep.histogram != report["histogram"]:
        mismatches.append("histogram")
    for key in ("gates_applied", "peak_vector_nodes", "peak_unique_nodes",
                "norm_deviation"):
        if getattr(rep, key) != stats[key]:
            mismatches.append(f"{key} {getattr(rep, key)} != {stats[key]}")
    if rep.first_shot != engine_first_shot:
        mismatches.append("per-op counters of the first shot")
    if mismatches:
        raise AssertionError("replay differs from the engine: "
                             + "; ".join(mismatches))


def dominant(tr: Tracer) -> dict:
    """The layer with the largest share of traced time, and every share."""
    selfs = tr.self_times()
    total = tr.total()
    shares = sorted(((selfs.get(name, 0.0) / total, name) for name in LAYERS),
                    reverse=True)
    return {"layer": shares[0][1],
            "shares": {name: round(share, 4) for share, name in shares}}

"""Circuit IR, the line-oriented text format, and benchmark generators.

File format (UTF-8, '#' starts a comment, blank lines ignored):

    qubits <N>                         header, required first
    x|y|z|h|s|sdg|t|tdg <q>            single-qubit gates
    p <theta-radians> <q>              phase gate diag(1, e^{i*theta})
    rk <k> <q>                         diag(1, e^{2*pi*i/2^k})
    cx <c> <t>                         controlled X
    cp <k> <c> <t>                     controlled rk
    mcx <c1> .. <cm> <t>               multi-controlled X
    mcz <c1> .. <cm> <t>               multi-controlled Z
    measure <q>
    measure_all

Qubit 0 is the most significant qubit of a basis-state index.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .dd import _check_bits, _qubit_index
from .gates import _FIXED, GateKind, GateSpec


@dataclass(frozen=True)
class GateOp:
    spec: GateSpec


@dataclass(frozen=True)
class MeasureOp:
    qubit: int

    def __post_init__(self):
        object.__setattr__(self, "qubit", _qubit_index(self.qubit))


@dataclass(frozen=True)
class MeasureAllOp:
    pass


CircuitOp = GateOp | MeasureOp | MeasureAllOp


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    ops: tuple[CircuitOp, ...] = ()
    name: str = "circuit"

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        object.__setattr__(self, "n_qubits",
                           _qubit_index(self.n_qubits, "count"))
        if self.n_qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        for op in self.ops:
            if isinstance(op, GateOp) and isinstance(op.spec, GateSpec):
                refs = {op.spec.target, *op.spec.controls}
            elif isinstance(op, MeasureOp):
                refs = {op.qubit}
            elif isinstance(op, MeasureAllOp):
                refs = set()
            else:
                raise ValueError(f"not a circuit op: {op!r}")
            bad = [q for q in refs if not 0 <= q < self.n_qubits]
            if bad:
                raise ValueError(f"qubit index {bad[0]} out of range "
                                 f"for {self.n_qubits} qubits")


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


def _num_tok(tok: str, line: int, col: int, what: str, convert=int):
    """``convert(tok)`` for an ASCII token without '_': int() and float()
    also read digit separators and non-ASCII digits."""
    try:
        if tok.isascii() and "_" not in tok:
            return convert(tok)
    except ValueError:
        pass
    raise ParseError(f"expected {what}, got {tok!r}", line, col)


# Gate word -> (kind, parameter's (description, converter) or None,
# control count: 0, 1 or None for one or more). Arguments are the
# parameter (GateSpec judges it), then the controls, then the target.
# serialize writes a gate with the first word that fits, so "cx" before
# "mcx", and converts its parameter too: a numpy angle's repr won't parse.
_GATES = {
    **{k.value: (k, None, 0) for k in _FIXED},
    "p": (GateKind.PHASE, ("an angle", float), 0),
    "rk": (GateKind.RK, ("an integer k", int), 0),
    "cx": (GateKind.X, None, 1),
    "cp": (GateKind.RK, ("an integer k", int), 1),
    "mcx": (GateKind.X, None, None),
    "mcz": (GateKind.Z, None, None),
}


def parse(text: str, name: str = "circuit") -> Circuit:
    """Parse the text format above into a Circuit."""
    n_qubits: int | None = None
    ops: list[CircuitOp] = []
    last_line = 0

    def qubit(tok: str, line: int, col: int) -> int:
        q = _num_tok(tok, line, col, "a qubit index")
        if not 0 <= q < n_qubits:
            raise ParseError(f"qubit {q} out of range for {n_qubits} qubits",
                             line, col)
        return q

    for lineno, raw in enumerate(text.splitlines(), start=1):
        last_line = lineno
        toks = [(m.group(0), m.start() + 1)
                for m in re.finditer(r"\S+", raw.split("#", 1)[0])]
        if not toks:
            continue
        (word, col), args = toks[0], toks[1:]

        if n_qubits is None:
            if word != "qubits":
                raise ParseError("expected 'qubits <N>' header", lineno, col)
            if len(args) != 1:
                raise ParseError("'qubits' takes one count", lineno, col)
            n_qubits = _num_tok(args[0][0], lineno, args[0][1], "a qubit count")
            if n_qubits < 1:
                raise ParseError("qubit count must be positive",
                                 lineno, args[0][1])
            continue

        def need(count: int):
            if len(args) != count:
                raise ParseError(
                    f"'{word}' takes {count} argument{'s' if count != 1 else ''},"
                    f" got {len(args)}", lineno, col)

        if word == "qubits":
            raise ParseError("duplicate 'qubits' header", lineno, col)
        elif word == "measure":
            need(1)
            ops.append(MeasureOp(qubit(args[0][0], lineno, args[0][1])))
        elif word == "measure_all":
            need(0)
            ops.append(MeasureAllOp())
        elif word not in _GATES:
            raise ParseError(f"unknown instruction {word!r}", lineno, col)
        else:
            kind, param_rule, n_controls = _GATES[word]
            if n_controls is None:
                if len(args) < 2:
                    raise ParseError(f"'{word}' needs at least one control and"
                                     " a target", lineno, col)
            else:
                need((param_rule is not None) + n_controls + 1)
            param = None
            if param_rule is not None:
                param = _num_tok(args[0][0], lineno, args[0][1], *param_rule)
                args = args[1:]
            qs = [qubit(tok, lineno, c) for tok, c in args]
            if len(set(qs)) != len(qs):
                raise ParseError("repeated qubit in gate", lineno, col)
            try:  # with its qubits checked, only a parameter can fail here
                spec = GateSpec(kind, qs[-1], frozenset(qs[:-1]), param)
            except ValueError as err:
                raise ParseError(str(err), lineno, toks[1][1]) from None
            ops.append(GateOp(spec))

    if n_qubits is None:
        raise ParseError("missing 'qubits <N>' header", last_line + 1, 1)
    return Circuit(n_qubits, tuple(ops), name)


def serialize(circuit: Circuit) -> str:
    """Inverse of parse for circuits expressible in the text format."""
    lines = [f"qubits {circuit.n_qubits}"]
    for op in circuit.ops:
        if isinstance(op, MeasureOp):
            lines.append(f"measure {op.qubit}")
        elif isinstance(op, MeasureAllOp):
            lines.append("measure_all")
        else:
            spec = op.spec
            cs = sorted(spec.controls)
            for word, (kind, param_rule, n_controls) in _GATES.items():
                if kind is spec.kind and (
                        bool(cs) if n_controls is None
                        else len(cs) == n_controls):
                    break
            else:
                raise ValueError(f"no text form for {spec!r}")
            param = [] if param_rule is None else [
                repr(param_rule[1](spec.param))]
            lines.append(" ".join([word, *param, *map(str, cs),
                                   str(spec.target)]))
    return "\n".join(lines) + "\n"


# -- benchmark families ------------------------------------------------------

def gen_entangle(n: int) -> Circuit:
    """H then a CNOT chain: final state (|0...0> + |1...1>)/sqrt(2)."""
    n = _qubit_index(n, "count")
    ops: list[CircuitOp] = [GateOp(GateSpec(GateKind.H, 0))]
    for q in range(n - 1):
        ops.append(GateOp(GateSpec(GateKind.X, q + 1, frozenset({q}))))
    return Circuit(n, tuple(ops), f"entangle-{n}")


def gen_qft(n: int, bits: str) -> Circuit:
    """Fourier transform of the basis state |bits>.

    X-prep, then per target the H plus controlled-rk ladder (control on
    the less significant qubit, k = distance + 1), then qubit-reversal
    swaps spelled as CNOT triples so the output matches the DFT matrix
    column directly.
    """
    _check_bits(n, bits)
    ops: list[CircuitOp] = []
    for q, b in enumerate(bits):
        if b == "1":
            ops.append(GateOp(GateSpec(GateKind.X, q)))
    for t in range(n):
        ops.append(GateOp(GateSpec(GateKind.H, t)))
        for c in range(t + 1, n):
            ops.append(GateOp(GateSpec(GateKind.RK, t, frozenset({c}),
                                       param=c - t + 1)))
    for a in range(n // 2):
        b = n - 1 - a
        for c, t in ((a, b), (b, a), (a, b)):
            ops.append(GateOp(GateSpec(GateKind.X, t, frozenset({c}))))
    return Circuit(n, tuple(ops), f"qft-{n}")


def grover_iterations(n: int) -> int:
    """floor(pi/4 * sqrt(2^n)) rounds; 0 for the degenerate n=1 case."""
    if n < 2:
        return 0
    return math.floor(math.pi / 4 * math.sqrt(2 ** n))


def gen_grover(n: int, marked: str) -> Circuit:
    """Amplitude amplification of |marked> with a phase oracle.

    Oracle: X-conjugated multi-controlled Z matching the marked pattern;
    diffusion: H layer, X layer, multi-controlled Z, X layer, H layer.
    No ancilla qubits.
    """
    _check_bits(n, marked)
    h = [GateOp(GateSpec(GateKind.H, q)) for q in range(n)]
    x = [GateOp(GateSpec(GateKind.X, q)) for q in range(n)]
    flip = [op for op, b in zip(x, marked) if b == "0"]
    mcz = [GateOp(GateSpec(GateKind.Z, n - 1, frozenset(range(n - 1))))]
    # oracle: phase flip on |marked>; diffusion: inversion about the mean
    step = flip + mcz + flip + h + x + mcz + x + h
    return Circuit(n, tuple(h + step * grover_iterations(n)), f"grover-{n}")

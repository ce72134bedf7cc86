import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdd.dense as dense
from qdd import (Circuit, GateKind, GateOp, GateSpec, MeasureAllOp, MeasureOp,
                 ParseError, Universe, gen_entangle, gen_grover, gen_qft,
                 grover_iterations, parse, serialize)

from _util import dft_matrix

S = 1 / math.sqrt(2)


class TestParse:
    def test_basic_circuit(self):
        c = parse("qubits 2\nh 0\ncx 0 1\nmeasure 0\n")
        assert c.n_qubits == 2
        assert c.ops == (
            GateOp(GateSpec(GateKind.H, 0)),
            GateOp(GateSpec(GateKind.X, 1, frozenset({0}))),
            MeasureOp(0),
        )

    def test_empty_circuit(self):
        c = parse("qubits 1\n")
        assert c.n_qubits == 1 and c.ops == ()

    def test_comments_and_blank_lines(self):
        c = parse("# a comment\n\nqubits 3  # trailing\n\nx 2 # flip\n")
        assert c.ops == (GateOp(GateSpec(GateKind.X, 2)),)

    def test_all_mnemonics(self):
        text = ("qubits 4\n" "x 0\ny 1\nz 2\nh 3\ns 0\nsdg 1\nt 2\ntdg 3\n"
                "p 1.5 0\nrk 3 1\ncx 0 1\ncp 2 1 2\nmcx 0 1 3\nmcz 0 1 2 3\n"
                "measure 2\nmeasure_all\n")
        c = parse(text)
        assert len(c.ops) == 16
        assert c.ops[8].spec.param == 1.5
        assert c.ops[12].spec == GateSpec(GateKind.X, 3, frozenset({0, 1}))
        assert c.ops[13].spec == GateSpec(GateKind.Z, 3, frozenset({0, 1, 2}))
        assert isinstance(c.ops[15], MeasureAllOp)

    def test_index_out_of_range(self):
        with pytest.raises(ParseError) as err:
            parse("qubits 2\ncx 0 5\n")
        assert err.value.line == 2
        assert "out of range" in str(err.value)

    def test_unknown_mnemonic(self):
        with pytest.raises(ParseError, match="unknown instruction"):
            parse("qubits 1\nfoo 0\n")

    def test_arity_mismatch(self):
        with pytest.raises(ParseError, match="argument"):
            parse("qubits 2\nh 0 1\n")
        with pytest.raises(ParseError):
            parse("qubits 2\ncp 2 0\n")

    def test_missing_header(self):
        with pytest.raises(ParseError, match="header"):
            parse("h 0\n")
        with pytest.raises(ParseError, match="header"):
            parse("")

    def test_duplicate_header(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse("qubits 2\nqubits 3\n")

    def test_repeated_qubit_in_mc_gate(self):
        with pytest.raises(ParseError, match="repeated"):
            parse("qubits 3\nmcx 0 0 1\n")
        with pytest.raises(ParseError, match="repeated"):
            parse("qubits 3\ncx 1 1\n")
        with pytest.raises(ParseError, match="repeated"):
            parse("qubits 3\ncp 2 0 0\n")

    def test_bad_rk_order(self):
        with pytest.raises(ParseError, match=">= 1"):
            parse("qubits 2\nrk 0 1\n")
        with pytest.raises(ParseError, match=">= 1"):
            parse("qubits 2\ncp -3 0 1\n")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse("qubits 2\nx two\n")
        assert (err.value.line, err.value.col) == (2, 3)

    @pytest.mark.parametrize("text, message", [
        ("qubits 0\n", "line 1, column 8: qubit count must be positive"),
        ("qubits 2 3\n", "line 1, column 1: 'qubits' takes one count"),
        ("qubits 2\np abc 0\n",
         "line 2, column 3: expected an angle, got 'abc'"),
        ("qubits 2\nmcx 1\n",
         "line 2, column 1: 'mcx' needs at least one control and a target"),
        ("qubits two\n",
         "line 1, column 8: expected a qubit count, got 'two'"),
        ("qubits 2\nx 0.5\n",
         "line 2, column 3: expected a qubit index, got '0.5'"),
        ("qubits 2\ncp 1.5 0 1\n",
         "line 2, column 4: expected an integer k, got '1.5'"),
        # int() and float() read these as 10, 3 and 5.0
        ("qubits 1_0\n",
         "line 1, column 8: expected a qubit count, got '1_0'"),
        ("qubits 4\nx \uff13\n",
         "line 2, column 3: expected a qubit index, got '\uff13'"),
        ("qubits 2\np 0_5 1\n",
         "line 2, column 3: expected an angle, got '0_5'"),
    ], ids=["no-qubits", "two-counts", "bad-angle", "no-control",
            "bad-count", "bad-qubit", "bad-rk-order", "underscore-count",
            "full-width-qubit", "underscore-angle"])
    def test_malformed_word_message(self, text, message):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("text, kind, param, col", [
        ("qubits 2\nrk 0 1\n", GateKind.RK, 0, 4),
        ("qubits 2\ncp -3 0 1\n", GateKind.RK, -3, 4),
        ("qubits 1\np inf 0\n", GateKind.PHASE, math.inf, 3),
    ], ids=["rk-0", "cp-negative", "p-inf"])
    def test_parameter_error_is_gate_specs(self, text, kind, param, col):
        with pytest.raises(ValueError) as want:
            GateSpec(kind, 0, param=param)
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == f"line 2, column {col}: {want.value}"

    def test_bad_qubit_reported_before_bad_parameter(self):
        with pytest.raises(ParseError) as err:
            parse("qubits 2\nrk 0 5\n")
        assert str(err.value) == \
            "line 2, column 6: qubit 5 out of range for 2 qubits"

    def test_non_finite_angle(self):
        for tok in ("nan", "inf", "-inf", "1e999"):
            with pytest.raises(ParseError, match="finite") as err:
                parse(f"qubits 1\np {tok} 0\n")
            assert (err.value.line, err.value.col) == (2, 3)


class TestSerialize:
    def test_roundtrip_by_hand(self):
        text = "qubits 3\nh 0\ncp 2 1 0\nmcz 0 1 2\nmeasure_all\n"
        assert serialize(parse(text)) == text

    def test_every_word_as_text(self):
        ops = [GateOp(GateSpec(kind, i % 4)) for i, kind in enumerate(
            (GateKind.X, GateKind.Y, GateKind.Z, GateKind.H, GateKind.S,
             GateKind.SDG, GateKind.T, GateKind.TDG))]
        ops += [
            GateOp(GateSpec(GateKind.PHASE, 1, param=0.1 + 0.2)),
            GateOp(GateSpec(GateKind.RK, 2, param=3)),
            GateOp(GateSpec(GateKind.X, 1, frozenset({3}))),
            GateOp(GateSpec(GateKind.X, 2, frozenset({3, 0}))),
            GateOp(GateSpec(GateKind.RK, 0, frozenset({2}), param=4)),
            GateOp(GateSpec(GateKind.Z, 3, frozenset({1}))),
            GateOp(GateSpec(GateKind.Z, 0, frozenset({3, 1, 2}))),
            MeasureOp(2),
            MeasureAllOp(),
        ]
        text = ("qubits 4\nx 0\ny 1\nz 2\nh 3\ns 0\nsdg 1\nt 2\ntdg 3\n"
                "p 0.30000000000000004 1\nrk 3 2\ncx 3 1\nmcx 0 3 2\n"
                "cp 4 2 0\nmcz 1 3\nmcz 1 2 3 0\nmeasure 2\nmeasure_all\n")
        circuit = Circuit(4, ops)
        assert serialize(circuit) == text
        assert parse(text) == circuit

    @pytest.mark.parametrize("kind, param, word", [
        (GateKind.PHASE, np.float64(0.5), "p 0.5"),
        (GateKind.PHASE, np.float32(0.1), "p 0.10000000149011612"),
        (GateKind.PHASE, 1, "p 1.0"),
        (GateKind.PHASE, 0.1 + 0.2, "p 0.30000000000000004"),
        (GateKind.RK, np.int64(3), "rk 3")])
    def test_numeric_params_roundtrip(self, kind, param, word):
        # an angle is written as a float, whatever number type it came as
        circuit = Circuit(1, (GateOp(GateSpec(kind, 0, param=param)),))
        text = serialize(circuit)
        assert text == f"qubits 1\n{word} 0\n"
        assert parse(text) == circuit

    def test_unserializable_spec_rejected(self):
        for spec in (GateSpec(GateKind.H, 0, frozenset({1})),
                     GateSpec(GateKind.RK, 0, frozenset({1, 2}), param=2),
                     GateSpec(GateKind.PHASE, 0, frozenset({1}), param=0.5)):
            with pytest.raises(ValueError, match="no text form"):
                serialize(Circuit(3, (GateOp(spec),)))

    @settings(max_examples=60)
    @given(data=st.data())
    def test_parse_serialize_roundtrip(self, data):
        n = data.draw(st.integers(1, 6))
        ops = []
        for _ in range(data.draw(st.integers(0, 12))):
            choice = data.draw(st.integers(0, 6))
            q = data.draw(st.integers(0, n - 1))
            if choice == 0:
                kind = data.draw(st.sampled_from(
                    [GateKind.X, GateKind.Y, GateKind.Z, GateKind.H,
                     GateKind.S, GateKind.SDG, GateKind.T, GateKind.TDG]))
                ops.append(GateOp(GateSpec(kind, q)))
            elif choice == 1:
                theta = data.draw(st.floats(-10, 10, allow_nan=False))
                ops.append(GateOp(GateSpec(GateKind.PHASE, q, param=theta)))
            elif choice == 2:
                ops.append(GateOp(GateSpec(GateKind.RK, q,
                                           param=data.draw(st.integers(1, 8)))))
            elif choice in (3, 4) and n >= 2:
                others = [x for x in range(n) if x != q]
                m = data.draw(st.integers(1, len(others)))
                controls = frozenset(data.draw(st.permutations(others))[:m])
                kind = GateKind.X if choice == 3 else GateKind.Z
                ops.append(GateOp(GateSpec(kind, q, controls)))
            elif choice == 5:
                ops.append(MeasureOp(q))
            else:
                ops.append(MeasureAllOp())
        circuit = Circuit(n, tuple(ops))
        assert parse(serialize(circuit)) == circuit


class TestCircuitValidation:
    def test_rejects_out_of_range_ops(self):
        with pytest.raises(ValueError):
            Circuit(2, (GateOp(GateSpec(GateKind.X, 2)),))
        with pytest.raises(ValueError):
            Circuit(2, (MeasureOp(5),))

    @pytest.mark.parametrize("qubit", [1.0, 0.5, "1", None])
    def test_rejects_non_integer_measure(self, qubit):
        with pytest.raises(ValueError, match="not an integer"):
            MeasureOp(qubit)

    def test_float_qubit_fails_at_construction_not_in_sample(self):
        # a float index used to reach qdd.sample and die there with a
        # TypeError ("list indices must be integers")
        with pytest.raises(ValueError):
            Circuit(2, (GateOp(GateSpec(GateKind.H, 1.0)), MeasureOp(1.0)))
        assert MeasureOp(np.int64(1)) == MeasureOp(1)

    def test_rejects_stray_op(self):
        h0, h1 = (GateOp(GateSpec(GateKind.H, q)) for q in (0, 1))
        with pytest.raises(ValueError, match="not a circuit op: 'oops'"):
            Circuit(2, (h0, h1, "oops", h0, h1))

    def test_rejects_gate_op_without_gate_spec(self):
        with pytest.raises(ValueError, match="not a circuit op"):
            Circuit(1, (GateOp("h"),))

    def test_rejects_empty_register(self):
        with pytest.raises(ValueError):
            Circuit(0)

    @pytest.mark.parametrize("n", [2.5, 3.0, "3", None])
    def test_rejects_non_integer_count(self, n):
        # a float count used to construct, then die in sample with a
        # TypeError, and serialize wrote "qubits 2.5"
        with pytest.raises(ValueError, match="qubit count .* not an integer"):
            Circuit(n)

    def test_numpy_integer_count_becomes_int(self):
        circuit = Circuit(np.int64(3), (MeasureOp(2),))
        assert circuit == Circuit(3, (MeasureOp(2),))
        assert type(circuit.n_qubits) is int
        assert serialize(circuit) == "qubits 3\nmeasure 2\n"


class TestGenEntangle:
    def test_bell_pair(self):
        c = gen_entangle(2)
        out = dense.run_circuit(c)
        assert np.allclose(out, [S, 0, 0, S], atol=1e-12)

    def test_single_qubit(self):
        c = gen_entangle(1)
        assert c.ops == (GateOp(GateSpec(GateKind.H, 0)),)

    def test_four_qubits_two_amplitudes(self):
        out = dense.run_circuit(gen_entangle(4))
        nz = {i: a for i, a in enumerate(out) if abs(a) > 1e-12}
        assert set(nz) == {0, 15}
        assert all(abs(a - S) < 1e-12 for a in nz.values())

    def test_gate_count(self):
        c = gen_entangle(5)
        assert len(c.ops) == 5  # one H + four CNOTs


class TestGenQFT:
    def test_single_qubit_is_h(self):
        c = gen_qft(1, "0")
        assert c.ops == (GateOp(GateSpec(GateKind.H, 0)),)
        assert np.allclose(dense.run_circuit(c), [S, S], atol=1e-12)

    def test_two_qubits_input_01(self):
        out = dense.run_circuit(gen_qft(2, "01"))
        assert np.allclose(out, [0.5, 0.5j, -0.5, -0.5j], atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_dft_matrix(self, n):
        rng = np.random.default_rng(n)
        f = dft_matrix(n)
        for _ in range(4):
            j = int(rng.integers(1 << n))
            bits = format(j, f"0{n}b")
            out = dense.run_circuit(gen_qft(n, bits))
            assert np.max(np.abs(out - f[:, j])) < 1e-12

    def test_bad_input_length(self):
        with pytest.raises(ValueError):
            gen_qft(3, "01")


class TestGenGrover:
    def test_two_qubits_exact_after_one_iteration(self):
        for marked in ("00", "01", "10", "11"):
            out = dense.run_circuit(gen_grover(2, marked))
            assert abs(out[int(marked, 2)]) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_single_qubit_degenerate(self):
        c = gen_grover(1, "1")
        assert grover_iterations(1) == 0
        assert np.allclose(dense.run_circuit(c), [S, S], atol=1e-12)

    def test_iteration_count_formula(self):
        for n in range(2, 12):
            assert grover_iterations(n) == math.floor(math.pi / 4 * 2 ** (n / 2))

    def test_marked_state_amplified_n8(self):
        out = dense.run_circuit(gen_grover(8, "10110001"))
        assert abs(out[int("10110001", 2)]) ** 2 >= 0.99

    @pytest.mark.parametrize("make, n, bits", [
        (gen_qft, 3, "01"), (gen_qft, 3, "0a1"), (gen_grover, 2, "012"),
        (gen_grover, 2, "1 "),
        (lambda n, bits: Universe().basis_state(n, bits), 2, "1x"),
    ], ids=["qft-short", "qft-letter", "grover-long", "grover-space",
            "basis-state"])
    def test_one_bitstring_rule(self, make, n, bits):
        with pytest.raises(ValueError) as err:
            make(n, bits)
        assert str(err.value) == f"need a length-{n} bitstring, got {bits!r}"

    def test_generators_reference_valid_qubits(self):
        for c in (gen_entangle(6), gen_qft(5, "10101"), gen_grover(4, "0110")):
            for op in c.ops:
                assert isinstance(op, GateOp)
                assert 0 <= op.spec.target < c.n_qubits
                assert all(0 <= q < c.n_qubits for q in op.spec.controls)

import json
import os
import random
import re
import subprocess
import sys

import numpy as np

import qdd.cli as cli
from qdd import NormDriftError

from _util import dft_matrix

BELL_MEASURE = "qubits 2\nh 0\ncx 0 1\nmeasure 0\n"
DEEP = "qubits 1200\nh 0\ncx 0 1199\n"
HUGE = "qubits 99999999999\nh 0\n"
MID_CIRCUIT = ("qubits 5\nh 0\ncx 0 1\nt 1\nh 2\nmeasure 0\ncx 1 3\nh 4\n"
               "cx 4 2\nmeasure 2\nh 1\ncx 3 0\nt 4\nmeasure_all\n")

DOT_HEAD = """digraph dd {
  ordering=out;
  __root [shape=point, label=""];
  __t [shape=box, label="1"];
"""
# Nodes are numbered in depth-first preorder, last successor edge first.
DOT_BELL = DOT_HEAD + """  n0 [label="q0"];
  n1 [label="q1"];
  n2 [label="q1"];
  __root -> n0 [label="0.707107+0i"];
  n0 -> n2 [label="1+0i"];
  n0 -> n1 [label="1+0i"];
  z0 [shape=box, label="0"];
  n1 -> z0;
  n1 -> __t [label="1+0i"];
  n2 -> __t [label="1+0i"];
  z1 [shape=box, label="0"];
  n2 -> z1;
}
"""
DOT_GHZ3 = DOT_HEAD + """  n0 [label="q0"];
  n1 [label="q1"];
  n2 [label="q2"];
  n3 [label="q1"];
  n4 [label="q2"];
  __root -> n0 [label="0.707107+0i"];
  n0 -> n3 [label="1+0i"];
  n0 -> n1 [label="1+0i"];
  z0 [shape=box, label="0"];
  n1 -> z0;
  n1 -> n2 [label="1+0i"];
  z1 [shape=box, label="0"];
  n2 -> z1;
  n2 -> __t [label="1+0i"];
  n3 -> n4 [label="1+0i"];
  z2 [shape=box, label="0"];
  n3 -> z2;
  n4 -> __t [label="1+0i"];
  z3 [shape=box, label="0"];
  n4 -> z3;
}
"""
DOT_CX = DOT_HEAD + """  n0 [label="q0"];
  n1 [label="q1"];
  n2 [label="q1"];
  __root -> n0 [label="1+0i"];
  n0 -> n2 [label="1+0i"];
  z0 [shape=box, label="0"];
  n0 -> z0;
  z1 [shape=box, label="0"];
  n0 -> z1;
  n0 -> n1 [label="1+0i"];
  z2 [shape=box, label="0"];
  n1 -> z2;
  n1 -> __t [label="1+0i"];
  n1 -> __t [label="1+0i"];
  z3 [shape=box, label="0"];
  n1 -> z3;
  n2 -> __t [label="1+0i"];
  z4 [shape=box, label="0"];
  n2 -> z4;
  z5 [shape=box, label="0"];
  n2 -> z5;
  n2 -> __t [label="1+0i"];
}
"""


def invoke(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_circuit(tmp_path, text, name="circuit.qc"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestRunCommand:
    def test_fig_circuit_histogram(self, tmp_path, capsys):
        path = write_circuit(tmp_path, BELL_MEASURE)
        code, out, _ = invoke(capsys, "run", path, "--seed", "7",
                              "--shots", "1000")
        assert code == 0
        report = json.loads(out)
        assert set(report["histogram"]) == {"00", "11"}
        assert sum(report["histogram"].values()) == 1000
        assert report["tool"] == "qdd"
        assert report["circuit"] == {"name": "circuit", "qubits": 2, "ops": 3}
        assert report["config"] == {"seed": 7, "shots": 1000}
        stats = report["stats"]
        assert {"gates_applied", "peak_vector_nodes", "peak_unique_nodes",
                "wall_time_ms", "norm_deviation"} == set(stats)
        assert stats["gates_applied"] == 2

    def test_empty_circuit(self, tmp_path, capsys):
        path = write_circuit(tmp_path, "qubits 1\n")
        code, out, _ = invoke(capsys, "run", path)
        assert code == 0
        assert json.loads(out)["stats"]["gates_applied"] == 0

    def test_parse_error_exit_2(self, tmp_path, capsys):
        path = write_circuit(tmp_path, "qubits 2\ncx 0 5\n")
        code, out, err = invoke(capsys, "run", path)
        assert code == 2
        assert "line 2" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = invoke(capsys, "run", "/nonexistent/file.qc")
        assert code == 2
        assert err

    def test_norm_drift_exit_3(self, tmp_path, capsys, monkeypatch):
        def boom(circuit, config=None):
            raise NormDriftError("synthetic", deviation=1.0, op_index=0)
        monkeypatch.setattr(cli, "sample", boom)
        path = write_circuit(tmp_path, "qubits 1\nh 0\n")
        code, _, err = invoke(capsys, "run", path)
        assert code == 3
        assert "norm drift" in err

    def test_precision_wall_exit_3(self, tmp_path, capsys):
        # the engine's own per-gate check, unstubbed
        path = write_circuit(tmp_path, "qubits 80\n" + "".join(
            f"h {q}\n" for q in range(80)))
        code, out, err = invoke(capsys, "run", path)
        assert (code, out) == (3, "")
        assert err == ("norm drift: norm drifted to deviation 1 after op 63"
                       " (H)\n")

    def test_fewer_than_one_shot_exit_2(self, tmp_path, capsys):
        for text in ("qubits 2\nh 0\ncx 0 1\n",
                     "qubits 2\nh 0\nmeasure 0\ncx 0 1\n"):
            path = write_circuit(tmp_path, text)
            for shots in ("0", "-3"):
                code, out, err = invoke(capsys, "run", path, "--shots", shots)
                assert code == 2 and out == ""
                assert "shots" in err

    def test_dump_state_matches_dft(self, tmp_path, capsys):
        n = 8
        bits = "10011010"
        lines = [f"qubits {n}"]
        for q, b in enumerate(bits):
            if b == "1":
                lines.append(f"x {q}")
        for t in range(n):
            lines.append(f"h {t}")
            for c in range(t + 1, n):
                lines.append(f"cp {c - t + 1} {c} {t}")
        for a in range(n // 2):
            b_ = n - 1 - a
            lines += [f"cx {a} {b_}", f"cx {b_} {a}", f"cx {a} {b_}"]
        path = write_circuit(tmp_path, "\n".join(lines) + "\n")
        code, out, _ = invoke(capsys, "run", path, "--dump-state")
        assert code == 0
        report = json.loads(out)
        amps = np.array([complex(re, im) for re, im in report["state"]])
        want = dft_matrix(n)[:, int(bits, 2)]
        assert np.max(np.abs(amps - want)) < 1e-9

    def test_rk_order_beyond_float_range(self, tmp_path, capsys):
        plain = "qubits 2\nh 0\nh 1\ncx 0 1\n"
        huge = "qubits 2\nh 0\ncp 2000 0 1\nh 1\nrk 1024 1\ncx 0 1\n"
        histograms = []
        for text in (plain, huge):
            path = write_circuit(tmp_path, text)
            code, out, _ = invoke(capsys, "run", path, "--seed", "3",
                                  "--shots", "200")
            assert code == 0
            histograms.append(json.loads(out)["histogram"])
        assert histograms[0] == histograms[1]

    def test_stats_json_file(self, tmp_path, capsys):
        path = write_circuit(tmp_path, BELL_MEASURE)
        out_path = tmp_path / "report.json"
        code, out, _ = invoke(capsys, "run", path, "--stats-json",
                              str(out_path))
        assert code == 0
        assert json.loads(out_path.read_text()) == json.loads(out)

    def test_unwritable_stats_json_exit_2(self, tmp_path, capsys):
        path = write_circuit(tmp_path, BELL_MEASURE)
        bad = str(tmp_path / "missing" / "report.json")
        code, out, err = invoke(capsys, "run", path, "--stats-json", bad)
        assert code == 2 and out == ""
        assert err == f"error: cannot write {bad}: No such file or directory\n"

    def test_too_deep_for_recursion_exit_2(self, tmp_path, capsys):
        path = write_circuit(tmp_path, DEEP)
        for argv in (("run", path), ("dot", path)):
            code, out, err = invoke(capsys, *argv)
            assert code == 2 and out == ""
            assert err.startswith("error: 1200 qubits exceed")
            assert err.count("\n") == 1

    def test_huge_qubit_count_rejected_before_allocating(self, tmp_path,
                                                          capsys):
        path = write_circuit(tmp_path, HUGE)
        for argv in (("run", path), ("dot", path), ("dot", path, "--state")):
            code, out, err = invoke(capsys, *argv)
            assert code == 2 and out == ""
            assert err == ("error: 99999999999 qubits exceed the recursion "
                           "depth of the diagram operations\n")

    def test_huge_gate_rendering_rejected_before_allocating(
            self, tmp_path, capsys, monkeypatch):
        def no_build(*args):
            raise AssertionError("gate diagram built")
        monkeypatch.setattr(cli, "build_gate_dd", no_build)
        path = write_circuit(tmp_path, HUGE)
        code, out, err = invoke(capsys, "dot", path, "--gate", "0")
        assert code == 2 and out == ""
        assert err == ("error: dot --gate renders at most 10000 qubits, "
                       "got 99999999999\n")

    def test_out_of_memory_exit_2(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError
        monkeypatch.setattr(cli, "sample", exhausted)
        monkeypatch.setattr(cli, "build_gate_dd", exhausted)
        path = write_circuit(tmp_path, "qubits 1\nh 0\n")
        for argv in (("run", path), ("dot", path, "--gate", "0"),
                     ("bench", "entangle", "3")):
            code, out, err = invoke(capsys, *argv)
            assert code == 2 and out == ""
            assert err == "error: out of memory\n"

    def test_determinism_byte_identical_minus_timing(self, tmp_path, capsys):
        path = write_circuit(tmp_path, BELL_MEASURE)
        reports = []
        for _ in range(2):
            code, out, _ = invoke(capsys, "run", path, "--seed", "42",
                                  "--shots", "200")
            assert code == 0
            r = json.loads(out)
            r["stats"].pop("wall_time_ms")
            reports.append(r)
        assert reports[0] == reports[1]

    def test_reports_identical_across_hash_seeds(self, tmp_path):
        # criterion 10 across processes: set and dict order must not leak
        # into a report, GC and mid-circuit measurement included
        path = write_circuit(tmp_path, MID_CIRCUIT)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        outputs = []
        for hash_seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-m", "qdd", "run", path, "--seed", "5",
                 "--shots", "40", "--gc-threshold", "20"],
                capture_output=True, check=True,
                env={**os.environ, "PYTHONPATH": src,
                     "PYTHONHASHSEED": hash_seed})
            outputs.append(re.sub(rb'"wall_time_ms": [^,\n]*', b"",
                                  proc.stdout))
        assert b'"histogram"' in outputs[0]
        assert outputs[0] == outputs[1]


class TestBenchCommand:
    def test_entangle(self, capsys):
        code, out, _ = invoke(capsys, "bench", "entangle", "16",
                              "--shots", "100", "--seed", "1")
        assert code == 0
        report = json.loads(out)
        assert report["circuit"]["name"] == "entangle-16"
        assert set(report["histogram"]) <= {"0" * 16, "1" * 16}

    def test_qft_fixed_input(self, capsys):
        code, out, _ = invoke(capsys, "bench", "qft", "6", "--input", "101010")
        assert code == 0
        assert json.loads(out)["circuit"]["qubits"] == 6

    def test_qft_input_drawn_from_seed(self, capsys):
        # --dump-state pins the input: the amplitudes' phases depend on it
        drawn = "".join(random.Random(7).choice("01") for _ in range(5))
        reports = []
        for extra in ((), ("--input", drawn), ("--input", "01111")):
            code, out, _ = invoke(capsys, "bench", "qft", "5", "--seed", "7",
                                  "--shots", "40", "--dump-state", *extra)
            assert code == 0
            report = json.loads(out)
            report["stats"].pop("wall_time_ms")
            reports.append(report)
        assert reports[0] == reports[1] != reports[2]

    def test_grover_marked(self, capsys):
        code, out, _ = invoke(capsys, "bench", "grover", "6",
                              "--marked", "110010", "--shots", "50")
        assert code == 0
        report = json.loads(out)
        assert report["histogram"].get("110010", 0) >= 45

    def test_bad_family_args_exit_2(self, capsys):
        code, _, err = invoke(capsys, "bench", "grover", "6", "--marked", "10")
        assert code == 2 and "error" in err
        code, _, err = invoke(capsys, "bench", "qft", "4", "--input", "0")
        assert code == 2

    def test_too_deep_rejected_before_generating(self, capsys, monkeypatch):
        def generate(*args):
            raise AssertionError("circuit generated")
        for gen in ("gen_entangle", "gen_qft", "gen_grover"):
            monkeypatch.setattr(cli, gen, generate)
        for family in ("entangle", "qft", "grover"):
            code, out, err = invoke(capsys, "bench", family, "100000")
            assert code == 2 and out == ""
            assert err.startswith("error: 100000 qubits exceed")

    def test_fewer_than_one_qubit_exit_2(self, capsys):
        for family in ("entangle", "qft", "grover"):
            for n in ("0", "-1"):
                code, out, err = invoke(capsys, "bench", family, n)
                assert code == 2 and out == ""
                assert err == f"error: qubit count must be at least 1, got {n}\n"


class TestDotCommand:
    def test_state_rendering(self, tmp_path, capsys):
        for text, want in (("qubits 2\nh 0\ncx 0 1\n", DOT_BELL),
                           ("qubits 3\nh 0\ncx 0 1\ncx 1 2\n", DOT_GHZ3)):
            path = write_circuit(tmp_path, text)
            code, out, _ = invoke(capsys, "dot", path)
            assert code == 0
            assert out == want

    def test_gate_rendering(self, tmp_path, capsys):
        path = write_circuit(tmp_path, "qubits 2\nh 0\ncx 0 1\n")
        code, out, _ = invoke(capsys, "dot", path, "--gate", "1")
        assert code == 0
        assert out == DOT_CX

    def test_gate_rendering_deeper_than_recursion_limit(self, tmp_path,
                                                         capsys):
        path = write_circuit(tmp_path, DEEP)
        code, out, _ = invoke(capsys, "dot", path, "--gate", "1")
        assert code == 0
        assert out.startswith("digraph dd {")

    def test_gate_index_out_of_range(self, tmp_path, capsys):
        path = write_circuit(tmp_path, "qubits 1\nh 0\n")
        code, _, err = invoke(capsys, "dot", path, "--gate", "5")
        assert code == 2
        assert "out of range" in err
        assert err.startswith("error: gate index 5 out of range")


def test_cli_import_does_not_load_numpy():
    # numpy is a test-only dependency: only the qdd.dense oracle needs it
    code = "import qdd.cli, sys; assert 'numpy' not in sys.modules"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})

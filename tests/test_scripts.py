"""The helper scripts agree with the benchmark they stand in for."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import qdd

ROOT = Path(__file__).resolve().parents[1]


def load(path: Path):
    """Import a script by path (dataclasses need it in sys.modules)."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


digests = load(ROOT / "scripts" / "report_digests.py")
workloads = load(ROOT / "perfbench" / "workloads.py")


@pytest.mark.parametrize("seed, job", digests.CLIFFORD_T)
def test_report_digests_clifford_t_jobs_are_perfbench_jobs(seed, job):
    # CI's drift coverage (jobs 23/2, 34/0 and 40/0) relies on this
    want = workloads.make_jobs("clifford-t-10", seed)[job]
    assert digests.clifford_t_circuit(seed, job) == (
        qdd.serialize(want.circuit), want.seed)


def test_report_digests_circuits_use_every_gate_word():
    # CI's base/head digest diff checks that gate diagrams stay unchanged
    # only for the words these circuits use
    texts = [digests.random_circuit(seed) for seed in range(12)]
    texts += [digests.clifford_t_circuit(*job)[0] for job in digests.CLIFFORD_T]
    texts += [digests.syndrome_circuit(seed) for seed in digests.SYNDROME]
    texts.append(digests.certain_circuit(digests.CERTAIN))
    words = {line.split()[0] for text in texts for line in text.splitlines()}
    assert words >= {*qdd.circuit._GATES, "measure", "measure_all"}


bench_record = load(ROOT / "scripts" / "bench_record.py")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def canned_run(trace: int, value: float, failed: int = 0,
               skip: str | None = None) -> str:
    """perfbench/run.py's output in the shape it prints, every metric of
    the trace's group at ``value`` (apart from ``skip``)."""
    group = BENCHMARK["end_to_end" if trace == 0 else "per_layer"]
    metrics = {m["name"]: {"value": value, "unit": m["unit"]}
               for m in group if m["name"] != skip}
    return "\n".join([
        json.dumps({"workload": "qft-48", "seed": 1, "detail": {
            "calibration_s": {"median": 0.5}, "time_scale": 0.5 + trace}}),
        json.dumps({"correct": skip is None, "attempted": 9,
                    "failed": failed, "metrics": metrics})]) + "\n"


def test_bench_record_metric_names_are_the_benchmarks():
    run = load(ROOT / "perfbench" / "run.py")
    for group, units in (("end_to_end", run.END_TO_END),
                         ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in BENCHMARK[group]} == units
    parsed = {0: [bench_record.parse_run(canned_run(0, 1.0))],
              1: [bench_record.parse_run(canned_run(1, 1.0))]}
    entry = bench_record.record(parsed, BENCHMARK)
    assert list(entry["metrics"]) == [
        m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]


def test_bench_record_summarizes_runs():
    parse = bench_record.parse_run
    parsed = {0: [parse(canned_run(0, v, failed=v == 3.0))
                  for v in (3.0, 1.0, 2.0, 5.0)],
              1: [parse(canned_run(1, 7.0, skip="engine.gc_s"))]}
    entry = bench_record.record(parsed, BENCHMARK)
    assert entry["metrics"]["wall_s"] == {
        "median": 2.5, "q1": 1.25, "q3": 4.5, "n": 4, "unit": "s"}
    assert entry["metrics"]["peak_table_nodes"]["unit"] == "count"
    assert entry["metrics"]["trace_overhead"] == {
        "median": 7.0, "q1": 7.0, "q3": 7.0, "n": 1, "unit": "ratio"}
    assert entry["metrics"]["engine.gc_s"] == {
        "median": None, "q1": None, "q3": None, "n": 0, "unit": "s"}
    # a failed share is recorded as it came
    assert entry["runs"] == [
        {"trace": 0, "time_scale": 0.5, "correct": True, "attempted": 9,
         "failed": int(v == 3.0)} for v in (3.0, 1.0, 2.0, 5.0)] + [
        {"trace": 1, "time_scale": 1.5, "correct": False, "attempted": 9,
         "failed": 0}]


@pytest.mark.parametrize("out", [
    "", "perfbench: no qdd package under src\n",
    canned_run(0, 1.0).splitlines()[0] + "\n",
    canned_run(0, 1.0) + "0.25\n",
])
def test_bench_record_rejects_a_run_without_a_result_line(out):
    with pytest.raises(ValueError, match="no detail and result line"):
        bench_record.parse_run(out)


def test_bench_record_writes_the_file(tmp_path, monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    calls = []

    def fake_perfbench(workload, trace, seconds):
        calls.append((workload, trace, seconds))
        return canned_run(trace, float(len(calls)))

    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    monkeypatch.setattr(bench_record, "run_perfbench", fake_perfbench)
    monkeypatch.setattr(bench_record, "commit",
                        lambda: {"commit": "abc", "dirty": False})
    assert bench_record.main(["--label", "t", "--runs", "2"]) == 0
    names = [w["name"] for w in BENCHMARK["workloads"]]
    seconds = BENCHMARK["run_seconds"]
    assert calls == [(w, t, seconds) for w in names for t in (0, 0, 1, 1)]
    saved = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert (saved["commit"], saved["seed"], saved["runs_per_trace"]) == (
        "abc", 1, 2)
    assert list(saved["workloads"]) == names
    assert saved["workloads"][names[0]]["metrics"]["sim_s"]["median"] == 1.5

    monkeypatch.setattr(bench_record, "run_perfbench",
                        lambda *args: "a traceback\n")
    with pytest.raises(SystemExit, match="no detail and result line"):
        bench_record.main(["--label", "u"])
    assert not (tmp_path / "BENCH_u.json").exists()


def perfbench_passed(stdin: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "perfbench_passed.py")],
        input=stdin, capture_output=True, text=True, timeout=60)


def test_perfbench_passed_accepts_a_correct_run():
    out = canned_run(0, 1.0)
    got = perfbench_passed(out)
    assert (got.returncode, got.stdout) == (0, out)


@pytest.mark.parametrize("out", [
    canned_run(0, 1.0, skip="wall_s"),  # "correct": false
    canned_run(0, 1.0, failed=1),
    canned_run(0, 1.0) + "0.25 s\n",
    "",
], ids=["incorrect", "failed", "not-json", "empty"])
def test_perfbench_passed_rejects_other_runs(out):
    got = perfbench_passed(out)
    assert got.returncode != 0
    assert got.stdout == (out or "\n")  # print() echoes no lines as one
    assert '"correct": true' in got.stderr

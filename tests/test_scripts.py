"""The helper scripts agree with the benchmark they stand in for."""

import importlib.util
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

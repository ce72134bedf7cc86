#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for qdd.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload qft-48 --seed 1 --seconds 20 --trace 0

Each run draws the workload's circuits from --seed, writes them as
circuit files under perfbench/out/, and checks one direct ``qdd.run`` of
each against the workload's oracle (see workloads.py). Then, for
--seconds, one job at a time (a closed loop):

* --trace 0 runs ``python3 -m qdd run <file>`` as a child process and
  times it from outside: wall time from spawn to parsed report, the
  report's simulation time, their difference (set-up), the child's peak
  RSS from os.wait4, and the report's peak table nodes. The first report
  of each job is checked against the oracle and becomes the reference;
  every later report must equal it apart from wall_time_ms.
* --trace 1 alternates an untraced in-process ``qdd.sample`` with a traced
  replay of it (see replay.py) and reports per-layer self times and
  counters. The replay must reproduce the untraced report and the
  engine's per-op counters; the spans of the last replay of each job are
  written to perfbench/out/.

A calibration probe (see CALIBRATION) runs before every turn, and all
times are reported scaled to a machine of fixed probe speed. A line of
per-metric medians, quartiles and sample counts, with the probe times and
the scale, precedes the last line, which is the JSON result. The run exits 2 without a result
when the checkout holds no qdd sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
CHILD_TIMEOUT_S = 120
IMPORT_PROBES = 5
PARSE_PROBES = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import qdd.cli; "
                "print(time.perf_counter() - t)")

# A fixed pure-Python workload (tuple-keyed dict lookups, small-object
# allocation, float arithmetic: the kind of work qdd does) that shares no
# code with qdd. On a shared 2-vCPU VM the host speed drifted by 25%
# between runs minutes apart, so every run times this probe before each
# job and reports times scaled by CALIBRATION_REF_S / (median probe time),
# that is, in seconds of a machine on which the probe takes
# CALIBRATION_REF_S.
CALIBRATION = """
import time
t = time.perf_counter()
class N:
    __slots__ = ("a", "b", "i")
    def __init__(self, a, b, i):
        self.a = a; self.b = b; self.i = i
table = {}
acc = 0.0
for i in range(100000):
    k = ((i * 7919) % 50021, i % 7)
    n = table.get(k)
    if n is None:
        n = table[k] = N(k[0] * 0.5, k[1] * 0.25, i)
    acc += n.a * n.b * 1e-12 - acc * 1e-9
print(time.perf_counter() - t)
"""
CALIBRATION_REF_S = 0.25

END_TO_END = {"wall_s": "s", "sim_s": "s", "setup_s": "s",
              "peak_rss_mb": "MiB", "peak_table_nodes": "count"}
# Metrics taken as the median over every child run instead of the mean
# over jobs of per-job medians: set-up does not depend on the circuit.
POOLED = {"setup_s"}

PER_LAYER = {
    "gates.build_s": "s", "gates.builds": "count",
    "gates.cache_hit_ratio": "ratio", "dd.table_nodes_peak": "count",
    "dd.gate_nodes": "count", "ops.multiply_s": "s",
    "ops.recursions": "count", "ops.memo_miss_ratio": "ratio",
    "cvalue.entries": "count", "ops.cache_entries": "count",
    "ops.measure_s": "s", "ops.measure_calls": "count", "ops.sample_s": "s",
    "ops.prob_cache_entries": "count", "engine.stats_s": "s",
    "engine.norm_s": "s", "engine.loop_s": "s", "engine.gc_runs": "count",
    "engine.gc_freed": "count", "engine.gc_s": "s",
    "circuit.parse_s": "s", "cli.import_s": "s", "trace_overhead": "ratio",
    "trace_coverage": "ratio",
}


def _spawn(cmd: list[str]) -> tuple[int, bytes, float, float]:
    """Run cmd to completion; returns (exit code, stdout, wall s, max RSS MiB).

    Wall time runs from spawning to the end of the child's stdout. The
    child is reaped with os.wait4 so that its own peak RSS is read.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(OUT / "child.stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                cwd=ROOT, env=env)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, wall, usage.ru_maxrss / 1024.0


def _quartiles(values: list[float]) -> dict:
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def _untimed(report: dict) -> dict:
    stats = dict(report["stats"])
    del stats["wall_time_ms"]
    return {**report, "stats": stats}


def _aggregate(per_job: dict, units: dict,
               probes: list[float]) -> tuple[dict, dict]:
    """Each metric: the mean over jobs of the per-job median (or the
    median over all samples for POOLED metrics), with the quartiles and
    count of all samples. Times are scaled by the calibration probes."""
    if not probes:
        return {}, {}
    scale = CALIBRATION_REF_S / statistics.median(probes)
    metrics = {}
    detail = {"calibration_s": _quartiles(probes), "time_scale": scale}
    for name, unit in units.items():
        rows = [row[name] for row in per_job.values() if row.get(name)]
        if not rows:
            continue
        if unit == "s":
            rows = [[v * scale for v in row] for row in rows]
        samples = [v for row in rows for v in row]
        if name in POOLED:
            value = statistics.median(samples)
        else:
            value = statistics.fmean(statistics.median(r) for r in rows)
        metrics[name] = {"value": value, "unit": unit}
        detail[name] = _quartiles(samples)
    return metrics, detail


class Bench:
    """One invocation: the workload's jobs, each checked against its oracle."""

    def __init__(self, workload: str, seed: int):
        import qdd
        import workloads

        self.qdd = qdd
        self.wl = workloads
        self.jobs = workloads.make_jobs(workload, seed)
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.paths, self.texts, self.expect, self.counters = {}, {}, {}, {}
        self.probes: list[float] = []
        OUT.mkdir(exist_ok=True)
        for i, job in enumerate(self.jobs):
            name = job.circuit.name
            text = qdd.serialize(job.circuit)
            if qdd.parse(text, name=name) != job.circuit:
                raise AssertionError(f"{name}: parse(serialize(c)) != c")
            self.paths[i] = OUT / f"{name}.qdd"
            self.paths[i].write_text(text, encoding="utf-8")
            self.texts[i] = text
            self._engine_run(workload, i, job)

    def _engine_run(self, workload: str, i: int, job) -> None:
        """Validate one direct run; record the engine's per-op counters."""
        counters, unis = [], []

        def on_op(uni, state, index):
            unis[:] = [uni]
            counters.append((uni.cache.ops_count, uni.live_nodes))

        cfg = self.qdd.EngineConfig(seed=job.seed, shots=job.shots)
        try:
            state, stats = self.qdd.run(job.circuit, cfg, on_op=on_op)
        except self.qdd.NormDriftError as err:
            # The engine's documented clean refusal (exit 3 from the CLI)
            # of a circuit it cannot simulate within tolerance: a failed
            # attempt, and the job is not timed.
            print(f"{job.circuit.name}: {err}; counted as failed",
                  file=sys.stderr)
            self.attempted += 1
            self.failed += 1
            return
        try:
            self.expect[i] = self.wl.check_engine_run(workload, job, state,
                                                      stats, unis[0])
        except AssertionError as err:
            print(f"{job.circuit.name}: {err}", file=sys.stderr)
            self.attempted += 1
            self.failed += 1
            self.correct = False
            return
        self.counters[i] = counters

    def _accept(self, i: int, report: dict, refs: dict) -> bool:
        """Check a report against the oracle's expectations and the job's
        reference report (the first accepted one)."""
        job = self.jobs[i]
        try:
            if i not in refs:
                self.wl.check_report(job, report, self.expect[i])
                refs[i] = _untimed(report)
            elif _untimed(report) != refs[i]:
                raise AssertionError("report differs from the reference")
        except AssertionError as err:
            print(f"{job.circuit.name}: {err}", file=sys.stderr)
            self.failed += 1
            self.correct = False
            return False
        return True

    def _turns(self, seconds: float):
        """Job indices round-robin until the time is up, each at least once;
        a calibration probe runs before each turn."""
        live = sorted(self.expect)
        deadline = time.perf_counter() + seconds
        turn = 0
        while live and (turn < len(live) or time.perf_counter() < deadline):
            code, out, _, _ = _spawn([sys.executable, "-c", CALIBRATION])
            if code != 0:
                raise RuntimeError(f"calibration probe exited {code}")
            self.probes.append(float(out))
            self.attempted += 1
            yield live[turn % len(live)]
            turn += 1

    def timed(self, seconds: float) -> tuple[dict, dict]:
        """Closed loop of CLI child runs."""
        per_job = {i: {k: [] for k in END_TO_END} for i in self.expect}
        refs: dict = {}
        for i in self._turns(seconds):
            job = self.jobs[i]
            code, out, wall, rss = _spawn([
                sys.executable, "-m", "qdd", "run", str(self.paths[i]),
                "--seed", str(job.seed), "--shots", str(job.shots)])
            if code != 0:
                stderr = (OUT / "child.stderr").read_text(errors="replace")
                print(f"{job.circuit.name}: qdd run exited {code}: "
                      f"{stderr[-500:]}", file=sys.stderr)
                self.failed += 1
                continue
            report = json.loads(out)
            if not self._accept(i, report, refs):
                continue
            sim = report["stats"]["wall_time_ms"] / 1e3
            row = per_job[i]
            row["wall_s"].append(wall)
            row["sim_s"].append(sim)
            row["setup_s"].append(wall - sim)
            row["peak_rss_mb"].append(rss)
            row["peak_table_nodes"].append(
                report["stats"]["peak_unique_nodes"])
        return _aggregate(per_job, END_TO_END, self.probes)

    def traced(self, seconds: float) -> tuple[dict, dict]:
        """Alternating untraced samples and traced replays."""
        import replay as rp

        refs: dict = {}
        untraced = {i: [] for i in self.expect}
        tracers = {i: [] for i in self.expect}
        replays = {}
        for i in self._turns(seconds):
            job = self.jobs[i]
            stats = self.qdd.sample(job.circuit, self.qdd.EngineConfig(
                seed=job.seed, shots=job.shots))
            report = {"stats": {
                "gates_applied": stats.gates_applied,
                "peak_vector_nodes": stats.peak_vector_nodes,
                "peak_unique_nodes": stats.peak_unique_nodes,
                "wall_time_ms": stats.wall_time_ms,
                "norm_deviation": stats.final_norm_deviation},
                "histogram": stats.histogram}
            if not self._accept(i, report, refs):
                continue
            untraced[i].append(stats.wall_time_ms / 1e3)
            tracer = rp.Tracer()
            replays[i] = rp.replay(job.circuit, job.seed, job.shots, tracer)
            rp.check_against(replays[i], refs[i], self.counters[i])
            tracers[i].append(tracer)

        per_job = {}
        for i, rep in replays.items():
            selfs = [t.self_times() for t in tracers[i]]
            totals = [t.total() for t in tracers[i]]

            def med(*names):
                return statistics.median(
                    sum(s.get(n, 0.0) for n in names) for s in selfs)

            covered = [sum(s.get(n, 0.0) for n in rp.LAYERS) / total
                       for s, total in zip(selfs, totals)]
            row = {
                "gates.build_s": med("gates"),
                "gates.builds": rep.gate_builds,
                "gates.cache_hit_ratio": 1 - rep.gate_builds / rep.gate_calls,
                "dd.table_nodes_peak": rep.peak_unique_nodes,
                "dd.gate_nodes": rep.gate_nodes,
                "ops.multiply_s": med("ops.multiply"),
                "ops.recursions": rep.recursions,
                "ops.memo_miss_ratio": rep.memo_entries_added / rep.recursions,
                "cvalue.entries": rep.complex_entries,
                "ops.cache_entries": rep.cache_entries,
                "ops.measure_s": med("ops.measure", "ops.sample"),
                "ops.measure_calls": rep.measure_calls,
                "ops.sample_s": med("ops.sample"),
                "ops.prob_cache_entries": rep.prob_cache_entries,
                "engine.stats_s": med("engine.stats"),
                "engine.norm_s": med("engine.norm"),
                "engine.loop_s": med(rp.ROOT),
                "engine.gc_runs": rep.gc_runs,
                "engine.gc_freed": rep.gc_freed,
                "engine.gc_s": med("engine.gc"),
                "circuit.parse_s": self._parse_s(i),
                "trace_overhead": statistics.median(totals)
                / statistics.median(untraced[i]),
                "trace_coverage": statistics.median(covered),
            }
            per_job[i] = {k: [v] for k, v in row.items()}
            self._write_spans(i, tracers[i][-1])
        if per_job:
            per_job[-1] = {"cli.import_s": self._import_times()}
        metrics, detail = _aggregate(per_job, PER_LAYER, self.probes)
        detail["dominant_layer"] = {
            self.jobs[i].circuit.name: rp.dominant(tracers[i][-1])
            for i in replays}
        return metrics, detail

    def _parse_s(self, i: int) -> float:
        times = []
        for _ in range(PARSE_PROBES):
            t0 = time.perf_counter()
            self.qdd.parse(self.texts[i], name=self.jobs[i].circuit.name)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def _import_times(self) -> list[float]:
        """Import time of the CLI module in fresh interpreters."""
        times = []
        for _ in range(IMPORT_PROBES):
            self.attempted += 1
            code, out, _, _ = _spawn([sys.executable, "-c", IMPORT_PROBE])
            if code != 0:
                self.failed += 1
                continue
            times.append(float(out))
        return times

    def _write_spans(self, i: int, tracer) -> None:
        t0 = tracer.spans[0][1]
        spans = [[name, start - t0, end - t0, parent]
                 for name, start, end, parent in tracer.spans]
        path = OUT / f"{self.jobs[i].circuit.name}.spans.json"
        path.write_text(json.dumps({
            "columns": ["name", "start_s", "end_s", "parent"],
            "spans": spans}), encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "qdd" / "__init__.py").is_file():
        print(f"perfbench: no qdd package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed)
    if args.trace:
        metrics, detail = bench.traced(args.seconds)
        wanted = PER_LAYER
    else:
        metrics, detail = bench.timed(args.seconds)
        wanted = END_TO_END
    complete = metrics.keys() == wanted.keys()
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "detail": detail}))
    print(json.dumps({"correct": bench.correct and complete,
                      "attempted": max(bench.attempted, 1),
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

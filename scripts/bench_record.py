"""Record the benchmark's numbers for one source tree in BENCH_<label>.json.

    python3 scripts/bench_record.py --label pr37 [--runs 3]

For each workload in BENCHMARK.json, this runs the unchanged
perfbench/run.py K times (``--runs``, default 3) with ``--trace 0``, for
the end-to-end metrics, then K times with ``--trace 1``, for the
per-layer ones, each at the file's ``run_seconds`` and ``--seed 1``. It
parses each run's detail line (the second to last, JSON) and result line
(the last, JSON), and writes BENCH_<label>.json at the root of the
checkout:

* per workload and metric, the median and quartiles of the run values,
  their count n and the unit, for every metric BENCHMARK.json names
  (n is 0, and the statistics null, for a metric no run reported);
* per workload and run, the trace flag, ``time_scale``, ``correct``,
  ``attempted`` and ``failed``;
* the commit checked out, and whether src/ or perfbench/ differ from it.

A run whose output has no result line stops the recording with an error.
A failed share is recorded as it came, not judged. Run-to-run noise on a
shared VM is large, so compare two files by their quartiles, not by
their medians alone.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


def parse_run(stdout: str) -> tuple[dict, dict]:
    """The (detail, result) objects of one perfbench run's output."""
    lines = stdout.strip().splitlines()
    try:
        detail, result = (json.loads(line) for line in lines[-2:])
        return detail["detail"], {k: result[k] for k in (
            "correct", "attempted", "failed", "metrics")}
    except (ValueError, KeyError, TypeError):
        raise ValueError("no detail and result line in perfbench's output: "
                         f"{stdout[-300:]!r}") from None


def summarize(values: list[float], unit: str) -> dict:
    """Median, quartiles and count of ``values``, with their unit."""
    if not values:
        q1 = med = q3 = None
    elif len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "unit": unit}


def record(parsed: dict[int, list[tuple[dict, dict]]],
           benchmark: dict) -> dict:
    """One workload's entry, from its runs' (detail, result) pairs by
    trace flag: 0 for the end-to-end metrics, 1 for the per-layer ones."""
    metrics, runs = {}, []
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        for spec in benchmark[group]:
            name = spec["name"]
            values = [result["metrics"][name]["value"]
                      for _, result in parsed[trace]
                      if name in result["metrics"]]
            metrics[name] = summarize(values, spec["unit"])
        runs += [{"trace": trace, "time_scale": detail.get("time_scale"),
                  **{k: result[k] for k in ("correct", "attempted",
                                            "failed")}}
                 for detail, result in parsed[trace]]
    return {"metrics": metrics, "runs": runs}


def commit() -> dict:
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    return {"commit": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--", "src",
                              "perfbench"))}


def run_perfbench(workload: str, trace: int, seconds: float) -> str:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"{workload} --trace {trace}: perfbench exited "
                 f"{proc.returncode}")
    return proc.stdout


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--runs", type=int, default=3)
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    checkout = commit()
    workloads = {}
    for wl in benchmark["workloads"]:
        name = wl["name"]
        parsed = {0: [], 1: []}
        for trace in parsed:
            for k in range(args.runs):
                print(f"{name} --trace {trace}: run {k + 1} of {args.runs}",
                      file=sys.stderr, flush=True)
                out = run_perfbench(name, trace, seconds)
                try:
                    parsed[trace].append(parse_run(out))
                except ValueError as err:
                    sys.exit(f"{name} --trace {trace}: {err}")
        workloads[name] = record(parsed, benchmark)
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(
        {"label": args.label, **checkout, "seed": SEED, "seconds": seconds,
         "runs_per_trace": args.runs, "workloads": workloads},
        indent=1) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Compare the in-process simulation time of two source trees.

    python3 scripts/ab_sim.py TREE_A TREE_B --workload qft-48 --seed 1 \\
        --rounds 10

Each round runs one child process per tree, A first in even rounds and B
first in odd ones. A child imports qdd from its tree's src/, draws the
workload's jobs with its tree's perfbench/workloads.py and runs
``qdd.sample`` once per job, in the job's engine seed and shot count. It
reports the summed ``wall_time_ms`` of the jobs and the process time of
the ``sample`` calls (which includes freeing each universe). A job that
ends in NormDriftError counts as failed; its process time is kept, and it
has no ``wall_time_ms``.

Unlike perfbench's CLI children, this leaves out interpreter start-up,
imports and circuit parsing, so small differences in the simulation
itself are not drowned out by them. Both trees must draw the same jobs;
the run stops if their inputs differ. The output gives one line per round,
then per tree the median and quartiles of both times and the failed
count of every round, the rounds in which B was faster than A, and
whether the two trees' histograms and stats matched: "results
identical" only if every round of both trees gave the same digest.
``--mask KEY`` (repeatable) leaves the stat ``KEY`` out of that
comparison, so two trees that differ only in it, such as
``peak_unique_nodes``, read as identical.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

CHILD = r"""
import hashlib, json, sys, time
tree, masked = sys.argv[1], ["wall_time_ms", *json.loads(sys.argv[4])]
sys.path[:0] = [tree + "/src", tree + "/perfbench"]
import qdd
for key in masked:
    if not hasattr(qdd.SimStats(), key):
        sys.exit(f"--mask {key}: SimStats has no such field")
from workloads import make_jobs
inputs, results = hashlib.sha1(), hashlib.sha1()
wall_ms = cpu_s = 0.0
failed = 0
for job in make_jobs(sys.argv[2], int(sys.argv[3])):
    inputs.update(repr((qdd.serialize(job.circuit), job.seed,
                        job.shots)).encode())
    cfg = qdd.EngineConfig(seed=job.seed, shots=job.shots)
    t = time.process_time()
    try:
        stats = qdd.sample(job.circuit, cfg)
    except qdd.NormDriftError as err:
        failed += 1
        results.update(repr(("drift", err.op_index)).encode())
    else:
        wall_ms += stats.wall_time_ms
        for key in masked:
            setattr(stats, key, None)
        results.update(repr(stats).encode())
    cpu_s += time.process_time() - t
print(json.dumps({"wall_ms": wall_ms, "cpu_s": cpu_s, "failed": failed,
                  "inputs": inputs.hexdigest(),
                  "results": results.hexdigest()}))
"""
CHILD_TIMEOUT_S = 900


def child(tree: str, workload: str, seed: int, mask: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, os.path.abspath(tree), workload,
         str(seed), json.dumps(mask)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    if proc.returncode != 0:
        sys.exit(f"{tree}: child exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tree_a")
    ap.add_argument("tree_b")
    ap.add_argument("--workload", required=True,
                    choices=("qft-48", "clifford-t-10", "syndrome-23"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--mask", action="append", default=[], metavar="KEY",
                    help="leave this stat out of the results comparison")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    runs: dict[str, list[dict]] = {"A": [], "B": []}
    trees = {"A": args.tree_a, "B": args.tree_b}
    for r in range(args.rounds):
        for side in ("AB" if r % 2 == 0 else "BA"):
            runs[side].append(child(trees[side], args.workload, args.seed,
                                    args.mask))
        a, b = runs["A"][-1], runs["B"][-1]
        if a["inputs"] != b["inputs"]:
            sys.exit("the two trees drew different jobs")
        print(f"round {r}: wall_ms A {a['wall_ms']:.1f} B {b['wall_ms']:.1f}"
              f"  cpu_s A {a['cpu_s']:.3f} B {b['cpu_s']:.3f}", flush=True)
    for side in "AB":
        for key in ("wall_ms", "cpu_s"):
            q1, med, q3 = quartiles([run[key] for run in runs[side]])
            print(f"{side} {trees[side]}: {key} median {med:.4g} "
                  f"(quartiles {q1:.4g}-{q3:.4g})")
        failed = " ".join(str(run["failed"]) for run in runs[side])
        print(f"{side} {trees[side]}: failed per round {failed} "
              f"of the workload's jobs")
    for key in ("wall_ms", "cpu_s"):
        wins = sum(b[key] < a[key] for a, b in zip(runs["A"], runs["B"]))
        print(f"B faster on {key} in {wins} of {args.rounds} rounds")
    same = len({run["results"] for side in "AB" for run in runs[side]}) == 1
    print("results identical" if same else "results differ")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Print one digest line per qdd CLI call, to compare two source trees.

Each line reads ``<sha1[:12]> <invocation>``. The digest covers the exit
code, stderr and stdout, with the report's ``wall_time_ms`` removed, so
two trees that behave alike print identical lines. The circuits are
written here from fixed seeds, so both trees read the same inputs:

    PYTHONPATH=old/src python3 scripts/report_digests.py > old.txt
    PYTHONPATH=new/src python3 scripts/report_digests.py > new.txt
    diff old.txt new.txt

``--mask KEY`` (repeatable) also drops the report's ``KEY`` entries
before hashing, so two trees that differ only in that statistic, such as
``peak_unique_nodes``, print identical lines.

The 57 calls cover 12 random circuits (no, trailing and mid-circuit
measurement), each at the default GC threshold and at 20; five
unstructured 10-qubit, 300-gate H/T/CX circuits, each at both
thresholds, three of which exit 3 with a NormDriftError; two
11-qubit repetition-code syndrome circuits, whose mid-circuit outcomes
are random or certain (0 or 1), each at both thresholds; one 7-qubit
circuit whose mid-circuit outcomes are certain on the top, a middle and
the bottom qubit, with superposed qubits around them, at both
thresholds;
one 80-qubit circuit of H on every qubit, which exits 3 when the
per-gate norm check meets the precision wall;
``--dump-state`` with no ops and with no, trailing and mid-circuit
measurement;
``dot``, ``dot --gate`` (also on a 64-qubit circuit: a CX whose control
sits 60 qubits above its target, and H on the bottom qubit, and on a
1,200-qubit CX deeper than the recursion limit), four
``bench`` runs and one bad input. Exits 1
if any call ends in a traceback or an undocumented exit code.
"""

import argparse
import hashlib
import os
import random
import re
import subprocess
import sys
import tempfile

SINGLE = ("x", "y", "z", "h", "s", "sdg", "t", "tdg")
# (seed, job) of perfbench's clifford-t-10 workload; the last three drift
CLIFFORD_T = ((1, 0), (1, 1), (23, 2), (34, 0), (40, 0))
# seeds of syndrome_circuit: H on data qubit 2, then 4
SYNDROME = (1, 3)
# seed of certain_circuit: qubit 6 reads 1
CERTAIN = 5


def key_pattern(keys) -> re.Pattern:
    """Matches the value of every ``"key": value`` entry of ``keys``."""
    names = "|".join(re.escape(k) for k in keys)
    return re.compile(rf'"({names})": [^,\n]*')


def random_circuit(seed: int) -> str:
    """A seeded circuit; seed % 3 picks no, trailing or mid-circuit
    measurement."""
    rng = random.Random(seed)
    n = rng.randint(4, 8)
    lines = [f"qubits {n}"]
    for i in range(40):
        if seed % 3 == 2 and i == 20:
            lines.append(f"measure {rng.randrange(n)}")
        a, b, c = rng.sample(range(n), 3)
        kind = rng.randrange(8)
        if kind == 0:
            lines.append(f"cx {a} {b}")
        elif kind == 1:
            lines.append(f"cp {rng.randint(1, 5)} {a} {b}")
        elif kind == 2:
            lines.append(f"{rng.choice(('mcx', 'mcz'))} {a} {b} {c}")
        elif kind == 3:
            lines.append(f"p {rng.uniform(-3.2, 3.2)!r} {a}")
        elif kind == 4:
            lines.append(f"rk {rng.randint(1, 6)} {a}")
        elif kind < 7:
            lines.append(f"h {a}")
        else:
            lines.append(f"{rng.choice(SINGLE)} {a}")
    if seed % 3 == 1:
        lines.append("measure_all")
    return "\n".join(lines) + "\n"


def clifford_t_circuit(seed: int, job: int) -> tuple[str, int]:
    """Job ``job`` of perfbench's clifford-t-10 workload at ``seed``: H
    (30%), T (20%) or CX (50%) on drawn qubits, 300 gates on 10, and the
    engine seed drawn after them."""
    rng = random.Random(f"clifford-t-10/{seed}/{job}")
    lines = ["qubits 10"]
    for _ in range(300):
        r = rng.random()
        if r < 0.3:
            lines.append(f"h {rng.randrange(10)}")
        elif r < 0.5:
            lines.append(f"t {rng.randrange(10)}")
        else:
            lines.append("cx {} {}".format(*rng.sample(range(10), 2)))
    return "\n".join(lines) + "\n", rng.randrange(1 << 31)


def syndrome_circuit(seed: int) -> str:
    """Repetition-code syndrome extraction on 6 data qubits and 5
    ancillas: a GHZ state on the data, H on a drawn inner data qubit,
    then each ancilla takes the parity of its two data neighbours and is
    measured; the two parities that touch the H qubit agree, so the
    first is random and the second certain. Ends with measure_all."""
    rng = random.Random(f"syndrome/{seed}")
    data = 6
    lines = [f"qubits {2 * data - 1}", "h 0"]
    lines += [f"cx {q} {q + 1}" for q in range(data - 1)]
    lines.append(f"h {rng.randrange(1, data - 1)}")
    for i in range(data - 1):
        ancilla = data + i
        lines += [f"cx {i} {ancilla}", f"cx {i + 1} {ancilla}",
                  f"measure {ancilla}"]
    lines.append("measure_all")
    return "\n".join(lines) + "\n"


def certain_circuit(seed: int) -> str:
    """Mid-circuit measurements that are certain on the top (0), a middle
    (3) and the bottom (6) qubit of 7, each the parity of a Bell pair on
    superposed qubits around it: (1, 2) with parity 0 and (4, 5) with
    parity 1, dressed with drawn diagonal gates and paired X, which keep
    the parities. Qubit 0 reads 1, qubit 3 reads 0 and qubit 6 a drawn
    value; then a random measurement, more gates and measure_all."""
    rng = random.Random(f"certain/{seed}")
    lines = ["qubits 7", "h 1", "cx 1 2", "h 4", "cx 4 5", "x 5"]
    for _ in range(12):
        pair = rng.choice(((1, 2), (4, 5)))
        kind = rng.randrange(4)
        if kind == 0:
            lines += [f"x {pair[0]}", f"x {pair[1]}"]
        elif kind == 1:
            lines.append(f"p {rng.uniform(-3.2, 3.2)!r} {rng.choice(pair)}")
        else:
            lines.append(f"{rng.choice(('t', 's', 'z'))} {rng.choice(pair)}")
    lines += ["cx 4 0", "cx 5 0", "measure 0",
              "cx 1 3", "cx 2 3", "measure 3"]
    for pair in ((1, 2), (4, 5))[:rng.randint(1, 2)]:
        lines += [f"cx {pair[0]} 6", f"cx {pair[1]} 6"]
    lines += ["measure 6", "h 6", "measure 1", "cx 1 3", "t 3", "h 0",
              "measure_all"]
    return "\n".join(lines) + "\n"


def invocations() -> list[list[str]]:
    calls = []
    for seed in range(12):
        run = ["run", f"rand{seed:02d}.qdd", "--seed", str(seed),
               "--shots", "20"]
        calls += [run, run + ["--gc-threshold", "20"]]
    for seed, job in CLIFFORD_T:
        run = ["run", f"ct{seed:02d}-{job}.qdd", "--seed",
               str(clifford_t_circuit(seed, job)[1]), "--shots", "20"]
        calls += [run, run + ["--gc-threshold", "20"]]
    for seed in SYNDROME:
        run = ["run", f"syn{seed}.qdd", "--seed", str(seed), "--shots", "20"]
        calls += [run, run + ["--gc-threshold", "20"]]
    run = ["run", "certain.qdd", "--seed", "2", "--shots", "20"]
    calls += [run, run + ["--gc-threshold", "20"]]
    calls += [
        ["run", "rand00.qdd", "--dump-state"],
        ["run", "rand01.qdd", "--dump-state"],
        ["run", "rand02.qdd", "--dump-state", "--seed", "5"],
        ["run", "empty.qdd", "--dump-state"],
        ["run", "hwall.qdd"],
        ["dot", "rand00.qdd"],
        ["dot", "rand02.qdd", "--seed", "3"],
        ["dot", "rand01.qdd", "--gate", "7"],
        ["dot", "rand03.qdd", "--gate", "12"],
        ["dot", "wide.qdd", "--gate", "0"],
        ["dot", "wide.qdd", "--gate", "1"],
        ["dot", "deep.qdd", "--gate", "1"],
        ["bench", "entangle", "40", "--shots", "10"],
        ["bench", "qft", "12", "--seed", "4", "--shots", "50"],
        ["bench", "qft", "48", "--seed", "1", "--shots", "20"],
        ["bench", "grover", "6", "--marked", "101101", "--shots", "50"],
        ["run", "bad.qdd"],
    ]
    return calls


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--mask", action="append", default=[], metavar="KEY",
                        help="also drop this report key before hashing")
    masked = key_pattern(["wall_time_ms", *parser.parse_args().mask])
    env = dict(os.environ)
    paths = env.get("PYTHONPATH", "").split(os.pathsep)
    env["PYTHONPATH"] = os.pathsep.join(os.path.abspath(p) for p in paths if p)
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for seed in range(12):
            with open(os.path.join(tmp, f"rand{seed:02d}.qdd"), "w") as f:
                f.write(random_circuit(seed))
        for seed, job in CLIFFORD_T:
            with open(os.path.join(tmp, f"ct{seed:02d}-{job}.qdd"), "w") as f:
                f.write(clifford_t_circuit(seed, job)[0])
        for seed in SYNDROME:
            with open(os.path.join(tmp, f"syn{seed}.qdd"), "w") as f:
                f.write(syndrome_circuit(seed))
        with open(os.path.join(tmp, "certain.qdd"), "w") as f:
            f.write(certain_circuit(CERTAIN))
        with open(os.path.join(tmp, "wide.qdd"), "w") as f:
            f.write("qubits 64\ncx 2 62\nh 63\n")
        with open(os.path.join(tmp, "deep.qdd"), "w") as f:
            f.write("qubits 1200\nh 0\ncx 0 1199\n")
        with open(os.path.join(tmp, "empty.qdd"), "w") as f:
            f.write("qubits 3\n")
        with open(os.path.join(tmp, "hwall.qdd"), "w") as f:
            f.write("qubits 80\n" + "".join(f"h {q}\n" for q in range(80)))
        with open(os.path.join(tmp, "bad.qdd"), "w") as f:
            f.write("qubits 2\nh 0\ncx 0 5\n")
        for args in invocations():
            proc = subprocess.run([sys.executable, "-m", "qdd", *args],
                                  cwd=tmp, env=env, capture_output=True,
                                  text=True)
            out = masked.sub(r'"\1"', proc.stdout)
            blob = f"{proc.returncode}\n{proc.stderr}\n{out}".encode()
            print(hashlib.sha1(blob).hexdigest()[:12], "qdd", *args)
            if proc.returncode not in (0, 2, 3) or "Traceback" in proc.stderr:
                print(proc.stderr, file=sys.stderr)
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

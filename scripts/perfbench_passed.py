"""Pass perfbench output through; fail unless its result line (the last
line, JSON) shows ``"correct": true`` and ``"failed": 0``.

perfbench/run.py exits 0 whatever its result says, so a CI step pipes it
through this check:

    python3 perfbench/run.py --workload qft-48 --seed 1 --seconds 5 \\
        --trace 1 | python3 scripts/perfbench_passed.py
"""

import json
import sys

lines = sys.stdin.read().splitlines()
print("\n".join(lines))
try:
    result = json.loads(lines[-1])
except (IndexError, ValueError):
    result = {}
if result.get("correct") is not True or result.get("failed") != 0:
    sys.exit('perfbench: no result line with "correct": true and "failed": 0')

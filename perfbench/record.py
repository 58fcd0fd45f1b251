"""Record the workloads' simulated outputs into ``expected.json``.

    python3 perfbench/record.py

Records every workload at the bench scale for the default seed and one
held-out seed.  Re-record only when a change is meant to alter simulated
behaviour, and say so in the change: the benchmark treats any difference
from these values as a failed run.
"""

from __future__ import annotations

import json
import sys

from run import EXPECTED, Runner, compile_sources
from workloads import WORKLOADS, check_outputs

#: The harness default seed, and one seed held out from tuning.
SEEDS = (1, 7)


def main() -> int:
    if not compile_sources():
        return 2
    recorded: dict = {}
    for name in WORKLOADS:
        for seed in SEEDS:
            out = Runner(name, seed).leg("time")["outputs"]
            problems = check_outputs(out)
            if problems:
                print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                return 1
            recorded.setdefault(name, {})[str(seed)] = out
    EXPECTED.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

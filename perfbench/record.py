"""Rewrite expected.json: the output digest of every workload per seed.

    python3 perfbench/record.py

Always rewrites the whole table: full size, seeds 0-20; tiny size,
seed 7. Each digest comes from one untimed pass in a fresh worker
process.

Re-record only for a change that alters outputs on purpose; a change
that claims a speed-up must leave these digests as they are.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import SIZES, WORKLOADS  # noqa: E402

EXPECTED_PATH = HERE / "expected.json"
SEEDS = {"full": list(range(21)), "tiny": [7]}


def digest_of(workload: str, seed: int, size: str) -> str:
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--size", size,
        "--seconds", "0", "--spawned-at", repr(time.monotonic()),
    ]
    proc = subprocess.run(
        command, cwd=HERE.parent, stdout=subprocess.PIPE, text=True, check=True
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["digest"]


def main() -> int:
    expected = {}
    for size in SIZES:
        for workload in WORKLOADS:
            table = expected.setdefault(size, {})[workload] = {}
            for seed in SEEDS[size]:
                table[str(seed)] = digest_of(workload, seed, size)
                print(f"{size} {workload} seed {seed}: {table[str(seed)]}", flush=True)
    EXPECTED_PATH.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Determinism self-check for the benchmark.

    python3 bench/selfcheck.py [--seed N] [workload ...]

Runs ``run.py`` twice per workload with the same seed, each in a fresh
process, and requires the same call script (by its sha256), the same
numbers of calls attempted and failed, and identical exact counts.  Exits 1
on any difference.  Both runs use the same short ``--seconds`` (SECONDS),
which fixes the script length; it is long enough for bip_toggle's script to
hold a delete.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
EXACT = ("work_per_insert", "work_per_delete", "depth_max_update", "init_work", "work_slope")
WORKLOADS = ("conn_churn", "conn_sparse_reads", "bip_toggle")
SECONDS = 4


def once(workload, seed):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        capture_output=True, text=True, check=True,
    ).stdout
    digest = re.search(r"script sha256 ([0-9a-f ]+)", out).group(1)
    result = json.loads(out.strip().splitlines()[-1])
    counts = {k: result[k] for k in ("attempted", "failed")}
    counts.update((k, result["metrics"][k]["value"]) for k in EXACT)
    return digest, counts, result["correct"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*", default=WORKLOADS)
    args = parser.parse_args()
    same = True
    for workload in args.workloads:
        first, second = once(workload, args.seed), once(workload, args.seed)
        ok = first == second and first[2]
        same &= ok
        print(f"{workload} seed {args.seed}: {'same' if ok else 'DIFFERENT'}")
        for run in (first, second):
            print(f"  scripts {run[0]} correct {run[2]} {run[1]}")
    sys.exit(0 if same else 1)


if __name__ == "__main__":
    main()

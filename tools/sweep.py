"""Scaling sweep of the connectivity facade over n = 2^6 ... 2^12.

    python3 tools/sweep.py

For each n it builds `conn_churn("1/0", n, length=300)` from
`bench/workloads.py`, sets it up and replays every call with the
benchmark's own `setup` and `drive` (`bench/run.py`; the workload runs
under the arbitrary policy), and prints one JSON line.  Per update kind the
line holds the number of calls and of failed calls, their mean metered
work, their worst depth beside the facade's depth budget, `slack`, the
budget over that worst depth (a budget within 5x of the deepest call reads
at most 5), and their median wall time in ms; it also holds the root
forest's chunk capacity K and slot count J.  Once the calls are done,
`fill` is the largest share of its bound 2*span - 3 (see `SparsNode`)
that any materialized node's base graph holds, and `root_fill` the root's
share, which shows the room the gadget sizing leaves where K and J are
largest.  `fill` reads 1 when some node is full, such as a bottom diagonal
node that holds the one edge inside its part of 2 ids; otherwise it is
often the root's share (0.714 at n = 1024).  Metered figures are exact
counts that repeat bit for bit on any host; wall times are the host's own.  The
sweep exits 1, naming each offending point on stderr, when any call failed
or any update's depth went above its budget.  It takes about 15-20 s on a
shared 2-core x86-64 VM with CPython 3.11.

The sweep lives outside `bench/`, whose files define the gated benchmark;
it only reads the workload generator and the replay loop from there.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from run import drive, setup  # noqa: E402
from workloads import conn_churn  # noqa: E402

SEED = 1
CALLS = 300
SIZES = [2**k for k in range(6, 13)]
KINDS = {"insert_edge": "insert", "delete_edge": "delete"}


def sweep_point(seed, n, calls):
    w = conn_churn(f"{seed}/0", n=n, length=calls)
    f, _, _ = setup(w)
    log = drive(f, w.calls)
    forest = f.core.root().conn.inner
    point = {
        "n": n, "K": forest.K, "J": forest.store.slot_count,
        "fill": max(map(fill, f.core.nodes.values())), "root_fill": fill(f.core.root()),
    }
    for op, kind in KINDS.items():
        mine = [i for i, o in enumerate(log.ops) if o == op]
        depth = max(log.depth[i] for i in mine)
        point[kind] = {
            "calls": len(mine),
            "failed": sum(log.failed[i] for i in mine),
            "work": round(statistics.fmean(log.work[i] for i in mine), 1),
            "depth": depth,
            "budget": f.budgets[kind],
            "slack": round(f.budgets[kind] / depth, 2),
            "p50_ms": round(statistics.median(log.ns[i] for i in mine) / 1e6, 3),
        }
    return point


def fill(node):
    """The node's base-graph edges over its bound 2*span - 3 (0 for a bound
    of 0, which holds no edge)."""
    bound = 2 * len(node.conn.host_active) - 3
    return round(len(node.conn.ports) // 2 / bound, 3) if bound > 0 else 0


def problems(point):
    """What the point shows wrong: a failed call, or a depth above its
    budget, per update kind."""
    out = []
    for kind in KINDS.values():
        row = point[kind]
        if row["failed"]:
            out.append(f"n = {point['n']}: {row['failed']} failed {kind} calls")
        if row["depth"] > row["budget"]:
            out.append(f"n = {point['n']}: {kind} depth {row['depth']} "
                       f"above its budget {row['budget']}")
    return out


def main():
    bad = []
    for n in SIZES:
        point = sweep_point(SEED, n, CALLS)
        print(json.dumps(point), flush=True)
        bad += problems(point)
    for line in bad:
        print(line, file=sys.stderr)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()

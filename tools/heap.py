"""Heap and collector profile of one benchmark instance.

    python3 tools/heap.py

It builds conn_sparse_reads' first instance, "1/0", with the script length
one instance of `bench/run.py --seconds 20` gets, and replays it with
the benchmark's own `setup` and `drive` (`bench/run.py`), after the same
`_settle` the benchmark runs before each set-up.  It prints

  - the sparsification nodes materialized, and those whose Euler forest
    ever chunked a tour (it then holds a master array);
  - the materialized nodes per level of the tree, root first, and how many
    of them hold no edge;
  - the objects the garbage collector tracks once the calls are done and
    a full collection has freed what was garbage, by type, in all and per
    materialized node (the script and the other objects `_settle` froze
    are not counted);
  - the collector's passes and seconds per generation over the timed
    calls, from a `gc.callbacks` hook installed for the replay and removed
    after, beside the wall time of the calls.

The node and object counts repeat for a seed on any host; collector passes
follow from the allocations and repeat too, but their seconds are the
host's own.  A 20 s conn_sparse_reads instance (43333 calls) takes about
5 s on a shared 2-core x86-64 VM with CPython 3.11.

The tool lives outside `bench/`, whose files define the gated benchmark; it
only reads the workload generators and the replay loop from there.
"""

from __future__ import annotations

import gc
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from run import _settle, drive, script_length, setup  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKLOAD = "conn_sparse_reads"
SEED = 1
SECONDS = 20
GENERATIONS = 3
TOP_TYPES = 12


@contextmanager
def collector_log(passes, seconds):
    """Count into `passes` and `seconds` (one entry per generation) the
    collector runs that start while the block runs."""
    started = []

    def hook(phase, info):
        if phase == "start":
            started.append(perf_counter_ns())
        elif started:
            gen = info["generation"]
            passes[gen] += 1
            seconds[gen] += (perf_counter_ns() - started.pop()) / 1e9

    gc.callbacks.append(hook)
    try:
        yield
    finally:
        gc.callbacks.remove(hook)


def profile(name, seed, seconds):
    """Replay the first instance of workload `name`; returns its figures as
    a dict (see the module docstring)."""
    w = WORKLOADS[name](f"{seed}/0", length=script_length(name, seconds))
    _settle()
    f, _, _ = setup(w)
    passes, spent = [0] * GENERATIONS, [0.0] * GENERATIONS
    with collector_log(passes, spent):
        log = drive(f, w.calls)
    nodes = f.core.nodes.values()
    chunked = sum(node.conn.inner.master is not None for node in nodes)
    by_level = {}  # level: [nodes, nodes that hold no edge]
    for node in nodes:
        counts = by_level.setdefault(node.key[0], [0, 0])
        counts[0] += 1
        counts[1] += not node.conn.ports
    gc.collect()  # count what the structure holds, not garbage awaiting a pass
    tracked = Counter(type(o).__name__ for o in gc.get_objects())
    return {
        "workload": name, "seed": seed, "n": w.n, "calls": len(log.ops),
        "nodes": len(nodes), "chunked": chunked,
        "by_level": dict(sorted(by_level.items())), "tracked": tracked,
        "passes": passes, "gc_s": spent, "calls_s": log.elapsed,
    }


def main():
    p = profile(WORKLOAD, SEED, SECONDS)
    nodes = max(p["nodes"], 1)
    print(f"{p['workload']} {p['seed']}/0, n = {p['n']}, {p['calls']} calls: "
          f"{p['nodes']} nodes materialized, {p['chunked']} ever chunked a tour")
    print(f"\n{'level':>5s} {'nodes':>7s} {'no edge':>8s}")
    for level, (count, empty) in p["by_level"].items():
        print(f"{level:5d} {count:7d} {empty:8d}")
    total = sum(p["tracked"].values())
    print(f"\n{'tracked objects':24s} {'count':>9s} {'per node':>9s}")
    for kind, count in p["tracked"].most_common(TOP_TYPES):
        print(f"{kind:24s} {count:9d} {count / nodes:9.2f}")
    rest = total - sum(c for _, c in p["tracked"].most_common(TOP_TYPES))
    print(f"{'(other types)':24s} {rest:9d} {rest / nodes:9.2f}")
    print(f"{'(all)':24s} {total:9d} {total / nodes:9.2f}")
    gc_s = sum(p["gc_s"])
    print(f"\ncollector over the timed calls ({p['calls_s']:.3f} s wall, "
          f"{gc_s:.3f} s collecting, {gc_s / max(p['calls_s'], 1e-9):.1%})")
    for gen in range(GENERATIONS):
        print(f"  generation {gen}: {p['passes'][gen]:5d} passes {p['gc_s'][gen]:8.3f} s")


if __name__ == "__main__":
    main()

"""dynconn benchmark: one closed-loop client driving the public facades.

    python3 bench/run.py --workload conn_churn --seed 1 --seconds 20 --trace 0

One process, one thread: each facade call is issued when the previous one
returns.  Call scripts are generated from ``--seed`` before any timing
starts (see ``workloads.py``).  An untraced run takes PARTS independent
instances of the workload, so that one random graph does not set the
result, and for each instance

  1. sets the facade up (construct, activate every node, insert the initial
     edges), timing it;
  2. runs its whole script, timing every call.  A script holds
     ``--seconds / PARTS`` times the workload's ``RATE`` calls, so the
     number of calls, which of them fail and every metered count depend on
     the seed and ``--seconds`` only, never on the clock;
  3. checks, outside the timed region, every ``connected``, ``n_components``
     and ``is_bipartite`` answer against the brute-force oracles on its own
     reference graph, the final edge set and component count, and
     ``check_spars_tree`` on the final structure; a wrong answer makes
     ``correct`` false.

Metrics pool the instances.  Call timings are reported in ``ref_`` units:
wall time scaled by the speed of the host over the same instance, measured
with a reference loop run between calls (see ``REF_NOMINAL_NS``).
``ops_per_s`` is calls per second of that scaled time spent inside facade
calls.  ``setup_s`` is the median of the instances' set-ups, each scaled
by the host's speed over its instance in the same way, so it is in seconds
on the reference host.  The wall figures are printed above the result.
``work_slope``, the paper's work exponent, comes from a count-only replay
of the conn_churn mix at n = 64 ... 512.

Every call that raises counts as failed (``failed`` in the result, and
``ok_share`` is the share that did not raise); after a failed update the
structure's own edge set tells the reference graph whether the update took
effect.  Latency percentiles cover failed calls too.  Metered work and
depth are exact counts, so they repeat bit for bit for a seed and
``--seconds`` whatever the machine.

With ``--trace 1`` the run instead takes the first instance's script twice
on fresh set-ups, untraced and then with span wrappers around every layer's
public functions (``tracer.py``), and reports the per-layer metrics.
BENCHMARK.json lists the gated workloads; ``bip_toggle`` runs by name only
(see its docstring).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

PARTS = 3
SLOPE_SIZES = (64, 128, 256, 512)
SLOPE_CALLS = 300
UPDATES = ("insert_edge", "delete_edge")
CHECKED_QUERIES = ("connected", "is_bipartite")

# The reference loop: a fixed piece of pure-Python work, independent of
# dynconn, run between timed calls about every REF_EVERY_NS.  Each call's
# time is scaled by REF_NOMINAL_NS / (median time of the REF_WINDOW loop
# runs on either side of it), so a `ref_` unit is that unit on a host where
# the loop takes REF_NOMINAL_NS.  On a shared 2-core x86-64 VM the host's
# speed drifts by up to 1.6x between runs a minute apart and by 40% within
# seconds; the loop moves with it.  Over 14 repeats of one conn_churn
# instance there, the quartile spread of total call time fell from 0.165
# (wall) to 0.024 (scaled), of the median delete from 0.161 to 0.031.
REF_NOMINAL_NS = 1_000_000
REF_EVERY_NS = 50_000_000
REF_WINDOW = 5
_REF_TABLE = {i: i * 7 for i in range(4096)}


def reference_loop():
    table, acc = _REF_TABLE, 0
    for i in range(6000):
        acc += table[(i * 31) & 4095] ^ (acc & 255)
    return acc


def load_package():
    if not (SRC_DIR / "dynconn" / "__init__.py").is_file():
        sys.exit(f"bench: dynconn sources not found under {SRC_DIR}")
    sys.path.insert(0, str(SRC_DIR))


def new_meter(w):
    from dynconn import ArbitraryPolicy, CommonPolicy, CostMeter

    policy = CommonPolicy(epsilon=0.25) if w.policy == "common" else ArbitraryPolicy(0)
    return CostMeter(policy)


def setup(w, meter=None):
    """Build a facade holding the initial edges; returns it, its wall time and
    the initial edges that the structure holds.  An insert that raises is
    not retried: the structure's edge set says whether it took effect."""
    from dynconn.sparsify import DynamicBipartiteness, DynamicConnectivity

    cls = DynamicBipartiteness if w.mode == "bipartiteness" else DynamicConnectivity
    meter = meter or new_meter(w)
    t0 = perf_counter()
    f = cls(w.n, meter=meter)
    for v in range(1, w.n + 1):
        f.activate_node(v)
    for u, v in w.edges:
        try:
            f.insert_edge(u, v)
        except Exception:  # counted by the caller through `held`
            pass
    elapsed = perf_counter() - t0
    held = [e for e in w.edges if f.core.graph.has_edge(e[0] - 1, e[1] - 1)]
    return f, elapsed, held


class Log:
    """Per-call record of one timed phase."""

    def __init__(self):
        self.ops = []
        self.ns = []
        self.work = []
        self.depth = []
        self.answers = []   # return value, or the exception type name
        self.failed = []
        self.present = {}   # call index -> edge presence after a failed update
        self.internal = []  # raises other than MeterError and ValueError
        self.elapsed = 0.0  # wall time of the calls, without reference loops
        self.ref_ns = []    # times of the reference loop runs
        self.ref_at = []    # index of the call each of them preceded
        self.init_work = 0  # meter.init_work at the end of the script


def drive(f, calls):
    """Issue every call of the script in a closed loop."""
    from dynconn import MeterError

    meter = f.meter
    graph = f.core.graph
    log = Log()
    t_start = perf_counter_ns()
    next_ref = t_start
    for i, (op, args) in enumerate(calls):
        if perf_counter_ns() >= next_ref:
            r0 = perf_counter_ns()
            reference_loop()
            next_ref = perf_counter_ns()
            log.ref_ns.append(next_ref - r0)
            log.ref_at.append(i)
            next_ref += REF_EVERY_NS
        fn = getattr(f, op)
        w0, d0 = meter.work, meter.depth
        t0 = perf_counter_ns()
        try:
            out = fn(*args)
            failed = False
        except Exception as exc:  # every raise is a failed call; see module doc
            out = type(exc).__name__
            failed = True
            if not isinstance(exc, (MeterError, ValueError)):
                log.internal.append(f"call {i} {op}{args}: {out}: {exc}")
        t1 = perf_counter_ns()
        log.ops.append(op)
        log.ns.append(t1 - t0)
        log.work.append(meter.work - w0)
        log.depth.append(meter.depth - d0)
        log.answers.append(out)
        log.failed.append(failed)
        if failed and op in UPDATES:
            log.present[i] = graph.has_edge(args[0] - 1, args[1] - 1)
    log.elapsed = (perf_counter_ns() - t_start - sum(log.ref_ns)) / 1e9
    log.init_work = meter.init_work
    return log


def ref_scales(log):
    """Each call's scale factor to the reference host (see REF_NOMINAL_NS)."""
    runs = log.ref_ns
    scales = []
    for k, start in enumerate(log.ref_at):
        near = runs[max(0, k - REF_WINDOW) : k + REF_WINDOW + 1]
        end = log.ref_at[k + 1] if k + 1 < len(runs) else len(log.ops)
        scales += [REF_NOMINAL_NS / statistics.median(near)] * (end - start)
    return scales


def check_answers(w, held, log, f):
    """Replay the calls on a reference graph and compare every checkable
    answer; returns a list of mismatch descriptions."""
    from dynconn.oracle import (
        SimpleGraph, bf_bipartite, bf_components, bf_connected, check_spars_tree,
    )

    g = SimpleGraph()
    for v in range(w.n):
        g.activate(v)
    for u, v in held:
        g.add_edge(u - 1, v - 1)
    components = bf_components(g)
    bad = []
    for i, op in enumerate(log.ops):
        args = w.calls[i][1]
        out = log.answers[i]
        if op in UPDATES:
            x, y = args[0] - 1, args[1] - 1
            want = op == "insert_edge" if not log.failed[i] else log.present[i]
            if want and not g.has_edge(x, y):
                components -= not bf_connected(g, x, y)
                g.add_edge(x, y)
            elif not want and g.has_edge(x, y):
                g.remove_edge(x, y)
                components += not bf_connected(g, x, y)
            continue
        if log.failed[i]:
            continue
        if op == "connected":
            truth = bf_connected(g, args[0] - 1, args[1] - 1)
        elif op == "is_bipartite":
            truth = bf_bipartite(g)
        elif op == "n_components":
            truth = components
        else:
            continue
        if out != truth:
            bad.append(f"call {i} {op}{args}: got {out}, want {truth}")
    if sorted(g.edges()) != sorted(f.core.graph.edges()):
        bad.append("final edge set differs from the reference graph")
    got, truth = f.n_components(), bf_components(g)
    if got != truth or components != truth:
        bad.append(f"final n_components {got}, want {truth}")
    try:
        check_spars_tree(f.core)
    except AssertionError as exc:
        bad.append(f"check_spars_tree: {exc}")
    return bad


def _settle():
    """Free the previous structure and exempt the benchmark's own long-lived
    objects (scripts, logs) from later collections, so that every set-up
    starts from the same collector state."""
    gc.collect()
    gc.freeze()


def exact_counts(log, limit=None):
    """Metered work of each insert and delete, and the largest depth of any
    update, over the first `limit` calls (all calls by default)."""
    calls = range(len(log.ops) if limit is None else limit)
    ins = [log.work[i] for i in calls if log.ops[i] == "insert_edge"]
    dels = [log.work[i] for i in calls if log.ops[i] == "delete_edge"]
    depth = max(log.depth[i] for i in calls if log.ops[i] in UPDATES)
    return ins, dels, depth


def work_slope(seed, w, log):
    """Least-squares slope of log(mean update work) against log(n) for the
    conn_churn mix, the paper's work exponent: its first SLOPE_CALLS calls
    at each SLOPE_SIZES size, replayed count-only.  `log` is the run of
    workload `w`, which supplies its own size's point if it is conn_churn."""
    from workloads import conn_churn

    xs, ys = [], []
    for n in SLOPE_SIZES:
        point = log
        if w.name != "conn_churn" or n != w.n or len(log.ops) < SLOPE_CALLS:
            small = conn_churn(f"{seed}/0", n=n, length=SLOPE_CALLS)
            f, _, _ = setup(small)
            point = drive(f, small.calls)
        ins, dels, _ = exact_counts(point, SLOPE_CALLS)
        xs.append(math.log(n))
        ys.append(math.log(statistics.fmean(ins + dels)))
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def script_digest(w):
    h = hashlib.sha256(repr((w.n, w.edges, w.calls)).encode())
    return h.hexdigest()


def script_length(name, seconds):
    from workloads import RATE

    return max(1, round(seconds * RATE[name] / PARTS))


def run_untraced(name, seed, seconds):
    """PARTS independent instances, each set up, run through its script and
    checked; metrics pool the parts."""
    from workloads import WORKLOADS

    length = script_length(name, seconds)
    setups, ref_setups, parts, bad = [], [], [], []
    for k in range(PARTS):
        w = WORKLOADS[name](f"{seed}/{k}", length=length)
        _settle()
        f, elapsed, held = setup(w)
        log = drive(f, w.calls)
        setups.append(elapsed)
        ref_setups.append(elapsed * REF_NOMINAL_NS / statistics.median(log.ref_ns))
        bad += check_answers(w, held, log, f)
        parts.append((w, log))
        f = None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    slope = work_slope(seed, *parts[0])

    keys = ("insert_edge", "delete_edge", "query")
    lat = {op: [] for op in keys}  # scaled to the reference host
    raw = {op: [] for op in keys}  # wall time
    ins, dels, depth, ref_time = [], [], 0, 0.0
    for w, log in parts:
        for op, ns, scale in zip(log.ops, log.ns, ref_scales(log)):
            ref_time += ns * scale / 1e9
            key = "query" if op in CHECKED_QUERIES else op
            if key in lat:
                lat[key].append(ns * scale)
                raw[key].append(ns)
        i, d, dep = exact_counts(log)
        ins += i
        dels += d
        depth = max(depth, dep)
    n_calls = sum(len(log.ops) for _, log in parts)
    n_failed = sum(sum(log.failed) for _, log in parts)
    elapsed = sum(log.elapsed for _, log in parts)
    metrics = {
        "setup_s": (statistics.median(ref_setups), "s"),
        "ops_per_s": (n_calls / ref_time, "1/ref_s"),
        "insert_p50_ms": (statistics.median(lat["insert_edge"]) / 1e6, "ref_ms"),
        "insert_p90_ms": (quantile(lat["insert_edge"], 90) / 1e6, "ref_ms"),
        "delete_p50_ms": (statistics.median(lat["delete_edge"]) / 1e6, "ref_ms"),
        "delete_p90_ms": (quantile(lat["delete_edge"], 90) / 1e6, "ref_ms"),
        "query_p50_us": (statistics.median(lat["query"]) / 1e3, "ref_us"),
        "ok_share": (1 - n_failed / n_calls, "ratio"),
        "work_per_insert": (statistics.fmean(ins), "work"),
        "work_per_delete": (statistics.fmean(dels), "work"),
        "depth_max_update": (depth, "depth"),
        "init_work": (statistics.fmean(log.init_work for _, log in parts), "work"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "work_slope": (slope, "exponent"),
    }
    w = parts[0][0]
    print(f"workload {name} seed {seed} n {w.n} policy {w.policy}; closed loop, "
          f"1 client; {PARTS} instances of {length} calls, script sha256 "
          f"{' '.join(script_digest(w)[:16] for w, _ in parts)}")
    ref_ms = [statistics.median(log.ref_ns) / 1e6 for _, log in parts]
    print(f"setups {[round(s, 4) for s in setups]} s wall, "
          f"{[round(s, 4) for s in ref_setups]} s scaled; {n_calls} calls in "
          f"{elapsed:.3f} s wall, {n_calls / elapsed:.2f}/s; reference loop "
          f"medians {[round(r, 4) for r in ref_ms]} ms (nominal "
          f"{REF_NOMINAL_NS / 1e6} ms)")
    print(f"samples: insert {len(lat['insert_edge'])}, delete "
          f"{len(lat['delete_edge'])}, query {len(lat['query'])}; wall p50 "
          f"insert {statistics.median(raw['insert_edge']) / 1e6:.4f} ms, delete "
          f"{statistics.median(raw['delete_edge']) / 1e6:.4f} ms, query "
          f"{statistics.median(raw['query']) / 1e3:.3f} us")
    for _, log in parts:
        _report_failures(log)
    return not bad, bad, n_calls, n_failed, metrics


def _report_failures(log):
    kinds = {}
    for op, out, failed in zip(log.ops, log.answers, log.failed):
        if failed:
            kinds[f"{op}:{out}"] = kinds.get(f"{op}:{out}", 0) + 1
    n_failed = sum(log.failed)
    print(f"failed_share {n_failed / len(log.ops):.6f} ({n_failed} of "
          f"{len(log.ops)} calls raised: "
          f"{', '.join(f'{k} {v}' for k, v in sorted(kinds.items())) or 'none'})")
    for line in log.internal[:5]:
        print(f"internal error: {line}")


def run_traced(w):
    """Run the script untraced, then traced, on fresh set-ups."""
    from tracer import LAYERS, Tracer, install

    _settle()
    f, _, held = setup(w)
    base = drive(f, w.calls)
    bad = check_answers(w, held, base, f)
    f = None
    _settle()
    meter = new_meter(w)
    tracer = Tracer(meter)
    with install(tracer):
        f, _, held = setup(w, meter)
        setup_construct = _construct(tracer)
        tracer.reset()
        log = drive(f, w.calls)
    bad += check_answers(w, held, log, f)

    t = tracer
    metrics = {}
    for name in LAYERS:
        lay = t.layers[name]
        metrics[f"{name}.calls"] = (lay.calls, "count")
        metrics[f"{name}.self_s"] = (lay.self_ns / 1e9, "s")
        metrics[f"{name}.work"] = (lay.self_work, "work")
    facade_updates = t.calls("_Facade.insert_edge", "_Facade.delete_edge")
    conn_updates = ("ConnGeneral.insert_edge", "ConnGeneral.delete_edge",
                    "ConnGeneral.delete_edge_with_hint")
    forest_updates = ("EulerForest.insert_edge", "EulerForest.delete_edge",
                      "EulerForest.delete_edge_with_hint")
    sparsify_labels = t.labels_of("sparsify")
    deletes = t.results.get("EulerForest.delete_edge", {})
    for kind, count in t.results.get("EulerForest.delete_edge_with_hint", {}).items():
        deletes[kind] = deletes.get(kind, 0) + count
    tree_deletes = sum(c for k, c in deletes.items() if k != "non_tree_deleted")
    queries = t.results.get("MasterArray.query", {})
    construct = _construct(t)
    traced_rate = len(log.ops) / log.elapsed
    base_rate = len(base.ops) / base.elapsed
    metrics.update({
        "sparsify.conn_updates_per_update": (
            _ratio(t.pair_calls(sparsify_labels, conn_updates), facade_updates), "ratio"),
        "sparsify.nodes": (len(f.core.nodes), "count"),
        "reductions.forest_updates_per_conn_update": (
            _ratio(t.pair_calls(conn_updates, forest_updates), t.calls(*conn_updates)),
            "ratio"),
        "reductions.bip_forest_updates_per_host_update": (
            _ratio(t.pair_calls(("BipartiteGeneral.apply_edge",),
                                ("BipartiteBounded.apply_edge",)),
                   t.calls("BipartiteGeneral.apply_edge")), "ratio"),
        "reductions.construct.calls": (construct[0], "count"),
        "reductions.construct_s": (construct[1], "s"),
        "reductions.setup_construct.calls": (setup_construct[0], "count"),
        "reductions.setup_construct_s": (setup_construct[1], "s"),
        "eulerforest.tree_delete_share": (
            _ratio(tree_deletes, sum(deletes.values())), "ratio"),
        "eulerforest.replaced_share": (
            _ratio(deletes.get("replaced_by", 0), tree_deletes), "ratio"),
        "chunks.query.calls": (t.calls("MasterArray.query"), "count"),
        "chunks.query.hit_share": (
            _ratio(queries.get(True, 0), t.calls("MasterArray.query")), "ratio"),
        "chunks.bulk_set_links.calls": (t.calls("MasterArray.bulk_set_links"), "count"),
        "chunks.bulk_set_links.self_s": (
            t.stat("MasterArray.bulk_set_links").self_ns / 1e9, "s"),
        "chunks.deactivate.self_s": (t.stat("MasterArray.deactivate").self_ns / 1e9, "s"),
        "chunks.slot_occupancy": (_slot_occupancy(f), "ratio"),
        "aggtree.split.calls": (t.calls("AggTree.split"), "count"),
        "aggtree.join.calls": (t.calls("aggtree.join"), "count"),
        "aggtree.bit_set.calls": (t.calls("AggTree.bit_set"), "count"),
        "aggtree.bulk_set.calls": (t.calls("AggTree.bulk_set"), "count"),
        "costmodel.reduce_extremum.calls": (t.calls("CostMeter.reduce_extremum"), "count"),
        "trace_overhead": (traced_rate / base_rate, "ratio"),
        "traced_ops_per_s": (traced_rate, "1/s"),
        "untraced_ops_per_s": (base_rate, "1/s"),
    })
    print(f"workload {w.name} n {w.n} policy {w.policy}; traced run over "
          f"{len(w.calls)} calls; script sha256 {script_digest(w)}")
    n_failed = sum(log.failed)
    _report_failures(log)
    return not bad, bad, len(log.ops), n_failed, metrics


def _construct(tracer):
    """Gadget structures built by lazy node materialization: calls and the
    time spent in them (children of SparsNode construction)."""
    node = tracer.stat("SparsNode.__init__")
    calls = tracer.pair_calls(("SparsNode.__init__",), tracer.labels_of("reductions"))
    return calls, (node.incl_ns - node.self_ns) / 1e9


def _slot_occupancy(f):
    stores = []
    for node in f.core.nodes.values():
        stores.append(node.conn.inner.store)
        if node.bip is not None:
            stores += [node.bip.inner.g.store, node.bip.inner.p2.inner.store]
    slots = sum(s.slot_count for s in stores)
    return sum(s.slot_count - len(s.free) for s in stores) / slots


def _ratio(num, den):
    return num / den if den else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if args.trace:
        length = script_length(args.workload, args.seconds)
        w = WORKLOADS[args.workload](f"{args.seed}/0", length=length)
        ok, bad, attempted, failed, metrics = run_traced(w)
    else:
        ok, bad, attempted, failed, metrics = run_untraced(
            args.workload, args.seed, args.seconds
        )
    for line in bad[:20]:
        print(f"WRONG: {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()

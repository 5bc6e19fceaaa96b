"""The benchmark's traced run still fits the package.

`bench/tracer.py` wraps the layers' functions by name and `bench/run.py`
reads structure internals for `chunks.slot_occupancy` and for its answer
check.  A rename in the package would otherwise show only when
`bench/run.py` fails.  The benchmark's scripts also drive a soak that
checks every chunked node forest after every update.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from dynconn.costmodel import ArbitraryPolicy, CommonPolicy
from dynconn.oracle import check_euler_forest, check_spars_tree
from dynconn.sparsify import DynamicBipartiteness, DynamicConnectivity

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up by name while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracer = load("tracer")
    missing = []
    for layer, owner, names in tracer._targets():
        assert layer in tracer.LAYERS
        for name in names:
            if not callable(vars(owner).get(name)):
                missing.append(f"{owner.__name__}.{name}")
    assert not missing


@pytest.mark.parametrize(
    "facade", [DynamicConnectivity, DynamicBipartiteness], ids=["conn", "bip"]
)
def test_slot_occupancy_reads_a_facade(facade):
    run = load("run")
    f = facade(16)
    for v in range(1, 17):
        f.activate_node(v)
    for u, v in [(1, 2), (2, 3), (3, 4), (4, 1), (5, 6), (9, 16)]:
        f.insert_edge(u, v)
    assert 0.0 < run._slot_occupancy(f) <= 1.0


@pytest.mark.parametrize(
    "name, n, length",
    [("conn_churn", 64, 200), ("conn_sparse_reads", 64, 400), ("bip_toggle", 16, 60)],
    ids=["conn_churn-200", "conn_sparse_reads-400", "bip_toggle-16-60"],
)
def test_gated_workload_drives_and_checks(name, n, length):
    run, workloads = load("run"), load("workloads")
    w = getattr(workloads, name)("1/0", n=n, length=length)
    f, _, held = run.setup(w)
    log = run.drive(f, w.calls)
    assert held == w.edges
    assert run.check_answers(w, held, log, f) == []
    assert log.internal == []
    assert not any(log.failed)
    # a script that asks is_bipartite reaches both answers
    bip = {out for op, out in zip(log.ops, log.answers) if op == "is_bipartite"}
    assert bip in (set(), {True, False})
    # `sparsify.nodes` and `chunks.slot_occupancy` read `f.core.nodes`: the
    # one tree there is, the cover over 2n nodes in bipartiteness mode
    tree = getattr(f.core, "cover", f.core)
    assert tree.n == (2 if w.mode == "bipartiteness" else 1) * n
    assert len(f.core.nodes) == len(tree.nodes) > 1


def test_checking_a_sparse_reads_replay_builds_no_master_array():
    """On conn_sparse_reads' 16-node blocks no forest chunks a tour, so no
    node holds a master array, before or after the benchmark's checks
    (`check_answers` runs `check_spars_tree`)."""
    run, workloads = load("run"), load("workloads")
    w = workloads.conn_sparse_reads("1/0", length=2000)
    f, _, held = run.setup(w)
    log = run.drive(f, w.calls)
    forests = [node.conn.inner for node in f.core.nodes.values()]
    assert len(forests) > 1 and all(forest.master is None for forest in forests)
    assert run.check_answers(w, held, log, f) == []
    check_spars_tree(f.core)
    assert all(forest.master is None for forest in forests)


@pytest.mark.parametrize("policy", [ArbitraryPolicy(1), CommonPolicy(0.25)])
@pytest.mark.parametrize(
    "name, seed, n, length",
    [
        ("conn_churn", "1/0", 128, 100),
        ("conn_churn", "3/0", 128, 100),
        ("bip_toggle", "1/0", 64, 60),
        ("bip_toggle", "2/0", 64, 60),
    ],
    ids=[
        "conn_churn-1", "conn_churn-3-stale-at-call-55", "bip_toggle-1",
        "bip_toggle-2-stale-at-call-14",
    ],
)
def test_every_chunked_forest_holds_after_every_update(name, seed, n, length, policy):
    """Benchmark scripts replayed on both facades under both write
    policies, with `check_euler_forest`, link vectors included, run on
    every node forest that holds a master array after every update, set-up
    included.  Two of the scripts left stale link vectors under a first
    rule that refreshed a chunk only when its node set gained or lost a
    node with a non-tree edge, or held an endpoint of the promoted
    replacement: conn_churn n = 128 "3/0" after call 55, and bip_toggle
    n = 64 "2/0" after call 14."""
    w = getattr(load("workloads"), name)(seed, n=n, length=length)
    make = DynamicBipartiteness if w.mode == "bipartiteness" else DynamicConnectivity
    f = make(w.n, policy=policy)
    for v in range(1, w.n + 1):
        f.activate_node(v)
    tree = getattr(f.core, "cover", f.core)
    checked = 0
    for op, args in [("insert_edge", e) for e in w.edges] + w.calls:
        getattr(f, op)(*args)
        if op in ("insert_edge", "delete_edge"):
            for node in tree.nodes.values():
                if node.conn.inner.master is not None:
                    check_euler_forest(node.conn.inner)
                    checked += 1
    check_spars_tree(f.core)
    assert checked > 200, checked

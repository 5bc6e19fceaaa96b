"""The benchmark's traced run still fits the package.

`bench/tracer.py` wraps the layers' functions by name and `bench/run.py`
reads structure internals for `chunks.slot_occupancy` and for its answer
check.  A rename in the package would otherwise show only when
`bench/run.py` fails.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from dynconn.oracle import check_spars_tree
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

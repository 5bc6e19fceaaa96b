"""Every layer's metered depth stays within the bound it states.

The bounds are composed in code from per-operation phase counts; these tests
wrap each bounded operation, replay seeded facade churn under both write
policies, and compare the deepest call of every operation with its bound.
"""

import functools
import random

import pytest

from dynconn import aggtree, chunks
from dynconn.aggtree import AggTree
from dynconn.chunks import MasterArray
from dynconn.costmodel import ArbitraryPolicy, CommonPolicy
from dynconn.eulerforest import EulerForest
from dynconn.reductions import BipartiteGeneral, ConnGeneral
from dynconn.sparsify import DynamicBipartiteness, DynamicConnectivity, depth_budgets

POLICIES = [ArbitraryPolicy(5), CommonPolicy(0.25)]


def record_depths(monkeypatch):
    """Wrap every bounded operation; returns {(layer, operation): deepest call}."""
    worst = {}

    def wrap(owner, name, layer, op=None):
        # op None: the operation is apply_edge's insert/delete flag
        fn = getattr(owner, name)

        @functools.wraps(fn)
        def wrapped(*args):
            frames = args[0].meter._frames
            base = frames[-1]
            out = fn(*args)
            key = (layer, op or ("insert" if args[3] else "delete"))
            worst[key] = max(worst.get(key, 0), frames[-1] - base)
            return out

        monkeypatch.setattr(owner, name, wrapped)

    for name in aggtree.DEPTH_BOUNDS:
        if name != "join":
            wrap(AggTree, name, "agg", name)
    wrap(aggtree, "join", "agg", "join")
    monkeypatch.setattr(chunks, "agg_join", aggtree.join)
    for name in MasterArray.depth_bounds(POLICIES[0]):
        wrap(MasterArray, name, "chunks", name)
    wrap(EulerForest, "insert_edge", "forest", "insert")
    wrap(EulerForest, "_delete", "forest", "delete")
    wrap(EulerForest, "find_replacement", "forest", "find_replacement")
    wrap(EulerForest, "contract", "forest", "contract")
    wrap(ConnGeneral, "insert_edge", "conn", "insert")
    wrap(ConnGeneral, "_delete", "conn", "delete")
    wrap(ConnGeneral, "find_replacement", "conn", "find_replacement")
    wrap(BipartiteGeneral, "apply_edge", "general")
    return worst


def stated_bounds(policy):
    out = {("agg", k): v for k, v in aggtree.DEPTH_BOUNDS.items()}
    for layer, cls in (
        ("chunks", MasterArray), ("forest", EulerForest), ("conn", ConnGeneral),
    ):
        out.update({(layer, k): v for k, v in cls.depth_bounds(policy).items()})
    # the facade's double cover is a connectivity sparsification tree
    general = BipartiteGeneral.depth_bounds(depth_budgets("connectivity", policy))
    out.update({("general", k): v for k, v in general.items()})
    return out


def churn(facade, n, steps, seed):
    """Random inserts and deletes holding about 1.5 n edges, then a teardown."""
    rng = random.Random(seed)
    edges = []
    for v in range(1, n + 1):
        facade.activate_node(v)
    for _ in range(steps):
        if len(edges) < 3 * n // 4 or (len(edges) < 3 * n // 2 and rng.random() < 0.5):
            u, v = rng.randrange(1, n + 1), rng.randrange(1, n + 1)
            if u == v or facade.core.has_edge(u - 1, v - 1):
                continue
            facade.insert_edge(u, v)
            edges.append((u, v))
        else:
            facade.delete_edge(*edges.pop(rng.randrange(len(edges))))
    for u, v in edges:
        facade.delete_edge(u, v)


@pytest.mark.parametrize("policy", POLICIES)
def test_connectivity_layers_within_bounds(monkeypatch, policy):
    worst = record_depths(monkeypatch)
    churn(DynamicConnectivity(40, policy=policy), 40, 160, seed=11)
    bounds = stated_bounds(policy)
    over = {k: (v, bounds[k]) for k, v in worst.items() if v > bounds[k]}
    assert not over
    assert {
        ("forest", "find_replacement"), ("forest", "contract"), ("chunks", "query"),
    } <= set(worst)


@pytest.mark.parametrize("policy", POLICIES)
def test_bipartite_layers_within_bounds(monkeypatch, policy):
    worst = record_depths(monkeypatch)
    churn(DynamicBipartiteness(8, policy=policy), 8, 30, seed=4)
    bounds = stated_bounds(policy)
    over = {k: (v, bounds[k]) for k, v in worst.items() if v > bounds[k]}
    assert not over
    assert {("general", "insert"), ("general", "delete")} <= set(worst)


@pytest.mark.parametrize(
    "policy, forest, connectivity, bipartiteness",
    [
        (ArbitraryPolicy(5), (150, 321), (455, 1440), (910, 2880)),
        (CommonPolicy(0.25), (150, 381), (455, 1680), (910, 3360)),
    ],
    ids=["arbitrary", "common"],
)
def test_stated_bounds_are_pinned(policy, forest, connectivity, bipartiteness):
    """The composed insert and delete bounds of the forest and both facades,
    each under its policy's writes plus the combining adds to count cells
    (`costmodel`).  A change may lower them and none may raise them; every
    re-pin is logged in CHANGES.md."""
    f = EulerForest.depth_bounds(policy)
    assert (f["insert"], f["delete"]) == forest
    # a gadget counts a contraction as one of its edge deletions
    assert f["contract"] <= f["delete"]
    for mode, pinned in (("connectivity", connectivity), ("bipartiteness", bipartiteness)):
        b = depth_budgets(mode, policy)
        assert (b["insert"], b["delete"]) == pinned

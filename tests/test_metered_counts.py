"""Pinned metered counts of seeded facade scripts.

Each row replays a seeded script on one facade (see `replay`) and pins
the total work of its edge calls and queries, the largest depth per call
kind and `init_work`.  A
change that only speeds up the Python must leave every figure
bit-identical.  A change that moves them changes the cost model, must say
so and re-records the rows; every re-recording is logged in CHANGES.md.
"""

import random

import pytest

from dynconn.costmodel import ArbitraryPolicy, CommonPolicy
from dynconn.sparsify import DynamicBipartiteness, DynamicConnectivity


def replay(facade, steps, seed=7):
    """Activate every node, then insert random absent pairs, delete random
    present edges and query present pairs.  Returns the total work of the
    edge calls, the largest depth per call kind and `init_work`."""
    rng = random.Random(seed)
    n = facade.n
    meter = facade.meter
    for v in range(1, n + 1):
        facade.activate_node(v)
    edges = set()
    deepest = {}
    work = 0
    for _ in range(steps):
        meter.reset()
        if edges and rng.random() < 0.4:
            u, v = rng.choice(sorted(edges))
            edges.discard((u, v))
            facade.delete_edge(u, v)
            kind = "delete"
        else:
            u, v = sorted(rng.sample(range(1, n + 1), 2))
            if (u, v) in edges:
                facade.connected(u, v)
                kind = "connected"
            else:
                edges.add((u, v))
                facade.insert_edge(u, v)
                kind = "insert"
        work += meter.work
        deepest[kind] = max(deepest.get(kind, 0), meter.depth)
    return work, deepest, meter.init_work


@pytest.mark.parametrize(
    "make, steps, expected",
    [
        (
            lambda: DynamicConnectivity(64, policy=ArbitraryPolicy(5)),
            400,
            (303546, {"insert": 58, "delete": 120, "connected": 0}, 17902),
        ),
        (
            lambda: DynamicConnectivity(64, policy=CommonPolicy(0.25)),
            400,
            (308060, {"insert": 52, "delete": 153, "connected": 0}, 17902),
        ),
        (
            lambda: DynamicBipartiteness(12, policy=ArbitraryPolicy(5)),
            60,
            (40037, {"insert": 44, "delete": 149}, 3429),
        ),
    ],
    ids=["connectivity-arbitrary", "connectivity-common", "bipartiteness-arbitrary"],
)
def test_metered_counts_are_pinned(make, steps, expected):
    assert replay(make(), steps) == expected

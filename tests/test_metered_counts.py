"""Pinned metered counts of seeded facade scripts.

A change that only speeds up the Python must leave the work and depth of
every operation bit-identical.  All three rows were last recorded when each
chunk's link vector came to be refreshed once per forest update and tree
cycle-edge deletions came to be steered by the cycle's chord; a change that
moves them changes the cost model and must say so.
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
            (8829432, {"insert": 905, "delete": 1471, "connected": 0}, 58852),
        ),
        (
            lambda: DynamicConnectivity(64, policy=CommonPolicy(0.25)),
            400,
            (8865390, {"insert": 916, "delete": 1506, "connected": 0}, 58852),
        ),
        (
            lambda: DynamicBipartiteness(12, policy=ArbitraryPolicy(5)),
            60,
            (240701, {"insert": 523, "delete": 797}, 11958),
        ),
    ],
    ids=["connectivity-arbitrary", "connectivity-common", "bipartiteness-arbitrary"],
)
def test_metered_counts_are_pinned(make, steps, expected):
    assert replay(make(), steps) == expected

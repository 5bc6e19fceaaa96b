"""Pinned metered counts of seeded facade scripts.

A change that only speeds up the Python must leave the work and depth of
every operation bit-identical.  The connectivity-common row was last
recorded when the aggregate tree's boundary split came to cut along the
boundary leaf's path directly, instead of splitting that leaf out and
joining it back onto the right side, and when its restructuring steps came
to one copy each (a join of two equal-height roots moves the children and
rewrites the leaves' ancestors in one phase).  The connectivity-arbitrary
row was last recorded when the forest's replacement search stopped ranking
its candidates: the best-priority filter that ran before the seeded draw,
one parallel step over the candidates, is gone, and the draw sees the same
list as before.  The bipartiteness row was re-recorded when the double
cover moved out of every sparsification node into one connectivity tree of
its own, updated beside the graph's tree, so each host edge is now two
sparsified cover updates instead of a cover update at each of its levels.
All three rows were re-recorded when the aggregate tree came to write each
moved leaf's array and position in the phase that moves it, which dropped
the master array's second, separately charged position refresh.
A change that moves them changes the cost model and must say so.
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
            (7282314, {"insert": 316, "delete": 607, "connected": 0}, 58852),
        ),
        (
            lambda: DynamicConnectivity(64, policy=CommonPolicy(0.25)),
            400,
            (7343856, {"insert": 327, "delete": 643, "connected": 0}, 58852),
        ),
        (
            lambda: DynamicBipartiteness(12, policy=ArbitraryPolicy(5)),
            60,
            (352170, {"insert": 484, "delete": 813}, 17302),
        ),
    ],
    ids=["connectivity-arbitrary", "connectivity-common", "bipartiteness-arbitrary"],
)
def test_metered_counts_are_pinned(make, steps, expected):
    assert replay(make(), steps) == expected

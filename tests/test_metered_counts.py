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
the master array's second, separately charged position refresh, and again
when the forest came to write a new tree edge's occurrences into the chunks
beside them, so a singleton's link and a replacement splice no longer
allocate, hang and remove one-edge chunks, and again when the master array
came to write a chunk's link row only when it changes, so a refresh to the
bits a chunk holds pays only its row read and a retired chunk's row leaves
the summaries with its leaf instead of being written to zero first,
and again when the two sides of an aggregate tree's boundary split came to
be assembled in one parallel step and the master array's reorder came to
cut and join its blocks in balanced rounds, side by side, which changes the
tree shapes and lowers the depth.  The work and `init_work` of all three
were re-recorded when each forest's master array came to be sized by the
chunks its tours can hold, which narrows every link vector and so every
charge counted in slots; the depths did not move.  All three were
re-recorded when every new tree edge came to be written by one splice, a
link being the replacement splice with the second tour as the far walk, so
a link cuts before an occurrence leaving each endpoint instead of after one
entering it, and a replacement whose far side is one node no longer cuts or
reorders; the chunks cut and the blocks reordered move, the answers do not.
All three were re-recorded when each sparsification node's gadget came to
be sized by the edges its base graph can hold, 2*span - 2 instead of
4*span, which narrows every forest's chunks and slot count, and when a link
and the demotion test stopped summing the chunks of a chunked tour.
The work of all three was re-recorded when the aggregate tree came to repair
its summaries only where an OR can change: a leaf write that only adds bits
ORs them into the path, and hanging or removing a leaf of no bits pays a
zero test and each path vertex's first and last leaf instead of rebuilding
ORs from children; the depths and `init_work` did not move.  The work of
all three was re-recorded again when each aggregate-tree repair and forest
scan came to be charged for what it reads instead of its ceiling: a
clearing leaf write pays `width` per child read, a column write each path
vertex it writes, a split's reassembly only the spine vertices whose leaves
change, and the forest's replacement scans the length of the chunks they
scan; the depths and `init_work` did not move.  The bipartiteness row was
re-recorded when the graph's own tree left the bipartite facade, which now
keeps only the cover tree and its count of mirror-closed components: each
update loses the graph tree's update and the parallel step beside it, and
gains a few connectivity reads of the cover, charged work only.
The work and depths of all three were re-recorded when every forest cut,
split and repair merge came to leave a linked chunk's slot with the piece
that survives and give the new, unlinked chunk the shorter piece, so fewer
linked chunks are retired; `init_work` did not move.  The work of all three
was re-recorded when the forest came to store occurrence offsets relative
to a per-chunk base and to rewrite and charge only the pointers that move;
the depths and `init_work` did not move.
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
            (964449, {"insert": 184, "delete": 367, "connected": 0}, 24916),
        ),
        (
            lambda: DynamicConnectivity(64, policy=CommonPolicy(0.25)),
            400,
            (980988, {"insert": 195, "delete": 379, "connected": 0}, 24916),
        ),
        (
            lambda: DynamicBipartiteness(12, policy=ArbitraryPolicy(5)),
            60,
            (90372, {"insert": 202, "delete": 532}, 5163),
        ),
    ],
    ids=["connectivity-arbitrary", "connectivity-common", "bipartiteness-arbitrary"],
)
def test_metered_counts_are_pinned(make, steps, expected):
    assert replay(make(), steps) == expected

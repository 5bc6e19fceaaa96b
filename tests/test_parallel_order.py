"""Parallel steps stay parallel: `CostMeter.parallel_for` runs its bodies one
after another in index order, and its bodies must write disjoint cells, so
the order must not matter.  Seeded facade scripts are replayed twice under
the common policy, whose picks do not depend on a draw order: once as they
are, once with every `parallel_for` running its bodies in reverse (patched
for the test only).  Every call's answer, work and depth, the `init_work`
and the final edge set must come out the same."""

import random

import pytest

from dynconn.costmodel import CommonPolicy, CostMeter
from dynconn.sparsify import DynamicBipartiteness, DynamicConnectivity


def connectivity_churn(seed, n, steps):
    """Inserts of absent pairs, deletes of present edges and connectivity
    queries, with the edge count held near 1.5 n."""
    rng = random.Random(seed)
    present, calls = set(), []
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.25:
            calls.append(("connected", tuple(rng.sample(range(1, n + 1), 2))))
        elif present and (len(present) > 1.5 * n or roll < 0.55):
            e = rng.choice(sorted(present))
            present.discard(e)
            calls.append(("delete_edge", e))
        else:
            e = tuple(sorted(rng.sample(range(1, n + 1), 2)))
            if e not in present:
                present.add(e)
                calls.append(("insert_edge", e))
    return calls


def bipartite_toggles(seed, n, steps):
    """Each step toggles one pair, inserting it when absent and deleting it
    when present, then asks one of the three questions."""
    rng = random.Random(seed)
    present, calls = set(), []
    for _ in range(steps):
        e = tuple(sorted(rng.sample(range(1, n + 1), 2)))
        calls.append(("delete_edge" if e in present else "insert_edge", e))
        present ^= {e}
        query = rng.choice(("is_bipartite", "n_components", "connected"))
        args = tuple(rng.sample(range(1, n + 1), 2)) if query == "connected" else ()
        calls.append((query, args))
    return calls


def replay(facade, calls):
    """Activate every node, then run `calls`; returns each call's (answer,
    work, depth), the meter's `init_work` and the final edges."""
    meter = facade.meter
    for v in range(1, facade.n + 1):
        facade.activate_node(v)
    log = []
    for op, args in calls:
        w0, d0 = meter.work, meter.depth
        out = getattr(facade, op)(*args)
        log.append((out, meter.work - w0, meter.depth - d0))
    return log, meter.init_work, sorted(facade.core.edges())


@pytest.mark.parametrize(
    "make, calls",
    [
        (lambda: DynamicConnectivity(96, policy=CommonPolicy(0.25)),
         connectivity_churn(3, 96, 600)),
        (lambda: DynamicBipartiteness(32, policy=CommonPolicy(0.25)),
         bipartite_toggles(2, 32, 150)),
    ],
    ids=["connectivity-churn", "bipartite-toggles"],
)
def test_bodies_in_reverse_change_nothing(monkeypatch, make, calls):
    forward = replay(make(), calls)
    parallel_for, reversed_steps = CostMeter.parallel_for, []

    def in_reverse(self, count, body):
        reversed_steps.append(count)
        parallel_for(self, count, lambda i: body(count - 1 - i))

    monkeypatch.setattr(CostMeter, "parallel_for", in_reverse)
    backward = replay(make(), calls)
    monkeypatch.undo()
    # the replay reaches many parallel steps of several bodies
    assert sum(count > 1 for count in reversed_steps) > 100
    assert backward[0] == forward[0]
    assert backward[1:] == forward[1:]
    assert forward[2]

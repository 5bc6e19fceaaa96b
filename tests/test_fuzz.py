"""Stateful fuzzing of both facades against the brute-force oracles.

Hypothesis drives a facade on up to 8 nodes through node and edge updates,
queries and calls that must be rejected, under both write policies.  Every
answer is checked against a `SimpleGraph` mirror and the `bf_*` oracles.  A
rejected call must raise `SparsError` and leave the meter (`work`, `depth`,
`init_work`) and the node count, active nodes and edges of the tree (the
cover tree in bipartiteness mode, with its count `nb` of mirror-closed
components) exactly as they were.  The final
structure must pass `check_spars_tree`.
"""

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from dynconn.costmodel import ArbitraryPolicy, CommonPolicy
from dynconn.oracle import (
    SimpleGraph,
    bf_bipartite,
    bf_components,
    bf_connected,
    check_spars_tree,
)
from dynconn.sparsify import DynamicBipartiteness, DynamicConnectivity, SparsError

NOT_INTEGERS = (1.5, 4.0, "2", None)


class FacadeMachine(RuleBasedStateMachine):
    def __init__(self, facade, policy):
        super().__init__()
        self.facade = facade
        self.policy = policy
        self.f = None
        self.g = SimpleGraph()

    @initialize(n=st.integers(1, 8))
    def build(self, n):
        self.f = self.facade(n, policy=self.policy)

    def state(self):
        core, meter = self.f.core, self.f.meter
        tree = getattr(core, "cover", core)
        return (
            meter.work, meter.depth, meter.init_work, getattr(core, "nb", None),
            len(tree.nodes), bytes(tree.active), sorted(tree.edges()),
        )

    def pairs(self, keep):
        nodes = sorted(self.g.adj)
        return [(u, v) for u in nodes for v in nodes if u != v and keep(u, v)]

    def absent(self, u, v):
        return not self.g.has_edge(u, v)

    def inactive(self):
        return [v for v in range(1, self.f.n + 1) if v not in self.g.adj]

    # -- updates and queries that must succeed -----------------------------------

    @precondition(lambda self: len(self.g.adj) < self.f.n)
    @rule(data=st.data())
    def activate(self, data):
        v = data.draw(st.sampled_from(self.inactive()))
        self.f.activate_node(v)
        self.g.activate(v)

    @precondition(lambda self: not all(self.g.adj.values()))
    @rule(data=st.data())
    def deactivate(self, data):
        v = data.draw(st.sampled_from([v for v in sorted(self.g.adj) if not self.g.adj[v]]))
        self.f.deactivate_node(v)
        self.g.deactivate(v)

    @precondition(lambda self: self.pairs(self.absent))
    @rule(data=st.data())
    def insert(self, data):
        u, v = data.draw(st.sampled_from(self.pairs(self.absent)))
        self.f.insert_edge(u, v)
        self.g.add_edge(u, v)

    @precondition(lambda self: any(self.g.adj.values()))
    @rule(data=st.data())
    def delete(self, data):
        u, v = data.draw(st.sampled_from(self.pairs(self.g.has_edge)))
        self.f.delete_edge(u, v)
        self.g.remove_edge(u, v)

    @precondition(lambda self: self.g.adj)
    @rule(data=st.data())
    def connected(self, data):
        nodes = st.sampled_from(sorted(self.g.adj))
        u, v = data.draw(nodes), data.draw(nodes)
        assert self.f.connected(u, v) == bf_connected(self.g, u, v)

    # -- calls that must be rejected ------------------------------------------------

    def rejected_calls(self):
        f, g = self.f, self.g
        active, inactive = sorted(g.adj), self.inactive()
        calls = [
            call
            for bad in (0, f.n + 1) + NOT_INTEGERS
            for call in [
                (f.activate_node, bad), (f.deactivate_node, bad),
                (f.insert_edge, 1, bad), (f.delete_edge, bad, 1), (f.connected, 1, bad),
            ]
        ]
        calls += [(f.activate_node, v) for v in active]
        calls += [(f.deactivate_node, v) for v in inactive]
        calls += [(f.deactivate_node, v) for v in active if g.adj[v]]
        calls += [(f.insert_edge, u, u) for u in active]
        calls += [(f.insert_edge, u, v) for u, v in self.pairs(g.has_edge)]
        calls += [(f.delete_edge, u, v) for u, v in self.pairs(self.absent)]
        for u in active or [1]:
            for v in inactive:
                calls += [(f.insert_edge, u, v), (f.delete_edge, v, u), (f.connected, u, v)]
        return calls

    @rule(data=st.data())
    def reject(self, data):
        fn, *args = data.draw(st.sampled_from(self.rejected_calls()))
        before = self.state()
        with pytest.raises(SparsError):
            fn(*args)
        assert self.state() == before

    @invariant()
    def answers_match(self):
        assert self.f.n_components() == bf_components(self.g)
        if isinstance(self.f, DynamicBipartiteness):
            assert self.f.is_bipartite() == bf_bipartite(self.g)
            return
        # the tree edges span every component
        forest = SimpleGraph()
        for v in self.g.adj:
            forest.activate(v)
        for u, v in self.g.edges():
            if self.f.tree_edge(u, v):
                forest.add_edge(u, v)
        assert len(forest.edges()) == len(self.g.adj) - bf_components(self.g)
        assert bf_components(forest) == bf_components(self.g)

    def teardown(self):
        if self.f is not None:
            check_spars_tree(self.f.core)


@pytest.mark.parametrize(
    "policy", [ArbitraryPolicy(3), CommonPolicy(0.25)], ids=["arbitrary", "common"]
)
@pytest.mark.parametrize(
    "facade", [DynamicConnectivity, DynamicBipartiteness], ids=["conn", "bip"]
)
def test_facade_matches_the_oracles(facade, policy):
    run_state_machine_as_test(
        lambda: FacadeMachine(facade, policy),
        settings=settings(
            max_examples=30,
            stateful_step_count=50,
            deadline=None,
            derandomize=True,
            database=None,
            suppress_health_check=[HealthCheck.too_slow],
        ),
    )

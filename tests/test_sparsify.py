import ast
import itertools
import random
from pathlib import Path

import pytest

import dynconn
from dynconn.costmodel import ArbitraryPolicy, CommonPolicy, CostMeter, MeterError
from dynconn.oracle import (
    CheckFailure,
    SimpleGraph,
    bf_bipartite,
    bf_components,
    bf_connected,
    check_chunk_store,
    check_euler_forest,
    check_gadget_graph,
    check_spars_tree,
)
from dynconn.eulerforest import EulerForest, SmallTour
from dynconn.reductions import ConnGeneral
from dynconn.sparsify import (
    DynamicBipartiteness,
    DynamicConnectivity,
    SparsError,
    SparsTree,
    depth_budgets,
)


def conn_facade(n, seed=0, policy=None):
    return DynamicConnectivity(n, policy=policy or ArbitraryPolicy(seed))


def bip_facade(n, seed=0, policy=None):
    return DynamicBipartiteness(n, policy=policy or ArbitraryPolicy(seed))


def tree_of(core):
    """A facade core's one sparsification tree: the cover's in
    bipartiteness mode."""
    return getattr(core, "cover", core)


class TestBasics:
    def test_root_key_and_fresh_counts(self):
        d = conn_facade(8)
        assert d.core.root_key == (0, 0, 0)
        for v in range(1, 9):
            d.activate_node(v)
        assert d.n_components() == 8

    def test_activate_deactivate_roundtrip(self):
        d = conn_facade(8)
        d.activate_node(1)
        d.activate_node(2)
        before = d.n_components()
        d.activate_node(3)
        d.deactivate_node(3)
        assert d.n_components() == before

    def test_deactivate_non_isolated_rejected(self):
        d = conn_facade(4)
        d.activate_node(1)
        d.activate_node(2)
        d.insert_edge(1, 2)
        with pytest.raises(SparsError, match="not isolated"):
            d.deactivate_node(1)

    def test_id_range(self):
        d = conn_facade(4)
        with pytest.raises(SparsError):
            d.activate_node(0)
        with pytest.raises(SparsError):
            d.activate_node(5)

    def test_first_edge_inserted_at_all_levels(self):
        d = conn_facade(8)
        d.activate_node(1)
        d.activate_node(5)
        d.insert_edge(1, 5)
        holding = [
            node for node in d.core.nodes.values()
            if (0, 4) in node.edges()
        ]
        assert len(holding) == d.core.levels + 1

    def test_cycle_edge_lands_at_two_levels(self):
        d = conn_facade(8)
        for v in (1, 2, 3):
            d.activate_node(v)
        d.insert_edge(1, 2)
        d.insert_edge(2, 3)
        d.insert_edge(1, 3)  # closes a triangle inside one leaf-side subtree
        # the cycle-closing edge joins only levels where its endpoints were
        # still disconnected, plus one parent
        holding = [n for n in d.core.nodes.values() if (0, 2) in n.edges()]
        per_level = {}
        for x, y in [(0, 1), (1, 2), (0, 2)]:
            for node in d.core.nodes.values():
                if (x, y) in node.edges():
                    per_level.setdefault((x, y), []).append(node.key[0])
        assert holding, "edge missing everywhere"
        check_spars_tree(d.core)

    def test_duplicate_and_self_loop(self):
        d = conn_facade(4)
        d.activate_node(1)
        d.activate_node(2)
        d.insert_edge(1, 2)
        with pytest.raises(SparsError):
            d.insert_edge(2, 1)
        with pytest.raises(SparsError):
            d.insert_edge(1, 1)
        with pytest.raises(SparsError):
            d.delete_edge(1, 3)


class TestDeletions:
    def test_bridge_delete_splits_everywhere(self):
        d = conn_facade(8)
        for v in (1, 2, 3):
            d.activate_node(v)
        d.insert_edge(1, 2)
        d.insert_edge(2, 3)
        assert d.n_components() == 1
        d.delete_edge(1, 2)
        assert d.n_components() == 2
        assert not d.connected(1, 2)
        check_spars_tree(d.core)

    def test_triangle_delete_swaps_to_shared_replacement(self):
        d = conn_facade(8)
        for v in (1, 4, 7):
            d.activate_node(v)
        d.insert_edge(1, 4)
        d.insert_edge(4, 7)
        d.insert_edge(1, 7)
        d.delete_edge(1, 4)
        assert d.connected(1, 4)
        assert d.n_components() == 1
        check_spars_tree(d.core)

    def test_non_tree_delete_keeps_forests_where_non_tree(self):
        d = conn_facade(8)
        for v in (1, 2, 3):
            d.activate_node(v)
        d.insert_edge(1, 2)
        d.insert_edge(2, 3)
        d.insert_edge(1, 3)
        # (1,3) is a tree edge only deep on its own path; levels where it
        # is non-tree must keep their forests
        frozen = {
            key: node.forest_edges()
            for key, node in d.core.nodes.items()
            if (0, 2) not in node.forest_edges()
        }
        root_forest = d.core.root().forest_edges()
        d.delete_edge(1, 3)
        for key, want in frozen.items():
            assert d.core.nodes[key].forest_edges() == want
        assert d.core.root().forest_edges() == root_forest
        check_spars_tree(d.core)


class TestPromotion:
    """A tree level's replacement goes into its parent's base graph in the
    commit phase, before the parent deletes the edge.  Over four nodes the
    key path of (1, 3) is the bottom node (1, 0, 1) between the parts
    {1, 2} and {3, 4}, whose base graph holds every edge between them, and
    the root; ids below are the facade's, 1-based."""

    @staticmethod
    def build(edges, monkeypatch):
        d = conn_facade(4)
        for v in range(1, 5):
            d.activate_node(v)
        for u, v in edges:
            d.insert_edge(u, v)
        check_spars_tree(d.core)
        inserted = []
        inner_insert = ConnGeneral.insert_edge

        def insert_edge(conn, u, v):
            inserted.append((conn, (u, v)))
            inner_insert(conn, u, v)

        monkeypatch.setattr(ConnGeneral, "insert_edge", insert_edge)
        return d, inserted

    def test_promotion_into_a_level_with_its_own_replacement(self, monkeypatch):
        # the level-1 forest is the path 1-3-2-4 and (1, 4) is its one
        # non-tree edge; the root's base graph is that forest plus (1, 2)
        # and (3, 4), non-tree there, and (1, 2) is the root's own
        # replacement for (1, 3)
        d, inserted = self.build(
            [(1, 3), (2, 3), (2, 4), (1, 4), (1, 2), (3, 4)], monkeypatch
        )
        root = d.core.root()
        mid = d.core.nodes[(1, 0, 1)]
        assert (0, 3) in mid.edges() - mid.forest_edges()
        assert (0, 3) not in root.edges()
        d.delete_edge(1, 3)
        # the level-1 replacement went into the root, as a non-tree edge,
        # and the root took its own
        assert inserted == [(root.conn, (0, 3))]
        assert (0, 3) in mid.forest_edges()
        assert (0, 1) in root.forest_edges()
        assert (0, 3) in root.edges() - root.forest_edges()
        assert d.connected(1, 3) and d.n_components() == 1
        check_spars_tree(d.core)

    def test_promotion_into_a_top_level_where_the_edge_is_non_tree(self, monkeypatch):
        # (1, 2) and (2, 3) connect 1 and 3 at the root before (1, 3)
        # arrives, so (1, 3) is non-tree there and the root is the top of
        # its footprint; the level-1 node replaces it by (1, 4)
        d, inserted = self.build([(1, 2), (2, 3), (1, 3), (2, 4), (1, 4)], monkeypatch)
        root = d.core.root()
        mid = d.core.nodes[(1, 0, 1)]
        assert (0, 2) in mid.forest_edges()
        assert (0, 2) in root.edges() - root.forest_edges()
        assert (0, 3) not in root.edges()
        d.delete_edge(1, 3)
        assert inserted == [(root.conn, (0, 3))]
        assert (0, 3) in mid.forest_edges()
        assert (0, 3) in root.edges() - root.forest_edges()
        assert d.connected(1, 3) and d.n_components() == 1
        check_spars_tree(d.core)


def test_an_edge_its_bottom_node_already_connects_goes_in_there_alone():
    """Over four nodes the bottom node (1, 0, 1) covers K_{2,2} between the
    parts {1, 2} and {3, 4}.  Its fourth edge closes a cycle there, so it is
    a non-tree edge of that node's base graph and of no other node's."""
    d = conn_facade(4)
    g = SimpleGraph()
    for v in range(1, 5):
        d.activate_node(v)
        g.activate(v)

    def agrees():
        check_spars_tree(d.core)
        assert d.n_components() == bf_components(g)
        for u, v in itertools.combinations(range(1, 5), 2):
            assert d.connected(u, v) == bf_connected(g, u, v)

    def insert(u, v):
        d.insert_edge(u, v)
        g.add_edge(u, v)

    def delete(u, v):
        d.delete_edge(u, v)
        g.remove_edge(u, v)

    for u, v in [(1, 3), (1, 4), (2, 3)]:
        insert(u, v)
    bottom = d.core.nodes[(1, 0, 1)]
    insert(2, 4)
    assert [key for key, node in d.core.nodes.items() if (1, 3) in node.edges()] == [
        (1, 0, 1)
    ]
    assert (1, 3) in bottom.edges() - bottom.forest_edges()
    agrees()
    delete(2, 4)
    assert (1, 3) not in bottom.edges()
    agrees()
    insert(2, 4)
    assert (0, 2) in bottom.forest_edges()
    delete(1, 3)  # a tree edge there, replaced by (2, 4)
    assert (1, 3) in bottom.forest_edges()
    agrees()


class TestDifferential:
    @pytest.mark.parametrize(
        "policy", [ArbitraryPolicy(17), CommonPolicy(0.25)]
    )
    def test_random_scripts_match_bfs(self, policy):
        rng = random.Random(8)
        n = 24
        d = DynamicConnectivity(n, policy=policy)
        g = SimpleGraph()
        for v in range(1, n + 1):
            d.activate_node(v)
            g.activate(v)
        for step in range(350):
            u, v = rng.randrange(1, n + 1), rng.randrange(1, n + 1)
            if u == v:
                continue
            if g.has_edge(u, v):
                d.delete_edge(u, v)
                g.remove_edge(u, v)
            else:
                d.insert_edge(u, v)
                g.add_edge(u, v)
            assert d.n_components() == bf_components(g)
            a, b = rng.randrange(1, n + 1), rng.randrange(1, n + 1)
            assert d.connected(a, b) == bf_connected(g, a, b)
            if step % 25 == 0:
                check_spars_tree(d.core)
        check_spars_tree(d.core)

    @pytest.mark.parametrize("policy", [ArbitraryPolicy(3), CommonPolicy(0.25)])
    def test_contraction_soak_keeps_every_forest_whole(self, monkeypatch, policy):
        """Churn at n = 64 around 1.5n edges, every structure checked every
        5 updates.  Gadget splice-outs contract interior chain nodes
        (`EulerForest.contract`), some on chunked tours."""
        chunked, contract = [], EulerForest.contract

        def watched(self, g):
            p = self.nbr[g][0]
            chunked.append(not isinstance(self.edge_occ[(p, g)][0], SmallTour))
            return contract(self, g)

        monkeypatch.setattr(EulerForest, "contract", watched)
        rng = random.Random(41)
        n = 64
        d = DynamicConnectivity(n, policy=policy)
        g = SimpleGraph()
        for v in range(1, n + 1):
            d.activate_node(v)
            g.activate(v)
        edges = []
        for step in range(1, 601):
            if len(edges) < n or (len(edges) < 3 * n // 2 and rng.random() < 0.5):
                u, v = rng.sample(range(1, n + 1), 2)
                if g.has_edge(u, v):
                    continue
                d.insert_edge(u, v)
                g.add_edge(u, v)
                edges.append((u, v))
            else:
                u, v = edges.pop(rng.randrange(len(edges)))
                d.delete_edge(u, v)
                g.remove_edge(u, v)
            if step % 5 == 0:
                check_spars_tree(d.core)
                for node in d.core.nodes.values():
                    check_euler_forest(node.conn.inner)
                assert d.n_components() == bf_components(g)
        assert sum(chunked) > 10 and len(chunked) > sum(chunked)

    def test_tree_edges_mark_spanning_forest(self):
        rng = random.Random(77)
        n = 16
        d = conn_facade(n, seed=5)
        g = SimpleGraph()
        for v in range(1, n + 1):
            d.activate_node(v)
            g.activate(v)
        for _ in range(150):
            u, v = rng.randrange(1, n + 1), rng.randrange(1, n + 1)
            if u == v:
                continue
            if g.has_edge(u, v):
                d.delete_edge(u, v)
                g.remove_edge(u, v)
            else:
                d.insert_edge(u, v)
                g.add_edge(u, v)
        marked = [(u, v) for (u, v) in g.edges() if d.tree_edge(u, v)]
        forest = SimpleGraph()
        for v in range(1, n + 1):
            forest.activate(v)
        for u, v in marked:
            forest.add_edge(u, v)
        assert len(marked) == n - bf_components(g)
        assert bf_components(forest) == bf_components(g)


class TestBipartiteness:
    def test_edgeless_graph(self):
        d = bip_facade(8)
        for v in range(1, 9):
            d.activate_node(v)
        assert d.is_bipartite()

    def test_odd_cycle_across_leaves(self):
        d = bip_facade(8)
        for v in (1, 4, 8):
            d.activate_node(v)
        d.insert_edge(1, 4)
        d.insert_edge(4, 8)
        assert d.is_bipartite()
        d.insert_edge(1, 8)
        assert not d.is_bipartite()
        d.delete_edge(4, 8)
        assert d.is_bipartite()
        check_spars_tree(d.core)

    def test_deactivating_a_node_of_an_odd_cycle(self):
        n = 8
        d = bip_facade(n, seed=2)
        g = SimpleGraph()

        def agrees():
            assert d.is_bipartite() == bf_bipartite(g)
            assert d.n_components() == bf_components(g)
            check_spars_tree(d.core)

        def insert(u, v):
            d.insert_edge(u, v)
            g.add_edge(u, v)

        def delete(u, v):
            d.delete_edge(u, v)
            g.remove_edge(u, v)

        for v in range(1, n + 1):
            d.activate_node(v)
            g.activate(v)
        cycle = [1, 3, 6, 8, 4]
        for u, v in zip(cycle, cycle[1:] + cycle[:1]):
            insert(u, v)
        insert(2, 7)
        agrees()
        assert not d.is_bipartite()
        # isolate 6, which leaves the path 8-4-1-3, then deactivate it
        delete(3, 6)
        delete(6, 8)
        d.deactivate_node(6)
        g.deactivate(6)
        agrees()
        assert d.is_bipartite() and d.n_components() == 3  # 8-4-1-3, 2-7, 5
        # the triangle 4-1-3 closes without 6
        insert(3, 4)
        agrees()
        assert not d.is_bipartite()
        d.activate_node(6)
        g.activate(6)
        agrees()

    def test_wrong_mode_rejected(self):
        d = conn_facade(4)
        with pytest.raises(AttributeError):
            d.is_bipartite()

    def test_exhaustive_graphs_on_up_to_five_nodes(self):
        n = 5
        all_edges = list(itertools.combinations(range(1, n + 1), 2))
        rng = random.Random(3)
        for trial in range(120):
            mask = rng.randrange(1 << len(all_edges))
            edges = [e for i, e in enumerate(all_edges) if mask >> i & 1]
            d = bip_facade(n, seed=trial)
            g = SimpleGraph()
            for v in range(1, n + 1):
                d.activate_node(v)
                g.activate(v)
            for u, v in edges:
                d.insert_edge(u, v)
                g.add_edge(u, v)
                assert d.is_bipartite() == bf_bipartite(g)
            for u, v in edges:
                d.delete_edge(u, v)
                g.remove_edge(u, v)
                assert d.is_bipartite() == bf_bipartite(g)
            check_spars_tree(d.core)

    def test_random_scripts_match_two_coloring(self):
        rng = random.Random(6)
        n = 12
        d = bip_facade(n, seed=9)
        g = SimpleGraph()
        for v in range(1, n + 1):
            d.activate_node(v)
            g.activate(v)
        for step in range(200):
            u, v = rng.randrange(1, n + 1), rng.randrange(1, n + 1)
            if u == v:
                continue
            if g.has_edge(u, v):
                d.delete_edge(u, v)
                g.remove_edge(u, v)
            else:
                d.insert_edge(u, v)
                g.add_edge(u, v)
            assert d.is_bipartite() == bf_bipartite(g)
            if step % 40 == 0:
                check_spars_tree(d.core)


class TestDepthPadding:
    def test_depth_constant_across_sizes(self):
        # each size runs its own seeded script that inserts a fresh edge on
        # two steps of three and deletes a random present edge on the third,
        # so every operation kind runs at every size
        kinds = ("insert", "delete", "connected")
        tables = {}
        for n in (32, 64, 128):
            rng = random.Random(n)
            d = conn_facade(n, seed=1)
            m = d.meter
            for v in range(1, n + 1):
                d.activate_node(v)
            edges = []
            worst = {}
            for step in range(120):
                m.reset()
                if step % 3 == 2:
                    u, v = edges.pop(rng.randrange(len(edges)))
                    d.delete_edge(u, v)
                    kind = "delete"
                else:
                    u, v = rng.randrange(1, n + 1), rng.randrange(1, n + 1)
                    while u == v or d.core.has_edge(u - 1, v - 1):
                        u, v = rng.randrange(1, n + 1), rng.randrange(1, n + 1)
                    d.insert_edge(u, v)
                    edges.append((u, v))
                    kind = "insert"
                worst[kind] = max(worst.get(kind, 0), m.depth)
                m.reset()
                d.connected(rng.randrange(1, n + 1), rng.randrange(1, n + 1))
                worst["connected"] = max(worst.get("connected", 0), m.depth)
            assert sorted(worst) == sorted(kinds), f"kinds run at n={n}: {worst}"
            for kind in kinds:
                assert worst[kind] <= d.budgets[kind], f"{kind} at n={n}"
            tables[n] = dict(d.budgets)
        assert tables[32] == tables[64] == tables[128]

    def test_calls_are_not_padded(self):
        d = conn_facade(8)
        m = d.meter
        for v in (1, 2, 3):
            d.activate_node(v)
        m.reset()
        d.insert_edge(1, 2)
        assert 0 < m.depth < d.budgets["insert"]
        m.reset()
        assert d.connected(1, 2)
        assert m.depth == 0

    @pytest.mark.parametrize("policy", [ArbitraryPolicy(0), CommonPolicy(0.25)])
    @pytest.mark.parametrize(
        "make, work", [(conn_facade, 1), (bip_facade, 2)], ids=["conn", "bip"],
    )
    def test_a_node_change_writes_the_root_alone(self, make, work, policy):
        """With many nodes materialized around it, a node change costs what
        one write of the root's activity record costs: one unit in
        connectivity mode, and in bipartiteness mode one for each of the
        node's two copies in the cover, with no depth either way."""
        n = 32
        rng = random.Random(5)
        f = make(n, policy=policy)
        for v in range(1, n):
            f.activate_node(v)
        for _ in range(3 * n):
            u, v = rng.randrange(1, n), rng.randrange(1, n)
            if u != v and not f.core.has_edge(u - 1, v - 1):
                f.insert_edge(u, v)
        # the nodes below the root that span node n, which stays inactive:
        # the tree's last id, the cover's copy 2n - 1 in bipartiteness mode
        tree = tree_of(f.core)
        spanning = [
            node for key, node in tree.nodes.items()
            if key != tree.root_key and any(tree.n - 1 in r for r in node.conn.hosts)
        ]
        assert len(tree.nodes) > 50 and len(spanning) > 10
        assert f.budgets["activate"] == f.budgets["deactivate"] == 0
        for call in (f.activate_node, f.deactivate_node):
            f.meter.reset()
            call(n)
            assert (f.meter.work, f.meter.depth) == (work, 0)
        check_spars_tree(f.core)

    @pytest.mark.parametrize(
        "policy, name",
        [(ArbitraryPolicy(4), "ArbitraryPolicy"), (CommonPolicy(0.5), "CommonPolicy")],
    )
    def test_over_budget_call_raises(self, policy, name):
        d = bip_facade(8, policy=policy)
        for v in (1, 2):
            d.activate_node(v)
        d.budgets["insert"] = 3
        with pytest.raises(MeterError) as err:
            d.insert_edge(1, 2)
        message = str(err.value)
        assert message.startswith("bipartiteness insert under " + name)
        assert "exceeds budget 3" in message

    def test_budgets_depend_on_mode_and_policy_not_n(self):
        arbitrary = depth_budgets("connectivity", ArbitraryPolicy(0))
        assert conn_facade(4).budgets == conn_facade(300).budgets == arbitrary
        assert depth_budgets("connectivity", ArbitraryPolicy(9)) == arbitrary
        common = depth_budgets("connectivity", CommonPolicy(0.25))
        assert common["delete"] > arbitrary["delete"]
        coarse = depth_budgets("connectivity", CommonPolicy(1.0))
        assert coarse["delete"] < common["delete"]
        bip = depth_budgets("bipartiteness", ArbitraryPolicy(0))
        assert bip["insert"] > arbitrary["insert"]

    @pytest.mark.parametrize(
        "make, sizes", [(conn_facade, (32, 128, 512)), (bip_facade, (16, 64))],
        ids=["conn", "bip"],
    )
    def test_worst_update_depth_does_not_grow_with_n(self, make, sizes):
        """Seed 1.5 n random edges, then alternate a random insert and a
        random delete for 120 calls: the deepest of those calls at the
        largest n may be at most 1.5 times the deepest at the smallest.
        Calls are not padded, so this sees depth that grows with n even
        while it stays in budget."""
        worst = {}
        for n in sizes:
            rng = random.Random(n)
            f = make(n, seed=1)
            for v in range(1, n + 1):
                f.activate_node(v)
            edges = []

            def insert_random():
                while True:
                    u, v = rng.randrange(1, n + 1), rng.randrange(1, n + 1)
                    if u != v and not f.core.has_edge(u - 1, v - 1):
                        f.insert_edge(u, v)
                        edges.append((u, v))
                        return

            for _ in range(3 * n // 2):
                insert_random()
            deepest = 0
            for step in range(120):
                f.meter.reset()
                if step % 2:
                    f.delete_edge(*edges.pop(rng.randrange(len(edges))))
                else:
                    insert_random()
                deepest = max(deepest, f.meter.depth)
            worst[n] = deepest
        assert worst[sizes[-1]] <= 1.5 * worst[sizes[0]], worst


class TestBrokenDepthContract:
    def test_over_budget_insert_commits_consistently(self):
        # the depth check runs after the body: the call raises, but the
        # update stands and every invariant holds
        d = conn_facade(8)
        for v in (1, 2, 3):
            d.activate_node(v)
        d.budgets["insert"] = 3
        with pytest.raises(MeterError):
            d.insert_edge(1, 2)
        assert d.core.has_edge(0, 1)
        assert d.connected(1, 2) and not d.connected(1, 3)
        assert d.n_components() == 2
        check_spars_tree(d.core)
        d.budgets = depth_budgets("connectivity", d.meter.policy)
        d.delete_edge(1, 2)
        assert not d.connected(1, 2)
        check_spars_tree(d.core)


def _bad_id_calls(bad):
    if isinstance(bad, int):
        message = f"node id {bad} out of range 1..8"
    else:
        message = f"node id {bad!r} is not an integer"
    return [
        (f"activate_node({bad!r})", lambda f: f.activate_node(bad), message),
        (f"deactivate_node({bad!r})", lambda f: f.deactivate_node(bad), message),
        (f"insert_edge(1, {bad!r})", lambda f: f.insert_edge(1, bad), message),
        (f"delete_edge({bad!r}, 2)", lambda f: f.delete_edge(bad, 2), message),
        (f"connected(1, {bad!r})", lambda f: f.connected(1, bad), message),
    ]


# nodes 1..6 are active (7 and 8 are not), edges (1,2), (2,3) and (4,5); each
# call's message names the ids as the caller passed them
REJECTED_CALLS = [
    call for bad in (0, 9, 1.5, 4.0, "2") for call in _bad_id_calls(bad)
] + [
    ("insert_edge(1, 7): inactive endpoint", lambda f: f.insert_edge(1, 7),
     "node 7 not active"),
    ("connected(7, 1): inactive endpoint", lambda f: f.connected(7, 1),
     "node 7 not active"),
    ("activate_node(1): already active", lambda f: f.activate_node(1),
     "node 1 already active"),
    ("deactivate_node(7): not active", lambda f: f.deactivate_node(7),
     "node 7 not active"),
    ("deactivate_node(2): has edges", lambda f: f.deactivate_node(2),
     "node 2 not isolated"),
    ("insert_edge(2, 1): duplicate", lambda f: f.insert_edge(2, 1),
     "edge (2,1) already present"),
    ("insert_edge(3, 3): self-loop", lambda f: f.insert_edge(3, 3), "self-loop"),
    ("delete_edge(1, 3): absent", lambda f: f.delete_edge(1, 3),
     "edge (1,3) absent"),
]


@pytest.mark.parametrize("make", [conn_facade, bip_facade], ids=["conn", "bip"])
@pytest.mark.parametrize(
    "call, message",
    [(c, m) for _, c, m in REJECTED_CALLS],
    ids=[name for name, _, _ in REJECTED_CALLS],
)
def test_rejected_calls_change_nothing(make, call, message):
    f = make(8)
    for v in range(1, 7):
        f.activate_node(v)
    for u, v in [(1, 2), (2, 3), (4, 5)]:
        f.insert_edge(u, v)
    core, meter = f.core, f.meter
    tree = tree_of(core)

    def state():
        return (
            meter.work, meter.depth, meter.init_work, getattr(core, "nb", None),
            len(tree.nodes), bytes(tree.active), sorted(tree.edges()),
        )

    before = state()
    with pytest.raises(SparsError) as raised:
        call(f)
    assert str(raised.value) == message
    assert state() == before
    check_spars_tree(core)


@pytest.mark.parametrize("make", [conn_facade, bip_facade], ids=["conn", "bip"])
def test_checkers_leave_the_meter_unchanged(make):
    f = make(16)
    for v in range(1, 17):
        f.activate_node(v)
    for u, v in [(1, 2), (2, 3), (3, 4), (4, 1), (5, 6), (9, 16)]:
        f.insert_edge(u, v)
    meter = f.meter
    before = (meter.work, meter.depth, meter.init_work)
    check_spars_tree(f.core)
    for node in f.core.nodes.values():
        check_gadget_graph(node.conn)
        check_euler_forest(node.conn.inner)
        check_chunk_store(node.conn.inner.store)
    assert (meter.work, meter.depth, meter.init_work) == before


@pytest.mark.parametrize(
    "tamper, message",
    [
        (lambda core: core.cover.delete_edge(0, 3), "cover edges"),
        (lambda core: core.cover.insert_edge(0, 2), "cover edges"),
        (lambda core: core.cover.activate_node(14), "cover nodes"),
        (lambda core: setattr(core, "nb", core.nb + 1), "mirror-closed"),
    ],
    ids=["lifted-edge-deleted", "stray-edge", "stray-node", "closed-count"],
)
def test_checker_sees_a_cover_changed_behind_the_host(tamper, message):
    """The checker holds the cover to a lift: active nodes in pairs, edges
    in mirror pairs, and `nb` the count of its mirror-closed components."""
    f = bip_facade(8)
    for v in range(1, 5):
        f.activate_node(v)
    f.insert_edge(1, 2)  # lifts to cover edges (0, 3) and (1, 2)
    check_spars_tree(f.core)
    tamper(f.core)
    with pytest.raises(CheckFailure, match=message):
        check_spars_tree(f.core)


@pytest.mark.parametrize("make", [conn_facade, bip_facade], ids=["conn", "bip"])
def test_checker_sees_a_node_activity_changed_behind_the_tree(make):
    """Activity lives only at the root, so a node below it that does not
    hold every host of its spans has been changed behind the tree."""
    f = make(8)
    for v in range(1, 4):
        f.activate_node(v)
    f.insert_edge(1, 2)
    # node (1, 0, 0) spans ids 0..3 of the connectivity tree and 0..7 of
    # the cover tree, where edge (1, 2) lifts to (0, 3) and (1, 2); neither
    # idle host has an edge
    tree, idle = (f.core.cover, 6) if hasattr(f.core, "cover") else (f.core, 2)
    conn = tree.nodes[(1, 0, 0)].conn
    check_spars_tree(f.core)
    conn.deactivate_node(idle)
    with pytest.raises(CheckFailure, match=r"a host of \(1, 0, 0\) is not present"):
        check_spars_tree(f.core)
    conn.activate_node(idle)
    check_spars_tree(f.core)


@pytest.mark.parametrize("make", [conn_facade, bip_facade], ids=["conn", "bip"])
def test_checker_sees_an_isolated_count_changed_behind_the_tree(make):
    f = make(8)
    for v in range(1, 5):
        f.activate_node(v)
    f.insert_edge(1, 2)
    check_spars_tree(f.core)
    tree_of(f.core).root().conn.isolated += 1
    with pytest.raises(CheckFailure, match="isolated count"):
        check_spars_tree(f.core)


@pytest.mark.parametrize(
    "make, cover",
    [(conn_facade, False), (bip_facade, True)],
    ids=["conn", "bip-cover"],
)
def test_checker_sees_an_edge_changed_behind_the_tree(make, cover):
    """An edge inserted into one gadget alone, the root's or the leaf's of
    its path, between two active hosts, is an edge that the tree does not
    hold as a whole."""
    f = make(8)
    for v in range(1, 5):
        f.activate_node(v)
    f.insert_edge(1, 2)
    f.insert_edge(1, 3)
    f.delete_edge(1, 3)  # its leaf stays, without the edge
    tree = f.core.cover if cover else f.core
    # the cover lifts host edge (1, 3) to (0, 5) and (1, 4)
    x, y = (0, 5) if cover else (0, 2)
    check_spars_tree(f.core)
    tree.root().conn.insert_edge(x, y)
    with pytest.raises(CheckFailure, match="stale base edge"):
        check_spars_tree(f.core)
    tree.root().conn.delete_edge(x, y)
    check_spars_tree(f.core)
    tree.nodes[tree.key_path(x, y)[0]].conn.insert_edge(x, y)
    with pytest.raises(CheckFailure, match="union of child forests"):
        check_spars_tree(f.core)


def test_the_partition_is_nested_balanced_and_named_by_part():
    """At every level the intervals tile [0, n), each inside its parent,
    none empty and no two differing in size by more than one; the deepest
    level's parts hold at most 2 ids.  `part` names the interval that holds
    x, and `key_path` pairs the parts of an edge's two ends."""
    for n in [*range(1, 71), 511, 512, 513, 1024, 1025]:
        t = SparsTree(n, CostMeter(ArbitraryPolicy(0)))
        for level in range(t.levels + 1):
            parts = [t.interval(level, k) for k in range(2**level)]
            assert [x for r in parts for x in r] == list(range(n)), (n, level)
            sizes = {len(r) for r in parts}
            assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1, (n, level)
            for k, r in enumerate(parts):
                if level:
                    up = t.interval(level - 1, k >> 1)
                    assert up.start <= r.start and r.stop <= up.stop, (n, level, k)
                assert all(t.part(level, x) == k for x in r), (n, level, k)
        assert all(len(t.interval(t.levels, k)) <= 2 for k in range(2**t.levels)), n
        rng = random.Random(n)
        for _ in range(20):
            x, y = rng.randrange(n), rng.randrange(n)
            assert t.key_path(x, y) == [
                (level, *sorted((t.part(level, x), t.part(level, y))))
                for level in range(t.levels, -1, -1)
            ], (n, x, y)


@pytest.mark.parametrize("facade", [DynamicConnectivity, DynamicBipartiteness])
@pytest.mark.parametrize("n", [2.5, 4.0, "4"])
def test_a_node_count_that_is_not_an_integer_is_rejected(facade, n):
    with pytest.raises(SparsError, match="not an integer"):
        facade(n)


@pytest.mark.parametrize("facade", [DynamicConnectivity, DynamicBipartiteness])
def test_a_boolean_node_count_is_its_integer(facade):
    f = facade(True)
    # the bipartite core's tree is the cover, over two nodes, whose one
    # part of 2 ids is the deepest level
    tree = tree_of(f.core)
    assert type(f.n) is int and f.n == 1 and tree.levels == 0
    f.activate_node(1)
    assert f.n_components() == 1


def test_a_policy_and_a_meter_together_are_rejected():
    with pytest.raises(SparsError, match="not both"):
        DynamicConnectivity(4, policy=CommonPolicy(0.25), meter=CostMeter(ArbitraryPolicy(0)))


def test_only_the_oracle_imports_the_oracle():
    """The brute-force module stays off the structure's run-time path."""
    importers = []
    for path in sorted(Path(dynconn.__file__).parent.glob("*.py")):
        if path.name == "oracle.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            else:
                continue
            if any("oracle" in name.split(".") for name in names):
                importers.append(f"{path.name}:{node.lineno}")
    assert importers == []


def node_bounds(core):
    """(edges held, 2*span - 3) for every materialized node of the core's
    tree: the cover's in bipartiteness mode."""
    return [
        (len(node.conn.ports) // 2, max(0, 2 * len(node.conn.host_active) - 3))
        for node in core.nodes.values()
    ]


class TestSparsificationBound:
    """A node's base graph is the union of its children's spanning forests,
    so it holds at most 2*span - 3 edges at rest and one more while a
    deletion runs (see SparsNode).  Complete graphs load every node to that
    bound."""

    @pytest.mark.parametrize("make", [conn_facade, bip_facade], ids=["conn", "bip"])
    @pytest.mark.parametrize("n", [*range(2, 25), 33, 40, 48])
    def test_complete_graphs_stay_within_the_bound(self, monkeypatch, make, n):
        inner_insert = ConnGeneral.insert_edge

        def insert_edge(conn, u, v):
            inner_insert(conn, u, v)
            # the adopted edge of a deletion in flight included
            assert len(conn.ports) // 2 <= conn.edge_capacity

        monkeypatch.setattr(ConnGeneral, "insert_edge", insert_edge)
        d = make(n)
        for v in range(1, n + 1):
            d.activate_node(v)
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for u, v in pairs:
            d.insert_edge(u, v)
        held = node_bounds(d.core)
        assert all(edges <= bound for edges, bound in held)
        if make is bip_facade and n & (n - 1) == 0:
            # the cover's bottom parts are then the copy pairs {2v, 2v+1}:
            # a bottom pair node holds the two lifts of one graph edge, a
            # diagonal one none, and no node reaches its bound
            tree = tree_of(d.core)
            parts = range(2**tree.levels)
            bottom = {
                key[1:]: len(node.conn.ports) // 2
                for key, node in tree.nodes.items() if key[0] == tree.levels
            }
            assert {
                (a, b): bottom.get((a, b), 0) for a in parts for b in parts if a <= b
            } == {(a, b): 2 if a < b else 0 for a in parts for b in parts if a <= b}
        else:
            # a diagonal node's children all hold spanning trees
            assert any(edges == bound for edges, bound in held if bound)
        rng = random.Random(n)
        rng.shuffle(pairs)
        gone = pairs[: len(pairs) // 2]
        for u, v in gone:
            d.delete_edge(u, v)
        for u, v in gone[: len(gone) // 2]:
            d.insert_edge(u, v)
        assert all(edges <= bound for edges, bound in node_bounds(d.core))
        check_spars_tree(d.core)

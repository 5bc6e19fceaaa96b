import random

import pytest

from dynconn.costmodel import ArbitraryPolicy, CommonPolicy, CostMeter
from dynconn.eulerforest import EulerForest, ForestError, ReplacementReport
from dynconn.oracle import (
    SimpleGraph,
    bf_components,
    bf_connected,
    check_chunk_store,
    check_euler_forest,
)


def forest(n=16, policy=None, priority=None):
    f = EulerForest(CostMeter(policy or ArbitraryPolicy(4)), n, priority)
    return f


def forest_with(edges, n=16, policy=None):
    f = forest(n, policy)
    nodes = sorted({x for e in edges for x in e})
    for v in nodes:
        f.activate_node(v)
    for u, v in edges:
        f.insert_edge(u, v)
    return f


def tour_of(f, node):
    for view in f.all_tours():
        edges = view.edge_list()
        if any(node in e for e in edges):
            return edges
    return []


class TestNodes:
    def test_activation_counts(self):
        f = forest(4)
        for v in range(4):
            f.activate_node(v)
        assert f.n_components() == 4

    def test_deactivate_isolated(self):
        f = forest(4)
        f.activate_node(0)
        f.activate_node(1)
        f.deactivate_node(1)
        assert f.n_components() == 1

    def test_deactivate_endpoint_rejected(self):
        f = forest_with([(0, 1)])
        with pytest.raises(ForestError, match="not isolated"):
            f.deactivate_node(0)

    def test_double_activation_rejected(self):
        f = forest(4)
        f.activate_node(2)
        with pytest.raises(ForestError):
            f.activate_node(2)


class TestInsert:
    def test_two_singletons_tour(self):
        f = forest_with([(0, 1)])
        assert tour_of(f, 0) == [(0, 1), (1, 0)]
        check_euler_forest(f)

    def test_merge_order_of_two_paths(self):
        # trees {1-2} and {3-4}; inserting (2,3) splices the tours
        f = forest_with([(1, 2), (3, 4)])
        f.insert_edge(2, 3)
        assert tour_of(f, 1) == [(1, 2), (2, 3), (3, 4), (4, 3), (3, 2), (2, 1)]
        check_euler_forest(f)

    def test_triangle_close_is_non_tree(self):
        f = forest_with([(0, 1), (1, 2)])
        before = f.n_components()
        f.insert_edge(0, 2)
        assert f.n_components() == before
        assert not f.tree_edge(0, 2) and not f.tree_edge(2, 0)
        check_euler_forest(f)

    def test_degree_limit(self):
        f = forest_with([(0, 1), (0, 2), (0, 3)])
        f.activate_node(4)
        with pytest.raises(ForestError, match="degree"):
            f.insert_edge(0, 4)

    def test_duplicate_and_self_loop(self):
        f = forest_with([(0, 1)])
        with pytest.raises(ForestError):
            f.insert_edge(0, 1)
        with pytest.raises(ForestError):
            f.insert_edge(1, 1)


class TestDelete:
    def test_path_bridge_splits(self):
        f = forest_with([(0, 1), (1, 2)])
        rep = f.delete_edge(0, 1)
        assert rep.kind == ReplacementReport.SPLIT
        assert f.n_components() == 2
        check_euler_forest(f)

    def test_triangle_replacement_unique(self):
        f = forest_with([(0, 1), (1, 2)])
        f.insert_edge(0, 2)  # non-tree chord
        rep = f.delete_edge(0, 1)
        assert rep == ReplacementReport(ReplacementReport.REPLACED, (0, 2))
        assert f.connected(0, 1)
        check_euler_forest(f)

    def test_non_tree_delete(self):
        f = forest_with([(0, 1), (1, 2), (0, 2)])
        rep = f.delete_edge(0, 2)
        assert rep.kind == ReplacementReport.NON_TREE
        assert f.n_components() == 1
        check_euler_forest(f)

    def test_hint_forces_choice(self):
        # 4-cycle with a chord: the hint must become the replacement
        f = forest_with([(0, 1), (1, 2), (2, 3)])
        f.insert_edge(3, 0)
        f.insert_edge(0, 2)
        rep = f.delete_edge_with_hint(1, 2, (0, 2))
        assert rep == ReplacementReport(ReplacementReport.REPLACED, (0, 2))
        assert f.tree_edge(0, 2) or f.tree_edge(2, 0)
        check_euler_forest(f)

    def test_bad_hints_rejected(self):
        f = forest_with([(0, 1), (1, 2)])
        with pytest.raises(ForestError, match="not an edge"):
            f.delete_edge_with_hint(0, 1, (0, 2))
        with pytest.raises(ForestError, match="tree edge"):
            f.delete_edge_with_hint(0, 1, (1, 2))

    def test_absent_edge(self):
        f = forest_with([(0, 1), (2, 3)])
        with pytest.raises(ForestError, match="absent"):
            f.delete_edge(0, 2)


class TestFindReplacement:
    def test_probe_kinds(self):
        f = forest_with([(0, 1), (1, 2), (0, 2)])
        assert f.find_replacement(0, 2).kind == ReplacementReport.NON_TREE
        r = f.find_replacement(0, 1)
        assert r == ReplacementReport(ReplacementReport.REPLACED, (0, 2))
        f2 = forest_with([(0, 1)])
        assert f2.find_replacement(0, 1).kind == ReplacementReport.SPLIT

    def test_probe_leaves_state_identical(self):
        f = forest_with([(i, i + 1) for i in range(10)], n=16)
        for i in range(0, 9, 3):
            f.insert_edge(i, i + 2)

        def observable(f):
            tours = sorted(tuple(t.edge_list()) for t in f.all_tours())
            links = [(c.slot, c.links) for c in f.store.slots if c is not None]
            adj = [(i, sorted(x)) for i, x in enumerate(f.nbr) if x]
            return (tours, links, adj)

        before = observable(f)
        f.find_replacement(4, 5)
        assert observable(f) == before

    def test_probe_agrees_with_delete_common(self):
        # the common policy picks deterministically, so probe == delete exactly
        rng = random.Random(12)
        for trial in range(25):
            g, f = _random_graph_pair(
                rng, n=12, steps=25, seed=trial, policy=CommonPolicy(0.5)
            )
            edges = [(u, v) for u in g.adj for v in g.adj[u] if u < v]
            if not edges:
                continue
            u, v = rng.choice(edges)
            probe = f.find_replacement(u, v)
            real = f.delete_edge(u, v)
            assert probe == real
            check_euler_forest(f)

    def test_probe_valid_under_arbitrary(self):
        # an arbitrary-policy probe may pick a different valid edge than the
        # later delete; kinds must agree and the pick must cross the tree cut
        rng = random.Random(12)
        for trial in range(25):
            g, f = _random_graph_pair(rng, n=12, steps=25, seed=trial)
            edges = [(u, v) for u in g.adj for v in g.adj[u] if u < v]
            if not edges:
                continue
            u, v = rng.choice(edges)
            tree = SimpleGraph()
            for w in g.adj:
                tree.activate(w)
            for (x, y) in list(f.edge_occ):
                if x < y and (x, y) != (u, v):
                    tree.add_edge(x, y)
            probe = f.find_replacement(u, v)
            real = f.delete_edge(u, v)
            assert probe.kind == real.kind
            if probe.kind == ReplacementReport.REPLACED:
                a, b = probe.edge
                assert g.has_edge(a, b)
                assert not bf_connected(tree, a, b), "probe edge must cross the cut"
            check_euler_forest(f)


def _random_graph_pair(rng, n, steps, seed, policy=None):
    f = forest(n, policy or ArbitraryPolicy(seed))
    g = SimpleGraph()
    for v in range(n):
        f.activate_node(v)
        g.activate(v)
    for _ in range(steps):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        if g.has_edge(u, v):
            f.delete_edge(u, v)
            g.remove_edge(u, v)
        elif g.degree(u) < 3 and g.degree(v) < 3:
            f.insert_edge(u, v)
            g.add_edge(u, v)
    return g, f


class TestDifferential:
    @pytest.mark.parametrize("policy", [ArbitraryPolicy(7), CommonPolicy(0.5)])
    def test_queries_match_bfs(self, policy):
        rng = random.Random(99)
        n = 24
        f = forest(n, policy)
        g = SimpleGraph()
        for v in range(n):
            f.activate_node(v)
            g.activate(v)
        for step in range(600):
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v:
                continue
            if g.has_edge(u, v):
                f.delete_edge(u, v)
                g.remove_edge(u, v)
            elif g.degree(u) < 3 and g.degree(v) < 3:
                f.insert_edge(u, v)
                g.add_edge(u, v)
            assert f.n_components() == bf_components(g)
            a, b = rng.randrange(n), rng.randrange(n)
            assert f.connected(a, b) == bf_connected(g, a, b)
        check_euler_forest(f)

    def test_invariants_during_soak(self):
        rng = random.Random(13)
        n = 48
        f = forest(n, ArbitraryPolicy(2))
        g = SimpleGraph()
        for v in range(n):
            f.activate_node(v)
            g.activate(v)
        for step in range(900):
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v:
                continue
            if g.has_edge(u, v):
                f.delete_edge(u, v)
                g.remove_edge(u, v)
            elif g.degree(u) < 3 and g.degree(v) < 3:
                f.insert_edge(u, v)
                g.add_edge(u, v)
            if step % 10 == 0:
                check_euler_forest(f)
        check_euler_forest(f)


class TestLinkFlush:
    @pytest.mark.parametrize("policy", [ArbitraryPolicy(3), CommonPolicy(0.25)])
    def test_each_live_chunk_refreshed_once_per_update(self, monkeypatch, policy):
        # a near-spanning tree of 48 nodes has a tour of about 94 edges,
        # several chunks of K = 12; link vectors must match the graph after
        # every update although each is recomputed at most once per update
        refreshed = []
        refresh = EulerForest._refresh_links

        def recording(self, c):
            refreshed.append(c)
            return refresh(self, c)

        monkeypatch.setattr(EulerForest, "_refresh_links", recording)
        rng = random.Random(21)
        n = 48
        f = forest(n, policy)
        g = SimpleGraph()
        for v in range(n):
            f.activate_node(v)
            g.activate(v)
        longest = 0
        for _ in range(700):
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v:
                continue
            refreshed.clear()
            if g.has_edge(u, v):
                f.delete_edge(u, v)
                g.remove_edge(u, v)
            elif g.degree(u) < 3 and g.degree(v) < 3:
                f.insert_edge(u, v)
                g.add_edge(u, v)
            else:
                continue
            assert len(set(refreshed)) == len(refreshed)
            assert all(f.store.slots[c.slot] is c for c in refreshed)
            f.check_links_ground_truth()
            check_chunk_store(f.store)
            longest = max([longest] + [len(a.order) for a in f.store.arrays()])
        assert longest >= 4
        check_euler_forest(f)


class TestPriorities:
    def test_preferred_class_wins(self):
        # two possible replacements; priority picks the preferred one
        def prio(a, b):
            return 0 if (min(a, b), max(a, b)) == (0, 3) else 1

        for policy in (ArbitraryPolicy(1), CommonPolicy(0.5)):
            f = forest_with(
                [(0, 1), (1, 2), (2, 3)], policy=policy
            )
            f.priority_of = prio
            f.insert_edge(0, 3)
            f.insert_edge(0, 2)
            rep = f.delete_edge(1, 2)
            assert rep == ReplacementReport(ReplacementReport.REPLACED, (0, 3))

import random
import sys

import pytest

from dynconn.costmodel import ArbitraryPolicy, CommonPolicy, CostMeter
from dynconn.eulerforest import EulerForest, ForestError, ReplacementReport
from dynconn.oracle import (
    CheckFailure,
    SimpleGraph,
    bf_components,
    bf_connected,
    check_chunk_store,
    check_euler_forest,
    check_link_vectors,
    euler_tours,
)


def forest(n=16, policy=None):
    return EulerForest(CostMeter(policy or ArbitraryPolicy(4)), n)


def forest_with(edges, n=16, policy=None):
    f = forest(n, policy)
    nodes = sorted({x for e in edges for x in e})
    for v in nodes:
        f.activate_node(v)
    for u, v in edges:
        f.insert_edge(u, v)
    return f


def tour_of(f, node):
    for edges in euler_tours(f).values():
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

    def test_fresh_forest_holds_no_record_per_node_or_slot(self):
        f = forest(10**5)
        assert f.nbr == {}
        assert f.nontree == {}
        assert f.store.slots == {}


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
            tours = sorted(tuple(t) for t in euler_tours(f).values())
            links = [(c.slot, c.bits) for c in f.store.slots.values()]
            adj = [(i, sorted(x)) for i, x in f.nbr.items() if x]
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
            assert all(f.store.slots.get(c.slot) is c for c in refreshed)
            check_link_vectors(f)
            check_chunk_store(f.store)
            longest = max([longest] + [len(a) for a in f.store.arrays()])
        assert longest >= 4
        check_euler_forest(f)


class TestReindexing:
    def test_pointers_hold_after_each_partial_reindex(self, monkeypatch):
        """A split keeps its left part, a cut-out its left piece and a
        repair merge its left chunk: their edges keep their offsets, so
        only the moved ones are rewritten.  Every pointer must still name
        its edge after each of these steps, and the forest must pass its
        checker after every update."""
        fired = {"_split_chunk": 0, "_cut_out": 0, "merge": 0}

        def watch(name):
            step = getattr(EulerForest, name)

            def watched(self, *args):
                out = step(self, *args)
                if name != "_retire_chunk":
                    fired[name] += 1
                elif sys._getframe(1).f_code.co_name == "_repair":
                    fired["merge"] += 1  # the one retirement a repair makes
                else:
                    return out
                for e, (container, off) in self.edge_occ.items():
                    assert container.edges[off] == e, (name, e)
                return out

            monkeypatch.setattr(EulerForest, name, watched)

        for name in ("_split_chunk", "_cut_out", "_retire_chunk"):
            watch(name)
        rng = random.Random(8)
        n = 24
        f = forest(n)
        assert f.K == 9
        g = SimpleGraph()
        for v in range(n):
            f.activate_node(v)
            g.activate(v)
        for _ in range(400):
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v:
                continue
            if g.has_edge(u, v):
                f.delete_edge(u, v)
                g.remove_edge(u, v)
            elif g.degree(u) < 3 and g.degree(v) < 3:
                f.insert_edge(u, v)
                g.add_edge(u, v)
            check_euler_forest(f)
        assert all(fired.values()), fired


class TestSplicedLayout:
    def test_every_near_cut_of_a_replacement_splice(self, monkeypatch):
        """A replacement (w_near, w_far) is spliced into a chunked tour as
        Y' (w_near,w_far) X'' X' (w_far,w_near) Y'', where the near walk
        Y = P3 P1 is cut at an occurrence leaving w_near.  That cut falls in
        P1, in P3, or nowhere when the near side is the single node w_near;
        a seeded script reaches all three, and the forest passes its
        checkers after every update."""
        seen = {"P1": 0, "P3": 0, "single": 0}
        near_cuts = []
        commit, cut_at_source = EulerForest._commit_large, EulerForest._cut_at_source

        def watched_commit(self, array, lo, hi, pair):
            near_cuts.clear()
            commit(self, array, lo, hi, pair)
            if pair is not None:
                # the near walk is searched in P1, then in P3
                hits = [c is not None for node, c in near_cuts if node == pair[0]]
                seen[("P1", "P3")[hits.index(True)] if True in hits else "single"] += 1

        def watched_cut(self, node, pos_range):
            out = cut_at_source(self, node, pos_range)
            near_cuts.append((node, out))
            return out

        monkeypatch.setattr(EulerForest, "_commit_large", watched_commit)
        monkeypatch.setattr(EulerForest, "_cut_at_source", watched_cut)
        rng = random.Random(3)
        n = 20
        f = forest(n)
        assert f.K == 8
        g = SimpleGraph()
        for v in range(n):
            f.activate_node(v)
            g.activate(v)
        for _ in range(600):
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v:
                continue
            if g.has_edge(u, v):
                f.delete_edge(u, v)
                g.remove_edge(u, v)
            elif g.degree(u) < 3 and g.degree(v) < 3:
                f.insert_edge(u, v)
                g.add_edge(u, v)
            check_euler_forest(f)
            check_chunk_store(f.store)
        assert all(seen.values()), seen


class TestCheckerCatchesCorruption:
    """The checker finds tours from the occurrence pointers; it must still
    see a chunk array those pointers miss and a pointer that misses its
    edge."""

    def chunked_path(self):
        f = forest_with([(i, i + 1) for i in range(40)], n=48)
        assert f.store.arrays()
        check_euler_forest(f)
        return f

    def test_array_no_occurrence_reaches(self):
        f = self.chunked_path()
        orphan = f.store.new_array()
        f.store.insert_chunk(orphan, 0, f.store.alloc_chunk([(44, 45), (45, 44)]))
        with pytest.raises(CheckFailure, match="no occurrence reaches"):
            check_euler_forest(f)

    def test_stale_pointer_into_a_chunk(self):
        f = self.chunked_path()
        c, off = f.edge_occ[(20, 21)]
        f.edge_occ[(20, 21)] = (c, off - 1 if off else off + 1)
        with pytest.raises(CheckFailure, match="occurrence pointer stale"):
            check_euler_forest(f)

    def test_stale_pointer_into_a_small_tour(self):
        f = forest_with([(0, 1), (1, 2)])
        tour, off = f.edge_occ[(0, 1)]
        f.edge_occ[(0, 1)] = (tour, (off + 1) % len(tour.edges))
        with pytest.raises(CheckFailure, match="occurrence pointer stale"):
            check_euler_forest(f)

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda nontree: nontree[0].remove(20),
            lambda nontree: nontree.update({5: [6]}),
            lambda nontree: nontree[0].reverse(),
            lambda nontree: nontree.update({7: []}),
        ],
        ids=["dropped", "stray", "swapped", "empty"],
    )
    def test_non_tree_record_changed_behind_the_forest(self, tamper):
        """The record must list each node's non-tree neighbours in `nbr`
        order, and hold no other node."""
        f = self.chunked_path()
        f.insert_edge(0, 20)
        f.insert_edge(0, 30)
        check_euler_forest(f)
        assert f.nontree == {0: [20, 30], 20: [0], 30: [0]}
        tamper(f.nontree)
        with pytest.raises(CheckFailure, match="non-tree record"):
            check_euler_forest(f)

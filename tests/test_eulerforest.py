import random
import sys
from collections import Counter

import pytest

from dynconn.chunks import MasterArray
from dynconn.costmodel import ArbitraryPolicy, CommonPolicy, CostMeter
from dynconn.eulerforest import (
    TOUCHED_ON_LINK,
    TOUCHED_ON_REPLACEMENT,
    TRANSIENT_CHUNKS,
    EulerForest,
    ForestError,
    ReplacementReport,
    SmallTour,
    locate,
    resting_chunks,
)
from dynconn.oracle import (
    CheckFailure,
    SimpleGraph,
    bf_components,
    bf_connected,
    check_agg_tree,
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
        assert f.master is None and f.slots_of is None


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

    @pytest.mark.parametrize(
        "deleted, hint",
        [
            ((10, 11), (42, 44)), ((10, 11), (45, 47)), ((42, 43), (0, 20)),
            ((42, 43), (45, 47)), ((0, 20), (42, 44)), ((42, 44), (0, 20)),
            ((42, 44), (45, 47)),
        ],
        ids=[
            "chunked-small", "chunked-other-small", "small-chunked", "small-other-small",
            "non-tree-chunked-small", "non-tree-small-chunked", "non-tree-small-other-small",
        ],
    )
    def test_hint_off_the_tour_rejected_before_any_change(self, deleted, hint):
        """A hint is a non-tree edge of the deleted edge's own tour.  One
        from another tour, chunked or small, is refused before the probe,
        or for a non-tree deletion before the adjacency changes, leaving the
        forest, its update record and the meter as they were."""
        f = forest_with(
            [(i, i + 1) for i in range(40)] + [(42, 43), (43, 44), (45, 46), (46, 47)], n=48
        )
        for u, v in ((0, 20), (42, 44), (45, 47)):
            f.insert_edge(u, v)
        assert f.store.arrays() and isinstance(f.edge_occ[(42, 43)][0], SmallTour)

        def state():
            tours = sorted(tuple(t) for t in euler_tours(f).values())
            links = sorted((c.slot, c.bits) for c in f.store.slots.values())
            adj = sorted((v, list(x)) for v, x in f.nbr.items())
            return tours, links, adj, dict(f.nontree), f.meter.work, f.meter.depth

        before = state()
        with pytest.raises(ForestError, match="off the tour"):
            f.delete_edge_with_hint(*deleted, hint)
        assert state() == before and f._touched is None
        check_euler_forest(f)
        kind = ReplacementReport.REPLACED if f.tree_edge(*deleted) else ReplacementReport.NON_TREE
        assert f.delete_edge(*deleted).kind == kind


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

    @pytest.mark.parametrize("policy", [ArbitraryPolicy(3), CommonPolicy(0.25)])
    def test_every_refresh_and_retirement_leaves_every_tree_counted(
        self, monkeypatch, policy
    ):
        """A seeded soak, then the deletion of every edge in a seeded order,
        that checks every chunk array's tree after each link refresh and
        each retirement: every count equals the leaves below it holding the
        slot's bit.  It must reach refreshes that clear column bits,
        retirements of linked chunks and column writes that flip a chunk
        outside the written chunk's array, which a tour split with no
        replacement leaves holding stale bits to the other piece."""
        seen = Counter()
        refresh, retire = MasterArray.bulk_set_links, MasterArray.retire_chunk
        write_column = MasterArray._write_column

        def watched_column(self, c, flips):
            seen["cross-array flip"] += any(
                d.array is not c.array for s, d in self.slots.items() if flips >> s & 1
            )
            write_column(self, c, flips)

        def checked_refresh(self, c, links):
            seen["clearing refresh"] += bool(c.bits & ~links)
            refresh(self, c, links)
            for array in self.arrays():
                check_agg_tree(array)

        def checked_retire(self, c):
            seen["linked retirement"] += bool(c.bits)
            retire(self, c)
            for array in self.arrays():
                check_agg_tree(array)

        monkeypatch.setattr(MasterArray, "bulk_set_links", checked_refresh)
        monkeypatch.setattr(MasterArray, "retire_chunk", checked_retire)
        monkeypatch.setattr(MasterArray, "_write_column", watched_column)
        rng = random.Random(8)
        g, f = _random_graph_pair(rng, 40, 900, 3, policy)
        edges = sorted(g.edges())
        rng.shuffle(edges)
        for u, v in edges:
            f.delete_edge(u, v)
        check_euler_forest(f)
        assert seen["clearing refresh"] > 50 and seen["linked retirement"] > 5, seen
        assert seen["cross-array flip"] > 0, seen

    def test_an_update_refreshes_only_the_chunks_marked_for_it(self, monkeypatch):
        """On a chunked tour with no non-tree edge, a singleton link and a
        leaf contraction refresh no link vector.  After one non-tree edge
        (0, 30) goes in, a singleton link at its endpoint 0 writes a chunk
        that has room for it, and the flush refreshes that chunk alone; so
        does the contraction of the new leaf.  A singleton link at node 10,
        which has no non-tree edge, again refreshes nothing."""
        f, array = _chunked_path()
        refreshed, refresh = [], EulerForest._refresh_links

        def recording(self, c):
            refreshed.append(c)
            return refresh(self, c)

        monkeypatch.setattr(EulerForest, "_refresh_links", recording)

        def update(call, *args):
            refreshed.clear()
            call(*args)
            check_euler_forest(f)
            return list(refreshed)

        f.activate_node(42)
        f.activate_node(43)
        assert not f.nontree
        assert update(f.insert_edge, 10, 42) == []
        assert not isinstance(f.edge_occ[(10, 42)][0], SmallTour)
        assert update(f.contract, 42) == []
        f.insert_edge(0, 30)
        assert not f.tree_edge(0, 30)
        refreshed_on_link = update(f.insert_edge, 0, 43)
        c = locate(f.edge_occ[(0, 43)])[0]
        assert refreshed_on_link == [c] and c.bits
        assert update(f.contract, 43) == [c]
        assert update(f.insert_edge, 10, 42) == []
        check_chunk_store(f.store)


def _self_work(monkeypatch, meter, target, callees):
    """Wrap `target`, an (owner, name) pair, to record each call's arguments
    and its work less that of the outermost `callees` it calls."""
    calls = []
    state = {"open": 0, "nested": 0, "inner": 0}
    for owner, name in callees:
        fn = getattr(owner, name)

        def callee(*args, _fn=fn, **kwargs):
            w0 = meter.work
            state["nested"] += 1
            try:
                return _fn(*args, **kwargs)
            finally:
                state["nested"] -= 1
                if state["open"] and not state["nested"]:
                    state["inner"] += meter.work - w0

        monkeypatch.setattr(owner, name, callee)
    owner, name = target
    fn = getattr(owner, name)

    def traced(*args, **kwargs):
        w0 = meter.work
        state["open"], state["inner"] = 1, 0
        try:
            return fn(*args, **kwargs)
        finally:
            state["open"] = 0
            calls.append((args, meter.work - w0 - state["inner"]))

    monkeypatch.setattr(owner, name, traced)
    return calls


class TestScansChargeWhatTheyRead:
    """The replacement search and the unlink after a non-tree deletion are
    charged for the chunks and pairs they read, not for the chunk
    capacity."""

    def test_the_probe_scan_follows_chunk_length(self, monkeypatch):
        # 8 for the setup, then 3 * (e + 1) per chunk scanned, a chunk of e
        # edges holding at most e + 1 nodes of degree at most 3: the two
        # cut chunks, and the near chunk of each pair a query returns.  An
        # edge with a lone endpoint makes no probe (TestLoneEndpoint), so
        # only edges whose endpoints both have another edge are probed.
        rng = random.Random(8)
        _, f = _random_graph_pair(rng, 40, 900, 3)
        meter = f.meter
        pairs = []
        query = MasterArray.query

        def recorded(self, *args):
            out = query(self, *args)
            if out is not None:
                pairs.append(out)
            return out

        monkeypatch.setattr(MasterArray, "query", recorded)
        probes = _self_work(
            monkeypatch, meter, (EulerForest, "_probe_large"),
            [(EulerForest, "_chunk_nodes"), (MasterArray, "query"), (CostMeter, "pick")],
        )
        lengths, queried, probed = set(), 0, 0
        for (u, v) in sorted(f.edge_occ):
            if u > v or isinstance(f.edge_occ[(u, v)][0], SmallTour):
                continue
            if len(f.nbr[u]) == 1 or len(f.nbr[v]) == 1:
                continue
            pairs.clear()
            c1, c2 = f.edge_occ[(u, v)][0], f.edge_occ[(v, u)][0]
            scanned = {c1, c2}
            f.find_replacement(u, v)
            (_, work) = probes.pop()
            near = sum(3 * (len(p[0].edges) + 1) for p in pairs)
            assert work == 8 + 2 * sum(3 * (len(c.edges) + 1) for c in scanned) + 2 * near
            lengths.update(len(c.edges) for c in scanned)
            queried += len(pairs)
            probed += 1
        assert len(lengths) > 3 and min(lengths) < f.K and queried > 5 and probed > 20

    def test_the_unlink_pays_one_bit_test_per_chunk_pair(self, monkeypatch):
        # the chunks of u against the chunks of v, one bit of a's fresh
        # vector each; the vectors' scans and the unlinks are charged apart
        rng = random.Random(8)
        _, f = _random_graph_pair(rng, 40, 900, 3)
        unlinks = _self_work(
            monkeypatch, f.meter, (EulerForest, "_unlink_after_delete"),
            [(EulerForest, "_links_of"), (MasterArray, "unlink")],
        )
        chords = [(u, v) for u in sorted(f.nontree) for v in f.nontree[u] if u < v]
        sizes = []
        for u, v in chords:
            cu, cv = f._chunks_of(u), f._chunks_of(v)
            f.delete_edge(u, v)
            (_, work) = unlinks.pop()
            assert work == (2 * len(cu) * len(cv) if cu else 0)
            sizes.append(len(cu) * len(cv))
            check_euler_forest(f)
        assert len(sizes) > 5 and max(sizes) > 1


class TestReindexing:
    def test_pointers_hold_after_each_partial_reindex(self, monkeypatch):
        """A split and a cut-out keep their longer piece in the chunk, and a
        repair merge its left chunk unless only the right one is linked;
        where the kept edges keep their offsets (a left piece, a merge's
        left chunk), only the moved ones are rewritten.  Every pointer must
        still name its edge after each of these steps, and the forest must
        pass its checker after every update."""
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
                for e, occ in self.edge_occ.items():
                    container, off = locate(occ)
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


class TestSlotRecord:
    def test_entries_hit_and_every_drop_fires_during_soak(self, monkeypatch):
        """A small-K soak passes the checker, which recomputes every
        `slots_of` entry, after every update.  The link computation must
        read stored entries, and the drops of a reindex, of a cut-out edge
        and of a demotion must each remove a live entry."""
        hits = []
        dropped = {}
        links_of, reindex, moved = (
            EulerForest._links_of, EulerForest._reindex_chunk, EulerForest._moved,
        )

        def watched_links_of(self, c):
            nodes = {x for e in c.edges for x in e}
            hits.extend(
                y for x in nodes for y in self.nontree.get(x, ()) if y in self.slots_of
            )
            return links_of(self, c)

        def count(name, before, after):
            dropped[name] = dropped.get(name, 0) + before - after

        def watched_reindex(self, c, *args, **kwargs):
            before = len(self.slots_of)
            reindex(self, c, *args, **kwargs)
            count("_reindex_chunk", before, len(self.slots_of))

        def watched_moved(self, *nodes):
            before = len(self.slots_of)
            moved(self, *nodes)
            count(sys._getframe(1).f_code.co_name, before, len(self.slots_of))

        monkeypatch.setattr(EulerForest, "_links_of", watched_links_of)
        monkeypatch.setattr(EulerForest, "_reindex_chunk", watched_reindex)
        monkeypatch.setattr(EulerForest, "_moved", watched_moved)
        # short-range edges close many short cycles, and a deletion share
        # of 0.3 keeps splitting pieces off the long tours, so tours holding
        # stored entries are demoted too
        rng = random.Random(0)
        n = 30
        f = forest(n, ArbitraryPolicy(5))
        assert f.K == 10 and f.slots_of is None
        g = SimpleGraph()
        for v in range(n):
            f.activate_node(v)
            g.activate(v)
        edges = []
        for _ in range(1500):
            if edges and rng.random() < 0.3:
                u, v = edges.pop(rng.randrange(len(edges)))
                f.delete_edge(u, v)
                g.remove_edge(u, v)
            else:
                u = rng.randrange(n)
                v = (u + rng.randrange(1, 5)) % n
                if g.has_edge(u, v) or g.degree(u) == 3 or g.degree(v) == 3:
                    continue
                f.insert_edge(u, v)
                g.add_edge(u, v)
                edges.append((u, v))
            check_euler_forest(f)
        assert hits
        drops = ("_reindex_chunk", "_cut_out", "_maybe_shrink")
        assert all(dropped.get(k) for k in drops), dropped


def _cut(walk, node, nbr):
    """Index in `walk` of its first occurrence (node, w) in `nbr[node]`
    order, the one `_cut_at_source` starts a chunk at."""
    return next(walk.index((node, w)) for w in nbr[node] if (node, w) in walk)


def _replaced_layout(tour, deleted, pair, nbr):
    """The tour that replacing the tree edge `deleted` by `pair` on a
    chunked tour must leave, up to rotation, from the tour before the delete
    and the `nbr` after it.  The near walk Y = P3 P1 and the far walk X = P2
    are each rotated to start at their endpoint's occurrence (`_cut`) and
    laid out as Y (w_near,w_far) X (w_far,w_near).  A walk of one node is
    empty: a near one is swapped to the far side, and both occurrences then
    follow the near endpoint's first entering occurrence in `nbr` order.
    Returns the layout, the (w_near, w_far) that the link sees and the case,
    "one-node near", "one-node far" or None."""
    u, v = deleted
    i1, i2 = sorted((tour.index((u, v)), tour.index((v, u))))
    y, x = tour[i2 + 1 :] + tour[:i1], tour[i1 + 1 : i2]
    far = {tour[i1][1]} | {a for a, _ in x}
    w_near, w_far = pair if pair[1] in far else pair[::-1]
    case = None
    if not y:
        y, x, w_near, w_far, case = x, y, w_far, w_near, "one-node near"
    if not x:
        k = next(y.index((w, w_near)) for w in nbr[w_near] if (w, w_near) in y) + 1
        want = y[:k] + [(w_near, w_far), (w_far, w_near)] + y[k:]
        return want, (w_near, w_far), case or "one-node far"
    yc, xc = _cut(y, w_near, nbr), _cut(x, w_far, nbr)
    want = y[yc:] + y[:yc] + [(w_near, w_far)] + x[xc:] + x[:xc] + [(w_far, w_near)]
    return want, (w_near, w_far), None


def _assert_rotation_of(got, want):
    assert len(got) == len(want)
    k = got.index(want[0])
    assert got[k:] + got[:k] == want


def _replacing_soak(f, seed, steps, target, on_replaced):
    """Random inserts and deletes over every node of `f`, degree at most 3;
    after each delete on a chunked tour that a replacement repairs,
    `on_replaced(tour before, deleted edge, report)` runs.  A split of a
    chunked tour with no replacement leaves the far side's tour starting at
    the far endpoint t.  When t is left with one tree edge (t, a), the next
    two steps give t a non-tree edge into its tour and delete (t, a), whose
    replacement then has a near side of one node.  The forest passes its
    checkers after every update."""
    rng = random.Random(seed)
    n = f.capacity
    g = SimpleGraph()
    for v in range(n):
        f.activate_node(v)
        g.activate(v)
    plan, edges = [], []
    for _ in range(steps):
        if plan:
            u, v = plan.pop(0)
        elif edges and rng.random() < 0.5 + (len(edges) - target) / target:
            u, v = edges[rng.randrange(len(edges))]
        else:
            u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        if g.has_edge(u, v):
            edges.remove(tuple(sorted((u, v))))
            occ = f.edge_occ.get((u, v))
            tour = tour_of(f, u)
            rep = f.delete_edge(u, v)
            g.remove_edge(u, v)
            if occ is not None and not isinstance(occ[0], SmallTour):
                if rep.kind == ReplacementReport.REPLACED:
                    on_replaced(tour, (u, v), rep)
                elif rep.kind == ReplacementReport.SPLIT and f.nbr[u] and f.nbr[v]:
                    t, a = tour[min(tour.index((u, v)), tour.index((v, u))) + 1]
                    inside = {x for e in tour_of(f, t) for x in e} - {t, *f.nbr[t]}
                    ys = [y for y in sorted(inside) if g.degree(y) < 3]
                    if f.nbr[t] == [a] and ys:
                        plan = [(t, rng.choice(ys)), (t, a)]
        elif g.degree(u) < 3 and g.degree(v) < 3:
            f.insert_edge(u, v)
            g.add_edge(u, v)
            edges.append(tuple(sorted((u, v))))
        check_euler_forest(f)
        check_chunk_store(f.store)


class TestLinkedLayout:
    def test_a_replacement_is_the_cut_then_the_link(self, monkeypatch):
        """A replacement on a chunked tour splits the far side's tour off,
        joins the near side's and links the two by the replacement edge,
        leaving the oracle's layout up to rotation (`_replaced_layout`).  A
        seeded small-K soak must reach a near cut that splits a chunk and
        one that finds its occurrence at a chunk's front, the same two for
        the far cut, a far side of one node, and a near side of one node
        swapped to the far side."""
        reached = Counter()
        links, cut_splits = [], []
        link, split = EulerForest._link, EulerForest._split_chunk

        def watched_link(self, near, far, pair):
            cut_splits.clear()
            whole = bool(far)
            link(self, near, far, pair)
            if sys._getframe(1).f_code.co_name == "_commit_large":
                links.append((pair, whole, list(cut_splits)))

        def watched_split(self, c, at, gap=0):
            caller = sys._getframe(1)
            if caller.f_code.co_name == "_cut_at_source":
                cut_splits.append(caller.f_locals["node"])
            return split(self, c, at, gap)

        def on_replaced(tour, deleted, rep):
            pair, whole, splits = links.pop()
            assert not links
            want, seen_pair, case = _replaced_layout(tour, deleted, rep.edge, f.nbr)
            assert pair == seen_pair and whole == (case is None), (deleted, rep)
            if case is not None:
                reached[case] += 1
            else:
                for side, node in zip(("near", "far"), pair):
                    reached[f"{side} {'split' if node in splits else 'front'}"] += 1
            _assert_rotation_of(tour_of(f, pair[0]), want)

        monkeypatch.setattr(EulerForest, "_link", watched_link)
        monkeypatch.setattr(EulerForest, "_split_chunk", watched_split)
        f = forest(20)
        assert f.K == 8
        _replacing_soak(f, 3, 1000, 20, on_replaced)
        cases = ("near split", "near front", "far split", "far front", "one-node far",
                 "one-node near")
        print(dict(reached))
        assert all(reached[k] for k in cases), reached


class TestNewOccurrences:
    """A new tree edge's occurrences go into chunks already in the tour."""

    @pytest.mark.parametrize("singleton_first", [True, False])
    def test_singleton_link_writes_after_an_occurrence_of_its_endpoint(
        self, monkeypatch, singleton_first
    ):
        f = forest_with([(i, i + 1) for i in range(40)], n=48)
        f.activate_node(45)
        # an endpoint whose target chunk has room for two more edges
        t = next(t for t in range(1, 40) if len(f._target_occurrence(t)[0].edges) <= f.K - 2)
        c, off = f._target_occurrence(t)
        x_edge, slots = c.edges[off], set(f.store.slots)
        allocated = []
        alloc = MasterArray.alloc_chunk
        monkeypatch.setattr(
            MasterArray, "alloc_chunk", lambda self, edges: allocated.append(edges) or alloc(self, edges)
        )
        f.insert_edge(*((45, t) if singleton_first else (t, 45)))
        assert set(f.store.slots) == slots and not allocated
        assert c.edges[off : off + 3] == [x_edge, (t, 45), (45, t)]
        check_euler_forest(f)
        check_chunk_store(f.store)

    def test_replacement_with_an_empty_far_side(self):
        """Deleting the tree edge (20, 41) of a leaf 41 that also has the
        non-tree edge (41, 5) leaves 41 alone on the far side; the link
        writes (5, 41), (41, 5) one after the other."""
        f = forest_with([(i, i + 1) for i in range(40)] + [(20, 41)], n=48)
        f.insert_edge(41, 5)
        rep = f.delete_edge(20, 41)
        assert rep == ReplacementReport(ReplacementReport.REPLACED, (5, 41))
        check_euler_forest(f)
        check_chunk_store(f.store)
        tour = tour_of(f, 41)
        i = tour.index((5, 41))
        assert tour[(i + 1) % len(tour)] == (41, 5)

    @pytest.mark.parametrize("policy", [ArbitraryPolicy(9), CommonPolicy(0.25)])
    def test_links_and_splices_never_allocate(self, monkeypatch, policy):
        """A seeded small-K soak records the callers of every chunk
        allocation: a link and a replacement make none of their own, while
        cuts, repairs and chunkings do.  The soak must reach a link of a
        singleton, of two chunked tours and of a chunked tour and a small
        one it chunks, a replacement, and a replacement whose far side is
        one node, which rotates nothing and allocates only in its sizing
        repair.  A repair's merge of a linked chunk and an unlinked one must
        retire the unlinked one, and the soak must reach such a merge.  The
        checkers run after every update."""
        allocations = []
        reorders = []
        reached = dict.fromkeys(
            ("singleton link", "chunked link", "chunkified link", "replacement",
             "one-node far side", "linked merge"),
            0,
        )
        alloc, reorder = MasterArray.alloc_chunk, MasterArray.reorder
        merge, link, retire = EulerForest._merge_tours, EulerForest._link, EulerForest._retire_chunk

        def watched_alloc(self, edges):
            allocations.append((sys._getframe(1).f_code.co_name, sys._getframe(2).f_code.co_name))
            return alloc(self, edges)

        def watched_reorder(self, array, pos):
            reorders.append(pos)
            return reorder(self, array, pos)

        def watched_merge(self, u, v):
            kinds = sorted(type(self._tree_id(x)).__name__ for x in (u, v))
            link = {
                ("AggTree", "tuple"): "singleton link",
                ("AggTree", "AggTree"): "chunked link",
                ("AggTree", "SmallTour"): "chunkified link",
            }.get(tuple(kinds))
            if link is not None:
                reached[link] += 1
            return merge(self, u, v)

        def watched_link(self, near, far, pair):
            if sys._getframe(1).f_code.co_name != "_commit_large":
                return link(self, near, far, pair)
            reached["replacement"] += 1
            made, moved, whole = len(allocations), len(reorders), bool(far)
            link(self, near, far, pair)
            if not whole:
                reached["one-node far side"] += 1
                assert len(reorders) == moved
                assert all(up == "_repair" for _, up in allocations[made:]), allocations[made:]

        def watched_retire(self, c):
            repair = sys._getframe(1)
            if repair.f_code.co_name == "_repair":
                pair = (repair.f_locals["left"], repair.f_locals["right"])
                partner = pair[pair[0] is c]
                assert not c.bits or partner.bits, "a merge retired a linked chunk"
                reached["linked merge"] += bool(partner.bits) != bool(c.bits)
            return retire(self, c)

        monkeypatch.setattr(MasterArray, "alloc_chunk", watched_alloc)
        monkeypatch.setattr(EulerForest, "_retire_chunk", watched_retire)
        monkeypatch.setattr(MasterArray, "reorder", watched_reorder)
        monkeypatch.setattr(EulerForest, "_merge_tours", watched_merge)
        monkeypatch.setattr(EulerForest, "_link", watched_link)
        rng = random.Random(5)
        n = 20
        f = forest(n, policy)
        assert f.K == 8
        g = SimpleGraph()
        for v in range(n):
            f.activate_node(v)
            g.activate(v)
        for _ in range(800):
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
        assert all(reached.values()), reached
        callers = {name for name, _ in allocations}
        assert not callers & {"_merge_tours", "_link", "_commit_large"}, callers
        assert {"_as_array", "_split_chunk"} <= callers, callers
        assert ("_split_chunk", "_cut_out") in allocations, callers


def _linked_path():
    """A path over 20 nodes, chunked at K = 8, whose three chords make most
    chunks linked; returns the forest and its one array."""
    f = forest_with([(i, i + 1) for i in range(19)] + [(0, 10), (5, 15), (3, 17)], n=20)
    (array,) = f.store.arrays()
    return f, array


def _store_calls(monkeypatch):
    """Record every chunk allocation and retirement as ("alloc", edges) or
    ("retire", chunk, its bits)."""
    calls = []
    alloc, retire = MasterArray.alloc_chunk, MasterArray.retire_chunk

    def watched_alloc(self, edges):
        calls.append(("alloc", list(edges)))
        return alloc(self, edges)

    def watched_retire(self, c):
        calls.append(("retire", c, c.bits))
        return retire(self, c)

    monkeypatch.setattr(MasterArray, "alloc_chunk", watched_alloc)
    monkeypatch.setattr(MasterArray, "retire_chunk", watched_retire)
    return calls


class TestSlotRule:
    """A cut, split or merge leaves a linked chunk's slot with the piece
    that survives, and a new chunk, which holds no link bits, takes the
    piece the sizing repair is likeliest to merge away."""

    def test_cutting_a_linked_chunks_first_occurrence_keeps_its_slot(self, monkeypatch):
        f, array = _linked_path()
        # a linked chunk of 3 or more edges whose first edge's reverse lies
        # in another chunk, so its cut is the only one in this chunk
        c = next(
            c for c in array.leaves
            if c.bits and len(c.edges) >= 3
            and f.edge_occ[c.edges[0][::-1]][0] is not c
        )
        first, rest, slot, pos = c.edges[0], c.edges[1:], c.slot, c.pos
        calls = _store_calls(monkeypatch)
        cut_out, seen = EulerForest._cut_out, []

        def watched_cut(self, edge):
            made = len(calls)
            out = cut_out(self, edge)
            if edge == first:
                seen.append((out, calls[made:], list(c.edges), self.store.slots.get(slot)))
                for off, e in enumerate(c.edges):
                    assert locate(self.edge_occ[e]) == (c, off)
            return out

        monkeypatch.setattr(EulerForest, "_cut_out", watched_cut)
        f.delete_edge(*first)
        (out, during, edges, holder), = seen
        assert out == pos and during == [] and edges == rest and holder is c
        check_euler_forest(f)
        check_chunk_store(f.store)

    @pytest.mark.parametrize("fresh", ["left", "right"])
    def test_a_merge_retires_the_unlinked_chunk(self, monkeypatch, fresh):
        """Split one edge off the first chunk, a linked one, into a new
        chunk on either side; the repair merges the two back and retires
        the new, unlinked chunk, whichever side it is on."""
        f, array = _linked_path()
        c = array.leaves[0]
        edges, slot = list(c.edges), c.slot
        assert c.bits and len(edges) >= 3
        f._touched = {}
        left, right = f._split_chunk(c, 1 if fresh == "left" else len(edges) - 1)
        new = left if fresh == "left" else right
        assert new is not c and not new.bits
        calls = _store_calls(monkeypatch)
        f._repair(array)
        f._flush_links()
        assert calls == [("retire", new, 0)]
        assert f.store.slots[slot] is c and c.edges == edges and c.pos == 0
        check_euler_forest(f)
        check_chunk_store(f.store)

    def test_a_link_cut_gives_the_new_chunk_the_shorter_head(self, monkeypatch):
        """A link cuts each tour before an occurrence leaving its endpoint.
        When that occurrence sits in the front half of its chunk, the new
        chunk takes the shorter head before it, which the rotation makes
        the last chunk of the tour, so the new occurrence is appended to
        it.  A seeded small-K soak must reach such a cut in a replacement;
        there the tour must be the oracle's layout up to rotation
        (`_replaced_layout`), and the forest passes its checkers after
        every update."""
        reached = 0
        heads, ends = {}, {}
        split, write = EulerForest._split_chunk, EulerForest._write_occurrences

        def watched_split(self, c, at, gap=0):
            caller, n_edges = sys._getframe(1), len(c.edges)
            pieces = split(self, c, at, gap)
            if caller.f_code.co_name == "_cut_at_source" and 2 * at < n_edges:
                assert pieces[0] is not c and pieces[1] is c
                heads[caller.f_locals["node"]] = pieces[0]
            return pieces

        def watched_write(self, c, at, new):
            if sys._getframe(1).f_code.co_name == "_link" and len(new) == 1:
                assert at == len(c.edges)
                ends[new[0][0]] = c
            return write(self, c, at, new)

        def on_replaced(tour, deleted, rep):
            nonlocal reached
            if heads:
                reached += 1
                want, pair, _ = _replaced_layout(tour, deleted, rep.edge, f.nbr)
                _assert_rotation_of(tour_of(f, pair[0]), want)

        def watched(update):
            def run(self, u, v):
                heads.clear()
                ends.clear()
                out = update(self, u, v)
                assert all(ends[node] is head for node, head in heads.items()), (heads, ends)
                return out

            return run

        monkeypatch.setattr(EulerForest, "_split_chunk", watched_split)
        monkeypatch.setattr(EulerForest, "_write_occurrences", watched_write)
        for name in ("insert_edge", "delete_edge"):
            monkeypatch.setattr(EulerForest, name, watched(getattr(EulerForest, name)))
        f = forest(20)
        assert f.K == 8
        _replacing_soak(f, 3, 600, 20, on_replaced)
        assert reached


class _CountedOccurrences(dict):
    """An occurrence record that counts the pointers written into it."""

    writes = 0

    def __setitem__(self, key, value):
        self.writes += 1
        super().__setitem__(key, value)


class _Reindexes:
    """Records, for the forest `f`, each `_reindex_chunk` call as (pointers
    written, its work less that of its base move) and the work of each base
    move; `f` gets an occurrence record that counts its writes."""

    def __init__(self, monkeypatch, f):
        f.edge_occ = _CountedOccurrences(f.edge_occ)
        self.calls, self.moves = [], []
        reindex, move = EulerForest._reindex_chunk, EulerForest._move_base

        def recorded_move(forest, c, shift):
            w0 = forest.meter.work
            move(forest, c, shift)
            self.moves.append(forest.meter.work - w0)

        def recorded(forest, c, *args, **kwargs):
            w0, n0, m0 = forest.meter.work, forest.edge_occ.writes, len(self.moves)
            reindex(forest, c, *args, **kwargs)
            work = forest.meter.work - w0 - sum(self.moves[m0:])
            self.calls.append((forest.edge_occ.writes - n0, work))

        monkeypatch.setattr(EulerForest, "_move_base", recorded_move)
        monkeypatch.setattr(EulerForest, "_reindex_chunk", recorded)

    def mark(self):
        return len(self.calls), len(self.moves)

    def since(self, mark):
        """(pointers written, reindex work, base moves) since `mark`."""
        calls = self.calls[mark[0] :]
        return sum(n for n, _ in calls), sum(w for _, w in calls), len(self.moves) - mark[1]


def _chunked_path():
    """A path over 0 .. 40 with a leaf 41 on node 20, chunked at K = 12."""
    f = forest_with([(i, i + 1) for i in range(40)] + [(20, 41)], n=48)
    (array,) = f.store.arrays()
    assert f.K == 12
    return f, array


class TestReindexOnlyWhatMoves:
    """Occurrence offsets are stored relative to their chunk's base, so an
    update rewrites, and its reindexes charge, only the pointers of edges
    that change chunk, of new edges and of the shorter side of an insert;
    a chunk that drops or gains a front moves its base, one unit.  A
    reindex charges, per pointer it rewrites, one iteration whose body
    reads the old pointer, tests the edge's two endpoints against the
    non-tree record and writes the new pointer, 5 units
    (`parallel_charge`)."""

    def test_cutting_a_chunks_first_occurrence_rewrites_nothing(self, monkeypatch):
        # an edge with no lone endpoint, so the delete cuts it out rather
        # than contracting a leaf
        f, array = _chunked_path()
        c = next(
            c for c in array.leaves
            if len(c.edges) >= 3 and locate(f.edge_occ[c.edges[0][::-1]])[0] is not c
            and all(len(f.nbr[x]) > 1 for x in c.edges[0])
        )
        first, rest = c.edges[0], c.edges[1:]
        rec = _Reindexes(monkeypatch, f)
        cut_out, seen = EulerForest._cut_out, []

        def watched_cut(self, edge):
            mark = rec.mark()
            out = cut_out(self, edge)
            if edge == first:
                seen.append(rec.since(mark))
                assert c.edges == rest
                for off, e in enumerate(c.edges):
                    assert locate(self.edge_occ[e]) == (c, off)
            return out

        monkeypatch.setattr(EulerForest, "_cut_out", watched_cut)
        f.delete_edge(*first)
        assert seen == [(0, 0, 1)] and rec.moves == [1] * len(rec.moves)
        check_euler_forest(f)
        check_chunk_store(f.store)

    @pytest.mark.parametrize("shorter", ["left", "right"])
    def test_a_split_rewrites_its_shorter_piece(self, monkeypatch, shorter):
        f, array = _chunked_path()
        c = next(c for c in array.leaves if len(c.edges) >= 7)
        n = len(c.edges)
        at = 2 if shorter == "left" else n - 3
        rec = _Reindexes(monkeypatch, f)
        f._touched = {}
        mark = rec.mark()
        left, right = f._split_chunk(c, at)
        moved = min(at, n - at)
        assert rec.since(mark) == (moved, 5 * moved, 1 if shorter == "left" else 0)
        assert (left is c) == (shorter == "right") and (right is c) == (shorter == "left")
        f._repair(array)
        f._flush_links()
        check_euler_forest(f)
        check_chunk_store(f.store)

    def test_a_merge_into_the_linked_right_chunk_rewrites_the_left_one(self, monkeypatch):
        """Split two edges off a linked chunk of five into a new chunk on
        its left; the repair merges them back into the linked chunk, which
        gains a front: only the two edges of the new chunk are rewritten."""
        f, array = _linked_path()
        c = next(c for c in array.leaves if len(c.edges) == 5 and c.bits)
        edges, slot = list(c.edges), c.slot
        f._touched = {}
        new, kept = f._split_chunk(c, 2)
        assert kept is c and not new.bits
        rec = _Reindexes(monkeypatch, f)
        f._repair(array)
        f._flush_links()
        assert rec.since((0, 0)) == (2, 10, 1)
        assert f.store.slots[slot] is c and c.edges == edges and new.array is None
        check_euler_forest(f)
        check_chunk_store(f.store)

    @pytest.mark.parametrize("shorter", ["head", "tail"])
    def test_a_one_node_far_side_rewrites_the_shorter_side(self, monkeypatch, shorter):
        """Deleting (20, 41) leaves the leaf 41 alone on the far side, and
        its chord (41, t) is linked in right after an occurrence (s, t):
        the link rewrites its two occurrences and the shorter of the head
        before them and the tail after them, and moves the base when that
        is the head."""
        f, array = _chunked_path()
        cut = locate(f.edge_occ[(20, 41)])[0]

        def sides(t):
            c, off = f._target_occurrence(t)
            return c, off + 1, len(c.edges) - off - 1

        t = next(
            t for t in range(1, 40)
            if sides(t)[0] is not cut
            and (sides(t)[1] < sides(t)[2]) == (shorter == "head") and sides(t)[1] != sides(t)[2]
        )
        c, head, tail = sides(t)
        f.insert_edge(41, t)
        rec = _Reindexes(monkeypatch, f)
        write, seen = EulerForest._write_occurrences, []

        def watched_write(self, chunk, at, new):
            mark = rec.mark()
            write(self, chunk, at, new)
            seen.append((chunk, at, rec.since(mark)))

        monkeypatch.setattr(EulerForest, "_write_occurrences", watched_write)
        rep = f.delete_edge(20, 41)
        assert rep == ReplacementReport(ReplacementReport.REPLACED, (t, 41))
        moved = min(head, tail) + 2
        assert seen == [(c, head, (moved, 5 * moved, 1 if shorter == "head" else 0))]
        check_euler_forest(f)
        check_chunk_store(f.store)

    @pytest.mark.parametrize("policy", [ArbitraryPolicy(2), CommonPolicy(0.25)])
    def test_soak_rewrites_only_what_moves(self, monkeypatch, policy):
        """A seeded small-K soak: every reindex charges exactly the pointers
        it writes, every base move one unit, and every split writes only its
        shorter piece; the soak must move bases and split both ways, and the
        forest passes its checkers after every update."""
        rng = random.Random(11)
        n = 20
        f = forest(n, policy)
        assert f.K == 8
        rec = _Reindexes(monkeypatch, f)
        split, splits = EulerForest._split_chunk, {"left": 0, "right": 0}

        def watched_split(self, c, at, gap=0):
            mark, n_edges = rec.mark(), len(c.edges)
            pieces = split(self, c, at, gap)
            moved = min(at, n_edges - at - gap)
            assert rec.since(mark)[:2] == (moved, 5 * moved)
            splits["left" if pieces[1] is c else "right"] += 1
            return pieces

        monkeypatch.setattr(EulerForest, "_split_chunk", watched_split)
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
        assert all(work == 5 * writes for writes, work in rec.calls)
        assert rec.moves and rec.moves == [1] * len(rec.moves)
        assert all(splits.values()), splits


def _spanning_soak(f, rng, steps):
    """Start from a Hamiltonian path over every node of `f`, then run
    `steps` mean-reverting updates that hold about 1.1 edges per node, four
    in five insertions joining two trees, so the tours stay long and
    path-shaped.  Yields after every update."""
    n = f.capacity
    for v in range(n):
        f.activate_node(v)
    edges = []
    for v in range(n - 1):
        f.insert_edge(v, v + 1)
        edges.append((v, v + 1))
    target = n + n // 10
    for _ in range(steps):
        if rng.random() < 0.5 + (target - len(edges)) / target:
            u = rng.randrange(n)
            spanning = rng.random() < 0.8
            for _ in range(20):
                v = rng.randrange(n)
                if v != u and len(f.nbr[v]) < 3 and v not in f.nbr[u]:
                    if not (spanning and f.connected(u, v)):
                        break
            else:
                continue
            if len(f.nbr[u]) >= 3:
                continue
            f.insert_edge(u, v)
            edges.append((u, v))
        else:
            i = rng.randrange(len(edges))
            edges[i], edges[-1] = edges[-1], edges[i]
            f.delete_edge(*edges.pop())
        yield


class TestSlotCount:
    @pytest.mark.parametrize("n", [1, 2, 5, 16, 48, 200, 1026, 10**5])
    def test_slot_count_is_the_resting_bound_plus_the_transient_chunks(self, n):
        """J = R + T with R = floor((2n - 2) / ceil(K/2)) and T = 8."""
        f = forest(n)
        assert TRANSIENT_CHUNKS == 8
        assert resting_chunks(n, f.K) == (2 * n - 2) // ((f.K + 1) // 2)
        assert f.store.slot_count == (2 * n - 2) // ((f.K + 1) // 2) + 8

    @pytest.mark.parametrize("policy", [ArbitraryPolicy(11), CommonPolicy(0.25)])
    @pytest.mark.parametrize("n", [8, 30, 200])
    def test_full_capacity_soak_never_fills_the_master_array(self, monkeypatch, n, policy):
        """A seeded soak over tours spanning every node records the live
        chunks at every allocation: they never exceed J, so the array is
        never full, and at rest never exceed R, which the soak comes close
        to.  It also records the live touched chunks each link's repair
        sees: never more than `TOUCHED_ON_LINK` on a link and
        `TOUCHED_ON_REPLACEMENT` on a replacement, the counts `depth_bounds`
        and T are built from.  The margin to R + T is printed."""
        peak = 0
        touched = {"_merge_tours": 0, "_commit_large": 0}
        alloc, repair = MasterArray.alloc_chunk, EulerForest._repair

        def counted(self, edges):
            nonlocal peak
            c = alloc(self, edges)
            peak = max(peak, len(self.slots))
            return c

        def counted_repair(self, array):
            if sys._getframe(1).f_code.co_name == "_link":
                update = sys._getframe(2).f_code.co_name
                live = sum(c.array is array for c in self._touched)
                touched[update] = max(touched[update], live)
            return repair(self, array)

        monkeypatch.setattr(MasterArray, "alloc_chunk", counted)
        monkeypatch.setattr(EulerForest, "_repair", counted_repair)
        f = forest(n, policy)
        R, J = resting_chunks(n, f.K), f.store.slot_count
        rest = 0
        for step, _ in enumerate(_spanning_soak(f, random.Random(n), 4000)):
            rest = max(rest, len(f.store.slots))
            if step % 500 == 0:
                check_euler_forest(f)
        check_euler_forest(f)
        print(f"n={n}: peak {peak} live chunks, R + T = {J}, margin {J - peak}; at rest {rest} of R = {R}; touched before a repair {touched}")
        assert peak <= J == R + TRANSIENT_CHUNKS
        assert 0 < touched["_merge_tours"] <= TOUCHED_ON_LINK
        assert 0 < touched["_commit_large"] <= TOUCHED_ON_REPLACEMENT
        assert R - 1 <= rest <= R and peak > R


def _array_calls(monkeypatch):
    """Count the master array's tour-restructuring calls by name."""
    calls = Counter()
    for name in ("split_array", "concatenate", "reorder"):

        def watched(self, *args, _name=name, _method=getattr(MasterArray, name)):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(MasterArray, name, watched)
    return calls


class TestLinkCalls:
    @pytest.mark.parametrize("policy", [ArbitraryPolicy(3), CommonPolicy(0.25)])
    def test_tree_calls_of_each_link(self, monkeypatch, policy):
        """A seeded small-K soak counts the master array's restructuring
        calls (`_array_calls`) in every update that links.  A chunked
        replacement makes 2 `split_array`, 2 `concatenate` and at most 2
        `reorder` calls, and a link of two chunked tours, a small one
        chunked first, 0 `split_array`, 1 `concatenate` and at most 2
        `reorder`.  A link of a singleton makes none, and a replacement
        whose far side is one node only its 2 splits and 1 join, with no
        `reorder`.  The soak must reach each kind and a rotation of both
        tours, and the checkers run after every update."""
        want = {
            ("_merge_tours", True): (0, 1, 2),
            ("_merge_tours", False): (0, 0, 0),
            ("_commit_large", True): (2, 2, 2),
            ("_commit_large", False): (2, 1, 0),
        }
        reached, links = Counter(), []
        link = EulerForest._link

        def watched_link(self, near, far, pair):
            links.append((sys._getframe(1).f_code.co_name, bool(far)))
            return link(self, near, far, pair)

        def watched(update):
            def run(self, u, v):
                links.clear()
                calls.clear()
                out = update(self, u, v)
                if links:
                    (kind,) = links
                    splits, joins, rotations = want[kind]
                    assert calls["split_array"] == splits, (kind, calls)
                    assert calls["concatenate"] == joins, (kind, calls)
                    assert calls["reorder"] <= rotations, (kind, calls)
                    reached[kind] += 1
                    reached["both rotated"] += calls["reorder"] == 2
                return out

            return run

        calls = _array_calls(monkeypatch)
        monkeypatch.setattr(EulerForest, "_link", watched_link)
        for name in ("insert_edge", "delete_edge"):
            monkeypatch.setattr(EulerForest, name, watched(getattr(EulerForest, name)))
        f = forest(20, policy)
        assert f.K == 8
        _replacing_soak(f, 4, 800, 20, lambda *_: None)
        assert all(reached[kind] for kind in want) and reached["both rotated"], reached


class TestCutWithoutReplacement:
    """A tree delete with no replacement leaves the chunked tour as
    P1 P2 P3 around its far walk P2: it splits P3 off, then P2, and joins
    P1 with P3.  An empty far walk is a lone far endpoint's, whose delete
    contracts that leaf and leaves the array as it is."""

    def test_two_splits_and_one_join(self, monkeypatch):
        f, array = _chunked_path()
        calls = _array_calls(monkeypatch)
        assert f.delete_edge(10, 11).kind == ReplacementReport.SPLIT
        assert calls == {"split_array": 2, "concatenate": 1}
        assert not f.connected(10, 11) and len(f.store.arrays()) == 2
        check_euler_forest(f)
        check_chunk_store(f.store)

    def test_an_empty_far_walk_makes_no_tree_call(self, monkeypatch):
        f, array = _chunked_path()
        calls = _array_calls(monkeypatch)
        assert f.delete_edge(20, 41).kind == ReplacementReport.SPLIT
        assert calls == {}
        assert f.store.arrays() == [array] and not f.connected(20, 41)
        check_euler_forest(f)
        check_chunk_store(f.store)

    @pytest.mark.parametrize("policy", [ArbitraryPolicy(1), CommonPolicy(0.25)])
    def test_a_tree_like_soak_keeps_every_link_vector(self, monkeypatch, policy):
        """On sparse, tree-like graphs (`_spanning_soak`) a chunked tour
        often splits with no replacement, and its pieces keep stale bits to
        each other until the update's repairs retire the chunks or its
        flush refreshes them.  Every link vector must hold after every
        update.  The floors are about two thirds of what the seeded soak
        reaches under either policy: 161 such splits, and 18 and 17 column
        writes that flip a chunk outside the written chunk's array."""
        floors = {"split": 107, "cross-array flip": 11}
        seen = Counter()
        commit, write_column = EulerForest._commit_large, MasterArray._write_column

        def watched_commit(self, array, lo, hi, pair):
            seen["split" if pair is None else "replaced"] += 1
            return commit(self, array, lo, hi, pair)

        def watched_column(self, c, flips):
            seen["cross-array flip"] += any(
                d.array is not c.array for s, d in self.slots.items() if flips >> s & 1
            )
            write_column(self, c, flips)

        monkeypatch.setattr(EulerForest, "_commit_large", watched_commit)
        monkeypatch.setattr(MasterArray, "_write_column", watched_column)
        f = forest(40, policy)
        for _ in _spanning_soak(f, random.Random(1), 900):
            check_link_vectors(f)
        check_euler_forest(f)
        check_chunk_store(f.store)
        print(f"{policy}: {dict(seen)}")
        for key, floor in floors.items():
            assert seen[key] >= floor, seen


class TestMarkLinked:
    def test_a_linked_pair_is_not_linked_again(self, monkeypatch):
        """A non-tree insert links each pair of chunks holding its two
        endpoints, and only the pairs not linked already: vectors are
        symmetric, so one bit tells."""
        f, array = _linked_path()
        # a new non-tree edge whose endpoints' chunks are already linked
        free = [x for x in range(20) if len(f.nbr[x]) < 3]
        x, y = next(
            (x, y) for x in free for y in free
            if x < y and y not in f.nbr[x]
            and any((a.bits >> b.slot) & 1
                    for a in f._chunks_of(x) for b in f._chunks_of(y))
        )
        pairs = [(a, b) for a in f._chunks_of(x) for b in f._chunks_of(y)]
        unlinked = [(a.slot, b.slot) for a, b in pairs if not (a.bits >> b.slot) & 1]
        linked = []
        link = MasterArray.link

        def watched(self, c1, c2):
            linked.append((c1.slot, c2.slot))
            return link(self, c1, c2)

        monkeypatch.setattr(MasterArray, "link", watched)
        f.insert_edge(x, y)
        assert linked == unlinked
        assert all((a.bits >> b.slot) & 1 for a, b in pairs)
        check_euler_forest(f)
        check_link_vectors(f)


class TestLazyMasterArray:
    """A forest makes its master array on its first chunked tour, yet pays
    for its J slots when it is built, as a forest that made it there
    would."""

    @pytest.mark.parametrize("n", [2, 48, 10**5])
    def test_unchunked_forest_holds_none_and_pays_its_slots(self, n):
        f = forest(n)
        J = resting_chunks(n, f.K) + TRANSIENT_CHUNKS
        assert f.master is None
        # one unit per node and one per slot, as when the store was built
        # with the forest
        assert (f.meter.init_work, f.meter.work) == (n + J, 0)

    def test_small_tours_build_none(self):
        f = forest_with([(0, 1), (1, 2), (3, 4), (2, 0)], n=48)
        f.delete_edge(0, 1)
        assert all(isinstance(t, SmallTour) for t in euler_tours(f))
        check_euler_forest(f)
        # the checkers read the plain attribute and build nothing
        assert f.master is None and f.slots_of is None

    def test_first_chunking_builds_one_and_a_demotion_keeps_it(self, monkeypatch):
        built = []
        init = MasterArray.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(MasterArray, "__init__", counted)
        n = 48
        f = forest(n)
        for v in range(n):
            f.activate_node(v)
        paid = f.meter.init_work
        for i in range(40):
            f.insert_edge(i, i + 1)
        assert built == [f.master] and f.store is f.master
        assert f.master.arrays() and f.meter.init_work == paid
        check_euler_forest(f)
        # cut the path down to a tour of one chunk, which is demoted
        for i in range(39, 2, -1):
            f.delete_edge(i, i + 1)
        assert all(isinstance(t, SmallTour) for t in euler_tours(f))
        assert built == [f.master] and f.master.slots == {}
        check_euler_forest(f)
        for i in range(3, 40):
            f.insert_edge(i, i + 1)
        assert built == [f.master] and f.master.arrays()
        assert f.meter.init_work == paid
        check_euler_forest(f)

    def test_reading_store_reports_every_slot_free_and_charges_nothing(self):
        f = forest_with([(0, 1), (1, 2)], n=200)
        J = resting_chunks(200, f.K) + TRANSIENT_CHUNKS
        spent = (f.meter.work, f.meter.depth, f.meter.init_work)
        store = f.store
        # what `bench/run.py` `_slot_occupancy` reads: no slot taken
        assert (store.slot_count, len(store.free)) == (J, J)
        assert store.slot_count - len(store.free) == 0
        assert (f.meter.work, f.meter.depth, f.meter.init_work) == spent
        assert f.master is store and f.slots_of == {}
        check_euler_forest(f)


class TestCheckerCatchesCorruption:
    """The checker finds tours from the occurrence pointers; it must still
    see a chunk array those pointers miss, a pointer that misses its edge
    and a chunk base that moved alone."""

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

    def test_live_chunks_above_the_at_rest_bound(self):
        f = self.chunked_path()
        while len(f.store.slots) <= resting_chunks(f.capacity, f.K):
            f.store.alloc_chunk([(44, 45), (45, 44)])
        with pytest.raises(CheckFailure, match="above the at-rest bound"):
            check_euler_forest(f)

    def test_stale_pointer_into_a_chunk(self):
        f = self.chunked_path()
        c, off = f.edge_occ[(20, 21)]
        f.edge_occ[(20, 21)] = (c, off - 1 if off else off + 1)
        with pytest.raises(CheckFailure, match="occurrence pointer stale"):
            check_euler_forest(f)

    def test_stale_chunk_base(self):
        """Every pointer into a chunk resolves through its base, so a base
        moved behind the forest's back leaves them all stale."""
        f = self.chunked_path()
        c, _ = locate(f.edge_occ[(20, 21)])
        c.base += 1
        with pytest.raises(CheckFailure, match="occurrence pointer stale"):
            check_euler_forest(f)

    def test_stale_pointer_into_a_small_tour(self):
        f = forest_with([(0, 1), (1, 2)])
        tour, off = f.edge_occ[(0, 1)]
        f.edge_occ[(0, 1)] = (tour, (off + 1) % len(tour.edges))
        with pytest.raises(CheckFailure, match="occurrence pointer stale"):
            check_euler_forest(f)

    def linked_path(self):
        """A chunked path with a non-tree edge deleted, whose link
        refresh stores the slot bits of node 20, and a small tour."""
        f = forest_with([(i, i + 1) for i in range(40)] + [(42, 43)], n=48)
        f.insert_edge(0, 20)
        f.insert_edge(0, 30)
        f.delete_edge(0, 30)
        check_euler_forest(f)
        assert 20 in f.slots_of and 42 not in f.slots_of
        return f

    def test_stale_slot_record_entry(self):
        f = self.linked_path()
        spare = next(s for s in range(f.store.slot_count) if s not in f.store.slots)
        f.slots_of[20] |= 1 << spare
        with pytest.raises(CheckFailure, match="slot record of node 20 stale"):
            check_euler_forest(f)

    def test_slot_record_entry_for_a_small_tour_node(self):
        f = self.linked_path()
        f.slots_of[42] = f.slots_of[20]
        with pytest.raises(CheckFailure, match="node 42, which no chunk holds"):
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


class TestLoneEndpoint:
    """A tree edge with an endpoint that has no other edge has no
    replacement: that endpoint is its whole side of the cut.  A probe says
    so after two degree reads, and a delete contracts the leaf
    (`EulerForest.contract`), with no probe and no scan, on a small tour and
    on a chunked one."""

    @pytest.mark.parametrize("chunked", [False, True], ids=["small", "chunked"])
    def test_no_scan_and_a_split(self, monkeypatch, chunked):
        # a path 0 .. m-1 with chords (i, i + 2) on every fourth node, and
        # the leaf edge (0, 1) at one end
        m = 30 if chunked else 5
        edges = [(i, i + 1) for i in range(m - 1)]
        edges += [(i, i + 2) for i in range(1, m - 2, 4)]
        f = forest_with(edges, n=32)
        small = isinstance(f.edge_occ[(0, 1)][0], SmallTour)
        assert small != chunked and f.nontree
        called, contracted = [], []
        for owner, callee in (
            (EulerForest, "_probe_small"), (EulerForest, "_probe_large"),
            (EulerForest, "_chunk_nodes"), (MasterArray, "query"),
        ):
            monkeypatch.setattr(owner, callee, lambda *a, _n=callee: called.append(_n))
        contract = EulerForest.contract

        def watched_contract(self, g):
            contracted.append(g)
            return contract(self, g)

        monkeypatch.setattr(EulerForest, "contract", watched_contract)
        w0, d0 = f.meter.work, f.meter.depth
        assert f.find_replacement(0, 1) == ReplacementReport(ReplacementReport.SPLIT)
        # the two degree reads, and nothing else
        assert (f.meter.work, f.meter.depth) == (w0 + 2, d0)
        assert f.delete_edge(1, 0) == ReplacementReport(ReplacementReport.SPLIT)
        assert contracted == [0] and not called
        monkeypatch.undo()
        check_euler_forest(f)
        assert not f.connected(0, 1) and f.nbr[0] == [] and 0 not in f.nbr[1]


def _tree_forest(seed, n, K=None):
    """A seeded random forest over 0 .. n-1 of degree at most 3, about n
    tree edges and a few non-tree ones; with `K` the chunk capacity is
    forced, before any tour is chunked."""
    f = forest(n, ArbitraryPolicy(seed))
    if K is not None:
        f.K = K
    rng = random.Random(seed)
    for v in range(n):
        f.activate_node(v)
    for _ in range(3 * n):
        u, v = rng.sample(range(n), 2)
        nu, nv = f.nbr[u], f.nbr[v]
        if v in nu or len(nu) >= 3 or len(nv) >= 3:
            continue
        if f.connected(u, v) and rng.random() < 0.8:
            continue
        f.insert_edge(u, v)
    return f


def _contractible(f):
    """Nodes of degree 2 with two tree edges whose neighbours are not
    adjacent."""
    out = []
    for g, (p, q) in ((g, ws) for g, ws in f.nbr.items() if len(ws) == 2):
        if (g, p) in f.edge_occ and (g, q) in f.edge_occ and q not in f.nbr[p]:
            out.append(g)
    return sorted(out)


def _leaves(f):
    """Nodes of degree 1; a leaf's one edge is a tree edge."""
    return sorted(g for g, ws in f.nbr.items() if len(ws) == 1)


def _layout(f, g):
    """Where g's occurrence pairs sit, each an entering occurrence and the
    leaving one after it (one pair for a leaf): "small" for a small tour,
    else per pair "inside" one chunk, across a chunk "boundary" or across
    the tour's "wrap", and "empties" when a chunk holds only occurrences
    the contraction removes."""
    p, q = f.nbr[g][0], f.nbr[g][-1]
    removed = {(g, p), (g, q)} | ({(p, g)} if p == q else set())
    kinds = set()
    for enter, leave in (((p, g), (g, q)), ((q, g), (g, p))):
        c1, c2 = f.edge_occ[enter][0], f.edge_occ[leave][0]
        if isinstance(c1, SmallTour):
            return {"small"}
        if c1 is c2:
            kinds.add("inside")
        elif c2.pos == 0 and c1.pos == len(c1.array) - 1:
            kinds.add("wrap")
        else:
            kinds.add("boundary")
        if any(set(c.edges) <= removed for c in (c1, c2)):
            kinds.add("empties")
    return kinds


def _fingerprint(f):
    """Every record a rejected contraction must leave as it was, with the
    meter's work and depth."""
    return (
        {v: list(ws) for v, ws in f.nbr.items()},
        dict(f.edge_occ),
        {id(t): list(edges) for t, edges in euler_tours(f).items()},
        {c.slot: (list(c.edges), c.base, c.bits) for c in f.master.slots.values()}
        if f.master is not None else None,
        f.meter.work,
        f.meter.depth,
    )


class TestContract:
    """`EulerForest.contract(g)` takes g out of its tour where its
    occurrences sit.  For a node of degree 2 it renames the two entering
    occurrences and takes out the two leaving ones; for a leaf it takes
    out both.  The tour keeps every other edge in its order, with (p, q)
    and (q, p) in place of a degree-2 node's walks, and no probe, cut,
    split, reorder or allocation runs."""

    FORBIDDEN = (
        (EulerForest, ("_probe_large", "_probe_small", "_cut_out", "_split_chunk")),
        (MasterArray, ("reorder", "alloc_chunk", "split_array")),
    )

    def _contract_and_check(self, monkeypatch, f, g):
        p, q = f.nbr[g][0], f.nbr[g][-1]
        before = tour_of(f, g)
        rename = {(p, g): (p, q), (q, g): (q, p)} if p != q else {}
        want = [e for e in (rename.get(e, e) for e in before) if g not in e]
        called = []
        for owner, names in self.FORBIDDEN:
            for name in names:
                monkeypatch.setattr(owner, name, lambda *a, _n=name: called.append(_n))
        try:
            f.contract(g)
        finally:
            monkeypatch.undo()
        assert not called
        assert f.nbr[g] == [] and g not in f.nbr[p] and g not in f.nbr[q]
        if p != q:
            assert f.tree_edge(p, q) and f.tree_edge(q, p)
        assert tour_of(f, p) == want
        check_euler_forest(f)

    def test_small_tour(self, monkeypatch):
        f = forest_with([(0, 1), (1, 2), (2, 3), (3, 0)])
        assert _layout(f, 1) == {"small"}
        w0 = f.meter.work
        self._contract_and_check(monkeypatch, f, 1)
        assert f.meter.work > w0
        assert f.n_components() == 2  # the tree and the isolated 1

    @pytest.mark.parametrize("K", [None, 2], ids=["sized", "K2"])
    def test_chunked_tours_at_every_layout(self, monkeypatch, K):
        # each contraction on a fresh copy of one seeded forest; K = 2
        # leaves chunks of one edge at rest, which a removal can empty
        seen = Counter()
        n = 40 if K is None else 14
        for seed in range(1, 7):
            for g in _contractible(_tree_forest(seed, n, K)):
                f = _tree_forest(seed, n, K)
                seen.update(_layout(f, g))
                self._contract_and_check(monkeypatch, f, g)
        assert seen["inside"] > 3 and seen["boundary"] > 0 and seen["wrap"] > 0, seen
        assert K is None or seen["empties"] > 0, seen

    @pytest.mark.parametrize(
        "edges", [[(0, 1), (1, 2), (1, 3)], [(0, 1)]], ids=["rest", "emptied"]
    )
    def test_a_leaf_on_a_small_tour(self, monkeypatch, edges):
        f = forest_with(edges)
        g = edges[-1][1]
        assert _layout(f, g) == {"small"}
        w0, c0 = f.meter.work, f.n_components()
        self._contract_and_check(monkeypatch, f, g)
        assert f.meter.work > w0
        assert f.n_components() == c0 + 1  # the tree and the isolated g

    @pytest.mark.parametrize("K", [None, 2], ids=["sized", "K2"])
    def test_leaves_on_chunked_tours_at_every_layout(self, monkeypatch, K):
        # each leaf's contraction on a fresh copy of one seeded forest; a
        # link of two tours starts its tour at the near endpoint, which then
        # has two edges, so a random forest rarely starts a tour at a leaf.
        # A path linked in node order does: its every link is a singleton's
        # and rotates nothing, so 0 stays first
        seen = Counter()
        n = 40 if K is None else 14
        builds = [lambda s=seed: _tree_forest(s, n, K) for seed in range(1, 7)]
        if K is None:
            builds.append(lambda: forest_with([(i, i + 1) for i in range(n - 1)], n=n))
        for build in builds:
            for g in _leaves(build()):
                f = build()
                if isinstance(f.edge_occ[(g, f.nbr[g][0])][0], SmallTour):
                    continue
                seen.update(_layout(f, g))
                self._contract_and_check(monkeypatch, f, g)
        assert seen["inside"] > 3 and seen["boundary"] > 0, seen
        # the sized chunks reach the wrap; K = 2 leaves chunks of one or two
        # edges at rest, which a leaf's removals empty
        assert (seen["wrap"] if K is None else seen["empties"]) > 0, seen

    def test_the_end_of_a_chunked_path(self, monkeypatch):
        f = self._rejecting_forest()
        assert f.nbr[13] == [12] and _layout(f, 13) != {"small"}
        self._contract_and_check(monkeypatch, f, 13)

    @staticmethod
    def _rejecting_forest():
        # a chunked tour: the path 0 .. 13 with the chords (0, 2) and (4, 6)
        f = forest_with([(i, i + 1) for i in range(13)] + [(0, 2), (4, 6)], n=16)
        f.activate_node(14)
        f.delete_edge(4, 5)  # (4, 6) replaces it
        f.insert_edge(4, 5)
        assert (5, 4) not in f.edge_occ and (6, 4) in f.edge_occ
        assert f.master is not None and f.master.arrays()
        return f

    @pytest.mark.parametrize(
        "g, match",
        [
            (14, "degree 0"),  # isolated
            (2, "degree 3"),
            (5, "non-tree edge"),  # (4, 5) closes the triangle 4 5 6
            (1, "already an edge"),  # its neighbours 0 and 2 share a chord
            (15, "not active"),
            (16, "out of range"),
        ],
    )
    def test_rejected_before_any_change_or_charge(self, g, match):
        f = self._rejecting_forest()
        before = _fingerprint(f)
        with pytest.raises(ForestError, match=match):
            f.contract(g)
        assert _fingerprint(f) == before
        check_euler_forest(f)

import gc
import itertools
import random
from collections import Counter

import pytest

from dynconn import reductions
from dynconn.costmodel import ArbitraryPolicy, CommonPolicy, CostMeter
from dynconn.eulerforest import ReplacementReport, SmallTour
from dynconn.oracle import (
    CheckFailure,
    SimpleGraph,
    bf_bipartite,
    bf_components,
    bf_connected,
    check_gadget_graph,
)
from dynconn.reductions import (
    CONN_DELETE_CEILINGS,
    CONN_INSERT_CEILINGS,
    BipartiteGeneral,
    ConnGeneral,
    GadgetError,
)


def conn(n=16, cap=None, policy=None):
    return ConnGeneral(CostMeter(policy or ArbitraryPolicy(6)), (range(n),), cap or 4 * n)


def activate_all(cg, n):
    for v in range(n):
        cg.activate_node(v)


def tally(cg):
    """The translated operations of cg's last edge call."""
    return (cg.node_add, cg.node_del, cg.edge_add, cg.edge_del)


def within(got, ceilings):
    return all(g <= cap for g, cap in zip(got, ceilings))


class TestConnGadget:
    def test_first_edge_minimal_translation(self):
        cg = conn()
        activate_all(cg, 2)
        cg.insert_edge(0, 1)
        assert tally(cg) == (2, 0, 1, 0)
        assert cg.connected(0, 1)
        check_gadget_graph(cg)

    def test_translation_bounds_at_high_degree(self):
        cg = conn()
        activate_all(cg, 8)
        for w in range(1, 5):
            cg.insert_edge(0, w)  # degree of 0 climbs to 4
            assert within(tally(cg), CONN_INSERT_CEILINGS)
            assert tally(cg)[1] == 0
        check_gadget_graph(cg)
        for w in range(1, 5):
            cg.delete_edge(0, w)
            assert within(tally(cg), CONN_DELETE_CEILINGS)
            assert tally(cg)[0] == 0
        check_gadget_graph(cg)

    def test_a_call_over_its_ceiling_fails_loudly(self, monkeypatch):
        cg = conn()
        activate_all(cg, 2)
        monkeypatch.setattr(reductions, "CONN_INSERT_CEILINGS", (2, 0, 0, 2))
        with pytest.raises(
            AssertionError,
            match="conn_gadget_insert: 1 edge insertions exceeds the translation bound 0",
        ):
            cg.insert_edge(0, 1)

    def test_triangle_replacement_is_host_edge(self):
        cg = conn()
        activate_all(cg, 3)
        cg.insert_edge(0, 1)
        cg.insert_edge(1, 2)
        cg.insert_edge(0, 2)
        rep = cg.delete_edge(0, 1)
        assert rep.kind == ReplacementReport.REPLACED
        assert rep.edge in ((0, 2), (1, 2))
        assert cg.connected(0, 1)
        check_gadget_graph(cg)

    def test_star_connectivity(self):
        cg = conn()
        activate_all(cg, 6)
        for leaf in range(1, 6):
            cg.insert_edge(0, leaf)
        for a in range(1, 6):
            for b in range(a + 1, 6):
                assert cg.connected(a, b)
        assert cg.n_components() == 1
        check_gadget_graph(cg)

    def test_tree_edges_form_spanning_forest(self):
        rng = random.Random(3)
        cg = conn(n=12, cap=60)
        activate_all(cg, 12)
        g = SimpleGraph()
        for v in range(12):
            g.activate(v)
        for _ in range(120):
            u, v = rng.randrange(12), rng.randrange(12)
            if u == v:
                continue
            if g.has_edge(u, v):
                cg.delete_edge(u, v)
                g.remove_edge(u, v)
            else:
                cg.insert_edge(u, v)
                g.add_edge(u, v)
        marked = [
            (u, v) for (u, v) in g.edges() if cg.tree_edge(u, v)
        ]
        forest = SimpleGraph()
        for v in range(12):
            forest.activate(v)
        for u, v in marked:
            forest.add_edge(u, v)  # add_edge would fail on a repeat
        assert len(marked) == 12 - bf_components(g)
        assert bf_components(forest) == bf_components(g)
        check_gadget_graph(cg)

    def test_ncc_matches_bfs_on_random_graphs(self):
        rng = random.Random(21)
        for trial in range(25):
            n = rng.randrange(4, 20)
            cg = conn(n=n, cap=4 * n, policy=ArbitraryPolicy(trial))
            g = SimpleGraph()
            for v in range(n):
                cg.activate_node(v)
                g.activate(v)
            for _ in range(60):
                u, v = rng.randrange(n), rng.randrange(n)
                if u == v:
                    continue
                if g.has_edge(u, v):
                    cg.delete_edge(u, v)
                    g.remove_edge(u, v)
                else:
                    cg.insert_edge(u, v)
                    g.add_edge(u, v)
                assert cg.n_components() == bf_components(g)
                a, b = rng.randrange(n), rng.randrange(n)
                assert cg.connected(a, b) == bf_connected(g, a, b)
            check_gadget_graph(cg)

    @pytest.mark.parametrize(
        "policy, seed, steps",
        [(ArbitraryPolicy(11), 11, 200), (CommonPolicy(0.25), 3, 400)],
    )
    def test_chains_stay_tree_connected_on_chunked_tours(self, policy, seed, steps):
        # 16 hosts of mean degree up to 6 give gadget tours longer than one
        # chunk; no splice-out may let a cross edge replace a chain edge,
        # even where the chunk query would find a cross edge first
        rng = random.Random(seed)
        n, m = 16, 48
        cg = conn(n=n, cap=m, policy=policy)
        activate_all(cg, n)
        edges = []
        chunked = False
        for _ in range(steps):
            if len(edges) < m and (len(edges) < m // 2 or rng.random() < 0.5):
                u, v = rng.sample(range(n), 2)
                if (u, v) in edges or (v, u) in edges:
                    continue
                cg.insert_edge(u, v)
                edges.append((u, v))
            else:
                cg.delete_edge(*edges.pop(rng.randrange(len(edges))))
            check_gadget_graph(cg)
            chunked = chunked or bool(cg.inner.store.arrays())
        assert chunked

    def test_host_inserts_only_link_singletons(self, monkeypatch):
        """Churn shaped like the conn_churn workload (m about 1.5n, inserts
        and deletes alternating around that size) on one gadget: a host
        insert makes no forest delete, and each splice-in onto a chain makes
        one forest insert, which links the new singleton, also after
        splice-outs from chains of 4 or more nodes."""
        rng = random.Random(5)
        n, m = 24, 36
        cg = conn(n=n, cap=2 * m)
        activate_all(cg, n)
        forest = cg.inner
        host_insert, splice_in = ConnGeneral.insert_edge, ConnGeneral._splice_in
        open_insert, open_splice = [], []
        deletes, splices = [], []

        def watched_insert(self, u, v):
            open_insert.append(None)
            try:
                return host_insert(self, u, v)
            finally:
                open_insert.pop()

        def watched_splice_in(self, u):
            links = []
            open_splice.append(links)
            try:
                return splice_in(self, u)
            finally:
                open_splice.pop()
                splices.append((len(self.chain[u]), links))

        def watched_forest_insert(method):
            def watched(a, b):
                if open_splice:
                    open_splice[-1].append(not forest.nbr[a] or not forest.nbr[b])
                return method(a, b)
            return watched

        def watch_delete(name, method):
            def watched(*args):
                if open_insert:
                    deletes.append(name)
                return method(*args)
            return watched

        monkeypatch.setattr(ConnGeneral, "insert_edge", watched_insert)
        monkeypatch.setattr(ConnGeneral, "_splice_in", watched_splice_in)
        forest.insert_edge = watched_forest_insert(forest.insert_edge)
        for name in ("delete_edge", "delete_edge_with_hint", "contract"):
            setattr(forest, name, watch_delete(name, getattr(forest, name)))
        edges, big_splice_outs = [], 0
        for _ in range(600):
            if len(edges) < m and (len(edges) < m // 2 or rng.random() < 0.5):
                u, v = rng.sample(range(n), 2)
                if (u, v) in edges or (v, u) in edges:
                    continue
                cg.insert_edge(u, v)
                edges.append((u, v))
            else:
                u, v = edges.pop(rng.randrange(len(edges)))
                big_splice_outs += len(cg.chain[u]) >= 4 or len(cg.chain[v]) >= 4
                cg.delete_edge(u, v)
        check_gadget_graph(cg)
        assert big_splice_outs > 20 and len(splices) > 200
        assert deletes == []
        assert all(links == [True] * (d > 1) for d, links in splices)
        assert sum(d >= 4 for d, _ in splices) > 20

    @pytest.mark.parametrize(
        "n, m, seed", [(24, 36, 5), (16, 48, 11)], ids=["sparse", "chunked"]
    )
    def test_splice_outs_never_replace(self, monkeypatch, n, m, seed):
        """Churn as above: inside a splice-out the one forest call is a
        contraction, of an end node as a leaf or of an interior node, from
        chains of 2, of 3 and of more nodes, also on chunked tours; no
        forest delete, probe or chunk allocation runs there."""
        rng = random.Random(seed)
        cg = conn(n=n, cap=2 * m)
        activate_all(cg, n)
        inside, contracted, others = [], Counter(), []
        splice_out, contract = ConnGeneral._splice_out, cg.inner.contract

        def watched_splice_out(self, u, g):
            chain = self.chain[u]
            inside.append((len(chain), 0 < chain.index(g) < len(chain) - 1, []))
            try:
                return splice_out(self, u, g)
            finally:
                d, _, calls = inside.pop()
                assert d == 1 or calls == ["contract"], calls

        def watched_contract(g):
            if not inside:  # a cross edge's delete with a lone endpoint
                return contract(g)
            d, interior, calls = inside[-1]
            calls.append("contract")
            assert len(cg.inner.nbr[g]) == 1 + interior
            p = cg.inner.nbr[g][0]
            chunked = not isinstance(cg.inner.edge_occ[(p, g)][0], SmallTour)
            contracted[min(d, 4), interior, chunked] += 1
            return contract(g)

        def watch(name, method):
            def watched(*args):
                if inside:
                    inside[-1][2].append(name)
                return method(*args)
            return watched

        monkeypatch.setattr(ConnGeneral, "_splice_out", watched_splice_out)
        cg.inner.contract = watched_contract
        for name in ("delete_edge", "delete_edge_with_hint", "insert_edge",
                     "find_replacement", "_probe_small", "_probe_large"):
            setattr(cg.inner, name, watch(name, getattr(cg.inner, name)))
        cg.inner.store.alloc_chunk = watch("alloc_chunk", cg.inner.store.alloc_chunk)
        edges = []
        for _ in range(600):
            if len(edges) < m and (len(edges) < m // 2 or rng.random() < 0.5):
                u, v = rng.sample(range(n), 2)
                if (u, v) in edges or (v, u) in edges:
                    continue
                cg.insert_edge(u, v)
                edges.append((u, v))
            else:
                cg.delete_edge(*edges.pop(rng.randrange(len(edges))))
        check_gadget_graph(cg)
        for d in (2, 3, 4):
            assert sum(contracted[d, False, c] for c in (False, True)) > 5, (d, contracted)
        for d in (3, 4):
            assert sum(contracted[d, True, c] for c in (False, True)) > 5, (d, contracted)
        if n == 16:
            assert contracted[4, False, True] > 5 and contracted[4, True, True] > 5, contracted

    def test_a_non_tree_edge_inside_a_chain_fails_the_check(self):
        """A forest edge between the ends of a chain of 4 closes it into a
        cycle: it is a non-tree edge, every chain edge stays a tree edge,
        and only the rule that no other gadget edge joins two nodes of one
        host fails."""
        cg = conn()
        activate_all(cg, 5)
        for w in range(1, 5):
            cg.insert_edge(0, w)
        check_gadget_graph(cg)
        chain = cg.chain[0]
        cg.inner.insert_edge(chain[-1], chain[0])
        assert not cg.inner.tree_edge(chain[-1], chain[0])
        with pytest.raises(CheckFailure, match="edge to 0's gadget off the path"):
            check_gadget_graph(cg)

    def test_a_missing_chain_edge_fails_the_check(self):
        """Cutting the middle edge of a chain of 4 out of the forest keeps
        every cross edge and fails the chain-edge check."""
        cg = conn()
        activate_all(cg, 5)
        for w in range(1, 5):
            cg.insert_edge(0, w)
        chain = cg.chain[0]
        cg.inner.delete_edge(chain[1], chain[2])
        with pytest.raises(CheckFailure, match="chain of 0 is broken at"):
            check_gadget_graph(cg)

    def test_find_replacement_probe(self):
        cg = conn()
        activate_all(cg, 3)
        cg.insert_edge(0, 1)
        cg.insert_edge(1, 2)
        cg.insert_edge(0, 2)
        probe = cg.find_replacement(0, 1)
        assert probe.kind == ReplacementReport.REPLACED
        assert cg.n_components() == 1

    @pytest.mark.parametrize("reverse", [False, True], ids=["as-given", "reversed"])
    def test_find_replacement_on_a_non_tree_edge_is_free(self, reverse):
        """The sparsification delete's one probe tells tree levels from the
        others by this report: a present non-tree host edge reports NON_TREE
        and charges no work or depth."""
        cg = conn()
        activate_all(cg, 3)
        edges = ((0, 1), (1, 2), (0, 2))
        for u, v in edges:
            cg.insert_edge(u, v)
        non_tree = next(e for e in edges if not cg.tree_edge(*e))
        meter = cg.inner.meter
        work, depth = meter.work, meter.depth
        probe = cg.find_replacement(*(non_tree[::-1] if reverse else non_tree))
        assert probe == ReplacementReport(ReplacementReport.NON_TREE)
        assert (meter.work, meter.depth) == (work, depth)

    def test_errors(self):
        cg = conn()
        activate_all(cg, 2)
        with pytest.raises(GadgetError):
            cg.insert_edge(0, 0)
        cg.insert_edge(0, 1)
        with pytest.raises(GadgetError):
            cg.insert_edge(0, 1)
        with pytest.raises(GadgetError):
            cg.deactivate_node(0)

    @pytest.mark.parametrize(
        "hint_of, match",
        [
            (lambda tree, non_tree: non_tree, "deleted edge"),
            (lambda tree, non_tree: non_tree[::-1], "deleted edge"),
            (lambda tree, non_tree: tree, "tree edge"),
        ],
        ids=["the-deleted-edge", "the-deleted-edge-reversed", "a-tree-edge"],
    )
    def test_bad_hint_rejected_before_any_change(self, hint_of, match):
        """Deleting the non-tree edge of a triangle with a hint that is that
        edge, or a tree edge, is refused with the ports, the chains and the
        meter as they were."""
        cg = conn()
        activate_all(cg, 3)
        edges = ((0, 1), (1, 2), (0, 2))
        for u, v in edges:
            cg.insert_edge(u, v)
        tree = next(e for e in edges if cg.tree_edge(*e))
        non_tree = next(e for e in edges if not cg.tree_edge(*e))
        meter = cg.inner.meter
        ports, chain = dict(cg.ports), {h: list(c) for h, c in cg.chain.items()}
        work, depth = meter.work, meter.depth
        with pytest.raises(GadgetError, match=match):
            cg.delete_edge_with_hint(*non_tree, hint_of(tree, non_tree))
        assert (meter.work, meter.depth) == (work, depth)
        assert cg.ports == ports and cg.chain == chain
        check_gadget_graph(cg)
        assert cg.delete_edge(*non_tree).kind == ReplacementReport.NON_TREE

    def test_hint_from_another_component_rejected_before_any_change(self):
        """A hint off the deleted edge's component is refused with the
        gadget's own error, before any change: the forest checks it before
        it changes or charges anything, and the gadget keeps its ports until
        the forest has taken the edge out."""
        cg = conn()
        activate_all(cg, 6)
        for u, v in ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)):
            cg.insert_edge(u, v)
        hint = next(e for e in ((3, 4), (4, 5), (3, 5)) if not cg.tree_edge(*e))
        meter = cg.inner.meter
        ports, chain = dict(cg.ports), {h: list(c) for h, c in cg.chain.items()}
        work, depth = meter.work, meter.depth
        with pytest.raises(GadgetError, match="off the component"):
            cg.delete_edge_with_hint(0, 1, hint)
        assert (meter.work, meter.depth) == (work, depth)
        assert cg.ports == ports and cg.chain == chain
        check_gadget_graph(cg)
        assert cg.delete_edge(0, 1).kind == ReplacementReport.REPLACED

    def test_activate_all_is_one_activation_per_host(self):
        """Activating every host of a fresh two-span gadget at once leaves
        the record, the isolated count and the meter as one activation per
        host does."""
        hosts = (range(4, 9), range(20, 23))
        every, each = (ConnGeneral(CostMeter(ArbitraryPolicy(6)), hosts, 8) for _ in "ab")
        every.activate_all()
        for x in (*hosts[0], *hosts[1]):
            each.activate_node(x)
        assert (every.host_active, every.isolated) == (each.host_active, each.isolated)
        assert [(g.meter.work, g.meter.depth) for g in (every, each)] == [(8, 0)] * 2
        check_gadget_graph(every)
        every.insert_edge(4, 22)
        assert every.connected(4, 22) and not every.connected(5, 22)

    @pytest.mark.parametrize("edge", [False, True], ids=["isolated", "on-a-chain"])
    def test_activate_all_with_an_active_host_rejected(self, edge):
        cg = conn(4)
        cg.activate_node(1)
        cg.activate_node(2)
        if edge:
            cg.insert_edge(1, 2)
        before = bytes(cg.host_active), cg.isolated, cg.meter.work, cg.meter.depth
        with pytest.raises(GadgetError, match="active host"):
            cg.activate_all()
        assert (bytes(cg.host_active), cg.isolated, cg.meter.work, cg.meter.depth) == before
        check_gadget_graph(cg)

    def test_hint_from_another_component_rejected_on_a_non_tree_delete(self):
        """The same refusal when the deleted host edge is a non-tree edge,
        where no replacement probe runs: the forest checks the hint's tour
        itself."""
        cg = conn()
        activate_all(cg, 6)
        for u, v in ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)):
            cg.insert_edge(u, v)
        deleted = next(e for e in ((0, 1), (1, 2), (0, 2)) if not cg.tree_edge(*e))
        hint = next(e for e in ((3, 4), (4, 5), (3, 5)) if not cg.tree_edge(*e))
        g_uv = cg.ports[deleted]
        assert (g_uv, cg.ports[deleted[::-1]]) not in cg.inner.edge_occ
        meter = cg.inner.meter
        ports, chain = dict(cg.ports), {h: list(c) for h, c in cg.chain.items()}
        nbr = {g: list(x) for g, x in cg.inner.nbr.items()}
        work, depth = meter.work, meter.depth
        with pytest.raises(GadgetError, match="off the component"):
            cg.delete_edge_with_hint(*deleted, hint)
        assert (meter.work, meter.depth) == (work, depth)
        assert cg.ports == ports and cg.chain == chain
        assert {g: list(x) for g, x in cg.inner.nbr.items()} == nbr
        check_gadget_graph(cg)
        assert cg.delete_edge(*deleted).kind == ReplacementReport.NON_TREE

    def test_exhausted_capacity_rejects_before_any_change(self):
        # edge capacity 2: the third edge is refused
        meter = CostMeter(ArbitraryPolicy(6))
        cg = ConnGeneral(meter, (range(6),), 2)
        activate_all(cg, 6)
        cg.insert_edge(0, 1)
        cg.insert_edge(2, 3)
        pairs = list(itertools.combinations(range(6), 2))
        for u, v in ((4, 5), (0, 4), (1, 2)):
            chain = {h: list(c) for h, c in cg.chain.items()}
            ports = dict(cg.ports)
            work = meter.work
            with pytest.raises(GadgetError, match="capacity"):
                cg.insert_edge(u, v)
            assert meter.work == work
            assert cg.chain == chain
            assert cg.ports == ports
            assert [cg.connected(a, b) for a, b in pairs] == [
                (a, b) in ((0, 1), (2, 3)) for a, b in pairs
            ]
        check_gadget_graph(cg)
        cg.deactivate_node(4)
        cg.deactivate_node(5)
        assert cg.n_components() == 2

    def test_capacity_three_refuses_the_fourth_edge(self):
        # the forest keeps ids for a fourth edge; the capacity refuses it
        # before any change and uncharged
        meter = CostMeter(ArbitraryPolicy(6))
        cg = ConnGeneral(meter, (range(6),), 3)
        activate_all(cg, 6)
        for u, v in ((0, 1), (1, 2), (2, 0)):
            cg.insert_edge(u, v)
        K, J = cg.inner.K, cg.inner.store.slot_count
        ports, owner = dict(cg.ports), dict(cg.owner)
        chain = {h: list(c) for h, c in cg.chain.items()}
        occ, nbr = dict(cg.inner.edge_occ), {g: list(x) for g, x in cg.inner.nbr.items()}
        ids = (cg.mark, list(cg.free))
        spent = (meter.work, meter.depth, meter.init_work)
        with pytest.raises(GadgetError, match="edge capacity exhausted"):
            cg.insert_edge(3, 4)
        assert (meter.work, meter.depth, meter.init_work) == spent
        assert cg.ports == ports and cg.owner == owner
        assert cg.chain == chain and (cg.mark, list(cg.free)) == ids
        assert cg.inner.edge_occ == occ
        assert {g: list(x) for g, x in cg.inner.nbr.items()} == nbr
        assert (cg.inner.K, cg.inner.store.slot_count) == (K, J)
        assert cg.n_components() == 4
        check_gadget_graph(cg)
        # a deletion frees the room again
        cg.delete_edge(2, 0)
        cg.insert_edge(3, 4)
        check_gadget_graph(cg)


class TestHostRanges:
    """A gadget over two disjoint host ranges, as a sparsification node
    over two parts builds it, takes and reports the ids as given."""

    HOSTS = (range(0, 4), range(8, 12))

    def gadget(self):
        cg = ConnGeneral(CostMeter(ArbitraryPolicy(6)), self.HOSTS, 32)
        for r in self.HOSTS:
            for v in r:
                cg.activate_node(v)
        return cg

    def test_an_edge_past_the_pool_is_rejected_before_any_change(self):
        # sized as a sparsification node over two parts of 3 hosts sizes it,
        # 2 * span - 2; its pool of 2 * capacity + 2 gadget ids would hold
        # one edge more, which the capacity refuses
        hosts = (range(0, 3), range(3, 6))
        meter = CostMeter(ArbitraryPolicy(6))
        cg = ConnGeneral(meter, hosts, 2 * 6 - 2)
        cg.activate_all()
        pairs = list(itertools.combinations(range(6), 2))
        for u, v in pairs[: cg.edge_capacity]:
            cg.insert_edge(u, v)
        assert max(map(len, cg.chain.values())) >= 3 and cg.inner.nontree
        ports, occ = dict(cg.ports), dict(cg.inner.edge_occ)
        chain = {h: list(c) for h, c in cg.chain.items()}
        spent = (meter.work, meter.depth, meter.init_work)
        u, v = pairs[cg.edge_capacity]
        with pytest.raises(GadgetError, match="edge capacity exhausted"):
            cg.insert_edge(u, v)
        assert cg.ports == ports and cg.chain == chain
        assert cg.inner.edge_occ == occ
        assert (meter.work, meter.depth, meter.init_work) == spent
        check_gadget_graph(cg)

    def test_construction_is_charged_the_host_count(self):
        one = ConnGeneral(CostMeter(ArbitraryPolicy(6)), (range(8),), 32)
        assert self.gadget().meter.init_work == one.meter.init_work

    @pytest.mark.parametrize(
        "hosts", [(range(0, 4), range(3, 6)), (range(4),) * 3, (range(0, 8, 2),)],
        ids=["overlapping", "three-ranges", "stepped"],
    )
    def test_malformed_hosts_rejected(self, hosts):
        with pytest.raises(GadgetError):
            ConnGeneral(CostMeter(ArbitraryPolicy(6)), hosts, 8)

    @pytest.mark.parametrize("bad", [4, 7, 12, -1, 2.0, "3", None])
    def test_ids_outside_the_ranges_are_rejected_without_a_charge(self, bad):
        cg = self.gadget()
        cg.insert_edge(1, 9)
        meter = cg.meter
        before = (meter.work, meter.depth, meter.init_work, dict(cg.ports),
                  bytes(cg.host_active))
        calls = [
            lambda: cg.activate_node(bad), lambda: cg.deactivate_node(bad),
            lambda: cg.connected(bad, 1), lambda: cg.connected(1, bad),
            lambda: cg.insert_edge(bad, 9), lambda: cg.insert_edge(9, bad),
            lambda: cg.delete_edge(bad, 9), lambda: cg.find_replacement(9, bad),
        ]
        for call in calls:
            with pytest.raises(GadgetError):
                call()
            assert (meter.work, meter.depth, meter.init_work, dict(cg.ports),
                    bytes(cg.host_active)) == before

    def test_ports_and_reports_use_the_given_ids(self):
        cg = self.gadget()
        cg.insert_edge(1, 9)
        cg.insert_edge(9, 10)
        cg.insert_edge(10, 1)  # closes a triangle: the one non-tree edge
        assert set(cg.ports) == {(1, 9), (9, 1), (9, 10), (10, 9), (10, 1), (1, 10)}
        assert set(cg.chain) == {1, 9, 10}
        assert set(cg.owner.values()) == {1, 9, 10}
        assert cg.tree_edge(1, 9) and not cg.tree_edge(1, 10)
        want = ReplacementReport(ReplacementReport.REPLACED, (1, 10))
        assert cg.find_replacement(9, 1) == want
        assert cg.delete_edge(9, 1) == want
        assert cg.tree_edge(10, 1)
        assert cg.connected(1, 9) and not cg.connected(1, 3)
        assert cg.n_components() == 6
        check_gadget_graph(cg)
        cg.deactivate_node(11)
        assert cg.n_components() == 5 and not cg.host_active[7]


class TestFootprint:
    """Idle hosts and released gadget ids hold no Python objects."""

    def test_construction_size_does_not_grow_with_host_capacity(self):
        grown = []
        gc.disable()
        try:
            for n in (16, 1024):
                before = len(gc.get_objects())
                cg = ConnGeneral(CostMeter(ArbitraryPolicy(6)), (range(n),), 4 * n)
                grown.append(len(gc.get_objects()) - before)
                del cg
        finally:
            gc.enable()
        assert grown[0] == grown[1]

    def test_torn_down_graph_holds_no_chains_or_adjacency(self):
        n = 12
        cg = conn(n=n)
        activate_all(cg, n)
        rng = random.Random(5)
        edges = rng.sample(list(itertools.combinations(range(n), 2)), 40)
        for u, v in edges:
            cg.insert_edge(u, v)
        rng.shuffle(edges)
        for u, v in edges:
            cg.delete_edge(u, v)
        assert cg.chain == {}
        assert len(cg.free) == 2 * len(edges)
        assert cg.inner.nbr == {}
        check_gadget_graph(cg)

    def test_deleting_a_chunked_chain_leaves_no_record(self):
        # the centre of a star has a gadget chain whose tour outgrows a chunk
        n = 24
        cg = conn(n=n)
        activate_all(cg, n)
        forest = cg.inner
        for v in range(1, n):
            cg.insert_edge(0, v)
        assert 2 * (len(cg.chain[0]) - 1) > forest.K
        assert forest.store.slots
        for v in range(1, n):
            cg.delete_edge(0, v)
        assert forest.nbr == {}
        assert forest.store.slots == {}
        check_gadget_graph(cg)

    def test_ids_follow_the_prefilled_free_list(self):
        # the high-water mark and its release stack hand out the ids a
        # pre-filled list popped from its end would: released ids last in,
        # first out, then the lowest never-used id
        n, cap = 8, 6
        cg = conn(n=n, cap=cap)
        activate_all(cg, n)
        reference = list(range(2 * cap + 1, -1, -1))
        handed = []
        alloc, release = cg._alloc, cg.inner.deactivate_node

        def checked_alloc(host):
            g = alloc(host)
            assert g == reference.pop()
            handed.append(g)
            return g

        def mirrored_release(g):
            release(g)
            reference.append(g)

        cg._alloc = checked_alloc
        cg.inner.deactivate_node = mirrored_release
        rng = random.Random(11)
        present = set()
        rejected = 0
        for _ in range(300):
            u, v = sorted(rng.sample(range(n), 2))
            if (u, v) in present:
                cg.delete_edge(u, v)
                present.remove((u, v))
            elif len(present) == cap:
                with pytest.raises(GadgetError):
                    cg.insert_edge(u, v)
                rejected += 1
            else:
                cg.insert_edge(u, v)
                present.add((u, v))
        assert rejected
        # the capacity refuses the edge that the two spare ids would hold
        assert len(set(handed)) == 2 * cap < len(handed)


class Bip:
    """A BipartiteGeneral over a ConnGeneral double cover, every node
    active."""

    def __init__(self, n=12, policy=None):
        cover = conn(n=2 * n, policy=policy or ArbitraryPolicy(10))
        self.bg = BipartiteGeneral(cover)
        for v in range(n):
            self.bg.activate_node(v)

    def insert(self, u, v):
        self.bg.apply_edge(u, v, True)

    def delete(self, u, v):
        self.bg.apply_edge(u, v, False)

    def is_bipartite(self):
        return self.bg.is_bipartite()


def bg_with_edges(edges, n=12):
    b = Bip(n)
    for u, v in edges:
        b.insert(u, v)
    return b


def component_parities(g):
    """(bipartite components, non-bipartite components) of g, by BFS."""
    colour = {}
    bipartite = odd = 0
    for s in g.adj:
        if s in colour:
            continue
        colour[s] = 0
        queue = [s]
        ok = True
        while queue:
            x = queue.pop()
            for y in g.adj[x]:
                if y not in colour:
                    colour[y] = colour[x] ^ 1
                    queue.append(y)
                elif colour[y] == colour[x]:
                    ok = False
        if ok:
            bipartite += 1
        else:
            odd += 1
    return bipartite, odd


class TestBipartiteBounded:
    """Small graphs of degree at most two, on the double cover."""

    def test_single_edge(self):
        assert bg_with_edges([(0, 1)], n=2).is_bipartite()

    def test_triangle_not_bipartite(self):
        tri = bg_with_edges([(0, 1), (1, 2)], n=3)
        assert tri.is_bipartite()
        tri.insert(0, 2)
        assert not tri.is_bipartite()
        tri.delete(0, 2)
        assert tri.is_bipartite()

    def test_edgeless_graph(self):
        assert bg_with_edges([], n=6).is_bipartite()


class TestBipartiteGeneral:
    def test_even_and_odd_cycles(self):
        c4 = bg_with_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
        assert c4.is_bipartite()
        c5 = bg_with_edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        assert not c5.is_bipartite()

    def test_k4_not_bipartite(self):
        edges = list(itertools.combinations(range(4), 2))
        b = bg_with_edges(edges)
        assert not b.is_bipartite()

    def test_insert_delete_roundtrip_observables(self):
        b = bg_with_edges([(0, 1), (1, 2), (2, 3)])
        before = (b.is_bipartite(), b.bg.cover.n_components())
        b.insert(0, 3)
        b.delete(0, 3)
        assert (b.is_bipartite(), b.bg.cover.n_components()) == before
        with pytest.raises(GadgetError):
            b.bg.apply_edge(2, 2, True)
        assert (b.is_bipartite(), b.bg.cover.n_components()) == before

    def test_a_cover_without_room_for_both_edges_rejects_before_any_change(self):
        """A cover of edge capacity 1 holds one of an edge's two cover
        edges; the insertion is refused before the first goes in, with the
        cover, `nb` and the meter as they were.  Capacity 2 takes it."""
        meter = CostMeter(ArbitraryPolicy(6))
        cover = ConnGeneral(meter, (range(6),), 1)
        bg = BipartiteGeneral(cover)
        for v in range(3):
            bg.activate_node(v)
        spent = (meter.work, meter.depth, meter.init_work)
        with pytest.raises(GadgetError, match="capacity"):
            bg.apply_edge(0, 1, True)
        assert cover.ports == {} and bg.nb == 0
        assert (meter.work, meter.depth, meter.init_work) == spent
        check_gadget_graph(cover)
        roomy = BipartiteGeneral(ConnGeneral(CostMeter(ArbitraryPolicy(6)), (range(6),), 2))
        for v in range(3):
            roomy.activate_node(v)
        roomy.apply_edge(0, 1, True)
        assert set(roomy.cover.ports) == {(0, 3), (3, 0), (1, 2), (2, 1)}
        assert roomy.connected(0, 1) and roomy.is_bipartite()

    def test_high_degree_star(self):
        b = bg_with_edges([(0, w) for w in range(1, 10)])
        assert b.is_bipartite()
        b.insert(1, 2)
        assert not b.is_bipartite()  # odd triangle 0-1-2
        b.delete(1, 2)
        assert b.is_bipartite()
        b.insert(2, 3)
        assert not b.is_bipartite()  # odd triangle 0-2-3
        b.delete(2, 3)
        assert b.is_bipartite()

    def test_matches_oracle_on_random_graphs(self):
        rng = random.Random(31)
        for trial in range(12):
            n = rng.randrange(3, 10)
            b = Bip(n)
            g = SimpleGraph()
            for v in range(n):
                g.activate(v)
            for _ in range(60):
                u, v = rng.randrange(n), rng.randrange(n)
                if u == v:
                    continue
                if g.has_edge(u, v):
                    b.delete(u, v)
                    g.remove_edge(u, v)
                else:
                    b.insert(u, v)
                    g.add_edge(u, v)
                assert b.is_bipartite() == bf_bipartite(g)

    def test_cover_components_count_colour_classes(self):
        # a bipartite component lifts to two cover components, one with an
        # odd cycle to a single one
        rng, pick = random.Random(41), random.Random(42)
        for trial in range(10):
            n = rng.randrange(4, 14)
            b = Bip(n, policy=ArbitraryPolicy(trial))
            g = SimpleGraph()
            for v in range(n):
                g.activate(v)
            for _ in range(40):
                u, v = rng.randrange(n), rng.randrange(n)
                if u == v:
                    continue
                if g.has_edge(u, v):
                    b.delete(u, v)
                    g.remove_edge(u, v)
                else:
                    b.insert(u, v)
                    g.add_edge(u, v)
                bipartite, odd = component_parities(g)
                assert b.bg.cover.n_components() == 2 * bipartite + odd
                # the cover alone answers for the graph
                assert b.bg.nb == odd
                assert b.bg.n_components() == bipartite + odd
                x, y = pick.randrange(n), pick.randrange(n)
                assert b.bg.connected(x, y) == bf_connected(g, x, y)
            check_gadget_graph(b.bg.cover)

    def test_exhaustive_small_graphs(self):
        # every graph on 5 nodes with at most 6 edges, built edge by edge
        nodes = range(5)
        all_edges = list(itertools.combinations(nodes, 2))
        for mask in range(1 << len(all_edges)):
            if bin(mask).count("1") > 6:
                continue
            edges = [e for i, e in enumerate(all_edges) if mask >> i & 1]
            b = bg_with_edges(edges, n=5)
            g = SimpleGraph()
            for v in nodes:
                g.activate(v)
            for u, v in edges:
                g.add_edge(u, v)
            assert b.is_bipartite() == bf_bipartite(g), f"edges {edges}"

import itertools
import random

import pytest

from dynconn.costmodel import ArbitraryPolicy, CommonPolicy, CostMeter
from dynconn.eulerforest import ReplacementReport
from dynconn.oracle import (
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
    return ConnGeneral(CostMeter(policy or ArbitraryPolicy(6)), n, cap or 4 * n)


def activate_all(cg, n):
    for v in range(n):
        cg.activate_node(v)


def tally(cg):
    """The translated operations of cg's last edge call."""
    c = cg.counts
    return (c.node_add, c.node_del, c.edge_add, c.edge_del)


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
    def test_cycles_stay_tree_connected_on_chunked_tours(self, policy, seed, steps):
        # 16 hosts of mean degree up to 6 give gadget tours longer than one
        # chunk; a tree cycle-edge deletion must adopt the cycle's chord even
        # where the chunk query would find a cross edge first
        rng = random.Random(seed)
        n, m = 16, 48
        cg = conn(n=n, cap=m, policy=policy)
        activate_all(cg, n)
        edges = []
        chunked = False
        for _ in range(steps):
            if len(edges) < m and (len(edges) < m // 2 or rng.random() < 0.5):
                u, v = rng.sample(range(n), 2)
                if cg.has_edge(u, v):
                    continue
                cg.insert_edge(u, v)
                edges.append((u, v))
            else:
                cg.delete_edge(*edges.pop(rng.randrange(len(edges))))
            check_gadget_graph(cg)
            chunked = chunked or bool(cg.inner.store.arrays())
        assert chunked

    def test_find_replacement_probe(self):
        cg = conn()
        activate_all(cg, 3)
        cg.insert_edge(0, 1)
        cg.insert_edge(1, 2)
        cg.insert_edge(0, 2)
        probe = cg.find_replacement(0, 1)
        assert probe.kind == ReplacementReport.REPLACED
        assert cg.n_components() == 1

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


class Bip:
    """A host ConnGeneral and the double cover built on it, updated together
    the way a sparsification node updates them."""

    def __init__(self, n=12, policy=None):
        self.host = conn(n=n, policy=policy or ArbitraryPolicy(10))
        self.bip = BipartiteGeneral(self.host)
        for v in range(n):
            self.host.activate_node(v)
            self.bip.activate_node(v)

    def insert(self, u, v):
        self.host.insert_edge(u, v)
        self.bip.apply_edge(u, v, True)

    def delete(self, u, v):
        self.host.delete_edge(u, v)
        self.bip.apply_edge(u, v, False)

    def is_bipartite(self):
        return self.bip.is_bipartite()


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
        before = (b.is_bipartite(), b.bip.cover.n_components())
        b.insert(0, 3)
        b.delete(0, 3)
        assert (b.is_bipartite(), b.bip.cover.n_components()) == before
        with pytest.raises(GadgetError):
            b.bip.apply_edge(2, 2, True)
        assert (b.is_bipartite(), b.bip.cover.n_components()) == before

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
        rng = random.Random(41)
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
                assert b.bip.cover.n_components() == 2 * bipartite + odd
            check_gadget_graph(b.bip.cover)

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

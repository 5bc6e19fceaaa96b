"""Reductions: unbounded-degree connectivity and dynamic bipartiteness.

Two layers, each a constant-factor translation into a lower structure:

  ConnGeneral      degree-unbounded spanning forest.  Every host node of
                   degree d becomes a cycle of d gadget nodes (one per
                   incident edge, single node for d=1) and every host edge a
                   "cross" edge between its two gadget nodes.  Cycles are
                   kept internally tree-connected by splicing new nodes in
                   before removing edges and steering every tree cycle-edge
                   deletion with the cycle's chord (its one non-tree edge,
                   tracked in O(1)) as the hint, which makes host tree
                   edges exactly the cross tree edges.

  BipartiteGeneral bipartiteness from the bipartite double cover.  The cover
                   of a graph H has two nodes 2v and 2v+1 per node v of H
                   and, per edge uv, the two edges (2u, 2v+1) and
                   (2u+1, 2v).  A bipartite component of H lifts to two
                   components of the cover and a component with an odd
                   cycle to one, so H is bipartite exactly when
                   c(cover) = 2 c(H).  The cover is one more ConnGeneral;
                   c(H) comes from the host ConnGeneral it is built on.

The paper, following Eppstein et al. (1997), gets bipartiteness from a
degree-bounded distance-2 companion graph behind a gadget of alternating
2d-cycles.  The double cover departs from that construction but keeps its
asymptotic bounds: a host edge update is two ConnGeneral updates on twice
the nodes and edges, so the work stays O(n^{1/2+eps}) per update and the
depth stays constant (twice the connectivity layer's bound).

ConnGeneral counts its translated inner operations and asserts fixed per-call
bounds, so a regression that breaks the constant-translation property fails
loudly.
"""

from __future__ import annotations

from .costmodel import CostMeter
from .eulerforest import EulerForest, ReplacementReport


class GadgetError(ValueError):
    pass


# per-call ceilings on the translated operations, as (node additions, node
# removals, edge insertions, edge deletions); OpCounter enforces them
CONN_INSERT_CEILINGS = (2, 0, 5, 2)
CONN_DELETE_CEILINGS = (0, 2, 2, 5)


def _translated_depth(ceilings, inner):
    """Depth of a call held to `ceilings`, given the inner structure's
    per-operation bounds; inner node changes charge no depth."""
    _, _, inserts, deletes = ceilings
    return inserts * inner["insert"] + deletes * inner["delete"]


class OpCounter:
    """Per-call tally of translated operations with hard ceilings."""

    __slots__ = ("node_add", "node_del", "edge_add", "edge_del")

    def __init__(self):
        self.reset()

    def reset(self):
        self.node_add = 0
        self.node_del = 0
        self.edge_add = 0
        self.edge_del = 0

    def close(self, label, limits):
        got = (self.node_add, self.node_del, self.edge_add, self.edge_del)
        for name, value, cap in zip(
            ("node additions", "node removals", "edge insertions", "edge deletions"),
            got,
            limits,
        ):
            if cap is not None and value > cap:
                raise AssertionError(
                    f"{label}: {value} {name} exceeds the translation bound {cap}"
                )


class ConnGeneral:
    """Spanning forest / connectivity for hosts of unbounded degree."""

    def __init__(self, meter: CostMeter, host_capacity: int, edge_capacity: int):
        self.meter = meter
        self.host_capacity = host_capacity
        self.edge_capacity = edge_capacity
        self.inner = EulerForest(
            meter, 2 * edge_capacity + 2, priority_of=self._priority
        )
        self.host_active = bytearray(host_capacity)
        self.host_adj = [[] for _ in range(host_capacity)]
        self.cycle = [[] for _ in range(host_capacity)]
        # host -> the one non-tree edge of its cycle, for cycles of 3 or
        # more gadget nodes
        self.chord = {}
        self.owner = {}
        self.ports = {}
        self.free = list(range(2 * edge_capacity + 1, -1, -1))
        self.isolated = 0
        self.active_hosts = 0
        self.counts = OpCounter()
        with meter.initialization():
            meter.charge(host_capacity)

    @staticmethod
    def depth_bounds(policy) -> dict:
        """Upper bounds on the metered depth of the edge operations: the
        call ceilings times the Euler forest's bounds."""
        forest = EulerForest.depth_bounds(policy)
        return {
            "insert": _translated_depth(CONN_INSERT_CEILINGS, forest),
            "delete": _translated_depth(CONN_DELETE_CEILINGS, forest),
            "find_replacement": forest["find_replacement"],
        }

    def _priority(self, a, b):
        # same-cycle edges are the preferred replacement class: when a cycle
        # edge is deleted, swapping in the cycle's own chord keeps the cycle
        # internally tree-connected (a cross replacement would break it; for
        # cross-edge deletions no cycle edge can span the cut, so the
        # preference never misleads there).  The preference only ranks the
        # candidates a search finds, and a search on a chunked tour may miss
        # the chord, so _del passes the chord as a hint instead
        return 0 if self.owner[a] == self.owner[b] else 1

    # -- node lifecycle --------------------------------------------------------

    def activate_node(self, v):
        self._check_host(v)
        if self.host_active[v]:
            raise GadgetError(f"host node {v} already active")
        self.host_active[v] = 1
        self.active_hosts += 1
        self.isolated += 1
        self.meter.charge(1)

    def deactivate_node(self, v):
        self._require_host(v)
        if self.host_adj[v]:
            raise GadgetError(f"host node {v} not isolated")
        self.host_active[v] = 0
        self.active_hosts -= 1
        self.isolated -= 1
        self.meter.charge(1)

    # -- queries ------------------------------------------------------------------

    def connected(self, u, v):
        self._require_host(u)
        self._require_host(v)
        if u == v:
            return True
        if not self.host_adj[u] or not self.host_adj[v]:
            return False
        return self.inner.connected(self.cycle[u][0], self.cycle[v][0])

    def n_components(self):
        return self.inner.n_components() + self.isolated

    def tree_edge(self, u, v):
        key = (u, v)
        if key not in self.ports:
            return False
        return self.inner.tree_edge(self.ports[key], self.ports[(v, u)])

    def has_edge(self, u, v):
        return (u, v) in self.ports

    def degree(self, v):
        return len(self.host_adj[v])

    def find_replacement(self, u, v):
        """Probe: what delete_edge would report, host-mapped, no mutation."""
        if (u, v) not in self.ports:
            raise GadgetError(f"edge ({u},{v}) absent")
        rep = self.inner.find_replacement(self.ports[(u, v)], self.ports[(v, u)])
        return self._map_report(rep)

    def _map_report(self, rep):
        if rep.kind != ReplacementReport.REPLACED:
            return ReplacementReport(rep.kind)
        a, b = rep.edge
        ha, hb = self.owner[a], self.owner[b]
        if ha == hb:
            raise AssertionError("replacement fell inside one gadget cycle")
        return ReplacementReport(
            ReplacementReport.REPLACED, (ha, hb) if ha < hb else (hb, ha)
        )

    # -- edge changes -----------------------------------------------------------------

    def insert_edge(self, u, v):
        self._require_host(u)
        self._require_host(v)
        if u == v:
            raise GadgetError("self-loop")
        if (u, v) in self.ports:
            raise GadgetError(f"edge ({u},{v}) already present")
        self.counts.reset()
        g_uv = self._splice_in(u)
        g_vu = self._splice_in(v)
        self.ports[(u, v)] = g_uv
        self.ports[(v, u)] = g_vu
        self.host_adj[u].append(v)
        self.host_adj[v].append(u)
        self._ins(g_uv, g_vu)
        self.counts.close("conn_gadget_insert", CONN_INSERT_CEILINGS)
        return None

    def delete_edge(self, u, v):
        return self._delete(u, v, None)

    def delete_edge_with_hint(self, u, v, hint):
        """Delete (u, v) but adopt the given host edge as replacement if it
        reconnects; the hint must be a present non-tree host edge."""
        a, b = hint
        if (a, b) not in self.ports:
            raise GadgetError(f"hint ({a},{b}) is not an edge")
        if self.tree_edge(a, b):
            raise GadgetError(f"hint ({a},{b}) is a tree edge")
        return self._delete(u, v, hint)

    def _delete(self, u, v, hint):
        if (u, v) not in self.ports:
            raise GadgetError(f"edge ({u},{v}) absent")
        self.counts.reset()
        g_uv = self.ports.pop((u, v))
        g_vu = self.ports.pop((v, u))
        if hint is None:
            rep = self.inner.delete_edge(g_uv, g_vu)
        else:
            a, b = hint
            rep = self.inner.delete_edge_with_hint(
                g_uv, g_vu, (self.ports[(a, b)], self.ports[(b, a)])
            )
        self.counts.edge_del += 1
        self._splice_out(u, g_uv)
        self._splice_out(v, g_vu)
        for g in (g_uv, g_vu):
            self.inner.deactivate_node(g)
            self.free.append(g)
            del self.owner[g]
            self.counts.node_del += 1
        self.host_adj[u].remove(v)
        self.host_adj[v].remove(u)
        self.counts.close("conn_gadget_delete", CONN_DELETE_CEILINGS)
        return self._map_report(rep)

    # -- gadget cycle surgery ------------------------------------------------------------

    def _alloc(self, host):
        if not self.free:
            raise GadgetError("edge capacity exhausted")
        g = self.free.pop()
        self.inner.activate_node(g)
        self.owner[g] = host
        self.counts.node_add += 1
        return g

    def _splice_in(self, u):
        # full gadget nodes sit at degree 3 (two cycle edges plus the cross
        # edge), so the broken cycle edge is deleted before the new ones go
        # in; the same-cycle replacement preference keeps the cycle's tree
        # connectivity across that deletion
        cyc = self.cycle[u]
        d = len(cyc)
        g = self._alloc(u)
        if d == 0:
            self.isolated -= 1
        elif d == 1:
            self._ins(cyc[0], g)
        elif d == 2:
            self._ins(cyc[1], g)
            self._ins(g, cyc[0])
        else:
            tail, head = cyc[-1], cyc[0]
            self._del(u, tail, head)
            self._ins(tail, g)
            self._ins(g, head)
        if d >= 2:
            self.chord[u] = (g, cyc[0])  # closes the cycle's tree path
        cyc.append(g)
        return g

    def _splice_out(self, u, g):
        cyc = self.cycle[u]
        d = len(cyc)
        i = cyc.index(g)
        if d == 1:
            self.isolated += 1
        elif d == 2:
            other = cyc[1 - i]
            self._del(u, other, g)
        elif d == 3:
            a, b = (x for x in cyc if x is not g)
            self._del(u, g, a)
            self._del(u, g, b)
        else:
            prev = cyc[i - 1]
            nxt = cyc[(i + 1) % d]
            self._del(u, prev, g)
            self._del(u, g, nxt)
            self._ins(prev, nxt)
            self.chord[u] = (prev, nxt)
        cyc.remove(g)

    def _ins(self, a, b):
        self.inner.insert_edge(a, b)
        self.counts.edge_add += 1

    def _del(self, u, a, b):
        """Delete cycle edge (a, b) of host u.  A tree cycle edge lies on
        the path the chord closes, so the chord reconnects the two sides and
        is passed as the hint; either way the cycle is left without one."""
        chord = self.chord.pop(u, None)
        if chord is None or chord == (a, b) or chord == (b, a):
            self.inner.delete_edge(a, b)
        else:
            self.inner.delete_edge_with_hint(a, b, chord)
        self.counts.edge_del += 1

    # -- checker access -----------------------------------------------------------------

    def host_nodes(self):
        return [v for v in range(self.host_capacity) if self.host_active[v]]

    def host_degree(self, v):
        return len(self.host_adj[v])

    def cycle_nodes(self, v):
        return list(self.cycle[v])

    def cycle_edges(self, v):
        cyc = self.cycle[v]
        d = len(cyc)
        if d < 2:
            return []
        if d == 2:
            return [(cyc[0], cyc[1])]
        return [(cyc[i], cyc[(i + 1) % d]) for i in range(d)]

    def cross_edges(self):
        return [
            ((u, v), (g, self.ports[(v, u)]))
            for (u, v), g in self.ports.items()
            if u < v
        ]

    def _check_host(self, v):
        if not 0 <= v < self.host_capacity:
            raise GadgetError(f"host id {v} out of range")

    def _require_host(self, v):
        self._check_host(v)
        if not self.host_active[v]:
            raise GadgetError(f"host node {v} not active")


class BipartiteGeneral:
    """Bipartiteness of an unbounded-degree graph via its double cover.

    Built on the host's ConnGeneral, which already holds the same graph:
    host node v is cover nodes 2v and 2v+1, and host edge uv is the cover
    edges (2u, 2v+1) and (2u+1, 2v).
    """

    def __init__(self, host: ConnGeneral):
        self.meter = host.meter
        self.host = host
        self.cover = ConnGeneral(
            host.meter, 2 * host.host_capacity, 2 * host.edge_capacity
        )

    @staticmethod
    def depth_bounds(policy) -> dict:
        """Upper bounds on the metered depth of apply_edge: two cover
        updates of the same kind, one after the other."""
        conn = ConnGeneral.depth_bounds(policy)
        return {kind: 2 * conn[kind] for kind in ("insert", "delete")}

    def activate_node(self, v):
        self.cover.activate_node(2 * v)
        self.cover.activate_node(2 * v + 1)

    def deactivate_node(self, v):
        self.cover.deactivate_node(2 * v)
        self.cover.deactivate_node(2 * v + 1)

    def apply_edge(self, u, v, insert: bool):
        if u == v:
            raise GadgetError("self-loop")
        update = self.cover.insert_edge if insert else self.cover.delete_edge
        update(2 * u, 2 * v + 1)
        update(2 * u + 1, 2 * v)

    def is_bipartite(self):
        self.meter.charge(3)
        return self.cover.n_components() == 2 * self.host.n_components()


# bench/tracer.py is the only reader of this name
BipartiteBounded = BipartiteGeneral

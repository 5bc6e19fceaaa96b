"""Reductions: unbounded-degree connectivity and dynamic bipartiteness.

Two layers, each a constant-factor translation into a lower structure:

  ConnGeneral      degree-unbounded spanning forest.  Every host node of
                   degree d becomes a chain, a path of d gadget nodes (one
                   per incident edge), and every host edge a "cross" edge
                   between its two gadget nodes.  A splice-in links a new
                   singleton to the chain's last node, and a splice-out
                   contracts the node out of the chain, an end node as a
                   leaf and an interior one into the edge joining its two
                   neighbours.  Every chain edge is a tree edge and no
                   deletion cuts a chain, so every non-tree edge is a cross
                   edge and host tree edges are exactly the cross tree
                   edges.

  BipartiteGeneral bipartiteness from the bipartite double cover alone.
                   The cover of a graph G has two nodes 2v and 2v+1 per
                   node v of G and, per edge uv, the two edges (2u, 2v+1)
                   and (2u+1, 2v).  A bipartite component of G lifts to two
                   components of the cover and a component with an odd
                   cycle to one, which holds both copies of its nodes.
                   Counting those mirror-closed components as `nb` gives
                   c(G) = (c(cover) + nb) / 2, and G is bipartite exactly
                   when nb = 0.  The cover is any connectivity structure
                   over 2n nodes; the facade's is one connectivity
                   sparsification tree, and no structure over G is kept.

The paper, following Eppstein et al. (1997), gets bipartiteness from a
degree-bounded distance-2 companion graph behind a gadget of alternating
2d-cycles.  The double cover departs from that construction but keeps its
asymptotic bounds: a graph update is two connectivity updates on twice the
nodes and edges, plus O(1) connectivity queries to keep `nb`, so the work
stays O(n^{1/2+eps}) per update and the depth stays constant (twice the
connectivity bound).

ConnGeneral counts its translated inner operations and asserts fixed per-call
bounds, so a regression that breaks the constant-translation property fails
loudly.
"""

from __future__ import annotations

from .costmodel import CostMeter
from .eulerforest import EulerForest, ForestError, ReplacementReport


class GadgetError(ValueError):
    pass


# per-call ceilings on the translated operations, as (node additions, node
# removals, edge insertions, edge deletions): a host insert is one link per
# endpoint and the cross edge, a host delete the cross edge and one
# contraction per endpoint.  `ConnGeneral._close_tally` enforces them,
# counting a contraction (`EulerForest.contract`, bounded by the forest's
# delete) as an edge deletion
CONN_INSERT_CEILINGS = (2, 0, 3, 0)
CONN_DELETE_CEILINGS = (0, 2, 0, 3)


def _translated_depth(ceilings, inner):
    """Depth of a call held to `ceilings`, given the inner structure's
    per-operation bounds; inner node changes charge no depth, and an edge
    deletion is a delete or a contraction."""
    _, _, inserts, deletes = ceilings
    return inserts * inner["insert"] + deletes * max(inner["delete"], inner["contract"])


# the release stack of every gadget that has released no id, which is most
# of them; the first release gets the gadget its own list
_NO_IDS = ()


class ConnGeneral:
    """Spanning forest / connectivity for hosts of unbounded degree.

    `hosts` is a tuple of one or two disjoint ranges of host ids, such as
    `(range(n),)`; arguments, `ports`, `chain`, `owner` and every report
    use those ids as given.  Only the dense activity record `host_active`
    is indexed by position: a host's offset in the ranges laid end to end.

    A host's chain is kept in path order, so its d - 1 chain edges join
    consecutive nodes: a splice-in appends its node, linked to the last
    one, and a splice-out removes its node from the list and contracts it
    out of the path (`EulerForest.contract`): an end node leaves as a
    leaf, and an interior node's two neighbours are joined.
    """

    def __init__(self, meter: CostMeter, hosts: tuple, edge_capacity: int):
        if not 1 <= len(hosts) <= 2 or any(r.step != 1 for r in hosts):
            raise GadgetError("hosts must be one or two ranges of step 1")
        first, second = hosts[0], hosts[-1] if len(hosts) == 2 else range(0)
        if max(first.start, second.start) < min(first.stop, second.stop):
            raise GadgetError(f"host ranges {hosts} overlap")
        self.meter = meter
        self.hosts = hosts
        # (lo, hi) of each range, then the shift from a second-range id to
        # its position
        self._bounds = (
            first.start, first.stop, second.start, second.stop,
            second.start - len(first),
        )
        self.edge_capacity = edge_capacity
        self.inner = EulerForest(meter, 2 * edge_capacity + 2)
        self.host_active = bytearray(len(first) + len(second))
        # host -> its gadget chain, only for hosts of degree 1 or more, so an
        # idle host holds no object
        self.chain = {}
        self.owner = {}
        self.ports = {}
        # gadget ids below the mark have been handed out; released ids are
        # reused last in, first out before the mark moves
        self.mark = 0
        self.free = _NO_IDS
        self.isolated = 0
        # the translated operations of the call in flight, as (node
        # additions, node removals, edge insertions, edge deletions)
        self.node_add = self.node_del = self.edge_add = self.edge_del = 0
        with meter.initialization():
            meter.charge(len(self.host_active))

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

    # -- node lifecycle --------------------------------------------------------

    def activate_node(self, v):
        i = self._position(v)
        if self.host_active[i]:
            raise GadgetError(f"host node {v} already active")
        self.host_active[i] = 1
        self.isolated += 1
        self.meter.charge(1)

    def activate_all(self):
        """Activate every host of a gadget with none active: one write of the
        activity record, charged one unit per host like their activations."""
        if self.isolated or self.chain:
            raise GadgetError("activate_all on a gadget with an active host")
        n = len(self.host_active)
        self.host_active = bytearray(b"\x01") * n
        self.isolated = n
        self.meter.charge(n)

    def deactivate_node(self, v):
        self._require_host(v)
        if v in self.chain:
            raise GadgetError(f"host node {v} not isolated")
        self.host_active[self._position(v)] = 0
        self.isolated -= 1
        self.meter.charge(1)

    # -- queries ------------------------------------------------------------------

    def connected(self, u, v):
        self._require_host(u)
        self._require_host(v)
        if u == v:
            return True
        chain = self.chain
        if u not in chain or v not in chain:
            return False
        return self.inner.connected(chain[u][0], chain[v][0])

    def n_components(self):
        return self.inner.n_components() + self.isolated

    def tree_edge(self, u, v):
        key = (u, v)
        if key not in self.ports:
            return False
        return self.inner.tree_edge(self.ports[key], self.ports[(v, u)])

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
            raise AssertionError("replacement fell inside one gadget chain")
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
        # the capacity bounds the edges; the forest's 2 * edge_capacity + 2
        # ids hold one edge more, unused, and size its K and J
        if len(self.ports) >= 2 * self.edge_capacity:
            raise GadgetError("edge capacity exhausted")
        self.node_add = self.node_del = self.edge_add = self.edge_del = 0
        g_uv = self._splice_in(u)
        g_vu = self._splice_in(v)
        self.ports[(u, v)] = g_uv
        self.ports[(v, u)] = g_vu
        self._ins(g_uv, g_vu)
        self._close_tally("conn_gadget_insert", CONN_INSERT_CEILINGS)
        return None

    def delete_edge(self, u, v):
        return self._delete(u, v, None)

    def delete_edge_with_hint(self, u, v, hint):
        """Delete (u, v) but adopt the given host edge as replacement if it
        reconnects; the hint must be a present non-tree host edge other
        than (u, v), in (u, v)'s component.  A rejected hint leaves the
        gadget and the meter as they were; an accepted one is charged its
        tree-edge test with the deletion."""
        a, b = hint
        if (a, b) not in self.ports:
            raise GadgetError(f"hint ({a},{b}) is not an edge")
        if (a, b) in ((u, v), (v, u)):
            raise GadgetError(f"hint ({a},{b}) is the deleted edge")
        if (self.ports[(a, b)], self.ports[(b, a)]) in self.inner.edge_occ:
            raise GadgetError(f"hint ({a},{b}) is a tree edge")
        return self._delete(u, v, hint)

    def _delete(self, u, v, hint):
        if (u, v) not in self.ports:
            raise GadgetError(f"edge ({u},{v}) absent")
        g_uv, g_vu = self.ports[(u, v)], self.ports[(v, u)]
        if hint is None:
            rep = self.inner.delete_edge(g_uv, g_vu)
        else:
            a, b = hint
            try:
                rep = self.inner.delete_edge_with_hint(
                    g_uv, g_vu, (self.ports[(a, b)], self.ports[(b, a)])
                )
            except ForestError as err:
                # the only forest check the gadget's own checks leave open,
                # made before any change or charge
                raise GadgetError(
                    f"hint ({a},{b}) is off the component of ({u},{v})"
                ) from err
            self.inner.meter.charge(1)  # the hint's tree-edge test
        # the forest checks a hint before any change: the ports go once it
        # has taken the edge out
        del self.ports[(u, v)], self.ports[(v, u)]
        self.node_add = self.node_del = self.edge_add = 0
        self.edge_del = 1
        self._splice_out(u, g_uv)
        self._splice_out(v, g_vu)
        if self.free is _NO_IDS:
            self.free = []
        for g in (g_uv, g_vu):
            self.inner.deactivate_node(g)
            self.free.append(g)
            del self.owner[g]
            self.node_del += 1
        self._close_tally("conn_gadget_delete", CONN_DELETE_CEILINGS)
        return self._map_report(rep)

    def _close_tally(self, label, limits):
        """Fail when the call's translated operations exceed `limits`."""
        add, rem, ins, dels = limits
        if (self.node_add <= add and self.node_del <= rem
                and self.edge_add <= ins and self.edge_del <= dels):
            return
        got = (self.node_add, self.node_del, self.edge_add, self.edge_del)
        names = ("node additions", "node removals", "edge insertions", "edge deletions")
        for name, value, cap in zip(names, got, limits):
            if value > cap:
                raise AssertionError(
                    f"{label}: {value} {name} exceeds the translation bound {cap}"
                )

    # -- gadget chain surgery ------------------------------------------------------------

    def _alloc(self, host):
        # insert_edge's capacity check leaves an id available
        if self.free:
            g = self.free.pop()
        else:
            g = self.mark
            self.mark += 1
        self.inner.activate_node(g)
        self.owner[g] = host
        self.node_add += 1
        return g

    def _splice_in(self, u):
        # the chain's last node holds at most one chain edge and its cross
        # edge, so it takes g's link, a tree edge to a singleton
        g = self._alloc(u)
        chain = self.chain.get(u)
        if chain is None:
            self.chain[u] = [g]
            self.isolated -= 1
            return g
        self._ins(chain[-1], g)
        chain.append(g)
        return g

    def _splice_out(self, u, g):
        # g's cross edge is gone, so g holds only its one or two chain
        # edges, tree edges all, and contracts out of the chain
        chain = self.chain[u]
        if len(chain) == 1:
            del self.chain[u]
            self.isolated += 1
            return
        self.inner.contract(g)
        self.edge_del += 1
        chain.remove(g)

    def _ins(self, a, b):
        self.inner.insert_edge(a, b)
        self.edge_add += 1

    def _position(self, v):
        """v's index in host_active; GadgetError unless v is an integer in
        one of the host ranges."""
        lo0, hi0, lo1, hi1, shift = self._bounds
        if type(v) is int:
            if lo0 <= v < hi0:
                return v - lo0
            if lo1 <= v < hi1:
                return v - shift
        raise GadgetError(f"host id {v!r} out of range")

    def _require_host(self, v):
        if not self.host_active[self._position(v)]:
            raise GadgetError(f"host node {v} not active")


class BipartiteGeneral:
    """Bipartiteness of an unbounded-degree graph G from its double cover.

    `cover` is a connectivity structure over twice G's nodes, a ConnGeneral
    or a SparsTree: anything with the node and edge updates, `connected`
    and `n_components`.  Node v of G is cover nodes 2v and 2v+1, and edge
    uv is the cover edges (2u, 2v+1) and (2u+1, 2v).  Nothing else is kept
    but `nb`, the number of mirror-closed cover components: those that hold
    both copies of some node.

    A walk of length L from v in G lifts to a walk from 2v that ends on the
    copy of parity L, and every cover walk projects to a walk of G.  So a
    component of G with a 2-colouring lifts to two cover components, one
    holding the even copies of one colour class and the odd copies of the
    other, and its mirror image; a component with an odd cycle lifts to a
    single component, mirror-closed.  With b components of the first kind
    and nb of the second, c(cover) = 2b + nb and c(G) = b + nb, so
    c(G) = (c(cover) + nb) / 2, and G is bipartite exactly when nb = 0.

    The mirror map w -> w ^ 1 is an automorphism of the cover, so it maps
    each component onto a component.  A component holding 2u and 2u+1
    therefore meets its own image and is that image: it holds both copies
    of every node in it.  So a component holding 2u is mirror-closed
    exactly when it also holds 2u+1.  An edge update on (u, v) changes only
    the components holding the copies of u and v, and the closed ones among
    them number cu + cv - (cu and cv and conn(2u, 2v)), where
    cu = conn(2u, 2u+1): one closed component holds all four copies when it
    holds both pairs and 2u reaches 2v.  `apply_edge` reads that count
    before and after the two cover updates and adds the difference to
    `nb`.  An insertion into a ConnGeneral cover without room for both
    edges is refused before the reads, so no update is left half done.  A
    node change adds or removes the two singletons 2v and 2v+1, neither
    closed, and leaves `nb` as it is.

    The mirror reads are cover queries, charged work only like every
    `connected`; the two cover updates run one after the other.

    bench/tracer.py wraps `__init__`, `activate_node`, `deactivate_node`,
    `apply_edge` and `is_bipartite` under these names.
    """

    def __init__(self, cover):
        self.meter = cover.meter
        self.cover = cover
        self.nb = 0

    @staticmethod
    def depth_bounds(cover) -> dict:
        """Upper bounds on the metered depth of the updates, given the
        cover's bounds `cover`: two cover updates of the same kind, one
        after the other; the mirror reads charge no depth."""
        ops = ("activate", "deactivate", "insert", "delete")
        return {op: 2 * cover[op] for op in ops}

    def activate_node(self, v):
        self.cover.activate_node(2 * v)
        self.cover.activate_node(2 * v + 1)

    def deactivate_node(self, v):
        self.cover.deactivate_node(2 * v)
        self.cover.deactivate_node(2 * v + 1)

    def apply_edge(self, u, v, insert: bool):
        if u == v:
            raise GadgetError("self-loop")
        cover = self.cover
        # both cover edges must fit before the first goes in; a SparsTree
        # holds any edge of its nodes
        if insert and isinstance(cover, ConnGeneral) and (
            len(cover.ports) + 4 > 2 * cover.edge_capacity
        ):
            raise GadgetError("edge capacity exhausted for the two cover edges")
        update = cover.insert_edge if insert else cover.delete_edge
        before = self._closed(u, v)
        update(2 * u, 2 * v + 1)
        update(2 * u + 1, 2 * v)
        self.nb += self._closed(u, v) - before

    def _closed(self, u, v):
        """The mirror-closed components among those holding u's and v's
        copies."""
        conn = self.cover.connected
        cu = conn(2 * u, 2 * u + 1)
        cv = conn(2 * v, 2 * v + 1)
        return cu + cv - (cu and cv and conn(2 * u, 2 * v))

    def connected(self, u, v):
        conn = self.cover.connected
        return conn(2 * u, 2 * v) or conn(2 * u, 2 * v + 1)

    def n_components(self):
        components = self.cover.n_components()
        self.meter.charge(1)
        return (components + self.nb) // 2

    def is_bipartite(self):
        self.meter.charge(1)
        return self.nb == 0


# bench/tracer.py is the only reader of this name
BipartiteBounded = BipartiteGeneral

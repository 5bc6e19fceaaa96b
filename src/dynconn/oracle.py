"""Brute-force reference graph queries and structural checkers.

Everything here recomputes from scratch; nothing is incremental.  The dynamic
structures are tested against these oracles after every operation at small
scale, so the code favours being obviously right over being fast.
"""

from __future__ import annotations

from collections import Counter, deque

from .aggtree import AggTree
from .chunks import Chunk


class SimpleGraph:
    """Adjacency-set graph over integer node ids with an explicit active set."""

    def __init__(self):
        self.adj = {}

    def activate(self, v):
        if v in self.adj:
            raise ValueError(f"node {v} already active")
        self.adj[v] = set()

    def deactivate(self, v):
        if v not in self.adj:
            raise ValueError(f"node {v} not active")
        if self.adj[v]:
            raise ValueError(f"node {v} not isolated")
        del self.adj[v]

    def add_edge(self, u, v):
        if u == v:
            raise ValueError("self-loop")
        if u not in self.adj or v not in self.adj:
            raise ValueError("inactive endpoint")
        if v in self.adj[u]:
            raise ValueError(f"edge ({u},{v}) already present")
        self.adj[u].add(v)
        self.adj[v].add(u)

    def remove_edge(self, u, v):
        if u not in self.adj or v not in self.adj[u]:
            raise ValueError(f"edge ({u},{v}) absent")
        self.adj[u].remove(v)
        self.adj[v].remove(u)

    def has_edge(self, u, v):
        return u in self.adj and v in self.adj[u]

    def edges(self):
        return [(u, v) for u in self.adj for v in self.adj[u] if u < v]

    def degree(self, v):
        return len(self.adj[v])


def bf_connected(g: SimpleGraph, u, v) -> bool:
    if u not in g.adj or v not in g.adj:
        raise ValueError("inactive node")
    if u == v:
        return True
    seen = {u}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        for y in g.adj[x]:
            if y == v:
                return True
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return False


def bf_components(g: SimpleGraph) -> int:
    seen = set()
    count = 0
    for s in g.adj:
        if s in seen:
            continue
        count += 1
        seen.add(s)
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for y in g.adj[x]:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
    return count


def bf_bipartite(g: SimpleGraph) -> bool:
    color = {}
    for s in g.adj:
        if s in color:
            continue
        color[s] = 0
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for y in g.adj[x]:
                if y not in color:
                    color[y] = color[x] ^ 1
                    queue.append(y)
                elif color[y] == color[x]:
                    return False
    return True


# -- structural checkers -----------------------------------------------------


class CheckFailure(AssertionError):
    """An internal invariant of a dynamic structure does not hold."""


def check(cond, what):
    if not cond:
        raise CheckFailure(what)


def check_agg_tree(tree):
    """Full invariant sweep of one aggregate tree, each leaf's record of its
    tree and position included; raises CheckFailure."""
    root = tree.root
    leaves = tree.leaves
    if root is None:
        check(leaves == [], "empty tree with leaves")
        return
    # in-order leaf collection plus shape constraints
    collected = []
    stack = [(root, root.height)]
    while stack:
        v, h = stack.pop()
        check(v.height == h, f"height field {v.height} != structural {h}")
        if v.height == 0:
            check(v.children is None, "leaf with children")
            collected.append(v)
            continue
        deg = len(v.children)
        if v is root:
            check(deg >= min(2, len(leaves)), f"root degree {deg}")
        else:
            check(2 <= deg, f"inner degree {deg} < 2")
        check(deg <= 6, f"inner degree {deg} > 6")
        agg = 0
        for c in v.children:
            agg |= c.bits
            check(c.height == v.height - 1, "child height mismatch")
        check(agg == v.bits, "inner bits != OR of children bits")
        check(v.fst is v.children[0].fst, "fst pointer stale")
        check(v.lst is v.children[-1].lst, "lst pointer stale")
        for c in reversed(v.children):
            stack.append((c, v.height - 1))
    check(collected == leaves, "leaf array does not match tree order")
    if len(leaves) > 1:
        check(root.height <= _log2ceil(len(leaves)) + 2, "tree too tall")
    for pos, leaf in enumerate(leaves):
        check(leaf.array is tree and leaf.pos == pos, f"leaf place stale at {pos}")
        check(leaf.fst is leaf and leaf.lst is leaf, "leaf fst/lst not self")
        check(len(leaf.ancestors) == root.height + 1, "ancestor array length")
        check(leaf.ancestors[0] is leaf, "ancestors[0] is not the leaf")
        v = leaf
        for h in range(1, root.height + 1):
            v = _structural_parent(tree, v)
            check(leaf.ancestors[h] is v, f"ancestor pointer at height {h} stale")


def _structural_parent(tree, v):
    stack = [tree.root]
    while stack:
        w = stack.pop()
        if w.height == 0:
            continue
        for c in w.children:
            if c is v:
                return w
            if c.height > 0:
                stack.append(c)
    raise CheckFailure("vertex not reachable from root")


def _log2ceil(x):
    return (x - 1).bit_length()


def check_chunk_store(store):
    """Link symmetry, free columns and every array's tree."""
    active = list(store.slots.values())
    for c in active:
        for d in active:
            check(
                (c.bits >> d.slot & 1) == (d.bits >> c.slot & 1),
                f"links not symmetric between slots {c.slot} and {d.slot}",
            )
    free = set(range(store.slot_count)) - {c.slot for c in active}
    for c in active:
        for s in free:
            check(c.bits >> s & 1 == 0, f"stale link bit to free slot {s}")
    for array in store.arrays():
        check_agg_tree(array)


def euler_tours(forest):
    """The stored tours of an Euler forest, found from its occurrence
    pointers: {container: edge list}, where a small tour is its own
    container and a chunked tour is its chunk array."""
    tours = {}
    for container, _ in forest.edge_occ.values():
        tour = container.array if isinstance(container, Chunk) else container
        check(tour is not None, "occurrence in a chunk outside any array")
        if tour not in tours:
            chunks = tour.leaves if isinstance(tour, AggTree) else [tour]
            tours[tour] = [e for c in chunks for e in c.edges]
    return tours


def check_euler_forest(forest):
    """Tour validity, occurrence pointers, counters, degree bound, chunk
    sizing, the non-tree record and link ground truth.  Tours are found from
    the occurrence pointers, and the master array may hold no chunk array
    outside them.  The non-tree record must be `nbr` minus the tree edges,
    in `nbr` order, with no entry for a node without a non-tree edge; the
    link vectors are checked from `nbr` and `edge_occ`, not from it."""
    occ = forest.edge_occ
    for e, (container, off) in occ.items():
        check(container.edges[off : off + 1] == [e], f"occurrence pointer stale for {e}")
    tours = euler_tours(forest)
    reached = {id(t) for t in tours if isinstance(t, AggTree)}
    check(
        {id(a) for a in forest.store.arrays()} == reached,
        "the master array holds a chunk array that no occurrence reaches",
    )
    stored = set()
    for tour, edges in tours.items():
        check(len(edges) % 2 == 0, "odd tour length")
        for i, (a, b) in enumerate(edges):
            check(a != b, "self-loop in tour")
            check(edges[(i + 1) % len(edges)][0] == b, f"tour not contiguous at {i}")
            check((a, b) not in stored, f"duplicate directed edge {(a, b)}")
            stored.add((a, b))
        check(all((b, a) in stored for (a, b) in edges), "tour misses a reverse edge")
        nodes = {a for (a, b) in edges}
        check(len(nodes) == len(edges) // 2 + 1, "tour does not span a tree")
        chunks = tour.leaves if isinstance(tour, AggTree) else []
        for c in chunks:
            check(1 <= len(c.edges) <= forest.K, "chunk size out of range")
            check(len(chunks) == 1 or 2 * len(c.edges) >= forest.K, "undersized chunk")
    check(len(stored) == len(occ), "tour edge without an occurrence pointer")
    tour_nodes = {a for (a, b) in stored}
    check(tour_nodes <= forest.nbr.keys(), "tour occurrence of an inactive node")
    for v, nbrs in forest.nbr.items():
        check(0 <= v < forest.capacity, f"active node {v} out of range")
        check(len(nbrs) <= 3, f"degree {len(nbrs)} > 3 at node {v}")
        if not any((v, w) in occ for w in nbrs):
            check(v not in tour_nodes, "tour occurrence for tree-isolated node")
    nontree = {}
    for v, nbrs in forest.nbr.items():
        ys = [w for w in nbrs if (v, w) not in occ]
        if ys:
            nontree[v] = ys
    check(
        forest.nontree == nontree,
        "non-tree record is not the adjacency minus the tree edges, in order",
    )
    check_link_vectors(forest)


def check_link_vectors(forest):
    """Every live chunk's link vector against one recomputed from scratch:
    the slots of the chunks holding a non-tree neighbour of its nodes."""
    chunks = list(forest.store.slots.values())
    node_sets = {c.slot: {x for e in c.edges for x in e} for c in chunks}
    for c in chunks:
        want = 0
        for x in node_sets[c.slot]:
            for y in forest.nbr[x]:
                if (x, y) in forest.edge_occ:
                    continue
                for d in chunks:
                    if y in node_sets[d.slot]:
                        want |= 1 << d.slot
        check(
            c.bits == want,
            f"link vector of slot {c.slot} stale: {c.bits:#x} != {want:#x}",
        )


def check_gadget_graph(cg):
    """Connectivity-gadget invariants: cycle shape, internal
    tree-connectedness and the tracked chord of every cycle.  Host degrees
    are counted from the cross edges, and only active hosts with an edge
    hold a cycle.  Every active host without a cycle is one isolated
    component."""
    degree = Counter(u for (u, v) in cg.ports)
    check(
        cg.isolated == sum(cg.host_active) - len(cg.cycle),
        f"isolated count {cg.isolated} is not the active hosts without edges",
    )
    check(set(cg.cycle) == set(degree), "cycle entries are not the hosts with edges")
    check(set(cg.chord) <= set(cg.cycle), "chord of a host without a cycle")
    for u, cyc in cg.cycle.items():
        d = degree[u]
        check(cg.host_active[cg._position(u)], f"inactive host {u} holds a cycle")
        check(len(cyc) == d, f"cycle of {u} has {len(cyc)} nodes for degree {d}")
        if d >= 2:
            edges = [(cyc[0], cyc[1])] if d == 2 else list(zip(cyc, cyc[1:] + cyc[:1]))
            check(all(b in cg.inner.nbr[a] for a, b in edges), f"cycle of {u} is broken")
            n_tree = sum(1 for e in edges if e in cg.inner.edge_occ)
            check(n_tree == d - 1, f"cycle of {u}: {n_tree} tree edges, want {d - 1}")
        chord = cg.chord.get(u)
        if d >= 3:
            check(
                chord is not None
                and set(chord) in [set(e) for e in edges]
                and chord not in cg.inner.edge_occ,
                f"cycle of {u}: chord {chord} is not its non-tree edge",
            )
        else:
            check(chord is None, f"cycle of {u} with {d} nodes has chord {chord}")
    for (u, v), g1 in cg.ports.items():
        g2 = cg.ports[(v, u)]
        check(g1 in cg.cycle[u], f"port of ({u},{v}) is not on the cycle of {u}")
        check(g2 in cg.inner.nbr[g1], f"cross edge missing for host ({u},{v})")


def check_spars_tree(s):
    """Base-graph/forest invariants across materialized sparsification nodes.

    The tree is its own graph record, so the truth is read from it: an edge
    is present when the leaf of its path holds it in its ports, and a node
    is active when the root's `host_active` has it set.  Activity lives only
    at the root, so every node below it must hold every host of its spans
    as present.  Every node's gadget must pass `check_gadget_graph`, and
    every base edge must be held at its leaf.  In bipartiteness mode the
    cover tree must pass the same checks and hold exactly the lift of the
    graph: its root's active nodes and its edges against the lift of the
    host's."""
    root = s.root().conn.host_active  # the root's hosts are (range(n),)
    check(s.active is root, "the tree's activity record is not the root's")
    for node in s.nodes.values():
        conn = node.conn
        spanned = {v for r in conn.hosts for v in r}
        check(
            node.key == s.root_key or all(conn.host_active),
            f"a host of {node.key} is not present",
        )
        check_gadget_graph(conn)
        edges = sorted(node.edges())
        cap = 4 * len(spanned)
        check(len(edges) <= cap, f"base graph of {node.key} exceeds {cap} edges")
        for (x, y) in edges:
            check(x in spanned and y in spanned, "edge outside node span")
            check(s.has_edge(x, y), f"stale base edge {(x, y)} at {node.key}")
        if node.key[0] < s.levels:
            union = set()
            for ck in s.child_keys(node.key):
                child = s.nodes.get(ck)
                if child is not None:
                    union |= child.forest_edges()
            check(
                union == set(edges),
                f"base graph of {node.key} != union of child forests",
            )
        check(node.forest_edges() <= set(edges), "forest edge outside base graph")
    # observation: a forest edge at a node is a forest edge all the way down
    for node in s.nodes.values():
        for (x, y) in node.forest_edges():
            for ck in s.child_keys(node.key):
                child = s.nodes.get(ck)
                if child is not None and (x, y) in child.conn.ports:
                    check(
                        (x, y) in child.forest_edges(),
                        f"edge {(x, y)} tree at {node.key} but not at {ck}",
                    )
    if s.bip is not None:
        cover = s.bip.cover
        check_spars_tree(cover)
        nodes = {w for v in range(s.n) if root[v] for w in (2 * v, 2 * v + 1)}
        cover_root = cover.root().conn.host_active
        check(
            {w for w in range(cover.n) if cover_root[w]} == nodes,
            "cover nodes are not the host's lift",
        )
        # u < v, so both lifted pairs are already (low, high)
        edges = {
            e for (u, v) in s.edges()
            for e in ((2 * u, 2 * v + 1), (2 * u + 1, 2 * v))
        }
        check(set(cover.edges()) == edges, "cover edges are not the host's lift")

"""Brute-force reference graph queries and structural checkers.

Everything here recomputes from scratch; nothing is incremental.  The dynamic
structures are tested against these oracles after every operation at small
scale, so the code favours being obviously right over being fast.
"""

from __future__ import annotations

from collections import Counter, deque

from . import aggtree
from .chunks import Chunk
from .eulerforest import locate, resting_chunks


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


def bf_component_sets(g: SimpleGraph):
    """The node set of each component of g, by BFS."""
    seen = set()
    for s in g.adj:
        if s in seen:
            continue
        component = {s}
        queue = deque([s])
        while queue:
            for y in g.adj[queue.popleft()]:
                if y not in component:
                    component.add(y)
                    queue.append(y)
        seen |= component
        yield component


def bf_components(g: SimpleGraph) -> int:
    return sum(1 for _ in bf_component_sets(g))


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
    tree and position, every vertex's counts and the leaf limit that keeps
    count fields from overflowing included; raises CheckFailure."""
    root = tree.root
    leaves = tree.leaves
    if root is None:
        check(leaves == [], "empty tree with leaves")
        return
    check(len(leaves) < aggtree.MAX_LEAVES, f"count fields can overflow: {len(leaves)} leaves")
    # in-order leaf collection plus shape constraints; each vertex's parent
    # is recorded on the way down
    collected = []
    parent = {}
    stack = [(root, root.height)]
    while stack:
        v, h = stack.pop()
        check(v.height == h, f"height field {v.height} != structural {h}")
        if v.height == 0:
            check(v.children is None, "leaf with children")
            check(v.counts == aggtree.counts_of(v.bits), "leaf counts disagree with its bits")
            collected.append(v)
            continue
        deg = len(v.children)
        if v is root:
            check(deg >= min(2, len(leaves)), f"root degree {deg}")
        else:
            check(2 <= deg, f"inner degree {deg} < 2")
        check(deg <= 6, f"inner degree {deg} > 6")
        total = 0
        for c in v.children:
            total += c.counts
            check(c.height == v.height - 1, "child height mismatch")
        check(total == v.counts, "inner counts != sum of children's counts")
        check(v.fst is v.children[0].fst, "fst pointer stale")
        check(v.lst is v.children[-1].lst, "lst pointer stale")
        for c in reversed(v.children):
            parent[id(c)] = v
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
            v = parent[id(v)]
            check(leaf.ancestors[h] is v, f"ancestor pointer at height {h} stale")


def _log2ceil(x):
    return (x - 1).bit_length()


def check_chunk_store(store):
    """Link symmetry, free columns, every array's tree and live leaves only.
    The links are walked bit by bit: every set bit of a live chunk's row
    must name a live chunk holding the mirror bit, so an asymmetric pair
    shows on the side that holds its bit and a stale column on the chunk
    that kept it."""
    slots = store.slots
    for c in slots.values():
        bits = c.bits
        while bits:
            low = bits & -bits
            bits ^= low
            s = low.bit_length() - 1
            d = slots.get(s)
            check(d is not None, f"stale link bit to free slot {s}")
            check(d.bits >> c.slot & 1, f"links not symmetric between slots {c.slot} and {s}")
    for array in store.arrays():
        check_agg_tree(array)
        for c in array.leaves:
            check(slots.get(c.slot) is c, f"array leaf {c} is not a live chunk")


def euler_tours(forest):
    """The stored tours of an Euler forest, found from its occurrence
    pointers: {container: edge list}, where a small tour is its own
    container and a chunked tour is its chunk array."""
    tours = {}
    for container, _ in forest.edge_occ.values():
        tour = container.array if isinstance(container, Chunk) else container
        check(tour is not None, "occurrence in a chunk outside any array")
        if tour not in tours:
            chunks = tour.leaves if isinstance(tour, aggtree.AggTree) else [tour]
            tours[tour] = [e for c in chunks for e in c.edges]
    return tours


def check_euler_forest(forest):
    """Tour validity, occurrence pointers (resolved through `locate`, so a
    chunk's base counts), counters, degree bound, chunk sizing, the
    non-tree record and link ground truth.  Tours are found from the
    occurrence pointers, and the master array must hold exactly the
    chunked ones.  The non-tree record must be `nbr` minus the tree edges,
    in `nbr` order, with no entry for a node without a non-tree edge; the
    link vectors are checked from `nbr` and `edge_occ`, not from it.  At
    most `resting_chunks` chunks may be live, and a chunked tour must hold more
    than K edges, which lets a link skip the sum of its chunked tours."""
    occ = forest.edge_occ
    for e, pointer in occ.items():
        container, off = locate(pointer)
        check(
            0 <= off < len(container.edges) and container.edges[off] == e,
            f"occurrence pointer stale for {e}",
        )
    tours = euler_tours(forest)
    reached = {id(t) for t in tours if isinstance(t, aggtree.AggTree)}
    store = forest.master
    check(store is not None or not reached, "a chunked tour without a master array")
    arrays = store.arrays() if store is not None else []
    check(
        {id(a) for a in arrays} == reached,
        "the master array holds a chunk array that no occurrence reaches",
    )
    live = len(store.slots) if store is not None else 0
    rest = resting_chunks(forest.capacity, forest.K)
    check(live <= rest, f"{live} live chunks above the at-rest bound {rest}")
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
        chunks = tour.leaves if isinstance(tour, aggtree.AggTree) else []
        check(not chunks or len(edges) > forest.K, "a chunked tour fits one chunk")
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
    the slots of the chunks holding a non-tree neighbour of its nodes; a
    forest without a master array has none."""
    store = forest.master
    chunks = list(store.slots.values()) if store is not None else []
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
    """Connectivity-gadget invariants: chain shape and the tree edges of
    every chain.  A chain of d nodes holds its d - 1 path edges, each
    joining consecutive nodes and each a tree edge, and no other gadget
    edge joins two nodes of one host, so every replacement is a cross
    edge between two hosts.  Host degrees are counted from the cross
    edges, and only active hosts with an edge hold a chain.  Every active
    host without a chain is one isolated component."""
    degree = Counter(u for (u, v) in cg.ports)
    check(
        cg.isolated == sum(cg.host_active) - len(cg.chain),
        f"isolated count {cg.isolated} is not the active hosts without edges",
    )
    check(set(cg.chain) == set(degree), "chain entries are not the hosts with edges")
    nbr, edge_occ, owner = cg.inner.nbr, cg.inner.edge_occ, cg.owner
    check(
        len(owner) == sum(map(len, cg.chain.values())),
        "owned gadget nodes are not the chain nodes",
    )
    for u, chain in cg.chain.items():
        d = degree[u]
        check(cg.host_active[cg._position(u)], f"inactive host {u} holds a chain")
        check(len(chain) == d, f"chain of {u} has {len(chain)} nodes for degree {d}")
        for a, b in zip(chain, chain[1:]):
            check(b in nbr[a], f"chain of {u} is broken at ({a},{b})")
            check((a, b) in edge_occ, f"chain of {u}: ({a},{b}) is not a tree edge")
        for i, g in enumerate(chain):
            check(owner.get(g) == u, f"gadget node {g} on the chain of {u} is not {u}'s")
            same = sum(owner.get(h) == u for h in nbr[g])
            check(
                same == (i > 0) + (i < d - 1),
                f"chain of {u}: node {g} has an edge to {u}'s gadget off the path",
            )
    for (u, v), g1 in cg.ports.items():
        g2 = cg.ports[(v, u)]
        check(g1 in cg.chain[u], f"port of ({u},{v}) is not on the chain of {u}")
        check(g2 in nbr[g1], f"cross edge missing for host ({u},{v})")


def check_spars_tree(s):
    """Base-graph/forest invariants across materialized sparsification nodes.

    The tree is its own graph record, so the truth is read from it: an edge
    is present when the bottom node of its path holds it in its ports, and
    a node is active when the root's `host_active` has it set.  Activity
    lives only at the root, so every node below it must hold every host of
    its spans as present.  Every node's gadget must pass
    `check_gadget_graph`, its base graph must hold at most 2*span - 3 edges
    (see `SparsNode`), and every base edge must be held at its bottom node.
    A bipartiteness core (one with a `cover`) is checked through
    `check_cover_lift`."""
    if hasattr(s, "cover"):
        return check_cover_lift(s)
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
        # a union of child forests whose spans add up to at most 2 * span
        cap = max(0, 2 * len(spanned) - 3)
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


def check_cover_lift(core):
    """A bipartiteness core over n nodes: its cover must pass
    `check_spars_tree` and be a lift.  Its active nodes come in pairs
    2v, 2v+1, its edges in mirror pairs (2u, 2v+1), (2u+1, 2v) with u != v,
    and `nb` must be the number of its components that hold both copies of
    some node, counted by search."""
    cover = core.cover
    check(cover.n == 2 * core.n, f"cover of {cover.n} nodes for {core.n}")
    check_spars_tree(cover)
    active = cover.active
    check(active[0::2] == active[1::2], "cover nodes are not in mirror pairs")
    g = SimpleGraph()
    for w in range(cover.n):
        if active[w]:
            g.activate(w)
    edges = set(cover.edges())
    for x, y in edges:
        check(
            (x ^ y) & 1 and x >> 1 != y >> 1 and (x ^ 1, y ^ 1) in edges,
            f"cover edges are not in mirror pairs at {(x, y)}",
        )
        g.add_edge(x, y)
    closed = sum(
        any(w ^ 1 in component for w in component) for component in bf_component_sets(g)
    )
    check(core.nb == closed, f"nb {core.nb} != {closed} mirror-closed cover components")

"""Brute-force reference graph queries and structural checkers.

Everything here recomputes from scratch; nothing is incremental.  The dynamic
structures are tested against these oracles after every operation at small
scale, so the code favours being obviously right over being fast.
"""

from __future__ import annotations

from collections import Counter, deque


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
    """Full invariant sweep of one aggregate tree; raises CheckFailure."""
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
    for leaf in leaves:
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
    """Link symmetry, free columns, back pointers and every array's tree."""
    active = [c for c in store.slots if c is not None]
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
        for pos, c in enumerate(array.order):
            check(c.array is array and c.pos == pos, f"back pointer stale at {pos}")
        check_agg_tree(array.tree)


def check_euler_forest(forest):
    """Tour validity, counters, degree bound, chunk sizing and link ground truth."""
    n_tree_edges = 0
    seen_nodes = set()
    for tour in forest.all_tours():
        edges = tour.edge_list()
        check(len(edges) % 2 == 0, "odd tour length")
        check(len(edges) > 0, "empty tour stored")
        m = len(edges) // 2
        n_tree_edges += m
        occs = {}
        for i, (a, b) in enumerate(edges):
            check(a != b, "self-loop in tour")
            nxt = edges[(i + 1) % len(edges)]
            check(nxt[0] == b, f"tour not contiguous at {i}")
            check((a, b) not in occs, f"duplicate directed edge {(a, b)}")
            occs[(a, b)] = i
            seen_nodes.add(a)
        for (a, b) in occs:
            check((b, a) in occs, f"missing reverse of {(a, b)}")
        check(len(occs) == 2 * m, "tour edge count")
        nodes = {a for (a, b) in occs}
        check(len(nodes) == m + 1, "tour does not span a tree")
        if tour.chunked():
            chunks = tour.array.order
            small = [c for c in chunks if len(c.edges) * 2 < forest.K]
            if len(chunks) > 1:
                check(not small, "undersized chunk in multi-chunk array")
            for c in chunks:
                check(1 <= len(c.edges) <= forest.K, "chunk size out of range")
    for v in range(forest.capacity):
        if not forest.is_active(v):
            check(forest.nbr[v] is None, f"inactive node {v} holds an adjacency list")
            continue
        deg = forest.degree(v)
        check(deg <= 3, f"degree {deg} > 3 at node {v}")
        if forest.tree_degree(v) == 0:
            check(v not in seen_nodes, "tour occurrence for tree-isolated node")
    check(
        forest.n_components() == forest.active_count() - n_tree_edges,
        "component counter out of sync",
    )
    # occurrence pointers and link vectors against ground truth
    for (a, b), (container, off) in forest.edge_occurrences():
        check(container.edges[off] == (a, b), f"occurrence pointer stale for {(a, b)}")
    forest.check_links_ground_truth()


def check_gadget_graph(cg):
    """Connectivity-gadget invariants: cycle shape, internal
    tree-connectedness and the tracked chord of every cycle.  Host degrees
    are counted from the cross edges, and only hosts with an edge hold a
    cycle."""
    degree = Counter(u for (u, v) in cg.ports)
    check(set(cg.cycle) == set(degree), "cycle entries are not the hosts with edges")
    for u in cg.host_nodes():
        cyc = cg.cycle_nodes(u)
        d = degree[u]
        check(cg.host_degree(u) == d, f"host_degree of {u} is not its {d} edges")
        check(len(cyc) == (d if d >= 2 else min(d, 1)), f"cycle size for degree {d}")
        if d >= 2:
            edges = cg.cycle_edges(u)
            expect = 1 if d == 2 else d
            check(len(edges) == expect, f"cycle edge count {len(edges)} for degree {d}")
            n_tree = sum(1 for e in edges if cg.inner.tree_edge(*e))
            check(n_tree == d - 1, f"cycle of {u}: {n_tree} tree edges, want {d - 1}")
        chord = cg.chord.get(u)
        if d >= 3:
            check(
                chord is not None
                and set(chord) in [set(e) for e in edges]
                and not cg.inner.tree_edge(*chord),
                f"cycle of {u}: chord {chord} is not its non-tree edge",
            )
        else:
            check(chord is None, f"cycle of {u} with {d} nodes has chord {chord}")
    for (u, v), (g1, g2) in cg.cross_edges():
        check(cg.inner.has_edge(g1, g2), f"cross edge missing for host ({u},{v})")


def check_spars_tree(s):
    """Base-graph/forest invariants across materialized sparsification nodes."""
    for node in s.nodes.values():
        edges = sorted(node.base_edges)
        cap = 4 * node.size
        check(len(edges) <= cap, f"base graph of {node.key} exceeds {cap} edges")
        for (x, y) in edges:
            check(node.covers(x) and node.covers(y), "edge outside node span")
            check(s.graph.has_edge(x, y), f"stale base edge {(x, y)} at {node.key}")
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
        for (x, y) in node.forest_edges():
            check((x, y) in node.base_edges, "forest edge outside base graph")
    # observation: a forest edge at a node is a forest edge all the way down
    for node in s.nodes.values():
        for (x, y) in node.forest_edges():
            for ck in s.child_keys(node.key):
                child = s.nodes.get(ck)
                if child is not None and child.covers(x) and child.covers(y) and \
                        (x, y) in child.base_edges:
                    check(
                        (x, y) in child.forest_edges(),
                        f"edge {(x, y)} tree at {node.key} but not at {ck}",
                    )
    if s.mode == "bipartiteness":
        for node in s.nodes.values():
            g = SimpleGraph()
            seen = set()
            for (x, y) in node.base_edges:
                for w in (x, y):
                    if w not in seen:
                        seen.add(w)
                        g.activate(w)
            for (x, y) in node.base_edges:
                g.add_edge(x, y)
            check(node.own_bit == bf_bipartite(g), f"own flag stale at {node.key}")
        for node in s.nodes.values():
            agg = node.own_bit
            stack = [node.key]
            first = True
            while stack:
                k = stack.pop()
                nd = s.nodes.get(k)
                if nd is None:
                    continue
                if not first:
                    agg = agg and nd.own_bit
                first = False
                stack.extend(s.child_keys(k))
            check(node.subtree_flag == agg, f"subtree flag stale at {node.key}")

"""Sparsification tree over an implicit balanced node partition, plus facades.

The node set [0, n) is split into a nested balanced partition in closed
form: part k of level l is the ids from floor(k*n / 2**l) up to, not
including, floor((k+1)*n / 2**l), so id x lies in part
floor(((x+1) * 2**l - 1) / n).  Parts 2k and 2k+1 of level l+1 are the
halves of part k, and the parts of one level differ in size by at most one.
The deepest level, `levels` = max(0, ceil(log2 n) - 1), has 2**levels
parts, fewer than n once n >= 2, so each holds 1 or 2 ids and none is
empty.  For every level and every unordered pair of same-level parts, a
sparsification node covers the edges between the two parts; an edge
therefore lives on exactly one root-to-bottom path of keys.  Each
materialized node keeps a base graph: above the deepest level, the union of
its children's spanning forests (at most 4 per node); at the deepest level,
every edge it covers.  Either way the base graph has the same components as
the full covered subgraph in at most 2*span - 3 edges (see SparsNode).  All
per-node structure work runs through the unbounded-degree connectivity layer
sized by the node's own span, which is what turns per-operation cost into a
geometric sum over levels.  That gadget's hosts are the node's one or two
spans, as ranges of global node ids, so the tree passes ids to every level
unchanged.

Bipartiteness comes from the same construction, after Eppstein et al.
(1997): sparsification keeps the component count of any graph, so one
connectivity tree over the bipartite double cover (2n nodes) answers every
bipartiteness query in the graph's ids, with the count of mirror-closed
cover components beside it (see BipartiteGeneral and BipartiteTree).  No
tree over the graph itself is kept, and no node keeps a bipartiteness flag.

Nodes materialize lazily on first edge arrival; construction, which
activates every host of the node's spans, is charged to the meter's
initialization account, matching the convention that building a structure
is not part of any per-operation bound.

Every facade operation runs under a depth budget (see depth_budgets) that is
checked on every call rather than trusted: a call deeper than its budget
raises MeterError.  Calls are not padded to their budgets, so the meter
reports the depth each call spent, with one exception: under the common
policy `CostMeter.reduce_extremum` pads every extremum to its round budget,
which depends on epsilon only.  That padding stays because it cannot hide
depth that grows with n: the budget is a constant, and a reduction that
needs more rounds still raises MeterError.  A budget is a constant of the
operation, the mode, the write policy and epsilon, never of n: it is
composed from the lower layers' bounds, which are counted from their code
(AggTree phases, MasterArray and EulerForest sums over sequential calls,
gadget call ceilings), plus the sequential phases of the update itself.

The tree is its own graph record, and every fact of the graph is stored
once: an edge is present when the bottom node of its path holds it in its
ports, a node is active when the root's `host_active` has it set (the
root's hosts are `(range(n),)`, so a node's position there is its id), and
a node has an edge when the root's `chain` holds it, because the root's
base graph has the graph's components.  Activity lives only at the root: a
node below it holds every host of its spans as present from the moment it
is built, since an edge reaches it only after the root's checks passed, so
a node change writes the root alone.
"""

from __future__ import annotations

import operator

from .costmodel import ArbitraryPolicy, CostMeter, segment_end_depth
from .eulerforest import ReplacementReport
from .reductions import BipartiteGeneral, ConnGeneral


class SparsError(ValueError):
    pass


class SparsNode:
    """One sparsification-tree node: a base graph plus its query structures.
    The base graph is the gadget's host graph, `conn.ports`, over global
    ids; the gadget's hosts are the node's one or two spans.

    The gadget is sized by the edges the base graph can hold, 2*span - 2
    for a node spanning `span` hosts.  The bound is the sparsification
    certificate of Eppstein et al. (1997): a base graph is the union of its
    children's spanning forests.  A pair node over parts a and b (halves
    a', a'' and b', b'') has the children a'b', a'b'', a''b' and a''b'', of
    spans |a'|+|b'| ... |a''|+|b''|; a diagonal node over part a has a'a',
    a'a'' and a''a'', of spans |a'|, |a'|+|a''| and |a''|.  Either way the
    child spans add up to at most 2*span, and a child's forest holds at
    most its span less one edge, so a base graph at rest holds at most
    2*span - 3 edges (`oracle.check_spars_tree` asserts it).  A deletion
    can add one edge while it runs: a node inserts the replacement its child
    on the edge's path promotes, the edge it adopts when it has none of its
    own, before it deletes the old edge.  Only that child changes, so the
    extra edge does not compound.  A node of the deepest level has no
    children: its base graph is every edge it covers.  Its parts hold 1 or
    2 ids, so a pair node there over parts a and b holds at most
    |a|*|b| <= 2*span - 3 edges, and a diagonal node at most 1, the edge
    inside a part of 2 ids, again 2*span - 3.  A gadget asked for an edge
    beyond its pool raises GadgetError, so the bound stays falsifiable."""

    __slots__ = ("key", "conn")

    # bench/run.py _slot_occupancy is the only reader of this attribute
    bip = None

    def __init__(self, meter, key, spans):
        self.key = key
        self.conn = ConnGeneral(meter, spans, max(0, 2 * sum(map(len, spans)) - 2))

    def edges(self):
        """The base graph's edges as (low, high) pairs."""
        return {e for e in self.conn.ports if e[0] < e[1]}

    def forest_edges(self):
        """The base graph's tree edges, read off the tours; charges nothing."""
        ports, occ = self.conn.ports, self.conn.inner.edge_occ
        return {
            (a, b) for (a, b), g in ports.items()
            if a < b and (g, ports[(b, a)]) in occ
        }


class SparsTree:
    """The connectivity tree: the core of DynamicConnectivity, and the
    double cover over 2n nodes inside DynamicBipartiteness's core (see
    BipartiteTree).  `n` is a positive int, which the facade checks.  Node
    ids are 0-based; precondition messages name them 1-based, as the
    facade's caller passed them.

    No graph is kept beside the nodes: edges live in the bottom nodes' ports
    (`has_edge`, `edges`), activity in the root's `host_active` (`active`
    is that bytearray) and the nodes with an edge in the root's `chain`.
    Activity lives only at the root; the nodes below it hold every host of
    their spans.
    """

    def __init__(self, n, meter: CostMeter):
        self.n = n
        self.meter = meter
        # the deepest level, whose parts hold 1 or 2 ids each
        self.levels = max(0, (n - 1).bit_length() - 1)
        self.nodes = {}
        self.root_key = (0, 0, 0)
        # the root's activity record is the tree's; the root's hosts are
        # (range(n),), so a node's position in it is its id
        self.active = self._materialize(self.root_key).conn.host_active

    # -- partition geometry ------------------------------------------------------

    def interval(self, level, k):
        """Part k of `level`: the ids x with part(level, x) == k."""
        n = self.n
        return range(k * n >> level, (k + 1) * n >> level)

    def part(self, level, x):
        """The index of the part of `level` that holds x."""
        return (((x + 1) << level) - 1) // self.n

    def key_path(self, x, y):
        """Keys from bottom to root of the unique path holding edge (x, y)."""
        out = []
        for level in range(self.levels, -1, -1):
            a, b = self.part(level, x), self.part(level, y)
            out.append((level, a, b) if a <= b else (level, b, a))
        return out

    def child_keys(self, key):
        level, k1, k2 = key
        if level >= self.levels:
            return []
        out = []
        for a in (2 * k1, 2 * k1 + 1):
            for b in (2 * k2, 2 * k2 + 1):
                ck = (level + 1, a, b) if a <= b else (level + 1, b, a)
                if ck not in out:
                    out.append(ck)
        return out

    def _materialize(self, key):
        node = self.nodes.get(key)
        if node is not None:
            return node
        level, k1, k2 = key
        spans = (self.interval(level, k1),)
        if k2 != k1:
            spans += (self.interval(level, k2),)
        with self.meter.initialization():
            node = SparsNode(self.meter, key, spans)
            # the root, built before any node is active, is the only
            # activity record; a node below it holds every host of its spans
            if key != self.root_key:
                node.conn.activate_all()
        self.nodes[key] = node
        return node

    # -- node lifecycle -----------------------------------------------------------

    def activate_node(self, v):
        self._check_id(v)
        if self.active[v]:
            raise SparsError(f"node {v + 1} already active")
        self.root().conn.activate_node(v)

    def deactivate_node(self, v):
        self._require_active(v)
        if v in self.root().conn.chain:
            raise SparsError(f"node {v + 1} not isolated")
        self.root().conn.deactivate_node(v)

    # -- edge changes ---------------------------------------------------------------

    def insert_edge(self, x, y):
        self._require_active(x)
        self._require_active(y)
        if x == y:
            raise SparsError("self-loop")
        keys = self.key_path(x, y)
        if self._holds(keys[0], x, y):
            raise SparsError(f"edge ({x + 1},{y + 1}) already present")
        path = [self._materialize(key).conn for key in keys]
        meter = self.meter
        probe = [0] * len(path)

        def probe_body(i):
            probe[i] = 0 if path[i].connected(x, y) else 1

        meter.parallel_for(len(path), probe_body)
        end = meter.initial_segment_end(probe)

        def insert_body(i):
            path[i].insert_edge(x, y)

        # the edge joins the forests of levels 0..end and the base graph of
        # the first connected level above them, all in one phase; when the
        # bottom level is connected already (end is None), its base graph,
        # which holds every edge it covers, takes the edge as non-tree alone
        reach = 1 if end is None else min(end + 2, len(path))
        meter.parallel_for(reach, insert_body)

    def delete_edge(self, x, y):
        """Delete (x, y), restructuring every level that holds it, in three
        phases: one probe, the anchor prefix, one commit.

        The probe asks every level that holds (x, y) for its replacement; a
        level whose report is not NON_TREE is a tree level.  Tree levels each
        need a replacement.  A level whose own base graph offers one uses
        it; a level without one adopts the edge promoted by the nearest such
        level below, which provably crosses its cut too (the adopted edge's
        endpoints reach x and y through the lower level's old forest paths,
        and those paths are part of this level's base graph).  Which edge
        each level uses is therefore a nearest-anchor-below prefix
        computation.  Then all levels commit independently.  The parent of a
        tree level holds (x, y), since a base graph is the union of its
        children's forests, so it commits too: it first inserts the edge its
        child promotes, which crosses its cut and so goes in as a non-tree
        edge, then deletes (x, y).  An adopted edge is that promoted edge,
        so base graphs stay equal to the union of their children's forests.
        """
        self._require_active(x)
        self._require_active(y)
        keys = self.key_path(x, y)
        if not self._holds(keys[0], x, y):
            raise SparsError(f"edge ({x + 1},{y + 1}) absent")
        path = [self.nodes[key].conn for key in keys]
        meter = self.meter
        holds = [(x, y) in conn.ports for conn in path]
        reps = [None] * len(path)

        def probe_body(i):
            if holds[i]:
                reps[i] = path[i].find_replacement(x, y)

        meter.parallel_for(len(path), probe_body)
        tree = [
            rep is not None and rep.kind != ReplacementReport.NON_TREE for rep in reps
        ]
        self._check_footprint(holds, tree)
        # nearest anchor at or below each level, as a prefix computation
        use = [None] * len(path)
        current = None
        for i in range(len(path)):
            if not tree[i]:
                continue
            if reps[i].kind == ReplacementReport.REPLACED:
                current = reps[i].edge
            use[i] = current
        meter.parallel_charge(len(path) ** 2)

        def commit_body(i):
            conn = path[i]
            if not holds[i]:
                return
            promoted = use[i - 1] if i else None
            if promoted is not None and promoted not in conn.ports:
                conn.insert_edge(*promoted)
            if tree[i] and use[i] is not None:
                got = conn.delete_edge_with_hint(x, y, use[i])
                if got.kind != ReplacementReport.REPLACED or got.edge != use[i]:
                    raise AssertionError("level rejected its replacement edge")
            else:
                conn.delete_edge(x, y)

        meter.parallel_for(len(path), commit_body)

    def _check_footprint(self, holds, tree):
        """An edge occupies one contiguous path segment from its bottom node
        and is a tree edge everywhere on it except possibly the topmost
        level; a segment whose top is a tree level ends at the root, so
        every tree level's parent commits with it."""
        hi = len(holds) - 1 - holds[::-1].index(True)
        if not all(holds[: hi + 1]):
            raise AssertionError("edge footprint is not contiguous")
        if not all(tree[:hi]):
            raise AssertionError("edge is non-tree below the top of its footprint")
        if tree[hi] and hi + 1 < len(holds):
            raise AssertionError("a tree level's parent does not hold the edge")

    # -- queries -------------------------------------------------------------------

    def root(self):
        return self.nodes[self.root_key]

    def connected(self, x, y):
        self._require_active(x)
        self._require_active(y)
        return self.root().conn.connected(x, y)

    def n_components(self):
        return self.root().conn.n_components()

    def tree_edge(self, x, y):
        self._require_active(x)
        self._require_active(y)
        return self.root().conn.tree_edge(x, y)

    # bench/tracer.py is the only reader of this name; BipartiteTree
    # answers bipartiteness
    def is_bipartite(self):
        raise SparsError("a connectivity tree has no bipartiteness query")

    def has_edge(self, x, y):
        """Whether (x, y) is an edge: the bottom node of its path holds it."""
        return self._holds(self.key_path(x, y)[0], x, y)

    def edges(self):
        """The graph's edges as (low, high) pairs, read off the bottom nodes."""
        return [
            e for key, node in self.nodes.items() if key[0] == self.levels
            for e in node.conn.ports if e[0] < e[1]
        ]

    # bench/run.py (setup, drive and check_answers) is the only reader of
    # this name; the tree answers `has_edge` and `edges` itself
    @property
    def graph(self):
        return self

    def _holds(self, bottom_key, x, y):
        # a lookup, so a rejected call materializes no node
        bottom = self.nodes.get(bottom_key)
        return bottom is not None and (x, y) in bottom.conn.ports

    def _check_id(self, v):
        if not 0 <= v < self.n:
            raise SparsError(f"node id {v + 1} out of range 1..{self.n}")

    def _require_active(self, v):
        self._check_id(v)
        if not self.active[v]:
            raise SparsError(f"node {v + 1} not active")


class BipartiteTree(BipartiteGeneral):
    """The core of DynamicBipartiteness: one connectivity SparsTree over the
    double cover's 2n nodes, `cover`, and the count `nb` of its
    mirror-closed components (see BipartiteGeneral).  Ids are the graph's,
    0-based.  Every precondition is checked in those ids, with the messages
    a SparsTree gives, against the cover before any change: node v is
    active when cover node 2v is, has an edge when 2v is in the cover
    root's `chain`, and edge (x, y) is present when the cover holds
    (2x, 2y+1).
    """

    def __init__(self, n, meter: CostMeter):
        super().__init__(SparsTree(2 * n, meter))
        self.n = n

    # bench/run.py reads the graph (`has_edge`, `edges`) and the tree's
    # nodes through these names
    @property
    def graph(self):
        return self

    @property
    def nodes(self):
        return self.cover.nodes

    def activate_node(self, v):
        self._check_id(v)
        if self.cover.active[2 * v]:
            raise SparsError(f"node {v + 1} already active")
        super().activate_node(v)

    def deactivate_node(self, v):
        self._require_active(v)
        if 2 * v in self.cover.root().conn.chain:
            raise SparsError(f"node {v + 1} not isolated")
        super().deactivate_node(v)

    def insert_edge(self, x, y):
        self._require_active(x)
        self._require_active(y)
        if x == y:
            raise SparsError("self-loop")
        if self.has_edge(x, y):
            raise SparsError(f"edge ({x + 1},{y + 1}) already present")
        self.apply_edge(x, y, True)

    def delete_edge(self, x, y):
        self._require_active(x)
        self._require_active(y)
        if not self.has_edge(x, y):
            raise SparsError(f"edge ({x + 1},{y + 1}) absent")
        self.apply_edge(x, y, False)

    def connected(self, x, y):
        self._require_active(x)
        self._require_active(y)
        return super().connected(x, y)

    def has_edge(self, x, y):
        return self.cover.has_edge(2 * x, 2 * y + 1)

    def edges(self):
        """The graph's edges as (low, high) pairs: edge (x, y), x < y, is
        the cover's (2x, 2y+1) and (2x+1, 2y), and only the first has an
        even low end."""
        return [(a >> 1, b >> 1) for a, b in self.cover.edges() if not a & 1]

    def _check_id(self, v):
        if not 0 <= v < self.n:
            raise SparsError(f"node id {v + 1} out of range 1..{self.n}")

    def _require_active(self, v):
        self._check_id(v)
        if not self.cover.active[2 * v]:
            raise SparsError(f"node {v + 1} not active")


def depth_budgets(mode, policy) -> dict:
    """Depth budget of every public operation, checked on every call.

    Each budget is an upper bound on the operation's metered depth, composed
    bottom-up from the layers' own bounds: the aggregate tree's phase counts,
    the master array's and the Euler forest's sums over their sequential
    calls, and the connectivity gadget's call ceilings times the Euler
    forest's bounds.  In bipartiteness mode an update is the double cover's
    two connectivity updates of the same kind, one after the other, so its
    budget is twice the connectivity budget; the mirror reads around them
    are queries, which charge work only.  A budget depends on the mode, and
    on the policy and its epsilon through the forest's picks, but never
    on n, and assumes the policy's writes plus `costmodel`'s combining adds
    to count cells.  Epsilon only sets the round count of the common-policy
    extremum; the update work is sqrt(n) * polylog(n) for every epsilon
    (see `costmodel`).  Calls are not padded to their
    budgets: the meter keeps the depth the call spent, and a call that goes
    over its budget raises MeterError.  Only a common-policy extremum is
    padded, by `CostMeter.reduce_extremum`, to its round budget; that budget
    does not depend on n, and a reduction that needs more rounds raises
    MeterError, so the padding hides no depth that grows with n.

    Updates follow the sequential phases of SparsTree.insert_edge (the
    probe, the segment end, one commit) and delete_edge (the replacement
    probe, the anchor prefix, one commit that inserts the promoted edge and
    then deletes).  Node changes write the root's activity record and
    queries read the root's counters, which charges work only.
    """
    conn = ConnGeneral.depth_bounds(policy)
    add, remove = conn["insert"], conn["delete"]
    budgets = {
        "activate": 0,
        "deactivate": 0,
        # probe, initial_segment_end, the commit phase
        "insert": 1 + segment_end_depth(policy) + (1 + add),
        # the replacement probe, the anchor prefix, the commit phase (the
        # promoted edge's add_edge, then remove_edge)
        "delete": (1 + conn["find_replacement"]) + 1 + (1 + add + remove),
        "connected": 0,
        "ncomponents": 0,
        "treeedge": 0,
        "bipartite": 0,
    }
    if mode == "bipartiteness":
        # the cover is a connectivity tree under the same policy
        budgets.update(BipartiteGeneral.depth_bounds(budgets))
    return budgets


class _Facade:
    """Shared 1-based public surface over a SparsTree.

    A call whose precondition fails (an id that is not an integer, out of
    range, inactive or already active, an absent or duplicate edge, a node
    that is not isolated) raises SparsError, naming the ids as passed, from
    checks that run before it changes anything.  A call that runs deeper
    than its budget raises MeterError after it has committed: the update
    stands, the structure stays consistent and the meter keeps what the call
    charged, so the error reports a broken depth contract, not a rejected
    call.
    """

    mode = "connectivity"
    Core = SparsTree

    def __init__(self, n, policy=None, meter=None):
        if policy is not None and meter is not None:
            raise SparsError("pass a policy or a meter, not both")
        try:
            n = operator.index(n)
        except TypeError:
            raise SparsError(f"node count {n!r} is not an integer") from None
        if n < 1:
            raise SparsError("need at least one node")
        self.meter = meter or CostMeter(policy or ArbitraryPolicy(0))
        self.core = self.Core(n, self.meter)
        self.budgets = depth_budgets(self.mode, self.meter.policy)
        self._labels = {
            op: f"{self.mode} {op} under {self.meter.policy!r}" for op in self.budgets
        }

    def _bounded(self, op):
        return self.meter.bounded(self.budgets[op], self._labels[op])

    @property
    def n(self):
        return self.core.n

    def _i(self, v):
        try:
            i = operator.index(v)
        except TypeError:
            raise SparsError(f"node id {v!r} is not an integer") from None
        if not 1 <= i <= self.core.n:
            raise SparsError(f"node id {v} out of range 1..{self.core.n}")
        return i - 1

    def activate_node(self, v):
        with self._bounded("activate"):
            self.core.activate_node(self._i(v))

    def deactivate_node(self, v):
        with self._bounded("deactivate"):
            self.core.deactivate_node(self._i(v))

    def insert_edge(self, u, v):
        with self._bounded("insert"):
            self.core.insert_edge(self._i(u), self._i(v))

    def delete_edge(self, u, v):
        with self._bounded("delete"):
            self.core.delete_edge(self._i(u), self._i(v))

    def connected(self, u, v):
        with self._bounded("connected"):
            return self.core.connected(self._i(u), self._i(v))

    def n_components(self):
        with self._bounded("ncomponents"):
            return self.core.n_components()


class DynamicConnectivity(_Facade):
    """Connectivity / spanning-forest queries under edge and node updates."""

    mode = "connectivity"

    def tree_edge(self, u, v):
        with self._bounded("treeedge"):
            return self.core.tree_edge(self._i(u), self._i(v))


class DynamicBipartiteness(_Facade):
    """Bipartiteness queries under edge and node updates."""

    mode = "bipartiteness"
    Core = BipartiteTree

    def is_bipartite(self):
        with self._bounded("bipartite"):
            return self.core.is_bipartite()

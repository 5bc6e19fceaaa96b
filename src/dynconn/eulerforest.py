"""Spanning forests of degree-at-most-3 graphs via chunked Euler tours.

Every tree's Euler tour (each tree edge once per direction) is stored either
as a plain edge list, when the tour fits in one chunk's capacity K, or as a
chunk array: an aggregate tree whose leaves are the tour's chunks in the
master store, each chunk's leaf bits being its link vector.  Small tours
need no link bookkeeping: a replacement search inside them is a direct scan
of at most 3K edges, which is within the same work budget as one chunk
query.
Keeping them out of the master array is also what keeps the slot count at
O(sqrt(n)): a forest can contain far more tiny trees than slots.

Connectivity is answered in O(1) by comparing tour container identities,
reached from any incident tree edge's occurrence pointer: a small tour's
edge list object, or the aggregate tree of a chunked one, which keeps its
identity through every split and join of the tour.  The occurrence pointers
are the only index of the tours; the checkers find them from there.

`nbr` is the activity record: it maps each active node, and no other, to
its adjacency list.  With `edge_occ`, which holds both directions of every
tree edge, it gives the component count.  `nontree` maps each node with a
non-tree edge, and no other, to its non-tree neighbours in `nbr` order.  It
is written only where an edge's tree status changes: a non-tree insert, a
non-tree delete and the promotion of a replacement edge.  An edge becomes
non-tree only when it is inserted, so the order needs no upkeep.  Until its
first non-tree edge a forest shares one read-only empty record.  The link
vectors and the replacement searches read it; `oracle.check_euler_forest`
checks it against `nbr` and `edge_occ`.

Every chunk an update splits, merges, chunks or reindexes goes into one
record, `_touched`, made for that update.  The sizing repair of an array
works through the touched chunks of that array, and one flush at the end of
`insert_edge` or `_delete` recomputes the link vector of each touched chunk
that is still live, once, from the final tours, and drops the record.  A
chunk retired during the update is skipped: `_retire_chunk` clears its link
vector before the slot is freed.  The only link query of an update, the
replacement search, runs before its first mutation, so the vectors may lag
until the flush; they stay symmetric throughout, since every change to them
goes through the master array.
"""

from __future__ import annotations

import math
from itertools import chain
from types import MappingProxyType

from .chunks import MasterArray
from .costmodel import CostMeter, pick_depth

# a node of degree at most 3 has at most 3 tree edges, hence at most 6 tour
# occurrences and 6 containers
_OCCURRENCES = 6

# the non-tree record of every forest that has had no non-tree edge, which is
# most of them; read-only, so the first non-tree edge gets its own record
_NO_NONTREE = MappingProxyType({})


class ForestError(ValueError):
    pass


class ReplacementReport:
    """Outcome of a deletion (or a non-committing probe of one)."""

    NON_TREE = "non_tree_deleted"
    SPLIT = "split_no_replacement"
    REPLACED = "replaced_by"

    __slots__ = ("kind", "edge")

    def __init__(self, kind, edge=None):
        self.kind = kind
        self.edge = edge

    def __eq__(self, other):
        return (
            isinstance(other, ReplacementReport)
            and self.kind == other.kind
            and self.edge == other.edge
        )

    def __repr__(self):
        return f"ReplacementReport({self.kind}, {self.edge})"


class SmallTour:
    """A tour short enough to live outside the master array."""

    __slots__ = ("edges",)

    def __init__(self, edges):
        self.edges = edges


class EulerForest:
    def __init__(self, meter: CostMeter, capacity: int):
        self.meter = meter
        self.capacity = capacity
        self.K = max(2, math.isqrt(3 * capacity - 1) + 1)
        J = 4 * ((3 * capacity + self.K - 1) // self.K) + 8
        self.store = MasterArray(meter, J, self.K)
        self.nbr = {}
        self.edge_occ = {}
        # each node with a non-tree edge -> its non-tree neighbours, in nbr
        # order; written only where an edge's tree status changes
        self.nontree = _NO_NONTREE
        # chunks the current update touched, as an insertion-ordered set:
        # made when an update that can touch chunks starts, the worklist of
        # its sizing repairs and, once it ends, of the link flush, which
        # drops it; None at rest
        self._touched = None
        with meter.initialization():
            meter.charge(capacity)

    @staticmethod
    def depth_bounds(policy) -> dict:
        """Upper bounds on the metered depth of the edge operations, summed
        over the sequential calls each makes into the master array; node
        changes and queries charge no depth.

        Loop counts come from the degree bound and the repair invariant:
        every chunk of an array at rest holds at least K/2 edges, and an
        operation touches at most 6 live chunks of the array it repairs on
        insertion, 4 after cutting out a deleted edge and 10 once its
        replacement is spliced in.  A repair splits an oversized chunk or
        merges or rebalances an undersized one at most once per touched chunk
        and may add one chunk per touched chunk, and a tour short enough to
        demote then spans at most 2 chunks.  Small tours never exceed K
        edges, so they are chunked into one chunk.

        Link vectors are refreshed only by the flush that ends an update,
        once per touched chunk still live: at most the chunks its repairs
        end with, plus on a replacement the up to 2 x 6 chunks holding the
        promoted edge's endpoints.
        """
        store = MasterArray.depth_bounds(policy)
        select = pick_depth(policy)  # the replacement among the candidates
        insert_chunk = store["insert_chunk"]
        refresh = 2 + store["bulk_set_links"]  # _refresh_links
        retire = store["bulk_set_links"] + store["delete_chunk"]  # _retire_chunk
        as_array = 1 + (insert_chunk + 2)  # drop, one-chunk _chunkify
        cut = 2 + insert_chunk  # _cut_after_target, _cut_at_source
        # _cut_out: the right piece, then the left piece or the retirement
        cut_out = insert_chunk + 1 + max(1, retire)
        shrink = 1 + 2 * retire + 1  # _maybe_shrink

        def repair(touched):  # _repair
            return touched * max(2 + insert_chunk, 1 + retire) + shrink

        def flush(marked):  # _flush_links: the liveness filter, then refreshes
            return 1 + marked * refresh

        # _merge_tours: two tour lengths, then a small splice, a singleton
        # end or two cut arrays, then the repair and the flush
        merge = 2 + max(
            4,
            as_array + cut + insert_chunk + store["reorder"],
            2 * (as_array + cut) + store["concatenate"] + store["reorder"],
        ) + repair(6) + flush(2 * 6)
        mark_linked = 1 + _OCCURRENCES**2 * store["link"]
        unlink = _OCCURRENCES * (1 + _OCCURRENCES * store["unlink"]) + 1
        probe_small = 2 + select
        commit_small = 4
        # _probe_large: the two cut chunks' node lists and their scan, then per
        # near range a query, the node lists of the pair it returns and a scan
        probe_large = 3 + 2 * (store["query"] + 3) + select
        commit_split = store["reorder"] + store["split_array"] + 2 * repair(4)
        commit_replace = 2 * cut + store["reorder"] + 2 * insert_chunk + repair(10)
        # flushed: two split-off repairs of at most 4 touched, or one repair
        # of 10 touched plus the chunks of the promoted edge's endpoints
        commit_large = 2 * cut_out + max(commit_split, commit_replace) + flush(
            max(2 * 2 * 4, 2 * 10 + 2 * _OCCURRENCES)
        )
        return {
            "insert": max(mark_linked, merge),
            "delete": max(
                unlink, probe_small + commit_small, probe_large + commit_large
            ),
            "find_replacement": max(probe_small, probe_large),
        }

    # -- node lifecycle ----------------------------------------------------

    def activate_node(self, v):
        self._check_id(v)
        if v in self.nbr:
            raise ForestError(f"node {v} already active")
        self.nbr[v] = []
        self.meter.charge(1)

    def deactivate_node(self, v):
        self._require_active(v)
        if self.nbr[v]:
            raise ForestError(f"node {v} not isolated")
        del self.nbr[v]
        self.meter.charge(1)

    # -- queries -------------------------------------------------------------

    def connected(self, u, v):
        self._require_active(u)
        self._require_active(v)
        self.meter.charge(2)
        return u == v or self._tree_id(u) == self._tree_id(v)

    def n_components(self):
        self.meter.charge(1)
        return len(self.nbr) - len(self.edge_occ) // 2

    def tree_edge(self, u, v):
        self.meter.charge(1)
        return (u, v) in self.edge_occ

    def _tree_id(self, v):
        for w in self.nbr[v]:
            occ = self.edge_occ.get((v, w))
            if occ is not None:
                container = occ[0]
                return container.array if not isinstance(container, SmallTour) else container
        return ("singleton", v)

    # -- edge insertion ---------------------------------------------------------

    def insert_edge(self, u, v):
        self._require_active(u)
        self._require_active(v)
        if u == v:
            raise ForestError("self-loop")
        if v in self.nbr[u]:
            raise ForestError(f"edge ({u},{v}) already present")
        if len(self.nbr[u]) >= 3 or len(self.nbr[v]) >= 3:
            raise ForestError("degree bound 3 exceeded")
        same = self._tree_id(u) == self._tree_id(v)
        self.nbr[u].append(v)
        self.nbr[v].append(u)
        self.meter.charge(4)
        if same:
            if self.nontree is _NO_NONTREE:
                self.nontree = {}
            self.nontree.setdefault(u, []).append(v)
            self.nontree.setdefault(v, []).append(u)
            self._mark_linked(u, v)
        else:
            self._touched = {}
            self._merge_tours(u, v)
        self._flush_links()

    def _mark_linked(self, u, v):
        cu = self._chunks_of(u)
        if not cu:
            return  # small tour: links are found by scanning on demand
        cv = self._chunks_of(v)
        self.meter.parallel_charge(len(cu) * len(cv))
        for a in cu:
            for b in cv:
                self.store.link(a, b)

    def _merge_tours(self, u, v):
        tid_u, tid_v = self._tree_id(u), self._tree_id(v)
        len_u = self._tour_len(tid_u)
        len_v = self._tour_len(tid_v)
        total = len_u + len_v + 2
        if total <= self.K:
            # both tours are small; splice the edge lists directly
            p1, p2 = self._rotated_small(tid_u, u)
            q1, q2 = self._rotated_small(tid_v, v)
            merged = p1 + [(u, v)] + q2 + q1 + [(v, u)] + p2
            self._drop_container(tid_u)
            self._drop_container(tid_v)
            self._adopt_small(merged)
            self.meter.parallel_charge(total)
            return
        a_u = self._as_array(tid_u)
        a_v = self._as_array(tid_v)
        if a_u is None:
            # u is a singleton: tour becomes (u,v), Q2, Q1, (v,u)
            cv = self._cut_after_target(v)
            head = self.store.alloc_chunk([(u, v)])
            self.store.insert_chunk(a_v, 0, head)
            self.edge_occ[(u, v)] = (head, 0)
            self._touched[head] = None
            self._append_edge(cv, (v, u))
            q1 = cv.pos + 1  # Q1 is [1, q1)
            self.store.reorder(a_v, [(0, 1), (q1, len(a_v)), (1, q1)])
            final = a_v
        elif a_v is None:
            cu = self._cut_after_target(u)
            self._append_edge(cu, (u, v))
            tail = self.store.alloc_chunk([(v, u)])
            self.store.insert_chunk(a_u, cu.pos + 1, tail)
            self.edge_occ[(v, u)] = (tail, 0)
            self._touched[tail] = None
            final = a_u
        else:
            cu = self._cut_after_target(u)
            self._append_edge(cu, (u, v))
            nu = len(a_u)
            cv = self._cut_after_target(v)
            self._append_edge(cv, (v, u))
            self.store.concatenate(a_u, a_v)
            # P1 P2 Q1 Q2 -> P1 Q2 Q1 P2
            p1, q1, n = cu.pos + 1, cv.pos + 1, len(a_u)
            self.store.reorder(a_u, [(0, p1), (q1, n), (nu, q1), (p1, nu)])
            final = a_u
        self._repair(final)

    # -- edge deletion -----------------------------------------------------------

    def delete_edge(self, u, v):
        return self._delete(u, v, None)

    def delete_edge_with_hint(self, u, v, hint):
        if hint is not None:
            a, b = hint
            if b not in self.nbr[a]:
                raise ForestError(f"hint ({a},{b}) is not an edge")
            if (a, b) in self.edge_occ:
                raise ForestError(f"hint ({a},{b}) is a tree edge")
        return self._delete(u, v, hint)

    def find_replacement(self, u, v):
        """What delete_edge(u, v) would report, without mutating anything."""
        self._require_edge(u, v)
        if (u, v) not in self.edge_occ:
            return ReplacementReport(ReplacementReport.NON_TREE)
        container = self.edge_occ[(u, v)][0]
        if isinstance(container, SmallTour):
            *_, pair = self._probe_small(container, u, v, None)
        else:
            *_, pair = self._probe_large(container.array, u, v, None)
        return self._report(pair)

    def _delete(self, u, v, hint):
        self._require_edge(u, v)
        if (u, v) not in self.edge_occ:
            self._remove_adjacency(u, v)
            self._drop_nontree(u, v)
            self._unlink_after_delete(u, v)
            return ReplacementReport(ReplacementReport.NON_TREE)
        self._touched = {}
        container = self.edge_occ[(u, v)][0]
        if isinstance(container, SmallTour):
            i1, i2, pair = self._probe_small(container, u, v, hint)
            self._remove_adjacency(u, v)
            self._commit_small(container, i1, i2, pair)
        else:
            lo, hi, pair = self._probe_large(container.array, u, v, hint)
            self._remove_adjacency(u, v)
            self._commit_large(container.array, lo, hi, pair)
        if pair is not None:
            self._drop_nontree(*pair)  # the replacement is now a tree edge
        self._flush_links()
        return self._report(pair)

    def _report(self, pair):
        """Report a tree-edge deletion replaced by `pair`, None on a split."""
        if pair is None:
            return ReplacementReport(ReplacementReport.SPLIT)
        return ReplacementReport(ReplacementReport.REPLACED, self._norm(*pair))

    def _remove_adjacency(self, u, v):
        self.nbr[u].remove(v)
        self.nbr[v].remove(u)
        self.meter.charge(6)

    def _drop_nontree(self, u, v):
        """Take (u, v) out of the non-tree record, which keeps no empty list."""
        nontree = self.nontree
        for x, y in ((u, v), (v, u)):
            ys = nontree[x]
            if len(ys) == 1:
                del nontree[x]
            else:
                ys.remove(y)

    def _unlink_after_delete(self, u, v):
        """After removing non-tree (u,v): unlink chunk pairs no longer justified."""
        cu = self._chunks_of(u)
        if not cu:
            return
        cv = self._chunks_of(v)
        for a in cu:
            linked = self._links_of(a)
            for b in cv:
                if not (linked >> b.slot) & 1:
                    self.store.unlink(a, b)
        self.meter.parallel_charge(len(cu) * len(cv), unit=3 * self.K)

    # -- small-tour paths --------------------------------------------------------

    def _probe_small(self, tour, u, v, hint):
        """(u, v)'s two occurrence indices and the replacement as a (near,
        far) pair, or None."""
        edges = tour.edges
        i1 = edges.index((u, v))
        i2 = edges.index((v, u))
        if i1 > i2:
            i1, i2 = i2, i1
        far_nodes = set()
        for (a, b) in edges[i1 + 1 : i2]:
            far_nodes.add(a)
            far_nodes.add(b)
        far_nodes.discard(edges[i1][0])
        far = edges[i1][1]
        far_nodes.add(far)
        self.meter.parallel_charge(len(edges))
        if hint is not None:
            h1, h2 = hint
            if (h1 in far_nodes) != (h2 in far_nodes):
                if h1 in far_nodes:
                    h1, h2 = h2, h1
                return i1, i2, (h1, h2)
        candidates = []
        nontree = self.nontree
        for x in far_nodes:
            for y in nontree.get(x, ()):
                if y not in far_nodes:
                    candidates.append((y, x))  # (near, far)
        self.meter.parallel_charge(3 * len(far_nodes))
        return i1, i2, self.meter.pick(candidates) if candidates else None

    def _commit_small(self, tour, i1, i2, pair):
        edges = tour.edges
        p1, p2, p3 = edges[:i1], edges[i1 + 1 : i2], edges[i2 + 1 :]
        self._drop_container(tour)
        if pair is None:
            self._adopt_small(p3 + p1)
            self._adopt_small(p2)
            self.meter.parallel_charge(len(edges))
            return
        w_near, w_far = pair
        near = p3 + p1
        a = _cut_index(near, w_near)
        b = _cut_index(p2, w_far)
        merged = (
            near[:a]
            + [(w_near, w_far)]
            + p2[b:]
            + p2[:b]
            + [(w_far, w_near)]
            + near[a:]
        )
        self._adopt_small(merged)
        self.meter.parallel_charge(len(merged))

    def _adopt_small(self, edges):
        """Register a rebuilt tour of at most K edges.  Every caller splices
        small tours only, and the depth bounds count no chunking here."""
        if not edges:
            return
        assert len(edges) <= self.K, "small tour above the chunk threshold"
        tour = SmallTour(edges)
        for off, e in enumerate(edges):
            self.edge_occ[e] = (tour, off)
        self.meter.parallel_charge(len(edges))

    def _rotated_small(self, tid, node):
        """Split a small/singleton tour into (part ending at node, part starting there)."""
        if isinstance(tid, tuple):
            return [], []
        edges = tid.edges
        for i, (a, b) in enumerate(edges):
            if b == node:
                return edges[: i + 1], edges[i + 1 :]
        raise AssertionError(f"node {node} not on its own tour")

    def _drop_container(self, tid):
        if isinstance(tid, SmallTour):
            for e in tid.edges:
                self.edge_occ.pop(e, None)
            self.meter.parallel_charge(len(tid.edges))

    # -- large-tour machinery -----------------------------------------------------

    def _tour_len(self, tid):
        if isinstance(tid, tuple):
            return 0
        if isinstance(tid, SmallTour):
            return len(tid.edges)
        total = 0
        for c in tid.leaves:
            total += len(c.edges)
        self.meter.parallel_charge(len(tid))
        return total

    def _as_array(self, tid):
        """Chunked form of a tour (None for a singleton)."""
        if isinstance(tid, tuple):
            return None
        if isinstance(tid, SmallTour):
            edges = tid.edges
            self._drop_container(tid)
            array = self._chunkify(edges)
            for c in array.leaves:
                self._touched[c] = None
            return array
        return tid

    def _chunkify(self, edges):
        array = self.store.new_array()
        n = len(edges)
        n_chunks = max(1, -(-n // self.K))
        base = n // n_chunks
        extra = n % n_chunks
        start = 0
        for i in range(n_chunks):
            size = base + (1 if i < extra else 0)
            c = self.store.alloc_chunk(edges[start : start + size])
            self.store.insert_chunk(array, len(array), c)
            self._reindex_chunk(c)
            start += size
        self.meter.parallel_charge(n)
        return array

    def _reindex_chunk(self, c, start=0):
        """Point c's edges at their offsets in c.  Edges before `start` kept
        both, so only the rest are rewritten; all of them are charged."""
        edges = c.edges
        edge_occ = self.edge_occ
        for off in range(start, len(edges)):
            edge_occ[edges[off]] = (c, off)
        self.meter.parallel_charge(len(edges))

    def _cut_after_target(self, node):
        """Split chunks so some occurrence (x, node) ends a chunk, and
        return that chunk."""
        c, off = self._target_occurrence(node)
        if off < len(c.edges) - 1:
            self._split_chunk(c, off + 1)
        return c

    def _split_chunk(self, c, at):
        """Move c.edges[at:] into a new chunk right after c; both are
        reindexed and touched.  Returns the new chunk."""
        right = c.edges[at:]
        del c.edges[at:]
        self._reindex_chunk(c, at)
        nc = self.store.alloc_chunk(right)
        self.store.insert_chunk(c.array, c.pos + 1, nc)
        self._reindex_chunk(nc)
        self._touched[c] = self._touched[nc] = None
        return nc

    def _target_occurrence(self, node):
        for w in self.nbr[node]:
            occ = self.edge_occ.get((w, node))
            if occ is not None:
                return occ
        raise AssertionError(f"no target occurrence for {node}")

    def _append_edge(self, c, edge):
        c.edges.append(edge)
        self.edge_occ[edge] = (c, len(c.edges) - 1)
        self._touched[c] = None
        self.meter.charge(2)

    def _probe_large(self, array, u, v, hint):
        """(u, v)'s lower and upper (edge, occurrence) and the replacement
        as a (near, far) pair, or None."""
        occ1 = self.edge_occ[(u, v)]
        occ2 = self.edge_occ[(v, u)]
        lo, hi = ((u, v), occ1), ((v, u), occ2)
        if (occ1[0].pos, occ1[1]) > (occ2[0].pos, occ2[1]):
            lo, hi = hi, lo
        (s, t) = lo[0]
        lo_key = (lo[1][0].pos, lo[1][1])
        hi_key = (hi[1][0].pos, hi[1][1])

        def far_side(x):
            # the far side is the subtree walked between the two occurrences
            if x == s:
                return False
            if x == t:
                return True
            for w in self.nbr[x]:
                occ = self.edge_occ.get((x, w))
                if occ is None:
                    continue
                key = (occ[0].pos, occ[1])
                return lo_key < key < hi_key
            raise AssertionError(f"cannot classify node {x}")

        self.meter.charge(8)
        if hint is not None:
            h1, h2 = hint
            f1, f2 = far_side(h1), far_side(h2)
            if f1 != f2:
                if f1:
                    h1, h2 = h2, h1
                return lo, hi, (h1, h2)
        candidates = []
        seen = set()
        nontree = self.nontree

        def scan_nodes(nodes):
            for x in nodes:
                ys = nontree.get(x)
                if ys is None:
                    continue
                fx = far_side(x)
                for y in ys:
                    if far_side(y) == fx:
                        continue
                    near, far = (y, x) if fx else (x, y)
                    if (near, far) in seen:
                        continue
                    seen.add((near, far))
                    candidates.append((near, far))

        c_lo, c_hi = lo[1][0], hi[1][0]
        scan_nodes(self._chunk_nodes(c_lo))
        if c_hi is not c_lo:
            scan_nodes(self._chunk_nodes(c_hi))
        self.meter.parallel_charge(6 * self.K)
        n = len(array)
        p2_range = (c_lo.pos + 1, c_hi.pos)
        for near_range in ((0, c_lo.pos), (c_hi.pos + 1, n)):
            if near_range[0] >= near_range[1] or p2_range[0] >= p2_range[1]:
                continue
            pair = self.store.query(array, *near_range, *p2_range)
            if pair is not None:
                near_nodes = self._chunk_nodes(pair[0])
                far_set = set(self._chunk_nodes(pair[1]))
                for x in near_nodes:
                    for y in nontree.get(x, ()):
                        if y not in far_set or (x, y) in seen:
                            continue
                        seen.add((x, y))
                        candidates.append((x, y))
                self.meter.parallel_charge(3 * self.K)
        return lo, hi, self.meter.pick(candidates) if candidates else None

    def _commit_large(self, array, lo, hi, pair):
        # cut out both occurrences, low position first; the second cut resolves
        # its chunk afresh since the first may have moved or split it; the
        # array is then P1 = [0, a), P2 = [a, b), P3 = [b, n)
        a = self._cut_out(lo[0])
        b = self._cut_out(hi[0])
        n = len(array)
        if pair is None:
            self.store.reorder(array, [(0, a), (b, n), (a, b)])  # P1 P3 P2
            far = self.store.split_array(array, a + (n - b))
            self._repair(array)
            self._repair(far)
            return
        w_near, w_far = pair
        # the new cyclic tour is Y' (w_near,w_far) X'' X' (w_far,w_near) Y'':
        # the far walk X = P2 = X' X'' is cut at an occurrence leaving w_far
        # and the near walk Y = P3 P1 = Y' Y'' at one leaving w_near, P1
        # searched first.  A side that is a single node has an empty walk.
        # Each block bound is named by the chunk that starts it, None for
        # the end, since the cuts split chunks and so move positions.
        leaves = array.leaves
        p1, x, p3 = (leaves[p] if p < n else None for p in (0, a, b))

        def at(c):
            return len(array) if c is None else c.pos

        xf = x
        if a < b:
            xf = self._cut_at_source(w_far, (at(x), at(p3)))
            if xf is None:
                raise AssertionError("far endpoint has no tour position")
        near = [(p3, None), (p1, x)]  # P3, P1
        for k in (1, 0):
            start, end = near[k]
            yn = self._cut_at_source(w_near, (at(start), at(end)))
            if yn is not None:
                y_head, y_tail = near[:k] + [(start, yn)], [(yn, end)] + near[k + 1 :]
                break
        else:
            if a > 0 or p3 is not None:
                raise AssertionError("near endpoint has no tour position")
            y_head = y_tail = []
        blocks = [(at(c), at(d)) for c, d in y_head + [(xf, p3), (x, xf)] + y_tail]
        e_pos = sum(end - start for start, end in blocks[: len(y_head)])
        rev_pos = e_pos + 1 + at(p3) - at(x)
        self.store.reorder(array, blocks)
        for pos, e in ((e_pos, (w_near, w_far)), (rev_pos, (w_far, w_near))):
            nc = self.store.alloc_chunk([e])
            self.store.insert_chunk(array, pos, nc)
            self.edge_occ[e] = (nc, 0)
            self._touched[nc] = None
        self._repair(array)
        # the promoted edge no longer justifies links anywhere: every chunk
        # holding another occurrence of its endpoints must recompute
        for node in (w_near, w_far):
            for c in self._chunks_of(node):
                self._touched[c] = None

    def _cut_out(self, edge):
        """Remove `edge` from its chunk, splitting the chunk at that point.

        Returns the array position where the removed edge used to sit (the
        boundary between the left and right pieces).
        """
        c, off = self.edge_occ.pop(edge)
        array = c.array
        left = c.edges[:off]
        right = c.edges[off + 1 :]
        pos = c.pos
        if right:
            nc = self.store.alloc_chunk(right)
            self.store.insert_chunk(array, pos + 1, nc)
            self._reindex_chunk(nc)
            self._touched[nc] = None
        if left:
            c.edges = left
            self._reindex_chunk(c, off)
            self._touched[c] = None
            return pos + 1
        self._retire_chunk(c)
        return pos

    def _cut_at_source(self, node, pos_range):
        """Split chunks so some occurrence (node, ?) starts a chunk whose
        position lies in `pos_range` of node's tour array.

        Returns the chunk whose first edge leaves `node`, or None when the
        range holds no such occurrence.
        """
        for w in self.nbr[node]:
            occ = self.edge_occ.get((node, w))
            if occ is None or isinstance(occ[0], SmallTour):
                continue
            c, off = occ
            if not (pos_range[0] <= c.pos < pos_range[1]):
                continue
            return c if off == 0 else self._split_chunk(c, off)
        return None

    # -- sizing repairs and the link flush ------------------------------------

    def _repair(self, array):
        """Restore K/2 <= |chunk| <= K on the touched chunks of `array`, then
        demote it if its tour now fits in one small tour."""
        K = self.K
        touched = self._touched
        queue = [c for c in touched if c.array is array]
        while queue:
            c = queue.pop()
            if c.array is not array:
                continue
            if len(c.edges) > K:
                queue.extend((c, self._split_chunk(c, len(c.edges) // 2)))
                continue
            if 2 * len(c.edges) < K and len(array) > 1:
                pos = c.pos
                other = array.leaves[pos - 1] if pos > 0 else array.leaves[pos + 1]
                left, right = (other, c) if other.pos < pos else (c, other)
                kept = len(left.edges)  # left's own edges keep their offsets
                combined = left.edges + right.edges
                if len(combined) <= K:
                    left.edges = combined
                    self._reindex_chunk(left, kept)
                    self._retire_chunk(right)
                    touched[left] = None
                    queue.append(left)
                else:
                    half = len(combined) // 2
                    left.edges = combined[:half]
                    right.edges = combined[half:]
                    self._reindex_chunk(left, min(kept, half))
                    self._reindex_chunk(right)
                    touched[left] = touched[right] = None
        self._maybe_shrink(array)

    def _retire_chunk(self, c):
        if c.bits:
            self.store.bulk_set_links(c, 0)
        self.store.delete_chunk(c.array, c.pos)
        self.store.deactivate(c)

    def _maybe_shrink(self, array):
        """Demote an array to a small tour when it fits under the threshold."""
        total = self._tour_len(array)
        if total == 0:
            return
        if total > self.K:
            return
        edges = []
        for c in array.leaves:
            edges.extend(c.edges)
        for c in list(array.leaves):
            self._retire_chunk(c)
        self._adopt_small(edges)

    def _flush_links(self):
        """Refresh, once each, the link vectors of the chunks this update
        touched that are still live; a retired chunk's links were cleared
        when it was retired.  The update's record is dropped."""
        touched, self._touched = self._touched, None
        if not touched:
            return
        slots = self.store.slots
        self.meter.parallel_charge(len(touched))
        for c in touched:
            if slots.get(c.slot) is c and c.array is not None:
                self._refresh_links(c)

    def _refresh_links(self, c):
        fresh = self._links_of(c)
        self.meter.parallel_charge(3 * len(c.edges) + 2)
        self.store.bulk_set_links(c, fresh)

    def _links_of(self, c):
        """Slot bits of every chunk holding a tour occurrence of a non-tree
        neighbour of a node of c: c's link vector.  The chunk is a stretch
        of a tour, so its nodes are its edges' sources and its last edge's
        target; the scan over them is charged as one parallel step.  A
        non-tree neighbour lies on c's own chunked tour, where its
        occurrences are both directions of each of its tree edges."""
        edges = c.edges
        self.meter.parallel_charge(len(edges))
        nontree = self.nontree
        nbr = self.nbr
        edge_occ = self.edge_occ
        nodes = {a for a, _ in edges}
        nodes.add(edges[-1][1])
        mask = 0
        for x in nontree.keys() & nodes:
            for y in nontree[x]:
                for w in nbr[y]:
                    occ = edge_occ.get((y, w))
                    if occ is not None:
                        mask |= 1 << occ[0].slot | 1 << edge_occ[(w, y)][0].slot
        return mask

    def _chunk_nodes(self, c):
        """The distinct endpoints of c's edges, in order of first occurrence."""
        self.meter.parallel_charge(len(c.edges))
        return list(dict.fromkeys(chain.from_iterable(c.edges)))

    def _chunks_of(self, y):
        """The distinct chunks holding an occurrence of y, in order of first
        sight; empty when y's tour is small or a singleton."""
        out = []
        for w in self.nbr[y]:
            for key in ((y, w), (w, y)):
                occ = self.edge_occ.get(key)
                if occ is None or isinstance(occ[0], SmallTour):
                    continue
                if occ[0] not in out:
                    out.append(occ[0])
        return out

    def _norm(self, a, b):
        return (a, b) if a < b else (b, a)

    def _require_active(self, v):
        self._check_id(v)
        if v not in self.nbr:
            raise ForestError(f"node {v} not active")

    def _check_id(self, v):
        if not 0 <= v < self.capacity:
            raise ForestError(f"node id {v} out of range")

    def _require_edge(self, u, v):
        self._require_active(u)
        self._require_active(v)
        if v not in self.nbr[u]:
            raise ForestError(f"edge ({u},{v}) absent")


def _cut_index(seq, node):
    """First index whose edge leaves `node` (cyclic cut point), else 0."""
    for i, (a, b) in enumerate(seq):
        if a == node:
            return i
    return 0

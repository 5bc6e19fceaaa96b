"""Spanning forests of degree-at-most-3 graphs via chunked Euler tours.

Every tree's Euler tour (each tree edge once per direction) is stored either
as a plain edge list, when the tour fits in one chunk's capacity K, or as a
chunk array in the master store with link vectors.  Small tours need no link
bookkeeping: a replacement search inside them is a direct scan of at most 3K
edges, which is within the same work budget as one chunk query.  Keeping them
out of the master array is also what keeps the slot count at O(sqrt(n)):
a forest can contain far more tiny trees than slots.

Connectivity is answered in O(1) by comparing tour container identities,
reached from any incident tree edge's occurrence pointer.

Link vectors are refreshed once per forest update.  The steps of an update
that split, merge, chunk or reindex chunks only mark those chunks stale; one
flush at the end of `insert_edge` or `_delete` recomputes the link vector of
each marked chunk that is still live, once, from the final tours.  A chunk
retired during the update is skipped: `_retire_chunk` clears its links
before the slot is freed.  The only link query of an update, the replacement
search, runs before its first mutation, so the vectors may lag until the
flush; they stay symmetric throughout, since every change to them goes
through the master array.
"""

from __future__ import annotations

import math
from itertools import chain

from .chunks import MasterArray
from .costmodel import CHOOSE_ANY_DEPTH, CostMeter, extremum_depth

# a node of degree at most 3 has at most 3 tree edges, hence at most 6 tour
# occurrences and 6 containers
_OCCURRENCES = 6


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
    def __init__(self, meter: CostMeter, capacity: int, priority_of=None):
        self.meter = meter
        self.capacity = capacity
        self.K = max(2, math.isqrt(3 * capacity - 1) + 1)
        self.J = 4 * ((3 * capacity + self.K - 1) // self.K) + 8
        self.store = MasterArray(meter, self.J, self.K)
        self.priority_of = priority_of or (lambda u, v: 0)
        self.active = bytearray(capacity)
        # adjacency slots come to life on activation; most gadget ids in a
        # large pool are never used
        self.nbr = [None] * capacity
        self.edge_occ = {}
        self.small_tours = {}
        self._active_n = 0
        self._tree_edges = 0
        # chunks whose link vector the current update may have made stale,
        # as an insertion-ordered set; emptied when an update starts and
        # flushed once at its end
        self._stale = {}
        with meter.initialization():
            meter.charge(capacity)

    @staticmethod
    def depth_bounds(policy) -> dict:
        """Upper bounds on the metered depth of the edge operations, summed
        over the sequential calls each makes into the master array; node
        changes and queries charge no depth.

        Loop counts come from the degree bound and the repair invariant:
        every chunk of an array at rest holds at least K/2 edges, and every
        chunk an operation touches is in its `modified` list, at most 6 on
        insertion, 4 after cutting out a deleted edge and 10 once its
        replacement is spliced in.  A repair splits an oversized chunk or
        merges or rebalances an undersized one at most once per listed chunk
        and may add one chunk per listed chunk, and a tour short enough to
        demote then spans at most 2 chunks.  Small tours never exceed K
        edges, so they are chunked into one chunk.

        Link vectors are refreshed only by the flush that ends an update,
        once per live chunk it marked.  Every marked chunk stays listed until
        it is retired, so an update marks at most the chunks its repairs end
        with, plus on a replacement the up to 2 x 6 chunks holding the
        promoted edge's endpoints.
        """
        store = MasterArray.depth_bounds(policy)
        if policy.kind == "common":
            select = extremum_depth(policy)
        else:
            select = 1 + CHOOSE_ANY_DEPTH  # best-priority filter, then the race
        insert_chunk = store["insert_chunk"]
        refresh = 2 + store["bulk_set_links"]  # _refresh_links
        retire = store["bulk_set_links"] + store["delete_chunk"]  # _retire_chunk
        as_array = 1 + (insert_chunk + 2)  # drop, one-chunk _chunkify
        cut = 2 + insert_chunk  # _cut_after_target, _cut_at_source
        # _cut_out: the right piece, then the left piece or the retirement
        cut_out = insert_chunk + 1 + max(1, retire)
        shrink = 1 + 2 * retire + 1  # _maybe_shrink

        def repair(listed):  # _repair_and_mark
            return listed * max(2 + insert_chunk, 1 + retire) + shrink

        def flush(marked):  # _flush_links: the liveness filter, then refreshes
            return 1 + marked * refresh

        # _merge_tours: two tour lengths, then a small splice, a singleton
        # end or two cut arrays, then the repair and the flush
        merge = 2 + max(
            4,
            as_array + cut + insert_chunk + store["reorder"],
            2 * (as_array + cut) + store["concatenate"] + 2 * store["reorder"],
        ) + repair(6) + flush(2 * 6)
        mark_linked = 1 + _OCCURRENCES**2 * store["link"]
        unlink = _OCCURRENCES * (1 + _OCCURRENCES * store["unlink"]) + 1
        probe_small = 2 + select
        commit_small = 4
        probe_large = 3 + 2 * (store["query"] + 2) + select
        # _permute_blocks: at most 5 blocks, so 5 cuts and 4 concatenations
        permute = 5 * store["split_array"] + 4 * store["concatenate"] + 1
        commit_split = store["reorder"] + store["split_array"] + 2 * repair(4)
        commit_replace = 2 * cut + permute + 2 * insert_chunk + repair(10)
        # marked: two split-off repairs of at most 4 listed, or one repair of
        # 10 listed plus the chunks of the promoted edge's endpoints
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
        if self.active[v]:
            raise ForestError(f"node {v} already active")
        self.active[v] = 1
        if self.nbr[v] is None:
            self.nbr[v] = []
        self._active_n += 1
        self.meter.charge(1)

    def deactivate_node(self, v):
        self._require_active(v)
        if self.nbr[v]:
            raise ForestError(f"node {v} not isolated")
        self.active[v] = 0
        self._active_n -= 1
        self.meter.charge(1)

    def is_active(self, v):
        return 0 <= v < self.capacity and bool(self.active[v])

    def active_count(self):
        return self._active_n

    # -- queries -------------------------------------------------------------

    def connected(self, u, v):
        self._require_active(u)
        self._require_active(v)
        self.meter.charge(2)
        return u == v or self._tree_id(u) == self._tree_id(v)

    def n_components(self):
        self.meter.charge(1)
        return self._active_n - self._tree_edges

    def tree_edge(self, u, v):
        self.meter.charge(1)
        return (u, v) in self.edge_occ

    def has_edge(self, u, v):
        lst = self.nbr[u]
        return lst is not None and v in lst

    def degree(self, v):
        lst = self.nbr[v]
        return len(lst) if lst is not None else 0

    def tree_degree(self, v):
        lst = self.nbr[v] or ()
        return sum(1 for w in lst if (v, w) in self.edge_occ)

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
        self._stale = {}
        self.nbr[u].append(v)
        self.nbr[v].append(u)
        self.meter.charge(4)
        if same:
            self._mark_linked(u, v)
        else:
            self._merge_tours(u, v)
            self._tree_edges += 1
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
        modified = []
        a_u = self._as_array(tid_u, modified)
        a_v = self._as_array(tid_v, modified)
        if a_u is None:
            # u is a singleton: tour becomes (u,v), Q2, Q1, (v,u)
            cut_v, cv_left = self._cut_after_target(a_v, v, modified)
            head = self.store.alloc_chunk([(u, v)])
            self.store.insert_chunk(a_v, 0, head)
            self.edge_occ[(u, v)] = (head, 0)
            modified.append(head)
            self._append_edge(cv_left, (v, u), modified)
            q1_len = cut_v + 1  # block [1, 1+q1_len) holds Q1 after the insert
            n = len(a_v.order)
            self.store.reorder(a_v, 1, 1 + q1_len, n)
            final = a_v
        elif a_v is None:
            cut_u, cu_left = self._cut_after_target(a_u, u, modified)
            self._append_edge(cu_left, (u, v), modified)
            tail = self.store.alloc_chunk([(v, u)])
            self.store.insert_chunk(a_u, cut_u + 1, tail)
            self.edge_occ[(v, u)] = (tail, 0)
            modified.append(tail)
            final = a_u
        else:
            cut_u, cu_left = self._cut_after_target(a_u, u, modified)
            self._append_edge(cu_left, (u, v), modified)
            nu = len(a_u.order)
            cut_v, cv_left = self._cut_after_target(a_v, v, modified)
            self._append_edge(cv_left, (v, u), modified)
            nv = len(a_v.order)
            self.store.concatenate(a_u, a_v)
            # blocks: [P1)(P2)(Q1)(Q2) -> P1 Q2 Q1 P2
            p1 = cut_u + 1
            q1 = cut_v + 1
            n = len(a_u.order)
            self.store.reorder(a_u, p1, nu + q1, n)         # P1 Q2 P2 Q1
            q2 = n - (nu + q1)
            self.store.reorder(a_u, p1 + q2, p1 + q2 + (nu - p1), n)  # P1 Q2 Q1 P2
            final = a_u
        self._repair_and_mark(final, modified)

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
            kind, edge, _geo = self._probe_small(container, u, v, None)
        else:
            kind, edge, _geo = self._probe_large(container.array, u, v, None)
        return ReplacementReport(kind, edge)

    def _delete(self, u, v, hint):
        self._require_edge(u, v)
        self._stale = {}
        if (u, v) not in self.edge_occ:
            self._remove_adjacency(u, v)
            self._unlink_after_delete(u, v)
            return ReplacementReport(ReplacementReport.NON_TREE)
        container = self.edge_occ[(u, v)][0]
        if isinstance(container, SmallTour):
            kind, edge, geo = self._probe_small(container, u, v, hint)
            self._remove_adjacency(u, v)
            self._commit_small(container, kind, edge, geo)
        else:
            kind, edge, geo = self._probe_large(container.array, u, v, hint)
            self._remove_adjacency(u, v)
            self._commit_large(container.array, kind, edge, geo)
        if kind == ReplacementReport.SPLIT:
            self._tree_edges -= 1
        self._flush_links()
        return ReplacementReport(kind, edge)

    def _remove_adjacency(self, u, v):
        self.nbr[u].remove(v)
        self.nbr[v].remove(u)
        self.meter.charge(6)

    def _unlink_after_delete(self, u, v):
        """After removing non-tree (u,v): unlink chunk pairs no longer justified."""
        cu = self._chunks_of(u)
        if not cu:
            return
        cv = self._chunks_of(v)
        for a in cu:
            linked = self._link_mask(self._chunk_nodes(a))
            for b in cv:
                if not (linked >> b.slot) & 1:
                    self.store.unlink(a, b)
        self.meter.parallel_charge(len(cu) * len(cv), unit=3 * self.K)

    # -- small-tour paths --------------------------------------------------------

    def _probe_small(self, tour, u, v, hint):
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
        geo = (i1, i2, far_nodes)
        if hint is not None:
            h1, h2 = hint
            if (h1 in far_nodes) != (h2 in far_nodes):
                if h1 in far_nodes:
                    h1, h2 = h2, h1
                return ReplacementReport.REPLACED, self._norm(h1, h2), geo + ((h1, h2),)
        candidates = []
        for x in far_nodes:
            for y in self.nbr[x]:
                if (x, y) in self.edge_occ or y in far_nodes:
                    continue
                if (x, y) == (v, u) or (x, y) == (u, v):
                    continue
                candidates.append((self.priority_of(y, x), y, x))  # (near, far)
        self.meter.parallel_charge(3 * len(far_nodes))
        if not candidates:
            return ReplacementReport.SPLIT, None, geo
        chosen = self._select(candidates)
        w_near, w_far = chosen[1], chosen[2]
        return ReplacementReport.REPLACED, self._norm(w_near, w_far), geo + ((w_near, w_far),)

    def _select(self, candidates):
        m = self.meter
        if m.policy.kind == "common":
            idx, _ = m.reduce_extremum(candidates, "min")
            return candidates[idx]
        best = min(c[0] for c in candidates)
        m.parallel_charge(len(candidates))
        return m.choose_any([c for c in candidates if c[0] == best])

    def _commit_small(self, tour, kind, edge, geo):
        edges = tour.edges
        i1, i2 = geo[0], geo[1]
        p1, p2, p3 = edges[:i1], edges[i1 + 1 : i2], edges[i2 + 1 :]
        self._drop_container(tour)
        if kind == ReplacementReport.NON_TREE:
            raise AssertionError("unreachable")
        if kind == ReplacementReport.SPLIT:
            self._adopt_small(p3 + p1)
            self._adopt_small(p2)
            self.meter.parallel_charge(len(edges))
            return
        w_near, w_far = geo[3]
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
        self.small_tours[id(tour)] = tour
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
            self.small_tours.pop(id(tid), None)
            self.meter.parallel_charge(len(tid.edges))

    # -- large-tour machinery -----------------------------------------------------

    def _tour_len(self, tid):
        if isinstance(tid, tuple):
            return 0
        if isinstance(tid, SmallTour):
            return len(tid.edges)
        total = 0
        for c in tid.order:
            total += len(c.edges)
        self.meter.parallel_charge(len(tid.order))
        return total

    def _as_array(self, tid, modified):
        """Chunked form of a tour (None for a singleton)."""
        if isinstance(tid, tuple):
            return None
        if isinstance(tid, SmallTour):
            edges = tid.edges
            self._drop_container(tid)
            array = self._chunkify(edges)
            for c in array.order:
                self._stale[c] = None
                modified.append(c)
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
            self.store.insert_chunk(array, len(array.order), c)
            self._reindex_chunk(c)
            start += size
        self.meter.parallel_charge(n)
        return array

    def _reindex_chunk(self, c):
        for off, e in enumerate(c.edges):
            self.edge_occ[e] = (c, off)
        self.meter.parallel_charge(len(c.edges))

    def _cut_after_target(self, array, node, modified):
        """Split chunks so some occurrence (x, node) ends a chunk.

        Returns (position of that chunk, the chunk itself).
        """
        c, off = self._target_occurrence(node)
        if off < len(c.edges) - 1:
            right = c.edges[off + 1 :]
            del c.edges[off + 1 :]
            self._reindex_chunk(c)
            nc = self.store.alloc_chunk(right)
            self.store.insert_chunk(c.array, c.pos + 1, nc)
            self._reindex_chunk(nc)
            self._stale[c] = self._stale[nc] = None
            modified.extend((c, nc))
        return c.pos, c

    def _target_occurrence(self, node):
        for w in self.nbr[node]:
            occ = self.edge_occ.get((w, node))
            if occ is not None:
                return occ
        raise AssertionError(f"no target occurrence for {node}")

    def _append_edge(self, c, edge, modified):
        c.edges.append(edge)
        self.edge_occ[edge] = (c, len(c.edges) - 1)
        if c not in modified:
            modified.append(c)
        self.meter.charge(2)

    def _probe_large(self, array, u, v, hint):
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

        geo = (lo, hi, far_side)
        self.meter.charge(8)
        if hint is not None:
            h1, h2 = hint
            f1, f2 = far_side(h1), far_side(h2)
            if f1 != f2:
                if f1:
                    h1, h2 = h2, h1
                return ReplacementReport.REPLACED, self._norm(h1, h2), geo + ((h1, h2),)
        candidates = []
        seen = set()

        def scan_nodes(nodes):
            for x in nodes:
                fx = far_side(x)
                for y in self.nbr[x]:
                    if (x, y) in self.edge_occ or (x, y) in ((u, v), (v, u)):
                        continue
                    if far_side(y) == fx:
                        continue
                    near, far = (y, x) if fx else (x, y)
                    if (near, far) in seen:
                        continue
                    seen.add((near, far))
                    candidates.append((self.priority_of(near, far), near, far))

        c_lo, c_hi = lo[1][0], hi[1][0]
        scan_nodes(self._chunk_nodes(c_lo))
        if c_hi is not c_lo:
            scan_nodes(self._chunk_nodes(c_hi))
        self.meter.parallel_charge(6 * self.K)
        n = len(array.order)
        p2_range = (c_lo.pos + 1, c_hi.pos)
        for near_range in ((0, c_lo.pos), (c_hi.pos + 1, n)):
            if near_range[0] >= near_range[1] or p2_range[0] >= p2_range[1]:
                continue
            pair = self.store.query(array, *near_range, *p2_range)
            if pair is not None:
                near_nodes = self._chunk_nodes(pair[0])
                far_set = set(self._chunk_nodes(pair[1]))
                for x in near_nodes:
                    for y in self.nbr[x]:
                        if (x, y) in self.edge_occ or y not in far_set:
                            continue
                        if (x, y) in seen:
                            continue
                        seen.add((x, y))
                        candidates.append((self.priority_of(x, y), x, y))
                self.meter.parallel_charge(3 * self.K)
        if not candidates:
            return ReplacementReport.SPLIT, None, geo
        chosen = self._select(candidates)
        w_near, w_far = chosen[1], chosen[2]
        return ReplacementReport.REPLACED, self._norm(w_near, w_far), geo + ((w_near, w_far),)

    def _commit_large(self, array, kind, edge, geo):
        lo, hi = geo[0], geo[1]
        modified = []
        # cut out both occurrences, low position first; the second cut resolves
        # its chunk afresh since the first may have moved or split it
        lo_pos = self._cut_out(lo[0], modified)
        hi_pos = self._cut_out(hi[0], modified)
        # block boundaries by array position: P1 = [0, a), P2 = [a, b), P3 = [b, n)
        a, b = lo_pos, hi_pos
        n = len(array.order)
        if kind == ReplacementReport.SPLIT:
            self.store.reorder(array, a, b, n)  # P1 P3 P2
            keep, far = self.store.split_array(array, a + (n - b))
            for arr in (keep, far):
                self._repair_and_mark(arr, [c for c in modified if c.array is arr])
            return
        w_near, w_far = geo[3]
        # split the far walk X = P2 at an occurrence leaving w_far, the near
        # walk Y = P3.P1 at one leaving w_near; the new cyclic tour is
        #   Y' (w_near,w_far) X'' X' (w_far,w_near) Y''
        if a < b:
            wf_pos = self._cut_at_source(array, w_far, (a, b), modified)
            if wf_pos is None:
                raise AssertionError("far endpoint has no tour position")
            delta = len(array.order) - n
            b += delta
            n += delta
        else:
            wf_pos = a  # far side is the single node w_far
        if a > 0 or b < n:
            wn_pos = self._cut_at_source(array, w_near, (0, a), modified)
            if wn_pos is not None:
                delta = len(array.order) - n
                a += delta
                b += delta
                wf_pos += delta
                n += delta
                blocks = [
                    (b, n),        # P3
                    (0, wn_pos),   # head of P1, ends at w_near
                    (wf_pos, b),   # X''
                    (a, wf_pos),   # X'
                    (wn_pos, a),   # tail of P1
                ]
                e_block = 1
            else:
                wn_pos = self._cut_at_source(array, w_near, (b, n), modified)
                if wn_pos is None:
                    raise AssertionError("near endpoint has no tour position")
                n = len(array.order)
                blocks = [
                    (b, wn_pos),   # head of P3, ends at w_near
                    (wf_pos, b),   # X''
                    (a, wf_pos),   # X'
                    (wn_pos, n),   # tail of P3
                    (0, a),        # P1
                ]
                e_block = 0
        else:
            blocks = [(wf_pos, b), (a, wf_pos)]  # near side is just w_near
            e_block = -1
        self._permute_blocks(array, blocks)
        lens = [end - start for (start, end) in blocks]
        pos_e = sum(lens[: e_block + 1]) if e_block >= 0 else 0
        pos_rev = pos_e + 1 + lens[e_block + 1] + lens[e_block + 2]
        for pos, e in ((pos_e, (w_near, w_far)), (pos_rev, (w_far, w_near))):
            nc = self.store.alloc_chunk([e])
            self.store.insert_chunk(array, pos, nc)
            self.edge_occ[e] = (nc, 0)
            modified.append(nc)
        self._repair_and_mark(array, modified)
        # the promoted edge no longer justifies links anywhere: every chunk
        # holding another occurrence of its endpoints must recompute
        for node in (w_near, w_far):
            for c in self._chunks_of(node):
                self._stale[c] = None

    def _cut_out(self, edge, modified):
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
            self._stale[nc] = None
            modified.append(nc)
        if left:
            c.edges = left
            self._reindex_chunk(c)
            self._stale[c] = None
            if c not in modified:
                modified.append(c)
            return pos + 1
        self._retire_chunk(c, modified)
        return pos

    def _cut_at_source(self, array, node, pos_range, modified):
        """Split chunks so some occurrence (node, ?) starts a chunk inside range.

        Returns the boundary position (start of the chunk whose first edge
        leaves `node`), or None when the range holds no such occurrence.
        """
        for w in self.nbr[node]:
            occ = self.edge_occ.get((node, w))
            if occ is None or isinstance(occ[0], SmallTour):
                continue
            c, off = occ
            if not (pos_range[0] <= c.pos < pos_range[1]):
                continue
            if off == 0:
                return c.pos
            right = c.edges[off:]
            del c.edges[off:]
            self._reindex_chunk(c)
            nc = self.store.alloc_chunk(right)
            self.store.insert_chunk(array, c.pos + 1, nc)
            self._reindex_chunk(nc)
            self._stale[c] = self._stale[nc] = None
            for ch in (c, nc):
                if ch not in modified:
                    modified.append(ch)
            return nc.pos
        return None

    def _permute_blocks(self, array, blocks):
        """Reorder the array so the given [start, end) blocks appear in order."""
        bounds = sorted({b for blk in blocks for b in blk})
        pieces = []
        rest = array
        consumed = 0
        store = self.store
        for cut in bounds[1:] if bounds and bounds[0] == 0 else bounds:
            rest, right = store.split_array(rest, cut - consumed)
            pieces.append((consumed, rest))
            consumed = cut
            rest = right
        pieces.append((consumed, rest))
        by_start = {start: arr for start, arr in pieces}
        order = [by_start[blk[0]] for blk in blocks if blk[0] != blk[1]]
        used = {id(a) for a in order}
        leftovers = [arr for start, arr in pieces if id(arr) not in used and arr.order]
        if leftovers:
            raise AssertionError("block permutation does not cover the array")
        base = order[0] if order else array
        for extra in order[1:]:
            store.concatenate(base, extra)
        if base is not array:
            array.order = base.order
            array.tree = base.tree
            store._refresh_positions(array, 0)

    # -- sizing repairs and the link flush ------------------------------------

    def _repair_and_mark(self, array, modified):
        K = self.K
        queue = [c for c in modified if c.array is array]
        while queue:
            c = queue.pop()
            if c.array is not array:
                continue
            if len(c.edges) > K:
                right = c.edges[len(c.edges) // 2 :]
                del c.edges[len(c.edges) // 2 :]
                self._reindex_chunk(c)
                nc = self.store.alloc_chunk(right)
                self.store.insert_chunk(array, c.pos + 1, nc)
                self._reindex_chunk(nc)
                modified.append(nc)
                queue.extend((c, nc))
                continue
            if 2 * len(c.edges) < K and len(array.order) > 1:
                pos = c.pos
                other = array.order[pos - 1] if pos > 0 else array.order[pos + 1]
                left, right = (other, c) if other.pos < pos else (c, other)
                combined = left.edges + right.edges
                if len(combined) <= K:
                    left.edges = combined
                    self._reindex_chunk(left)
                    self._retire_chunk(right, modified)
                    if left not in modified:
                        modified.append(left)
                    queue.append(left)
                else:
                    half = len(combined) // 2
                    left.edges = combined[:half]
                    right.edges = combined[half:]
                    self._reindex_chunk(left)
                    self._reindex_chunk(right)
                    for ch in (left, right):
                        if ch not in modified:
                            modified.append(ch)
        for c in modified:
            if c.array is array:
                self._stale[c] = None
        self._maybe_shrink(array)

    def _retire_chunk(self, c, modified):
        if c.links:
            self.store.bulk_set_links(c, 0)
        self.store.delete_chunk(c.array, c.pos)
        self.store.deactivate(c)
        while c in modified:
            modified.remove(c)

    def _maybe_shrink(self, array):
        """Demote an array to a small tour when it fits under the threshold."""
        total = self._tour_len(array)
        if total == 0:
            return
        if total > self.K:
            return
        edges = []
        for c in list(array.order):
            edges.extend(c.edges)
        for c in list(array.order):
            self._retire_chunk(c, [])
        tour = SmallTour(edges)
        self.small_tours[id(tour)] = tour
        for off, e in enumerate(edges):
            self.edge_occ[e] = (tour, off)
        self.meter.parallel_charge(len(edges))

    def _flush_links(self):
        """Refresh, once each, the link vectors of the chunks this update
        marked stale and that are still live; a retired chunk's links were
        cleared when it was retired."""
        stale = self._stale
        if not stale:
            return
        slots = self.store.slots
        self.meter.parallel_charge(len(stale))
        for c in stale:
            if slots[c.slot] is c and c.array is not None:
                self._refresh_links(c)

    def _refresh_links(self, c):
        fresh = self._link_mask(self._chunk_nodes(c))
        self.meter.parallel_charge(3 * len(c.edges) + 2)
        self.store.bulk_set_links(c, fresh)

    def _link_mask(self, nodes):
        """Slot bits of every chunk holding a tour occurrence of a non-tree
        neighbour of `nodes`: the link vector of a chunk over those nodes."""
        nbr = self.nbr
        edge_occ = self.edge_occ
        mask = 0
        for x in nodes:
            for y in nbr[x]:
                if (x, y) in edge_occ:
                    continue
                for w in nbr[y]:
                    occ = edge_occ.get((y, w))
                    if occ is not None and occ[0].__class__ is not SmallTour:
                        mask |= 1 << occ[0].slot
                    occ = edge_occ.get((w, y))
                    if occ is not None and occ[0].__class__ is not SmallTour:
                        mask |= 1 << occ[0].slot
        return mask

    def _chunk_nodes(self, c):
        """The distinct endpoints of c's edges, in order of first occurrence."""
        self.meter.parallel_charge(len(c.edges))
        return list(dict.fromkeys(chain.from_iterable(c.edges)))

    def _containers_of(self, y):
        out = []
        mark = set()
        for w in self.nbr[y]:
            for key in ((y, w), (w, y)):
                occ = self.edge_occ.get(key)
                if occ is not None and id(occ[0]) not in mark:
                    mark.add(id(occ[0]))
                    out.append(occ[0])
        return out

    def _chunks_of(self, y):
        return [c for c in self._containers_of(y) if not isinstance(c, SmallTour)]

    def _norm(self, a, b):
        return (a, b) if a < b else (b, a)

    def _require_active(self, v):
        self._check_id(v)
        if not self.active[v]:
            raise ForestError(f"node {v} not active")

    def _check_id(self, v):
        if not 0 <= v < self.capacity:
            raise ForestError(f"node id {v} out of range")

    def _require_edge(self, u, v):
        self._require_active(u)
        self._require_active(v)
        if v not in self.nbr[u]:
            raise ForestError(f"edge ({u},{v}) absent")

    # -- checker support ------------------------------------------------------

    def all_tours(self):
        out = [_TourView(t, None) for t in self.small_tours.values()]
        for array in self.store.arrays():
            out.append(_TourView(None, array))
        return out

    def edge_occurrences(self):
        return [
            (e, (c, off))
            for e, (c, off) in self.edge_occ.items()
        ]

    def check_links_ground_truth(self):
        from .oracle import check

        chunks = [c for c in self.store.slots if c is not None]
        node_sets = {c.slot: set(self._chunk_nodes(c)) for c in chunks}
        for c in chunks:
            want = 0
            for x in node_sets[c.slot]:
                for y in self.nbr[x]:
                    if (x, y) in self.edge_occ:
                        continue
                    for d in chunks:
                        if y in node_sets[d.slot]:
                            want |= 1 << d.slot
            check(
                c.links == want,
                f"link vector of slot {c.slot} stale: {c.links:#x} != {want:#x}",
            )


class _TourView:
    def __init__(self, small, array):
        self.small = small
        self.array = array

    def chunked(self):
        return self.array is not None

    def edge_list(self):
        if self.small is not None:
            return list(self.small.edges)
        out = []
        for c in self.array.order:
            out.extend(c.edges)
        return out


def _cut_index(seq, node):
    """First index whose edge leaves `node` (cyclic cut point), else 0."""
    for i, (a, b) in enumerate(seq):
        if a == node:
            return i
    return 0

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

The model allocates a forest's master array, J slots, when the forest is
built, and charges them to `init_work` there.  The Python object is made
later, with the slot record `slots_of`, where the forest first chunks a tour
(`_as_array`), or when a reader outside the forest first asks for `store`;
until then `master` is None.  Most forests never chunk: the forest of a
sparsification node whose components stay short holds no slot table at
all.  The metered counts are the same either way, since making the object
charges nothing.

Every new tree edge, a link's or a replacement's, is written by one link
(`_link`; `_splice_edges` for two small tours).  A replacement is the cut
then the link: the deletion splits the far side's tour P2 off and joins the
near side's P1 P3, as a deletion with no replacement does, and then links
the two tours by the replacement edge.  The link rotates each tour to start
at an occurrence leaving its endpoint, cutting a chunk there when the
occurrence is not the first of its chunk, concatenates the two tours and
appends each new occurrence to the last chunk of its tour.  A far side that
is a single node, a singleton's link or a replacement whose far side is one
node, needs no rotation: both occurrences go right after an occurrence
entering the near endpoint, in its chunk; a near side of one node is swapped
to the far side.  So a new tree edge never gets a chunk of its own.  A chunk
that overflows is split by the update's sizing repair, so an update
allocates chunks only for cuts, repairs and the chunking of a small tour.

Connectivity is answered in O(1) by comparing tour container identities,
reached from any incident tree edge's occurrence pointer: a small tour's
edge list object, or the aggregate tree that holds a chunked one's chunks,
which each chunk names.  A link's rotation may leave a tour in another tree,
so a tour's identity is read afresh by each query, never kept.  The
occurrence pointers are the only index of the tours; the checkers find them
from there.

An occurrence pointer is its container and a stored offset, which `locate`
turns into the edge's index: the stored offset less the chunk's `base`, the
stored offset of its first edge.  A small tour stores its indices (base 0).
So a chunk that drops or gains a front moves its base, one unit, instead
of rewriting every pointer into it, and an update rewrites, and pays for,
only the pointers of edges that change chunk, new edges and the shorter
side of an insert into the middle of a chunk (`_reindex_chunk`).

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

`slots_of` maps a node to the OR of `1 << slot` over the chunks holding its
tour occurrences, the part of a link vector one non-tree neighbour gives.
It is filled lazily: the link computation (`_links_of`) stores each mask it
derives from `nbr` and `edge_occ` and reads it back until a node's entry is
dropped.  An entry is dropped wherever an occurrence of its node is written
into a chunk or taken out of one: by `_reindex_chunk` for both endpoints of
every edge it writes into a chunk other than the one that held it, which
covers the new tree edges of `_link` (an edge that moves with its chunk's
base or is rewritten in its own chunk changes no mask), by `_cut_out` for
the removed edge and by `_maybe_shrink` for every node of a demoted tour.
So every entry holds, and no node outside a chunk has one.  The record is
made with the master array and is None before, which most forests, whose
tours stay small, never reach; `oracle.check_euler_forest` recomputes every
entry.

Every chunk an update splits, merges, chunks or reindexes goes into one
record, `_touched`, made for that update, which maps each touched chunk to
whether it is marked: whether its link vector may have changed.  A vector
is a function of the nodes its chunk's edges cover and of the non-tree
record, so a chunk is marked only where one of them changes with a node of
a non-tree edge in play: by `_reindex_chunk` when an edge with an endpoint
in `nontree` enters the chunk from another container or is new, and then
also the chunk the edge left, if it left one (this covers splits, merges,
rebalances, `_as_array` and new occurrences); by `_cut_out` and `contract`
when an edge they remove or rename has such an endpoint; and by
`_commit_large` for every chunk holding an endpoint of the promoted
replacement, whose non-tree edge goes.  Every change to a link matrix entry
that these events cause lies in the row and column of a marked chunk, which
one refresh of that chunk rewrites.  Non-tree inserts and deletes change
the record outside this flush (`_mark_linked`, `_unlink_after_delete`).
The test is charged in the step whose processor makes it.  The sizing
repair of an array works through the touched chunks of that array, and one
flush at the end of `insert_edge` or `_delete` recomputes the link vector
of each marked chunk that is still live, once, from the final tours, and
drops the record.  A chunk retired during the update is skipped: its
retirement, one store operation (`MasterArray.retire_chunk`), clears its
column before the slot is freed, and its row leaves the summaries with its
leaf.  A refresh that finds the vector a chunk already holds writes
nothing.  The only link query of an update, the replacement search, runs
before its first mutation, so the vectors may lag until the flush; they
stay symmetric throughout, since every change to them goes through the
master array.

A node g of degree 1 or 2 whose edges are all tree edges leaves its tour
in place, by contraction (`contract`).  On a path p - g - q the tour holds
(p, g) (g, q) and (q, g) (g, p): the entering occurrences are renamed in
place, (p, g) to (p, q) and (q, g) to (q, p), and the leaving ones taken
out.  A leaf g on p loses (p, g) and (g, p).  Each removal rewrites the
shorter side of its chunk around the gap.  No probe, cut or reorder runs:
every other edge keeps its place in the tour, and every node but p, q and
g its chunks.  A chunk emptied is retired, the array's sizing repair runs
on the chunks written, and the flush refreshes their link vectors when p
or q has a non-tree edge (g has none), which covers every chunk whose
vector can change; a small tour is rebuilt whole.
The contraction makes no chunk, so it needs no transient slot.  A tree
edge with an endpoint of no other edge is a leaf's: its deletion is that
contraction, with no replacement, and its probe stops at the two degree
reads.
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

# the most live chunks of the array it repairs that an update touches before
# its repairs: on a link, in each piece a deletion's cuts split apart, and once
# a replacement is linked in, the cuts' 4 and the link's 4; `depth_bounds`
# charges its repairs and flushes from them.  A link touches, per tour, the
# two halves of the one chunk its rotation cuts, of which the left one ends
# the rotated tour and takes its new occurrence, or else the one chunk that
# ends it, which it may have chunked from a small tour.
TOUCHED_ON_LINK = 4
TOUCHED_AFTER_CUT = 4
TOUCHED_ON_REPLACEMENT = 8
# a contraction writes the chunks of its two removed occurrences and of a
# degree-2 node's two renamed ones
TOUCHED_ON_CONTRACT = 4

# T, the chunks an update can hold beyond the at-rest bound R while it runs:
# the most chunks any update touches before its repairs, both pieces of a
# split counted (derived in the EulerForest docstring)
TRANSIENT_CHUNKS = max(TOUCHED_ON_LINK, 2 * TOUCHED_AFTER_CUT, TOUCHED_ON_REPLACEMENT)


def locate(occ):
    """The container and the index into its edges that the occurrence
    pointer `occ` names: its stored offset less the container's base."""
    container, stored = occ
    return container, stored - container.base


def resting_chunks(capacity, K):
    """R, the most chunks the tours of a forest over `capacity` nodes hold
    at rest: 2*capacity - 2 occurrences, at least ceil(K/2) in each chunk."""
    return (2 * capacity - 2) // -(-K // 2)


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
    """A tour short enough to live outside the master array; its occurrence
    pointers store their indices, read with base 0."""

    __slots__ = ("edges",)
    base = 0

    def __init__(self, edges):
        self.edges = edges


class EulerForest:
    """The spanning forest of a graph over node ids 0 .. capacity-1, with
    chunks of K = isqrt(3*capacity - 1) + 1 edges (at least 2) and a master
    array of J = R + T slots, the most chunks its tours can hold.  The J
    slots are charged when the forest is built; `master`, the array itself,
    is None until the first chunked tour makes it (`store`).

    At rest.  A forest has at most capacity - 1 edges, so its tours hold at
    most 2*capacity - 2 occurrences.  Every chunk of a chunked tour holds at
    least ceil(K/2) of them (the sizing repair's invariant), and a tour that
    fits in one chunk is demoted to a small tour, which holds none.  So at
    most R = floor((2*capacity - 2) / ceil(K/2)) chunks are live at rest
    (`resting_chunks`; `oracle.check_euler_forest` asserts it).

    While an update runs.  An update changes only the chunks it touches, so
    a live chunk of fewer than ceil(K/2) edges is a touched one, and the
    others number at most R, since the occurrences stay at most
    2*capacity - 2.  A repair adds no undersized chunk: it splits only
    chunks above K, into halves of at least ceil(K/2), and merges or
    rebalances an undersized chunk into one chunk or into two of at least
    ceil(K/2).  So the undersized chunks are at most the chunks the update
    touches before its repairs, which `depth_bounds` counts and charges
    from: 4 on insertion (`TOUCHED_ON_LINK`), 4 + 4 once a deletion's cuts
    are split apart (`TOUCHED_AFTER_CUT` per piece), 8 once a replacement
    is linked in (`TOUCHED_ON_REPLACEMENT`).  Hence T = `TRANSIENT_CHUNKS` = 8
    spare slots cover every allocation, and the array is never full.  With
    K ~ sqrt(3*capacity), J ~ 2.3*sqrt(capacity) + 8.

    A chunk's slot stays with its links.  Retiring a chunk that holds link
    bits reads its row, clears its column and zeroes the row, which costs
    several times the retirement of a chunk of no bits; a new chunk holds
    none until the update's flush.  So a cut (`_cut_out`) or a split
    (`_split_chunk`) leaves the chunk with its longer piece, the left one
    on a tie, and gives the new chunk the shorter piece, the one the sizing
    repair is likeliest to merge away; a cut with one piece makes no chunk.
    A repair merge of a linked chunk and an unlinked one keeps the linked
    one.  None of this moves a depth bound: each step makes and retires no
    more chunks than before, only different ones.
    """

    def __init__(self, meter: CostMeter, capacity: int):
        self.meter = meter
        self.capacity = capacity
        self.K = max(2, math.isqrt(3 * capacity - 1) + 1)
        # the master array, None until the first chunked tour (`store`)
        self.master = None
        self.nbr = {}
        self.edge_occ = {}
        # each node with a non-tree edge -> its non-tree neighbours, in nbr
        # order; written only where an edge's tree status changes
        self.nontree = _NO_NONTREE
        # node -> OR of the slot bits of the chunks holding its occurrences,
        # filled by _links_of; None until the master array is made
        self.slots_of = None
        # chunks the current update touched, in insertion order, each mapped
        # to whether its link vector may have changed (marked): made when an
        # update that can touch chunks starts, the worklist of its sizing
        # repairs and, once it ends, of the link flush, which refreshes the
        # marked ones and drops it; None at rest
        self._touched = None
        with meter.initialization():
            # the model allocates the master array's J slots here
            meter.charge(capacity + self._slot_count())

    def _slot_count(self):
        """J = R + T, the master array's slots."""
        return resting_chunks(self.capacity, self.K) + TRANSIENT_CHUNKS

    @property
    def store(self):
        """The master array, made with the slot record on its first read:
        on the forest's first chunked tour (`_as_array`), or when a reader
        outside the forest asks for it.  Its J slots were charged when the
        forest was built, so making it charges nothing."""
        if self.master is None:
            self.master = MasterArray(self.meter, self._slot_count(), self.K)
            self.slots_of = {}
        return self.master

    @staticmethod
    def depth_bounds(policy) -> dict:
        """Upper bounds on the metered depth of the edge operations, summed
        over the sequential calls each makes into the master array; node
        changes and queries charge no depth.

        Loop counts come from the degree bound and the repair invariant:
        every chunk of an array at rest holds at least K/2 edges, and an
        operation touches at most 4 live chunks of the array it repairs on
        insertion, 4 after cutting out a deleted edge and 8 once its
        replacement is linked in.  A replacement is the split and join of a
        delete with no replacement, then the link that an insertion makes.
        The link cuts each tour once, one cut after the other, then rotates
        the two tours side by side (`reorder`), joins them and writes its
        two occurrences.  Each cut touches the two halves of a chunk it
        splits, the left one of which takes a new occurrence, or else the
        chunk that takes it is the one more it touches; a link touches
        nothing else but the one chunk it makes of a small tour, which its
        cut may split.  A far side of one node takes no cut and no rotation,
        only a write, so the full link bounds it.  A new tree edge's
        occurrences are written into chunks already there, so they add no
        chunk.  A repair splits an oversized chunk or merges or rebalances
        an undersized one at most once per touched chunk and may add one
        chunk per touched chunk, and a tour short enough to demote then
        spans at most 2 chunks.

        Link vectors are refreshed only by the flush that ends an update,
        once per marked chunk still live.  A chunk is marked where an edge
        with an endpoint of a non-tree edge enters it, leaves it for another
        chunk, or is removed or renamed in it, and on a replacement where it
        holds an endpoint of the promoted edge; every marked chunk is a
        touched one.  So the refreshes are at most the chunks its repairs
        end with, plus on a replacement the up to 2 x 6 chunks holding the
        promoted edge's endpoints.

        A contraction touches at most the 4 chunks of its node's
        occurrences and cuts none, so it stays below a delete, whose
        probe and commit it skips; a delete with a lone endpoint is one, and
        a gadget counts one as an edge deletion.
        """
        store = MasterArray.depth_bounds(policy)
        select = pick_depth(policy)  # the replacement among the candidates
        insert_chunk = store["insert_chunk"]
        refresh = 2 + store["bulk_set_links"]  # _refresh_links
        retire = store["retire_chunk"]  # _retire_chunk
        as_array = 1 + (insert_chunk + 2)  # drop, the one chunk
        split = insert_chunk + 1  # _split_chunk: the new chunk, its reindex
        write = 1  # a new occurrence written into a chunk: its reindex
        cut_out = max(split, retire)  # _cut_out: a split, a base write or a retirement
        shrink = 1 + 2 * retire + 1  # _maybe_shrink

        def repair(touched):  # _repair: a split, or a merge and its retirement
            return touched * max(split, 1 + retire) + shrink

        def flush(marked):  # _flush_links: the liveness filter, then refreshes
            return 1 + marked * refresh

        def link(touched):  # _link: two cuts, two rotations in one step, the join, two writes
            rotations = 1 + store["reorder"]
            return 2 * split + rotations + store["concatenate"] + 2 * write + repair(touched)

        # _merge_tours: a small splice, or the link of two chunked tours,
        # then the flush; a chunked tour is not summed, and a small tour's
        # length charges nothing
        merge = max(4, 2 * as_array + link(TOUCHED_ON_LINK)) + flush(2 * TOUCHED_ON_LINK)
        mark_linked = 1 + _OCCURRENCES**2 * store["link"]
        unlink = _OCCURRENCES * (1 + _OCCURRENCES * store["unlink"]) + 1
        probe_small = 2 + select
        commit_small = 4
        # _probe_large: the two cut chunks' node lists and their scan, then per
        # near range a query, the node lists of the pair it returns and a scan
        probe_large = 3 + 2 * (store["query"] + 3) + select
        # P3's and P2's splits and P1 P3's join, then two repairs with no
        # replacement or the replacement's link; flushed: two split-off
        # repairs of at most 4 touched, or one repair of 8 touched plus the
        # chunks of the promoted edge's endpoints
        commit_large = (
            2 * cut_out + 2 * store["split_array"] + store["concatenate"]
            + max(2 * repair(TOUCHED_AFTER_CUT), link(TOUCHED_ON_REPLACEMENT))
        ) + flush(
            max(
                2 * 2 * TOUCHED_AFTER_CUT,
                2 * TOUCHED_ON_REPLACEMENT + 2 * _OCCURRENCES,
            )
        )
        # `contract`: a degree-2 node's two renames in one step, the two
        # removals (a reindex or a retirement each), the repair and the
        # flush; a small tour is dropped, rebuilt and adopted
        contract = max(
            3,
            1 + 2 * max(write, retire) + repair(TOUCHED_ON_CONTRACT)
            + flush(2 * TOUCHED_ON_CONTRACT),
        )
        return {
            "insert": max(mark_linked, merge),
            "delete": max(
                unlink, probe_small + commit_small, probe_large + commit_large
            ),
            "find_replacement": max(probe_small, probe_large),
            "contract": contract,
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
        # a processor per (a, b) pair tests one bit; vectors are symmetric
        self.meter.parallel_charge(len(cu) * len(cv))
        for a in cu:
            for b in cv:
                if not (a.bits >> b.slot) & 1:
                    self.master.link(a, b)

    def _merge_tours(self, u, v):
        tid_u, tid_v = self._tree_id(u), self._tree_id(v)
        # a chunked tour at rest holds more than K edges, so only two small
        # tours or singletons can fit one chunk; a chunked tour is not summed
        unchunked = (tuple, SmallTour)
        total = self.K + 1
        if isinstance(tid_u, unchunked) and isinstance(tid_v, unchunked):
            total = self._tour_len(tid_u) + self._tour_len(tid_v) + 2
        if total <= self.K:
            # both tours are small; splice the edge lists directly
            near = [] if isinstance(tid_u, tuple) else tid_u.edges
            far = [] if isinstance(tid_v, tuple) else tid_v.edges
            self._drop_container(tid_u)
            self._drop_container(tid_v)
            self._adopt_small(_splice_edges(near, far, (u, v)))
            self.meter.parallel_charge(total)
            return
        a_u = self._as_array(tid_u)
        a_v = self._as_array(tid_v)
        if a_u is None:
            u, v, a_u, a_v = v, u, a_v, a_u  # a singleton is the far side
        self._link(a_u, a_v, (u, v))

    # -- edge deletion -----------------------------------------------------------

    def delete_edge(self, u, v):
        return self._delete(u, v, None)

    def delete_edge_with_hint(self, u, v, hint):
        """Delete (u, v), adopting the hint as the replacement if it crosses
        the cut; the hint must be a non-tree edge on (u, v)'s tour, which
        `_delete` checks, or for a non-tree (u, v) the deletion itself.
        Every check runs before any change and charges nothing."""
        if hint is not None:
            a, b = hint
            if b not in self.nbr.get(a, ()):
                raise ForestError(f"hint ({a},{b}) is not an edge")
            if (a, b) in self.edge_occ:
                raise ForestError(f"hint ({a},{b}) is a tree edge")
        return self._delete(u, v, hint)

    def find_replacement(self, u, v):
        """What delete_edge(u, v) would report, without mutating anything."""
        self._require_edge(u, v)
        if (u, v) not in self.edge_occ:
            return ReplacementReport(ReplacementReport.NON_TREE)
        if self._lone_endpoint(u, v) is not None:
            return ReplacementReport(ReplacementReport.SPLIT)
        container = self.edge_occ[(u, v)][0]
        if isinstance(container, SmallTour):
            *_, pair = self._probe_small(container, u, v, None)
        else:
            *_, pair = self._probe_large(container.array, u, v, None)
        return self._report(pair)

    def _delete(self, u, v, hint):
        self._require_edge(u, v)
        # a hint's endpoints share a tree, so one of them places it
        if hint is not None and self._tree_id(hint[0]) is not self._tree_id(u):
            raise ForestError("hint (%d,%d) is off the tour of (%d,%d)" % (*hint, u, v))
        if (u, v) not in self.edge_occ:
            self._remove_adjacency(u, v)
            self._drop_nontree(u, v)
            self._unlink_after_delete(u, v)
            return ReplacementReport(ReplacementReport.NON_TREE)
        lone = self._lone_endpoint(u, v)
        if lone is not None:
            self.contract(lone)
            return ReplacementReport(ReplacementReport.SPLIT)
        # each probe changes nothing; the update's record opens after it
        container = self.edge_occ[(u, v)][0]
        if isinstance(container, SmallTour):
            i1, i2, pair = self._probe_small(container, u, v, hint)
            self._touched = {}
            self._remove_adjacency(u, v)
            self._commit_small(container, i1, i2, pair)
        else:
            lo, hi, pair = self._probe_large(container.array, u, v, hint)
            self._touched = {}
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
                    self.master.unlink(a, b)
        # one CRCW step of a processor per (a, b) pair, each testing one bit
        # of a's fresh vector; `_links_of` charges the scans that built them
        self.meter.parallel_charge(len(cu) * len(cv))

    # -- contraction ----------------------------------------------------------------

    def contract(self, g):
        """Take g, whose edges are all tree edges and number 1 or 2, out of
        its tour in place: the forest without g, where g stays active and
        isolated.  A leaf's edge (p, g) goes; a node of degree 2 on (p, g)
        and (g, q) leaves the tree edge (p, q) in their place, and g's entry
        in the adjacency of p and of q becomes the other.  Every check runs
        before any change and charges nothing."""
        self._require_active(g)
        nbrs = self.nbr[g]
        if not 1 <= len(nbrs) <= 2:
            raise ForestError(f"node {g} has degree {len(nbrs)}, not 1 or 2")
        p, q = nbrs[0], nbrs[-1]  # q is p for a leaf
        edge_occ = self.edge_occ
        if (g, p) not in edge_occ or (g, q) not in edge_occ:
            raise ForestError(f"node {g} has a non-tree edge")
        if p == q:
            renames, removed = (), ((p, g), (g, p))
            self.nbr[p].remove(g)
        elif q in self.nbr[p]:
            raise ForestError(f"({p},{q}) is already an edge")
        else:
            renames, removed = (((p, g), (p, q)), ((q, g), (q, p))), ((g, q), (g, p))
            for x, y in ((p, q), (q, p)):
                xs = self.nbr[x]
                xs[xs.index(g)] = y
        self.nbr[g] = []
        self.meter.charge(4)
        container = edge_occ[(p, g)][0]
        if isinstance(container, SmallTour):
            edges = container.edges
            self._drop_container(container)
            self.meter.parallel_charge(len(edges))
            for old, new in renames:
                edges[edges.index(old)] = new
                del edge_occ[old]
            for e in removed:
                edges.remove(e)
                del edge_occ[e]
            self._adopt_small(edges)
            return
        array = container.array
        self._touched = touched = {}
        # the chunks written are marked when p or q has a non-tree edge: g
        # has none, so no other node's chunks change a link; two tests
        marked = p in self.nontree or q in self.nontree
        self.meter.charge(2)
        if renames:
            # one step: each entering occurrence takes its new name in place
            for old, new in renames:
                c, off = locate(edge_occ.pop(old))
                c.edges[off] = new
                edge_occ[new] = (c, c.base + off)
                touched[c] = marked
            self.meter.parallel_charge(2)
        for e in removed:
            c, off = locate(edge_occ.pop(e))
            del c.edges[off]
            if not c.edges:
                self._retire_chunk(c)
                continue
            if 2 * off < len(c.edges):  # the head is the shorter side
                self._reindex_chunk(c, 0, off, -1)
            else:
                self._reindex_chunk(c, off)
            touched[c] = marked
        self._moved(g, p, q)
        self._repair(array)
        self._flush_links()

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

    def _lone_endpoint(self, u, v):
        """The endpoint of tree edge (u, v) that has no other edge, or None.
        That endpoint is all of its side of the cut and no edge leaves it,
        so the deletion has no replacement.  The two degree reads are
        charged here when they find one, else in the probe's first step."""
        for x in (u, v):
            if len(self.nbr[x]) == 1:
                self.meter.charge(2)
                return x
        return None

    def _commit_small(self, tour, i1, i2, pair):
        edges = tour.edges
        p1, p2, p3 = edges[:i1], edges[i1 + 1 : i2], edges[i2 + 1 :]
        self._drop_container(tour)
        del self.edge_occ[edges[i1]], self.edge_occ[edges[i2]]
        if pair is None:
            self._adopt_small(p3 + p1)
            self._adopt_small(p2)
            self.meter.parallel_charge(len(edges))
            return
        self._adopt_small(_splice_edges(p3 + p1, p2, pair))
        self.meter.parallel_charge(len(edges))

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

    def _drop_container(self, tid):
        """Charge the release of a small tour's occurrence pointers.  Every
        caller rewrites the pointers of the tour's surviving edges right
        after (`_adopt_small` or `_reindex_chunk`), so none is popped here;
        a deletion pops its own edge's two."""
        if isinstance(tid, SmallTour):
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
        """Chunked form of a tour (None for a singleton).  A small tour
        holds at most K edges, so it becomes an array of one chunk."""
        if isinstance(tid, tuple):
            return None
        if not isinstance(tid, SmallTour):
            return tid
        edges = tid.edges
        self._drop_container(tid)
        store = self.store
        array = store.new_array()
        c = store.alloc_chunk(edges)
        store.insert_chunk(array, 0, c)
        self._reindex_chunk(c)
        self.meter.parallel_charge(len(edges))
        self._touched.setdefault(c, False)
        return array

    def _reindex_chunk(self, c, start=0, stop=None, shift=0):
        """Point c.edges[start:stop] at their offsets in c, after moving the
        offset of every other edge of c by `shift` (`_move_base`).  Only the
        rewritten edges are charged, in one step unless nothing is written.
        The `slots_of` entries of both endpoints of a rewritten edge are
        dropped when the edge comes from another container or none, and
        when an endpoint has a non-tree edge, c is marked in the update's
        record, and so is the chunk the edge left, if it left one; an edge
        that stays in c leaves every mask and link as it was.  Each edge's
        processor reads its old pointer, tests its two endpoints against
        `nontree` and writes its new pointer."""
        edges = c.edges
        if stop is None:
            stop = len(edges)
        if shift:
            self._move_base(c, shift)
        base = c.base
        edge_occ = self.edge_occ
        drop = self.slots_of.pop
        nontree = self.nontree
        touched = self._touched
        for off in range(start, stop):
            e = edges[off]
            old = edge_occ.get(e)
            if old is None or old[0] is not c:
                drop(e[0], None)
                drop(e[1], None)
                if e[0] in nontree or e[1] in nontree:
                    touched[c] = True
                    if old is not None and not isinstance(old[0], SmallTour):
                        touched[old[0]] = True
            edge_occ[e] = (c, base + off)
        if stop > start or shift:
            self.meter.parallel_charge(stop - start, 4)

    def _move_base(self, c, shift):
        """Move the offset of every edge of c by `shift`: one write, of c's
        base, charged one unit in the step of the reindex that asks it."""
        c.base -= shift
        self.meter.charge(1)

    def _write_occurrences(self, c, at, new):
        """Insert the occurrences `new` into c before c.edges[at], rewriting
        them and the shorter side of c around them: the head before `at`,
        with the base moving the tail, when it is shorter, else the tail.
        Touches c."""
        c.edges[at:at] = new
        k = len(new)
        if 2 * at + k < len(c.edges):  # the head is the shorter side
            self._reindex_chunk(c, 0, at + k, k)
        else:
            self._reindex_chunk(c, at)
        self._touched.setdefault(c, False)

    def _split_chunk(self, c, at, gap=0):
        """Split c before c.edges[at], dropping the `gap` edges there (a
        cut's one): c keeps the longer piece, the left one on a tie, and a
        new chunk beside it takes the other.  Only the new chunk's edges
        are rewritten; a kept right piece moves with c's base in that step.
        Both are touched, left first.  Returns the (left, right) pieces."""
        left, right = c.edges[:at], c.edges[at + gap :]
        if len(right) > len(left):
            c.edges = right
            self._move_base(c, -at - gap)
            nc = self.master.alloc_chunk(left)
            self.master.insert_chunk(c.array, c.pos, nc)
            pieces = (nc, c)
        else:
            c.edges = left
            nc = self.master.alloc_chunk(right)
            self.master.insert_chunk(c.array, c.pos + 1, nc)
            pieces = (c, nc)
        # both pieces enter the record, left first, before the reindex can
        # mark one: the record's order is the repairs' worklist order
        for piece in pieces:
            self._touched.setdefault(piece, False)
        self._reindex_chunk(nc)
        return pieces

    def _target_occurrence(self, node):
        for w in self.nbr[node]:
            occ = self.edge_occ.get((w, node))
            if occ is not None:
                return locate(occ)
        raise AssertionError(f"no target occurrence for {node}")

    def _probe_large(self, array, u, v, hint):
        """(u, v)'s lower and upper (edge, occurrence) and the replacement
        as a (near, far) pair, or None."""
        occ1 = locate(self.edge_occ[(u, v)])
        occ2 = locate(self.edge_occ[(v, u)])
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
                c, off = locate(occ)
                return lo_key < (c.pos, off) < hi_key
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

        # one CRCW step: a processor per non-tree edge of a node of the cut
        # chunks, at most 3 per node by the degree bound, and a chunk of e
        # edges holds at most e + 1 nodes (`_chunk_nodes`)
        c_lo, c_hi = lo[1][0], hi[1][0]
        scan_nodes(self._chunk_nodes(c_lo))
        scanned = len(c_lo.edges) + 1
        if c_hi is not c_lo:
            scan_nodes(self._chunk_nodes(c_hi))
            scanned += len(c_hi.edges) + 1
        self.meter.parallel_charge(3 * scanned)
        n = len(array)
        p2_range = (c_lo.pos + 1, c_hi.pos)
        for near_range in ((0, c_lo.pos), (c_hi.pos + 1, n)):
            if near_range[0] >= near_range[1] or p2_range[0] >= p2_range[1]:
                continue
            pair = self.master.query(array, *near_range, *p2_range)
            if pair is not None:
                near_nodes = self._chunk_nodes(pair[0])
                far_set = set(self._chunk_nodes(pair[1]))
                for x in near_nodes:
                    for y in nontree.get(x, ()):
                        if y not in far_set or (x, y) in seen:
                            continue
                        seen.add((x, y))
                        candidates.append((x, y))
                # the same step over the near chunk's nodes
                self.meter.parallel_charge(3 * (len(pair[0].edges) + 1))
        return lo, hi, self.meter.pick(candidates) if candidates else None

    def _commit_large(self, array, lo, hi, pair):
        # cut out both occurrences, low position first; the second cut resolves
        # its chunk afresh since the first may have moved or split it; the
        # array is then P1 = [0, a), P2 = [a, b), P3 = [b, n)
        a = self._cut_out(lo[0])
        b = self._cut_out(hi[0])
        # P2 splits off as the far side's tour and P1 P3 joins as the near
        # side's; a side of one node holds no chunk
        p3 = self.master.split_array(array, b)
        p2 = self.master.split_array(array, a)
        self.master.concatenate(array, p3)
        if pair is None:
            # the far tour is not empty, since a lone far endpoint is a
            # leaf's contraction
            self._repair(array)
            self._repair(p2)
            return
        if not array:
            pair = pair[::-1]  # a single-node near side goes far
            array, p2 = p2, array
        self._link(array, p2, pair)
        # the promoted edge no longer justifies links anywhere: every chunk
        # holding another occurrence of its endpoints is marked
        for node in pair:
            for c in self._chunks_of(node):
                self._touched[c] = True

    def _link(self, near, far, pair):
        """Join the chunked tours `near` of w_near and `far` of w_far by the
        new tree edge `pair` = (w_near, w_far), then repair the result.

        Each tour is rotated to start at an occurrence leaving its endpoint
        (`_cut_at_source`, then `reorder`), the two rotations side by side,
        and `far` is appended to `near`: the tour is Y (w_near,w_far) X
        (w_far,w_near) with Y and X the rotated tours.  Each new occurrence
        is appended to the last chunk of its tour, which rewrites only
        itself.  A far side that is a single node (`far` None or empty)
        needs no rotation: both occurrences go right after an occurrence
        (x, w_near), in its chunk, rewriting the shorter side of it too
        (`_write_occurrences`)."""
        w_near, w_far = pair
        if not far:
            c, off = self._target_occurrence(w_near)
            self._write_occurrences(c, off + 1, ((w_near, w_far), (w_far, w_near)))
            self._repair(near)
            return
        tours = [near, far]
        starts = [self._cut_at_source(w_near), self._cut_at_source(w_far)]

        def rotate(k):
            tours[k] = self.master.reorder(tours[k], starts[k].pos)

        self.meter.parallel_for(2, rotate)
        near, far = tours
        ends = (near.leaves[-1], (w_near, w_far)), (far.leaves[-1], (w_far, w_near))
        self.master.concatenate(near, far)
        for c, e in ends:
            self._write_occurrences(c, len(c.edges), (e,))
        self._repair(near)

    def _cut_out(self, edge):
        """Remove `edge` from its chunk, splitting the chunk at that point
        as `_split_chunk` does.  A piece that is alone stays in the chunk,
        with no allocation and no rewrite: after a chunk's first edge the
        rest moves with the base.  A chunk left empty is retired.

        The chunk is marked when an endpoint of the edge has a non-tree
        edge: two tests.  Returns the array position where the removed edge
        used to sit (the boundary between the left and right pieces).
        """
        c, off = locate(self.edge_occ.pop(edge))
        self._moved(*edge)
        pos = c.pos
        if 0 < off < len(c.edges) - 1:
            self._split_chunk(c, off, 1)
        else:
            del c.edges[off]
            if not c.edges:
                self._retire_chunk(c)
            else:
                if not off:
                    self._reindex_chunk(c, stop=0, shift=-1)
                self._touched.setdefault(c, False)
        self.meter.charge(2)
        if edge[0] in self.nontree or edge[1] in self.nontree:
            self._touched[c] = True
        return pos + (off > 0)

    def _cut_at_source(self, node):
        """Split a chunk of node's chunked tour so that an occurrence
        (node, ?) starts it, the first such in `nbr` order; returns that
        chunk."""
        for w in self.nbr[node]:
            occ = self.edge_occ.get((node, w))
            if occ is not None:
                c, off = locate(occ)
                return self._split_chunk(c, off)[1] if off else c
        raise AssertionError(f"no source occurrence for {node}")

    # -- sizing repairs and the link flush ------------------------------------

    def _repair(self, array):
        """Restore K/2 <= |chunk| <= K on the touched chunks of `array`, then
        demote it if its tour now fits in one small tour.  An oversized
        chunk is split in half (`_split_chunk`).  An undersized one merges
        with a neighbour when both fit in one chunk: the left one takes the
        edges and the right one is retired, unless only the right one holds
        link bits, which then takes them; otherwise the two share their
        edges evenly.  Only the edges that change chunk are rewritten: a
        right chunk that gains or loses a front moves its base."""
        K = self.K
        touched = self._touched
        queue = [c for c in touched if c.array is array]
        while queue:
            c = queue.pop()
            if c.array is not array:
                continue
            if len(c.edges) > K:
                queue.extend(self._split_chunk(c, len(c.edges) // 2))
                continue
            if 2 * len(c.edges) < K and len(array) > 1:
                pos = c.pos
                other = array.leaves[pos - 1] if pos > 0 else array.leaves[pos + 1]
                left, right = (other, c) if other.pos < pos else (c, other)
                kept = len(left.edges)  # left's own edges keep their offsets
                combined = left.edges + right.edges
                if len(combined) <= K:
                    # a linked chunk outlives an unlinked partner and
                    # rewrites only the edges it takes in
                    if right.bits and not left.bits:
                        keep, gone = right, left
                        right.edges = combined
                        self._reindex_chunk(right, 0, kept, kept)
                    else:
                        keep, gone = left, right
                        left.edges = combined
                        self._reindex_chunk(left, kept)
                    self._retire_chunk(gone)
                    touched.setdefault(keep, False)
                    queue.append(keep)
                else:
                    # only the edges that cross the boundary are rewritten;
                    # right's own move by kept - half, the edges it gains at
                    # its front (loses, when negative)
                    half = len(combined) // 2
                    left.edges = combined[:half]
                    right.edges = combined[half:]
                    self._reindex_chunk(left, min(kept, half))
                    self._reindex_chunk(right, 0, max(kept - half, 0), kept - half)
                    touched.setdefault(left, False)
                    touched.setdefault(right, False)
        self._maybe_shrink(array)

    def _retire_chunk(self, c):
        self.master.retire_chunk(c)

    def _maybe_shrink(self, array):
        """Demote an array to a small tour when it fits under the threshold.
        After a repair every chunk of an array of 3 or more holds at least
        ceil(K/2) edges, so only an array of at most 2 chunks is summed."""
        if len(array) > 2:
            return
        total = self._tour_len(array)
        if total == 0 or total > self.K:
            return
        edges = []
        for c in array.leaves:
            edges.extend(c.edges)
        for c in list(array.leaves):
            self._retire_chunk(c)
        self._moved(*(a for a, _ in edges))  # a tour's sources are its nodes
        self._adopt_small(edges)

    def _flush_links(self):
        """Refresh, once each, the link vectors of the chunks this update
        marked that are still live; a touched chunk left unmarked holds the
        vector it held, and a retired chunk's links were cleared when it was
        retired.  The update's record is dropped."""
        touched, self._touched = self._touched, None
        if not touched:
            return
        slots = self.master.slots
        self.meter.parallel_charge(len(touched))
        for c, marked in touched.items():
            if marked and slots.get(c.slot) is c and c.array is not None:
                self._refresh_links(c)

    def _refresh_links(self, c):
        fresh = self._links_of(c)
        self.meter.parallel_charge(3 * len(c.edges) + 2)
        self.master.bulk_set_links(c, fresh)

    def _links_of(self, c):
        """Slot bits of every chunk holding a tour occurrence of a non-tree
        neighbour of a node of c: c's link vector.  The chunk is a stretch
        of a tour, so its nodes are its edges' sources and its last edge's
        target; the scan over them is charged as one parallel step.  A
        non-tree neighbour lies on c's own chunked tour, where its
        occurrences are both directions of each of its tree edges.  Each
        neighbour's bits are read from `slots_of`; a node without an entry
        has its tree edges walked once and the result stored."""
        edges = c.edges
        self.meter.parallel_charge(len(edges))
        nontree = self.nontree
        nbr = self.nbr
        edge_occ = self.edge_occ
        slots_of = self.slots_of
        nodes = {a for a, _ in edges}
        nodes.add(edges[-1][1])
        mask = 0
        for x in nontree.keys() & nodes:
            for y in nontree[x]:
                bits = slots_of.get(y)
                if bits is None:
                    bits = 0
                    for w in nbr[y]:
                        occ = edge_occ.get((y, w))
                        if occ is not None:
                            bits |= 1 << occ[0].slot | 1 << edge_occ[(w, y)][0].slot
                    slots_of[y] = bits
                mask |= bits
        return mask

    def _moved(self, *nodes):
        """Drop the `slots_of` entries of nodes whose occurrences moved."""
        drop = self.slots_of.pop
        for v in nodes:
            drop(v, None)

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


def _splice_edges(near, far, pair):
    """The small-tour form of `EulerForest._link`: the edge list
    Y' (w_near,w_far) X'' X' (w_far,w_near) Y'' of the near walk Y and the
    far walk X, each cut before its first edge leaving its endpoint of
    `pair` (anywhere when it has none, as for a single node).  Read
    cyclically, it is Y rotated at w_near, then (w_near,w_far), then X
    rotated at w_far, then (w_far,w_near)."""
    w_near, w_far = pair
    a = _cut_index(near, w_near)
    b = _cut_index(far, w_far)
    return near[:a] + [(w_near, w_far)] + far[b:] + far[:b] + [(w_far, w_near)] + near[a:]


def _cut_index(seq, node):
    """First index whose edge leaves `node` (cyclic cut point), else 0."""
    for i, (a, b) in enumerate(seq):
        if a == node:
            return i
    return 0

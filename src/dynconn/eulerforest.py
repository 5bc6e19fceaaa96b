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
later, where the forest first chunks a tour (`_as_array`), or when a reader
outside the forest first asks for `store`; until then `master` is None.
Most forests never chunk: the forest of a sparsification node whose
components stay short holds no slot table at all.  The metered counts are
the same either way, since making the object charges nothing.

Every new tree edge, a link's or a replacement's, is written by one link
(`_link`; `_splice_edges` for two small tours).  A replacement is the cut
then the link: the deletion splits the far side's tour P2 off and joins the
near side's P1 P3, as a deletion with no replacement does, and then links
the two tours by the replacement edge.  A tour is cyclic, so neither a cut
nor a link splits a chunk: each swaps the pieces of the two chunks around
it.  A cut takes its two occurrences out of c_lo = x lo y and c_hi = z hi w
and leaves the junctions x w and z y, the far tour's two ends meeting
cyclically; its chunks keep their fronts or their backs and trade the
other pieces, and a far side inside one chunk becomes a small tour at once.
A link of two chunked tours cuts c = a b and d = a' b' at occurrences
leaving its endpoints and makes them a (w_near,w_far) b' and
a' (w_far,w_near) b, or the mirror of that, each tour rotated at a chunk
boundary to end or to start with its chunk.  A small or single-node far
side is written into one chunk of the near tour, after an occurrence
entering the near endpoint; a near side of one node is swapped to the far
side.  So a new tree edge never gets a chunk of its own, and an update
allocates chunks only for its repairs' splits and the chunking of a small
tour; a swapped chunk may exceed K, and the sizing repair splits it.

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
side of an edit inside a chunk (`_reindex_chunk`).  Every edit of a
chunk's edges in place, a cut's, a link's, a contraction's or a repair
merge's, is one `_splice`, which rewrites the shorter side around it.

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
record, `_touched`, made for that update, which maps each touched chunk to
whether it is marked: whether its link vector may have changed.  A vector
is a function of the nodes its chunk's edges cover and of the non-tree
record, so a chunk is marked only where one of them changes with a node of
a non-tree edge in play: by `_reindex_chunk` when an edge with an endpoint
in `nontree` enters the chunk from another container or is new, and then
also the chunk the edge left, if it left one (this covers splits, merges,
rebalances, swapped pieces, `_as_array` and new occurrences); by
`_commit_large` and `contract` when an edge they remove or rename has such
an endpoint, or a node of a far walk that leaves its chunk does; and by
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
# its repairs: on a link, in each piece a deletion's cut separates, and once a
# replacement is linked in, the cut's 2 and the link's 2; `depth_bounds`
# charges its repairs and flushes from them.  A link rewrites one chunk per
# tour, the one holding the occurrence it swaps the pieces at, or the one
# chunk a small far tour is written into; a cut rewrites the chunk of each
# of its two occurrences, which end in the two pieces, or one chunk.
TOUCHED_ON_LINK = 2
TOUCHED_AFTER_CUT = 1
TOUCHED_ON_REPLACEMENT = 4
# a contraction writes the chunks of its two removed occurrences and of a
# degree-2 node's two renamed ones
TOUCHED_ON_CONTRACT = 4
# the most chunks that an update's sizing repairs split off, from the sizes
# of the chunks it touches (derived in `EulerForest.depth_bounds`); a
# contraction only shrinks chunks and splits none
SPLITS_ON_LINK = 2
SPLITS_AFTER_CUT = 1
SPLITS_ON_REPLACEMENT = 3

# T, the chunks an update can hold beyond the at-rest bound R while it runs:
# at every allocation at most one live chunk holds fewer than ceil(K/2) edges
# (derived in the EulerForest docstring)
TRANSIENT_CHUNKS = 1


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
    2*capacity - 2.  Only `_as_array` and a repair's split make a chunk.
    `_as_array` runs only on an insertion, before any chunk changes (a
    replacement's far walk, at most K - 2 edges, always fits the chunk it
    is written into), and chunks a second small tour only when both hold
    at least K - 1 edges, so the one chunk it may leave undersized is the
    first it makes.  A repair runs its merges first: each undersized
    touched chunk of its array merges into one chunk or rebalances into
    two of at least ceil(K/2), or is the array's only chunk, which leaves
    nothing to split; a split cuts a chunk above K into pieces of at least
    ceil(K/2).  So a repair splits only while its array holds no
    undersized chunk, and every other array is at rest but on a cut with
    no replacement, whose near repair runs while the far piece still holds
    its one touched chunk.  Hence at every allocation at most one live
    chunk is undersized, T = `TRANSIENT_CHUNKS` = 1 spare slot covers it,
    and the array always has a free slot when a chunk is made.  The bound
    is reached: a cut with no replacement on a path whose other chunks
    hold ceil(K/2) edges each can leave R + 1 chunks live while its near
    repair splits.  With K ~ sqrt(3*capacity), J ~ 2.3*sqrt(capacity) + 1.

    A chunk's slot stays with its links.  Retiring a chunk that holds link
    bits reads its row, clears its column and zeroes the row, which costs
    several times the retirement of a chunk of no bits; a new chunk holds
    none until the update's flush.  So a cut or a link keeps both of its
    chunks, each in its slot, and retires one only when it is left empty;
    a repair split (`_split_chunk`) leaves the chunk with its longer
    piece, the left one on a tie, and gives the new chunk the shorter one;
    and a repair merge of a linked chunk and an unlinked one keeps the
    linked one.  Since a repair runs its merges before its splits, no
    chunk it makes is merged away in the same update.
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
        """The master array, made on its first read: on the forest's first
        chunked tour (`_as_array`), or when a reader outside the forest asks
        for it.  Its J slots were charged when the forest was built, so
        making it charges nothing."""
        if self.master is None:
            self.master = MasterArray(self.meter, self._slot_count(), self.K)
        return self.master

    @staticmethod
    def depth_bounds(policy) -> dict:
        """Upper bounds on the metered depth of the edge operations, summed
        over the sequential calls each makes into the master array; node
        changes and queries charge no depth.

        Loop counts come from the degree bound and the repair invariant:
        every chunk of an array at rest holds at least K/2 edges and at
        most K.  No cut or link makes a chunk; each rewrites the chunks at
        its occurrences in place.  A link of two chunked tours rotates them
        side by side (`reorder`), joins them and writes its two chunks, each
        keeping one piece of its own and taking one of the other's, so it
        touches 2 chunks of at most 2K edges each; a small or empty far
        tour is one write into one chunk, which it leaves at most 2K, or
        else is chunked and linked so.  A cut is two boundary splits, one
        join and a write or a retirement per cut chunk, and touches one
        chunk per piece, of at most 2K - 2 edges; a far side inside one
        chunk takes a write or a retirement, a test step and the small
        tour's adoption, and no tree call.  A replacement is that cut,
        then the link, so its repair sees at most 4 touched chunks: the
        cut's two, of at most 2K - 2 edges together, and the link's two,
        which held at most K each unless they are the cut's, plus the 2
        new occurrences, at most 4K edges in all.

        A repair first merges or rebalances each undersized touched chunk
        at most once, a reindex and a retirement or two reindexes, then
        splits a chunk of L > K edges ceil(L/K) - 1 times.  A rebalance or
        a merge never makes more splits than its touched partner needed on
        its own, so the splits are at most the sum of (L - 1)//K over the
        touched chunks: 2 on a link, 1 per cut piece and 3 on a
        replacement (`SPLITS_*`), from the sizes above.  A tour short enough
        to demote then spans at most 2 chunks.

        Link vectors are refreshed only by the flush that ends an update,
        once per marked chunk still live.  A chunk is marked where an edge
        with an endpoint of a non-tree edge enters it, leaves it for another
        chunk, or is removed or renamed in it, and on a replacement where it
        holds an endpoint of the promoted edge; every marked chunk is a
        touched one.  A repair's split adds one chunk to the record, a
        rebalance at most its partner and a merge none, so the refreshes
        are at most twice the touched chunks plus the splits, plus on a
        replacement the up to 2 x 6 chunks holding the promoted edge's
        endpoints.

        A contraction touches at most the 4 chunks of its node's
        occurrences, cuts none and splits none, so it stays below a delete,
        whose probe and commit it skips; a delete with a lone endpoint is
        one, and a gadget counts one as an edge deletion.
        """
        store = MasterArray.depth_bounds(policy)
        select = pick_depth(policy)  # the replacement among the candidates
        insert_chunk = store["insert_chunk"]
        refresh = 2 + store["bulk_set_links"]  # _refresh_links
        retire = store["retire_chunk"]  # _retire_chunk
        as_array = 1 + (insert_chunk + 2)  # drop, the one chunk
        split = insert_chunk + 1  # _split_chunk: the new chunk, its reindex
        write = 1  # a chunk edit (`_splice`): its reindex
        shrink = 1 + 2 * retire + 1  # _maybe_shrink

        def repair(touched, splits):  # _repair: a merge and its retirement per touched chunk, then the splits
            return touched * (1 + retire) + splits * split + shrink

        def flush(marked):  # _flush_links: the liveness filter, then refreshes
            return 1 + marked * refresh

        def settled(touched, splits):  # the live chunks of the record after the repairs
            return 2 * touched + splits

        def link(touched, splits):  # _link: two rotations in one step, the join, two writes
            rotations = 1 + store["reorder"]
            return rotations + store["concatenate"] + 2 * write + repair(touched, splits)

        # _merge_tours: a small splice, or the link, with up to two small
        # tours chunked first, then the flush; a chunked tour is not summed,
        # and a small tour's length charges nothing
        merge = max(4, 2 * as_array + link(TOUCHED_ON_LINK, SPLITS_ON_LINK)) + flush(
            settled(TOUCHED_ON_LINK, SPLITS_ON_LINK)
        )
        mark_linked = 1 + _OCCURRENCES**2 * store["link"]
        unlink = _OCCURRENCES * (1 + _OCCURRENCES * store["unlink"]) + 1
        probe_small = 2 + select
        commit_small = 4
        # _probe_large: the two cut chunks' node lists and their scan, then per
        # near range a query, the node lists of the pair it returns and a scan
        probe_large = 3 + 2 * (store["query"] + 3) + select
        # the cut chunks' writes or retirements, P3's and P2's splits and P1
        # P3's join, then two repairs with no replacement or the
        # replacement's link; flushed: the two pieces' repairs, or the one
        # repair plus the chunks of the promoted edge's endpoints
        commit_large = (
            2 * max(write, retire) + 2 * store["split_array"] + store["concatenate"]
            + max(
                2 * repair(TOUCHED_AFTER_CUT, SPLITS_AFTER_CUT),
                link(TOUCHED_ON_REPLACEMENT, SPLITS_ON_REPLACEMENT),
            )
        ) + flush(
            max(
                2 * settled(TOUCHED_AFTER_CUT, SPLITS_AFTER_CUT),
                settled(TOUCHED_ON_REPLACEMENT, SPLITS_ON_REPLACEMENT) + 2 * _OCCURRENCES,
            )
        )
        # `contract`: a degree-2 node's two renames in one step, the two
        # removals (a reindex or a retirement each), the repair and the
        # flush; a small tour is dropped, rebuilt and adopted
        contract = max(
            3,
            1 + 2 * max(write, retire) + repair(TOUCHED_ON_CONTRACT, 0)
            + flush(settled(TOUCHED_ON_CONTRACT, 0)),
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
        # the near tour is a chunked one if either is, else a small one, and
        # only it is chunked here; a singleton is the far side
        if isinstance(tid_u, tuple) or (
            isinstance(tid_u, SmallTour) and not isinstance(tid_v, unchunked)
        ):
            u, v, tid_u, tid_v = v, u, tid_v, tid_u
        self._link(self._as_array(tid_u), None if isinstance(tid_v, tuple) else tid_v, (u, v))

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
        _, args = self._probe(u, v, None)
        return self._report(args[-1])

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
        # the probe changes nothing; the update's record opens after it
        commit, args = self._probe(u, v, hint)
        self._touched = {}
        self._remove_adjacency(u, v)
        commit(*args)
        pair = args[-1]
        if pair is not None:
            self._drop_nontree(*pair)  # the replacement is now a tree edge
        self._flush_links()
        return self._report(pair)

    def _probe(self, u, v, hint):
        """Probe the deletion of the tree edge (u, v), changing nothing: the
        commit to run, `_commit_small` or `_commit_large`, and its
        arguments, the last of them the replacement as a (near, far) pair,
        or None."""
        container = self.edge_occ[(u, v)][0]
        if isinstance(container, SmallTour):
            return self._commit_small, (container, *self._probe_small(container, u, v, hint))
        array = container.array
        return self._commit_large, (array, *self._probe_large(array, u, v, hint))

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
            self._splice(c, off, off + 1, [], marked)
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
        """Register a rebuilt tour of at most K edges and return it, or None
        for no edge.  Every caller splices small tours only or takes a walk
        out of one chunk, and the depth bounds count no chunking here."""
        if not edges:
            return None
        assert len(edges) <= self.K, "small tour above the chunk threshold"
        tour = SmallTour(edges)
        for off, e in enumerate(edges):
            self.edge_occ[e] = (tour, off)
        self.meter.parallel_charge(len(edges))
        return tour

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
        When a rewritten edge comes from another container or none and an
        endpoint has a non-tree edge, c is marked in the update's record,
        and so is the chunk the edge left, if it left one; an edge that
        stays in c leaves every link as it was.  Each edge's processor
        reads its old pointer, tests its two endpoints against `nontree` and
        writes its new pointer."""
        edges = c.edges
        if stop is None:
            stop = len(edges)
        if shift:
            self._move_base(c, shift)
        base = c.base
        edge_occ = self.edge_occ
        nontree = self.nontree
        touched = self._touched
        for off in range(start, stop):
            e = edges[off]
            old = edge_occ.get(e)
            if (old is None or old[0] is not c) and (e[0] in nontree or e[1] in nontree):
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

    def _splice(self, c, lo, hi, new, marked=False):
        """Replace c.edges[lo:hi] by `new` and touch c, marked when
        `marked`; a chunk left with no edge is retired instead.  Only the
        shorter side around the edit is rewritten: the head, up to the end
        of `new`, when it is strictly shorter than the tail from `lo`, the
        base moving the tail by lo + len(new) - hi, else the tail."""
        c.edges[lo:hi] = new
        if not c.edges:
            self._retire_chunk(c)
            return
        touched = self._touched
        touched[c] = touched.get(c, False) or marked
        end = lo + len(new)
        if end < len(c.edges) - lo:  # the head is the shorter side
            self._reindex_chunk(c, 0, end, end - hi)
        else:
            self._reindex_chunk(c, lo)

    def _split_chunk(self, c, at):
        """Split c before c.edges[at]: c keeps the longer piece, the left
        one on a tie, and a new chunk beside it takes the other.  Only the
        new chunk's edges are rewritten; a kept right piece moves with c's
        base in that step.  Both are touched, left first.  Returns the
        (left, right) pieces."""
        left, right = c.edges[:at], c.edges[at:]
        if len(right) > len(left):
            c.edges = right
            self._move_base(c, -at)
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

    def _first_occurrence(self, node, leaving):
        """The chunk and index of node's first occurrence in `nbr` order
        that leaves it, (node, w), or else enters it, (w, node)."""
        for w in self.nbr[node]:
            occ = self.edge_occ.get((node, w) if leaving else (w, node))
            if occ is not None:
                return locate(occ)
        raise AssertionError(f"no occurrence of {node}")

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
        """Take (u, v)'s occurrences lo and hi out of their chunks, then
        repair the two sides' tours or link them by `pair`.  No chunk is
        made: the near side's tour is P1 x w P3 and the far side's y P2 z,
        around c_lo = x lo y and c_hi = z hi w, and a far side inside one
        chunk leaves it as a small tour (`_cut_across`, `_cut_inside`).
        The cut chunks are marked when an endpoint of the edge has a
        non-tree edge: two tests."""
        (c_lo, i), (c_hi, j) = lo[1], hi[1]
        for e in (lo[0], hi[0]):
            del self.edge_occ[e]
        s, t = lo[0]
        marked = s in self.nontree or t in self.nontree
        self.meter.charge(2)
        if c_lo is c_hi:
            far = self._cut_inside(c_lo, i, j, marked)
        else:
            far = self._cut_across(array, c_lo, i, c_hi, j, marked)
        if pair is None:
            # the far tour is not empty, since a lone far endpoint is a
            # leaf's contraction
            self._repair(array)
            if not isinstance(far, SmallTour):
                self._repair(far)
            return
        if not array:
            pair = pair[::-1]  # a single-node near side goes far
            array, far = far, None
        self._link(array, far, pair)
        # the promoted edge no longer justifies links anywhere: every chunk
        # holding another occurrence of its endpoints is marked
        for node in pair:
            for c in self._chunks_of(node):
                self._touched[c] = True

    def _cut_across(self, array, c_lo, i, c_hi, j, marked):
        """The cut of c_lo = x lo y and c_hi = z hi w, two chunks of
        `array`; returns the far side's tour, None for a single node.  The
        near tour's junction becomes x w and the far tour's z y, since its
        two ends meet cyclically.  Either c_lo keeps x and takes w and c_hi
        keeps z and takes y, the array cut after each chunk, or c_hi keeps
        w and takes x and c_lo keeps y and takes z, the array cut before
        each, whichever rewrites fewer pointers: two `split_array` and one
        `concatenate` either way.  A chunk left empty is retired."""
        x, y = c_lo.edges[:i], c_lo.edges[i + 1 :]
        z, w = c_hi.edges[:j], c_hi.edges[j + 1 :]
        after = len(w) + len(y) <= len(x) + len(z)
        p3 = self.master.split_array(array, c_hi.pos + after)
        far = self.master.split_array(array, c_lo.pos + after)
        self.master.concatenate(array, p3)
        if after:  # each chunk keeps its front and takes the other's back
            self._splice(c_lo, i, len(c_lo.edges), w, marked)
            self._splice(c_hi, j, len(c_hi.edges), y, marked)
        else:  # each keeps its back, which moves with its base
            self._splice(c_hi, 0, j + 1, x, marked)
            self._splice(c_lo, 0, i + 1, z, marked)
        return far if far else None

    def _cut_inside(self, c, i, j, marked):
        """The cut of c = x lo y hi w: c keeps x w, rewriting the shorter of
        the two around the gap, and the far walk y, at most K - 2 edges,
        becomes a small tour at once, which this returns (None for no
        edge); no array changes.  Each of y's edges tests its source, and
        c is marked when one of y's nodes, which leave it, has a non-tree
        edge.  A chunk left empty is retired."""
        walk = c.edges[i + 1 : j]
        self.meter.parallel_charge(len(walk))
        self._splice(c, i, j + 1, [], marked or any(a in self.nontree for a, _ in walk))
        return self._adopt_small(walk)

    def _link(self, near, far, pair):
        """Join the chunked tour `near` of w_near and the tour `far` of
        w_far, chunked, small or None for a single node, by the new tree
        edge `pair` = (w_near, w_far), then repair the result.  No chunk is
        made but the chunking of a small far tour.

        A small or empty far tour X is written into one chunk of `near`,
        rotated at w_far, between (w_near,w_far) and (w_far,w_near), right
        after an occurrence (x, w_near), rewriting the shorter side of that
        chunk too (`_splice`).  Only when that chunk would then exceed 2K
        edges is X chunked (`_as_array`) and linked as below.

        Two chunked tours swap the pieces of two chunks.  With c = a b in
        `near` and d = a' b' in `far`, where b and b' start at the first
        occurrences in `nbr` order leaving w_near and w_far, c becomes
        a (w_near,w_far) b' and d becomes a' (w_far,w_near) b, each tour
        rotated to end with its chunk; or c becomes a' (w_far,w_near) b and
        d becomes a (w_near,w_far) b', each rotated to start with it,
        whichever rewrites fewer pointers.  The rotations (`reorder`) run
        side by side, and the two tours are joined with `far` after `near`
        in the first case and before it in the second, so the two chunks
        are neighbours when `far` is one chunk.  Read cyclically, the tour
        is Y rotated at w_near, (w_near,w_far), X rotated at w_far,
        (w_far,w_near)."""
        w_near, w_far = pair
        if far is None or isinstance(far, SmallTour):
            c, off = self._first_occurrence(w_near, leaving=False)
            walk = far.edges if far is not None else []
            # a chunk holds at most 2K - 2 edges here, so a single node fits
            if len(c.edges) + len(walk) + 2 <= 2 * self.K:
                k = _cut_index(walk, w_far)
                self._drop_container(far)
                new = [(w_near, w_far), *walk[k:], *walk[:k], (w_far, w_near)]
                self._splice(c, off + 1, off + 1, new)
                self._repair(near)
                return
            far = self._as_array(far)
        c, i = self._first_occurrence(w_near, leaving=True)
        d, j = self._first_occurrence(w_far, leaving=True)
        a, b = c.edges[:i], c.edges[i:]
        a2, b2 = d.edges[:j], d.edges[j:]
        fronts = len(b) + len(b2) <= len(a) + len(a2)
        tours = [near, far]
        starts = [(c.pos + fronts) % len(near), (d.pos + fronts) % len(far)]

        def rotate(k):
            tours[k] = self.master.reorder(tours[k], starts[k])

        self.meter.parallel_for(2, rotate)
        near, far = tours
        if fronts:  # each chunk keeps its front and takes the other's back
            self.master.concatenate(near, far)
            self._splice(c, i, len(c.edges), [(w_near, w_far)] + b2)
            self._splice(d, j, len(d.edges), [(w_far, w_near)] + b)
        else:  # each keeps its back, which moves with its base
            self.master.concatenate(far, near)
            near = far
            self._splice(c, 0, i, a2 + [(w_far, w_near)])
            self._splice(d, 0, j, a + [(w_near, w_far)])
        self._repair(near)

    # -- sizing repairs and the link flush ------------------------------------

    def _repair(self, array):
        """Restore K/2 <= |chunk| <= K on the touched chunks of `array`, then
        demote it if its tour now fits in one small tour.  The merges run
        first, so no chunk split off here is merged away: an undersized
        chunk merges with a neighbour when both fit in one chunk, the left
        one taking the edges and the right one retired, unless only the
        right one holds link bits, which then takes them; otherwise the two
        share their edges, the undersized one taking half of them, at
        most K, and the other the rest.  Then every chunk above K is split
        at min(half, K) (`_split_chunk`) until each piece fits.  Only the
        edges that change chunk are rewritten: a right chunk that gains or
        loses a front moves its base."""
        K = self.K
        touched = self._touched
        queue = [c for c in touched if c.array is array]
        while queue:
            c = queue.pop()
            if c.array is not array or 2 * len(c.edges) >= K or len(array) == 1:
                continue
            pos = c.pos
            other = array.leaves[pos - 1] if pos > 0 else array.leaves[pos + 1]
            left, right = (other, c) if other.pos < pos else (c, other)
            kept = len(left.edges)  # left's own edges keep their offsets
            combined = left.edges + right.edges
            if len(combined) <= K:
                # a linked chunk outlives an unlinked partner and rewrites
                # only the edges it takes in
                if right.bits and not left.bits:
                    keep, gone = right, left
                    self._splice(right, 0, 0, left.edges)
                else:
                    keep, gone = left, right
                    self._splice(left, kept, kept, right.edges)
                self._retire_chunk(gone)
                queue.append(keep)
            else:
                # the undersized chunk takes half, at most K, and an
                # oversized partner keeps the rest for the splits; only the
                # edges that cross the boundary are rewritten, and right's
                # own move by kept - cut, the edges it gains at its front
                # (loses, when negative)
                half = len(combined) // 2
                cut = min(half, K) if c is left else max(half, len(combined) - K)
                left.edges = combined[:cut]
                right.edges = combined[cut:]
                self._reindex_chunk(left, min(kept, cut))
                self._reindex_chunk(right, 0, max(kept - cut, 0), kept - cut)
                touched.setdefault(left, False)
                touched.setdefault(right, False)
        queue = [c for c in touched if c.array is array]
        while queue:
            c = queue.pop()
            if c.array is array and len(c.edges) > K:
                queue.extend(self._split_chunk(c, min(len(c.edges) // 2, K)))
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
        occurrences are both directions of each of its tree edges, at most
        3, which are walked for each non-tree edge of a node of c."""
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

"""Master array of edge chunks, link vectors, and ordered chunk arrays.

A chunk is a bounded array of directed tour edges living in one slot of the
global master array.  Two chunks are linked when some non-tree edge joins a
node occurring in one to a node occurring in the other; each chunk's link
vector (bit per master slot) records this.  A chunk array is an aggregate
tree whose leaves are the chunks themselves: a chunk's `bits` are its link
vector, the tree's leaf list is the chunk order and interval link queries
read the OR of an interval's link vectors off the tree's per-slot counts.
Splits and joins keep the left part in its own tree; a rotation
(`reorder`) leaves the chunks in its right piece's tree.  A chunk's array
and position are its leaf's `array` and `pos`, which the tree writes as it
moves the leaf, so no operation here charges for them.  The master array's
`slots` maps occupied slots only to their chunks, so its walks over the
live chunks cost what is live, not the slot count.  A column write finds
the chunks it changes from the written chunk's row and writes them in one
step, in whatever arrays they hang, so no operation walks or counts the
arrays.

The slot count J is the width of every link vector and of every summary,
so every whole-vector charge scales with it.  An Euler forest over n nodes
sizes its master array by the chunks its tours can hold, at most
(2n - 2)/ceil(K/2) at rest plus a constant for an update in flight, with
K ~ sqrt(3n) (see `EulerForest`).  A sparsification node spanning s hosts
gives its gadget's forest n = 4s - 2 nodes (see `SparsNode`), so
K ~ sqrt(12s) ~ 3.5*sqrt(s) and J ~ 4.6*sqrt(s) + 1 = O(sqrt(s)) slots: 76
and 103 at the root of a graph of 512 nodes.  The forest charges the J
slots to `init_work` when it is built, but makes its master array only on
its first chunked tour, which charges nothing more: a forest whose tours
all fit one chunk never holds one.

A chunk's link row is written only when it changes: a refresh to the vector
the chunk already holds pays only its row read, and a retired chunk's row
leaves the counts with its leaf (`retire_chunk`), never written along its
path.  The forest refreshes only the chunks an update marks, so a chunk
whose moved edges touch no non-tree edge is not refreshed at all: a chunk
is marked where an edge with an endpoint of a non-tree edge enters it,
leaves it for another chunk, or is removed or renamed in it, and where it
holds an endpoint of a promoted replacement (see `EulerForest`).  Every
write of a row or a column bit adds one delta to the counts along each
written leaf's path, so none reads the bits of a chunk it does not write.
A chunk made during a forest update stays unlinked until the update's link
flush writes its row, so it is hung as a leaf of no bits, and so is it
unhung when the same update retires it.

Positions are 0-based throughout.  Link vectors are Python ints; the meter is
charged `width` units for whole-vector operations.
"""

from __future__ import annotations

from .aggtree import DEPTH_BOUNDS as AGG_DEPTH, AggTree, AggVertex, join as agg_join, write_column
from .costmodel import CostMeter, pick_depth


class ChunkError(ValueError):
    pass


class Chunk(AggVertex):
    """Tour edges in one master slot; a detached aggregate-tree leaf whose
    `bits` are its link vector, all-zero at first.  `base` is what the
    forest subtracts from a stored occurrence offset to get the edge's
    index in `edges`, so a chunk that drops or gains a front moves it
    instead of every stored offset."""

    __slots__ = ("slot", "edges", "base")

    def __init__(self, slot, edges):
        super().__init__()
        self.slot = slot
        self.edges = edges
        self.base = 0

    def __repr__(self):
        return f"<Chunk slot={self.slot} n={len(self.edges)}>"


class MasterArray:
    """The global slot table; owns chunk allocation and link consistency.
    Building it charges nothing: the forest that owns it charges its
    `slot_count` slots to `init_work` when the forest is built."""

    def __init__(self, meter: CostMeter, slot_count: int, chunk_capacity: int):
        self.meter = meter
        self.slot_count = slot_count
        self.chunk_capacity = chunk_capacity
        self.slots = {}
        self.free = list(range(slot_count - 1, -1, -1))

    @staticmethod
    def depth_bounds(policy) -> dict:
        """Upper bounds on the metered depth of the operations that charge
        depth, composed from the aggregate tree's; slot management charges
        none.  Only `query` depends on the policy, through its two picks."""
        agg = AGG_DEPTH
        pick = pick_depth(policy)
        return {
            "link": 2 * agg["bit_set"],
            "unlink": 2 * agg["bit_set"],
            # own leaf, then the column's one step over the flipped chunks
            "bulk_set_links": agg["bulk_set"] + agg["dual_bulk_set"],
            # the column's step, then the leaf's deletion; the row read, the
            # detached row's zeroing and the freed slot add no depth
            "retire_chunk": agg["dual_bulk_set"] + agg["delete"],
            # the tree change alone: it writes the moved chunks' positions
            "insert_chunk": agg["insert"],
            "delete_chunk": agg["delete"],
            "concatenate": agg["join"],
            "split_array": agg["split_boundary"],
            # the cut before the new first chunk, then the pieces' join
            "reorder": agg["split_boundary"] + agg["join"],
            # the OR over [i, j), then a scan and a pick per side
            "query": agg["range_bits"] + 2 * (1 + pick),
        }

    def arrays(self):
        """The arrays holding a live chunk, found from the chunks; only the
        checkers and tests read it."""
        return list(dict.fromkeys(
            c.array for c in self.slots.values() if c.array is not None
        ))

    # -- slot management ------------------------------------------------------

    def set_chunk(self, slot, edges):
        """Activate a chunk with `edges` in a free slot; links start all-zero."""
        if slot in self.slots:
            raise ChunkError(f"slot {slot} occupied")
        if slot not in self.free:
            raise ChunkError(f"slot {slot} out of range 0..{self.slot_count - 1}")
        c = self._activate(slot, edges)
        self.free.remove(slot)
        return c

    def alloc_chunk(self, edges):
        if not self.free:
            raise ChunkError("master array full")
        c = self._activate(self.free[-1], edges)
        self.free.pop()
        return c

    def _activate(self, slot, edges):
        """Fill a free slot, checking the size before any change."""
        if not 1 <= len(edges) <= self.chunk_capacity:
            raise ChunkError(f"chunk size {len(edges)} out of 1..{self.chunk_capacity}")
        c = Chunk(slot, list(edges))
        self.slots[slot] = c
        self.meter.charge(len(edges) + 1)
        return c

    def deactivate(self, c: Chunk):
        """Return a chunk's slot to the free pool; the chunk must be out of
        every array with its row clear.  Its column, which is its row by
        symmetry, is not rescanned here: `oracle.check_chunk_store` finds a
        stale link bit to a free slot."""
        if self.slots.get(c.slot) is not c:
            raise ChunkError("chunk not active")
        if c.array is not None:
            raise ChunkError("chunk still referenced by an array")
        if c.bits:
            raise ChunkError("deactivating chunk with set link bits")
        del self.slots[c.slot]
        self.free.append(c.slot)
        self.meter.charge(1)

    def retire_chunk(self, c: Chunk):
        """Take c out of its array and free its slot, with its links cleared.

        A linked chunk reads its row, which names the chunks holding its
        column bit, and clears that column in one step as `bulk_set_links`
        does.  Then its leaf is deleted: the deletion subtracts c's counts
        from every ancestor it keeps, so c's row leaves the summaries
        without a write of its own along c's path.  The detached row and its
        counts are zeroed by one plain step of `slot_count` writes, the
        convention of the row read.  An unlinked chunk is only deleted and
        freed.
        """
        self._require_active(c)
        if c.array is None:
            raise ChunkError("chunk in no array")
        old = c.bits
        if old:
            self.meter.charge(self.slot_count)
            self._write_column(c, old & ~(1 << c.slot))
        self.delete_chunk(c.array, c.pos)
        if old:
            c.bits = c.counts = 0
            self.meter.charge(self.slot_count)
        self.deactivate(c)

    # -- link maintenance -------------------------------------------------------

    def link(self, c1: Chunk, c2: Chunk):
        self._require_active(c1)
        self._require_active(c2)
        self.meter.charge(2)
        c1.array.bit_set(c1.pos, c2.slot, 1)
        c2.array.bit_set(c2.pos, c1.slot, 1)

    def unlink(self, c1: Chunk, c2: Chunk):
        self._require_active(c1)
        self._require_active(c2)
        self.meter.charge(2)
        c1.array.bit_set(c1.pos, c2.slot, 0)
        c2.array.bit_set(c2.pos, c1.slot, 0)

    def bulk_set_links(self, c: Chunk, links: int):
        """Replace c's link vector and mirror the change into c's column.

        Link vectors are symmetric: bit d.slot of c.bits equals bit c.slot
        of d.bits for every pair of active chunks (checked by
        `oracle.check_chunk_store`).  So c's old row is its old column, and
        only the chunks in the slots of (old ^ links) minus c's own slot have
        a column bit to flip.  The row read that yields them is charged
        first.  When nothing flips, not even on c's own slot, the vectors
        already agree and nothing is written.  Otherwise every vector is
        written by the aggregate trees, whose leaves the chunks are: c's
        leaf along its path, then the column.
        """
        self._require_active(c)
        old = c.bits
        self.meter.charge(self.slot_count)
        if links == old:
            # one CRCW step inside the row read: each processor whose bit of
            # old ^ links is set writes 1 to a common "some bit differs" flag
            return
        c.array.bulk_set(c.pos, links)
        self._write_column(c, (old ^ links) & ~(1 << c.slot))

    def _write_column(self, c, flips):
        """Flip c's bit in the chunks of the slots in `flips`, in one step.

        By symmetry each such chunk holds c's old bit for its slot, so the
        flip toggles its bit.  The row read put a processor on each bit of
        `flips`, which reads its slot's chunk; every chunk found then
        toggles its bit and adds its delta along its path (`write_column`),
        in whatever array it hangs.  A flip can land outside c's array:
        after `EulerForest._commit_large` splits a tour with no replacement,
        the pieces' chunks keep stale bits to each other until the update's
        repairs retire them or its flush refreshes them.
        """
        j = c.slot
        slots = self.slots
        writes = []
        while flips:
            low = flips & -flips
            flips ^= low
            d = slots.get(low.bit_length() - 1)
            if d is not None and d.array is not None:
                writes.append((d, not d.bits >> j & 1))
        write_column(self.meter, writes, j)

    def _require_active(self, c):
        if self.slots.get(c.slot) is not c:
            raise ChunkError("inactive chunk")

    # -- array operations --------------------------------------------------------

    def new_array(self):
        return AggTree(self.meter, self.slot_count)

    def insert_chunk(self, array: AggTree, pos, c: Chunk):
        if not 0 <= pos <= len(array):
            raise ChunkError("position out of range")
        self._require_active(c)
        if c.array is not None:
            raise ChunkError("chunk already in an array")
        array.insert(pos, c)

    def delete_chunk(self, array: AggTree, pos):
        if not 0 <= pos < len(array):
            raise ChunkError("position out of range")
        c = array.leaves[pos]
        array.delete(pos)
        return c

    def concatenate(self, a1: AggTree, a2: AggTree):
        """Append a2's chunks to a1; a2 is left empty."""
        if a1 is a2:
            raise ChunkError("cannot concatenate an array with itself")
        agg_join(a1, a2)

    def split_array(self, array: AggTree, pos):
        """Keep the first `pos` chunks in `array`; returns a new array of the
        rest."""
        if not 0 <= pos <= len(array):
            raise ChunkError("position out of range")
        return array.split_boundary(pos)

    def reorder(self, array: AggTree, pos):
        """Rotate the chunks so the one at `pos` comes first; returns the
        array that holds them.  The tree is cut before `pos` and the right
        piece is joined with the left one behind it, so the chunks end in
        the right piece's tree and `array` is left empty.  Position 0 moves
        nothing, charges nothing and returns `array`.  The benchmark's
        tracer (`bench/tracer.py`) wraps this method by its name."""
        if not 0 <= pos < len(array):
            raise ChunkError("position out of range")
        if not pos:
            return array
        right = array.split_boundary(pos)
        agg_join(right, array)
        return right

    def query(self, array: AggTree, i, j, k, l):
        """A linked pair (C, C') with C at a position in [i, j) and C' in
        [k, l), each side as the write policy picks; None if no such pair
        exists.

        The OR of the link vectors over [i, j) is read off the aggregate
        tree, which the query does not change.
        """
        order = array.leaves
        n = len(order)
        if not (0 <= i <= j <= n and 0 <= k <= l <= n):
            raise ChunkError("malformed query interval")
        if i == j or k == l:
            return None
        acc = array.range_bits(i, j)
        meter = self.meter
        candidates = [pos for pos in range(k, l) if (acc >> order[pos].slot) & 1]
        meter.parallel_charge(l - k)
        if not candidates:
            return None
        q = meter.pick(candidates)
        cq = order[q]
        back = [pos for pos in range(i, j) if (cq.bits >> order[pos].slot) & 1]
        meter.parallel_charge(j - i)
        if not back:
            raise ChunkError("link vectors inconsistent during query")
        p = meter.pick(back)
        return order[p], cq

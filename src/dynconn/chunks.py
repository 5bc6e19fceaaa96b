"""Master array of edge chunks, link vectors, and ordered chunk arrays.

A chunk is a bounded array of directed tour edges living in one slot of the
global master array.  Two chunks are linked when some non-tree edge joins a
node occurring in one to a node occurring in the other; each chunk's link
vector (bit per master slot) records this.  A chunk array is an aggregate
tree whose leaves are the chunks themselves: a chunk's `bits` are its link
vector, the tree's leaf list is the chunk order and interval link queries
run on the tree's OR summaries.  Splits and joins keep the left part in its
own tree, so an array keeps its identity while its tour changes.  A chunk's
array and position are its leaf's `array` and `pos`, which the tree writes
as it moves the leaf, so no operation here charges for them.  The master
array's `slots` maps occupied slots only to their chunks, so its walks over
the live chunks cost what is live, not the slot count.

Positions are 0-based throughout.  Link vectors are Python ints; the meter is
charged `width` units for whole-vector operations.
"""

from __future__ import annotations

from .aggtree import DEPTH_BOUNDS as AGG_DEPTH, AggTree, AggVertex, join as agg_join
from .costmodel import CostMeter, pick_depth


# most blocks one `MasterArray.reorder` permutes: the five walks that
# splicing a replacement edge into a cut tour rearranges
MAX_BLOCKS = 5


class ChunkError(ValueError):
    pass


class Chunk(AggVertex):
    """Tour edges in one master slot; a detached aggregate-tree leaf whose
    `bits` are its link vector, all-zero at first."""

    __slots__ = ("slot", "edges")

    def __init__(self, slot, edges):
        super().__init__()
        self.slot = slot
        self.edges = edges

    def __repr__(self):
        return f"<Chunk slot={self.slot} n={len(self.edges)}>"


class MasterArray:
    """The global slot table; owns chunk allocation and link consistency."""

    def __init__(self, meter: CostMeter, slot_count: int, chunk_capacity: int):
        self.meter = meter
        self.slot_count = slot_count
        self.chunk_capacity = chunk_capacity
        self.slots = {}
        self.free = list(range(slot_count - 1, -1, -1))
        with meter.initialization():
            meter.charge(slot_count)

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
            # own leaf, then one loop over the arrays clearing and setting
            "bulk_set_links": agg["bulk_set"] + 1 + 2 * agg["dual_bulk_set"],
            # the tree change alone: it writes the moved chunks' positions
            "insert_chunk": agg["insert"],
            "delete_chunk": agg["delete"],
            "concatenate": agg["join"],
            "split_array": agg["split_boundary"],
            # a split and a join per block after the first, then the joined
            # tree's join back into the emptied handle (one phase)
            "reorder": (MAX_BLOCKS - 1) * (agg["split_boundary"] + agg["join"]) + 1,
            # the OR over [i, j), then a scan and a pick per side
            "query": agg["range_bits"] + 2 * (1 + pick),
        }

    def arrays(self):
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
        """Return a chunk's slot to the free pool; its link column must be clear."""
        if self.slots.get(c.slot) is not c:
            raise ChunkError("chunk not active")
        if c.array is not None:
            raise ChunkError("chunk still referenced by an array")
        # a consistency check of the link column, not part of the algorithm,
        # so the meter is not charged for it
        for d in self.slots.values():
            if d is not c and (d.bits >> c.slot) & 1:
                raise ChunkError(
                    f"deactivating slot {c.slot} with stale link bit in slot {d.slot}"
                )
        if c.bits:
            raise ChunkError("deactivating chunk with set link bits")
        del self.slots[c.slot]
        self.free.append(c.slot)
        self.meter.charge(1)

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
        a column bit to flip.  Every vector is written by the aggregate trees,
        whose leaves the chunks are.  The model is a parallel loop over every
        array in which each iteration scans its chunks; iterations whose
        array has nothing to flip are charged as one plain sum (they add no
        depth), and the loop body runs only over the arrays it changes.
        """
        self._require_active(c)
        old = c.bits
        self.meter.charge(self.slot_count)
        c.array.bulk_set(c.pos, links)
        col = 1 << c.slot
        flips = (old ^ links) & ~col
        changes = {}  # array -> (positions to clear, positions to set)
        slots = self.slots
        while flips:
            low = flips & -flips
            flips ^= low
            d = slots.get(low.bit_length() - 1)
            if d is None or d.array is None:
                continue
            entry = changes.get(d.array)
            if entry is None:
                entry = changes[d.array] = ([], [])
            entry[1 if links & low else 0].append(d.pos)
        arrays = self.arrays()
        touched = list(changes.items())
        self.meter.charge(len(arrays) - len(touched) + sum(map(len, arrays)))

        def column_body(t):
            array, (to_clear, to_set) = touched[t]
            if to_clear:
                array.dual_bulk_set(set(to_clear), c.slot, 0)
            if to_set:
                array.dual_bulk_set(to_set, c.slot, 1)

        self.meter.parallel_for(len(touched), column_body)

    def _require_active(self, c):
        if self.slots.get(c.slot) is not c:
            raise ChunkError("inactive chunk")

    # -- array operations --------------------------------------------------------

    def new_array(self):
        return AggTree(self.meter, self.slot_count)

    def insert_chunk(self, array: AggTree, pos, c: Chunk):
        if not 0 <= pos <= len(array):
            raise ChunkError("position out of range")
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
        agg_join(a1, a2)

    def split_array(self, array: AggTree, pos):
        """Keep the first `pos` chunks in `array`; returns a new array of the
        rest."""
        if not 0 <= pos <= len(array):
            raise ChunkError("position out of range")
        return array.split_boundary(pos)

    def reorder(self, array: AggTree, blocks):
        """Permute the chunks so the [start, end) `blocks` appear in the given
        order.  The blocks must tile [0, len(array)), empty ones included, and
        number at most MAX_BLOCKS.

        The aggregate tree is split at the block bounds and the pieces are
        joined in block order, which writes every moved chunk's position.
        When the first block was not the array's own piece, the joined tree
        is joined back into the emptied array, one phase that gives each
        chunk its handle.  A permutation that moves no chunk charges nothing.
        """
        n = len(array)
        if not 1 <= len(blocks) <= MAX_BLOCKS:
            raise ChunkError(f"reorder takes 1..{MAX_BLOCKS} blocks, got {len(blocks)}")
        by_start = sorted(range(len(blocks)), key=blocks.__getitem__)
        bounds = [0] + [blocks[b][1] for b in by_start]
        if bounds[-1] != n or any(
            blocks[b][0] != bounds[i] or blocks[b][1] < bounds[i]
            for i, b in enumerate(by_start)
        ):
            raise ChunkError(f"blocks {blocks} do not tile [0, {n})")
        # the non-empty blocks already in start order move nothing
        nonempty = [b for b in blocks if b[0] < b[1]]
        if nonempty == sorted(nonempty):
            return
        pieces = [None] * len(blocks)
        # each cut leaves a block in `rest`'s handle and returns what follows
        rest = array
        for b in by_start[:-1]:
            start, end = blocks[b]
            pieces[b], rest = rest, rest.split_boundary(end - start)
        pieces[by_start[-1]] = rest
        tree = pieces[0]
        for piece in pieces[1:]:
            agg_join(tree, piece)
        if tree is not array:
            # the blocks were joined in the first block's tree
            agg_join(array, tree)

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

import random

import pytest

from dynconn.aggtree import AggTree, bits_of, join as agg_join, write_column
from dynconn.chunks import ChunkError, MasterArray
from dynconn.costmodel import ArbitraryPolicy, CommonPolicy, CostMeter
from dynconn.oracle import CheckFailure, check_agg_tree, check_chunk_store


def store(slots=24, cap=8, policy=None):
    return MasterArray(CostMeter(policy or ArbitraryPolicy(9)), slots, cap)


def filled(ms, sizes):
    """One array with a chunk of each given edge count."""
    a = ms.new_array()
    for idx, sz in enumerate(sizes):
        c = ms.alloc_chunk([(idx, e) for e in range(sz)])
        ms.insert_chunk(a, len(a.leaves), c)
    return a


class TestSlots:
    def test_building_a_store_charges_nothing(self):
        """The forest that owns a store charges its slots when the forest
        is built (`test_eulerforest.py`, `TestLazyMasterArray`)."""
        meter = CostMeter(ArbitraryPolicy(9))
        ms = MasterArray(meter, 24, 8)
        assert (meter.init_work, meter.work, meter.depth, len(ms.free)) == (0, 0, 0, 24)

    def test_fresh_chunk_has_zero_links(self):
        ms = store()
        c = ms.alloc_chunk([(1, 2)])
        assert c.bits == 0

    def test_deactivate_then_reuse_slot(self):
        ms = store()
        a = filled(ms, [2])
        c = a.leaves[0]
        slot = c.slot
        ms.delete_chunk(a, 0)
        ms.deactivate(c)
        c2 = ms.alloc_chunk([(3, 4)])
        assert c2.slot == slot

    def test_deactivate_with_stale_column_bit_fails(self):
        """Freeing a slot whose column is still set in another chunk is not
        rescanned by `deactivate`; the store's checker finds it."""
        ms = store()
        a = filled(ms, [2, 2])
        c0, c1 = a.leaves
        ms.link(c0, c1)
        c1.bits = 0  # simulate a caller forgetting to clear the column
        ms.delete_chunk(a, 1)
        ms.deactivate(c1)
        with pytest.raises(CheckFailure, match=f"stale link bit to free slot {c1.slot}"):
            check_chunk_store(ms)

    def test_occupied_slot_rejected(self):
        ms = store()
        c = ms.alloc_chunk([(0, 1)])
        before = (list(ms.free), dict(ms.slots), ms.meter.work)
        with pytest.raises(ChunkError, match="occupied"):
            ms.set_chunk(c.slot, [(2, 3)])
        assert (ms.free, ms.slots, ms.meter.work) == before

    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda ms: ms.set_chunk(2, []), "chunk size 0 out of 1..3"),
            (lambda ms: ms.set_chunk(2, [(0, 1)] * 4), "chunk size 4"),
            (lambda ms: ms.set_chunk(7, [(0, 1)]), "slot 7 out of range"),
            (lambda ms: ms.set_chunk(-1, [(0, 1)]), "slot -1 out of range"),
            (lambda ms: ms.set_chunk(1.5, [(0, 1)]), "slot 1.5 out of range"),
            (lambda ms: ms.alloc_chunk([]), "chunk size 0"),
        ],
        ids=["empty", "oversized", "past-end", "negative", "fractional", "alloc-empty"],
    )
    def test_rejected_slot_call_changes_nothing(self, call, match):
        ms = MasterArray(CostMeter(ArbitraryPolicy(9)), 4, 3)
        ms.alloc_chunk([(0, 1)])
        before = (list(ms.free), dict(ms.slots), ms.meter.work)
        with pytest.raises(ChunkError, match=match):
            call(ms)
        assert (ms.free, ms.slots, ms.meter.work) == before


class TestLinks:
    def test_link_then_unlink_restores(self):
        ms = store()
        a = filled(ms, [2, 2, 2])
        c0, c2 = a.leaves[0], a.leaves[2]
        before = [c.bits for c in a.leaves]
        ms.link(c0, c2)
        ms.unlink(c0, c2)
        assert [c.bits for c in a.leaves] == before
        check_chunk_store(ms)

    def test_self_link_sets_diagonal(self):
        ms = store()
        a = filled(ms, [2])
        c = a.leaves[0]
        ms.link(c, c)
        assert (c.bits >> c.slot) & 1 == 1
        check_chunk_store(ms)

    def test_symmetry_after_random_sequence(self):
        ms = store()
        a = filled(ms, [2] * 6)
        rng = random.Random(17)
        for _ in range(200):
            c1, c2 = rng.choice(a.leaves), rng.choice(a.leaves)
            if rng.random() < 0.5:
                ms.link(c1, c2)
            else:
                ms.unlink(c1, c2)
            check_chunk_store(ms)


class TestRepeatedWrites:
    def test_a_repeated_link_or_column_write_changes_no_count(self):
        """A count, unlike an OR, would move on a write of a bit the leaf
        already holds or a clear of one it lacks: repeating a link, an
        unlink and a column write leaves every vertex's counts as the first
        one left them."""
        ms = store()
        a = filled(ms, [2] * 9)
        c, d = a.leaves[1], a.leaves[7]

        def counts():
            found, stack = [], [a.root]
            while stack:
                v = stack.pop()
                found.append(v.counts)
                stack.extend(v.children or ())
            return found

        for write in (
            lambda: ms.link(c, d),
            lambda: ms.unlink(c, d),
            lambda: a.dual_bulk_set([0, 4, 8], c.slot, 1),
            lambda: a.dual_bulk_set([4, 8], c.slot, 0),
        ):
            write()
            once = counts()
            write()
            assert counts() == once
            check_agg_tree(a)


class TestBulkSetLinks:
    def test_idempotent(self):
        ms = store()
        a = filled(ms, [2, 2, 2])
        c = a.leaves[1]
        ms.link(c, a.leaves[0])
        snapshot = [d.bits for d in a.leaves]
        ms.bulk_set_links(c, c.bits)
        assert [d.bits for d in a.leaves] == snapshot
        check_chunk_store(ms)

    def test_unchanged_refresh_charges_only_the_row_read(self):
        ms = store()
        a = filled(ms, [2] * 7)
        c = a.leaves[3]
        for d in (a.leaves[0], a.leaves[5], c):
            ms.link(c, d)
        snapshot = [d.bits for d in a.leaves], bits_of(a.root.counts)
        work, depth = ms.meter.work, ms.meter.depth
        ms.bulk_set_links(c, c.bits)
        assert (ms.meter.work - work, ms.meter.depth - depth) == (ms.slot_count, 0)
        assert ([d.bits for d in a.leaves], bits_of(a.root.counts)) == snapshot

    def test_zero_clears_row_and_column(self):
        ms = store()
        a = filled(ms, [2, 2, 2])
        c = a.leaves[1]
        ms.link(c, a.leaves[0])
        ms.link(c, a.leaves[2])
        ms.bulk_set_links(c, 0)
        assert c.bits == 0
        for d in a.leaves:
            assert (d.bits >> c.slot) & 1 == 0
        check_chunk_store(ms)

    def test_a_column_across_arrays_is_one_step(self):
        # c's column bits lie in its own array and in another, as a tour
        # split's stale bits do until the flush; one refresh sets some and
        # clears others in both arrays: c's path, then the column's one step
        ms = store()
        a = filled(ms, [2] * 6)
        b = filled(ms, [2] * 5)
        c = a.leaves[2]
        for d in (a.leaves[0], a.leaves[4], b.leaves[1], b.leaves[3]):
            ms.link(c, d)
        links = sum(1 << d.slot for d in (a.leaves[0], a.leaves[5], b.leaves[0], b.leaves[3]))
        flipped = (a.leaves[4], a.leaves[5], b.leaves[0], b.leaves[1])
        expected = (
            ms.slot_count
            + len(c.ancestors) * (1 + ms.slot_count)
            + 2 * sum(len(d.ancestors) for d in flipped)
        )
        work, depth = ms.meter.work, ms.meter.depth
        ms.bulk_set_links(c, links)
        assert (ms.meter.work - work, ms.meter.depth - depth) == (expected, 2)
        assert c.bits == links
        for d in a.leaves + b.leaves:
            if d is not c:
                assert d.bits >> c.slot & 1 == links >> d.slot & 1
        check_chunk_store(ms)

    def test_random_vectors_stay_consistent(self):
        ms = store()
        a = filled(ms, [2] * 5)
        b = ms.new_array()
        for idx in range(3):
            ms.insert_chunk(b, idx, ms.alloc_chunk([(90 + idx, 1)]))
        rng = random.Random(23)
        arrays = [a, b]
        for _ in range(120):
            arr = rng.choice(arrays)
            c = rng.choice(arr.leaves)
            # restrict link targets to the chunk's own array, as the owner does
            mask = 0
            for d in arr.leaves:
                if rng.random() < 0.4:
                    mask |= 1 << d.slot
            ms.bulk_set_links(c, mask)
            check_chunk_store(ms)


class TestArrayOps:
    def test_insert_into_empty(self):
        ms = store()
        a = ms.new_array()
        ms.insert_chunk(a, 0, ms.alloc_chunk([(0, 1)]))
        assert len(a.leaves) == 1 and a.leaves[0].pos == 0

    def test_insert_then_delete_restores(self):
        ms = store()
        a = filled(ms, [2, 2, 2])
        want = list(a.leaves)
        c = ms.alloc_chunk([(7, 7)])
        ms.insert_chunk(a, 1, c)
        ms.delete_chunk(a, 1)
        assert a.leaves == want
        check_chunk_store(ms)

    def test_back_pointers_after_random_ops(self):
        ms = store(slots=40)
        a = filled(ms, [2] * 4)
        rng = random.Random(31)
        for _ in range(1000):
            if (rng.random() < 0.5 or len(a.leaves) < 2) and ms.free:
                pos = rng.randrange(len(a.leaves) + 1)
                ms.insert_chunk(a, pos, ms.alloc_chunk([(rng.randrange(50), 0)]))
            else:
                pos = rng.randrange(len(a.leaves))
                c = ms.delete_chunk(a, pos)
                ms.deactivate(c)
            for pos, c in enumerate(a.leaves):
                assert c.pos == pos and c.array is a
        check_chunk_store(ms)

    def test_concatenate_and_split_roundtrip(self):
        ms = store()
        a = filled(ms, [2, 2])
        b = filled(ms, [2, 2, 2])
        want = list(a.leaves) + list(b.leaves)
        ms.concatenate(a, b)
        assert a.leaves == want
        check_chunk_store(ms)
        a2 = ms.split_array(a, 2)
        assert a.leaves == want[:2] and a2.leaves == want[2:]
        check_chunk_store(ms)

    def test_concatenate_empty_is_noop(self):
        ms = store()
        a = filled(ms, [2, 2])
        want = list(a.leaves)
        ms.concatenate(a, ms.new_array())
        assert a.leaves == want

    def test_concatenate_into_empty_empties_the_donor(self):
        ms = store()
        a = ms.new_array()
        b = filled(ms, [2, 2, 2])
        want = list(b.leaves)
        ms.concatenate(a, b)
        assert a.leaves == want and len(b) == 0 and b.root is None
        ms.insert_chunk(b, 0, ms.alloc_chunk([(9, 9)]))
        assert a.leaves == want
        check_chunk_store(ms)

    def test_concatenate_with_itself_rejected(self):
        # joining an array to itself would empty it and leave its chunks
        # claiming positions past its end
        ms = store()
        a = filled(ms, [2, 2, 2])
        leaves = list(a.leaves)
        before = (ms.meter.work, ms.meter.depth)
        with pytest.raises(ChunkError, match="itself"):
            ms.concatenate(a, a)
        assert a.leaves == leaves
        assert [(c.array, c.pos) for c in leaves] == [(a, 0), (a, 1), (a, 2)]
        assert (ms.meter.work, ms.meter.depth) == before
        check_chunk_store(ms)

    def test_retired_chunk_insert_rejected(self):
        # a retired chunk's slot may be reused, which would put two leaves
        # with one slot in the array
        ms = store()
        a = filled(ms, [2, 2])
        c = ms.alloc_chunk([(5, 6)])
        ms.deactivate(c)
        before = (list(a.leaves), list(ms.free), dict(ms.slots), ms.meter.work, ms.meter.depth)
        with pytest.raises(ChunkError, match="inactive chunk"):
            ms.insert_chunk(a, 1, c)
        assert (list(a.leaves), ms.free, ms.slots, ms.meter.work, ms.meter.depth) == before
        assert c.array is None
        check_chunk_store(ms)

    def test_checker_rejects_a_retired_leaf(self):
        ms = store()
        a = filled(ms, [2, 2])
        c = ms.alloc_chunk([(5, 6)])
        ms.deactivate(c)
        a.insert(1, c)  # behind the store's back
        with pytest.raises(CheckFailure, match="not a live chunk"):
            check_chunk_store(ms)

    def test_concatenated_root_is_the_or_of_both_roots(self):
        ms = store()
        a = filled(ms, [2, 2])
        b = filled(ms, [2])
        ms.link(a.leaves[0], a.leaves[1])
        ms.link(b.leaves[0], b.leaves[0])
        ra, rb = bits_of(a.root.counts), bits_of(b.root.counts)
        ms.concatenate(a, b)
        assert bits_of(a.root.counts) == ra | rb


class TestChargedAsTheTree:
    """The array operations charge exactly what the aggregate tree charges
    for the same change, which already writes the moved chunks' positions:
    each runs beside the bare tree call on a twin store."""

    @staticmethod
    def twins(*sizes):
        """Two equal stores, each with one array per size list, meters reset."""
        out = []
        for _ in range(2):
            ms = store()
            arrays = [filled(ms, s) for s in sizes]
            ms.meter.reset()
            out.append((ms, arrays))
        return out

    @staticmethod
    def outcome(ms, arrays):
        return ms.meter.work, ms.meter.depth, [[c.slot for c in a.leaves] for a in arrays]

    @pytest.mark.parametrize("pos", [0, 2, 5])
    def test_insert_chunk(self, pos):
        (ms, [a]), (tw, [b]) = self.twins([2] * 5)
        c, d = ms.alloc_chunk([(9, 9)]), tw.alloc_chunk([(9, 9)])
        ms.meter.reset()
        tw.meter.reset()
        ms.insert_chunk(a, pos, c)
        b.insert(pos, d)
        assert self.outcome(ms, [a]) == self.outcome(tw, [b])
        check_chunk_store(ms)

    @pytest.mark.parametrize("pos", [0, 2, 4])
    def test_delete_chunk(self, pos):
        (ms, [a]), (tw, [b]) = self.twins([2] * 5)
        ms.delete_chunk(a, pos)
        b.delete(pos)
        assert self.outcome(ms, [a]) == self.outcome(tw, [b])
        check_chunk_store(ms)

    @pytest.mark.parametrize("sizes", [([2] * 3, [2] * 4), ([], [2] * 4), ([2] * 3, [])])
    def test_concatenate(self, sizes):
        (ms, [a1, a2]), (tw, [b1, b2]) = self.twins(*sizes)
        ms.concatenate(a1, a2)
        agg_join(b1, b2)
        assert self.outcome(ms, [a1, a2]) == self.outcome(tw, [b1, b2])
        check_chunk_store(ms)

    @pytest.mark.parametrize("pos", [0, 3, 7])
    def test_split_array(self, pos):
        (ms, [a]), (tw, [b]) = self.twins([2] * 7)
        right = ms.split_array(a, pos)
        twin_right = b.split_boundary(pos)
        assert self.outcome(ms, [a, right]) == self.outcome(tw, [b, twin_right])
        check_chunk_store(ms)


class TestReorder:
    """`reorder(array, pos)` rotates an array so the chunk at `pos` comes
    first: one boundary split and one join, charged as the tree charges
    them, with the chunks left in the returned array."""

    @pytest.mark.parametrize("sizes, pos", [([2] * 4, -1), ([2] * 4, 4), ([2] * 4, 9), ([], 0)])
    def test_out_of_range_rejected_with_nothing_changed(self, sizes, pos):
        ms = store()
        a = filled(ms, sizes)
        want = list(a.leaves)
        work, depth = ms.meter.work, ms.meter.depth
        with pytest.raises(ChunkError):
            ms.reorder(a, pos)
        assert a.leaves == want and (ms.meter.work, ms.meter.depth) == (work, depth)
        assert all(c.array is a and c.pos == p for p, c in enumerate(a.leaves))
        check_chunk_store(ms)

    @pytest.mark.parametrize("n", [1, 5])
    def test_position_zero_charges_nothing_and_returns_the_array(self, n):
        ms = store()
        a = filled(ms, [2] * n)
        want = list(a.leaves)
        work, depth = ms.meter.work, ms.meter.depth
        assert ms.reorder(a, 0) is a
        assert a.leaves == want and (ms.meter.work, ms.meter.depth) == (work, depth)

    @pytest.mark.parametrize("pos", [1, 2, 3, 5])
    def test_rotation_places_every_chunk(self, pos):
        # linked leaves, so the summaries must move with them
        ms = store()
        a = filled(ms, [2] * 6)
        for i, c in enumerate(a.leaves):
            ms.bulk_set_links(c, 1 << a.leaves[(i + 2) % 6].slot)
        before = list(a.leaves)
        union = 0
        for c in before:
            union |= c.bits
        b = ms.reorder(a, pos)
        assert b is not a and not a.leaves
        assert b.leaves == before[pos:] + before[:pos]
        assert all(c.array is b and c.pos == p for p, c in enumerate(b.leaves))
        assert union and bits_of(b.root.counts) == union
        check_agg_tree(b)
        check_chunk_store(ms)

    @pytest.mark.parametrize("n, pos", [(2, 1), (7, 3), (40, 1), (40, 39), (200, 77)])
    def test_charged_as_a_split_then_a_join(self, n, pos):
        def by_hand(ms, a):
            right = a.split_boundary(pos)
            agg_join(right, a)
            return right

        costs = []
        for rotate in (lambda ms, a: ms.reorder(a, pos), by_hand):
            ms = store(slots=n + 8)
            a = filled(ms, [2] * n)
            ms.meter.reset()
            b = rotate(ms, a)
            costs.append((ms.meter.work, ms.meter.depth, [c.slot for c in b.leaves]))
        assert costs[0] == costs[1]

    def test_rotating_back_restores_the_order(self):
        ms = store()
        a = filled(ms, [2] * 7)
        want = list(a.leaves)
        b = ms.reorder(a, 3)
        c = ms.reorder(b, 4)
        assert c.leaves == want
        check_chunk_store(ms)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_rotations(self, seed):
        rng = random.Random(seed)
        ms = store(slots=40)
        a = filled(ms, [2] * 12)
        for c in a.leaves:
            for d in rng.sample(a.leaves, 3):
                ms.link(c, d)
        for _ in range(60):
            pos = rng.randrange(len(a))
            want = a.leaves[pos:] + a.leaves[:pos]
            a = ms.reorder(a, pos)
            assert a.leaves == want
            check_chunk_store(ms)

    def test_seeded_rotations_keep_order_and_reach_near_the_bound(self):
        # 600 rotations of arrays of up to 700 linked chunks; the deepest
        # must stay within the stated bound and come within 4 of it, so the
        # bound is not padding
        rng = random.Random(1)
        bound = MasterArray.depth_bounds(ArbitraryPolicy(9))["reorder"]
        deepest = 0
        for n in (5, 30, 120, 400, 700):
            ms = store(slots=n + 4, cap=2)
            a = ms.new_array()
            with ms.meter.initialization():
                for i in range(n):
                    ms.insert_chunk(a, i, ms.alloc_chunk([(i, 0)]))
                for c in a.leaves:
                    for d in rng.sample(a.leaves, 2):
                        ms.link(c, d)
            for step in range(120):
                pos = rng.randrange(n)
                want = a.leaves[pos:] + a.leaves[:pos]
                ms.meter.reset()
                a = ms.reorder(a, pos)
                deepest = max(deepest, ms.meter.depth)
                assert a.leaves == want
                check_agg_tree(a)
                if n <= 120 and step % 20 == 0:
                    check_chunk_store(ms)
            check_chunk_store(ms)
        assert bound - 4 <= deepest <= bound, (deepest, bound)


class TestQuery:
    def test_no_links_gives_none(self):
        ms = store()
        a = filled(ms, [2] * 6)
        assert ms.query(a, 0, 3, 3, 6) is None

    def test_planted_pair_found(self):
        ms = store()
        a = filled(ms, [2] * 8)
        ms.link(a.leaves[1], a.leaves[5])
        got = ms.query(a, 0, 3, 3, 8)
        assert got == (a.leaves[1], a.leaves[5])
        check_chunk_store(ms)

    def test_common_model_lowest_pair(self):
        ms = store(policy=CommonPolicy(0.5))
        a = filled(ms, [2] * 8)
        ms.link(a.leaves[2], a.leaves[6])
        ms.link(a.leaves[1], a.leaves[5])
        ms.link(a.leaves[2], a.leaves[5])
        got = ms.query(a, 0, 4, 4, 8)
        assert got == (a.leaves[1], a.leaves[5])

    def test_query_matches_brute_force(self):
        rng = random.Random(5)
        for trial in range(60):
            ms = store(slots=30, policy=ArbitraryPolicy(trial))
            a = filled(ms, [2] * 10)
            pairs = set()
            for _ in range(rng.randrange(8)):
                x, y = rng.randrange(10), rng.randrange(10)
                ms.link(a.leaves[x], a.leaves[y])
                pairs.add((x, y))
                pairs.add((y, x))
            i, j = sorted(rng.sample(range(11), 2))
            k, l = sorted(rng.sample(range(11), 2))
            got = ms.query(a, i, j, k, l)
            valid = {
                (p, q)
                for p in range(i, j)
                for q in range(k, l)
                if (p, q) in pairs
            }
            if got is None:
                assert not valid
            else:
                p = a.leaves.index(got[0])
                q = a.leaves.index(got[1])
                assert (p, q) in valid
            check_chunk_store(ms)

    def test_malformed_interval(self):
        ms = store()
        a = filled(ms, [2] * 4)
        with pytest.raises(ChunkError):
            ms.query(a, 3, 1, 0, 2)

    def test_query_leaves_the_tree_untouched(self):
        rng = random.Random(12)
        ms = store(slots=40)
        a = filled(ms, [2] * 20)
        for _ in range(15):
            ms.link(*rng.sample(a.leaves, 2))
        root, leaves = a.root, a.leaves
        shape = [leaf.ancestors[:] for leaf in leaves]
        for _ in range(30):
            i, j = sorted(rng.sample(range(21), 2))
            k, l = sorted(rng.sample(range(21), 2))
            ms.query(a, i, j, k, l)
            assert a.root is root and a.leaves is leaves
            assert [leaf.ancestors for leaf in leaves] == shape
        check_chunk_store(ms)


def test_randomized_store_soak():
    rng = random.Random(77)
    ms = store(slots=64, cap=6)
    arrays = [filled(ms, [2, 2]), filled(ms, [2, 2, 2])]
    for step in range(600):
        roll = rng.random()
        a = rng.choice(arrays)
        if roll < 0.3 and ms.free:
            ms.insert_chunk(a, rng.randrange(len(a.leaves) + 1),
                            ms.alloc_chunk([(step, 0), (step, 1)]))
        elif roll < 0.45 and len(a.leaves) > 1:
            pos = rng.randrange(len(a.leaves))
            c = a.leaves[pos]
            if c.bits:
                ms.bulk_set_links(c, 0)  # column must clear before the slot frees
            ms.delete_chunk(a, pos)
            ms.deactivate(c)
        elif roll < 0.7:
            c1 = rng.choice(a.leaves)
            c2 = rng.choice(a.leaves)
            (ms.link if rng.random() < 0.6 else ms.unlink)(c1, c2)
        elif roll < 0.85 and len(a.leaves) >= 2:
            arrays[arrays.index(a)] = ms.reorder(a, rng.randrange(len(a.leaves)))
        else:
            n = len(a.leaves)
            if n:
                i, j = sorted(rng.sample(range(n + 1), 2))
                k, l = sorted(rng.sample(range(n + 1), 2))
                ms.query(a, i, j, k, l)
        if step % 5 == 0:
            check_chunk_store(ms)
    check_chunk_store(ms)


def test_every_chunk_is_its_tree_leaf():
    """After each step of a seeded run over every array operation, each
    chunk of an array's leaf list points back at that array and its own
    position."""
    rng = random.Random(41)
    ms = store(slots=64, cap=6)
    arrays = [filled(ms, [2, 2, 2]), filled(ms, [2] * 4)]
    for step in range(400):
        a = rng.choice(arrays)
        n = len(a)
        roll = rng.random()
        if roll < 0.25 and ms.free:
            ms.insert_chunk(a, rng.randrange(n + 1), ms.alloc_chunk([(step, 0)]))
        elif roll < 0.4 and n > 1:
            c = a.leaves[rng.randrange(n)]
            if c.bits:
                ms.bulk_set_links(c, 0)
            ms.delete_chunk(a, c.pos)
            ms.deactivate(c)
        elif roll < 0.55:
            c, d = rng.choice(a.leaves), rng.choice(rng.choice(arrays).leaves)
            (ms.link if rng.random() < 0.7 else ms.unlink)(c, d)
        elif roll < 0.65:
            c = rng.choice(a.leaves)
            mask = 0
            for d in a.leaves:
                if rng.random() < 0.3:
                    mask |= 1 << d.slot
            ms.bulk_set_links(c, mask)
        elif roll < 0.8 and n >= 2:
            arrays[arrays.index(a)] = ms.reorder(a, rng.randrange(n))
        elif roll < 0.9 and n > 1:
            arrays.append(ms.split_array(a, rng.randrange(1, n)))
        elif len(arrays) > 1:
            b = rng.choice([x for x in arrays if x is not a])
            ms.concatenate(a, b)
            arrays.remove(b)
        for x in arrays:
            assert all(c.array is x and c.pos == pos for pos, c in enumerate(x.leaves))
        for c in ms.slots.values():
            if c.array is not None:
                assert c.array.leaves[c.pos] is c
    check_chunk_store(ms)


def reference_bulk_set_links(ms, c, links):
    """The full column scan `MasterArray.bulk_set_links` replaced: every chunk
    of every array compares its bit of c's column against `links`, without
    reading c's row.  The chunks that differ are written in one step and
    the scan itself is charged nothing, the store's rule.  An unchanged row
    is read and not written, as in the store."""
    ms._require_active(c)
    ms.meter.charge(ms.slot_count)
    if links == c.bits:
        return
    c.array.bulk_set(c.pos, links)
    writes = [
        (d, want)
        for array in ms.arrays()
        for d in array.leaves
        if d is not c and (want := links >> d.slot & 1) != d.bits >> c.slot & 1
    ]
    write_column(ms.meter, writes, c.slot)


class ScanningMasterArray(MasterArray):
    bulk_set_links = reference_bulk_set_links


def test_bulk_set_links_matches_full_column_scan():
    """Twin stores, one with the reference scan, replay one seeded sequence
    of link and array operations; links, tree leaves and the meter agree
    after every step."""
    rng = random.Random(31)
    twins = [
        MasterArray(CostMeter(ArbitraryPolicy(3)), 48, 6),
        ScanningMasterArray(CostMeter(ArbitraryPolicy(3)), 48, 6),
    ]
    arrays = [[filled(ms, [2, 2, 2]), filled(ms, [2] * 4)] for ms in twins]
    for step in range(500):
        ms = twins[0]
        a = rng.randrange(len(arrays[0]))
        order = arrays[0][a].leaves
        live = [d.slot for arr in arrays[0] for d in arr.leaves]
        roll = rng.random()
        if roll < 0.3:
            pos = rng.randrange(len(order))
            mask = 0
            for s in live:
                if rng.random() < 0.3:
                    mask |= 1 << s
            op = ("bulk", a, pos, mask)
        elif roll < 0.5:
            b = rng.randrange(len(arrays[0]))
            op = (
                "link" if rng.random() < 0.6 else "unlink",
                a, rng.randrange(len(order)), b,
                rng.randrange(len(arrays[0][b].leaves)),
            )
        elif roll < 0.65 and ms.free:
            op = ("insert", a, rng.randrange(len(order) + 1))
        elif roll < 0.8 and len(order) > 1:
            op = ("delete", a, rng.randrange(len(order)))
        elif roll < 0.9 and len(order) > 1:
            op = ("split", a, rng.randrange(1, len(order)))
        elif len(arrays[0]) > 1:
            b = rng.randrange(len(arrays[0]) - 1)
            op = ("concat", a, b + (b >= a))
        else:
            continue
        for ms, arrs in zip(twins, arrays):
            kind, x = op[0], arrs[op[1]]
            if kind == "bulk":
                ms.bulk_set_links(x.leaves[op[2]], op[3])
            elif kind in ("link", "unlink"):
                getattr(ms, kind)(x.leaves[op[2]], arrs[op[3]].leaves[op[4]])
            elif kind == "insert":
                ms.insert_chunk(x, op[2], ms.alloc_chunk([(step, 0)]))
            elif kind == "delete":
                c = x.leaves[op[2]]
                if c.bits:
                    ms.bulk_set_links(c, 0)
                ms.delete_chunk(x, op[2])
                ms.deactivate(c)
            elif kind == "split":
                arrs.append(ms.split_array(x, op[2]))
            else:
                ms.concatenate(x, arrs[op[2]])
                del arrs[op[2]]
        new, ref = twins
        assert {s: c.bits for s, c in new.slots.items()} == {
            s: c.bits for s, c in ref.slots.items()
        }
        assert [[leaf.bits for leaf in arr.leaves] for arr in arrays[0]] == [
            [leaf.bits for leaf in arr.leaves] for arr in arrays[1]
        ]
        assert (new.meter.work, new.meter.depth) == (ref.meter.work, ref.meter.depth)
    check_chunk_store(twins[0])


def test_column_writes_match_the_scan_at_array_edge_cases():
    """Twin stores, one finding `bulk_set_links`'s flips by the full column
    scan, replay a script of array edge cases: a chunk allocated and never
    inserted, a split at 0 and at the end, a concatenation with an empty
    donor and into an empty array, and deletions that empty an array.
    After each step a refresh of every live leaf to a random row charges
    the same on both and leaves both stores consistent."""
    twins = [
        MasterArray(CostMeter(ArbitraryPolicy(3)), 32, 6),
        ScanningMasterArray(CostMeter(ArbitraryPolicy(3)), 32, 6),
    ]

    def script(ms):
        a = filled(ms, [2, 2, 2])
        yield
        loose = ms.alloc_chunk([(9, 9)])  # live, in no array
        yield
        empty = ms.new_array()
        yield
        b = ms.split_array(a, 0)  # a is emptied, b holds all three
        yield
        ms.concatenate(b, empty)  # empty donor
        yield
        tail = ms.split_array(b, len(b))  # empty result
        yield
        ms.concatenate(tail, b)  # into an empty array
        yield
        ms.insert_chunk(a, 0, loose)
        yield
        rest = ms.split_array(tail, 1)
        yield
        ms.concatenate(a, rest)
        yield
        for arr in (tail, a):
            while len(arr):
                c = arr.leaves[0]
                if c.bits:
                    ms.bulk_set_links(c, 0)
                ms.delete_chunk(arr, 0)
                ms.deactivate(c)
                yield

    rng = random.Random(5)
    for _ in zip(*map(script, twins)):
        new, ref = twins
        held = [c.slot for c in new.slots.values() if c.array is not None]
        masks = {s: sum(1 << t for t in held if rng.random() < 0.4) for s in held}
        for ms in twins:
            for slot, mask in masks.items():
                ms.bulk_set_links(ms.slots[slot], mask)
            check_chunk_store(ms)
        assert (new.meter.work, new.meter.depth) == (ref.meter.work, ref.meter.depth)
    assert not new.slots and not ref.slots


class TestRetireChunk:
    def test_linked_chunk_leaves_its_row_to_the_deletion(self, monkeypatch):
        """A linked chunk's retirement clears its column in both arrays and
        writes nothing along its own path: the deletion's summary repair
        drops its row, and the checkers pass."""
        ms = store()
        a = filled(ms, [2] * 7)
        b = filled(ms, [2] * 3)
        c = a.leaves[3]
        for d in (a.leaves[0], a.leaves[5], b.leaves[1], c):
            ms.link(c, d)
        writes = []
        bulk_set = AggTree.bulk_set

        def recording(tree, i, bits):
            writes.append((tree, i))
            return bulk_set(tree, i, bits)

        monkeypatch.setattr(AggTree, "bulk_set", recording)
        ms.retire_chunk(c)
        assert writes == []
        assert (c.bits, c.array, c.pos) == (0, None, -1) and c.slot in ms.free
        assert c not in a.leaves and len(a) == 6
        for tree in (a, b):
            assert not bits_of(tree.root.counts) >> c.slot & 1
            check_agg_tree(tree)
        check_chunk_store(ms)

    def test_unlinked_chunk_is_deleted_and_freed(self):
        ms = store()
        a = filled(ms, [2, 2, 2])
        c = a.leaves[1]
        twin = store()
        b = filled(twin, [2, 2, 2])
        ms.retire_chunk(c)
        d = twin.delete_chunk(b, 1)
        twin.deactivate(d)
        assert (ms.meter.work, ms.meter.depth) == (twin.meter.work, twin.meter.depth)
        check_chunk_store(ms)

    @pytest.mark.parametrize("where", ["loose", "retired"])
    def test_chunk_outside_an_array_rejected(self, where):
        ms = store()
        a = filled(ms, [2, 2])
        c = ms.alloc_chunk([(5, 5)]) if where == "loose" else a.leaves[0]
        if where == "retired":
            ms.retire_chunk(c)
        before = (list(ms.free), dict(ms.slots), ms.meter.work, ms.meter.depth)
        with pytest.raises(ChunkError):
            ms.retire_chunk(c)
        assert (ms.free, ms.slots, ms.meter.work, ms.meter.depth) == before


class AlwaysWritingMasterArray(MasterArray):
    """The always-write rule, the reference the store's savings are
    measured against: every refresh writes c's row along its path, and a
    linked chunk's retirement first writes its row to zero."""

    def bulk_set_links(self, c, links):
        self._require_active(c)
        old = c.bits
        self.meter.charge(self.slot_count)
        c.array.bulk_set(c.pos, links)
        self._write_column(c, (old ^ links) & ~(1 << c.slot))

    def retire_chunk(self, c):
        if c.bits:
            self.bulk_set_links(c, 0)
        self.delete_chunk(c.array, c.pos)
        self.deactivate(c)


def test_writing_only_changed_rows_never_charges_more():
    """Twin stores, one writing every row as before, replay one seeded
    sequence of refreshes (a third of them to the bits the chunk holds),
    links, insertions and retirements.  After every step both hold the same
    bits in the same leaves, and the always-writing store was charged at
    least the work and depth of the other for that step."""
    rng = random.Random(19)
    twins = [
        MasterArray(CostMeter(ArbitraryPolicy(3)), 48, 6),
        AlwaysWritingMasterArray(CostMeter(ArbitraryPolicy(3)), 48, 6),
    ]
    arrays = [[filled(ms, [2] * 5), filled(ms, [2] * 8)] for ms in twins]
    kinds = set()
    for step in range(600):
        live = [(a, pos) for a, arr in enumerate(arrays[0]) for pos in range(len(arr))]
        a, pos = rng.choice(live)
        roll = rng.random()
        if roll < 0.2:
            op = ("same", a, pos)
        elif roll < 0.4:
            mask = 0
            for b, q in live:
                if rng.random() < 0.3:
                    mask |= 1 << arrays[0][b].leaves[q].slot
            op = ("bulk", a, pos, mask)
        elif roll < 0.6:
            op = ("link" if rng.random() < 0.7 else "unlink", a, pos, *rng.choice(live))
        elif roll < 0.8 and twins[0].free:
            op = ("insert", a, rng.randrange(len(arrays[0][a]) + 1))
        elif len(arrays[0][a]) > 1:
            op = ("retire", a, pos, arrays[0][a].leaves[pos].bits != 0)
        else:
            continue
        kinds.add(op[0] if op[0] != "retire" else ("retire", op[3]))
        charged = []
        for ms, arrs in zip(twins, arrays):
            kind, x = op[0], arrs[op[1]]
            work, depth = ms.meter.work, ms.meter.depth
            if kind == "same":
                c = x.leaves[op[2]]
                ms.bulk_set_links(c, c.bits)
            elif kind == "bulk":
                ms.bulk_set_links(x.leaves[op[2]], op[3])
            elif kind in ("link", "unlink"):
                getattr(ms, kind)(x.leaves[op[2]], arrs[op[3]].leaves[op[4]])
            elif kind == "insert":
                ms.insert_chunk(x, op[2], ms.alloc_chunk([(step, 0)]))
            else:
                ms.retire_chunk(x.leaves[op[2]])
            charged.append((ms.meter.work - work, ms.meter.depth - depth))
        new, old = twins
        assert {s: c.bits for s, c in new.slots.items()} == {
            s: c.bits for s, c in old.slots.items()
        }
        assert [[(leaf.slot, leaf.bits) for leaf in arr.leaves] for arr in arrays[0]] == [
            [(leaf.slot, leaf.bits) for leaf in arr.leaves] for arr in arrays[1]
        ]
        assert [arr.root.counts for arr in arrays[0]] == [arr.root.counts for arr in arrays[1]]
        (new_work, new_depth), (old_work, old_depth) = charged
        assert old_work >= new_work and old_depth >= new_depth, op
        if step % 10 == 0:
            for ms in twins:
                check_chunk_store(ms)
    assert {"same", "bulk", ("retire", True), ("retire", False)} <= kinds
    assert new.meter.work < old.meter.work and new.meter.depth < old.meter.depth
    for ms in twins:
        check_chunk_store(ms)

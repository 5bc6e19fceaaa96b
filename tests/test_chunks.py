import random

import pytest

from dynconn.aggtree import join as agg_join
from dynconn.chunks import ChunkError, MasterArray
from dynconn.costmodel import ArbitraryPolicy, CommonPolicy, CostMeter
from dynconn.oracle import CheckFailure, check_chunk_store


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
        ms = store()
        a = filled(ms, [2, 2])
        c0, c1 = a.leaves
        ms.link(c0, c1)
        c1.bits = 0  # simulate a caller forgetting to clear the column
        ms.delete_chunk(a, 1)
        with pytest.raises(ChunkError, match="stale link bit"):
            ms.deactivate(c1)

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

    def test_concatenated_root_is_the_or_of_both_roots(self):
        ms = store()
        a = filled(ms, [2, 2])
        b = filled(ms, [2])
        ms.link(a.leaves[0], a.leaves[1])
        ms.link(b.leaves[0], b.leaves[0])
        ra, rb = a.root.bits, b.root.bits
        ms.concatenate(a, b)
        assert a.root.bits == ra | rb


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
    def test_degenerate_rejected(self):
        ms = store()
        a = filled(ms, [2] * 4)
        with pytest.raises(ChunkError):
            ms.reorder(a, [(0, 2), (3, 1), (1, 4)])

    @pytest.mark.parametrize(
        "blocks",
        [
            [(0, 1), (2, 4)],  # a gap
            [(0, 3), (2, 4)],  # an overlap
            [(0, 2), (2, 3)],  # stops short of the end
            [(0, 1), (1, 2), (2, 3), (3, 3), (3, 4), (4, 4)],  # six blocks
            [],
        ],
    )
    def test_non_tiling_blocks_rejected(self, blocks):
        ms = store()
        a = filled(ms, [2] * 4)
        want = list(a.leaves)
        work = ms.meter.work
        with pytest.raises(ChunkError):
            ms.reorder(a, blocks)
        assert a.leaves == want and ms.meter.work == work
        check_chunk_store(ms)

    def test_inverse_restores_identity(self):
        ms = store()
        a = filled(ms, [2] * 7)
        want = list(a.leaves)
        ms.reorder(a, [(0, 1), (3, 6), (1, 3), (6, 7)])  # [0][3 4 5][1 2][6]
        ms.reorder(a, [(0, 1), (4, 6), (1, 4), (6, 7)])  # moves [1 2] back
        assert a.leaves == want
        check_chunk_store(ms)

    def test_identity_charges_nothing(self):
        ms = store()
        a = filled(ms, [2] * 5)
        want = list(a.leaves)
        work, depth = ms.meter.work, ms.meter.depth
        ms.reorder(a, [(0, 2), (2, 2), (2, 5), (5, 5)])
        assert a.leaves == want
        assert (ms.meter.work, ms.meter.depth) == (work, depth)

    def test_tree_leaves_track_permutation(self):
        ms = store()
        a = filled(ms, [2] * 6)
        for i, c in enumerate(a.leaves):
            ms.bulk_set_links(c, 1 << a.leaves[i % 6].slot)
        before = list(a.leaves)
        ms.reorder(a, [(2, 5), (0, 2), (5, 6)])
        assert a.leaves == [before[p] for p in (2, 3, 4, 0, 1, 5)]
        assert a.root.bits == sum(1 << c.slot for c in before)
        check_chunk_store(ms)

    def test_three_blocks_charge_as_the_move_of_one_block(self):
        # moving [j, k) in front of i costs three boundary splits and three
        # joins, which write the moved chunks' positions
        def move_block(ms, array, i, j, k):
            mid = array.split_boundary(i)
            moved = mid.split_boundary(j - i)
            tail = moved.split_boundary(k - j)
            for piece in (moved, mid, tail):
                agg_join(array, piece)

        for i, j, k in [(0, 2, 5), (1, 3, 6), (2, 4, 9), (3, 4, 5), (0, 1, 9)]:
            costs = []
            for permute in (
                lambda ms, a: ms.reorder(a, [(0, i), (j, k), (i, j), (k, 9)]),
                lambda ms, a: move_block(ms, a, i, j, k),
            ):
                ms = store()
                a = filled(ms, [2] * 9)
                ms.meter.reset()
                permute(ms, a)
                costs.append((ms.meter.work, ms.meter.depth, [c.slot for c in a.leaves]))
            assert costs[0] == costs[1]

    @pytest.mark.parametrize("seed", range(4))
    def test_random_block_permutations(self, seed):
        rng = random.Random(seed)
        ms = store(slots=40)
        a = filled(ms, [2] * 12)
        for c in a.leaves:
            for d in rng.sample(a.leaves, 3):
                ms.link(c, d)
        for _ in range(60):
            n = len(a.leaves)
            k = rng.randint(1, 5)
            cuts = sorted(rng.randint(0, n) for _ in range(k - 1))
            bounds = [0] + cuts + [n]
            blocks = [(bounds[i], bounds[i + 1]) for i in range(k)]
            rng.shuffle(blocks)
            want = [c for start, end in blocks for c in a.leaves[start:end]]
            ms.reorder(a, blocks)
            assert a.leaves == want
            check_chunk_store(ms)


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
        elif roll < 0.85 and len(a.leaves) >= 3:
            n = len(a.leaves)
            i, j, k = sorted(rng.sample(range(n + 1), 3))
            ms.reorder(a, [(0, i), (j, k), (i, j), (k, n)])
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
        elif roll < 0.8 and n >= 3:
            i, j, k = sorted(rng.sample(range(n + 1), 3))
            ms.reorder(a, [(0, i), (j, k), (i, j), (k, n)])
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
    of every array compares its bit of c's column against `links`."""
    ms._require_active(c)
    ms.meter.charge(ms.slot_count)
    c.array.bulk_set(c.pos, links)
    arrays = ms.arrays()

    def column_body(a):
        array = arrays[a]
        to_set = []
        to_clear = []
        for pos, d in enumerate(array.leaves):
            if d is c:
                continue
            want = (links >> d.slot) & 1
            have = (d.bits >> c.slot) & 1
            if want and not have:
                to_set.append(pos)
            elif have and not want:
                to_clear.append(pos)
        ms.meter.charge(len(array.leaves))
        if to_clear:
            array.dual_bulk_set(set(to_clear), c.slot, 0)
        if to_set:
            array.dual_bulk_set(to_set, c.slot, 1)

    ms.meter.parallel_for(len(arrays), column_body)


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

import random

import pytest
from hypothesis import given, settings, strategies as st

from dynconn import aggtree
from dynconn.aggtree import AggTree, AggVertex, join
from dynconn.costmodel import ArbitraryPolicy, CommonPolicy, CostMeter
from dynconn.oracle import CheckFailure, check_agg_tree

WIDTH = 16


def fresh(width=WIDTH, policy=None):
    return CostMeter(policy or ArbitraryPolicy(3)), width


def build(meter, width, bit_arrays):
    t = AggTree(meter, width)
    for i, b in enumerate(bit_arrays):
        t.insert(i, AggVertex(bits=b))
    return t


def leaf_seq(t):
    return [leaf.bits for leaf in t.leaves]


class TestInsertDelete:
    def test_insert_into_empty(self):
        m, w = fresh()
        t = build(m, w, [0b1010])
        assert t.root.height == 0
        assert t.root.bits == 0b1010
        check_agg_tree(t)

    def test_seventh_leaf_rebalances(self):
        m, w = fresh()
        t = build(m, w, [1 << i for i in range(6)])
        t.insert(3, AggVertex(bits=1 << 10))
        assert len(t) == 7
        assert leaf_seq(t) == [1, 2, 4, 1 << 10, 8, 16, 32]
        check_agg_tree(t)

    def test_all_zero_leaf_keeps_the_root_or(self):
        m, w = fresh()
        t = build(m, w, [0b11, 0b100])
        before = t.root.bits
        t.insert(1, AggVertex(bits=0))
        assert t.root.bits == before
        check_agg_tree(t)

    def test_delete_only_leaf(self):
        m, w = fresh()
        t = build(m, w, [5])
        t.delete(0)
        assert len(t) == 0 and t.root is None

    def test_delete_clears_unique_bit(self):
        m, w = fresh()
        t = build(m, w, [0b1, 0b10, 0b100])
        t.delete(1)
        assert t.root.bits == 0b101
        check_agg_tree(t)

    def test_delete_preserves_order(self):
        m, w = fresh()
        rng = random.Random(5)
        vals = [rng.randrange(1 << w) for _ in range(50)]
        t = build(m, w, vals)
        t.delete(17)
        assert leaf_seq(t) == vals[:17] + vals[18:]
        check_agg_tree(t)

    def test_out_of_range_positions(self):
        m, w = fresh()
        t = build(m, w, [1, 2])
        with pytest.raises(IndexError):
            t.insert(5, AggVertex(bits=0))
        with pytest.raises(IndexError):
            t.delete(2)


class TestLeafIdentity:
    """The tree hangs the leaf objects it is given and hands the same objects
    back, detached, when it removes them."""

    def test_insert_keeps_the_given_leaf(self):
        m, w = fresh()
        rng = random.Random(8)
        t = AggTree(m, w)
        shadow = []
        for _ in range(80):
            i = rng.randrange(len(shadow) + 1)
            leaf = AggVertex(bits=rng.randrange(1 << w))
            t.insert(i, leaf)
            shadow.insert(i, leaf)
            assert t.leaves[i] is leaf
        assert all(a is b for a, b in zip(t.leaves, shadow))
        check_agg_tree(t)

    def test_deleted_leaf_is_detached_and_reusable(self):
        m, w = fresh()
        t = build(m, w, list(range(1, 40)))
        leaf = t.leaves[17]
        t.delete(17)
        assert leaf.ancestors == [leaf] and leaf.bits == 18
        t.insert(3, leaf)
        assert t.leaves[3] is leaf
        check_agg_tree(t)

    def test_split_boundary_keeps_the_boundary_leaf(self):
        m, w = fresh()
        vals = list(range(1, 30))
        for pos in range(1, len(vals)):
            t = build(m, w, vals)
            leaves = list(t.leaves)
            right = t.split_boundary(pos)
            assert right.leaves[0] is leaves[pos]
            assert all(a is b for a, b in zip(t.leaves + right.leaves, leaves))
            # the boundary leaf's ancestors are those of its new tree
            check_agg_tree(t)
            check_agg_tree(right)

    def test_split_detaches_the_removed_leaf(self):
        m, w = fresh()
        t = build(m, w, list(range(1, 30)))
        leaf = t.leaves[11]
        t.split(11)
        assert leaf.ancestors == [leaf]


class TestLeafPlace:
    """Each hung leaf records its tree and position, written by the tree as
    it moves the leaf; the checker owns that record."""

    @pytest.mark.parametrize(
        "field, stale", [("pos", lambda t: 4), ("array", lambda t: AggTree(t.meter, t.width))]
    )
    def test_checker_catches_a_stale_place(self, field, stale):
        m, w = fresh()
        t = build(m, w, list(range(1, 12)))
        check_agg_tree(t)
        setattr(t.leaves[7], field, stale(t))
        with pytest.raises(CheckFailure, match="leaf place stale at 7"):
            check_agg_tree(t)

    @pytest.mark.parametrize("remove", ["delete", "split"])
    def test_removed_leaf_is_in_no_tree(self, remove):
        m, w = fresh()
        t = build(m, w, list(range(1, 30)))
        leaf = t.leaves[11]
        getattr(t, remove)(11)
        assert leaf.array is None and leaf.pos == -1
        check_agg_tree(t)

    def test_split_at_the_first_leaf_hands_every_leaf_over(self):
        m, w = fresh()
        t = build(m, w, list(range(1, 20)))
        right = t.split_boundary(0)
        assert len(t) == 0 and len(right) == 19
        assert all(leaf.array is right for leaf in right.leaves)
        check_agg_tree(right)

    def test_join_into_an_empty_tree_hands_every_leaf_over(self):
        m, w = fresh()
        t = AggTree(m, w)
        donor = build(m, w, list(range(1, 20)))
        join(t, donor)
        assert len(t) == 19 and len(donor) == 0
        assert all(leaf.array is t for leaf in t.leaves)
        check_agg_tree(t)


class TestInPlaceUpdates:
    def test_soak_reaches_every_restructuring(self):
        """Grow and shrink one tree through root growth, root drops down to
        one leaf and to empty, inserts at both ends, and underflows settled
        with the left and with the right sibling, by a merge and by sharing
        a full sibling's children."""
        rng = random.Random(0)  # the final assert checks this seed's coverage
        m, w = fresh(width=32)
        t = AggTree(m, w)
        shadow = []
        seen = set()
        for target in (64, 1, 0, 48, 2, 40, 0, 64, 8, 56, 0):
            while len(shadow) != target:
                n = len(shadow)
                height = t.root.height if t.root is not None else -1
                if n < target and rng.random() < 0.7 or n > target and rng.random() < 0.3:
                    i = rng.choice([0, n, rng.randrange(n + 1)])
                    b = rng.randrange(1 << w)
                    t.insert(i, AggVertex(bits=b))
                    shadow.insert(i, b)
                    seen.add("insert at 0" if i == 0 else "insert at end" if i == n else "insert")
                    if t.root.height > height:
                        seen.add("root grows")
                else:
                    if n == 0:
                        continue
                    i = rng.randrange(n)
                    path = t.leaves[i].ancestors
                    if height >= 2 and len(path[1].children) == 2:
                        at = path[2].children.index(path[1])
                        sibling = path[2].children[at - 1 if at else 1]
                        kind = "share" if len(sibling.children) == 6 else "merge"
                        seen.add(f"{kind} with {'left' if at else 'right'}")
                    t.delete(i)
                    shadow.pop(i)
                    if t.root is None:
                        seen.add("empty")
                    elif t.root.height < height:
                        seen.add("root drops to a leaf" if t.root.height == 0 else "root drops")
                assert leaf_seq(t) == shadow
                check_agg_tree(t)
        assert seen >= {
            "insert at 0", "insert at end", "root grows", "root drops",
            "root drops to a leaf", "empty", "merge with left", "merge with right",
            "share with left", "share with right",
        }

    def test_insert_and_delete_neither_split_nor_join(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a leaf update split or joined the tree")

        monkeypatch.setattr(AggTree, "split", refuse)
        monkeypatch.setattr(AggTree, "split_boundary", refuse)
        monkeypatch.setattr(aggtree, "join", refuse)
        rng = random.Random(4)
        m, w = fresh()
        t = AggTree(m, w)
        shadow = []
        for _ in range(400):
            if not shadow or rng.random() < 0.55:
                i, b = rng.randrange(len(shadow) + 1), rng.randrange(1 << w)
                t.insert(i, AggVertex(bits=b))
                shadow.insert(i, b)
            else:
                i = rng.randrange(len(shadow))
                t.delete(i)
                shadow.pop(i)
        assert leaf_seq(t) == shadow
        check_agg_tree(t)

    def test_split_boundary_neither_splits_nor_joins(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("split_boundary split or joined the tree")

        monkeypatch.setattr(AggTree, "split", refuse)
        monkeypatch.setattr(aggtree, "join", refuse)
        rng = random.Random(6)
        m, w = fresh()
        for n in range(1, 41):
            vals = [rng.randrange(1 << w) for _ in range(n)]
            for pos in range(n + 1):
                t = build(m, w, vals)
                leaves = list(t.leaves)
                right = t.split_boundary(pos)
                assert right is not t
                assert len(t) == pos and len(right) == n - pos
                assert all(a is b for a, b in zip(t.leaves + right.leaves, leaves))
                assert leaf_seq(t) == vals[:pos] and leaf_seq(right) == vals[pos:]
                check_agg_tree(t)
                check_agg_tree(right)

    def test_split_positions_out_of_range_leave_the_tree_intact(self):
        m, w = fresh()
        vals = list(range(1, 20))
        t = build(m, w, vals)
        root, leaves = t.root, list(t.leaves)
        calls = [(t.split_boundary, -1), (t.split_boundary, len(vals) + 1),
                 (t.split, -1), (t.split, len(vals))]
        for cut, pos in calls:
            with pytest.raises(IndexError):
                cut(pos)
            assert t.root is root
            assert all(a is b for a, b in zip(t.leaves, leaves))
            assert leaf_seq(t) == vals
            check_agg_tree(t)

    @pytest.mark.parametrize("n", [1, 2, 7, 23, 60])
    def test_range_bits_is_the_or_of_every_range(self, n):
        rng = random.Random(n)
        m, w = fresh()
        vals = [rng.randrange(1 << w) if rng.random() < 0.5 else 1 << rng.randrange(w)
                for _ in range(n)]
        t = build(m, w, vals)
        root, leaves = t.root, t.leaves
        for i in range(n + 1):
            acc = 0
            for j in range(i, n + 1):
                assert t.range_bits(i, j) == acc
                if j < n:
                    acc |= vals[j]
        assert t.root is root and t.leaves is leaves
        assert leaf_seq(t) == vals
        check_agg_tree(t)
        with pytest.raises(IndexError):
            t.range_bits(1, n + 1)


class TestJoinSplit:
    def test_join_two_singletons(self):
        m, w = fresh()
        a = build(m, w, [1])
        b = build(m, w, [2])
        join(a, b)
        assert a.root.height == 1
        assert leaf_seq(a) == [1, 2]
        assert b.root is None and b.leaves == []
        check_agg_tree(a)

    def test_join_four_and_three(self):
        m, w = fresh()
        a = build(m, w, [1, 2, 4, 8])
        b = build(m, w, [16, 32, 64])
        join(a, b)
        assert leaf_seq(a) == [1, 2, 4, 8, 16, 32, 64]
        check_agg_tree(a)

    def test_joined_root_is_the_or_of_both_roots(self):
        m, w = fresh()
        a = build(m, w, [0b1, 0b10])
        b = build(m, w, [0b1000])
        ra, rb = a.root.bits, b.root.bits
        join(a, b)
        assert a.root.bits == ra | rb

    def test_split_singleton(self):
        m, w = fresh()
        t = build(m, w, [0b111])
        right, bits = t.split(0)
        assert bits == 0b111
        assert len(t) == 0 and len(right) == 0

    def test_split_seven_at_three(self):
        m, w = fresh()
        vals = [1 << i for i in range(7)]
        t = build(m, w, vals)
        right, bits = t.split(3)
        assert bits == vals[3]
        assert leaf_seq(t) == vals[:3]
        assert leaf_seq(right) == vals[4:]
        check_agg_tree(t)
        check_agg_tree(right)

    def test_split_join_roundtrip_every_position(self):
        m, w = fresh(width=64)
        rng = random.Random(11)
        vals = [rng.randrange(1 << 63) for _ in range(64)]
        for i in range(64):
            t = build(m, w, vals)
            right, bits = t.split(i)
            leaf = AggVertex(bits=bits)
            join(t, AggTree(m, 64, leaf, [leaf]))
            join(t, right)
            assert leaf_seq(t) == vals
            check_agg_tree(t)

    def test_exhaustive_roundtrip_small(self):
        m, w = fresh()
        for n in range(1, 17):
            vals = [(i * 37) % (1 << w) | 1 for i in range(n)]
            for i in range(n):
                t = build(m, w, vals)
                right, bits = t.split(i)
                assert leaf_seq(t) == vals[:i]
                assert leaf_seq(right) == vals[i + 1 :]
                assert bits == vals[i]
                check_agg_tree(t)
                check_agg_tree(right)


class TestBitOps:
    def test_bit_set_idempotent(self):
        m, w = fresh()
        t = build(m, w, [0b101, 0b10])
        before = leaf_seq(t), t.root.bits
        t.bit_set(0, 0, 1)
        assert (leaf_seq(t), t.root.bits) == before
        check_agg_tree(t)

    def test_clearing_unique_bit_propagates(self):
        m, w = fresh()
        vals = [1 << 3 if i == 4 else 0 for i in range(9)]
        t = build(m, w, vals)
        t.bit_set(4, 3, 0)
        assert t.root.bits == 0
        check_agg_tree(t)

    def test_bulk_set_equals_bitwise_loop(self):
        rng = random.Random(2)
        for trial in range(30):
            m, w = fresh()
            n = rng.randrange(1, 30)
            vals = [rng.randrange(1 << w) for _ in range(n)]
            t1 = build(m, w, vals)
            t2 = build(m, w, vals)
            i = rng.randrange(n)
            b = rng.randrange(1 << w)
            t1.bulk_set(i, b)
            for j in range(w):
                t2.bit_set(i, j, (b >> j) & 1)
            assert leaf_seq(t1) == leaf_seq(t2)
            assert t1.root.bits == t2.root.bits
            check_agg_tree(t1)

    def test_bulk_set_current_value_is_noop(self):
        """Writing a leaf's current bits changes nothing, and is charged
        what a write that changes them is."""
        m, w = fresh()
        vals = [7, 9] + [1 << i for i in range(10)]
        t = build(m, w, vals)
        assert t.root.height >= 2
        charged = []
        for bits in (9, 9 | 1 << 15):
            work, depth = m.work, m.depth
            t.bulk_set(1, bits)
            charged.append((m.work - work, m.depth - depth))
            check_agg_tree(t)
            if bits == 9:
                assert leaf_seq(t) == vals
        assert charged[0] == charged[1]
        assert t.root.bits >> 15 & 1

    def test_dual_bulk_set_equals_per_leaf_loop(self):
        rng = random.Random(3)
        for trial in range(30):
            m, w = fresh()
            n = rng.randrange(1, 30)
            vals = [rng.randrange(1 << w) for _ in range(n)]
            t1 = build(m, w, vals)
            t2 = build(m, w, vals)
            j = rng.randrange(w)
            b = rng.randrange(2)
            members = [i for i in range(n) if rng.random() < 0.4]
            t1.dual_bulk_set(members, j, b)
            for i in members:
                t2.bit_set(i, j, b)
            assert leaf_seq(t1) == leaf_seq(t2)
            assert t1.root.bits == t2.root.bits
            check_agg_tree(t1)

    def test_dual_bulk_set_all_leaves_clear(self):
        m, w = fresh()
        t = build(m, w, [0b100, 0b101, 0b110])
        t.dual_bulk_set(range(3), 2, 0)
        assert t.root.bits == 0b011
        check_agg_tree(t)


class TestAccessors:
    def test_height_and_ancestors(self):
        m, w = fresh()
        t = build(m, w, [1])
        assert t.root.height == 0
        t = build(m, w, [1 << (i % w) for i in range(20)])
        h = t.root.height
        for i in range(20):
            assert t.leaves[i].ancestors[h] is t.root
        acc = 0
        for b in leaf_seq(t):
            acc |= b
        assert t.root.bits == acc

    def test_height_bound(self):
        m, w = fresh()
        t = build(m, w, [0] * 200)
        assert t.root.height <= (200 - 1).bit_length() + 2


class TestRandomizedSoak:
    @pytest.mark.parametrize("policy_seed", [0, 1])
    def test_soak(self, policy_seed):
        rng = random.Random(40 + policy_seed)
        m = CostMeter(ArbitraryPolicy(policy_seed))
        w = 64
        t = AggTree(m, w)
        shadow = []
        for step in range(1500):
            op = rng.random()
            n = len(shadow)
            if n == 0 or op < 0.30:
                i = rng.randrange(n + 1)
                b = rng.randrange(1 << w)
                t.insert(i, AggVertex(bits=b))
                shadow.insert(i, b)
            elif op < 0.45:
                i = rng.randrange(n)
                t.delete(i)
                shadow.pop(i)
            elif op < 0.65:
                i, j, b = rng.randrange(n), rng.randrange(w), rng.randrange(2)
                t.bit_set(i, j, b)
                shadow[i] = shadow[i] | (1 << j) if b else shadow[i] & ~(1 << j)
            elif op < 0.80:
                i, b = rng.randrange(n), rng.randrange(1 << w)
                t.bulk_set(i, b)
                shadow[i] = b
            else:
                i = rng.randrange(n + 1)
                join(t, t.split_boundary(i))
            assert leaf_seq(t) == shadow
            if step % 7 == 0:
                check_agg_tree(t)
        check_agg_tree(t)

    def test_depth_bounded_across_sizes(self):
        # leaf update, join and split metered depth must not grow with the size
        worst = {}
        for exp in (4, 6, 8, 10):
            n = 2 ** exp
            m = CostMeter(ArbitraryPolicy(1))
            t = AggTree(m, 8)
            with m.initialization():
                for i in range(n):
                    t.insert(i, AggVertex(bits=i % 256))
            for pos in (0, n // 3, n):
                m.reset()
                t.insert(pos, AggVertex(bits=1))
                assert m.depth <= aggtree.DEPTH_BOUNDS["insert"]
                m.reset()
                t.delete(pos)
                assert m.depth <= aggtree.DEPTH_BOUNDS["delete"]
            for pos in (1, n // 3, n // 2, n - 1):
                m.reset()
                base = m.depth
                right = t.split_boundary(pos)
                split_depth = m.depth - base
                base = m.depth
                join(t, right)
                join_depth = m.depth - base
                worst[n, pos] = (split_depth, join_depth)
        depths = list(worst.values())
        assert max(d for d, _ in depths) <= aggtree.DEPTH_BOUNDS["split_boundary"]
        assert max(d for _, d in depths) <= aggtree.DEPTH_BOUNDS["join"]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=(1 << 16) - 1), min_size=1, max_size=40),
    st.data(),
)
def test_hypothesis_split_points(vals, data):
    m = CostMeter(CommonPolicy(0.5))
    t = build(m, 16, vals)
    i = data.draw(st.integers(min_value=0, max_value=len(vals) - 1))
    right, bits = t.split(i)
    assert bits == vals[i]
    assert leaf_seq(t) == vals[:i]
    assert leaf_seq(right) == vals[i + 1 :]
    check_agg_tree(t)
    check_agg_tree(right)
    # a boundary cut keeps every leaf, and joining the sides restores the tree
    t = build(m, 16, vals)
    pos = data.draw(st.integers(min_value=0, max_value=len(vals)))
    right = t.split_boundary(pos)
    assert leaf_seq(t) == vals[:pos]
    assert leaf_seq(right) == vals[pos:]
    check_agg_tree(t)
    check_agg_tree(right)
    join(t, right)
    assert leaf_seq(t) == vals and right.leaves == []
    check_agg_tree(t)

import random

import pytest
from hypothesis import given, settings, strategies as st

from dynconn import aggtree
from dynconn.aggtree import AggTree, AggVertex, bits_of, join
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


def vertices(t):
    """Every vertex of t, its leaves included."""
    found, stack = [], [t.root]
    while stack:
        v = stack.pop()
        found.append(v)
        if v.height:
            stack.extend(v.children)
    return found


class TestInsertDelete:
    def test_insert_into_empty(self):
        m, w = fresh()
        t = build(m, w, [0b1010])
        assert t.root.height == 0
        assert bits_of(t.root.counts) == 0b1010
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
        before = bits_of(t.root.counts)
        t.insert(1, AggVertex(bits=0))
        assert bits_of(t.root.counts) == before
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
        assert bits_of(t.root.counts) == 0b101
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

    @pytest.mark.parametrize(
        "move, match",
        [
            (lambda t, other: t.insert(0, t.leaves[5]), "already hung"),
            (lambda t, other: t.insert(3, other.leaves[0]), "already hung"),
            (lambda t, other: join(t, t), "itself"),
        ],
        ids=["insert-a-leaf-of-this-tree", "insert-a-leaf-of-another-tree", "join-with-itself"],
    )
    def test_corrupting_moves_rejected_before_any_change(self, move, match):
        """Hanging a leaf that is already hung, or joining a tree with
        itself, would leave stale places or an emptied tree; both are
        refused with the trees and the meter untouched."""
        m, w = fresh()
        t = build(m, w, list(range(1, 12)))
        other = build(m, w, [1, 2])
        leaves, root, other_leaves = list(t.leaves), t.root, list(other.leaves)
        work, depth = m.work, m.depth
        with pytest.raises(ValueError, match=match):
            move(t, other)
        assert (m.work, m.depth) == (work, depth)
        assert t.root is root and t.leaves == leaves and other.leaves == other_leaves
        check_agg_tree(t)
        check_agg_tree(other)


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
        ra, rb = bits_of(a.root.counts), bits_of(b.root.counts)
        join(a, b)
        assert bits_of(a.root.counts) == ra | rb

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
        # a count, unlike an OR, would change on a repeated write
        m, w = fresh()
        t = build(m, w, [0b101, 0b10])
        before = leaf_seq(t), t.root.counts
        t.bit_set(0, 0, 1)
        t.bit_set(1, 0, 0)
        assert (leaf_seq(t), t.root.counts) == before
        check_agg_tree(t)

    def test_clearing_unique_bit_propagates(self):
        m, w = fresh()
        vals = [1 << 3 if i == 4 else 0 for i in range(9)]
        t = build(m, w, vals)
        t.bit_set(4, 3, 0)
        assert bits_of(t.root.counts) == 0
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
            assert t1.root.counts == t2.root.counts
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
        assert bits_of(t.root.counts) >> 15 & 1

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
            assert t1.root.counts == t2.root.counts
            check_agg_tree(t1)

    def test_dual_bulk_set_all_leaves_clear(self):
        m, w = fresh()
        t = build(m, w, [0b100, 0b101, 0b110])
        t.dual_bulk_set(range(3), 2, 0)
        assert bits_of(t.root.counts) == 0b011
        check_agg_tree(t)



def test_the_count_helpers_read_every_byte_of_a_field():
    # field j of a leaf's counts is its bit j, and a field whose lowest byte
    # is 0, such as one counting 256 leaves, still reads as set
    rng = random.Random(3)
    mask = (1 << aggtree.FIELD) - 1
    for _ in range(40):
        bits = rng.getrandbits(120)
        counts = aggtree.counts_of(bits)
        assert [counts >> aggtree.FIELD * j & mask for j in range(120)] == [
            bits >> j & 1 for j in range(120)
        ]
        assert bits_of(counts) == bits
        assert bits_of(counts << 8) == bits
    assert bits_of(0) == 0 and aggtree.counts_of(0) == 0


class TestCheckerReadsCounts:
    def test_a_doctored_inner_count_that_keeps_the_or_is_rejected(self):
        m, w = fresh()
        t = build(m, w, [1, 1, 2])
        assert t.root.height == 1 and t.root.counts & (1 << aggtree.FIELD) - 1 == 2
        ors = bits_of(t.root.counts)
        t.root.counts += 1  # field 0: 2 -> 3, still "count > 0"
        assert bits_of(t.root.counts) == ors
        with pytest.raises(CheckFailure, match="inner counts != sum of children's counts"):
            check_agg_tree(t)

    def test_a_leaf_whose_counts_disagree_with_its_bits_is_rejected(self):
        m, w = fresh()
        t = build(m, w, [1, 6, 2])
        t.leaves[1].bits ^= 1 << 4
        with pytest.raises(CheckFailure, match="leaf counts disagree with its bits"):
            check_agg_tree(t)

    def test_a_tree_whose_fields_can_overflow_is_rejected(self, monkeypatch):
        m, w = fresh()
        t = build(m, w, [1] * 4)
        check_agg_tree(t)
        monkeypatch.setattr(aggtree, "MAX_LEAVES", 4)  # as if fields held at most 3
        with pytest.raises(CheckFailure, match="count fields can overflow"):
            check_agg_tree(t)


class TestLeavesOfNoBits:
    """A leaf of no bits is hung or unhung without rebuilding counts from
    children or adding a delta along its path."""

    @pytest.mark.parametrize("n", [6, 7, 36, 37, 200])
    def test_a_leaf_of_no_bits_is_hung_and_unhung_for_less(self, n):
        # the same tree, hanging and then unhanging a leaf at the same place,
        # once with no bits and once with one: the zero leaf costs less work
        # at the same depth wherever two or more vertices are repaired, as on
        # every path of a tree of height 2 or more (six leaves grow a root)
        rng = random.Random(n)
        vals = [rng.randrange(1, 1 << WIDTH) for _ in range(n)]
        for i in sorted({0, 1, n // 3, n // 2, n - 1, n}):
            spent = []
            for bits in (0, 1 << 5):
                m, w = fresh()
                with m.initialization():
                    t = build(m, w, vals)
                t.insert(i, AggVertex(bits=bits))
                hang = (m.work, m.depth)
                check_agg_tree(t)
                m.reset()
                t.delete(i)
                spent.append((hang, (m.work, m.depth)))
                assert leaf_seq(t) == vals
                check_agg_tree(t)
            (zero_hang, zero_unhang), (hang, unhang) = spent
            assert zero_hang[0] < hang[0] and zero_hang[1] == hang[1]
            assert zero_unhang[0] < unhang[0] and zero_unhang[1] == unhang[1]

    def test_unhanging_leaves_of_no_bits_keeps_the_siblings_ors(self):
        # three leaves in four hold no bits; unhanging them in a seeded
        # order leaves vertices with one child, whose siblings take or share
        # the children and so rebuild their ORs
        rng = random.Random(9)
        m, w = fresh()
        shadow = [0 if k % 4 else 1 << (k % w) | 1 << (k * 7 % w) for k in range(400)]
        t = build(m, w, shadow)
        while 0 in shadow:
            i = rng.choice([k for k, b in enumerate(shadow) if not b])
            t.delete(i)
            shadow.pop(i)
            assert leaf_seq(t) == shadow
            check_agg_tree(t)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["hang", "unhang", "grow", "clear"]),
            st.integers(min_value=0, max_value=1 << 20),
            st.integers(min_value=0, max_value=(1 << 12) - 1),
            st.booleans(),
        ),
        min_size=1,
        max_size=120,
    )
)
def test_hypothesis_hangs_unhangs_and_writes_keep_every_or(steps):
    """Seeded sequences of hangs and unhangs of leaves with and without
    bits, growing writes and clearing writes; after every step the checker
    passes and the OR read off the root's counts is the OR of the leaves."""
    m = CostMeter(ArbitraryPolicy(4))
    w = 12
    t = AggTree(m, w)
    shadow = []
    for op, where, bits, zero in steps:
        n = len(shadow)
        if op == "hang" or n == 0:
            i = where % (n + 1)
            b = 0 if zero else bits
            t.insert(i, AggVertex(bits=b))
            shadow.insert(i, b)
        elif op == "unhang":
            i = where % n
            t.delete(i)
            shadow.pop(i)
        elif op == "grow":
            i = where % n
            shadow[i] |= bits
            t.bulk_set(i, shadow[i])
        else:
            i = where % n
            shadow[i] &= bits
            t.bulk_set(i, shadow[i])
        assert leaf_seq(t) == shadow
        check_agg_tree(t)
        acc = 0
        for b in shadow:
            acc |= b
        assert (bits_of(t.root.counts) if t.root is not None else 0) == acc


class TestChargesWhatItReads:
    """Each repair is charged for the children and path vertices it reads
    and writes, not for the most it could: a leaf write and a deletion's
    path above the restructured siblings for one delta per path vertex, a
    column write for its positions' paths, a split's reassembly only for
    the vertices whose leaves change."""

    @pytest.mark.parametrize("n", [2, 7, 37, 200])
    def test_each_leaf_write_is_one_delta_step(self, n):
        # a whole bit array: len(anc) iterations of a `width` body; one bit:
        # two plain units and len(anc) iterations of a one-write body.  Each
        # is one step, its stated depth, whether it sets bits, clears them
        # or writes the bits the leaf holds
        rng = random.Random(n)
        m, w = fresh()
        vals = [rng.randrange(1, 1 << w) for _ in range(n)]
        t = build(m, w, vals)
        writes = []
        for i in sorted({0, n // 3, n // 2, n - 1}):
            for bits in (vals[i] & vals[i] - 1, vals[i] | 1 << 3, (1 << w) - 1, 0, 0):
                writes.append(("bulk_set", (i, bits), w))
                vals[i] = bits
            for j, b in ((3, 1), (3, 1), (3, 0), (5, 0)):
                writes.append(("bit_set", (i, j, b), 1))
                vals[i] = vals[i] | 1 << j if b else vals[i] & ~(1 << j)
        for name, args, unit in writes:
            anc = len(t.leaves[args[0]].ancestors)
            plain = 2 if name == "bit_set" else 0
            work, depth = m.work, m.depth
            getattr(t, name)(*args)
            assert (m.work - work, m.depth - depth) == (
                plain + anc * (1 + unit), aggtree.DEPTH_BOUNDS[name],
            )
            check_agg_tree(t)
        assert leaf_seq(t) == vals

    @pytest.mark.parametrize("n", [37, 200])
    def test_deleting_a_leaf_with_bits_is_one_delta_step_above(self, n):
        # a deletion whose parent keeps two children restructures nothing:
        # the leaf shift, the search and the empty moved-leaf step, then one
        # step in which each path vertex above the leaf subtracts its counts,
        # `width` each, and writes its first and last leaf
        rng = random.Random(n)
        m, w = fresh()
        vals = [rng.randrange(1, 1 << w) for _ in range(n)]
        t = build(m, w, vals)
        for _ in range(6):
            i = next(k for k in rng.sample(range(len(t)), len(t))
                     if len(t.leaves[k].ancestors[1].children) >= 3)
            h = t.root.height
            work, depth = m.work, m.depth
            t.delete(i)
            expected = 2 * (len(vals) - i) + h * (1 + h) + 2 * h + h * w
            assert (m.work - work, m.depth - depth) == (expected, 5)
            vals.pop(i)
            assert leaf_seq(t) == vals
            check_agg_tree(t)

    def test_column_writes_pay_only_their_positions_paths(self):
        # one step of a one-write body per leaf and path vertex of the
        # positions, set or clear; every other leaf holding the bit, and
        # every vertex off the positions' paths, is left as it was.  The
        # root, which every position shares, gains the sum of their adds
        rng = random.Random(21)
        m, w = fresh()
        vals = [rng.randrange(1 << w) for _ in range(90)]
        t = build(m, w, vals)
        assert t.root.height >= 3
        for trial in range(40):
            j = rng.randrange(w)
            positions = rng.sample(range(90), rng.randrange(1, 12))
            b = trial % 2
            paths = {id(v) for i in positions for v in t.leaves[i].ancestors}
            off = [(v, v.counts) for v in vertices(t) if id(v) not in paths]
            expected = 2 * sum(len(t.leaves[i].ancestors) for i in positions)
            flipped = sum(vals[i] >> j & 1 != b for i in positions)
            root = t.root.counts
            work, depth = m.work, m.depth
            t.dual_bulk_set(positions, j, b)
            assert (m.work - work, m.depth - depth) == (expected, 1)
            assert t.root.counts - root == (flipped if b else -flipped) << aggtree.FIELD * j
            assert all(v.counts == counts for v, counts in off)
            for i in positions:
                vals[i] = vals[i] | 1 << j if b else vals[i] & ~(1 << j)
            assert leaf_seq(t) == vals
            check_agg_tree(t)

    def test_a_column_write_across_trees_with_both_signs_is_one_step(self):
        # leaves of two trees, some setting the bit and some clearing it,
        # in one step of a one-write body per leaf and path vertex; a
        # shared vertex gains the sum of its leaves' adds, whatever their
        # signs, and a leaf already holding its bit changes no count
        rng = random.Random(34)
        m, w = fresh()
        vals = [[rng.randrange(1 << w) for _ in range(n)] for n in (40, 25)]
        trees = [build(m, w, v) for v in vals]
        for _ in range(30):
            j = rng.randrange(w)
            writes = [
                (t, i, rng.randrange(2))
                for t in range(2)
                for i in rng.sample(range(len(vals[t])), rng.randrange(8))
            ]
            leaves = [(trees[t].leaves[i], b) for t, i, b in writes]
            expected = 2 * sum(len(leaf.ancestors) for leaf, _ in leaves)
            work, depth = m.work, m.depth
            aggtree.write_column(m, leaves, j)
            assert (m.work - work, m.depth - depth) == (expected, 1)
            for t, i, b in writes:
                vals[t][i] = vals[t][i] | 1 << j if b else vals[t][i] & ~(1 << j)
            for t, tree in enumerate(trees):
                assert leaf_seq(tree) == vals[t]
                check_agg_tree(tree)

    @pytest.mark.parametrize("right_side", [True, False])
    def test_a_spine_vertex_that_keeps_its_leaves_pays_one_read(self, right_side):
        # the pre-split pays 2 * width per halved spine vertex, one degree
        # read per other level, one write per child a halving passes up and
        # its moved leaves; no width for a vertex that only gains a child
        rng = random.Random(5)
        seen = set()
        for trial in range(60):
            m, w = fresh()
            n = rng.randrange(2, 300)
            t = build(m, w, [rng.randrange(1 << w) for _ in range(n)])
            for _ in range(rng.randrange(n // 2 + 1)):
                t.delete(rng.randrange(len(t)))
            halves, grown = [], []
            halve, grow = aggtree._halve, aggtree._grow_root

            def counted_halve(v, side):
                out = halve(v, side)
                halves.append(out[1])
                return out

            def counted_grow(meter, width, a, b):
                w0 = meter.work
                out = grow(meter, width, a, b)
                grown.append(meter.work - w0)
                return out

            height = t.root.height
            aggtree._halve, aggtree._grow_root = counted_halve, counted_grow
            try:
                work = m.work
                t.root = aggtree._presplit_spine(m, w, t.root, right_side)
                work = m.work - work
            finally:
                aggtree._halve, aggtree._grow_root = halve, grow
            passed_up = len(halves) - len(grown)
            expected = (2 * w * len(halves) + (height - len(halves)) + passed_up
                        + 2 * sum(halves) + sum(grown))
            assert work == (expected if height else 1)
            seen.add(len(halves) > 0)
            check_agg_tree(t)
        assert seen == {True, False}

    def test_a_split_summarizes_only_vertices_whose_leaves_change(self):
        # every vertex that existed before a boundary split and is
        # summarized during it ends with other leaves below it than before
        rng = random.Random(17)
        for trial in range(80):
            m, w = fresh()
            n = rng.randrange(2, 250)
            t = build(m, w, [rng.randrange(1 << w) for _ in range(n)])
            for _ in range(rng.randrange(n // 2 + 1)):
                t.delete(rng.randrange(len(t)))
            before = {}
            stack = [t.root]
            while stack:
                v = stack.pop()
                if v.height:
                    before[id(v)] = (v, [id(x) for x in aggtree._leaves_under(v)])
                    stack.extend(v.children)
            summarized = []
            summarize = aggtree._summarize

            def recorded(v):
                summarized.append(v)
                summarize(v)

            aggtree._summarize = recorded
            try:
                right = t.split_boundary(rng.randrange(len(t) + 1))
            finally:
                aggtree._summarize = summarize
            for v in summarized:
                if id(v) in before and before[id(v)][0] is v:
                    now = [id(x) for x in aggtree._leaves_under(v)]
                    assert now != before[id(v)][1]
            check_agg_tree(t)
            check_agg_tree(right)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["split", "join", "insert", "delete", "set", "clear"]),
            st.integers(min_value=0, max_value=1 << 20),
            st.integers(min_value=0, max_value=1 << 20),
            st.integers(min_value=0, max_value=(1 << 10) - 1),
        ),
        min_size=1,
        max_size=80,
    )
)
def test_hypothesis_splits_joins_and_column_writes_keep_every_or(steps):
    """Seeded sequences of boundary splits, joins, hangs, unhangs and column
    sets and clears over a row of trees grown from 40 leaves; after every
    step each changed tree passes the checker and the OR read off its
    root's counts is the OR of its leaves."""
    m = CostMeter(ArbitraryPolicy(6))
    w = 10
    rng = random.Random(len(steps))
    shadows = [[rng.randrange(1 << w) for _ in range(40)]]
    trees = [build(m, w, shadows[0])]
    for op, a, b, bits in steps:
        k = a % len(trees)
        t, shadow = trees[k], shadows[k]
        n = len(shadow)
        if op == "join" and len(trees) == 1 or n == 0 and op not in ("split", "join"):
            op = "insert"
        if op == "split":
            pos = b % (n + 1)
            trees.insert(k + 1, t.split_boundary(pos))
            shadows.insert(k + 1, shadow[pos:])
            del shadow[pos:]
            changed = (k, k + 1)
        elif op == "join":
            k = min(k, len(trees) - 2)
            join(trees[k], trees[k + 1])
            shadows[k] += shadows.pop(k + 1)
            trees.pop(k + 1)
            changed = (k,)
        elif op == "insert":
            i = b % (n + 1)
            t.insert(i, AggVertex(bits=bits))
            shadow.insert(i, bits)
            changed = (k,)
        elif op == "delete":
            i = b % n
            t.delete(i)
            shadow.pop(i)
            changed = (k,)
        else:
            j = bits % w
            positions = sorted({(b >> s) % n for s in (0, 4, 8, 12)})
            set_ = op == "set"
            t.dual_bulk_set(positions, j, set_)
            for i in positions:
                shadow[i] = shadow[i] | 1 << j if set_ else shadow[i] & ~(1 << j)
            changed = (k,)
        for c in changed:
            assert leaf_seq(trees[c]) == shadows[c]
            check_agg_tree(trees[c])
            acc = 0
            for x in shadows[c]:
                acc |= x
            assert (bits_of(trees[c].root.counts) if trees[c].root is not None else 0) == acc


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
        assert bits_of(t.root.counts) == acc

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


    def test_seeded_cuts_keep_order_and_reach_near_the_bound(self):
        # 1000 boundary cuts of trees of 16 to 3000 leaves, each joined back;
        # the deepest cut must stay within the bound and come within 4 of it,
        # so the bound is not padding.  Both sides are checked after every
        # cut up to 200 leaves and after every tenth beyond.
        rng = random.Random(23)
        bound = aggtree.DEPTH_BOUNDS["split_boundary"]
        deepest = 0
        for n in (16, 50, 200, 700, 3000):
            m = CostMeter(ArbitraryPolicy(1))
            with m.initialization():
                t = build(m, 64, [rng.getrandbits(64) for _ in range(n)])
            for step in range(200):
                pos = rng.randint(0, n)
                want = list(t.leaves)
                m.reset()
                right = t.split_boundary(pos)
                deepest = max(deepest, m.depth)
                assert t.leaves == want[:pos] and right.leaves == want[pos:]
                if n <= 200 or step % 10 == 0:
                    check_agg_tree(t)
                    check_agg_tree(right)
                with m.initialization():
                    join(t, right)
            check_agg_tree(t)
        assert bound - 4 <= deepest <= bound


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

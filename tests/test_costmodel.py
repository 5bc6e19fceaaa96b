import pytest

from dynconn.costmodel import (
    CHOOSE_ANY_DEPTH,
    PREFIX_AND_DEPTH,
    ArbitraryPolicy,
    CommonPolicy,
    CostMeter,
    MeterError,
    extremum_depth,
    pick_depth,
    segment_end_depth,
)


def meter(policy=None):
    return CostMeter(policy or CommonPolicy(0.5))


class TestParallelFor:
    def test_empty_range_costs_one_depth_no_work(self):
        m = meter()
        m.parallel_for(0, lambda i: None)
        assert m.work == 0
        assert m.depth == 1

    def test_flat_loop(self):
        m = meter()
        m.parallel_for(8, lambda i: m.charge(1))
        assert m.work == 16  # 8 scheduling + 8 body
        assert m.depth == 1

    def test_nested_loop_composition(self):
        # hand evaluation: inner loop work 4+4, depth 1; outer work 4 + 4*8,
        # outer depth 1 + max(1) = 2
        m = meter()
        m.parallel_for(4, lambda i: m.parallel_for(4, lambda j: m.charge(1)))
        assert m.work == 36
        assert m.depth == 2

    def test_sequential_constructs_add_depth(self):
        m = meter()
        m.parallel_for(2, lambda i: m.charge(1))
        m.parallel_for(2, lambda i: m.charge(1))
        assert m.depth == 2

    def test_inside_initialization_runs_every_body_and_books_init_work(self):
        # a step before the block leaves work and depth that must not move
        m = meter()
        m.parallel_for(2, lambda i: m.charge(1))
        before = (m.work, m.depth)
        ran = []

        def body(i):
            ran.append(i)
            m.charge(2)
            m.parallel_charge(3)  # 3 iterations of 1 unit each: 6
            m.parallel_for(2, lambda j: m.charge(1))  # 2 + 2

        with m.initialization():
            m.parallel_for(5, body)
        assert ran == [0, 1, 2, 3, 4]
        assert m.init_work == 5 + 5 * (2 + 6 + 4)
        assert (m.work, m.depth) == before
        assert m._frames == [before[1]]

    def test_replay_of_known_nests(self):
        # exhaustive shape check: nests up to depth 4, width up to 8
        def run(shape):
            m = meter()

            def go(level):
                if level == len(shape):
                    m.charge(1)
                    return
                m.parallel_for(shape[level], lambda i: go(level + 1))

            go(0)
            return m.work, m.depth

        def predict(shape):
            if not shape:
                return 1, 0
            w, d = predict(shape[1:])
            return shape[0] + shape[0] * w, 1 + d

        import itertools

        for depth in range(0, 5):
            for shape in itertools.product([0, 1, 2, 8], repeat=depth):
                want_w, want_d = predict(list(shape))
                if not shape:
                    want_w -= 1  # bare charge only
                    got = run(shape)
                    assert got == (1, 0)
                    continue
                got_w, got_d = run(shape)
                # an empty loop prunes the subtree below it
                assert got_d == len(shape) - _zeros_prefix_depth(shape)
                assert got_w == _work(shape)


def _zeros_prefix_depth(shape):
    # depth contributed below the first zero-width loop is lost
    d = 0
    for k, w in enumerate(shape):
        if w == 0:
            d = len(shape) - (k + 1)
            break
    return d


def _work(shape):
    total = 0

    def go(level):
        nonlocal total
        if level == len(shape):
            total += 1
            return
        total += shape[level]
        for _ in range(shape[level]):
            go(level + 1)

    go(0)
    return total


class TestReduceExtremum:
    def test_singleton(self):
        m = meter()
        assert m.reduce_extremum([7]) == (0, 7)

    def test_common_lowest_index_tie(self):
        m = meter(CommonPolicy(0.5))
        idx, val = m.reduce_extremum([3, 1, 4, 1])
        assert (idx, val) == (1, 1)

    def test_common_depth_depends_only_on_epsilon(self):
        for eps in (0.1, 0.25, 0.5, 1.0):
            depths = set()
            for n in (1, 2, 16, 100, 1000):
                m = meter(CommonPolicy(eps))
                m.reduce_extremum(list(range(n)))
                depths.add(m.depth)
            assert len(depths) == 1, f"depth varies with n at eps={eps}"

    def test_arbitrary_policy_refused(self):
        # `pick` sends the arbitrary policy to `choose_any`
        m = meter(ArbitraryPolicy(seed=99))
        with pytest.raises(MeterError, match="common write policy"):
            m.reduce_extremum([3, 1, 4, 1])
        assert (m.work, m.depth) == (0, 0)

    def test_agreement_with_sequential_scan(self):
        import random

        rng = random.Random(7)
        for trial in range(300):
            n = rng.randrange(1, 60)
            vals = [rng.randrange(10) for _ in range(n)]
            want = min(vals)
            mc = meter(CommonPolicy(0.3))
            i, v = mc.reduce_extremum(vals)
            assert v == want and i == vals.index(want)

    def test_common_work_bound(self):
        # work <= c * n^(1+eps) with one fixed c across sizes
        eps = 0.25
        c = 64
        for exp in range(4, 15):
            n = 2 ** exp
            m = meter(CommonPolicy(eps))
            m.reduce_extremum(list(range(n)))
            assert m.work <= c * n ** (1 + eps), f"n={n}: work {m.work}"

    def test_empty_reduction_rejected(self):
        with pytest.raises(ValueError, match="empty reduction"):
            meter().reduce_extremum([])


class TestPrefixAnd:
    def test_examples(self):
        m = meter()
        assert m.prefix_and([1, 1, 0, 1]) == [1, 1, 0, 0]
        assert m.prefix_and([0, 1, 1]) == [0, 0, 0]
        assert m.prefix_and([]) == []

    def test_exhaustive_up_to_length_12(self):
        import itertools

        for n in range(13):
            for bits in itertools.product([0, 1], repeat=n):
                out = meter().prefix_and(list(bits))
                acc, want = 1, []
                for b in bits:
                    acc &= b
                    want.append(acc)
                assert out == want


class TestInitialSegmentEnd:
    def test_cases(self):
        m = meter()
        assert m.initial_segment_end([1, 1, 0, 1]) == 1
        assert m.initial_segment_end([0, 0, 0]) is None
        assert m.initial_segment_end([1] * 5) == 4
        assert m.initial_segment_end([]) is None


class TestOperationBudget:
    def test_budget_overflow_raises(self):
        m = meter()
        with pytest.raises(MeterError):
            with m.bounded(1, "op"):
                m.parallel_for(2, lambda i: m.parallel_for(2, lambda j: None))

    def test_initialization_excluded(self):
        m = meter()
        with m.initialization():
            m.parallel_charge(100)
        assert m.work == 0 and m.depth == 0
        assert m.init_work > 0

    def test_initialization_nests_and_is_restored_when_its_block_raises(self):
        m = meter()
        with pytest.raises(KeyError):
            with m.initialization():
                with m.initialization():
                    m.charge(3)
                m.charge(4)
                raise KeyError
        assert m.init_work == 7
        m.charge(5)
        assert m.work == 5 and m.init_work == 7


class TestBoundedScope:
    def test_over_budget_raises_with_label(self):
        m = meter()
        with pytest.raises(MeterError, match="insert: depth 3 exceeds budget 2"):
            with m.bounded(2, "insert"):
                m.parallel_for(2, lambda i: m.parallel_for(2, lambda j: m.phase()))

    def test_within_budget_keeps_charged_cost(self):
        m = meter()
        m.parallel_charge(4)
        work, depth = m.work, m.depth
        with m.bounded(50, "op"):
            m.parallel_for(3, lambda i: m.parallel_charge(2))
            m.charge(7)
        assert m.depth - depth == 2
        assert m.work - work == 3 + 3 * 2 * 2 + 7

    def test_budget_met_exactly_passes(self):
        m = meter()
        with m.bounded(2, "op"):
            m.phase()
            m.phase()
        assert m.depth == 2

    def test_a_raising_block_is_not_checked(self):
        m = meter()
        with pytest.raises(KeyError):
            with m.bounded(0, "op"):
                m.phase()
                raise KeyError
        assert m.depth == 1


class TestPrimitiveDepths:
    @pytest.mark.parametrize(
        "policy",
        [ArbitraryPolicy(3), CommonPolicy(0.25), CommonPolicy(0.5), CommonPolicy(1.0)],
    )
    def test_stated_depths_match_metered(self, policy):
        for n in (1, 2, 7, 64, 300):
            values = [(i * 37) % 11 for i in range(n)]
            bits = [1] * (n // 2) + [0] * (n - n // 2)
            m = meter(policy)
            if policy.kind == "common":
                m.reduce_extremum(values)
                assert m.depth == extremum_depth(policy)
                m.reset()
            m.initial_segment_end(bits)
            assert m.depth == segment_end_depth(policy)
            m.reset()
            m.prefix_and(bits)
            assert m.depth == PREFIX_AND_DEPTH
            m.reset()
            m.pick(values)
            assert m.depth == pick_depth(policy)
            if policy.kind == "arbitrary":
                m.reset()
                m.choose_any(values)
                assert m.depth == CHOOSE_ANY_DEPTH


class TestPick:
    def test_common_pick_is_the_least_value(self):
        m = meter(CommonPolicy(0.25))
        values = [(i * 37) % 11 + 3 for i in range(50)]
        assert m.pick(values) == min(values)
        assert m.pick([(2, 5), (1, 9), (1, 4)]) == (1, 4)

    def test_arbitrary_pick_repeats_for_a_fixed_seed(self):
        values = list(range(40))
        m1, m2 = meter(ArbitraryPolicy(11)), meter(ArbitraryPolicy(11))
        first = [m1.pick(values) for _ in range(20)]
        assert first == [m2.pick(values) for _ in range(20)]
        assert set(first) <= set(values)
        assert len(set(first)) > 1


class TestParallelForRaising:
    def test_raising_body_closes_its_frames(self):
        m = meter()
        m.parallel_charge(3)
        entry = m.depth

        def body(i):
            m.parallel_for(2, lambda j: m.phase())
            if i == 1:
                m.parallel_for(2, lambda j: 1 // 0)

        with pytest.raises(ZeroDivisionError):
            m.parallel_for(4, body)
        assert m.depth == entry
        m.reset()
        assert (m.work, m.depth) == (0, 0)
        m.parallel_for(2, lambda i: m.charge(1))
        assert (m.work, m.depth) == (4, 1)


def test_every_exported_name_resolves():
    import dynconn

    for name in dynconn.__all__:
        assert getattr(dynconn, name) is not None, name

"""Simulated CRCW execution substrate: a work/depth meter and core parallel primitives.

Python runs everything sequentially; the meter tracks what a CRCW PRAM running
the same algorithm would pay.  The charging convention is fixed so that cost
slopes are comparable across runs:

  - every scheduled iteration of a parallel loop costs 1 unit,
  - every memory touch / comparison inside a loop body costs 1 unit,
  - plain sequential glue between parallel phases is free,
  - the depth of a parallel construct is 1 + the deepest iteration body, and
    constructs that run one after another inside a scope add their depths.

Two write-conflict policies are supported.  Under the common policy concurrent
writers must agree on the value and extremum selection runs the blocked
recursion whose round count depends only on epsilon.  Under the arbitrary
policy one writer wins; the winner is drawn from a seeded generator so runs
replay exactly.

Both policies add one rule for count cells: the adds of several processors
to one count cell in one step combine into their sum (a fetch-and-add PRAM's
rule), whatever their signs.  Only the aggregate tree's column write
(`aggtree.write_column`) needs it, where two changed leaves share an
ancestor: a master array's column write sets a bit in some chunks and
clears it in others in that one step.  Every bound built on the step
assumes the rule; without it the write would add level by level.

The paper's epsilon enters here and nowhere else: it sets the round count of
the common-policy extremum (`_extremum_rounds`), and with it that
primitive's depth.  The extremum runs on small candidate sets, so the update
work the layers above meter is sqrt(n) * polylog(n) for every epsilon, not
the paper's n^(1/2 + epsilon): with n random edges seeded and 240 churn
calls, mean update work at n = 64 and 256 differed by at most 0.04% across
epsilon in {1, 0.5, 0.25, 0.125}.
"""

from __future__ import annotations

import math
import random


class MeterError(RuntimeError):
    """An operation exceeded its declared depth budget or misused the meter."""


class CommonPolicy:
    """Common CRCW writes: all concurrent writers of a cell must write the same value."""

    kind = "common"

    def __init__(self, epsilon: float = 0.25):
        if not 0.0 < epsilon <= 1.0:
            raise ValueError("epsilon must be in (0, 1]")
        self.epsilon = epsilon

    def __repr__(self):
        return f"CommonPolicy(epsilon={self.epsilon})"


class ArbitraryPolicy:
    """Arbitrary CRCW writes: any one concurrent writer wins, reproducibly by seed."""

    kind = "arbitrary"

    def __init__(self, seed: int = 0):
        self.seed = seed

    def __repr__(self):
        return f"ArbitraryPolicy(seed={self.seed})"


class CostMeter:
    """Accumulates work and depth for one logical thread of simulated execution.

    Depth is kept per open scope: parallel_for pushes a frame per iteration and
    folds 1 + max(body depths) into the enclosing scope.  Charges made inside
    an ``initialization()`` block go to ``init_work`` and add no depth, since
    structure construction is not part of any per-operation bound.
    """

    def __init__(self, policy):
        self.policy = policy
        self.work = 0
        self.init_work = 0
        self._frames = [0]
        self._init_mode = 0
        self._rng = random.Random(getattr(policy, "seed", 0) ^ 0x5DEECE66D)

    # -- counters ---------------------------------------------------------

    @property
    def depth(self) -> int:
        return self._frames[0]

    def reset(self):
        """Zero work/depth for a fresh measurement window (top level only)."""
        if len(self._frames) != 1:
            raise MeterError("reset inside an open parallel scope")
        self.work = 0
        self._frames[0] = 0

    def charge(self, units: int = 1):
        """Sequential unit operations: work only, no depth."""
        if self._init_mode:
            self.init_work += units
        else:
            self.work += units

    def phase(self):
        """An empty synchronous step: +1 depth, no work."""
        if not self._init_mode:
            self._frames[-1] += 1

    def parallel_charge(self, count: int, unit: int = 1):
        """A flat parallel loop of `count` iterations, each of `unit` body cost.

        Equivalent in cost to parallel_for(count, body charging `unit`) without
        paying Python call overhead per iteration.
        """
        units = count * (1 + unit)
        if self._init_mode:
            self.init_work += units
        else:
            self.work += units
            self._frames[-1] += 1

    def parallel_for(self, count: int, body):
        """Run `body(i)` for i in range(count) with parallel cost semantics.

        Iterations execute sequentially in Python but are charged as one
        synchronous step: depth 1 + max over bodies, work = count scheduling
        units plus the sum of body charges.  Bodies must write disjoint cells;
        this is not re-verified here.  If a body raises, the frame stack is
        closed back to its entry length, so the enclosing depth stays as it
        was at entry.
        """
        if self._init_mode:
            self.init_work += count
            for i in range(count):
                body(i)
            return
        self.work += count
        frames = self._frames
        base = len(frames)
        deepest = 0
        try:
            for i in range(count):
                frames.append(0)
                body(i)
                d = frames.pop()
                if d > deepest:
                    deepest = d
        finally:
            del frames[base:]
        frames[-1] += 1 + deepest

    def initialization(self):
        """Route charges in this block to init_work (construction cost)."""
        return _Initialization(self)

    def bounded(self, depth_budget: int, label: str = ""):
        """Measure the enclosed block and fail if its depth exceeds the budget.

        The block keeps exactly the work and depth it charged, so the meter
        reports what the algorithm spent while the bound stays falsifiable.
        The check runs after the block completes, so a MeterError reports a
        broken contract, not a rejection: whatever the block changed stays
        changed and consistent, and the meter keeps its charges.  A block
        that raises is not checked.
        """
        return _Bounded(self, depth_budget, label)

    # -- primitives ---------------------------------------------------------

    def reduce_extremum(self, values):
        """Return (index, value) of the minimum of `values`; common policy
        only, as `pick` sends the arbitrary policy to `choose_any`.

        Blocked recursion on subarrays of size ~n^epsilon; ties resolve to
        the lowest index and the round count (hence depth) depends only on
        epsilon.
        """
        n = len(values)
        if n == 0:
            raise ValueError("empty reduction")
        if self.policy.kind != "common":
            raise MeterError("reduce_extremum requires the common write policy")
        eps = self.policy.epsilon
        rounds_budget = _extremum_rounds(eps)
        block = max(2, math.ceil(n ** eps))
        live = range(n)
        rounds = 0
        while len(live) > 1:
            nxt = []
            pairs = 0
            for start in range(0, len(live), block):
                blk = live[start : start + block]
                pairs += len(blk) * len(blk)
                nxt.append(_block_min(values, blk))
            self.parallel_charge(pairs)      # all-pairs comparisons of one round
            self.parallel_charge(len(live))  # per-block winner readout
            live = nxt
            rounds += 1
        if rounds > rounds_budget:
            raise MeterError(f"extremum recursion took {rounds} > {rounds_budget} rounds")
        for _ in range(rounds, rounds_budget):
            self.phase()
            self.phase()
        self.phase()
        idx = live[0] if len(live) else 0
        return idx, values[idx]

    def pick(self, values):
        """The least of `values` under the common policy, a seeded draw under
        the arbitrary one: the one choice that depends on the write policy."""
        if self.policy.kind == "common":
            return self.reduce_extremum(values)[1]
        return self.choose_any(values)

    def choose_any(self, candidates):
        """Pick one element of a non-empty list, seeded; arbitrary policy only."""
        if not candidates:
            raise ValueError("empty choice")
        if self.policy.kind != "arbitrary":
            raise MeterError("choose_any requires the arbitrary write policy")
        self.parallel_charge(len(candidates))
        return candidates[self._rng.randrange(len(candidates))]

    def prefix_and(self, bits):
        """out[i] = AND of bits[0..i], charged as the all-pairs constant-depth scheme."""
        n = len(bits)
        self.parallel_charge(n)          # initialise output to ones
        self.parallel_charge(n * n)      # pair (i, j<=i) zero-propagation
        out = [0] * n
        acc = 1
        for i, b in enumerate(bits):
            if not b:
                acc = 0
            out[i] = acc
        return out

    def initial_segment_end(self, bits):
        """Largest i with bits[0..i] all ones, or None if bits is empty or starts with 0."""
        n = len(bits)
        if n == 0:
            return None
        prefix = self.prefix_and(bits)
        # one common write: the one index whose prefix bit is 1 and whose
        # successor's is 0, or which is last, writes itself to the output;
        # none does when bits[0] is 0
        self.parallel_charge(n)
        ones = sum(prefix)
        return ones - 1 if ones else None


# -- metered depth of the primitives -------------------------------------------
#
# Every parallel_charge, phase and parallel_for adds one level of depth (a
# parallel_for also adds its deepest body); a plain charge adds none.  The
# layers above compose their own depth bounds from these figures.

PREFIX_AND_DEPTH = 2  # initialise the output, then the pairwise propagation
CHOOSE_ANY_DEPTH = 1  # one race of the candidates for the output cell


def _extremum_rounds(epsilon):
    return math.ceil(1.0 / epsilon) + 2


def extremum_depth(policy) -> int:
    """Depth of reduce_extremum, a common-policy primitive: two levels per
    blocked round, padded to the epsilon-only round budget, and the final
    readout."""
    return 2 * _extremum_rounds(policy.epsilon) + 1


def pick_depth(policy) -> int:
    """Depth of CostMeter.pick: a min reduction, or one race."""
    return extremum_depth(policy) if policy.kind == "common" else CHOOSE_ANY_DEPTH


def segment_end_depth(policy) -> int:
    """Depth of initial_segment_end, the same under either policy: a prefix
    AND, then one common write."""
    return PREFIX_AND_DEPTH + 1


def _block_min(values, block):
    """Lowest-index minimum of `values` restricted to index iterable `block`."""
    it = iter(block)
    best_i = next(it)
    best_v = values[best_i]
    for i in it:
        v = values[i]
        if v < best_v:
            best_v, best_i = v, i
    return best_i


class _Initialization:
    """The scope of CostMeter.initialization; scopes nest, and each one
    restores the mode it found, also when its block raises."""

    __slots__ = ("meter",)

    def __init__(self, meter):
        self.meter = meter

    def __enter__(self):
        self.meter._init_mode += 1

    def __exit__(self, *exc):
        self.meter._init_mode -= 1


class _Bounded:
    """The scope of CostMeter.bounded: checks the depth its block charged
    once the block completes."""

    __slots__ = ("meter", "budget", "label", "base")

    def __init__(self, meter, budget, label):
        self.meter = meter
        self.budget = budget
        self.label = label

    def __enter__(self):
        self.base = self.meter._frames[-1]

    def __exit__(self, exc_type, exc, tb):
        used = self.meter._frames[-1] - self.base
        if exc_type is None and used > self.budget:
            raise MeterError(
                f"{self.label or 'operation'}: depth {used} exceeds budget {self.budget}"
            )

"""Weak (2,6)-trees over sequences of bit arrays with bitwise-OR inner summaries.

Leaves hold bit arrays (Python ints) in sequence order; every inner vertex
holds the OR of its children.  All leaves sit at equal depth, inner vertices
have 2..6 children (the root at least min(2, size)), and every leaf keeps a
pointer to each of its ancestors, which is what makes constant-depth
restructuring possible.  A leaf is a height-0 `AggVertex` (a subclass may
carry more fields) that the caller builds and hangs with `insert`; deleting
or splitting it out leaves the same object detached.  A hung leaf also
records the handle of its tree (`array`) and its position in the leaf list
(`pos`).  The tree writes both for every leaf it moves, in the phase that
moves it: the leaf shift of an insertion or deletion, the concatenation of a
join and the leaf lists of a split.  Where a whole leaf list changes handle
(a split at the first leaf, a join into an empty tree) one phase over those
leaves rewrites `array`.  A detached leaf has `array` None and `pos` -1.

Every structural update is organised as a fixed number of parallel phases:

  * inserting a leaf hangs it beside its neighbour and joining two trees
    hangs the shorter root off the taller tree's spine; both run one
    overflow cascade (`_attach`): one phase finds the first ancestor with
    room, then every full ancestor on the path splits in half and carries
    the new half upward in one phase, growing a new root if the old one
    overflows;
  * deleting a leaf removes it from its parent; one phase finds the first
    ancestor that stops the underflow cascade, then in one phase every
    vertex left with one child hands it to an adjacent sibling (or, when
    the sibling is full, takes two of the sibling's children and stops);
    a root left with one child is dropped, and one more phase rebuilds the
    summaries of the changed vertices.  Insertion and deletion touch only
    the leaf's ancestor path and its siblings;
  * the OR over a range of leaves is read off the siblings between the two
    boundary leaves' ancestor paths, without changing the tree;
  * splitting at a boundary cuts along the path of the first right-hand
    leaf: its left siblings at every level are the left fragments, the leaf
    and its right siblings the right ones.  The left side stays in the
    split tree's handle and the right side gets a new one, just as a join
    leaves the joined tree in the first tree's handle and empties the
    second.  Each side is reassembled with a pipeline of (1)
    carry-lookahead grouping of equal-height runs, (2) spine pre-splitting
    down to degrees 2-3 (roots included), (3) joining the isolated
    equal-height pairs that root splits can produce, and (4) one parallel
    phase that attaches the remaining strictly-height-decreasing trees
    along each other's spines.

The restructuring steps have one copy each: `_grow_root` puts a new root
over two equal-height vertices, `_halve` splits a full vertex in two,
`_join_equal` joins two equal-height roots and `_summarize` rebuilds a
vertex's OR and its first and last leaf.

Python executes the phases sequentially; the meter charges them as the
parallel algorithm would (constant depth, O(width * log^2) work per call).
"""

from __future__ import annotations


class AggVertex:
    """A tree vertex.  Built at height 0 it is a detached leaf: its own first
    and last leaf and its own only ancestor, in no tree.  Only leaves keep
    ancestors, a tree and a position; an inner vertex gets its summary from
    `_summarize`."""

    __slots__ = ("height", "children", "fst", "lst", "bits", "ancestors", "array", "pos")

    def __init__(self, height=0, children=None, bits=0):
        self.height = height
        self.children = children
        self.fst = self
        self.lst = self
        self.bits = bits
        self.ancestors = None if height else [self]
        self.array = None
        self.pos = -1

    def __repr__(self):
        return f"<AggVertex h={self.height} bits={self.bits:#x}>"


class AggTree:
    """Handle for one aggregate tree.  The handle outlives every change to
    the tree: a boundary split keeps the left side in it and `join` leaves
    the joined tree in its first argument, so it can name a sequence for as
    long as the sequence exists."""

    __slots__ = ("meter", "width", "root", "leaves")

    def __init__(self, meter, width, root=None, leaves=None):
        self.meter = meter
        self.width = width
        self.root = root
        self.leaves = leaves if leaves is not None else []

    # -- queries ------------------------------------------------------------

    def __len__(self):
        return len(self.leaves)

    # -- leaf-level updates ---------------------------------------------------

    def bit_set(self, i, j, b):
        """Set bit j of leaf i and repair the OR summaries along its path."""
        if not 0 <= i < len(self.leaves):
            raise IndexError("leaf position out of range")
        if not 0 <= j < self.width:
            raise IndexError("bit index out of range")
        leaf = self.leaves[i]
        mask = 1 << j
        self.meter.charge(2)
        if b:
            leaf.bits |= mask
            anc = leaf.ancestors
            self.meter.parallel_charge(len(anc))
            for v in anc:
                v.bits |= mask
        else:
            leaf.bits &= ~mask
            # each ancestor rebuilds bit j from the subtrees below it
            anc = leaf.ancestors
            self.meter.parallel_charge(len(anc), unit=6 * len(anc))
            _reor_ancestors(leaf)

    def bulk_set(self, i, bits):
        """Replace the bit array of leaf i; summaries repaired level-wise.
        Writing the bits a leaf already holds is charged the same but leaves
        the summaries, which it cannot change, as they are."""
        if not 0 <= i < len(self.leaves):
            raise IndexError("leaf position out of range")
        leaf = self.leaves[i]
        anc = leaf.ancestors
        w = self.width
        self.meter.parallel_charge(len(anc), unit=6 * w)
        if leaf.bits != bits:
            leaf.bits = bits
            _reor_ancestors(leaf)

    def dual_bulk_set(self, positions, j, b):
        """Set bit j to b on every leaf position in `positions`."""
        if b:
            self.meter.parallel_charge(len(positions), unit=1)
            mask = 1 << j
            for i in positions:
                leaf = self.leaves[i]
                leaf.bits |= mask
                for v in leaf.ancestors:
                    v.bits |= mask
            return
        # clearing: wipe the column everywhere, then re-set the survivors
        drop = set(positions)
        keep = [
            i for i, leaf in enumerate(self.leaves)
            if (leaf.bits >> j & 1) and i not in drop
        ]
        self._clear_column(j)
        self.dual_bulk_set(keep, j, 1)

    def _clear_column(self, j):
        mask = ~(1 << j)
        count = 0
        if self.root is not None:
            stack = [self.root]
            while stack:
                v = stack.pop()
                v.bits &= mask
                count += 1
                if v.children:
                    stack.extend(v.children)
        self.meter.parallel_charge(count)

    # -- structural updates ---------------------------------------------------

    def insert(self, i, leaf):
        """Hang the detached leaf `leaf` at position i.

        The leaf joins its neighbour's parent; overfull ancestors split in
        half along the way up (`_attach`), so only that one path changes.
        """
        n = len(self.leaves)
        if not 0 <= i <= n:
            raise IndexError("leaf position out of range")
        meter, width = self.meter, self.width
        meter.parallel_charge(n - i + 1)  # the leaf array shifts right, placed
        root = self.root
        if root is None:
            self.root = leaf
        elif root.height == 0:
            pair = (leaf, root) if i == 0 else (root, leaf)
            self.root = _grow_root(meter, width, *pair)
        elif i == 0:
            self.root = _attach(meter, width, root, leaf, self.leaves[0], False)
        else:
            self.root = _attach(meter, width, root, leaf, self.leaves[i - 1], True)
        self.leaves.insert(i, leaf)
        _place(self, i)

    def delete(self, i):
        """Delete leaf i, restructuring only along its ancestor path; the
        leaf leaves detached, with its bits.

        A vertex left with one child hands it to an adjacent sibling and
        disappears, which carries the underflow one level up; when that
        sibling is already full the two share the seven children instead
        and the cascade stops.  A root left with one child is dropped.
        """
        n = len(self.leaves)
        if not 0 <= i < n:
            raise IndexError("leaf position out of range")
        meter = self.meter
        leaf = self.leaves.pop(i)
        meter.parallel_charge(n - i)  # the leaf array shifts left, placed
        _place(self, i)
        leaf.array, leaf.pos = None, -1
        root = self.root
        if root.height == 0:
            self.root = None
            return
        path = leaf.ancestors
        # identification of the first ancestor that stops the cascade: it
        # keeps two children or its sibling is full; constant depth
        meter.parallel_charge(root.height, unit=root.height)
        meter.phase()
        changed = []  # vertices whose summaries are rebuilt, bottom-up
        moved_leaves = 0
        gone = leaf
        level = 1
        while True:
            v = path[level]
            kids = v.children
            kids.remove(gone)
            if v is root or len(kids) >= 2:
                break
            # v kept one child: hand it to an adjacent sibling
            siblings = path[level + 1].children
            at = siblings.index(v)
            left = at > 0
            s = siblings[at - 1] if left else siblings[at + 1]
            changed.append(s)
            if len(s.children) == 6:
                # seven children between them: v takes three and stays
                if left:
                    moved = s.children[-2:]
                    del s.children[-2:]
                    kids[:0] = moved
                else:
                    moved = s.children[:2]
                    del s.children[:2]
                    kids.extend(moved)
                for c in moved:
                    for lf in _leaves_under(c):
                        lf.ancestors[level] = v
                        moved_leaves += 1
                changed.append(v)
                level += 1
                break
            only = kids[0]
            if left:
                s.children.append(only)
            else:
                s.children.insert(0, only)
            for lf in _leaves_under(only):
                lf.ancestors[level] = s
                moved_leaves += 1
            gone = v
            level += 1
        meter.parallel_charge(moved_leaves)
        changed.extend(path[level : root.height + 1])
        if len(root.children) == 1:
            # the root kept one child: it goes, and every path loses its top
            changed.pop()
            self.root = root.children[0]
            for lf in self.leaves:
                del lf.ancestors[-1]
            meter.parallel_charge(len(self.leaves))
        read = 0
        for w in changed:
            _summarize(w)
            read += len(w.children)
        meter.parallel_charge(len(changed))
        meter.charge(read * self.width)
        del path[1:]

    def range_bits(self, i, j):
        """The OR of the bits of leaves i .. j-1; 0 for an empty range.

        The paths of the two boundary leaves run up to their lowest common
        ancestor; every sibling lying between the two paths is ORed in.
        The tree is not changed.
        """
        if not 0 <= i <= j <= len(self.leaves):
            raise IndexError("leaf range out of range")
        meter = self.meter
        if i == j:
            meter.charge(1)
            return 0
        a = self.leaves[i].ancestors
        b = self.leaves[j - 1].ancestors
        # the lowest common ancestor: the first height where the paths meet
        meter.parallel_charge(len(a))
        meter.phase()
        top = 0
        while a[top] is not b[top]:
            top += 1
        between = [a[0], b[0]]  # the leaves at both ends and the siblings
        for h in range(1, top):
            kids = a[h].children
            between += kids[kids.index(a[h - 1]) + 1 :]
            kids = b[h].children
            between += kids[: kids.index(b[h - 1])]
        if top:
            kids = a[top].children
            between += kids[kids.index(a[top - 1]) + 1 : kids.index(b[top - 1])]
        acc = 0
        for v in between:
            acc |= v.bits
        meter.parallel_charge(len(between), unit=self.width)
        return acc

    def split(self, i):
        """Remove leaf i, which leaves detached, and cut the tree there: the
        leaves before it stay in this tree; returns (tree of the leaves after
        it, bits of leaf i)."""
        if not 0 <= i < len(self.leaves):
            raise IndexError("leaf position out of range")
        right = self.split_boundary(i)
        bits = right.leaves[0].bits
        right.delete(0)
        return right, bits

    def split_boundary(self, pos):
        """Split between leaves pos-1 and pos: leaves 0 .. pos-1 stay in this
        tree and the rest are returned as a new one.

        Leaf pos and its right siblings along its ancestor path are the
        right-hand fragments, its left siblings the left-hand ones, and each
        side is reassembled into one tree (`_assemble`).
        """
        meter, width = self.meter, self.width
        n = len(self.leaves)
        if not 0 <= pos <= n:
            raise IndexError("split position out of range")
        if pos == n:
            return AggTree(meter, width)
        if pos == 0:
            right = AggTree(meter, width, self.root, self.leaves)
            self.root, self.leaves = None, []
            meter.parallel_charge(n)  # every leaf names the new handle
            _place(right)
            return right
        leaf = self.leaves[pos]
        path = leaf.ancestors
        height = self.root.height
        # top-down, so heights never increase; the right side in reverse
        # leaf order
        lefts, rights = [], []
        meter.parallel_charge(height, unit=8)
        for k in range(height, 0, -1):
            kids = path[k].children
            idx = kids.index(path[k - 1])
            lefts.extend(kids[:idx])
            rights.extend(reversed(kids[idx + 1 :]))
        rights.append(leaf)
        meter.parallel_charge(n)  # the two leaf lists, the right one placed
        leaves = self.leaves
        self.root = _assemble(meter, width, lefts, right_side=True)
        self.leaves = leaves[:pos]
        right_root = _assemble(meter, width, rights, right_side=False)
        right = AggTree(meter, width, right_root, leaves[pos:])
        _place(right)
        return right


def join(t1: AggTree, t2: AggTree):
    """Append t2's leaves to t1's; the joined tree is left in t1 and t2 is
    left empty."""
    if t2.root is None:
        return
    base = len(t1.leaves)
    if t1.root is not None:
        meter, width = t1.meter, t1.width
        # the leaf concatenation, which places t2's leaves after t1's
        meter.parallel_charge(base + len(t2.leaves))
        h1, h2 = t1.root.height, t2.root.height
        if h1 == h2:
            t1.root = _join_equal(meter, width, t1.root, t2.root)
        elif h1 > h2:
            t1.root = _attach(meter, width, t1.root, t2.root, t1.root.lst, right_side=True)
        else:
            t1.root = _attach(meter, width, t2.root, t1.root, t2.root.fst, right_side=False)
        t1.leaves += t2.leaves
    else:
        t1.root, t1.leaves = t2.root, t2.leaves
        t1.meter.parallel_charge(len(t1.leaves))  # every leaf names t1
    _place(t1, base)
    t2.root, t2.leaves = None, []


# -- the restructuring steps ---------------------------------------------------


def _place(tree, start=0):
    """Record `tree` and the position on its leaves from `start` on; the
    callers charge it in the phase that moves those leaves."""
    leaves = tree.leaves
    for k in range(start, len(leaves)):
        leaf = leaves[k]
        leaf.array = tree
        leaf.pos = k


def _reor_ancestors(leaf):
    """Rebuild the OR of every vertex above `leaf` from its children,
    bottom-up; the callers charge it."""
    anc = leaf.ancestors
    for h in range(1, len(anc)):
        v = anc[h]
        acc = 0
        for c in v.children:
            acc |= c.bits
        v.bits = acc


def _summarize(v):
    """Rebuild inner vertex v's OR and first and last leaf from its children."""
    kids = v.children
    acc = 0
    for c in kids:
        acc |= c.bits
    v.bits = acc
    v.fst = kids[0].fst
    v.lst = kids[-1].lst


def _grow_root(meter, width, a, b):
    """A new root over the equal-height vertices a and b, a's leaves first;
    every leaf below gains it as its top ancestor."""
    root = AggVertex(a.height + 1, [a, b])
    _summarize(root)
    appended = 0
    for r in (a, b):
        for leaf in _leaves_under(r):
            leaf.ancestors.append(root)
            appended += 1
    meter.parallel_charge(appended)
    meter.charge(width)
    return root


def _halve(v, right_side):
    """Move the half of v's children on the right (or left) end into a new
    vertex of v's height and summarize both; returns the new vertex and the
    number of leaves below it.  The caller charges: a cascade of halvings
    rewrites its moved leaves' ancestors in one phase."""
    kids = v.children
    half = len(kids) // 2
    if right_side:
        part = kids[-half:]
        del kids[-half:]
    else:
        part = kids[:half]
        del kids[:half]
    newv = AggVertex(v.height, part)
    _summarize(newv)
    _summarize(v)
    level = v.height
    moved = 0
    for c in part:
        for leaf in _leaves_under(c):
            # leaves of a tree being attached still carry their short
            # arrays; `_attach` rebuilds those after its cascade
            if level < len(leaf.ancestors):
                leaf.ancestors[level] = newv
            moved += 1
    return newv, moved


def _join_equal(meter, width, a, b):
    """Join two roots of equal height, a's leaves first; returns the new
    root.  b's children move under a when a has room for them, in one phase
    with their leaves' ancestor pointers; otherwise a new root grows."""
    if a.height == 0 or len(a.children) + len(b.children) > 6:
        return _grow_root(meter, width, a, b)
    moved = _leaves_under(b)
    for leaf in moved:
        leaf.ancestors[b.height] = a
    meter.parallel_charge(len(b.children) + len(moved))
    meter.charge(width)
    a.children.extend(b.children)
    _summarize(a)
    return a


def _attach(meter, width, tall_root, short_root, anchor_leaf, right_side):
    """Hang `short_root` beside the ancestor of `anchor_leaf` at its height,
    after it when right_side and before it otherwise; returns the new root.

    An ancestor left with seven children splits in half and the half away
    from its old place is carried one level up, as a sibling of the part
    that stays; an overflowing root grows a new root.
    """
    hs = short_root.height
    path = anchor_leaf.ancestors  # rewritten at a level only after it is read
    anchor = path[hs]
    # identification of the first non-full ancestor: constant depth, log^2 work
    meter.parallel_charge(tall_root.height - hs, unit=tall_root.height)
    meter.phase()
    new_node = short_root
    level = hs + 1
    root = tall_root
    below = short_root  # the short tree's ancestor one level below `level`
    chain = []  # its ancestors from height hs + 1 up, once final
    halvings = 0
    moved_leaves = 0
    while True:
        if level > root.height:
            # the old root overflowed all the way up: grow the tree
            pair = (root, new_node) if right_side else (new_node, root)
            root = _grow_root(meter, width, *pair)
            chain.append(root)
            break
        parent = path[level]
        kids = parent.children
        at = kids.index(anchor)
        kids.insert(at + 1 if right_side else at, new_node)
        if len(kids) <= 6:
            chain.append(parent)
            chain.extend(path[level + 1 :])
            break
        # overflow: split off the half on the insertion side, carry it upward
        newv, moved = _halve(parent, right_side)
        halvings += 1
        moved_leaves += moved
        below = newv if below in newv.children else parent
        chain.append(below)
        anchor = parent
        new_node = newv
        level += 1
    meter.parallel_charge(moved_leaves)
    meter.charge(2 * width * halvings)
    # repair summaries and boundary pointers on the short tree's new ancestors
    for w in chain:
        _summarize(w)
    meter.parallel_charge(len(chain), unit=width)
    short_leaves = _leaves_under(short_root)
    for leaf in short_leaves:
        del leaf.ancestors[hs + 1 :]
        leaf.ancestors.extend(chain)
    meter.parallel_charge(len(short_leaves), unit=len(chain))
    return root


# -- multi-tree reassembly (used by split_boundary) ----------------------------


def _assemble(meter, width, roots, right_side):
    """Build one valid tree out of sibling subtrees cut along a root path;
    returns its root.

    `roots` is non-empty and ordered with non-increasing heights; for
    right_side=True the list order is the leaf order (left fragment of a
    split), otherwise the list is the reversed leaf order (right fragment).
    """
    # P0: drop stale ancestor entries above each fragment root
    trimmed = 0
    for r in roots:
        h = r.height
        for leaf in _leaves_under(r):
            del leaf.ancestors[h + 1 :]
            trimmed += 1
    meter.parallel_charge(trimmed)
    # P1: carry-lookahead grouping of equal-height runs
    by_h = {}
    for r in roots:
        by_h.setdefault(r.height, []).append(r)
    max_h = roots[0].height
    carry = None
    finals = []
    # the carry chain is a prefix computation over the height histogram; one
    # parallel phase covers the whole grouping including ancestor appends
    appended = 0
    group_work = 0
    h = min(by_h)
    while True:
        items = list(by_h.get(h, ()))
        if carry is not None:
            items.append(carry)  # carry covers leaves beyond the originals
            carry = None
        if len(items) == 1:
            finals.append(items[0])
        elif len(items) >= 2:
            if not right_side:
                items.reverse()
            g = AggVertex(h + 1, items)
            _summarize(g)
            group_work += width
            for c in items:
                for leaf in _leaves_under(c):
                    leaf.ancestors.append(g)
                    appended += 1
            carry = g
        if h >= max_h and carry is None:
            break
        h += 1
    meter.parallel_charge(len(roots), unit=max_h + 1)
    meter.parallel_charge(appended)
    meter.charge(group_work)
    finals.sort(key=lambda r: -r.height)
    # P2: pre-split every spine (roots included) down to degrees 2..3

    def presplit_body(idx):
        finals[idx] = _presplit_spine(meter, width, finals[idx], right_side)

    meter.parallel_for(len(finals), presplit_body)
    # P3: root splits can create isolated equal-height neighbours; join them
    survivors = []
    pairs = []
    for r in finals:
        if survivors and survivors[-1].height == r.height:
            pairs.append((len(survivors) - 1, r))
        else:
            survivors.append(r)

    def join_body(i):
        at, r = pairs[i]
        pair = (survivors[at], r) if right_side else (r, survivors[at])
        survivors[at] = _join_equal(meter, width, *pair)

    meter.parallel_for(len(pairs), join_body)
    # P4: one parallel phase attaches the strictly-shorter trees along spines
    return _parallel_attach(meter, width, survivors, right_side)


def _presplit_spine(meter, width, root, right_side):
    """Split attachment-side spine vertices of degree >= 4 into 2..3 halves."""
    if root.height == 0:
        meter.charge(1)
        return root
    spine_leaf = root.lst if right_side else root.fst
    spine = list(spine_leaf.ancestors)  # bottom-up, [0] is the leaf
    incoming = None
    work = 0
    moved = 0
    for level in range(1, root.height + 1):
        w = spine[level]
        if incoming is not None:
            if right_side:
                w.children.append(incoming)
            else:
                w.children.insert(0, incoming)
        if len(w.children) >= 4:
            incoming, m = _halve(w, right_side)
            moved += m
            work += 2 * width
        else:
            _summarize(w)
            incoming = None
            work += width
    if incoming is not None:
        # the root itself split: a fresh degree-2 root sits on top
        pair = (root, incoming) if right_side else (incoming, root)
        root = _grow_root(meter, width, *pair)
    meter.parallel_charge(moved)
    meter.charge(work)
    return root


def _parallel_attach(meter, width, survivors, right_side):
    """Attach strictly-height-decreasing trees along each other's spines."""
    if len(survivors) == 1:
        meter.phase()
        return survivors[0]
    top = survivors[0]
    height = top.height
    # final spine table: spine[lvl] is the attachment-side vertex at lvl
    spine = [None] * (height + 1)
    j = 0
    for lvl in range(height, -1, -1):
        while j + 1 < len(survivors) and survivors[j + 1].height >= lvl:
            j += 1
        s = survivors[j]
        spine_leaf = s.lst if right_side else s.fst
        spine[lvl] = spine_leaf.ancestors[lvl] if lvl <= s.height else None
    meter.parallel_charge(height + 1, unit=len(survivors))
    # wire each shorter tree under the spine vertex one level above it
    for i in range(1, len(survivors)):
        s = survivors[i]
        parent = spine[s.height + 1]
        if right_side:
            parent.children.append(s)
        else:
            parent.children.insert(0, s)
    meter.parallel_charge(len(survivors))
    # summaries, boundary leaves and ancestor extensions, one phase each;
    # bottom-up, so every spine vertex reads final children
    for lvl in range(1, height + 1):
        _summarize(spine[lvl])
    meter.parallel_charge(height, unit=len(survivors) * 2 + width)
    extended = 0
    for i in range(1, len(survivors)):
        s = survivors[i]
        ext = [spine[lvl] for lvl in range(s.height + 1, height + 1)]
        for leaf in _leaves_under(s):
            del leaf.ancestors[s.height + 1 :]
            leaf.ancestors.extend(ext)
            extended += len(ext)
    meter.parallel_charge(extended)
    return top


def _leaves_under(v):
    """The leaves below v in sequence order.  At height 1 this is v's own
    child list, so callers must not mutate the result."""
    h = v.height
    if h == 0:
        return [v]
    level = v.children
    for _ in range(h - 1):
        level = [g for w in level for g in w.children]
    return level


# -- metered depth per operation ------------------------------------------------
#
# Upper bounds counted from the phases above: each parallel_charge, phase and
# parallel_for adds one level (a parallel_for also adds its deepest body), a
# plain charge adds none.  They hold on every branch and depend on neither
# the number of leaves nor the width.

# _grow_root and _join_equal: one phase (the leaves' ancestor pointers, with
# the moved children for a join)
_JOIN_EQUAL_DEPTH = 1
# _attach: search for the first ancestor with room (a charge and a phase), a
# root grow, the moved leaves, the new ancestors' summaries and the short
# tree's ancestor extension
_ATTACH_DEPTH = 2 + _JOIN_EQUAL_DEPTH + 3
_JOIN_DEPTH = 1 + max(_ATTACH_DEPTH, _JOIN_EQUAL_DEPTH)  # leaf concatenation first
# _assemble: P0 trim, P1 grouping (3 sweeps), P2 presplit loop (1 + a root
# grow and the moved leaves), P3 join loop (1 + _join_equal), P4
# _parallel_attach (4)
_ASSEMBLE_DEPTH = 1 + 3 + (1 + _JOIN_EQUAL_DEPTH + 1) + (1 + _JOIN_EQUAL_DEPTH) + 4
# path decomposition and leaf lists, then the two sides one after the other
_SPLIT_BOUNDARY_DEPTH = 2 + 2 * _ASSEMBLE_DEPTH
# the leaf array shifts, the search for the ancestor that stops the underflow
# (a charge and a phase), the moved leaves, a root drop and the summaries of
# the changed vertices
_DELETE_DEPTH = 1 + 2 + 1 + 1 + 1

DEPTH_BOUNDS = {
    "bit_set": 1,  # one repair of the ancestor chain
    "bulk_set": 1,
    "dual_bulk_set": 2,  # clearing wipes the column, then re-sets the survivors
    "join": _JOIN_DEPTH,
    "split_boundary": _SPLIT_BOUNDARY_DEPTH,
    # the boundary split, then the right tree's first leaf is deleted
    "split": _SPLIT_BOUNDARY_DEPTH + _DELETE_DEPTH,
    # the leaf array shifts, then the leaf is attached beside its neighbour
    "insert": 1 + _ATTACH_DEPTH,
    "delete": _DELETE_DEPTH,
    # the search for the lowest common ancestor (a charge and a phase),
    # then the OR of the siblings between the two paths
    "range_bits": 2 + 1,
}

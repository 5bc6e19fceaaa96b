"""Weak (2,6)-trees over sequences of bit arrays with bitwise-OR inner summaries.

Leaves hold bit arrays (Python ints) in sequence order; every inner vertex
holds the OR of its children.  All leaves sit at equal depth, inner vertices
have 2..6 children (the root at least min(2, size)), and every leaf keeps a
pointer to each of its ancestors, which is what makes constant-depth
restructuring possible.  A leaf is a height-0 `AggVertex` (a subclass may
carry more fields) that the caller builds and hangs with `insert`; deleting
or splitting it out leaves the same object detached.

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
  * splitting decomposes the tree along the leaf-to-root path into sibling
    subtrees, then reassembles each side with a pipeline of (1) carry-lookahead
    grouping of equal-height runs, (2) spine pre-splitting down to degrees 2-3
    (roots included), (3) fusing the isolated equal-height pairs that root
    splits can produce, and (4) one parallel phase that attaches the remaining
    strictly-height-decreasing trees along each other's spines.

Python executes the phases sequentially; the meter charges them as the
parallel algorithm would (constant depth, O(width * log^2) work per call).
"""

from __future__ import annotations


class AggVertex:
    """A tree vertex.  Built at height 0 it is a detached leaf: its own first
    and last leaf and its own only ancestor.  Only leaves keep ancestors."""

    __slots__ = ("height", "children", "fst", "lst", "bits", "ancestors")

    def __init__(self, height=0, children=None, fst=None, lst=None, bits=0):
        self.height = height
        self.children = children
        self.fst = fst or self
        self.lst = lst or self
        self.bits = bits
        self.ancestors = None if height else [self]

    def __repr__(self):
        return f"<AggVertex h={self.height} bits={self.bits:#x}>"


class AggTree:
    """Handle for one aggregate tree; join/split consume their inputs."""

    __slots__ = ("meter", "width", "root", "leaves")

    def __init__(self, meter, width, root=None, leaves=None):
        self.meter = meter
        self.width = width
        self.root = root
        self.leaves = leaves if leaves is not None else []

    # -- queries ------------------------------------------------------------

    def __len__(self):
        return len(self.leaves)

    def tree_height(self):
        """Height of the root; -1 for the empty tree."""
        self.meter.charge(1)
        return self.root.height if self.root is not None else -1

    def tree_anc(self, i, level):
        """The ancestor of leaf i at the given height."""
        self.meter.charge(1)
        leaf = self.leaves[i]
        if not 0 <= level < len(leaf.ancestors):
            raise IndexError(f"no ancestor at height {level}")
        return leaf.ancestors[level]

    def root_bits(self):
        self.meter.charge(1)
        return self.root.bits if self.root is not None else 0

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
            # each ancestor rebuilds its bit from the off-path subtrees below it
            anc = leaf.ancestors
            self.meter.parallel_charge(len(anc), unit=6 * len(anc))
            below = 0  # OR of bit j over off-path children seen so far
            for h in range(1, len(anc)):
                v = anc[h]
                child_on_path = anc[h - 1]
                for c in v.children:
                    if c is not child_on_path:
                        below |= (c.bits >> j) & 1
                if below:
                    v.bits |= mask
                else:
                    v.bits &= ~mask

    def bulk_set(self, i, bits):
        """Replace the bit array of leaf i; summaries repaired level-wise."""
        if not 0 <= i < len(self.leaves):
            raise IndexError("leaf position out of range")
        leaf = self.leaves[i]
        leaf.bits = bits
        anc = leaf.ancestors
        w = self.width
        self.meter.parallel_charge(len(anc), unit=6 * w)
        below = bits
        for h in range(1, len(anc)):
            v = anc[h]
            child_on_path = anc[h - 1]
            acc = below
            for c in v.children:
                if c is not child_on_path:
                    acc |= c.bits
            v.bits = acc
            below = acc

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
        meter.parallel_charge(n - i + 1)  # the leaf array shifts right
        root = self.root
        if root is None:
            self.root = leaf
        elif root.height == 0:
            pair = (leaf, root) if i == 0 else (root, leaf)
            self.root = _join_equal(meter, width, *pair, 2)
        elif i == 0:
            self.root = _attach(meter, width, root, leaf, self.leaves[0], False)
        else:
            self.root = _attach(meter, width, root, leaf, self.leaves[i - 1], True)
        self.leaves.insert(i, leaf)

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
        meter.parallel_charge(n - i)  # the leaf array shifts left
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
            kids = w.children
            acc = 0
            for c in kids:
                acc |= c.bits
            w.bits = acc
            w.fst = kids[0].fst
            w.lst = kids[-1].lst
            read += len(kids)
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
        """Remove leaf i, which leaves detached; return (left tree, right
        tree, bits of leaf i)."""
        if not 0 <= i < len(self.leaves):
            raise IndexError("leaf position out of range")
        meter, width = self.meter, self.width
        leaf = self.leaves[i]
        bits = leaf.bits
        if self.root is None or self.root.height == 0:
            self.root = None
            self.leaves = []
            return AggTree(meter, width), AggTree(meter, width), bits
        path = leaf.ancestors
        height = self.root.height
        lefts = []
        rights_leaf_order = []
        meter.parallel_charge(height, unit=8)
        for k in range(height, 0, -1):
            pk = path[k]
            idx = pk.children.index(path[k - 1])
            lefts.extend(pk.children[:idx])
        for k in range(1, height + 1):
            pk = path[k]
            idx = pk.children.index(path[k - 1])
            rights_leaf_order.extend(pk.children[idx + 1 :])
        left_leaves = self.leaves[:i]
        right_leaves = self.leaves[i + 1 :]
        meter.parallel_charge(len(self.leaves))
        left = _assemble(meter, self.width, lefts, left_leaves, right_side=True)
        right = _assemble(
            meter, self.width, list(reversed(rights_leaf_order)), right_leaves,
            right_side=False,
        )
        self.root = None
        self.leaves = []
        del path[1:]
        return left, right, bits

    def split_boundary(self, pos):
        """Split between leaves pos-1 and pos without removing a leaf."""
        meter, width = self.meter, self.width
        if pos == 0:
            out = AggTree(meter, width, self.root, self.leaves)
            self.root, self.leaves = None, []
            return AggTree(meter, width), out
        if pos == len(self.leaves):
            out = AggTree(meter, width, self.root, self.leaves)
            self.root, self.leaves = None, []
            return out, AggTree(meter, width)
        leaf = self.leaves[pos]
        left, right, _ = self.split(pos)
        return left, join(AggTree(meter, width, leaf, [leaf]), right)


def join(t1: AggTree, t2: AggTree) -> AggTree:
    """Join two trees; the leaves of t1 precede those of t2.  Consumes both."""
    meter, width = t1.meter, t1.width
    if t2.root is None:
        return t1
    if t1.root is None:
        return t2
    leaves = t1.leaves + t2.leaves
    meter.parallel_charge(len(leaves))
    h1, h2 = t1.root.height, t2.root.height
    if h1 == h2:
        root = _join_equal(meter, width, t1.root, t2.root, len(leaves))
    elif h1 > h2:
        root = _attach(meter, width, t1.root, t2.root, t1.root.lst, right_side=True)
    else:
        root = _attach(meter, width, t2.root, t1.root, t2.root.fst, right_side=False)
    out = AggTree(meter, width, root, leaves)
    t1.root, t1.leaves = None, []
    t2.root, t2.leaves = None, []
    return out


def _join_equal(meter, width, r1, r2, n_leaves):
    """Join two trees of equal height; returns the new root."""
    if r1.height > 0 and len(r1.children) + len(r2.children) <= 6:
        meter.parallel_charge(len(r2.children), unit=2)
        meter.charge(width)
        moved = _leaves_under(r2)
        for leaf in moved:
            leaf.ancestors[r2.height] = r1
        meter.parallel_charge(len(moved))
        r1.children.extend(r2.children)
        r1.bits |= r2.bits
        r1.lst = r2.lst
        return r1
    root = AggVertex(r1.height + 1, [r1, r2], r1.fst, r2.lst, r1.bits | r2.bits)
    meter.charge(width + 4)
    meter.parallel_charge(n_leaves)
    for r in (r1, r2):
        for leaf in _leaves_under(r):
            leaf.ancestors.append(root)
    return root


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
    split_bits_work = 0
    moved_leaves = 0
    while True:
        if level > root.height:
            # the old root overflowed all the way up: grow the tree
            pair = [root, new_node] if right_side else [new_node, root]
            newroot = AggVertex(
                level, pair, pair[0].fst, pair[-1].lst, pair[0].bits | pair[1].bits
            )
            for r in pair:
                for leaf in _leaves_under(r):
                    leaf.ancestors.append(newroot)
            meter.parallel_charge(len(_leaves_under(newroot)))
            meter.charge(width)
            root = newroot
            chain.append(newroot)
            break
        parent = path[level]
        kids = parent.children
        if right_side:
            kids.insert(kids.index(anchor) + 1, new_node)
        else:
            kids.insert(kids.index(anchor), new_node)
        if len(kids) <= 6:
            chain.append(parent)
            chain.extend(path[level + 1 :])
            break
        # overflow: split off the half on the insertion side, carry it upward
        half = len(kids) // 2
        if right_side:
            moved = kids[-half:]
            del kids[-half:]
        else:
            moved = kids[:half]
            del kids[:half]
        newv = AggVertex(level, moved, moved[0].fst, moved[-1].lst, 0)
        acc = 0
        for c in moved:
            acc |= c.bits
            for leaf in _leaves_under(c):
                # leaves of the short tree still carry their short arrays;
                # they are rebuilt wholesale after the cascade
                if level < len(leaf.ancestors):
                    leaf.ancestors[level] = newv
                moved_leaves += 1
        newv.bits = acc
        keep_acc = 0
        for c in kids:
            keep_acc |= c.bits
        parent.bits = keep_acc
        parent.fst = kids[0].fst
        parent.lst = kids[-1].lst
        split_bits_work += 2 * width
        below = newv if below in moved else parent
        chain.append(below)
        anchor = parent
        new_node = newv
        level += 1
    meter.parallel_charge(moved_leaves)
    meter.charge(split_bits_work)
    # repair summaries and boundary pointers on the short tree's new ancestors
    for w in chain:
        w.bits |= short_root.bits
        w.fst = w.children[0].fst
        w.lst = w.children[-1].lst
    meter.parallel_charge(len(chain), unit=width)
    short_leaves = _leaves_under(short_root)
    for leaf in short_leaves:
        del leaf.ancestors[hs + 1 :]
        leaf.ancestors.extend(chain)
    meter.parallel_charge(len(short_leaves), unit=len(chain))
    return root


# -- multi-tree reassembly (used by split) ------------------------------------


def _assemble(meter, width, roots, leaves, right_side):
    """Build one valid tree out of sibling subtrees cut along a root path.

    `roots` is ordered with non-increasing heights; for right_side=True the
    list order is the leaf order (left fragment of a split), otherwise the
    list is the reversed leaf order (right fragment).
    """
    out = AggTree(meter, width, None, leaves)
    if not roots:
        meter.phase()
        return out
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
            bits = 0
            for c in items:
                bits |= c.bits
            g = AggVertex(h + 1, items, items[0].fst, items[-1].lst, bits)
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
    # P3: root splits can create isolated equal-height neighbours; fuse them
    survivors = []
    pairs = []
    for r in finals:
        if survivors and survivors[-1].height == r.height:
            pairs.append((len(survivors) - 1, r))
        else:
            survivors.append(r)

    def fuse_body(i):
        at, r = pairs[i]
        survivors[at] = _fuse_pair(meter, width, survivors[at], r, right_side)

    meter.parallel_for(len(pairs), fuse_body)
    # P4: one parallel phase attaches the strictly-shorter trees along spines
    root = _parallel_attach(meter, width, survivors, right_side)
    out.root = root
    return out


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
    level = 1
    while level <= root.height:
        w = spine[level]
        kids = w.children
        if incoming is not None:
            if right_side:
                kids.append(incoming)
            else:
                kids.insert(0, incoming)
            incoming = None
        if len(kids) >= 4:
            half = len(kids) // 2
            if right_side:
                part = kids[-half:]
                del kids[-half:]
            else:
                part = kids[:half]
                del kids[:half]
            newv = AggVertex(level, part, part[0].fst, part[-1].lst, 0)
            acc = 0
            for c in part:
                acc |= c.bits
                for leaf in _leaves_under(c):
                    leaf.ancestors[level] = newv
                    moved += 1
            newv.bits = acc
            keep = 0
            for c in kids:
                keep |= c.bits
            w.bits = keep
            w.fst = kids[0].fst
            w.lst = kids[-1].lst
            work += 2 * width
            incoming = newv
        else:
            w.bits = 0
            for c in kids:
                w.bits |= c.bits
            w.fst = kids[0].fst
            w.lst = kids[-1].lst
            work += width
        level += 1
    if incoming is not None:
        # the root itself split: a fresh degree-2 root sits on top
        pair = [root, incoming] if right_side else [incoming, root]
        newroot = AggVertex(
            root.height + 1, pair, pair[0].fst, pair[-1].lst,
            pair[0].bits | pair[1].bits,
        )
        appended = 0
        for r in pair:
            for leaf in _leaves_under(r):
                leaf.ancestors.append(newroot)
                appended += 1
        meter.parallel_charge(appended)
        work += width
        root = newroot
    meter.parallel_charge(moved)
    meter.charge(work)
    return root


def _fuse_pair(meter, width, left_tree, right_tree, right_side):
    """Merge two equal-height roots (degrees sum to at most 6 by construction)."""
    a, b = (left_tree, right_tree) if right_side else (right_tree, left_tree)
    if a.height == 0:
        pair = [a, b]
        root = AggVertex(1, pair, a, b, a.bits | b.bits)
        a.ancestors.append(root)
        b.ancestors.append(root)
        meter.charge(width + 2)
        return root
    if len(a.children) + len(b.children) > 6:
        pair = [a, b]
        root = AggVertex(a.height + 1, pair, a.fst, b.lst, a.bits | b.bits)
        appended = 0
        for r in pair:
            for leaf in _leaves_under(r):
                leaf.ancestors.append(root)
                appended += 1
        meter.parallel_charge(appended)
        meter.charge(width)
        return root
    fixed = 0
    for leaf in _leaves_under(b):
        leaf.ancestors[b.height] = a
        fixed += 1
    meter.parallel_charge(fixed)
    meter.charge(width)
    a.children.extend(b.children)
    a.bits |= b.bits
    a.lst = b.lst
    return a


def _parallel_attach(meter, width, survivors, right_side):
    """Attach strictly-height-decreasing trees along each other's spines."""
    if not survivors:
        return None
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
    # summaries, boundary leaves and ancestor extensions, one phase each
    last = survivors[-1]
    end_leaf = last.lst if right_side else last.fst
    for lvl in range(1, height + 1):
        v = spine[lvl]
        acc = v.bits
        for i in range(1, len(survivors)):
            if survivors[i].height < lvl:
                acc |= survivors[i].bits
        v.bits = acc
        if right_side:
            v.lst = end_leaf
        else:
            v.fst = end_leaf
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

# _attach: search for the first ancestor with room (a charge and a phase), a
# root grow, the moved leaves, the new ancestors' summaries and the short
# tree's ancestor extension; _join_equal takes at most 2
_ATTACH_DEPTH = 2 + 1 + 3
_JOIN_DEPTH = 1 + max(_ATTACH_DEPTH, 2)  # leaf concatenation, then the attach
# _assemble: P0 trim, P1 grouping (3 sweeps), P2 presplit loop (1 + 2), P3 fuse
# loop (1 + 1), P4 _parallel_attach (4)
_ASSEMBLE_DEPTH = 1 + 3 + (1 + 2) + (1 + 1) + 4
_SPLIT_DEPTH = 2 + 2 * _ASSEMBLE_DEPTH  # path decomposition, leaf lists, two sides
_SPLIT_BOUNDARY_DEPTH = _SPLIT_DEPTH + _JOIN_DEPTH  # the split leaf rejoins the right

DEPTH_BOUNDS = {
    "bit_set": 1,  # one repair of the ancestor chain
    "bulk_set": 1,
    "dual_bulk_set": 2,  # clearing wipes the column, then re-sets the survivors
    "join": _JOIN_DEPTH,
    "split": _SPLIT_DEPTH,
    "split_boundary": _SPLIT_BOUNDARY_DEPTH,
    # the leaf array shifts, then the leaf is attached beside its neighbour
    "insert": 1 + _ATTACH_DEPTH,
    # the leaf array shifts, the search for the ancestor that stops the
    # underflow (a charge and a phase), the moved leaves, a root drop and
    # the summaries of the changed vertices
    "delete": 1 + 2 + 1 + 1 + 1,
    # the search for the lowest common ancestor (a charge and a phase),
    # then the OR of the siblings between the two paths
    "range_bits": 2 + 1,
}

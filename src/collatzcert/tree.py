"""Pruned 3x+1 tree growth over residue classes.

A codeword of length l+1 names a residue class mod 3^(l+1) and roots a tree
grown by the pruned inverse map.  Each 1-edge costs one level of modulus
knowledge, so a node known mod 3^m carries implicit path weight l+1-m; a node
reaching weight l (m=1) is frozen as a witness leaf.  Growth is a search
for the first two witness leaves: what lies below a node depends only on
its class mod 3^m, and a leaf is at least m-1 edges below it.  Every
growth the search makes is one ``grow_children``, whose ``_leaves`` merges
leaves into three two-slot pairs, ascending and padded with the growth's
key limit, so the worst key kept is always a pair's second slot.  One
rule merges the first two leaves (low, high) below a node into a pair
(first, second), in a growth and in a table's build alike: if low beats
first, the pair becomes (low, min(first, high)); otherwise, if low beats
second, second becomes low, for high then beats neither.  The first two
leaves below every class with m <= 10 are held in tables that
all growths share; a coarser node is walked depth-first along its 0-edge
chain, each 1-edge child being walked in turn or read from its table.  So
a growth holds what a table slot holds, the first two leaves, cut at its
cap: plain mode reads the first, strong mode both, and the companion those
of a codeword's prefixes.  Only the growth record drops the pads.

Table m is built whole from table m-1 the first time a growth needs it:
the leaves below a class are those below its 0-edge child, one edge
deeper, and those below its 1-edge child, a class mod 3^(m-1).  Doubling
runs through every class prime to 3 in one cycle, so one pass backwards
round that cycle fills the table.

The search grows siblings, because the engine splits a codeword into all
three of its one-digit extensions at once: ``grow_children`` finds the
leaves of c·0, c·1 and c·2 in one lookup, since up to weight l their trees
have the shape of the tree of c and their classes differ by a known
multiple of the top power of 3; its one record holds what the lookup
cost and one int, which packs the cap and the three key pairs and is all
the engine's memo keeps of the group.  ``unpack_keys`` is the one
decoder of that int, and ``grow_record`` gives one codeword's keys.

A node at depth d reached by the edge labels p (first edge highest) is
named by its key (1 << d) | p, so keys order by depth and then
lexicographically by path, which is canonical order.  Leaves are kept, and
handed to the close decision, as keys; ``key_path`` renders one as its
edge-label string for the certificate.

``walk_nodes`` is the breadth-first enumeration of the same tree, for
dumps, stuck reports, the structure census and the tests.  Since children
are keyed by edge label, a tree's structure is its set of (depth, packed
path) pairs; ``walk_integers`` enumerates the integer preimage tree in the
same terms, so the two can be compared.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .numth import (
    BRANCHING_MOD9,
    POW3,
    check_codeword,
    codeword_of_int,
    codeword_value,
)

MAX_INTEGER_TREE_DEPTH = 40
MAX_STRUCTURE_LEVEL = 8


def key_path(key: int) -> str:
    """The edge labels from the root to the node with this key, first edge
    leftmost."""
    return bin(key)[3:]


# Classes known mod 3^m for 2 <= m <= TABLE_MAX_EXPONENT get their first two
# leaves tabled, each table built in one pass from the one below it in
# O(3^m) integer steps; table 10 holds 2·3^10 slots of 4 bytes.  For m <= 10
# the second leaf lies at most 23 edges below its class
# (test_leaf_tables_from_fresh), inside the 31 that an unsigned 32-bit slot
# can hold, and at m = 14 it lies 31 edges down, which still fits.  A key
# too wide for its slot raises OverflowError when it is stored, never
# wraps; _TABLE_KEY_LIMIT stands for "no leaf" while a table is built, and
# no slot keeps it.
TABLE_MAX_EXPONENT = 10
_TABLE_KEY_LIMIT = 1 << 62

# _leaf_tables[m][2v] and [2v + 1] are the relative keys of the first two
# leaves below the class v mod 3^m (0 for v divisible by 3, which has none),
# and _leaf_tables[m] is None until a growth first needs table m.  They are
# a fixed function of the class, so every growth in the process shares them.
_leaf_tables: list[array | None] = [None] * (TABLE_MAX_EXPONENT + 1)


# A packed growth record holds, from its low bits up, the width W of its key
# fields in _WIDTH_BITS bits, the six keys in fields of W bits each (child
# d's two at field 2d and 2d + 1, 0 where the child has fewer), and then
# the cap, however wide.  So W follows from the widest key, never from the
# cap.  A leaf lies at most 4(m-1) edges below a class mod 3^m, since a
# 0-edge chain meets a class 2 or 8 mod 9, which has a 1-edge, within 3
# edges; and a second at most 4 edges below the first, off the 0-edge
# chain of the first one's last branch.  A sibling's class is known mod
# 3^m with m <= MAX_CODEWORD_LEN + 1 = 81, so a key has at most 4m + 1 =
# 325 bits, and W fits in 9.
_WIDTH_BITS = 9
_WIDTH_MASK = (1 << _WIDTH_BITS) - 1


@dataclass(slots=True)
class GrowthRecord:
    """What one ``grow_children`` lookup learned about the trees of a
    codeword's three one-digit extensions: a table slot's answer for each,
    cut at a cap.

    ``packed`` holds the cap and, for each child d, the keys of its first
    two weight-l leaves within the cap, ascending, which is canonical
    order.  ``unpack_keys`` is its one decoder and ``packed_cap`` reads
    its cap; ``witnesses[d]`` is child d's list, decoded at that cap.
    Fewer than two keys means there are no more within the cap; two of
    them are the first two leaves at any depth.
    ``nodes_expanded`` counts the 1-edges the lookup walked and
    ``frontier_peak`` is its deepest search stack; a group answered from
    the tables walked nothing and reports 0 and 1.  The engine's memo
    keeps ``packed`` alone, one int per parent.
    """

    packed: int
    nodes_expanded: int
    frontier_peak: int

    @property
    def witnesses(self) -> tuple[list[int], list[int], list[int]]:
        cap = packed_cap(self.packed)
        return tuple(unpack_keys(self.packed, d, cap) for d in range(3))


def packed_cap(packed: int) -> int:
    """The cap a packed growth record was grown at."""
    return packed >> (_WIDTH_BITS + 6 * (packed & _WIDTH_MASK))


def unpack_keys(packed: int, digit: int, cap: int) -> list[int]:
    """The keys of child ``digit``'s leaves within ``cap``, ascending, from
    a packed growth record: the one decoder of the records the memo keeps.
    The cap may not pass the record's own, since a deeper cap could find
    more than the record holds."""
    width = packed & _WIDTH_MASK
    if cap > packed >> (_WIDTH_BITS + 6 * width):
        raise ValueError(f"cap {cap} is past the record's cap "
                         f"{packed_cap(packed)}")
    pair = packed >> (_WIDTH_BITS + 2 * width * digit)
    mask = (1 << width) - 1
    limit = 1 << (cap + 1)                # keys of depth <= cap lie below
    first = pair & mask
    if not 0 < first < limit:
        return []
    second = pair >> width & mask
    return [first, second] if 0 < second < limit else [first]


def _pack(cap: int, bests, limit: int) -> int:
    """The packed growth record of three ascending key pairs padded with
    ``limit``: each pad is stored as 0."""
    keys = [key if key < limit else 0 for best in bests for key in best]
    width = max(keys).bit_length()
    packed = cap
    for key in reversed(keys):
        packed = packed << width | key
    return packed << _WIDTH_BITS | width


def grow_children(codeword, depth_cap: int) -> GrowthRecord:
    """The growth record of the three one-digit extensions c·0, c·1, c·2
    of a codeword c, from one lookup of their shared tree.

    Up to weight l the tree of c·d has the shape of the tree of c, and a
    node of depth D known mod 3^m in the tree of c·0 has the class
    v + d·2^D·3^(m-1) mod 3^m in the tree of c·d.  So one ``_leaves`` of
    the root of c·0 serves all three: a table answers each sibling's class
    at once, which is the whole lookup when c has at most 9 digits, and a
    walk of the tree of c·0 cuts a 0-edge chain at the worst leaf kept for
    any of them.  Each child's pair starts as two pads, the key limit of
    the cap, and the record packs the keys below that limit, so its lists
    hold no pad.  ``witnesses[d]`` equals ``grow_record(c + (d,),
    depth_cap)``.
    """
    c = check_codeword(codeword)
    if c[0] == 0:
        raise ValueError("cannot grow from the reserved codeword (0)")
    if depth_cap < 1:
        raise ValueError("depth_cap must be >= 1")

    m = len(c) + 1
    limit = 1 << (depth_cap + 1)          # keys of depth <= cap lie below
    bests = ([limit, limit], [limit, limit], [limit, limit])
    stats = [0, m]
    _leaves(codeword_value(c), m, 1, bests, limit, stats)
    return GrowthRecord(packed=_pack(depth_cap, bests, limit),
                        nodes_expanded=stats[0], frontier_peak=m - stats[1] + 1)


def grow_record(codeword, depth_cap: int) -> list[int]:
    """The keys of the first two weight-l leaves of one codeword's tree
    within the cap, from ``grow_children`` of its parent.

    From each class walked the search follows the 0-edge chain
    v -> 2v mod 3^m and looks up the leaves of every 1-edge child it meets,
    keeping the two smallest leaf keys of depth at most depth_cap.  A leaf
    below a class known mod 3^m is at least m-1 edges away, which ends
    every chain at the cap or at the second leaf kept.
    """
    c = check_codeword(codeword)
    if len(c) < 2:
        raise ValueError("growth needs a codeword of length >= 2 (level >= 1)")
    return grow_children(c[:-1], depth_cap).witnesses[c[-1]]


def _leaves(v: int, m: int, key: int, bests, bound: int,
            stats: list[int]) -> int:
    """Merge the first two leaves below a node, whose key is ``key``, into
    ``bests``, and return the key a leaf must now beat to be kept.

    ``bests[d]`` pairs the two smallest leaf keys found so far, ascending
    and padded with the growth's key limit, of the tree of sibling d, in
    which the node has the class v + d·2^D·3^(m-1) mod 3^m, D being its
    depth.  The node's first leaf is read, and only if it beats the pair's
    second slot is its second read and the two merged by the one pair
    rule (see the module docstring), so no pad is ever kept as a key.
    ``bound`` is the largest second slot, the key a leaf must beat to be
    kept in any pair.  The tables answer a node known mod 3^m with
    2 <= m <= TABLE_MAX_EXPONENT, and a coarser one is walked.

    v is prime to 3, and so is every sibling's class, which differs by a
    multiple of 3, so a table slot read is never the 0 of a class that has
    no leaves: a codeword's low digit is 1 or 2, and a 1-edge child of a
    class 2 or 8 mod 9 is 1 or 2 mod 3.
    """
    if m > TABLE_MAX_EXPONENT:
        return _walk(v, m, key, bests, bound, stats)
    table = _leaf_tables[m] or _build_table(m)
    # siblings' classes step by 2^D·3^(m-1), and 2^D = 1 or 2 mod 3
    mod, step = POW3[m], (2 - (key.bit_length() & 1)) * POW3[m - 1]
    # a relative key rel of depth d is the absolute key ((key - 1) << d) + rel
    stem = key - 1
    bound = 0
    for best in bests:
        rel = table[v + v]
        low = (stem << (rel.bit_length() - 1)) + rel
        if low < best[1]:
            rel = table[v + v + 1]
            high = (stem << (rel.bit_length() - 1)) + rel
            if low < best[0]:
                best[0], best[1] = low, min(best[0], high)
            else:
                best[1] = low
        if best[1] > bound:
            bound = best[1]
        v = (v + step) % mod
    return bound


def _walk(v: int, m: int, key: int, bests, bound: int,
          stats: list[int]) -> int:
    """``_leaves`` of a node known mod 3^m, m > TABLE_MAX_EXPONENT, by
    walking its 0-edge chain.

    Every 1-edge off the chain leads to a child known mod 3^(m-1), which is
    walked in turn or, once it is fine enough, read from its table.
    ``stats[0]`` counts the 1-edges followed and ``stats[1]`` tracks the
    smallest exponent walked, and so the depth of the search stack.
    """
    if m < stats[1]:
        stats[1] = m
    mod, sub, reach = POW3[m], POW3[m - 1], m - 1
    descend = _walk if reach > TABLE_MAX_EXPONENT else _leaves
    # along a 0-edge chain v mod 9 runs through 1, 2, 4, 8, 7, 5, so the
    # 1-edges leave at 2 and 8, two and four steps apart
    r = v % 9
    while r != 2 and r != 8:
        v, key, r = (v + v) % mod, key + key, (r + r) % 9
    steps = 0
    # the smallest leaf key below a node is its key followed by m-1 ones,
    # so one with a key above ``top`` holds none below the bound
    top = (bound >> reach) - 1
    while key <= top:
        steps += 1
        bound = descend(((v + v - 1) // 3) % sub, reach, key + key + 1,
                        bests, bound, stats)
        top = (bound >> reach) - 1
        if r == 2:
            v, key, r = (v << 2) % mod, key << 2, 8
        else:
            v, key, r = (v << 4) % mod, key << 4, 2
    stats[0] += steps
    return bound


def _build_table(m: int) -> array:
    """Build and keep table m, for 2 <= m <= TABLE_MAX_EXPONENT, from table
    m-1.

    The first two leaves below a class v are the first two of the leaves
    below its 0-edge child 2v, one edge deeper, and, when v = 2 or 8 mod 9,
    those below its 1-edge child, a class mod 3^(m-1) whose leaves table
    m-1 holds (for m == 2 that child is itself a leaf); the two are merged
    by the one pair rule of ``_leaves``.  A relative key
    k = (1 << d) | p one edge below becomes k + (1 << d) across a 0-edge and
    k + (2 << d) across a 1-edge.  Since 2 is a primitive root mod 3^m, the
    classes prime to 3 form one doubling cycle of length 2·3^(m-1), so one
    pass backwards round it, by the inverse (3^m + 1)/2 of 2, fills every
    slot.  The pass starts from the sentinel "no leaf" and goes round twice,
    writing only on the second lap, where every class sees more than a
    whole lap of its 0-edge chain: a branch a lap further on repeats one
    a lap nearer, a whole lap deeper.
    """
    mod, sub = POW3[m], POW3[m - 1]
    half, cycle = (mod + 1) // 2, mod - sub
    child = (_leaf_tables[m - 1] or _build_table(m - 1)) if m > 2 else None
    table = array("I", bytes(8 * mod))
    first = second = _TABLE_KEY_LIMIT
    v = 1
    for lap_step in range(2 * cycle):
        v = v * half % mod
        # the leaves below 2v, one 0-edge deeper; the sentinel only grows
        first += 1 << (first.bit_length() - 1)
        second += 1 << (second.bit_length() - 1)
        r = v % 9
        if r == 2 or r == 8:
            if child is None:
                low, high = 3, _TABLE_KEY_LIMIT
            else:
                w = ((v + v - 1) // 3) % sub
                low, high = child[w + w], child[w + w + 1]
                low += 2 << (low.bit_length() - 1)
                high += 2 << (high.bit_length() - 1)
            if low < first:
                first, second = low, min(first, high)
            elif low < second:
                second = low
        if lap_step >= cycle:
            table[v + v], table[v + v + 1] = first, second
    _leaf_tables[m] = table
    return table


class ResidueNode(NamedTuple):
    """One grown node: residue class, depth, and the packed path that
    reached it."""

    value: int
    exponent: int
    depth: int
    bits: int

    @property
    def path(self) -> str:
        return key_path((1 << self.depth) | self.bits)

    @property
    def weight(self) -> int:
        return self.bits.bit_count()


def walk_nodes(codeword, depth_cap: int, stop_at_witnesses: int | None = 1,
               prune: bool = True):
    """Yield every node of the pruned tree in canonical (depth, lex) order.

    Breadth-first, to depth_cap, freezing weight-l leaves.  With ``prune`` a
    node at depth d with weight w is dropped as soon as w + (cap - d) < l,
    since no extension of it can reach weight l in time.  The walk ends
    after the first depth holding ``stop_at_witnesses`` weight-l leaves in
    total; None walks to the cap regardless.  The root of a level-0
    codeword already has weight l, so it is the whole walk.  It serves the
    tree dump, the best ratios of stuck codewords, the structure census and,
    in the tests, the reference for grow_record, ``engine.find_companion``
    and the integer trees.
    """
    c = check_codeword(codeword)
    if c[0] == 0:
        raise ValueError("cannot walk the reserved codeword (0)")
    level1 = len(c)
    root = codeword_value(c)
    yield ResidueNode(root, level1, 0, 0)
    frontier = [(root, level1, 0)] if level1 > 1 else []
    found = 0
    d = 0
    while frontier and d < depth_cap and (stop_at_witnesses is None or found < stop_at_witnesses):
        d += 1
        slack = depth_cap - d if prune else level1
        nxt = []
        for v, m, p in frontier:
            if m - 1 <= slack:
                node = ((2 * v) % POW3[m], m, p + p)
                nxt.append(node)
                yield ResidueNode(node[0], m, d, p + p)
            if v % 9 in BRANCHING_MOD9:
                child = ((2 * v - 1) // 3) % POW3[m - 1]
                p1 = p + p + 1
                if m - 1 == 1:
                    found += 1
                    yield ResidueNode(child, 1, d, p1)
                elif m - 2 <= slack:
                    nxt.append((child, m - 1, p1))
                    yield ResidueNode(child, m - 1, d, p1)
        frontier = nxt


def best_ratio(codeword, depth_cap: int, want_witnesses: int = 1,
               prune: bool = True) -> Fraction | None:
    """Best weight/depth over the nodes walk_nodes yields below the root,
    or None when none of them has weight: how close a stuck codeword came."""
    num, den = 0, 1
    for node in walk_nodes(codeword, depth_cap, want_witnesses, prune):
        w = node.weight
        if w * den > num * node.depth:
            num, den = w, node.depth
    return Fraction(num, den) if num else None


def walk_integers(a: int, depth: int):
    """Yield (value, depth, bits) for every node of the pruned tree of
    integer inverse iterates of a, to ``depth``, in (depth, lex) order.

    Nodes divisible by 3 are never created; each edge carries the parity of
    its child.  Bounded to depth 40: each level of the tree is held whole.
    """
    if a < 1:
        raise ValueError("root must be >= 1")
    if a % 3 == 0:
        raise ValueError("root divisible by 3 lies outside the pruned tree")
    if depth > MAX_INTEGER_TREE_DEPTH:
        raise ValueError(f"depth {depth} exceeds the {MAX_INTEGER_TREE_DEPTH} guard")
    frontier = [(a, 0)]
    yield (a, 0, 0)
    for d in range(1, depth + 1):
        nxt = []
        for n, p in frontier:
            nxt.append((2 * n, p + p))
            if n % 9 in BRANCHING_MOD9:
                nxt.append(((2 * n - 1) // 3, p + p + 1))
        for n, p in nxt:
            yield (n, d, p)
        frontier = nxt


def structure_signature(nodes) -> frozenset[tuple[int, int]]:
    """The (depth, packed path) pairs of the nodes of walk_nodes or
    walk_integers, each of which ends with its depth and packed path.

    A tree whose children are keyed by edge label is fully described by
    these pairs, so two trees share structure (rooted, edge-label-preserving
    isomorphism) iff their signatures are equal.
    """
    return frozenset(node[-2:] for node in nodes)


def count_structures(k: int) -> int:
    """Number of distinct depth-k pruned tree structures over all codewords
    of length k+1.  Bounded by 2*3^k, which is asserted."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > MAX_STRUCTURE_LEVEL:
        raise ValueError(
            f"structure census refused for k > {MAX_STRUCTURE_LEVEL}: "
            f"2*3^{k} trees is past the enumeration budget"
        )
    seen = {
        structure_signature(walk_nodes(codeword_of_int(value, k + 1), k, None,
                                       prune=False))
        for value in range(1, POW3[k + 1]) if value % 3
    }
    assert len(seen) <= 2 * POW3[k]
    return len(seen)

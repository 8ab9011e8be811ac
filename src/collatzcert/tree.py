"""Pruned 3x+1 tree growth over residue classes.

A codeword of length l+1 names a residue class mod 3^(l+1) and roots a tree
grown by the pruned inverse map.  Each 1-edge costs one level of modulus
knowledge, so a node known mod 3^m carries implicit path weight l+1-m; a node
reaching weight l (m=1) is frozen as a witness leaf.  Growth is a depth-first
search for the first witness leaves: what lies below a node depends only on
its class mod 3^m, a leaf is at least m-1 edges below it, and the first two
leaves below every class with m <= 10 are memoised in tables that all
growths share.

The search grows siblings, because the engine splits a codeword into all
three of its one-digit extensions at once: ``grow_children`` finds the
leaves of c·0, c·1 and c·2 in one walk, since up to weight l their trees
have the shape of the tree of c and their classes differ by a known
multiple of the top power of 3.  ``grow_record`` is its view for one
codeword.

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


def path_str(bits: int, length: int) -> str:
    """Render a packed root-to-node edge path, first edge leftmost."""
    return format(bits, f"0{length}b") if length else ""


def path_bits(s: str) -> tuple[int, int]:
    """Parse an edge-label string into (packed bits, length)."""
    if any(ch not in "01" for ch in s):
        raise ValueError(f"bad path string {s!r}")
    return (int(s, 2) if s else 0, len(s))


# Classes known mod 3^m for m <= TABLE_MAX_EXPONENT get their first two
# leaves memoised.  For m <= 10 the second leaf lies at most 23 edges below
# its class, well inside the 61 that a signed 64-bit slot can hold.
TABLE_MAX_EXPONENT = 10
_TABLE_KEY_LIMIT = 1 << 62

# _leaf_tables[m][2v] and [2v + 1] are the relative keys of the first two
# leaves below the class v mod 3^m, or 0 while not yet computed.  They are a
# fixed function of the class, so every growth in the process shares them.
_leaf_tables: list[array | None] = [None] * (TABLE_MAX_EXPONENT + 1)


@dataclass
class GrowthRecord:
    """What one growth learned about a codeword's tree.

    ``witnesses`` holds the first ``want`` weight-l leaves within ``cap`` in
    canonical order (depth, then lexicographic), as (depth, packed path).
    Fewer than ``want`` means there are no more within the cap; ``want`` of
    them are the first ``want`` leaves at any depth.  ``nodes_expanded``
    counts the 1-edges the search followed (table fills excluded) and
    ``frontier_peak`` is the deepest search stack.  Both describe the walk
    that grew the record, which ``grow_children`` shares among three
    siblings, so the three records carry the same two numbers.
    """

    codeword: tuple[int, ...]
    cap: int
    want: int
    witnesses: list[tuple[int, int]]          # (depth, packed path)
    nodes_expanded: int
    frontier_peak: int

    @property
    def level(self) -> int:
        return len(self.codeword) - 1

    def witnesses_within(self, cap: int) -> list[tuple[int, int]]:
        return [w for w in self.witnesses if w[0] <= cap]

    def usable_for(self, cap: int, want: int) -> bool:
        """Can queries at this cap be answered without regrowing?"""
        return want <= self.want and (
            cap <= self.cap or len(self.witnesses) >= want)


def grow_children(codeword, depth_cap: int, want_witnesses: int = 1
                  ) -> tuple[GrowthRecord, GrowthRecord, GrowthRecord]:
    """Growth records of the three one-digit extensions c·0, c·1, c·2 of a
    codeword c, from one depth-first walk of their shared tree.

    Up to weight l the tree of c·d has the shape of the tree of c, and a
    node of depth D known mod 3^m in the tree of c·0 has the class
    v + d·2^D·3^(m-1) mod 3^m in the tree of c·d.  So one walk of the tree
    of c·0 serves all three: where a table answers a subtree it is asked
    for each sibling's class, and a 0-edge chain is cut at the worst leaf
    kept for any of them.  The siblings branch differently only from a
    node known mod 9 on, and there each walks its own chain.  Each record
    equals ``grow_record(c + (d,), depth_cap, want_witnesses)``.
    """
    c = check_codeword(codeword)
    if c[0] == 0:
        raise ValueError("cannot grow from the reserved codeword (0)")
    if depth_cap < 1:
        raise ValueError("depth_cap must be >= 1")
    if want_witnesses not in (1, 2):
        raise ValueError("want_witnesses must be 1 or 2")

    bests: tuple[list[int], ...] = ([], [], [])
    m = len(c) + 1
    limit = 1 << (depth_cap + 1)
    stats = [0, m]
    _descend(codeword_value(c), m, 1, bests, want_witnesses, limit, limit,
             stats)
    return tuple(
        GrowthRecord(
            codeword=c + (d,),
            cap=depth_cap,
            want=want_witnesses,
            witnesses=[_unpack(key) for key in best],
            nodes_expanded=stats[0],
            frontier_peak=m - stats[1] + 1,
        )
        for d, best in enumerate(bests))


def grow_record(codeword, depth_cap: int, want_witnesses: int = 1) -> GrowthRecord:
    """The first weight-l leaves of one codeword's tree: its record from
    ``grow_children`` of its parent.

    A node at depth d with path p is packed as the key (1 << d) | p, so keys
    order by depth and then lexicographically by path.  From each class the
    search walks the 0-edge chain v -> 2v mod 3^m and descends every 1-edge
    it meets, keeping the ``want_witnesses`` smallest leaf keys of depth at
    most depth_cap.  A leaf below a class known mod 3^m is at least m-1
    edges away, which ends every chain at the cap or at the worst leaf kept.
    """
    c = check_codeword(codeword)
    if len(c) < 2:
        raise ValueError("growth needs a codeword of length >= 2 (level >= 1)")
    return grow_children(c[:-1], depth_cap, want_witnesses)[c[-1]]


def _unpack(key: int) -> tuple[int, int]:
    """(depth, packed path) of a node key."""
    d = key.bit_length() - 1
    return (d, key ^ (1 << d))


def _worst(bests, want: int, limit: int) -> int:
    """The key a leaf must beat to be kept in one of ``bests``."""
    worst = 0
    for best in bests:
        if len(best) < want:
            return limit
        if best[-1] > worst:
            worst = best[-1]
    return worst


def _descend(v: int, m: int, key: int, bests, want: int, limit: int,
             bound: int, stats: list[int]) -> int:
    """Merge the leaves below a node, whose key is ``key``, into ``bests``.

    ``bests[d]`` collects the ``want`` smallest leaf keys below ``limit``,
    sorted, of the tree in which the node has the class
    v + d·2^D·3^(m-1) mod 3^m, D being its depth: one list walks one tree,
    three walk three siblings at once.  ``bound`` is the key a leaf must
    beat to be kept in one of them, and the new bound is returned.
    ``stats[0]`` counts the 1-edges followed and ``stats[1]`` tracks the
    smallest exponent entered, and so the depth of the search stack.
    """
    if m < stats[1]:
        stats[1] = m
    if m == 2 and len(bests) > 1:
        # known mod 9, the siblings branch apart: one chain each (only the
        # root of a walk gets here, since tables answer every deeper node)
        twos = 2 - (key.bit_length() & 1)         # 2^D mod 3
        for d, best in enumerate(bests):
            _descend((v + 3 * d * twos) % 9, 2, key, (best,), want, limit,
                     _worst((best,), want, limit), stats)
        return _worst(bests, want, limit)
    mod, sub, reach = POW3[m], POW3[m - 1], m - 1
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
        child = ((v + v - 1) // 3) % sub
        ckey = key + key + 1
        if reach == 1:
            _keep(bests[0], ckey, want)
            bound = _worst(bests, want, limit)
        elif reach <= TABLE_MAX_EXPONENT:
            least = ((ckey + 1) << (reach - 1)) - 1
            # from one sibling's tree to the next the child's class steps
            # by 2^(D+1)·3^(reach-1), D being the node's depth
            shift = (1 + (key.bit_length() & 1)) * POW3[reach - 1]
            bound = 0
            for best in bests:
                worst = best[-1] if len(best) == want else limit
                if least < worst:
                    for rel in _table_leaves(child, reach)[:want]:
                        leaf = ((ckey - 1) << (rel.bit_length() - 1)) + rel
                        if leaf >= worst:
                            break
                        _keep(best, leaf, want)
                        worst = best[-1] if len(best) == want else limit
                if worst > bound:
                    bound = worst
                child = (child + shift) % sub
        else:
            bound = _descend(child, reach, ckey, bests, want, limit, bound,
                             stats)
        top = (bound >> reach) - 1
        if r == 2:
            v, key, r = (v << 2) % mod, key << 2, 8
        else:
            v, key, r = (v << 4) % mod, key << 4, 2
    stats[0] += steps
    return bound


def _keep(best: list[int], leaf: int, want: int) -> None:
    """Insert a leaf key that beats the worst one kept, keeping ``want``."""
    if not best or leaf > best[-1]:
        best.append(leaf)
    elif leaf > best[0]:
        best.insert(1, leaf)
    else:
        best.insert(0, leaf)
    del best[want:]


def _table_leaves(v: int, m: int) -> tuple[int, int]:
    """Relative keys of the first two leaves below the class v mod 3^m.

    A miss fills the slots of all three classes that agree with v mod
    3^(m-1), in one walk.
    """
    table = _leaf_tables[m]
    if table is None:
        table = _leaf_tables[m] = array("q", bytes(16 * POW3[m]))
    i = v + v
    if table[i] == 0:
        sub = POW3[m - 1]
        base = v % sub
        bests: tuple[list[int], ...] = ([], [], [])
        _descend(base, m, 1, bests, 2, _TABLE_KEY_LIMIT, _TABLE_KEY_LIMIT,
                 [0, m])
        for d, best in enumerate(bests):
            j = 2 * (base + d * sub)
            table[j], table[j + 1] = best
    return table[i], table[i + 1]


def find_companion(
    record: GrowthRecord,
    cap: int,
    alpha: Fraction,
    witness: tuple[int, int],
) -> tuple[int, int] | None:
    """Canonically least path of weight < l with ones-ratio >= alpha.

    Returns the smallest (depth, lex) node of depth at most ``cap`` and
    weight w in 1..l-1 with w/depth >= alpha that is not a prefix of the
    witness, or None.  Down to weight w a codeword's tree has the shape of
    the tree of its first w+1 digits, so the first weight-w nodes are that
    prefix's first two leaves; one of them may lie on the witness path, and
    then so may some of its 0-edge chain.

    The nodes searched are those of the unpruned tree.  For alpha <= 1/2
    the first qualifying one is also the first of the pruned tree, so that
    is the answer there; above 1/2, where pruning is not known to keep every
    candidate, the answer is the first qualifying node of the unpruned tree.
    Only the record's codeword is read, so one record answers every alpha.
    """
    c = record.codeword
    wd, wp = witness
    wkey = (1 << wd) | wp
    an, ad = alpha.numerator, alpha.denominator
    unset = best = 1 << (cap + 1)         # keys of depth <= cap lie below
    v = c[0]
    for w in range(1, len(c) - 1):
        # a weight-w node is w 1-edges deep at least
        if best < (2 << w) - 1:
            break
        v += c[w] * POW3[w]
        limit = min(best, 1 << (min(cap, w * ad // an) + 1))
        if w + 1 <= TABLE_MAX_EXPONENT:
            leaves = [k for k in _table_leaves(v, w + 1) if k < limit]
        else:
            leaves = []
            _descend(v, w + 1, 1, (leaves,), 2, limit, limit, [0, w + 1])
        if not leaves:
            continue
        first = leaves[0]
        d = first.bit_length() - 1
        if not (d < wd and wkey >> (wd - d) == first):
            best = first
            continue
        # the witness runs on along first's 0-edge chain for ``zeros``
        # edges; the next node of that chain is the first one off its path
        zeros = wd - d - (wp & ((1 << (wd - d)) - 1)).bit_length()
        after = first << (zeros + 1)
        if after < limit:
            best = after
        if len(leaves) > 1 and leaves[1] < best:
            best = leaves[1]
    return None if best == unset else _unpack(best)


class ResidueNode(NamedTuple):
    """One grown node: residue class, depth, and the packed path that
    reached it."""

    value: int
    exponent: int
    depth: int
    bits: int

    @property
    def path(self) -> str:
        return path_str(self.bits, self.depth)

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
    in the tests, the reference for grow_record, find_companion and the
    integer trees.
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

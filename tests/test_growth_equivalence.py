"""The depth-first growth against the breadth-first walk of the same tree.

``walk_nodes`` enumerates the pruned tree level by level in (depth, lex)
order, so the first two full-weight leaves it yields within a cap and the
first qualifying node it yields are what ``grow_record`` and
``engine.find_companion`` must return.
The codewords are every one of length at most 6 and seeded samples at
levels 10..15, whose roots lie above the exponent-10 leaf tables and whose
subtrees reach into them.  ``grow_children`` is held to the walk of each
of the three children, of every parent of length at most 6 and of seeded
parents at levels 9..16.  The leaf tables are built from fresh and every
slot is checked against the walk of its class over the table below, and
for m <= 6 against the breadth-first walk.  ``best_ratio``, which is
itself a walk, is pinned to the best ratios that the earlier breadth-first
growth reported.
"""

import random
import subprocess
import sys
from array import array
from fractions import Fraction
from pathlib import Path

from collatzcert import tree
from collatzcert.certify import depth_cap
from collatzcert.engine import find_companion
from collatzcert.numth import (
    MAX_CODEWORD_LEN,
    POW3,
    codeword_from_display,
    codeword_of_int,
)
from collatzcert.tree import (
    TABLE_MAX_EXPONENT,
    best_ratio,
    grow_children,
    grow_record,
    key_path,
    walk_nodes,
)

PRUNED_ALPHAS = [Fraction(1, 4), Fraction(1, 3), Fraction(2, 5),
                 Fraction(13, 31), Fraction(1, 2)]
UNPRUNED_ALPHA = Fraction(3, 5)


def _small_codewords(shortest=2):
    for length in range(shortest, 7):
        for v in range(1, POW3[length]):
            if v % 3:
                yield codeword_of_int(v, length)


def _sampled_codewords(levels=range(10, 16), per_level=12, seed=2024):
    rng = random.Random(seed)
    for level in levels:
        count = 0
        while count < per_level:
            v = rng.randrange(1, POW3[level + 1])
            if v % 3:
                count += 1
                yield codeword_of_int(v, level + 1)


def _cap(codeword, alpha):
    return (len(codeword) - 1) * alpha.denominator // alpha.numerator


def _walk_leaves(codeword, cap):
    """The keys of the first two full-weight leaves within the cap, by the
    walk."""
    level = len(codeword) - 1
    leaves = [(1 << n.depth) | n.bits
              for n in walk_nodes(codeword, cap, 2) if n.weight == level]
    return leaves[:2]


def _walk_companion(codeword, cap, alpha, witness, prune):
    level = len(codeword) - 1
    witness_path = key_path(witness)
    for n in walk_nodes(codeword, cap, None, prune):
        if (0 < n.weight < level
                and n.weight * alpha.denominator >= alpha.numerator * n.depth
                and not witness_path.startswith(n.path)):
            return (1 << n.depth) | n.bits
    return None


def _compare(codewords, alphas_of):
    """Check every codeword at each of its ratios; count the cases."""
    companions = leafless = 0
    for c in codewords:
        for alpha in alphas_of(c):
            cap = _cap(c, alpha)
            leaves = _walk_leaves(c, cap)
            assert grow_record(c, cap) == leaves, (c, cap)
            if not leaves:
                leafless += 1
            if len(leaves) == 1:
                # a fresh memo, so the companion grows every prefix's record
                caps = [depth_cap(level, alpha)
                        for level in range(MAX_CODEWORD_LEN + 1)]
                got = find_companion(c, {}, caps, leaves[0])
                expected = _walk_companion(c, cap, alpha, leaves[0],
                                           prune=2 * alpha <= 1)
                assert got == expected, (c, cap, alpha)
                companions += 1
    return companions, leafless


def test_every_short_codeword():
    companions, leafless = _compare(_small_codewords(),
                                    lambda c: PRUNED_ALPHAS + [UNPRUNED_ALPHA])
    assert companions >= 300 and leafless >= 300


def test_sampled_codewords_across_the_table_boundary():
    # besides two fixed ratios, each codeword is tried at the ratios whose
    # caps end at its first full-weight leaf and just before it: one leaf
    # within the cap (a companion case when the second lies deeper) and none
    def alphas_of(c):
        level = len(c) - 1
        first = grow_record(c, 4 * level)[0].bit_length() - 1
        return [Fraction(13, 31), UNPRUNED_ALPHA,
                Fraction(level, first), Fraction(level, first - 1)]

    assert 10 + 1 > TABLE_MAX_EXPONENT
    companions, leafless = _compare(_sampled_codewords(), alphas_of)
    assert companions >= 50 and leafless >= 50


def _compare_children(parents, caps_of):
    """Check the three key lists of every parent's record at each of its
    caps against the walks of its children; count the cases."""
    cases = 0
    for parent in parents:
        for cap in caps_of(parent):
            children = [parent + (d,) for d in range(3)]
            leaves = [_walk_leaves(child, cap) for child in children]
            record = grow_children(parent, cap)
            assert record.cap == cap
            assert list(record.witnesses) == leaves, (parent, cap)
            cases += 3
    return cases


def test_children_of_every_short_parent():
    def caps_of(parent):
        return sorted({_cap(parent + (0,), alpha)
                       for alpha in PRUNED_ALPHAS + [UNPRUNED_ALPHA]})

    assert _compare_children(_small_codewords(1), caps_of) >= 10_000


def test_children_of_sampled_parents_across_the_table_boundary():
    # tight caps: each child's first full-weight leaf and one edge less, so
    # the three children keep different leaves within the same cap; loose
    # caps: 4 * level, where the walk must still stop at the worst leaf kept
    def caps_of(parent):
        level = len(parent)
        firsts = [keys[0].bit_length() - 1
                  for keys in grow_children(parent, 4 * level).witnesses]
        return sorted({*firsts, *(k - 1 for k in firsts), 4 * level})

    # the children of a level-9 parent are the first whose roots lie above
    # the tables
    assert 9 + 2 > TABLE_MAX_EXPONENT
    parents = _sampled_codewords(range(9, 17), per_level=3, seed=2025)
    assert _compare_children(parents, caps_of) >= 24 * 3 * 3


def test_leaf_tables_from_fresh(monkeypatch):
    """Every slot of fresh tables, built whole: two increasing keys, the
    second at most 23 edges deep, no sentinel left, each equal to the walk
    of its class's 0-edge chain over table m-1, and for m <= 6 to the first
    two leaves of ``walk_nodes``.

    Slots of classes divisible by 3 stay 0: their 0-edge chain never meets
    2 or 8 mod 9, so they have no leaves, and no root, child or prefix of a
    codeword is such a class.
    """
    limit = tree._TABLE_KEY_LIMIT
    tables = [None] * (TABLE_MAX_EXPONENT + 1)
    monkeypatch.setattr(tree, "_leaf_tables", tables)
    tree._build_table(TABLE_MAX_EXPONENT)
    # what the walk of a class mod 9 reads: a class mod 3 is its own leaf,
    # and the sentinel stands for the second it does not have
    tables[1] = array("q", [0, 0, 1, limit, 1, limit])
    deepest = walked = 0
    for m in range(2, TABLE_MAX_EXPONENT + 1):
        table = tables[m]
        assert len(table) == 2 * POW3[m]
        for v in range(POW3[m]):
            first, second = table[v + v], table[v + v + 1]
            if v % 3 == 0:
                assert first == second == 0, (v, m)
                continue
            assert 0 < first < second < limit, (v, m)
            deepest = max(deepest, second.bit_length() - 1)
            best = [limit, limit]
            tree._walk(v, m, 1, (best,), limit, [0, m])
            assert best == [first, second], (v, m)
            if m <= 6:
                walked += 1
                assert [first, second] == _walk_leaves(codeword_of_int(v, m),
                                                       23), (v, m)
    assert walked == 726
    assert deepest == 23


def test_import_builds_no_table():
    # the tables are built the first time a growth needs them, never at
    # import, which a fresh process pays for before any work
    src = Path(tree.__file__).resolve().parents[1]
    probe = ("import collatzcert; from collatzcert import tree; "
             "print(all(t is None for t in tree._leaf_tables))")
    done = subprocess.run([sys.executable, "-c", probe], cwd=src,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "True"


def test_leaves_two_steps_apart_on_one_chain():
    # the first leaf of the parent (2, 2, 1) is 11; in the tree of the child
    # ending in 1 its 0-edge chain meets the 1-edges after one zero and after
    # three, so both of the child's first leaves come from it
    keys = grow_children((2, 2, 1), 6).witnesses[1]
    assert keys == grow_record((2, 2, 1, 1), 6)
    assert keys == [29, 113]
    assert [key_path(k) for k in keys] == ["1101", "110001"]


def test_best_ratios_of_stuck_codewords():
    # stuck codewords of `search` runs, with the best ratio the earlier
    # breadth-first growth reported for each: plain, strong with no witness
    # and with one witness within the cap, and strong above ratio 1/2, where
    # the unpruned tree goes deeper than the pruned one (in brackets)
    cases = [
        ("plain", Fraction(13, 31), "210101021021", Fraction(5, 12)),
        ("plain", Fraction(13, 31), "202020022021", Fraction(9, 22)),
        ("strong", Fraction(12, 29), "02020011021", Fraction(2, 5)),
        ("strong", Fraction(12, 29), "02021201021", Fraction(10, 23)),
        ("strong", Fraction(12, 29), "00002201021", Fraction(5, 12)),
        ("strong", Fraction(3, 5), "10111", Fraction(3, 4)),
        ("strong", Fraction(3, 5), "00021", Fraction(1, 3)),     # (None)
        ("strong", Fraction(4, 7), "100101", Fraction(2, 3)),
        ("strong", Fraction(4, 7), "000021", Fraction(3, 8)),    # (1/4)
    ]
    for mode, alpha, display, expected in cases:
        c = codeword_from_display(display)
        cap = _cap(c, alpha)
        want = 2 if mode == "strong" else 1
        prune = mode == "plain" or 2 * alpha <= 1
        assert len(grow_record(c, cap)) < want
        assert best_ratio(c, cap, want, prune) == expected, (mode, display)

"""The depth-first growth against the breadth-first walk of the same tree.

``walk_nodes`` enumerates the pruned tree level by level in (depth, lex)
order, so the first full-weight leaves it yields and the first qualifying
node it yields are what ``grow_record`` and ``find_companion`` must return.
The codewords are every one of length at most 6 and seeded samples at
levels 10..15, whose roots lie above the exponent-10 leaf tables and whose
subtrees reach into them.  ``grow_children`` is held to the walk of each
of the three children, of every parent of length at most 6 and of seeded
parents at levels 9..16.  ``best_ratio``, which is itself a walk, is pinned
to the best ratios that the earlier breadth-first growth reported.
"""

import random
from fractions import Fraction

from collatzcert.numth import POW3, codeword_from_display, codeword_of_int
from collatzcert.tree import (
    TABLE_MAX_EXPONENT,
    best_ratio,
    find_companion,
    grow_children,
    grow_record,
    path_str,
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
    """The first two full-weight leaves within the cap, by the walk."""
    level = len(codeword) - 1
    leaves = [(n.depth, n.bits)
              for n in walk_nodes(codeword, cap, 2) if n.weight == level]
    return leaves[:2]


def _walk_companion(codeword, cap, alpha, witness, prune):
    level = len(codeword) - 1
    witness_path = path_str(witness[1], witness[0])
    for n in walk_nodes(codeword, cap, None, prune):
        if (0 < n.weight < level
                and n.weight * alpha.denominator >= alpha.numerator * n.depth
                and not witness_path.startswith(n.path)):
            return (n.depth, n.bits)
    return None


def _compare(codewords, alphas_of):
    """Check every codeword at each of its ratios; count the cases."""
    companions = leafless = 0
    for c in codewords:
        for alpha in alphas_of(c):
            cap = _cap(c, alpha)
            leaves = _walk_leaves(c, cap)
            assert grow_record(c, cap, 1).witnesses == leaves[:1], (c, cap)
            rec = grow_record(c, cap, 2)
            assert rec.witnesses == leaves, (c, cap)
            if not leaves:
                leafless += 1
            if len(leaves) == 1:
                got = find_companion(rec, cap, alpha, leaves[0])
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
        first = grow_record(c, 4 * level, 1).witnesses[0][0]
        return [Fraction(13, 31), UNPRUNED_ALPHA,
                Fraction(level, first), Fraction(level, first - 1)]

    assert 10 + 1 > TABLE_MAX_EXPONENT
    companions, leafless = _compare(_sampled_codewords(), alphas_of)
    assert companions >= 50 and leafless >= 50


def _compare_children(parents, caps_of):
    """Check the three records of every parent at each of its caps against
    the walks of its children; count the cases."""
    cases = 0
    for parent in parents:
        for cap in caps_of(parent):
            children = [parent + (d,) for d in range(3)]
            leaves = [_walk_leaves(child, cap) for child in children]
            for want in (1, 2):
                records = grow_children(parent, cap, want)
                assert [r.codeword for r in records] == children
                assert [r.witnesses for r in records] == \
                    [ls[:want] for ls in leaves], (parent, cap, want)
                cases += 3
    return cases


def test_children_of_every_short_parent():
    def caps_of(parent):
        return sorted({_cap(parent + (0,), alpha)
                       for alpha in PRUNED_ALPHAS + [UNPRUNED_ALPHA]})

    assert _compare_children(_small_codewords(1), caps_of) >= 20_000


def test_children_of_sampled_parents_across_the_table_boundary():
    # tight caps: each child's first full-weight leaf and one edge less, so
    # the three children keep different leaves within the same cap; loose
    # caps: 4 * level, where the walk must still stop at the worst leaf kept
    def caps_of(parent):
        level = len(parent)
        firsts = [r.witnesses[0][0]
                  for r in grow_children(parent, 4 * level, 1)]
        return sorted({*firsts, *(k - 1 for k in firsts), 4 * level})

    # the children of a level-9 parent are the first whose roots lie above
    # the tables
    assert 9 + 2 > TABLE_MAX_EXPONENT
    parents = _sampled_codewords(range(9, 17), per_level=3, seed=2025)
    assert _compare_children(parents, caps_of) >= 24 * 3 * 6


def test_leaves_two_steps_apart_on_one_chain():
    # the first leaf of the parent (2, 2, 1) is 11; in the tree of the child
    # ending in 1 its 0-edge chain meets the 1-edges after one zero and after
    # three, so both of the child's first leaves come from it
    records = grow_children((2, 2, 1), 6, 2)
    assert records[1].codeword == (2, 2, 1, 1)
    assert records[1].witnesses == [(4, 13), (6, 49)]
    assert [path_str(p, d) for d, p in records[1].witnesses] == \
        ["1101", "110001"]


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
        assert len(grow_record(c, cap, 2).witnesses_within(cap)) < want
        assert best_ratio(c, cap, want, prune) == expected, (mode, display)

import random
from fractions import Fraction

import pytest

from collatzcert.numth import POW3, codeword_from_display, codeword_of_int
from collatzcert.tree import (
    count_structures,
    find_companion,
    frontier_count,
    grow_critical,
    grow_integer_tree,
    grow_record,
    grow_residue_tree,
    path_bits,
    path_str,
    structure_signature,
    walk_nodes,
)


def all_codewords(length):
    for v in range(1, POW3[length]):
        if v % 3:
            yield codeword_of_int(v, length)


class TestGrowCritical:
    @pytest.mark.parametrize(
        "display,cap,want,depth,witnesses",
        [
            ("12", 3, 1, 3, ["001"]),
            ("01", 2, 1, 2, ["01"]),
            ("001", 6, 2, 4, ["0101", "010001"]),
            ("02", 1, 1, 1, ["1"]),
        ],
    )
    def test_reference_rows(self, display, cap, want, depth, witnesses):
        r = grow_critical(codeword_from_display(display), cap, want)
        assert r.critical_depth == depth
        assert r.witnesses == witnesses

    def test_no_criticality_within_cap(self):
        # this class needs depth 4 for its first full-weight leaf
        r = grow_critical(codeword_from_display("21"), 3)
        assert r.critical_depth is None
        assert r.witnesses == []

    def test_rejects_reserved_digit(self):
        with pytest.raises(ValueError):
            grow_critical((0,), 5)
        with pytest.raises(ValueError):
            grow_critical((1,), 5)          # level-0 word has nothing to find

    def test_witness_shape(self):
        # every witness has weight exactly l and ends with a 1-edge
        for c in all_codewords(4):
            r = grow_critical(c, 40, 2)
            for w in r.witnesses:
                assert w.count("1") == len(c) - 1
                assert w.endswith("1")

    def test_criticality_is_minimal(self):
        # below the critical depth no full-weight node exists, pruned or not
        for length in (2, 3, 4, 5):
            for c in all_codewords(length):
                k = grow_critical(c, 60).critical_depth
                assert k is not None
                if k > 1:
                    unpruned = walk_nodes(c, k - 1, None, prune=False)
                    assert all(n.weight < len(c) - 1 for n in unpruned)

    def test_pruning_does_not_change_the_outcome(self):
        for c in all_codewords(4):
            fast = grow_record(c, 12, 2)
            slow = [(n.depth, n.bits)
                    for n in walk_nodes(c, 12, 2, prune=False)
                    if n.weight == len(c) - 1]
            assert fast.witnesses == slow[:2]


class TestGrowthRecord:
    def test_usable_for(self):
        # the first full-weight leaf of class 21 lies at depth 4
        c = codeword_from_display("21")
        short = grow_record(c, 3)
        assert short.witnesses == []
        assert short.usable_for(3, 1) and short.usable_for(2, 1)
        assert not short.usable_for(4, 1)       # a deeper cap may find one
        assert not short.usable_for(3, 2)       # grown for one witness only
        found = grow_record(c, 10)
        assert [path_str(p, d) for d, p in found.witnesses] == ["0001"]
        assert found.usable_for(40, 1) and found.usable_for(3, 1)
        assert found.witnesses_within(3) == []


class TestConservation:
    def test_modulus_plus_weight_is_constant(self):
        # every node of a growth satisfies exponent + weight = level + 1
        for display in ("12", "001", "0221", "02221", "12221"):
            c = codeword_from_display(display)
            for node in walk_nodes(c, 12, stop_at_witnesses=2):
                assert node.exponent + node.weight == len(c)

    def test_walk_is_depth_then_lex_ordered(self):
        c = codeword_from_display("02221")
        nodes = list(walk_nodes(c, 12, stop_at_witnesses=1))
        keys = [(n.depth, n.path) for n in nodes]
        assert keys == sorted(keys)


class TestCompanions:
    def test_known_fallback_rows(self):
        cases = {
            "111": (6, "010"),
            "212": (6, "001"),
            "1021": (9, "000101"),
        }
        for display, (cap, expected) in cases.items():
            rec = grow_record(codeword_from_display(display), cap, 2)
            assert len(rec.witnesses) == 1
            got = find_companion(rec, cap, Fraction(1, 3), rec.witnesses[0])
            assert got is not None
            assert path_str(got[1], got[0]) == expected

    def test_prefixes_of_the_witness_are_skipped(self):
        rec = grow_record(codeword_from_display("011"), 6, 2)
        assert [path_str(p, d) for d, p in rec.witnesses] == ["01001"]
        assert find_companion(rec, 6, Fraction(1, 3), rec.witnesses[0]) is None

    def test_answers_above_half(self):
        # above ratio 1/2 pruning is not known to keep every candidate, so
        # the answer is the first qualifying node of the unpruned tree
        cases = {"2222": ("111", "110"), "00222": ("110011", "111")}
        for display, (witness, expected) in cases.items():
            c = codeword_from_display(display)
            cap = (len(c) - 1) * 5 // 3
            rec = grow_record(c, cap, 2)
            assert [path_str(p, d) for d, p in rec.witnesses] == [witness]
            got = find_companion(rec, cap, Fraction(3, 5), rec.witnesses[0])
            assert path_str(got[1], got[0]) == expected


class TestIntegerTrees:
    def test_depth_five_tree_of_four(self):
        # the whole tree is pinned by forward iteration: every child maps
        # to its parent, 5 hangs off 8, and depth 5 opens the branch at 20
        t = grow_integer_tree(4, 5)
        by_depth = _levels(t.root)
        assert by_depth == [
            {4},
            {8},
            {16, 5},
            {32, 10},
            {64, 20},
            {128, 40, 13},
        ]
        for node, child in _edges(t.root):
            from collatzcert.numth import t_map
            assert t_map(child.label) == node.label
        assert t.max_weight == 2            # 4 <- 8 <- 5 <- 10 <- 20 <- 13
        assert t.leaf_count == 3

    def test_unrolled_cycle(self):
        # the 1-2 cycle unrolls: 1 reappears as the odd preimage of 2
        t = grow_integer_tree(1, 2)
        assert _levels(t.root) == [{1}, {2}, {4, 1}]

    def test_branch_at_eight(self):
        t = grow_integer_tree(8, 1)
        assert [(b, ch.label) for b, ch in t.root.children] == [(0, 16), (1, 5)]

    def test_rejects_multiples_of_three(self):
        with pytest.raises(ValueError):
            grow_integer_tree(9, 3)

    def test_depth_guard(self):
        with pytest.raises(ValueError):
            grow_integer_tree(4, 41)


class TestStructure:
    def test_residue_growth_reproduces_integer_tree(self):
        t = grow_integer_tree(4, 5)
        r = grow_residue_tree(codeword_of_int(4, 3), 5)
        assert structure_signature(t.root) == structure_signature(r)

    def test_determined_by_residue_beyond_max_weight(self):
        # two roots in the same class mod 3^(l+2) grow identical structures
        rng = random.Random(11)
        checked = 0
        while checked < 40:
            a = rng.randrange(1, 10**5)
            if a % 3 == 0:
                continue
            depth = 7
            t1 = grow_integer_tree(a, depth)
            l = t1.max_weight
            b = a + POW3[l + 2]
            t2 = grow_integer_tree(b, depth)
            if t2.max_weight != l:
                continue
            assert structure_signature(t1.root) == structure_signature(t2.root)
            checked += 1

    def test_residue_and_integer_agree_to_the_critical_depth(self):
        rng = random.Random(23)
        checked = 0
        while checked < 100:
            a = rng.randrange(2, 10**6)
            if a % 3 == 0:
                continue
            t = grow_integer_tree(a, 8)
            l = t.max_weight
            if l == 0:
                continue
            # first depth at which a full-weight path appears
            k = _critical_depth(t.root, l)
            trunc = _truncate(t.root, k)
            res = grow_residue_tree(codeword_of_int(a, l + 1), k)
            assert structure_signature(trunc) == structure_signature(res)
            checked += 1

    def test_census_values(self):
        # enumeration oracle: distinct structures per depth, within 2*3^k
        assert count_structures(0) == 1
        assert count_structures(1) == 2
        assert count_structures(2) == 4
        assert count_structures(3) == 9

    def test_census_refuses_large_levels(self):
        with pytest.raises(ValueError):
            count_structures(9)


def _levels(root):
    out = []
    frontier = [root]
    while frontier:
        out.append({n.label for n in frontier})
        frontier = [ch for n in frontier for _, ch in n.children]
    return out


def _edges(root):
    stack = [root]
    while stack:
        node = stack.pop()
        for _, ch in node.children:
            yield node, ch
            stack.append(ch)


def _critical_depth(root, l):
    frontier = [(root, 0)]
    depth = 0
    while frontier:
        if any(w == l for _, w in frontier):
            return depth
        frontier = [(ch, w + bit) for node, w in frontier for bit, ch in node.children]
        depth += 1
    raise AssertionError("tree never reaches its own max weight")


def _truncate(node, depth):
    from collatzcert.tree import TreeNode

    copy = TreeNode(node.label)
    if depth > 0:
        copy.children = [(b, _truncate(ch, depth - 1)) for b, ch in node.children]
    return copy


class TestFrontierCensus:
    def test_mean_frontier_is_exact(self):
        # averaged over all codewords of length d+1, the depth-d frontier
        # has exactly (4/3)^d nodes
        for d in (1, 2, 3, 4):
            total = sum(frontier_count(c, d) for c in all_codewords(d + 1))
            assert Fraction(total, 2 * POW3[d]) == Fraction(4, 3) ** d


class TestPaths:
    def test_path_round_trip(self):
        for s in ("", "0", "1", "0101", "000100000111"):
            assert path_str(*path_bits(s)) == s

    def test_rejects_bad_strings(self):
        with pytest.raises(ValueError):
            path_bits("012")

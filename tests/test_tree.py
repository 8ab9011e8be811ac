import random
from fractions import Fraction

import pytest

from collatzcert import tree
from collatzcert.certify import depth_cap
from collatzcert.engine import find_companion
from collatzcert.numth import (
    MAX_CODEWORD_LEN,
    POW3,
    codeword_from_display,
    codeword_of_int,
    t_map,
)
from collatzcert.tree import (
    TABLE_MAX_EXPONENT,
    count_structures,
    grow_children,
    grow_record,
    key_path,
    packed_cap,
    structure_signature,
    unpack_keys,
    walk_integers,
    walk_nodes,
)


def all_codewords(length):
    for v in range(1, POW3[length]):
        if v % 3:
            yield codeword_of_int(v, length)


def _paths(keys):
    return [key_path(key) for key in keys]


def _depth(key):
    return key.bit_length() - 1


@pytest.mark.parametrize("call,message", [
    (lambda: grow_children((0,), 5),
     r"cannot grow from the reserved codeword \(0\)"),
    (lambda: grow_children((1, 2), 0), "depth_cap must be >= 1"),
    (lambda: next(walk_nodes((0,), 3)),
     r"cannot walk the reserved codeword \(0\)"),
    (lambda: next(walk_integers(0, 3)), "root must be >= 1"),
    (lambda: count_structures(-1), "k must be >= 0"),
], ids=["grow-reserved", "grow-cap", "walk-reserved", "walk-integers-root",
        "census-negative"])
def test_refuses_arguments_out_of_range(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


class TestGrowCritical:
    @pytest.mark.parametrize(
        "display,cap,depth,witnesses",
        [
            ("12", 3, 3, ["001"]),
            ("01", 2, 2, ["01"]),
            ("001", 6, 4, ["0101", "010001"]),
            ("02", 1, 1, ["1"]),
        ],
    )
    def test_reference_rows(self, display, cap, depth, witnesses):
        keys = grow_record(codeword_from_display(display), cap)
        assert _depth(keys[0]) == depth
        assert _paths(keys) == witnesses

    def test_no_criticality_within_cap(self):
        # this class needs depth 4 for its first full-weight leaf
        assert grow_record(codeword_from_display("21"), 3) == []

    def test_rejects_reserved_digit(self):
        with pytest.raises(ValueError):
            grow_record((0,), 5)
        with pytest.raises(ValueError):
            grow_record((1,), 5)            # level-0 word has nothing to find

    def test_witness_shape(self):
        # every witness has weight exactly l and ends with a 1-edge
        for c in all_codewords(4):
            for w in _paths(grow_record(c, 40)):
                assert w.count("1") == len(c) - 1
                assert w.endswith("1")

    def test_criticality_is_minimal(self):
        # below the critical depth no full-weight node exists, pruned or not
        for length in (2, 3, 4, 5):
            for c in all_codewords(length):
                k = _depth(grow_record(c, 60)[0])
                if k > 1:
                    unpruned = walk_nodes(c, k - 1, None, prune=False)
                    assert all(n.weight < len(c) - 1 for n in unpruned)

    def test_pruning_does_not_change_the_outcome(self):
        for c in all_codewords(4):
            fast = grow_record(c, 12)
            slow = [(1 << n.depth) | n.bits
                    for n in walk_nodes(c, 12, 2, prune=False)
                    if n.weight == len(c) - 1]
            assert fast == slow[:2]


def _children_keys(packed):
    """The three children's key lists of a packed record, at its cap."""
    cap = packed_cap(packed)
    return tuple(unpack_keys(packed, d, cap) for d in range(3))


class TestGrowthRecord:
    def test_keys_within(self):
        # the first full-weight leaf of class 21 lies at depth 4
        c = codeword_from_display("21")
        parent, digit = c[:-1], c[-1]
        short = grow_children(parent, 3)
        assert type(short) is int
        assert packed_cap(short) == 3
        assert unpack_keys(short, digit, 3) == []
        assert unpack_keys(short, digit, 2) == []
        # a deeper cap may find a leaf the record does not hold
        with pytest.raises(ValueError, match="cap 4 is past the record's cap 3"):
            unpack_keys(short, digit, 4)
        one = grow_children(parent, 5)
        assert _paths(unpack_keys(one, digit, 5)) == ["0001"]
        found = grow_children(parent, 10)
        assert _paths(unpack_keys(found, digit, 10)) == ["0001", "000001"]
        assert _paths(unpack_keys(found, digit, 5)) == ["0001"]
        assert unpack_keys(found, digit, 3) == []
        # two keys are the first two leaves at any depth, but a record is
        # still not asked past its cap
        with pytest.raises(ValueError, match="past the record's cap 10"):
            unpack_keys(found, digit, 40)

    @pytest.mark.parametrize("parent,cap,expanded,peak,keys", [
        # up to 9 digits the tables answer the whole group: nothing walked
        ((1, 2), 8, 0, 1, ([69, 273], [69, 131], [131, 273])),
        ((2, 2, 1), 6, 0, 1, ([51, 113], [29, 113], [29, 51])),
        # from 11 digits the group's tree is walked; a cap that leaves a
        # child fewer than two leaves leaves no pad in its list
        ((1, 0, 2, 1, 2, 0, 1, 1, 2, 0, 1), 12, 1, 2, ([], [], [])),
        ((1, 0, 2, 1, 2, 0, 1, 1, 2, 0, 1), 22, 14, 2,
         ([], [4633147], [4633147])),
        ((1, 0, 2, 1, 2, 0, 1, 1, 2, 0, 1), 30, 15, 2,
         ([9205915, 9266279], [4633147, 9205915], [4633147, 9206317])),
        ((2, 1, 0, 0, 2, 1, 2, 2, 0, 1, 1, 2), 34, 20, 3,
         ([2483325, 4966643], [2483325, 4967141], [4966643, 4967141])),
        ((1, 2, 0, 1, 1, 0, 2, 2, 1, 0, 2, 1, 1), 40, 59, 4,
         ([71710669, 143421331], [143421331, 143421381],
          [71710669, 143421381])),
    ])
    def test_growth_counters(self, monkeypatch, parent, cap, expanded, peak,
                             keys):
        # the walk's work, counted from outside: a grow calls its root's
        # _leaves, which hands a class above the tables to _walk, and then
        # one call per 1-edge walked; the deepest _walk nesting, at least
        # 1, is the search stack's
        calls, depth = [0], [0, 1]

        def counted(real, nests):
            def call(*args):
                calls[0] += 1
                depth[0] += nests
                depth[1] = max(depth[1], depth[0])
                try:
                    return real(*args)
                finally:
                    depth[0] -= nests
            return call

        monkeypatch.setattr(tree, "_walk", counted(tree._walk, 1))
        monkeypatch.setattr(tree, "_leaves", counted(tree._leaves, 0))
        packed = grow_children(parent, cap)
        m = len(parent) + 1
        assert calls[0] == expanded + 1 + (m > TABLE_MAX_EXPONENT)
        assert depth[1] == peak
        assert _children_keys(packed) == keys


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


def _companion(c, alpha, witness):
    """The companion with a fresh memo and the search's caps at alpha."""
    caps = [depth_cap(level, alpha) for level in range(MAX_CODEWORD_LEN + 1)]
    return find_companion(c, {}, caps, witness)


class TestCompanions:
    def test_known_fallback_rows(self):
        cases = {
            "111": (6, "010"),
            "212": (6, "001"),
            "1021": (9, "000101"),
        }
        for display, (cap, expected) in cases.items():
            c = codeword_from_display(display)
            keys = grow_record(c, cap)
            assert len(keys) == 1
            got = _companion(c, Fraction(1, 3), keys[0])
            assert got is not None
            assert key_path(got) == expected

    def test_prefixes_of_the_witness_are_skipped(self):
        c = codeword_from_display("011")
        keys = grow_record(c, 6)
        assert _paths(keys) == ["01001"]
        assert _companion(c, Fraction(1, 3), keys[0]) is None

    def test_answers_above_half(self):
        # above ratio 1/2 pruning is not known to keep every candidate, so
        # the answer is the first qualifying node of the unpruned tree
        cases = {"2222": ("111", "110"), "00222": ("110011", "111")}
        for display, (witness, expected) in cases.items():
            c = codeword_from_display(display)
            cap = (len(c) - 1) * 5 // 3
            keys = grow_record(c, cap)
            assert _paths(keys) == [witness]
            got = _companion(c, Fraction(3, 5), keys[0])
            assert key_path(got) == expected


class TestPrunedInverse:
    """The residue step, read off the depth-1 nodes of a walk."""

    @staticmethod
    def _children(display):
        nodes = walk_nodes(codeword_from_display(display), 1, None, prune=False)
        return [(n.bits, n.value, n.exponent) for n in nodes if n.depth == 1]

    def test_non_branching_class(self):
        assert self._children("12") == [(0, 1, 2)]            # 5 mod 9

    def test_branching_class_two(self):
        assert self._children("02") == [(0, 4, 2), (1, 1, 1)]

    def test_branching_class_eight_mod_27(self):
        assert self._children("022") == [(0, 16, 3), (1, 5, 2)]

    def test_too_coarse_to_branch(self):
        # a class known only mod 3 has weight l = 0 already: a leaf
        for display in ("1", "2"):
            assert self._children(display) == []

    def test_rejects_class_divisible_by_three(self):
        with pytest.raises(ValueError):
            list(walk_nodes((0, 1), 1, None, prune=False))

    def test_forward_map_agrees_on_random_lifts(self):
        # along every edge of a walk, a lift of the child class with the
        # edge label's parity maps into the parent class
        rng = random.Random(7)
        edges = 0
        for _ in range(200):
            m = rng.randint(2, 8)
            value = rng.randrange(3**m)
            if value % 3 == 0:
                continue
            nodes = {(n.depth, n.bits): n
                     for n in walk_nodes(codeword_of_int(value, m), 6, None,
                                         prune=False)}
            for (d, bits), child in nodes.items():
                if d == 0:
                    continue
                parent = nodes[(d - 1, bits >> 1)]
                step = 3**child.exponent
                lift = child.value + rng.randrange(1, 10**6) * step
                if lift % 2 != bits & 1:
                    lift += step            # 3^m is odd, so this flips parity
                assert t_map(lift) % 3**parent.exponent == parent.value
                edges += 1
        assert edges > 1000


def _levels(nodes):
    out = []
    for value, depth, _ in nodes:
        if depth == len(out):
            out.append(set())
        out[depth].add(value)
    return out


def _max_weight(nodes):
    return max(bits.bit_count() for _, _, bits in nodes)


class TestIntegerTrees:
    def test_depth_five_tree_of_four(self):
        # the whole tree is pinned by forward iteration: every child maps
        # to its parent, 5 hangs off 8, and depth 5 opens the branch at 20
        nodes = list(walk_integers(4, 5))
        assert _levels(nodes) == [
            {4},
            {8},
            {16, 5},
            {32, 10},
            {64, 20},
            {128, 40, 13},
        ]
        value = {(d, bits): n for n, d, bits in nodes}
        for n, d, bits in nodes:
            if d:
                assert t_map(n) == value[(d - 1, bits >> 1)]
        assert _max_weight(nodes) == 2      # 4 <- 8 <- 5 <- 10 <- 20 <- 13
        assert sum(d == 5 for _, d, _ in nodes) == 3

    def test_unrolled_cycle(self):
        # the 1-2 cycle unrolls: 1 reappears as the odd preimage of 2
        assert _levels(walk_integers(1, 2)) == [{1}, {2}, {4, 1}]

    def test_branch_at_eight(self):
        assert list(walk_integers(8, 1)) == [(8, 0, 0), (16, 1, 0), (5, 1, 1)]

    def test_rejects_multiples_of_three(self):
        with pytest.raises(ValueError):
            list(walk_integers(9, 3))

    def test_depth_guard(self):
        with pytest.raises(ValueError):
            list(walk_integers(4, 41))


class TestStructure:
    def test_residue_growth_reproduces_integer_tree(self):
        residue = walk_nodes(codeword_of_int(4, 3), 5, None, prune=False)
        assert (structure_signature(walk_integers(4, 5))
                == structure_signature(residue))

    def test_determined_by_residue_beyond_max_weight(self):
        # two roots in the same class mod 3^(l+2) grow identical structures
        rng = random.Random(11)
        checked = 0
        while checked < 40:
            a = rng.randrange(1, 10**5)
            if a % 3 == 0:
                continue
            depth = 7
            t1 = list(walk_integers(a, depth))
            l = _max_weight(t1)
            t2 = list(walk_integers(a + POW3[l + 2], depth))
            if _max_weight(t2) != l:
                continue
            assert structure_signature(t1) == structure_signature(t2)
            checked += 1

    def test_residue_and_integer_agree_to_the_critical_depth(self):
        rng = random.Random(23)
        checked = 0
        while checked < 100:
            a = rng.randrange(2, 10**6)
            if a % 3 == 0:
                continue
            t = list(walk_integers(a, 8))
            l = _max_weight(t)
            if l == 0:
                continue
            # first depth at which a full-weight path appears
            k = min(d for _, d, bits in t if bits.bit_count() == l)
            trunc = [node for node in t if node[1] <= k]
            res = walk_nodes(codeword_of_int(a, l + 1), k, None, prune=False)
            assert structure_signature(trunc) == structure_signature(res)
            checked += 1

    def test_census_values(self):
        # enumeration oracle: distinct structures per depth, within 2*3^k
        counts = [count_structures(k) for k in range(7)]
        assert counts == [1, 2, 4, 9, 17, 31, 57]

    def test_census_refuses_large_levels(self):
        with pytest.raises(ValueError):
            count_structures(9)


class TestFrontierCensus:
    def test_mean_frontier_is_exact(self):
        # averaged over all codewords of length d+1, the depth-d frontier
        # of the unpruned tree has exactly (4/3)^d nodes
        for d in (1, 2, 3, 4):
            total = sum(n.depth == d
                        for c in all_codewords(d + 1)
                        for n in walk_nodes(c, d, None, prune=False))
            assert Fraction(total, 2 * POW3[d]) == Fraction(4, 3) ** d


class TestPaths:
    def test_path_round_trip(self):
        # a node's key is a 1 followed by its edge labels
        for s in ("", "0", "1", "0101", "000100000111"):
            assert key_path(int("1" + s, 2)) == s

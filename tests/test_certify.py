from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tables import reference_plain_text, reference_strong_text

from collatzcert import certify, engine
from collatzcert.certify import (
    Certificate,
    CertificateEntry,
    SweepState,
    Unclosed,
    code_violations,
    entry_violations,
    farey_successor,
    kraft_mismatch,
    parse_certificate,
    parse_entry,
    parse_ratio,
    replay_path,
    search,
    verify,
    witnesses,
)
from collatzcert.engine import parse_checkpoint
from collatzcert.numth import codeword_display, t_map
from collatzcert.tree import walk_nodes

# Text near both file formats: a known header, then lines of an optional
# checkpoint record kind and format words, malformed fields and arbitrary
# short strings; or checkpoint records of short codewords, which the
# loader often accepts; or arbitrary text.
_WORDS = st.one_of(
    st.sampled_from(["certificate", "checkpoint", "v1", "v3", "v4",
                     "mode=plain", "mode=strong", "alpha=1/3", "alpha=",
                     "02", "12", "001", "1", "3", "01", "11", "0x", "\u00b2",
                     "#", "end", "stuck", "0"]),
    st.text(max_size=3),
)
_CODEWORDS = st.sampled_from(["1", "01", "11", "21", "02", "12", "22", "001",
                              "101", "201", "021", "121", "0001", "2001",
                              "1221"])
_TEXTS = st.one_of(
    st.text(),
    st.builds(
        lambda header, lines: header + "".join(line + "\n" for line in lines),
        st.sampled_from(["", "certificate v1 mode=plain alpha=1/3\n",
                         "checkpoint v1 mode=strong alpha=2/5\n",
                         "checkpoint v3 mode=plain alpha=1/3\n",
                         "checkpoint v4 mode=plain alpha=1/3\n"]),
        st.lists(st.builds(lambda kind, words: kind + " ".join(words),
                           st.sampled_from(["", "open ", "closed ", "stuck ",
                                            "end "]),
                           st.lists(_WORDS, max_size=6)),
                 max_size=6),
    ),
    st.builds(
        lambda records: "checkpoint v4 mode=strong alpha=2/5\n" + "".join(
            f"closed {c} {len(c) - 1} 1 1\n" if kind == "closed"
            else f"{kind} {c}\n" for kind, c in records),
        st.lists(st.tuples(st.sampled_from(["open", "closed", "stuck"]),
                           _CODEWORDS), max_size=12),
    ),
)


class TestReplay:
    def test_legal_path(self):
        assert replay_path(bytes((2, 1)), "001") is None

    def test_one_edge_needs_branching_class(self):
        # the root class 1 mod 9 has no odd preimage, so the first edge fails
        v = replay_path(bytes((1, 0)), "11")
        assert v is not None
        assert v.position == 0
        assert "mod 9" in v.reason

    def test_long_reference_path(self):
        assert replay_path(bytes((1, 2, 2, 2, 0)), "000100000111") is None

    def test_one_edge_after_weight_exhausted(self):
        # 0-edges stay legal past the last knowable modulus, 1-edges do not
        assert replay_path(bytes((2, 0)), "10") is None
        v = replay_path(bytes((2, 0)), "11")
        assert v is not None and v.position == 1

    def test_reserved_word(self):
        v = replay_path(bytes((0,)), "0")
        assert v is not None


class TestVerify:
    def test_reference_plain_is_valid(self, reference_plain):
        assert verify(reference_plain) == []

    def test_reference_strong_is_valid(self, reference_strong):
        assert verify(reference_strong) == []

    def test_path_mutation_is_rejected(self, reference_plain):
        entries = list(reference_plain.entries)
        idx = next(i for i, e in enumerate(entries) if e.display == "12")
        entries[idx] = CertificateEntry(entries[idx].word, ("011",))
        bad = replace(reference_plain, entries=entries)
        out = verify(bad)
        assert out
        assert any("mod 9" in v.reason for v in out)

    def test_missing_row_breaks_exhaustiveness(self, reference_plain):
        bad = replace(reference_plain, entries=reference_plain.entries[:-1])
        out = verify(bad)
        assert any("Kraft" in v.reason for v in out)

    def test_duplicate_row_is_rejected(self, reference_plain):
        entries = reference_plain.entries + [reference_plain.entries[0]]
        out = verify(replace(reference_plain, entries=entries))
        assert any("duplicate" in v.reason for v in out)

    def test_prefix_codewords_are_rejected(self, reference_plain):
        extra = CertificateEntry(codeword=bytes((1, 0, 0)), paths=("0101",))
        out = verify(replace(reference_plain, entries=reference_plain.entries + [extra]))
        assert any("prefix of" in v.reason for v in out)

    def test_underweight_path_needs_ratio(self, reference_plain):
        entries = list(reference_plain.entries)
        idx = next(i for i, e in enumerate(entries) if e.display == "02")
        entries[idx] = CertificateEntry(entries[idx].word, ("0",))
        out = verify(replace(reference_plain, entries=entries))
        assert any("ones-ratio" in v.reason for v in out)

    def test_full_weight_path_must_end_in_one(self):
        # "010" replays fine (trailing 0-edges are always legal) but spends
        # its whole weight before the end
        cert = parse_certificate(reference_plain_text())
        entries = list(cert.entries)
        idx = next(i for i, e in enumerate(entries) if e.display == "01")
        entries[idx] = CertificateEntry(entries[idx].word, ("010",))
        out = verify(replace(cert, entries=entries))
        assert any("end with a 1-edge" in v.reason for v in out)

    def test_strong_prefix_pair_is_rejected(self, reference_strong):
        entries = list(reference_strong.entries)
        idx = next(i for i, e in enumerate(entries) if e.display == "02")
        entries[idx] = CertificateEntry(entries[idx].word, ("1", "100"))
        out = verify(replace(reference_strong, entries=entries))
        assert any("prefix-related" in v.reason for v in out)

    def test_strong_with_second_paths_dropped_passes_plain(self, reference_strong):
        entries = [CertificateEntry(e.word, e.paths[:1])
                   for e in reference_strong.entries]
        plain = Certificate(alpha=reference_strong.alpha, mode="plain",
                            entries=entries)
        assert verify(plain) == []

    def test_replay_bounds_a_path_weight(self):
        # a path heavier than its level never replays: replay refuses the
        # 1-edge after the weight has reached the level, so the verifier
        # needs no weight check of its own
        entry = CertificateEntry(codeword=bytes((2, 2)), paths=("11",))
        assert [str(v) for v in entry_violations(entry, Fraction(1, 3),
                                                 "plain")] == [
            "entry 22, path 1, position 1: 1-edge after weight reached the "
            "level (class mod 9 undetermined)"]


_ENTRY_CODEWORDS = st.builds(lambda low, rest: (low, *rest),
                             st.sampled_from((1, 2)),
                             st.lists(st.sampled_from((0, 1, 2)),
                                      max_size=19))
_ENTRY_PATHS = st.lists(st.text(alphabet="01", min_size=1, max_size=40),
                        min_size=1, max_size=2).map(tuple)


class TestEntry:
    """An entry holds its codeword as bytes and its paths as one string,
    and answers as the (codeword, paths) pair it was given."""

    @settings(max_examples=300)
    @given(_ENTRY_CODEWORDS, _ENTRY_PATHS, st.data())
    def test_entry_answers_as_its_codeword_and_paths(self, codeword, paths,
                                                     data):
        e = CertificateEntry(codeword, paths)
        assert type(e.word) is bytes and e.word == bytes(codeword)
        assert e.paths == paths
        assert e.level == len(codeword) - 1
        assert e.display == codeword_display(codeword)
        assert parse_entry(e.to_line()) == e
        assert CertificateEntry(e.word, list(paths)) == e
        other_codeword, other_paths = data.draw(st.one_of(
            st.just((codeword, paths)),
            st.tuples(st.just(codeword), _ENTRY_PATHS),
            st.tuples(_ENTRY_CODEWORDS, st.just(paths)),
            st.tuples(_ENTRY_CODEWORDS, _ENTRY_PATHS)))
        other = CertificateEntry(other_codeword, other_paths)
        same = (codeword, paths) == (other_codeword, other_paths)
        assert (e == other) == same and (e != other) != same
        if same:
            assert hash(e) == hash(other)
        with pytest.raises(AttributeError):
            e.word = other.word

    @settings(max_examples=100)
    @given(st.lists(st.tuples(_ENTRY_CODEWORDS, _ENTRY_PATHS), max_size=12))
    def test_certificate_reads_the_stored_forms(self, pairs):
        # word order is codeword order, and the path text gives the paths
        entries = [CertificateEntry(c, p) for c, p in pairs]
        by_word = sorted(entries, key=lambda e: e.word)
        assert [tuple(e.word) for e in by_word] == sorted(c for c, _ in pairs)
        cert = Certificate(Fraction(1, 3), "plain", entries)
        assert cert.sorted_canonically().entries == by_word
        every = [p for _, paths in pairs for p in paths]
        if every:
            assert cert.max_depth() == max(map(len, every))
            assert cert.min_ratio() == min(Fraction(p.count("1"), len(p))
                                           for p in every)

    @pytest.mark.parametrize("codeword", [(1, True), (2, 0.0), (True, 2),
                                          (1.0,)])
    def test_bool_or_float_digit_is_refused(self, reference_plain, codeword):
        # bytes() would take True as the digit 1 and refuse 0.0 with a
        # TypeError; such a codeword is refused as replay refuses it
        with pytest.raises(ValueError, match="digits must be 0, 1 or 2"):
            verify(replace(reference_plain, entries=[
                *reference_plain.entries, CertificateEntry(codeword, ("1",))]))


@pytest.mark.parametrize("call", [
    lambda: Certificate(Fraction(1, 3), "weak", []),
    lambda: engine.run(Fraction(1, 3), 4, "weak"),
], ids=["Certificate", "engine.run"])
def test_unknown_mode_is_refused(call):
    with pytest.raises(ValueError, match="^unknown mode 'weak'$"):
        call()


class TestFileFormat:
    def test_round_trip_is_byte_identical(self, reference_plain):
        text = reference_plain.to_text()
        assert parse_certificate(text).to_text() == text

    def test_reference_text_parses_to_itself(self):
        text = reference_strong_text()
        assert parse_certificate(text).to_text() == text

    def test_comments_and_blank_lines_are_skipped(self):
        text = "# preamble\ncertificate v1 mode=plain alpha=1/2\n\n# x\n02 1 1 1\n"
        cert = parse_certificate(text)
        assert cert.size == 1

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("certificate v1 mode=plain alpha=1/3\n02 1 1 1", "trailing newline"),
            ("certificate v2 mode=plain alpha=1/3\n", "header"),
            ("certificate v1 mode=odd alpha=1/3\n", "mode"),
            ("certificate v1 mode=plain alpha=0.5\n", "ratio"),
            ("certificate v1 mode=plain alpha=1/3\n02 2 1 1\n", "level"),
            ("certificate v1 mode=plain alpha=1/3\n02 1 3 1\n", "length"),
            ("certificate v1 mode=plain alpha=1/3\n02 1 1 2\n", "path"),
            ("certificate v1 mode=plain alpha=1/3\n02 1\n", "fields"),
        ],
    )
    def test_parse_errors_carry_line_numbers(self, text, fragment):
        with pytest.raises(ValueError, match="line"):
            parse_certificate(text)
        with pytest.raises(ValueError, match=fragment):
            parse_certificate(text)

    def test_parse_ratio(self):
        assert parse_ratio("12/29") == Fraction(12, 29)
        for bad in ("12", "a/b", "1/0", "-1/3", "\u00b2/3"):
            with pytest.raises(ValueError, match="expected an exact ratio"):
                parse_ratio(bad)

    @settings(max_examples=300, derandomize=True, database=None,
              deadline=None)
    @example("checkpoint v1 mode=plain alpha=1/3\nopen 0x\n")
    @example("checkpoint v3 mode=plain alpha=1/3\nopen 01\n")
    @example("checkpoint v4 mode=plain alpha=1/3\nclosed 01 1 2 01\nclosed 0")
    @example("checkpoint v4 mode=plain alpha=1/3\nstuck 001\nstuck 21\n")
    @example("checkpoint v4 mode=plain alpha=1/3\nopen 01\nstuck 01\n")
    @example("checkpoint v4 mode=plain alpha=1/3\nopen 01\nopen 001\n")
    @example("checkpoint v4 mode=plain alpha=1/3\nopen 1\n")
    @example("checkpoint v4 mode=plain alpha=1/3\nclosed 01 1 2 01\nopen 11\n"
             "open 21\nopen 02\nopen 12\nopen 22\nstuck 11\n")
    @example("checkpoint v4 mode=plain alpha=1/3\nstuck 22222\n")
    @example("checkpoint v4 mode=plain alpha=1/3\n")
    @example("certificate v1 mode=plain alpha=1/3\n02 \u00b2 1 1\n")
    @example("certificate v1 mode=plain alpha=1/3\n02 1 \u00b2 1\n")
    @example("certificate v1 mode=plain alpha=\u00b2/3\n")
    @example("certificate v1 mode=plain alpha=1/3\n02 " + "1" * 5000 + " 1 1\n")
    @given(_TEXTS)
    def test_every_parse_error_is_located(self, text):
        # and every state the checkpoint loader accepts is an exhaustive
        # prefix code with no codeword of level 0
        for parse in (parse_certificate, parse_checkpoint):
            try:
                parsed = parse(text)
            except ValueError as exc:
                assert str(exc).startswith("line "), (parse.__name__, exc)
                continue
            if parse is parse_checkpoint:
                codewords = [*parsed.open_codewords, *parsed.stuck,
                             *(e.word for e in parsed.closed)]
                assert code_violations(codewords) == []
                assert all(len(c) >= 2 for c in codewords)


class TestSearch:
    def test_reproduces_reference_plain_exactly(self, reference_plain):
        out = search(Fraction(1, 3), 4, "plain")
        assert out.to_text() == reference_plain.to_text()

    def test_quarter_at_weight_one(self):
        out = search(Fraction(1, 4), 1, "plain")
        assert (out.size, out.max_depth()) == (6, 4)

    def test_strong_sixth_at_weight_one(self):
        out = search(Fraction(1, 6), 1, "strong")
        assert (out.size, out.max_depth()) == (6, 6)

    def test_strong_third_matches_reference_codewords(self, reference_strong):
        out = search(Fraction(1, 3), 5, "strong")
        assert (out.size, out.max_weight(), out.max_depth()) == (36, 5, 15)
        assert [e.word for e in out.entries] == [
            e.word for e in reference_strong.entries
        ]

    def test_search_results_always_verify(self):
        for alpha, weight, mode in [
            (Fraction(1, 4), 2, "plain"),
            (Fraction(3, 10), 3, "plain"),
            (Fraction(1, 4), 2, "strong"),
            (Fraction(3, 10), 3, "strong"),
        ]:
            out = search(alpha, weight, mode)
            assert isinstance(out, Certificate)
            assert verify(out) == []
            assert kraft_mismatch(e.word for e in out.entries) is None

    def test_unclosed_below_needed_weight(self):
        out = search(Fraction(1, 3), 3, "plain")
        assert isinstance(out, Unclosed)
        assert out.open_codewords == [bytes((1, 2, 2, 2))]

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            search(Fraction(3, 2), 4)
        with pytest.raises(ValueError):
            search(Fraction(1, 3), 0)
        with pytest.raises(ValueError):
            search(Fraction(1, 3), 81)


class TestSweep:
    def test_first_levels(self):
        sweep = SweepState(mode="plain")
        assert sweep.level(1)[0] == Fraction(1, 4)
        assert sweep.level(2)[0] == Fraction(2, 7)
        alpha, cert = sweep.level(4)
        assert alpha == Fraction(1, 3)
        assert cert.size == 12

    @pytest.mark.parametrize("mode,top,tests", [
        ("plain", 6, [(1, "1/6"), (1, "1/3"), (2, "2/7"), (2, "1/3"),
                      (3, "3/10"), (3, "1/3"), (4, "4/13"), (4, "4/11"),
                      (5, "5/14"), (5, "4/11"), (6, "4/11")]),
        ("strong", 5, [(1, "1/6"), (1, "1/5"), (2, "2/11"), (2, "2/9"),
                       (2, "2/7"), (3, "3/11"), (3, "3/10"), (3, "1/3"),
                       (4, "4/13"), (4, "1/3"), (5, "5/16"), (5, "5/14")]),
    ])
    def test_searches_in_order(self, monkeypatch, mode, top, tests):
        # the (level, ratio) of every search a sweep makes, in order
        seen = []
        real_search = certify.search

        def spy(alpha, max_weight, *args, **kwargs):
            seen.append((max_weight, f"{alpha.numerator}/{alpha.denominator}"))
            return real_search(alpha, max_weight, *args, **kwargs)

        monkeypatch.setattr(certify, "search", spy)
        SweepState(mode=mode).level(top)
        assert seen == tests

    @pytest.mark.parametrize("mode,top,searches", [
        ("plain", 10, 23), ("strong", 8, 21)])
    def test_depth_first_matches_breadth_first(self, sweep_both_ways, mode,
                                               top, searches):
        assert sweep_both_ways(mode, top, cold=True) == searches

    @pytest.mark.parametrize("mode,top,decisions,grows,companions", [
        pytest.param("plain", 10, 600, 151, 0, id="plain-10-600"),
        pytest.param("strong", 8, 840, 194, 245, id="strong-8-840"),
        pytest.param("plain", 16, 25890, 5322, 0, id="plain-16-25890"),
        pytest.param("strong", 13, 16617, 4009, 4389, id="strong-13-16617")])
    def test_close_decisions(self, monkeypatch, mode, top, decisions, grows,
                             companions):
        # each search carries the champion certificate and decides again
        # only its entries with a path below the new ratio, and each
        # level's failed search stops at its first stuck codeword; from
        # the roots the first two sweeps' searches make 2247 and 2218
        # decisions, and run breadth first to the end 3681 and 3225.  The
        # last two rows are the benchmark's sweeps, whose grows and
        # companion calls pin the growth code's traffic at full size
        names = ("_close_decision", "grow_children", "find_companion")
        calls = dict.fromkeys(names, 0)

        def counted(name):
            real = getattr(engine, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)

            return wrapper

        for name in names:
            monkeypatch.setattr(engine, name, counted(name))
        SweepState(mode=mode).level(top)
        assert list(calls.values()) == [decisions, grows, companions]

    @pytest.mark.parametrize("level", [0, 81])
    def test_refuses_a_level_out_of_range_before_any_search(self, monkeypatch,
                                                            level):
        # the engine splits at most to weight MAX_CODEWORD_LEN = 80, so a
        # deeper level would fail only after sweeping every level below it
        def search(*args, **kwargs):
            raise AssertionError("search called")

        monkeypatch.setattr(certify, "search", search)
        sweep = SweepState(mode="plain")
        with pytest.raises(ValueError, match=r"within \[1, 80\]"):
            sweep.level(level)
        assert sweep.results == {}

    def test_min_ratio_is_the_least_path_ratio(self, reference_plain,
                                               reference_strong):
        sweep = SweepState(mode="plain")
        certs = [reference_plain, reference_strong]
        certs += [sweep.level(l)[1] for l in range(1, 11)]
        for cert in certs:
            assert cert.min_ratio() == min(
                Fraction(p.count("1"), len(p))
                for e in cert.entries for p in e.paths)
        with pytest.raises(ValueError):
            replace(reference_plain, entries=[]).min_ratio()

    def test_flat_step_between_five_and_six(self):
        sweep = SweepState(mode="plain")
        a5, c5 = sweep.level(5)
        a6, c6 = sweep.level(6)
        assert a5 == a6 == Fraction(5, 14)
        assert c5.size == c6.size == 34

    def test_champion_certificate_is_reproducible(self):
        # re-searching at the champion ratio rebuilds the same certificate
        sweep = SweepState(mode="plain")
        alpha, cert = sweep.level(5)
        again = search(alpha, 5, "plain")
        assert again.to_text() == cert.to_text()

    def test_monotone_in_level(self):
        sweep = SweepState(mode="strong")
        values = [sweep.level(l)[0] for l in range(1, 7)]
        assert values == sorted(values)

    def test_entry_depths_are_critical_depths(self):
        # plain sweep entries carry the true (unpruned) critical depth
        sweep = SweepState(mode="plain")
        _, cert = sweep.level(5)
        for e in cert.entries:
            k = len(e.paths[0])
            full = [n.depth for n in walk_nodes(e.word, k, None, prune=False)
                    if n.weight == e.level]
            assert full and min(full) == k


class TestFareySuccessor:
    def test_is_the_next_fraction_within_the_denominator_bound(self):
        for b in range(1, 31):
            for a in range(b):
                x = Fraction(a, b)
                if x.denominator != b:
                    continue
                for n in range(b, 61):
                    s = farey_successor(x, n)
                    assert s > x and s.denominator <= n
                    for q in range(1, n + 1):
                        # the least p/q above x must not lie below s
                        p = a * q // b + 1
                        assert p * s.denominator >= s.numerator * q, (x, n, q)

    def test_refuses_a_denominator_beyond_the_bound(self):
        with pytest.raises(ValueError):
            farey_successor(Fraction(1, 7), 6)


class TestWitnesses:
    def test_first_witness_from_41(self, reference_plain):
        got = witnesses(reference_plain, 41, 1)
        assert got[0].n == 109
        assert got[0].k == 3
        assert got[0].ratio == Fraction(1, 3)
        assert t_map(t_map(t_map(109))) == 41

    def test_chain_of_ten(self, reference_plain):
        chain = witnesses(reference_plain, 41, 10)
        assert len(chain) == 10
        for i, rec in enumerate(chain, start=1):
            assert rec.ratio >= Fraction(1, 3)
            v = rec.n
            for _ in range(rec.k):
                v = t_map(v)
            assert v == 41
            assert rec.n <= 2 ** (reference_plain.max_depth() * i) * 41

    def test_anchor_one_reroutes_through_41(self, reference_plain):
        chain = witnesses(reference_plain, 1, 5)
        for rec in chain:
            assert rec.ratio >= Fraction(1, 3)
            v = rec.n
            seen_41 = False
            for _ in range(rec.k):
                v = t_map(v)
                seen_41 = seen_41 or v == 41
            assert v == 1
            assert seen_41

    def test_anchor_two_escapes_its_cycle(self, reference_plain):
        # 2's preimages include 1, so a chain rooted at 2 itself would offer
        # n = 1 again and again
        chain = witnesses(reference_plain, 2, 6)
        assert len({rec.n for rec in chain}) == 6
        for rec in chain:
            assert rec.n not in (1, 2)
            assert rec.ratio >= Fraction(1, 3)
            v = rec.n
            for _ in range(rec.k):
                v = t_map(v)
            assert v == 2

    def test_strong_breadth_doubles(self, reference_strong):
        chain = witnesses(reference_strong, 41, 6, breadth=2)
        assert len({rec.n for rec in chain}) == 6
        for rec in chain:
            assert rec.ratio >= Fraction(1, 3)

    def test_longer_breadth_two_chain_extends_the_shorter(self,
                                                          reference_strong):
        # breadth first: a longer chain starts with the shorter one, and
        # records 2i+2 and 2i+3 are the two preimages of record i
        short = witnesses(reference_strong, 41, 100, breadth=2)
        chain = witnesses(reference_strong, 41, 1000, breadth=2)
        assert chain[:100] == short
        for i, rec in enumerate(chain[2:], start=2):
            parent = chain[(i - 2) // 2]
            v = rec.n
            for _ in range(rec.k - parent.k):
                v = t_map(v)
            assert v == parent.n, i

    def test_parity_matches_reversed_path(self, reference_plain):
        # the forward parity of each segment is its path reversed; checked
        # internally, the call would raise otherwise
        witnesses(reference_plain, 41, 8)

    def test_argument_validation(self, reference_plain, reference_strong):
        with pytest.raises(ValueError):
            witnesses(reference_plain, 9, 1)
        with pytest.raises(ValueError):
            witnesses(reference_plain, 41, 0)
        with pytest.raises(ValueError):
            witnesses(reference_plain, 41, 1, breadth=2)
        with pytest.raises(ValueError):
            witnesses(reference_strong, 41, 1, breadth=3)

    @pytest.mark.parametrize("anchor", [5, 14, 23, 41])
    def test_refuses_a_certificate_that_does_not_verify(self, anchor):
        # entry 12's path with its second edge flipped no longer replays;
        # lifting it from these anchors would fail at 10, 28, 46 and 82
        bad = parse_certificate(
            reference_plain_text().replace("12 1 3 001", "12 1 3 011"))
        with pytest.raises(ValueError, match="entry 12, path 1, position 1: "):
            witnesses(bad, anchor, 3)

import hashlib
import re
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collatzcert import engine, tree
from collatzcert.certify import (
    Certificate,
    SweepState,
    Unclosed,
    depth_cap,
    kraft_mismatch,
    verify,
)
from collatzcert.engine import (
    format_stats_csv,
    load_checkpoint,
    parse_checkpoint,
    run,
    save_checkpoint,
    stats,
)
from collatzcert.numth import codeword_display
from collatzcert.tree import (
    best_ratio,
    grow_children,
    packed_cap,
    unpack_keys,
)


class TestUnclosed:
    def test_report_lists_the_stuck_codeword(self):
        out = run(Fraction(1, 3), 3, "plain")
        assert isinstance(out, Unclosed)
        assert out.open_codewords == [bytes((1, 2, 2, 2))]
        assert best_ratio(bytes((1, 2, 2, 2)), 9) == Fraction(2, 7)

    @pytest.mark.parametrize("alpha,weight,mode,count,digest", [
        (Fraction(5, 14), 4, "plain", 3,
         "c8e53466761ba7bb8edc4a445671970155569cd6a64cd059a023799be1606fb9"),
        (Fraction(2, 5), 7, "plain", 40,
         "c3d459524fa9fba9690a6982cd89b031aa3ab1f7030887520cffdd178675c1d1"),
        (Fraction(3, 7), 6, "strong", 243,
         "d7c81c5046d5992c3e00045cde84346806936936666eaf09d463b14cc7618cf0"),
    ])
    def test_report_lists_every_stuck_codeword(self, alpha, weight, mode,
                                                count, digest):
        # the sorted reports the former breadth-first loop gave, by the
        # sha256 of their displays joined by spaces
        out = run(alpha, weight, mode)
        assert isinstance(out, Unclosed) and len(out.open_codewords) == count
        assert out.open_codewords == sorted(out.open_codewords)
        displays = " ".join(codeword_display(c) for c in out.open_codewords)
        assert hashlib.sha256(displays.encode()).hexdigest() == digest


def _segments(tmp_path, alpha, weight, mode):
    """The straight run's outcome and its checkpoint, cut into the text
    each write added: segment 0 first, then each append of decisions."""
    cp = tmp_path / "straight"
    cp.unlink(missing_ok=True)
    real = engine.save_checkpoint
    sizes = []

    def save(record, path):
        real(record, path)
        sizes.append(cp.stat().st_size)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "save_checkpoint", save)
        outcome = run(alpha, weight, mode, checkpoint_path=str(cp))
    text = cp.read_text()
    return outcome, [text[a:b] for a, b in zip([0, *sizes], sizes)]


RESUMED_SEARCHES = [(Fraction(1, 3), 5, "strong"), (Fraction(5, 14), 6, "plain")]


class TestCheckpoints:
    def test_interrupt_and_resume_match_the_straight_run(self, tmp_path,
                                                         run_interrupted):
        cp = tmp_path / "state"
        straight = run(Fraction(1, 3), 4, "plain")
        run_interrupted(2, Fraction(1, 3), 4, "plain", checkpoint_path=str(cp))
        assert cp.exists()
        resumed = run(Fraction(1, 3), 4, "plain", checkpoint_path=str(cp))
        assert resumed.to_text() == straight.to_text()

    @pytest.mark.parametrize("alpha,weight,mode", RESUMED_SEARCHES)
    def test_resume_after_every_pass(self, tmp_path, run_interrupted, alpha,
                                     weight, mode):
        # interrupted after segment 0, after each append, and after the last
        straight, segments = _segments(tmp_path, alpha, weight, mode)
        cp = tmp_path / "state"
        for k in range(1, len(segments) + 1):
            cp.unlink(missing_ok=True)
            run_interrupted(k, alpha, weight, mode, checkpoint_path=str(cp))
            assert cp.read_text() == "".join(segments[:k])
            resumed = run(alpha, weight, mode, checkpoint_path=str(cp))
            assert resumed.to_text() == straight.to_text(), k

    @pytest.mark.parametrize("alpha,weight,mode", RESUMED_SEARCHES)
    def test_torn_tail_is_dropped(self, tmp_path, alpha, weight, mode):
        # cut the appended part of the straight run's checkpoint after
        # each whole line and halfway through the next (segment 0 is
        # written whole): the half line is dropped, every whole line is
        # kept, and the run resumes to the same certificate
        straight, segments = _segments(tmp_path, alpha, weight, mode)
        lines = "".join(segments).splitlines(keepends=True)
        cp = tmp_path / "state"
        for k in range(segments[0].count("\n"), len(lines)):
            kept = "".join(lines[:k])
            state = parse_checkpoint(kept)
            assert [f"closed {e.to_line()}\n" for e in state.closed] == [
                line for line in lines[:k] if line.startswith("closed ")]
            assert [f"stuck {codeword_display(c)}\n" for c in state.stuck] == [
                line for line in lines[:k] if line.startswith("stuck ")]
            cp.write_text(kept + lines[k][:len(lines[k]) // 2])
            assert load_checkpoint(cp) == state
            resumed = run(alpha, weight, mode, checkpoint_path=str(cp))
            assert resumed.to_text() == straight.to_text(), k

    def test_checkpoint_is_at_most_twice_the_certificate(self, tmp_path):
        for alpha, weight, mode in [*RESUMED_SEARCHES,
                                    (Fraction(1, 3), 4, "plain")]:
            cp = tmp_path / f"{mode}-{weight}"
            cert = run(alpha, weight, mode, checkpoint_path=str(cp))
            assert isinstance(cert, Certificate)
            assert cp.stat().st_size <= 2 * len(cert.to_text().encode())

    def test_round_trip_is_byte_identical(self, tmp_path):
        # every state a run leaves, loaded, saved fresh as segment 0 and
        # loaded again, is the same state, and saving it again writes the
        # same bytes
        fresh = tmp_path / "fresh"
        for alpha, weight in [(Fraction(1, 3), 4), (Fraction(5, 14), 4),
                              (Fraction(1, 3), 3)]:
            _, segments = _segments(tmp_path, alpha, weight, "plain")
            for k in range(1, len(segments) + 1):
                state = parse_checkpoint("".join(segments[:k]))
                save_checkpoint(state, fresh)
                text = fresh.read_text()
                assert load_checkpoint(fresh) == state
                save_checkpoint(load_checkpoint(fresh), fresh)
                assert fresh.read_text() == text
        # the last state is a finished search that left 2221 stuck
        assert (state.open_codewords, state.stuck) == ([], [bytes((1, 2, 2, 2))])

    def test_mismatched_resume_is_refused(self, tmp_path, run_interrupted):
        cp = tmp_path / "state"
        run_interrupted(2, Fraction(1, 3), 4, "plain", checkpoint_path=str(cp))
        with pytest.raises(ValueError, match="refusing"):
            run(Fraction(1, 4), 4, "plain", checkpoint_path=str(cp))
        with pytest.raises(ValueError, match="refusing"):
            run(Fraction(1, 3), 4, "strong", checkpoint_path=str(cp))

    def test_each_pass_writes_one_checkpoint(self, tmp_path):
        # segment 0 holds the six roots, then the decisions are appended
        # in the order they are made, each just before a codeword of level
        # 2 or less is decided and once at the end, so every closed entry
        # is written once and in canonical order
        cert, segments = _segments(tmp_path, Fraction(1, 3), 5, "strong")
        assert segments[0] == "checkpoint v4 mode=strong alpha=1/3\n" + "".join(
            f"open {w}\n" for w in ("01", "11", "21", "02", "12", "22"))
        decisions = [line for s in segments[1:] for line in s.splitlines()]
        assert decisions == [f"closed {e.to_line()}" for e in cert.entries]
        # a decision of level 2 or less, whose codeword is displayed in
        # three digits or less, opens an append
        assert all(len(line.split()[1]) > 3 for s in segments[1:]
                   for line in s.splitlines()[1:])
        assert [hashlib.sha256(s.encode()).hexdigest() for s in segments] == [
            "0755ab009f6d796385aa4c7f83689c507e4232a31953498519148f8cfcd528a5",
            "a73a11117948fef23b818d8b4292e42b4b76edd94a0fea421983d436dc199cb1",
            "1da421a1519bfedf984bdb9ab8a46335a1a78f792be5f805070ca387209784aa",
            "fcb07c964afe41cc59e309e22ad3017af68bfc4521f4c69e44ea7bf9087a4eb8",
            "d759961225b7e7cdbc17bca485fc13996934a28a2f9f2a207f9be9ddc03bbec3",
            "60b98d69e2702daf60cefccfd8e1de1aad2bea988ba1424e9046acc7f7278bc6",
            "0509c195f7e3c57da1667de4978230b5cedf68f1cc2dc4027a3c04494b4dbebb",
            "538018d3b93eb259200e13c435709c62d9a2decd16ad39646b4ad3b7ff037572",
            "4067a03772dcc6aacd1057cec0c63f89b4907cc8d3dccfbbafaa8c4da24047ea",
            "c7ee02a0cbbcc4dcef230944d8ebe9f8aef4ef05461bd8c01224612fb767ce0a",
            "7239b2ed448a2b04b8ec63a1ac30984257aaf6513d23309e849e9dc19103cf4f",
            "a3a523f36f84c76076cc9d318bda6a243dd2287a50bedc699bb64bc79820659d",
            "14539ab783781f72fc13f9c9f85690d00b51a3c829c4c5da3ba2e57cd8fbe3f8",
            "647704747d049e1b7f23ba25930fc46e0254154100ac38fd2902941d2bf81dca",
            "4f3b37d6db35425e50729be02af6904cb0248d29594a237e60b4ff96a2424525",
            "aa363ea7afff85fa18db784b3790198e80f15ef20022103eef4185e2a2f16310",
            "d6a42bf74c092c33c122f2cb4f3a615f805bc5e5fc81231d31a62c7031b28633",
        ]

    def test_unclosed_checkpoint_resumes_at_a_larger_weight(
            self, tmp_path, reference_plain):
        cp = tmp_path / "state"
        assert isinstance(
            run(Fraction(1, 3), 3, "plain", checkpoint_path=str(cp)), Unclosed)
        # the stuck codeword is open again on resume, so a larger budget
        # splits it
        assert "stuck 2221\n" in cp.read_text()
        state = load_checkpoint(cp)
        assert state.open_codewords == [] and state.counters()[3]["stuck"] == 1
        resumed = run(Fraction(1, 3), 4, "plain", checkpoint_path=str(cp))
        assert resumed.to_text() == reference_plain.to_text()

    def test_finished_checkpoint_refuses_a_lower_weight(self, tmp_path,
                                                        monkeypatch):
        # plain 5/14 closes at weight 6 with entries of weight 5, and from
        # the roots it is left unclosed at 4: a resume at 4 that kept those
        # entries would return a certificate the search cannot find there
        cp = tmp_path / "state"
        assert run(Fraction(5, 14), 6, "plain",
                   checkpoint_path=str(cp)).max_weight() == 5
        assert isinstance(run(Fraction(5, 14), 4, "plain"), Unclosed)
        text = cp.read_text()
        with monkeypatch.context() as mp:
            mp.setattr(engine, "_close_decision", None)
            with pytest.raises(ValueError, match=(
                    rf"^checkpoint {re.escape(str(cp))}: cannot carry "
                    r"codeword \d+ of weight 5 into a search to "
                    r"max_weight 4$")):
                run(Fraction(5, 14), 4, "plain", checkpoint_path=str(cp))
        assert cp.read_text() == text
        assert (run(Fraction(5, 14), 5, "plain", checkpoint_path=str(cp))
                == run(Fraction(5, 14), 5, "plain"))

    def test_open_codewords_past_a_lower_weight_are_refused(self, tmp_path,
                                                            monkeypatch):
        # a search stopped with its weight-5 codewords open and every
        # closed entry of weight 4 or less resumes at 5, not at 4
        straight = run(Fraction(5, 14), 6, "plain")
        closed = [e for e in straight.entries if e.level <= 4]
        deep = [e.word for e in straight.entries if e.level > 4]
        cp = tmp_path / "state"
        save_checkpoint(engine.CheckpointState(
            Fraction(5, 14), "plain", deep, closed), cp)
        text = cp.read_text()
        assert load_checkpoint(cp).open_codewords == deep
        with monkeypatch.context() as mp:
            mp.setattr(engine, "_close_decision", None)
            with pytest.raises(ValueError, match=(
                    rf"^checkpoint {re.escape(str(cp))}: cannot carry "
                    rf"codeword {codeword_display(deep[0])} of weight 5 into "
                    r"a search to max_weight 4$")):
                run(Fraction(5, 14), 4, "plain", checkpoint_path=str(cp))
        assert cp.read_text() == text
        resumed = run(Fraction(5, 14), 5, "plain", checkpoint_path=str(cp))
        assert resumed.to_text() == straight.to_text()

    def test_mixed_level_checkpoint_resumes(self, tmp_path, reference_plain):
        # five level-1 codewords next to the three children of 21, the one
        # the straight run splits: each open codeword is tested at its own
        # level's depth cap
        cp = tmp_path / "state"
        cp.write_text("checkpoint v4 mode=plain alpha=1/3\n" + "".join(
            f"open {w}\n"
            for w in ("01", "11", "021", "121", "221", "02", "12", "22")))
        resumed = run(Fraction(1, 3), 4, "plain", checkpoint_path=str(cp))
        assert resumed.to_text() == reference_plain.to_text()

    def test_shallow_codeword_keeps_its_own_depth_cap(self, tmp_path,
                                                      reference_plain):
        # 21 beside deeper codewords: at level 2's cap it would close with
        # ones-ratio 1/4; at its own cap it splits as in the straight run
        cp = tmp_path / "state"
        cp.write_text("checkpoint v4 mode=plain alpha=1/3\n" + "".join(
            f"open {w}\n"
            for w in ("001", "101", "201", "11", "21", "02", "12", "22")))
        resumed = run(Fraction(1, 3), 4, "plain", checkpoint_path=str(cp))
        assert verify(resumed) == []
        expected = {e.word: e for e in reference_plain.entries
                    if e.word != bytes((1, 0))}
        assert {e.word: e for e in resumed.entries
                if e.word[:2] != bytes((1, 0))} == expected

    def test_counters_derive_from_records(self, tmp_path):
        cp = tmp_path / "state"
        run(Fraction(1, 3), 4, "plain", checkpoint_path=str(cp))
        state = load_checkpoint(cp)
        counters = state.counters()
        assert counters[1] == {"opened": 6, "closed": 5, "stuck": 0, "split": 1}
        assert counters[2] == {"opened": 3, "closed": 2, "stuck": 0, "split": 1}
        assert counters[3] == {"opened": 3, "closed": 2, "stuck": 0, "split": 1}
        assert counters[4] == {"opened": 3, "closed": 3, "stuck": 0, "split": 0}


class _Killed(Exception):
    pass


class TestSiblingGrowth:
    def test_one_walk_per_parent(self, monkeypatch):
        # each decided codeword's record comes from one walk of its
        # parent's tree; the roots' parents are the level-0 words 1 and 2
        grown, decided = [], []
        real_grow, real_decide = engine.grow_children, engine._close_decision

        def grow(parent, cap):
            grown.append(parent)
            return real_grow(parent, cap)

        def decide(codeword, *args):
            decided.append(codeword)
            return real_decide(codeword, *args)

        monkeypatch.setattr(engine, "grow_children", grow)
        monkeypatch.setattr(engine, "_close_decision", decide)
        assert isinstance(run(Fraction(5, 14), 6, "plain"), Certificate)
        # depth first, a group is grown when its first child is decided
        assert grown == list(dict.fromkeys(c[:-1] for c in decided))
        assert grown[0] == bytes((1,)) and bytes((2,)) in grown
        assert len(decided) == 3 * len(grown)

    def test_run_killed_mid_pass_resumes_byte_identical(self, tmp_path,
                                                        monkeypatch):
        # killed between two grows after the third write, the run resumes
        # from the decisions appended so far
        straight = run(Fraction(5, 14), 6, "plain")
        cp = tmp_path / "state"
        real_grow, real_save = engine.grow_children, engine.save_checkpoint
        grows_after = []

        def save(state, path):
            real_save(state, path)
            grows_after.append(0)

        def grow(*args):
            if len(grows_after) == 3 and grows_after[-1] == 2:
                raise _Killed
            if grows_after:
                grows_after[-1] += 1
            return real_grow(*args)

        with monkeypatch.context() as mp:
            mp.setattr(engine, "grow_children", grow)
            mp.setattr(engine, "save_checkpoint", save)
            with pytest.raises(_Killed):
                run(Fraction(5, 14), 6, "plain", checkpoint_path=str(cp))
        resumed = run(Fraction(5, 14), 6, "plain", checkpoint_path=str(cp))
        assert resumed.to_text() == straight.to_text()

    def test_every_tree_lookup_is_a_growth(self, tmp_path, monkeypatch):
        # the close decision and the strong companion read growth records,
        # so the tree is looked up only by grow_children and its walks:
        # fresh, along the strong sweep, and resumed, where the companion
        # grows the records of the ancestors the resumed run never split
        straight = run(Fraction(1, 3), 5, "strong")
        cp = tmp_path / "state"
        assert isinstance(run(Fraction(1, 3), 4, "strong",
                              checkpoint_path=str(cp)), Unclosed)
        callers, companions = Counter(), []
        real_leaves, real_companion = tree._leaves, engine.find_companion

        def leaves(*args):
            # every class read is prime to 3, so no read is of a 0 slot
            assert args[0] % 3
            callers[sys._getframe(1).f_code.co_name] += 1
            return real_leaves(*args)

        def companion(*args):
            companions.append(args[0])
            return real_companion(*args)

        monkeypatch.setattr(tree, "_leaves", leaves)
        monkeypatch.setattr(engine, "find_companion", companion)
        assert run(Fraction(1, 3), 5, "strong") == straight
        SweepState(mode="strong").level(8)
        companions.clear()
        assert run(Fraction(1, 3), 5, "strong",
                   checkpoint_path=str(cp)) == straight
        assert companions
        assert callers["grow_children"]
        assert set(callers) <= {"grow_children", "_walk"}


class TestGrowthCache:
    def test_shared_cache_changes_no_byte(self, monkeypatch):
        # one cache through plain and strong runs at ratios that never
        # fall, so caps never rise: a group grown once answers every later
        # run, which grows only the groups it reaches first, and a
        # repeated run grows nothing
        grown = []
        real_grow = engine.grow_children

        def grow(*args):
            grown.append(args[0])
            return real_grow(*args)

        cache = {}
        calls = []
        for alpha, weight, mode in [
                (Fraction(1, 3), 4, "plain"), (Fraction(1, 3), 5, "strong"),
                (Fraction(5, 14), 6, "plain"), (Fraction(5, 14), 6, "plain")]:
            cold = run(alpha, weight, mode).to_text()
            grown.clear()
            with monkeypatch.context() as mp:
                mp.setattr(engine, "grow_children", grow)
                assert run(alpha, weight, mode, cache=cache).to_text() == cold
            calls.append(len(grown))
        # cold, the three runs grow 5, 17 and 16 groups
        assert calls == [5, 12, 5, 0]
        assert set(cache) >= {bytes((1,)), bytes((2,))}
        # one packed int per parent, under its bytes, which decodes to the
        # key lists of its three children at the cap it was grown at
        def children_keys(packed):
            cap = packed_cap(packed)
            return [unpack_keys(packed, d, cap) for d in range(3)]

        for name, packed in cache.items():
            assert type(name) is bytes and type(packed) is int
            assert children_keys(packed) == children_keys(
                grow_children(name, packed_cap(packed)))
        # a run at a lower ratio asks the roots' records, grown at 5/14 for
        # level 1's cap of 2, for its cap of 3
        cache = {}
        run(Fraction(5, 14), 6, "plain", cache=cache)
        with pytest.raises(ValueError, match="cap 3 is past the record's cap 2"):
            run(Fraction(1, 3), 4, "plain", cache=cache)

    def test_memo_holds_few_bytes_per_group(self):
        # the plain sweep to 12 keeps one record for each of its 760 groups;
        # a bytes key and a packed int take 86 B, counted by walking the
        # keys and values, and a tuple key or a record of lists would take
        # several times the bound
        sweep = SweepState(mode="plain")
        sweep.level(12)
        cache, seen = sweep.cache, set()
        size = sum(_object_size(name, seen) + _object_size(packed, seen)
                   for name, packed in cache.items())
        assert len(cache) == 760
        assert size <= 160 * len(cache), size / len(cache)

    def test_entries_hold_few_bytes(self):
        # the certificates of the plain sweep to 12 share 2,075 distinct
        # entries; a bytes word and one path string take 160 B an entry,
        # counted by walking each entry's slots, where a tuple of digits
        # and a tuple of paths took 281 B
        sweep = SweepState(mode="plain")
        sweep.level(12)
        entries = {id(e): e for _, cert in sweep.results.values()
                   for e in cert.entries}
        seen = set()
        size = sum(_object_size(e, seen) for e in entries.values())
        assert len(entries) == 2075
        assert size <= 170 * len(entries), size / len(entries)


def _object_size(obj, seen: set) -> int:
    """Bytes held by an object and everything it reaches through its items
    or slots, each object counted once."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, (tuple, list)):
        parts = obj
    else:
        parts = [getattr(obj, name)
                 for name in getattr(type(obj), "__slots__", ())]
    return size + sum(_object_size(part, seen) for part in parts)


class TestDepthFirst:
    def test_report_holds_the_least_stuck_codeword(self):
        wide = run(Fraction(5, 14), 4, "plain")
        assert isinstance(wide, Unclosed) and len(wide.open_codewords) > 1
        out = run(Fraction(5, 14), 4, "plain", stop_at_stuck=True)
        assert out.open_codewords == wide.open_codewords[:1]

    @pytest.mark.parametrize("alpha,weight,mode", [
        (Fraction(1, 3), 4, "plain"), (Fraction(5, 14), 6, "plain"),
        (Fraction(1, 3), 5, "strong")])
    def test_certificate_asserts_kraft_once(self, monkeypatch, alpha, weight,
                                            mode):
        # the engine counts the Kraft sum with the verifier's function, once
        wide = run(alpha, weight, mode).to_text()
        checks = []
        real = engine.kraft_mismatch

        def check(codewords):
            checks.append(codewords)
            return real(codewords)

        monkeypatch.setattr(engine, "kraft_mismatch", check)
        assert run(alpha, weight, mode, stop_at_stuck=True).to_text() == wide
        assert len(checks) == 1 and checks[0]

    def test_stopped_search_resumes(self, tmp_path):
        # a search stopped at its first stuck codeword leaves a checkpoint
        # that resumes, stopped or not, to the straight run's outcome
        cp = tmp_path / "state"
        for stop in (True, False):
            straight = run(Fraction(5, 14), 4, "plain", stop_at_stuck=stop)
            cp.unlink(missing_ok=True)
            run(Fraction(5, 14), 4, "plain", checkpoint_path=str(cp),
                stop_at_stuck=True)
            state = load_checkpoint(cp)
            assert state.stuck == [bytes((1, 2, 0, 1, 2))] and state.open_codewords
            resumed = run(Fraction(5, 14), 4, "plain", checkpoint_path=str(cp),
                          stop_at_stuck=stop)
            assert resumed == straight

    @pytest.mark.parametrize("alpha,weight,mode,stopped_at", [
        (Fraction(5, 14), 6, "plain", None),
        (Fraction(1, 3), 5, "strong", None),
        (Fraction(1, 3), 5, "strong", 4)],
        ids=["plain", "strong", "strong-resumed"])
    def test_canonical_order_grows_each_group_once(self, monkeypatch,
                                                   tmp_path, alpha, weight,
                                                   mode, stopped_at):
        # a memo keeps every record grown into it for the whole run, so the
        # strong companion finds every ancestor's record, and a run resumed
        # from a checkpoint, which grows the records of the ancestors it
        # never split, grows each of them once as well
        straight = run(alpha, weight, mode, stop_at_stuck=True)
        cp = None
        if stopped_at is not None:
            cp = str(tmp_path / "state")
            run(alpha, stopped_at, mode, checkpoint_path=cp,
                stop_at_stuck=True)
        grown, decided, companions = [], [], []
        real_grow, real_decide = engine.grow_children, engine._close_decision
        real_companion = engine.find_companion

        def grow(parent, cap):
            grown.append(parent)
            return real_grow(parent, cap)

        def decide(codeword, *args):
            decided.append(codeword)
            return real_decide(codeword, *args)

        def companion(*args):
            companions.append(args[0])
            return real_companion(*args)

        monkeypatch.setattr(engine, "grow_children", grow)
        monkeypatch.setattr(engine, "_close_decision", decide)
        monkeypatch.setattr(engine, "find_companion", companion)
        out = run(alpha, weight, mode, checkpoint_path=cp, stop_at_stuck=True)
        assert out == straight
        assert [e.word for e in out.entries] == sorted(
            e.word for e in out.entries)
        assert decided == sorted(decided)
        assert max(Counter(grown).values()) == 1
        parents = {c[:-1] for c in decided}
        if cp is None:
            assert sorted(grown) == sorted(parents)
            assert len(decided) == 3 * len(grown)
        else:
            prefixes = {c[:w] for c in decided for w in range(1, len(c))}
            assert parents < set(grown) <= prefixes
        assert bool(companions) == (mode == "strong")


def _farey(n: int) -> list[Fraction]:
    """The fractions of the Farey sequence of order n from 1/7 up to 1,
    ascending."""
    return sorted({Fraction(a, b) for b in range(2, n + 1)
                   for a in range(1, b) if Fraction(a, b) >= Fraction(1, 7)})


class TestCarry:
    @pytest.mark.parametrize("mode,top,order", [("plain", 6, 14),
                                                ("strong", 5, 14)])
    def test_carried_searches_match_searches_from_the_roots(self, mode, top,
                                                            order):
        # up a Farey ladder at each level, each rung carries the certificate
        # of the last rung that closed, and a level's first rung the
        # certificate of the level below it at the same ratio; stopped or
        # not, the outcome is the one from the six roots
        below = None
        carried = 0
        for level in range(1, top + 1):
            last = below
            for i, alpha in enumerate(_farey(order)):
                wide = run(alpha, level, mode)
                for stop in (False, True):
                    roots = wide if not stop else run(alpha, level, mode,
                                                      stop_at_stuck=True)
                    if last is not None:
                        out = run(alpha, level, mode, stop_at_stuck=stop,
                                  carry=last)
                        assert out == roots, (level, alpha, stop)
                        carried += 1
                if isinstance(wide, Certificate):
                    last = wide
                    if i == 0:
                        below = wide
        assert carried > 50 * top

    def test_carry_decides_only_entries_below_the_new_ratio(self,
                                                            monkeypatch):
        carry = run(Fraction(2, 7), 5, "strong")
        alpha = Fraction(1, 3)
        roots = run(alpha, 5, "strong")
        assert isinstance(roots, Certificate)
        low = {e.word for e in carry.entries
               if any(Fraction(p.count("1"), len(p)) < alpha
                      for p in e.paths)}
        assert 0 < len(low) < carry.size
        decided = []
        real = engine._close_decision

        def decide(codeword, *args):
            decided.append(codeword)
            return real(codeword, *args)

        monkeypatch.setattr(engine, "_close_decision", decide)
        out = run(alpha, 5, "strong", carry=carry)
        assert out == roots
        # each decided codeword is a low entry or a descendant of one
        assert {c for c in decided if c in low} == low
        assert all(any(c[:len(w)] == w for w in low) for c in decided)
        # the entries it keeps are the carried objects themselves
        kept = {id(e) for e in carry.entries} & {id(e) for e in out.entries}
        assert len(kept) == carry.size - len(low)

    def test_carry_is_written_to_the_checkpoint(self, tmp_path,
                                                run_interrupted):
        # segment 0 lists the kept entries closed and the codewords to
        # decide again open, so a carried run stopped there resumes
        # without the carry to the straight run's certificate
        carry = run(Fraction(1, 3), 5, "plain")
        straight = run(Fraction(5, 14), 5, "plain")
        assert isinstance(straight, Certificate)
        cp = tmp_path / "state"
        run_interrupted(1, Fraction(5, 14), 5, "plain",
                        checkpoint_path=str(cp), carry=carry)
        state = load_checkpoint(cp)
        kept = [e for e in carry.entries if e.paths[0].count("1") * 14
                >= 5 * len(e.paths[0])]
        assert state.closed == kept and state.stuck == []
        assert sorted([*state.open_codewords, *(e.word for e in kept)]
                      ) == [e.word for e in carry.entries]
        resumed = run(Fraction(5, 14), 5, "plain", checkpoint_path=str(cp))
        assert resumed == straight

    @pytest.mark.parametrize("carry,alpha,weight,mode,message", [
        ((Fraction(1, 3), 4, "plain"), Fraction(1, 3), 4, "strong",
         "plain certificate into a strong search"),
        ((Fraction(1, 3), 5, "strong"), Fraction(1, 3), 5, "plain",
         "strong certificate into a plain search"),
        ((Fraction(1, 3), 4, "plain"), Fraction(2, 7), 4, "plain",
         "alpha=1/3 into a search at alpha=2/7"),
        ((Fraction(1, 3), 4, "plain"), Fraction(1, 3), 3, "plain",
         "weight 4 into a search to max_weight 3"),
    ])
    def test_refuses_a_carry_it_cannot_extend(self, monkeypatch, carry, alpha,
                                              weight, mode, message):
        cert = run(*carry)
        monkeypatch.setattr(engine, "_close_decision", None)
        with pytest.raises(ValueError, match=message):
            run(alpha, weight, mode, carry=cert)


_CODEWORD = st.tuples(st.sampled_from((1, 2)),
                      st.lists(st.sampled_from((0, 1, 2)), min_size=1,
                               max_size=7)).map(lambda t: bytes((t[0], *t[1])))
_RATIO = st.builds(lambda b, a: Fraction(a % (b - 1) + 1, b),
                   st.integers(2, 16), st.integers(0, 15))
_RATIOS = st.lists(_RATIO, min_size=2, max_size=2, unique=True).map(sorted)


def _decision(c, alpha, mode):
    caps = [depth_cap(level, alpha) for level in range(len(c))]
    return engine._close_decision(c, {}, caps, mode)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(_CODEWORD, _RATIOS, st.sampled_from(("plain", "strong")))
# strong above 1/2: a pair of leaves, and a leaf with its companion, kept
@example(bytes((2, 0, 2, 0)), [Fraction(1, 3), Fraction(4, 7)], "strong")
@example(bytes((2, 0, 2, 1)), [Fraction(5, 9), Fraction(3, 5)], "strong")
@example(bytes((2, 2, 1)), [Fraction(1, 3), Fraction(3, 5)], "strong")
def test_decisions_are_monotone_in_alpha(c, ratios, mode):
    # with t < u: a codeword that closes at u closes at t, and one that
    # closes at t with paths all of ratio u or more closes with the same
    # paths at u
    t, u = ratios
    low, high = _decision(c, t, mode), _decision(c, u, mode)
    if high is not None:
        assert low is not None
    if low is not None and all(p.count("1") * u.denominator
                               >= u.numerator * len(p) for p in low):
        assert high == low


class TestStats:
    def test_reference_counts(self, reference_plain):
        assert stats(reference_plain) == [(1, 12), (2, 7), (3, 5), (4, 3)]

    def test_counts_never_increase(self, reference_strong):
        rows = stats(reference_strong)
        counts = [n for _, n in rows]
        assert counts == sorted(counts, reverse=True)

    def test_csv_format(self, reference_plain):
        csv = format_stats_csv(stats(reference_plain))
        assert csv == "level,count\n1,12\n2,7\n3,5\n4,3\n"


class TestEdgeModes:
    def test_strong_above_half_runs_unpruned(self):
        # companion soundness needs unpruned growth there; the search must
        # still terminate with an honest report
        out = run(Fraction(3, 5), 2, "strong")
        assert isinstance(out, Unclosed)


class TestInvariants:
    def test_every_outcome_is_exhaustive(self):
        # run() asserts the Kraft identity once, at the end of the
        # search; a completed certificate must also sum to exactly 1
        for alpha, weight in [(Fraction(1, 4), 1), (Fraction(2, 7), 2),
                              (Fraction(1, 3), 4)]:
            out = run(alpha, weight, "plain")
            assert isinstance(out, Certificate)
            assert kraft_mismatch(e.word for e in out.entries) is None

    @pytest.mark.parametrize("keep,total", [(slice(1, None), "8/9"),
                                            (slice(0), "1/3")])
    def test_a_carry_with_a_hole_breaks_the_kraft_assertion(self, keep,
                                                            total):
        # a carried certificate is kept unreplayed, so a code that is not
        # exhaustive reaches the assertion at the end of the search; every
        # entry of plain 1/3 has a path of ratio 1/3 or more, and dropping
        # the first, of level 1, leaves 8/9; with none left it is 1/3
        carry = run(Fraction(1, 3), 4, "plain")
        holed = Certificate(carry.alpha, carry.mode, carry.entries[keep])
        with pytest.raises(AssertionError,
                           match=f"^Kraft invariant broken: sum = {total}$"):
            run(Fraction(1, 3), 4, "plain", carry=holed)

    def test_splits_are_one_digit_extensions(self, tmp_path):
        # at every write, each open codeword is a root after the last
        # decision or a later one-digit extension of a codeword split on
        # the way to it, and with the decided ones they form an exhaustive
        # prefix code
        _, segments = _segments(tmp_path, Fraction(5, 14), 6, "plain")
        for k in range(2, len(segments)):
            state = parse_checkpoint("".join(segments[:k]))
            last = state.closed[-1].word
            assert state.open_codewords
            for c in state.open_codewords:
                if c not in engine.INITIAL_CODEWORDS:
                    split = c[:-1]
                    assert split == last[:len(split)] and c > last, c
                assert c > last
            engine._check_resumable(state, "state")

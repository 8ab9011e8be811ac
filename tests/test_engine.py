import hashlib
from fractions import Fraction

import pytest

from collatzcert import engine
from collatzcert.certify import Certificate, Unclosed, verify
from collatzcert.engine import (
    CheckpointState,
    format_stats_csv,
    load_checkpoint,
    parse_checkpoint,
    run,
    save_checkpoint,
    stats,
)
from collatzcert.tree import GrowthRecord, best_ratio


class TestUnclosed:
    def test_report_lists_the_stuck_codeword(self):
        out = run(Fraction(1, 3), 3, "plain")
        assert isinstance(out, Unclosed)
        assert out.open_codewords == [(1, 2, 2, 2)]
        assert best_ratio((1, 2, 2, 2), 9) == Fraction(2, 7)


def _segments(tmp_path, alpha, weight, mode):
    """The straight run's outcome and its checkpoint, cut into the text
    each write added: segment 0 first, then one segment per pass."""
    cp = tmp_path / "straight"
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
        # interrupted after segment 0, after each pass, and after the last
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
        # a pass torn mid-append: half a closed line with no newline,
        # complete lines with no end marker, an end marker with no newline
        straight, segments = _segments(tmp_path, alpha, weight, mode)
        cp = tmp_path / "state"
        for k in range(1, len(segments)):
            kept = "".join(segments[:k])
            lines = segments[k].splitlines(keepends=True)
            assert lines[0].startswith("closed ") and len(lines) > 1
            for tail in (lines[0][:len(lines[0]) // 2],
                         "".join(lines[:-1]),
                         "".join(lines)[:-1]):
                assert kept + tail != "".join(segments[:k + 1])
                cp.write_text(kept + tail)
                state = load_checkpoint(cp)
                assert state == parse_checkpoint(kept)
                resumed = run(alpha, weight, mode, checkpoint_path=str(cp))
                assert resumed.to_text() == straight.to_text(), (k, tail)

    def test_checkpoint_is_at_most_twice_the_certificate(self, tmp_path):
        for alpha, weight, mode in [*RESUMED_SEARCHES,
                                    (Fraction(1, 3), 4, "plain")]:
            cp = tmp_path / f"{mode}-{weight}"
            cert = run(alpha, weight, mode, checkpoint_path=str(cp))
            assert isinstance(cert, Certificate)
            assert cp.stat().st_size <= 2 * len(cert.to_text().encode())

    def test_round_trip_is_byte_identical(self, tmp_path, run_interrupted):
        # a state loaded, saved fresh as segment 0 and loaded again is the
        # same state, and saving it again writes the same bytes
        cp, fresh = tmp_path / "state", tmp_path / "fresh"
        for k, weight in [(3, 4), (4, 3)]:
            cp.unlink(missing_ok=True)
            run_interrupted(k, Fraction(1, 3), weight, "plain",
                            checkpoint_path=str(cp))
            state = load_checkpoint(cp)
            save_checkpoint(state, fresh)
            text = fresh.read_text()
            assert load_checkpoint(fresh) == state
            save_checkpoint(load_checkpoint(fresh), fresh)
            assert fresh.read_text() == text
        # the second state is a finished search that left 2221 stuck
        assert (state.open_codewords, state.stuck) == ([], [(1, 2, 2, 2)])

    def test_mismatched_resume_is_refused(self, tmp_path, run_interrupted):
        cp = tmp_path / "state"
        run_interrupted(2, Fraction(1, 3), 4, "plain", checkpoint_path=str(cp))
        with pytest.raises(ValueError, match="refusing"):
            run(Fraction(1, 4), 4, "plain", checkpoint_path=str(cp))
        with pytest.raises(ValueError, match="refusing"):
            run(Fraction(1, 3), 4, "strong", checkpoint_path=str(cp))

    def test_each_pass_writes_one_checkpoint(self, tmp_path):
        # segment 0 holds the six roots, then each pass appends only what
        # it decided, so every closed entry is written once
        cert, segments = _segments(tmp_path, Fraction(1, 3), 5, "strong")
        assert segments[0].startswith("checkpoint v2 mode=strong alpha=1/3\n")
        assert [s.splitlines()[-1] for s in segments] == [
            f"end {k}" for k in range(len(segments))]
        assert sorted(line for s in segments for line in s.splitlines()
                      if line.startswith("closed ")) == sorted(
            f"closed {e.to_line()}" for e in cert.entries)
        assert [hashlib.sha256(s.encode()).hexdigest() for s in segments] == [
            "08f133086831d06d708e26ec578b35e517f56a9268e1ddcf1b6178bcdcf144a3",
            "01d16049b3f09408ed2de0153f2de176a4bbfd97ebb0377932d980b73bf8941a",
            "78d44c959855dc57f6acf2594bfb088e73d3f9817adc6b3d52225b3a0e3cf5c7",
            "2d1cd2aa94f949b71b108a5415878e4c6bdc73e0561d84e7b9aa43f45a766a44",
            "e6074f5103667d46a23f5f523cf6daabdd65813da3d6186490f63b7d1f02dbf5",
            "a57c6eecc0482d21876c30dac996587bc3b16455f6278f2ef0eedd01cc5ca5aa",
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

    def test_v1_checkpoint_with_closed_entries_resumes(self, tmp_path,
                                                       reference_plain):
        # the state after the first pass, as the v1 format wrote it
        cp = tmp_path / "state"
        cp.write_text("checkpoint v1 mode=plain alpha=1/3\n"
                      "open 021\nopen 121\nopen 221\n" + "".join(
                          f"closed {e.to_line()}\n" for e in reference_plain.entries
                          if e.level == 1))
        resumed = run(Fraction(1, 3), 4, "plain", checkpoint_path=str(cp))
        assert resumed.to_text() == reference_plain.to_text()
        assert cp.read_text().startswith("checkpoint v2 ")

    def test_split_past_the_codeword_limit_is_refused(self):
        # the derived frontier obeys the limit an open line does
        longest = "1" * engine.MAX_CODEWORD_LEN
        text = f"checkpoint v2 mode=plain alpha=1/3\nopen {longest}\nend 0\n"
        assert parse_checkpoint(text).open_codewords == [
            (1,) * engine.MAX_CODEWORD_LEN]
        with pytest.raises(ValueError, match="line 4: pass 1 splits .* into "
                           "codewords longer than 80 digits"):
            parse_checkpoint(text + "end 1\n")

    def test_mixed_level_checkpoint_resumes(self, tmp_path, reference_plain):
        # five level-1 codewords next to the three children of 21, the one
        # the straight run splits: each open codeword is tested at its own
        # level's depth cap
        cp = tmp_path / "state"
        cp.write_text("checkpoint v1 mode=plain alpha=1/3\n" + "".join(
            f"open {w}\n"
            for w in ("01", "02", "11", "12", "22", "021", "121", "221")))
        resumed = run(Fraction(1, 3), 4, "plain", checkpoint_path=str(cp))
        assert resumed.to_text() == reference_plain.to_text()

    def test_shallow_codeword_keeps_its_own_depth_cap(self, tmp_path,
                                                      reference_plain):
        # 21 beside deeper codewords: at level 2's cap it would close with
        # ones-ratio 1/4; at its own cap it splits as in the straight run
        cp = tmp_path / "state"
        cp.write_text("checkpoint v1 mode=plain alpha=1/3\n" + "".join(
            f"open {w}\n"
            for w in ("02", "11", "12", "21", "22", "001", "101", "201")))
        resumed = run(Fraction(1, 3), 4, "plain", checkpoint_path=str(cp))
        assert verify(resumed) == []
        expected = {e.codeword: e for e in reference_plain.entries
                    if e.codeword != (1, 0)}
        assert {e.codeword: e for e in resumed.entries
                if e.codeword[:2] != (1, 0)} == expected

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
        assert sorted(grown) == sorted({c[:-1] for c in decided})
        assert grown[:2] == [(1,), (2,)]
        assert len(decided) == 3 * len(grown)

    def test_run_killed_mid_pass_resumes_byte_identical(self, tmp_path,
                                                        monkeypatch):
        # killed between two sibling groups of the third pass, the run
        # resumes from the second pass's segment
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


class TestGrowthCache:
    def test_shared_cache_changes_no_byte(self, monkeypatch):
        # one cache through plain and strong runs: a group keeps two leaves
        # in either mode, so the strong run regrows only the groups that
        # hold fewer than two below a cap it goes past, and a repeated run
        # grows nothing
        grown = []
        real_grow = engine.grow_children

        def grow(*args):
            grown.append(args[0])
            return real_grow(*args)

        cache = {}
        calls = []
        for alpha, weight, mode in [
                (Fraction(1, 3), 4, "plain"), (Fraction(5, 14), 6, "plain"),
                (Fraction(1, 3), 5, "strong"), (Fraction(5, 14), 6, "plain"),
                (Fraction(1, 3), 5, "strong")]:
            cold = run(alpha, weight, mode).to_text()
            grown.clear()
            with monkeypatch.context() as mp:
                mp.setattr(engine, "grow_children", grow)
                assert run(alpha, weight, mode, cache=cache).to_text() == cold
            calls.append(len(grown))
        assert calls == [5, 11, 12, 0, 0]
        assert set(cache) >= {(1,), (2,)}
        # one record per parent, holding the key lists of its three children
        for record in cache.values():
            assert type(record) is GrowthRecord
            assert len(record.witnesses) == 3
            assert all(type(keys) is list for keys in record.witnesses)


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
        wide = run(alpha, weight, mode).to_text()
        checks = []
        real = engine._KraftLedger.assert_exhaustive

        def check(ledger):
            checks.append(ledger)
            real(ledger)

        monkeypatch.setattr(engine._KraftLedger, "assert_exhaustive", check)
        assert run(alpha, weight, mode, stop_at_stuck=True).to_text() == wide
        assert len(checks) == 1

    def test_checkpoint_is_refused(self, tmp_path, monkeypatch):
        def grow(*args):
            raise AssertionError("grow_children called")

        monkeypatch.setattr(engine, "grow_children", grow)
        cp = tmp_path / "state"
        with pytest.raises(ValueError, match="takes no checkpoint"):
            run(Fraction(1, 3), 4, "plain", checkpoint_path=str(cp),
                stop_at_stuck=True)
        assert not cp.exists()

    def test_canonical_order_grows_each_group_once(self, monkeypatch):
        # without a cache a group's record is kept until its last child is
        # decided, across the branches below its first children
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
        out = run(Fraction(5, 14), 6, "plain", stop_at_stuck=True)
        assert [e.codeword for e in out.entries] == sorted(
            e.codeword for e in out.entries)
        assert decided == sorted(decided)
        assert sorted(grown) == sorted({c[:-1] for c in decided})
        assert len(decided) == 3 * len(grown)


class TestStats:
    def test_reference_counts(self, reference_plain):
        assert stats(reference_plain) == [(1, 12), (2, 7), (3, 5), (4, 3)]

    def test_initial_state_counts(self):
        state = CheckpointState(
            alpha=Fraction(1, 3),
            mode="plain",
            open_codewords=list(engine.INITIAL_CODEWORDS),
            closed=[],
        )
        assert stats(state) == [(1, 6)]

    def test_counts_never_increase(self, reference_strong):
        rows = stats(reference_strong)
        counts = [n for _, n in rows]
        assert counts == sorted(counts, reverse=True)

    def test_csv_format(self, reference_plain):
        csv = format_stats_csv(stats(reference_plain))
        assert csv == "level,count\n1,12\n2,7\n3,5\n4,3\n"

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            stats([1, 2, 3])


class TestEdgeModes:
    def test_strong_above_half_runs_unpruned(self):
        # companion soundness needs unpruned growth there; the search must
        # still terminate with an honest report
        out = run(Fraction(3, 5), 2, "strong")
        assert isinstance(out, Unclosed)


class TestInvariants:
    def test_every_outcome_is_exhaustive(self):
        # the Kraft identity is asserted after every merge inside run();
        # a completed certificate must also sum to exactly 1
        for alpha, weight in [(Fraction(1, 4), 1), (Fraction(2, 7), 2),
                              (Fraction(1, 3), 4)]:
            out = run(alpha, weight, "plain")
            assert isinstance(out, Certificate)
            assert out.kraft_sum() == 1

    def test_splits_are_one_digit_extensions(self, tmp_path, run_interrupted):
        cp = tmp_path / "state"
        run_interrupted(2, Fraction(1, 3), 4, "plain", checkpoint_path=str(cp))
        state = load_checkpoint(cp)
        assert {len(c) for c in state.open_codewords} == {3}

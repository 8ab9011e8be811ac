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
from collatzcert.tree import best_ratio


class TestUnclosed:
    def test_report_lists_the_stuck_codeword(self):
        out = run(Fraction(1, 3), 3, "plain")
        assert isinstance(out, Unclosed)
        assert out.open_codewords == [(1, 2, 2, 2)]
        assert best_ratio((1, 2, 2, 2), 9) == Fraction(2, 7)


class TestCheckpoints:
    def test_interrupt_and_resume_match_the_straight_run(self, tmp_path,
                                                         run_interrupted):
        cp = tmp_path / "state"
        straight = run(Fraction(1, 3), 4, "plain")
        run_interrupted(2, Fraction(1, 3), 4, "plain", checkpoint_path=str(cp))
        assert cp.exists()
        resumed = run(Fraction(1, 3), 4, "plain", checkpoint_path=str(cp))
        assert resumed.to_text() == straight.to_text()

    def test_round_trip_is_byte_identical(self, tmp_path, run_interrupted):
        cp = tmp_path / "state"
        run_interrupted(3, Fraction(1, 3), 4, "plain", checkpoint_path=str(cp))
        text = cp.read_text()
        assert parse_checkpoint(text).to_text() == text
        state = load_checkpoint(cp)
        save_checkpoint(state, cp)
        assert cp.read_text() == text

    def test_mismatched_resume_is_refused(self, tmp_path, run_interrupted):
        cp = tmp_path / "state"
        run_interrupted(2, Fraction(1, 3), 4, "plain", checkpoint_path=str(cp))
        with pytest.raises(ValueError, match="refusing"):
            run(Fraction(1, 4), 4, "plain", checkpoint_path=str(cp))
        with pytest.raises(ValueError, match="refusing"):
            run(Fraction(1, 3), 4, "strong", checkpoint_path=str(cp))

    def test_each_pass_writes_one_checkpoint(self, tmp_path, monkeypatch):
        # one text per pass over the frontier, the closed code written once
        texts = []
        real = engine.save_checkpoint

        def save(state, path):
            texts.append(state.to_text())
            real(state, path)

        monkeypatch.setattr(engine, "save_checkpoint", save)
        run(Fraction(1, 3), 5, "strong", checkpoint_path=str(tmp_path / "s"))
        assert [hashlib.sha256(t.encode()).hexdigest() for t in texts] == [
            "9f00af629f3023d2efe17ee36280d3054726a5ad7bd3ace4fcfcb7ad9758c1fb",
            "6a3c2902c46f0c6d5098d45ff0cc7970117104416119063b05d2cf76b53ef51e",
            "9652997994a4ae5a7d285a935f12b038a4af3527aadce1afdc2d76b92fa76e39",
            "a7f60a771ecd17d0b12c7219e88bb61e0ee7aae37584bf184c7a301954b47580",
            "c43370b5d772532554f982f50dac72eb98dd5712f00e71a1678362d76ee605d1",
        ]

    def test_unclosed_checkpoint_resumes_at_a_larger_weight(
            self, tmp_path, reference_plain):
        cp = tmp_path / "state"
        assert isinstance(
            run(Fraction(1, 3), 3, "plain", checkpoint_path=str(cp)), Unclosed)
        # the stuck codeword is kept as open, so a larger budget splits it
        assert "open 2221\n" in cp.read_text()
        resumed = run(Fraction(1, 3), 4, "plain", checkpoint_path=str(cp))
        assert resumed.to_text() == reference_plain.to_text()

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
        assert counters[1] == {"opened": 6, "closed": 5, "split": 1}
        assert counters[2] == {"opened": 3, "closed": 2, "split": 1}
        assert counters[3] == {"opened": 3, "closed": 2, "split": 1}
        assert counters[4] == {"opened": 3, "closed": 3, "split": 0}


class _Killed(Exception):
    pass


class TestSiblingGrowth:
    def test_one_walk_per_parent(self, monkeypatch):
        # each decided codeword's record comes from one walk of its
        # parent's tree; the roots' parents are the level-0 words 1 and 2
        grown, decided = [], []
        real_grow, real_decide = engine.grow_children, engine._close_decision

        def grow(parent, cap, want):
            grown.append(parent)
            return real_grow(parent, cap, want)

        def decide(record, *args):
            decided.append(record.codeword)
            return real_decide(record, *args)

        monkeypatch.setattr(engine, "grow_children", grow)
        monkeypatch.setattr(engine, "_close_decision", decide)
        assert isinstance(run(Fraction(5, 14), 6, "plain"), Certificate)
        assert sorted(grown) == sorted({c[:-1] for c in decided})
        assert grown[:2] == [(1,), (2,)]
        assert len(decided) == 3 * len(grown)

    def test_run_killed_mid_pass_resumes_byte_identical(self, tmp_path,
                                                        monkeypatch):
        # killed between two sibling groups of the third pass, the run
        # resumes from the second pass's checkpoint
        straight = run(Fraction(5, 14), 6, "plain")
        cp = tmp_path / "state"
        real_grow, real_save = engine.grow_children, engine.save_checkpoint
        grows_after = []

        def save(state, path):
            real_save(state, path)
            grows_after.append(0)

        def grow(*args):
            if len(grows_after) == 2 and grows_after[-1] == 2:
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
        run_interrupted(1, Fraction(1, 3), 4, "plain", checkpoint_path=str(cp))
        state = load_checkpoint(cp)
        lengths = {len(c) for c in state.open_codewords}
        assert lengths <= {2, 3}

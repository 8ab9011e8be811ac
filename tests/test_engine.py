from fractions import Fraction

import pytest

from collatzcert import engine
from collatzcert.certify import Certificate, Unclosed
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
    def test_interrupt_and_resume_match_the_straight_run(self, tmp_path):
        cp = tmp_path / "state"
        straight = run(Fraction(1, 3), 4, "plain")
        partial = run(Fraction(1, 3), 4, "plain", checkpoint_path=str(cp),
                      max_rounds=2)
        assert partial is None
        assert cp.exists()
        resumed = run(Fraction(1, 3), 4, "plain", checkpoint_path=str(cp))
        assert resumed.to_text() == straight.to_text()

    def test_round_trip_is_byte_identical(self, tmp_path):
        cp = tmp_path / "state"
        run(Fraction(1, 3), 4, "plain", checkpoint_path=str(cp), max_rounds=3)
        text = cp.read_text()
        assert parse_checkpoint(text).to_text() == text
        state = load_checkpoint(cp)
        save_checkpoint(state, cp)
        assert cp.read_text() == text

    def test_mismatched_resume_is_refused(self, tmp_path):
        cp = tmp_path / "state"
        run(Fraction(1, 3), 4, "plain", checkpoint_path=str(cp), max_rounds=2)
        with pytest.raises(ValueError, match="refusing"):
            run(Fraction(1, 4), 4, "plain", checkpoint_path=str(cp))
        with pytest.raises(ValueError, match="refusing"):
            run(Fraction(1, 3), 4, "strong", checkpoint_path=str(cp))

    def test_counters_derive_from_records(self, tmp_path):
        cp = tmp_path / "state"
        run(Fraction(1, 3), 4, "plain", checkpoint_path=str(cp))
        state = load_checkpoint(cp)
        counters = state.counters()
        assert counters[1] == {"opened": 6, "closed": 5, "split": 1}
        assert counters[2] == {"opened": 3, "closed": 2, "split": 1}
        assert counters[3] == {"opened": 3, "closed": 2, "split": 1}
        assert counters[4] == {"opened": 3, "closed": 3, "split": 0}


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

    def test_splits_are_one_digit_extensions(self, tmp_path):
        cp = tmp_path / "state"
        run(Fraction(1, 3), 4, "plain", checkpoint_path=str(cp), max_rounds=1)
        state = load_checkpoint(cp)
        lengths = {len(c) for c in state.open_codewords}
        assert lengths <= {2, 3}

import math
import random
from fractions import Fraction

import pytest

from collatzcert.numth import (
    MAX_CODEWORD_LEN,
    check_codeword,
    codeword_display,
    codeword_from_display,
    codeword_of_int,
    codeword_value,
    inverse_t,
    stopping_profile,
    t_map,
    trajectory,
)


class TestTMap:
    def test_odd_step(self):
        assert t_map(3) == 5

    def test_even_step(self):
        assert t_map(2) == 1

    @pytest.mark.parametrize("k", range(1, 11))
    def test_powers_of_two_halve(self, k):
        assert t_map(2**k) == 2 ** (k - 1)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            t_map(0)


class TestTrajectory:
    def test_three(self):
        r = trajectory(3)
        assert r.steps == 5
        assert r.parity == "11000"
        assert r.ones_ratio == Fraction(2, 5)
        assert abs(r.log_ratio - 4.5512) < 1e-4

    def test_power_of_two(self):
        r = trajectory(2**10)
        assert r.steps == 10
        assert r.parity == "0" * 10
        assert abs(r.log_ratio - 1 / math.log(2)) < 1e-12

    def test_forty_one(self):
        # forward-iteration oracle values; the odd fraction clears 55/100
        r = trajectory(41)
        assert r.steps == 69
        assert r.ones_ratio == Fraction(40, 69)
        assert r.ones_ratio > Fraction(55, 100)
        assert abs(r.log_ratio - 69 / math.log(41)) < 1e-12

    def test_one_takes_zero_steps(self):
        r = trajectory(1)
        assert r.steps == 0
        assert r.parity == ""
        assert r.ones_ratio is None
        assert r.log_ratio is None

    def test_cap_exhaustion_is_flagged_not_raised(self):
        r = trajectory(27, cap=5)
        assert r.steps is None
        assert r.ones_ratio is None
        assert r.log_ratio is None
        assert not r.converged

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            trajectory(0)
        with pytest.raises(ValueError):
            trajectory(5, cap=0)


class TestInverse:
    def test_class_two_has_two_preimages(self):
        assert inverse_t(2) == {4, 1}

    def test_class_one_has_one_preimage(self):
        assert inverse_t(4) == {8}

    def test_eight(self):
        assert inverse_t(8) == {16, 5}

    def test_round_trip(self):
        for n in range(1, 2000):
            for m in inverse_t(n):
                assert t_map(m) == n


class TestCodewords:
    def test_residue_and_display(self):
        assert codeword_value(bytes((1, 2))) == 7
        assert codeword_display(bytes((1, 2))) == "21"
        assert codeword_value(bytes((2, 1))) == 5
        assert codeword_display(bytes((2, 1))) == "12"
        assert codeword_value(bytes((1, 2, 2, 2, 0))) == 79
        assert codeword_display(bytes((1, 2, 2, 2, 0))) == "02221"

    def test_display_round_trip(self):
        for disp in ("12", "01", "02221", "102221"):
            assert codeword_display(codeword_from_display(disp)) == disp

    def test_of_int_matches_value(self):
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randrange(1, 3**12)
            c = codeword_of_int(n, 12)
            assert codeword_value(c) == n

    def test_rejects_bad_digits(self):
        with pytest.raises(ValueError):
            check_codeword((1, 3))
        with pytest.raises(ValueError):
            check_codeword((0, 1))          # low digit 0 only as the lone (0,)
        with pytest.raises(ValueError):
            check_codeword(())

    def test_reserved_word_allowed(self):
        assert check_codeword((0,)) == bytes((0,))

    def test_length_cap_enforced(self):
        with pytest.raises(ValueError):
            check_codeword((1,) * (MAX_CODEWORD_LEN + 1))


@pytest.mark.parametrize("call,message", [
    (lambda: inverse_t(0), "inverse_t requires n >= 1"),
    (lambda: codeword_of_int(-1, 3), "negative value has no codeword"),
], ids=["inverse_t", "codeword_of_int"])
def test_refuses_arguments_out_of_range(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


class TestFamilies:
    @pytest.mark.parametrize("k", range(1, 31))
    def test_all_ones_reaches_power_of_three(self, k):
        n = 2**k - 1
        for _ in range(k):
            n = t_map(n)
        assert n == 3**k - 1

    def test_stopping_profile_matches_trajectory(self):
        steps, ones = stopping_profile(500)
        for n in range(2, 501):
            r = trajectory(n)
            assert steps[n] == r.steps
            assert ones[n] == r.parity.count("1")

    def test_stopping_profile_marks_cap_overruns(self):
        # 7 is still above itself after 5 steps, 6 drops to 3 and overruns
        # with 3's 5 steps, and 9 drops to 7, which overran: each is marked
        # in both lists, whichever walk overran
        steps, ones = stopping_profile(10, cap=5)
        assert [n for n in range(2, 11) if steps[n] == -1] == [6, 7, 9]
        assert [ones[6], ones[7], ones[9]] == [-1, -1, -1]
        assert all(steps[n] == trajectory(n).steps
                   for n in (2, 3, 4, 5, 8, 10))

    def test_log_bound_small_slice(self):
        # ratio-to-stopping-time bound, checked exactly on a small range
        ln2, ln3 = math.log(2), math.log(3)
        steps, ones = stopping_profile(2000)
        for n in range(2, 2001):
            rho = ones[n] / steps[n]
            if rho >= ln2 / ln3:
                continue
            gamma = steps[n] / math.log(n)
            assert gamma >= 1 / (ln2 - rho * ln3) - 1e-9

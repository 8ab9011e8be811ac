"""The certificate-text primitives against their earlier per-digit
implementations, kept here as the reference: codeword validation, value,
display and parsing, the Kraft check and the labels of entry violations
must give the same results and the same error messages.  The reference
holds a codeword as a tuple of digits, and the package as the bytes of
those digits."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collatzcert.certify import (
    PLAIN,
    STRONG,
    CertificateEntry,
    Violation,
    code_violations,
    entry_violations,
    replay_path,
)
from collatzcert.numth import (
    MAX_CODEWORD_LEN,
    POW3,
    check_codeword,
    codeword_display,
    codeword_from_display,
    codeword_value,
)

# -- the reference implementations ---------------------------------------


def old_check_codeword(digits):
    c = tuple(digits)
    if not c:
        raise ValueError("empty codeword")
    if len(c) > MAX_CODEWORD_LEN:
        raise ValueError(f"codeword longer than {MAX_CODEWORD_LEN} digits")
    if any(d not in (0, 1, 2) for d in c):
        raise ValueError(f"codeword digits must be 0, 1 or 2: {c}")
    if c[0] == 0 and c != (0,):
        raise ValueError("low digit 0 is reserved for the exhaustiveness word (0)")
    return c


def old_codeword_value(c):
    return sum(d * POW3[j] for j, d in enumerate(c))


def old_codeword_display(c):
    c = old_check_codeword(c)
    return "".join(str(d) for d in reversed(c))


def old_codeword_from_display(s):
    if not s or any(ch not in "012" for ch in s):
        raise ValueError(f"bad ternary display string {s!r}")
    return old_check_codeword(tuple(int(ch) for ch in reversed(s)))


def old_code_violations(codewords):
    out = []
    seen = set()
    for c in codewords:
        if c in seen:
            out.append(Violation(old_codeword_display(c), None, None,
                                 "duplicate codeword"))
        seen.add(c)
    words = sorted(seen)
    for a, b in zip(words, words[1:]):
        if b[: len(a)] == a:
            out.append(Violation(
                old_codeword_display(a), None, None,
                f"prefix of fellow codeword {old_codeword_display(b)}"))
    total = Fraction(1, 3) + sum(Fraction(1, POW3[len(c)]) for c in codewords)
    if total != 1:
        out.append(Violation(
            None, None, None,
            f"Kraft sum {total - Fraction(1, 3)} + 1/3 = {total} != 1 (code not exhaustive)"))
    return out


def old_entry_violations(entry, alpha, mode):
    codeword = tuple(entry.word)
    out = []
    disp = old_codeword_display(codeword)
    want_paths = 2 if mode == STRONG else 1
    if len(entry.paths) != want_paths:
        out.append(Violation(disp, None, None,
                             f"{mode} entry carries {len(entry.paths)} paths, needs {want_paths}"))
    level = len(codeword) - 1
    for i, p in enumerate(entry.paths):
        if not p:
            out.append(Violation(disp, i, None, "empty path"))
            continue
        v = replay_path(codeword, p)
        if v is not None:
            out.append(Violation(disp, i, v.position, v.reason))
            continue
        w = p.count("1")
        if w > level:
            out.append(Violation(disp, i, None, f"path weight {w} exceeds level {level}"))
        elif w == level and p[-1] != "1":
            out.append(Violation(disp, i, None, "full-weight path must end with a 1-edge"))
        if w * alpha.denominator < alpha.numerator * len(p):
            out.append(Violation(
                disp, i, None,
                f"ones-ratio {w}/{len(p)} below alpha "
                f"{alpha.numerator}/{alpha.denominator}"))
    if mode == STRONG and len(entry.paths) == 2:
        a, b = entry.paths
        if a.startswith(b) or b.startswith(a):
            out.append(Violation(disp, None, None, "the two paths are prefix-related"))
    return out


def outcome(fn, *args):
    """A call's result, or its exception's type and message."""
    try:
        return fn(*args)
    except Exception as exc:       # the type is part of what is compared
        return type(exc), str(exc)


def old_word(c):
    """The reference's codeword as the bytes the package holds."""
    return bytes(old_check_codeword(c))


def forms(c):
    """A codeword as a tuple and, when its digits fit in bytes, as bytes."""
    c = tuple(c)
    if all(type(d) is int and 0 <= d < 256 for d in c):
        return [c, bytes(c)]
    return [c]


# -- strategies ----------------------------------------------------------

# digits that are ints, or that no version accepts: anything equal to a
# digit but not an int (True, 1.0) is pinned separately below
loose_digits = st.one_of(
    st.integers(-2, 4), st.integers(), st.none(), st.text(max_size=2),
    st.lists(st.integers(0, 2), max_size=2),
)
loose_tuples = st.one_of(
    st.lists(loose_digits, max_size=6).map(tuple),
    st.lists(st.integers(0, 2), max_size=MAX_CODEWORD_LEN + 3).map(tuple),
    st.binary(max_size=6).map(tuple),
)
codewords = st.builds(
    lambda low, rest: (low, *rest),
    st.sampled_from((1, 2)), st.lists(st.integers(0, 2), max_size=8))


@st.composite
def exhaustive_codes(draw):
    """A prefix code whose Kraft sum with the reserved word (0) is 1, grown
    from the words 1 and 2 by random three-way splits."""
    words = [(1,), (2,)]
    for _ in range(draw(st.integers(0, 12))):
        i = draw(st.integers(0, len(words) - 1))
        c = words.pop(i)
        if len(c) < 7:
            words.extend(c + (d,) for d in (0, 1, 2))
        else:
            words.append(c)
    return draw(st.permutations(words))


@st.composite
def damaged_codes(draw):
    """An exhaustive code with words dropped, repeated or split unevenly."""
    words = list(draw(exhaustive_codes()))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(words) - 1))
        action = draw(st.sampled_from(("drop", "repeat", "extend")))
        if action == "drop" and len(words) > 1:
            words.pop(i)
        elif action == "repeat":
            words.insert(draw(st.integers(0, len(words))), words[i])
        else:
            words.append(words[i] + (draw(st.integers(0, 2)),))
    return words


# -- numth ---------------------------------------------------------------


@settings(max_examples=400)
@given(loose_tuples)
@example(())
@example((1, 3))
@example((0, 1))
@example((0,))
@example((1,) * (MAX_CODEWORD_LEN + 1))
@example((1, 7) * MAX_CODEWORD_LEN)
@example((1, [2]))
@example(b"")
@example(b"\x03")
@example(b"\x00\x01")
@example(b"\x01" * (MAX_CODEWORD_LEN + 1))
def test_check_and_display_match_the_reference(c):
    reference = tuple(c)
    for form in forms(c):
        assert outcome(check_codeword, form) == outcome(old_word, reference)
        assert (outcome(codeword_display, form)
                == outcome(old_codeword_display, reference))


@given(st.lists(st.integers(), max_size=len(POW3)).map(tuple))
def test_value_matches_the_reference(c):
    assert codeword_value(c) == old_codeword_value(c)


@settings(max_examples=400)
@given(st.one_of(st.text(max_size=6),
                 st.text(alphabet="012", max_size=MAX_CODEWORD_LEN + 3),
                 st.text(alphabet="0123 x²\n", max_size=6)))
@example("0x")
@example("13")
@example("²")
@example(" 1")
@example("1 ")
@example("")
@example("0")
@example("10")
@example("1" * (MAX_CODEWORD_LEN + 1))
@example("1" * MAX_CODEWORD_LEN + "x")
def test_from_display_matches_the_reference(s):
    got = outcome(codeword_from_display, s)
    reference = outcome(old_codeword_from_display, s)
    if type(got) is bytes:
        assert got == bytes(reference)
        # displayed back from bytes and from the tuple
        assert [codeword_display(form) for form in forms(got)] == [s, s]
    else:
        assert got == reference


@pytest.mark.parametrize("c", [(1, True), (True,), (False,), (2, False),
                               (1.0,), (2, 0.0), (1, 2.0, 1)])
def test_bool_and_float_digits_are_refused(c):
    # the reference accepted them and displayed 'True' or '1.0'
    message = f"codeword digits must be 0, 1 or 2: {c}"
    for fn in (check_codeword, codeword_display):
        with pytest.raises(ValueError) as info:
            fn(c)
        assert str(info.value) == message


# -- certify ---------------------------------------------------------------


@given(exhaustive_codes())
def test_exhaustive_codes_pass(words):
    assert code_violations(list(map(bytes, words))) == old_code_violations(
        words) == []


@settings(max_examples=300)
@given(st.one_of(damaged_codes(), st.lists(codewords, max_size=12)))
def test_code_violations_match_the_reference(words):
    assert code_violations(list(map(bytes, words))) == old_code_violations(words)


def test_non_exhaustive_message():
    words = [(1, 0), (1, 1)]
    assert code_violations(list(map(bytes, words))) == old_code_violations(
        words) == [Violation(
        None, None, None,
        "Kraft sum 2/9 + 1/3 = 5/9 != 1 (code not exhaustive)")]


@settings(max_examples=300)
@given(codewords,
       st.lists(st.text(alphabet="01", max_size=12), min_size=0, max_size=3),
       st.sampled_from((PLAIN, STRONG)),
       st.fractions(min_value=Fraction(1, 20), max_value=Fraction(19, 20),
                    max_denominator=20))
def test_entry_violations_match_the_reference(c, paths, mode, alpha):
    entry = CertificateEntry(codeword=c, paths=tuple(paths))
    got = entry_violations(entry, alpha, mode)
    assert got == old_entry_violations(entry, alpha, mode)
    assert all(v.entry == entry.display for v in got)

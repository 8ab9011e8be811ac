"""Exact integer and residue arithmetic for the 3x+1 map.

Forward iteration (trajectories and their statistics), the multivalued
inverse map, and ternary codewords: validation, display and the residue
class values they name.  Codeword text is made and read by byte
translation and checked by set and string operations, so a line of a
certificate or checkpoint costs a few C-level calls, not a Python step per
digit.
All decisions are made in exact arithmetic; the only float anywhere is the
log-scaled stopping ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

# Codeword lengths (and residue exponents) are capped so residue values stay
# bounded by 3^81; the search never needs more at any reachable scale.
MAX_CODEWORD_LEN = 80

POW3 = [3**i for i in range(MAX_CODEWORD_LEN + 2)]

# Residue classes mod 9 whose pruned inverse has a second (odd) preimage.
BRANCHING_MOD9 = (2, 8)

DEFAULT_TRAJECTORY_CAP = 100_000

# codeword text is translated a byte at a time, digit d <-> character "d"
_DIGITS = frozenset((0, 1, 2))
_INT_TYPE = frozenset((int,))
_DIGIT_TO_CHAR = bytes.maketrans(b"\0\1\2", b"012")
_CHAR_TO_DIGIT = bytes.maketrans(b"012", b"\0\1\2")


def t_map(n: int) -> int:
    """One 3x+1 step: n/2 for even n, (3n+1)/2 for odd n."""
    if n < 1:
        raise ValueError("t_map requires n >= 1")
    return n // 2 if n % 2 == 0 else (3 * n + 1) // 2


@dataclass(frozen=True)
class TrajectoryReport:
    """Forward-iteration record for one starting value.

    ``steps`` is the total stopping time (iterations until the value 1 is
    reached) or None if the iteration budget ran out first.  ``parity`` holds
    one bit per recorded step: the parity of the value *before* each step.
    """

    n: int
    steps: int | None
    parity: str
    ones_ratio: Fraction | None
    log_ratio: float | None

    @property
    def converged(self) -> bool:
        return self.steps is not None


def trajectory(n: int, cap: int = DEFAULT_TRAJECTORY_CAP) -> TrajectoryReport:
    """Iterate t_map from n until 1 is reached or ``cap`` steps elapse.

    Running out of budget is a normal outcome (steps=None), not an error.
    n=1 is accepted with zero steps.
    """
    if n < 1:
        raise ValueError("trajectory requires n >= 1")
    if cap < 1:
        raise ValueError("trajectory requires cap >= 1")
    bits = []
    value = n
    while value != 1 and len(bits) < cap:
        bits.append("1" if value % 2 else "0")
        value = t_map(value)
    parity = "".join(bits)
    if value != 1:
        return TrajectoryReport(n, None, parity, None, None)
    steps = len(bits)
    ratio = Fraction(parity.count("1"), steps) if steps else None
    log_ratio = steps / math.log(n) if n > 1 else None
    return TrajectoryReport(n, steps, parity, ratio, log_ratio)


def stopping_profile(limit: int, cap: int = 10_000) -> tuple[list[int], list[int]]:
    """Total stopping times and odd-step counts for all 1 <= n <= limit.

    Memoizes downward: values below the current n are already solved, so each
    n only walks until its orbit drops under n.  Returns (steps, ones) lists
    indexed by n; steps[n] = ones[n] = -1 marks an n whose stopping time
    passes the cap, found on its own walk or on that of the smaller value
    it drops to.
    """
    steps = [0] * (limit + 1)
    ones = [0] * (limit + 1)
    for n in range(2, limit + 1):
        v = n
        s = 0
        o = 0
        while v >= n:
            if v % 2:
                v = (3 * v + 1) // 2
                o += 1
            else:
                v //= 2
            s += 1
            if s > cap:
                steps[n] = ones[n] = -1
                break
        else:
            total = s + steps[v]
            if steps[v] == -1 or total > cap:
                steps[n] = ones[n] = -1
            else:
                steps[n], ones[n] = total, o + ones[v]
    return steps, ones


def inverse_t(n: int) -> set[int]:
    """All preimages of n under t_map: {2n}, plus (2n-1)/3 when n = 2 mod 3."""
    if n < 1:
        raise ValueError("inverse_t requires n >= 1")
    pre = {2 * n}
    if n % 3 == 2:
        pre.add((2 * n - 1) // 3)
    return pre


def check_codeword(digits) -> tuple[int, ...]:
    """Validate a ternary codeword and return it as a tuple.

    The low digit names the class mod 3 and must be 1 or 2; the single
    reserved word (0,) that completes the prefix code is also accepted.
    Digits must be ints: a bool or a float equal to a digit is refused.
    """
    c = tuple(digits)
    if not c:
        raise ValueError("empty codeword")
    if len(c) > MAX_CODEWORD_LEN:
        raise ValueError(f"codeword longer than {MAX_CODEWORD_LEN} digits")
    # types first: they are always hashable, and they tell True from 1
    if not (_INT_TYPE.issuperset(map(type, c)) and _DIGITS.issuperset(c)):
        raise ValueError(f"codeword digits must be 0, 1 or 2: {c}")
    if c[0] == 0 and c != (0,):
        raise ValueError("low digit 0 is reserved for the exhaustiveness word (0)")
    return c


def codeword_value(c) -> int:
    """The residue class a codeword names, mod 3^len: sum of c_j 3^j."""
    return sum(map(mul, c, POW3))


def codeword_display(c) -> str:
    """Print digits most-significant-first, preserving leading zeros."""
    return word_display(bytes(check_codeword(c)))


def word_display(word: bytes) -> str:
    """The display of a codeword held as bytes, low digit first, whose
    digits are already checked."""
    return word[::-1].translate(_DIGIT_TO_CHAR).decode("ascii")


def word_from_display(s: str) -> bytes:
    """Parse a most-significant-first digit string into a codeword's
    bytes, low digit first, checked as ``check_codeword`` checks."""
    if not s or s.strip("012"):
        raise ValueError(f"bad ternary display string {s!r}")
    word = s[::-1].encode("ascii").translate(_CHAR_TO_DIGIT)
    check_codeword(word)
    return word


def codeword_from_display(s: str) -> tuple[int, ...]:
    """Parse a most-significant-first digit string back into a codeword."""
    return tuple(word_from_display(s))


def codeword_of_int(n: int, length: int) -> tuple[int, ...]:
    """The length-digit ternary expansion of n, low digit first."""
    if n < 0:
        raise ValueError("negative value has no codeword")
    digits = []
    for _ in range(length):
        n, d = divmod(n, 3)
        digits.append(d)
    return tuple(digits)

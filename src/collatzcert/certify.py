"""Ones-ratio lower bound certificates: data model, search, verification,
maximal-ratio sweep, and constructive witness chains.

A certificate is an exhaustive prefix-free set of ternary codewords, each
carrying one (plain) or two (strong) edge-label paths that replay in the
pruned tree of the named residue class with ones-ratio at least alpha.  The
verifier only replays the given paths; it shares no growth code with the
search.  Its per-entry work is the replay itself: an entry's display is
rendered only to label a violation, and the Kraft sum is counted in
integers, with a Fraction built only to word a failure.  That count,
``kraft_mismatch``, is the search's own Kraft check as well.

An entry holds two slots: its codeword, the bytes ``check_codeword``
makes, low digit first, and its paths joined by one space, about 170 B an
entry at plain level 17 counted by object walk.  Bytes order is canonical
order, so certificates are sorted and checked on the words, and the paths
are read once an entry.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field, replace
from fractions import Fraction
from operator import attrgetter

from .numth import (
    BRANCHING_MOD9,
    MAX_CODEWORD_LEN,
    POW3,
    check_codeword,
    codeword_display,
    codeword_from_display,
    codeword_value,
    t_map,
    trajectory,
    word_display,
)
PLAIN = "plain"
STRONG = "strong"
# below every champion: its Farey successor at cap depth_cap(1, 1/7) = 7 is 1/6
SWEEP_FLOOR = Fraction(1, 7)


@dataclass(frozen=True, slots=True, init=False)
class CertificateEntry:
    """One closed codeword with its path or path pair, held in two slots.

    ``word`` is the codeword, bytes low digit first as ``check_codeword``
    makes it, so bytes order is canonical order.  ``path_text`` is its
    paths joined by one space, so a plain entry's one path is that str
    itself, or None for an entry with no path.  A codeword given as bytes
    is taken as it is, as ``parse_entry`` and the search make it; any
    other is checked by ``check_codeword`` first.  A path may not hold a
    space.  ``paths``, ``level``, ``display`` and ``to_line`` are derived
    from the two slots.
    """

    word: bytes
    path_text: str | None

    def __init__(self, codeword, paths):
        if type(codeword) is not bytes:
            codeword = check_codeword(codeword)
        text = " ".join(paths) if paths else None
        if text is not None and text.count(" ") != len(paths) - 1:
            raise ValueError(f"a path holds a space: {tuple(paths)}")
        object.__setattr__(self, "word", codeword)
        object.__setattr__(self, "path_text", text)

    @property
    def paths(self) -> tuple[str, ...]:
        text = self.path_text
        return () if text is None else tuple(text.split(" "))

    @property
    def level(self) -> int:
        return len(self.word) - 1

    @property
    def display(self) -> str:
        return word_display(self.word)

    def to_line(self) -> str:
        parts = [word_display(self.word), str(len(self.word) - 1)]
        for p in self.paths:
            parts.append(str(len(p)))
            parts.append(p)
        return " ".join(parts)


@dataclass
class Certificate:
    alpha: Fraction
    mode: str
    entries: list[CertificateEntry]

    def __post_init__(self):
        if self.mode not in (PLAIN, STRONG):
            raise ValueError(f"unknown mode {self.mode!r}")

    @property
    def size(self) -> int:
        return len(self.entries)

    def max_weight(self) -> int:
        return max(e.level for e in self.entries)

    def max_depth(self) -> int:
        # no path reads as one empty path, of depth 0
        return max(len(p) for e in self.entries
                   for p in (e.path_text or "").split(" "))

    def min_ratio(self) -> Fraction:
        """The least ones-ratio of any path: ratios are compared by
        cross-multiplication, and one Fraction is built, for the answer."""
        num, den = 1, 0                   # above every ratio
        for e in self.entries:
            # no path reads as one empty path, which lowers nothing
            for p in (e.path_text or "").split(" "):
                ones = p.count("1")
                if ones * den < num * len(p):
                    num, den = ones, len(p)
        if not den:
            raise ValueError("a certificate with no path has no ratio")
        return Fraction(num, den)

    def sorted_canonically(self) -> "Certificate":
        return replace(self, entries=sorted(self.entries, key=attrgetter("word")))

    def to_text(self) -> str:
        lines = [f"certificate v1 mode={self.mode} alpha={self.alpha.numerator}/{self.alpha.denominator}"]
        lines.extend(e.to_line() for e in self.entries)
        return "\n".join(lines) + "\n"


@dataclass
class Unclosed:
    """Search failure report: what was still open when the weight cap bit."""

    alpha: Fraction
    mode: str
    max_weight: int
    open_codewords: list[bytes]


SearchOutcome = Certificate | Unclosed


@dataclass(frozen=True)
class Violation:
    """One verification failure, located as precisely as possible."""

    entry: str | None          # codeword display, or None for whole-file checks
    path_index: int | None
    position: int | None
    reason: str

    def __str__(self):
        where = []
        if self.entry is not None:
            where.append(f"entry {self.entry}")
        if self.path_index is not None:
            where.append(f"path {self.path_index + 1}")
        if self.position is not None:
            where.append(f"position {self.position}")
        prefix = ", ".join(where)
        return f"{prefix}: {self.reason}" if prefix else self.reason


def replay_path(codeword, path: str) -> Violation | None:
    """Replay an edge-label path from a codeword's residue class.

    Edge 0 is always legal (doubling).  Edge 1 needs the class mod 9 to be
    determined (exponent >= 2) and to lie in {2, 8}; it consumes one level
    of modulus knowledge.  Returns None if the whole path replays.
    """
    c = check_codeword(codeword)
    if c == b"\0":
        return Violation(None, None, None, "reserved codeword (0) carries no paths")
    value = codeword_value(c)
    m = len(c)
    for i, ch in enumerate(path):
        if ch == "0":
            value = (2 * value) % POW3[m]
            continue
        if ch != "1":
            return Violation(word_display(c), None, i, f"bad edge label {ch!r}")
        if m < 2:
            return Violation(
                word_display(c), None, i,
                "1-edge after weight reached the level (class mod 9 undetermined)",
            )
        if value % 9 not in BRANCHING_MOD9:
            return Violation(
                word_display(c), None, i,
                f"1-edge at residue {value % 9} mod 9, not in {{2, 8}}",
            )
        value = ((2 * value - 1) // 3) % POW3[m - 1]
        m -= 1
    return None


def entry_violations(entry: CertificateEntry, alpha: Fraction, mode: str) -> list[Violation]:
    """Every violation of one entry on its own: replay, the terminal-bit
    rule, ratio floor and, in strong mode, the pair's mutual
    non-prefixness.  Replay bounds a path's weight: it refuses a 1-edge
    once the path's weight has reached the level, so a path that replays
    has weight at most the level.  Each violation is labelled with the
    entry's display, rendered only for an entry that has one."""
    found = []                      # (path index, position, reason)
    want_paths = 2 if mode == STRONG else 1
    paths = entry.paths
    if len(paths) != want_paths:
        found.append((None, None,
                      f"{mode} entry carries {len(paths)} paths, needs {want_paths}"))
    word = entry.word
    level = len(word) - 1
    for i, p in enumerate(paths):
        if not p:
            found.append((i, None, "empty path"))
            continue
        v = replay_path(word, p)
        if v is not None:
            found.append((i, v.position, v.reason))
            continue
        w = p.count("1")
        if w == level and p[-1] != "1":
            found.append((i, None, "full-weight path must end with a 1-edge"))
        if w * alpha.denominator < alpha.numerator * len(p):
            found.append((i, None,
                          f"ones-ratio {w}/{len(p)} below alpha "
                          f"{alpha.numerator}/{alpha.denominator}"))
    if mode == STRONG and len(paths) == 2:
        a, b = paths
        if a.startswith(b) or b.startswith(a):
            found.append((None, None, "the two paths are prefix-related"))
    if not found:
        return []
    disp = entry.display
    return [Violation(disp, i, position, reason) for i, position, reason in found]


def kraft_mismatch(codewords) -> Fraction | None:
    """None when the codewords' Kraft sum with the reserved word (0) is
    exactly 1, and that sum otherwise.

    The sum is counted in units of 3^-L, L the longest length, so it stays
    in integers; a Fraction is built only for a sum that is not 1."""
    per_length = Counter(map(len, codewords))
    top = max([1, *per_length])
    units = POW3[top - 1] + sum(n * POW3[top - length]
                                for length, n in per_length.items())
    return None if units == POW3[top] else Fraction(units, POW3[top])


def code_violations(codewords: list) -> list[Violation]:
    """Whole-code checks: no codeword listed twice or a prefix of another,
    and a Kraft sum of exactly 1 together with the reserved word (0).  The
    codewords are bytes, as ``verify`` passes entries' words: they are
    only hashed, sorted, sliced and measured, and displayed to label a
    violation."""
    out: list[Violation] = []
    seen: set = set()
    for c in codewords:
        if c in seen:
            out.append(Violation(codeword_display(c), None, None, "duplicate codeword"))
        seen.add(c)
    words = sorted(seen)
    for a, b in zip(words, words[1:]):
        if b[: len(a)] == a:
            out.append(Violation(
                codeword_display(a), None, None,
                f"prefix of fellow codeword {codeword_display(b)}"))

    total = kraft_mismatch(codewords)
    if total is not None:
        out.append(Violation(
            None, None, None,
            f"Kraft sum {total - Fraction(1, 3)} + 1/3 = {total} != 1 (code not exhaustive)"))
    return out


def verify(cert: Certificate) -> list[Violation]:
    """Full independent check of a certificate; returns every violation found.

    Checks prefix-freeness, Kraft exhaustiveness against the reserved word
    (0), and per entry: path replay, which bounds each path's weight by the
    level, the terminal-bit rule, the ones-ratio floor, and (strong) mutual
    non-prefixness.
    """
    out: list[Violation] = []
    if not 0 < cert.alpha < 1:
        out.append(Violation(None, None, None, f"alpha {cert.alpha} out of range (0, 1)"))
    if not cert.entries:
        out.append(Violation(None, None, None, "certificate has no entries"))
        return out

    out.extend(code_violations([e.word for e in cert.entries]))
    for e in cert.entries:
        out.extend(entry_violations(e, cert.alpha, cert.mode))
    return out


def decode_text(data: bytes) -> str:
    """The text of a file's bytes; bytes that are not UTF-8 are an error
    located at their line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"line {line}: not UTF-8 text") from None


def whole_lines(text: str) -> list[str]:
    """The lines of a file that must end in a newline, without their
    newlines; a missing one is an error located at the last line."""
    lines = text.split("\n")
    if lines[-1]:
        raise ValueError("line %d: missing trailing newline" % len(lines))
    return lines[:-1]


def parse_records(lines: list[str], kind: str, read_record,
                  version: str = "v1") -> tuple[str, Fraction]:
    """The line loop both file formats share: blank and ``#`` lines
    skipped, the ``kind`` header of ``version`` first, then each record
    line passed to ``read_record``.  Every error is located as
    ``line N: ...``.  Returns the header's (mode, alpha)."""
    header = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if header is None:
                header = parse_header(line, kind, version)
            else:
                read_record(line)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    if header is None:
        raise ValueError(f"line 1: missing {kind} header")
    return header


def parse_certificate(text: str) -> Certificate:
    """Parse the line-oriented certificate format; errors carry line numbers."""
    entries: list[CertificateEntry] = []
    mode, alpha = parse_records(whole_lines(text), "certificate",
                                lambda line: entries.append(parse_entry(line)))
    return Certificate(alpha=alpha, mode=mode, entries=entries)


def parse_header(line: str, kind: str,
                 version: str = "v1") -> tuple[str, Fraction]:
    parts = line.split()
    if len(parts) != 4 or parts[0] != kind or parts[1] != version:
        raise ValueError(f"bad {kind} header {line!r}")
    if not parts[2].startswith("mode=") or not parts[3].startswith("alpha="):
        raise ValueError(f"bad {kind} header fields {line!r}")
    mode = parts[2][5:]
    if mode not in (PLAIN, STRONG):
        raise ValueError(f"unknown mode {mode!r}")
    return mode, parse_ratio(parts[3][6:])


def _is_number(text: str) -> bool:
    # str.isdigit alone also passes digits such as '²' that int() refuses
    return text.isascii() and text.isdigit()


def parse_ratio(text: str) -> Fraction:
    num, sep, den = text.partition("/")
    if not sep or not _is_number(num) or not _is_number(den) or int(den) == 0:
        raise ValueError(f"expected an exact ratio N/D, got {text!r}")
    return Fraction(int(num), int(den))


def parse_entry(line: str) -> CertificateEntry:
    """One entry line; errors are located by the caller."""
    parts = line.split()
    if len(parts) not in (4, 6):
        raise ValueError(f"entry needs 4 or 6 fields, got {len(parts)}")
    word = codeword_from_display(parts[0])
    if not _is_number(parts[1]) or int(parts[1]) != len(word) - 1:
        raise ValueError(
            f"level {parts[1]} does not match codeword length {len(word)}")
    paths = []
    for length_s, path in zip(parts[2::2], parts[3::2]):
        if not _is_number(length_s) or int(length_s) != len(path):
            raise ValueError(f"path length {length_s} != {len(path)}")
        if path.strip("01"):
            raise ValueError(f"bad path string {path!r}")
        paths.append(path)
    return CertificateEntry(word, paths)


def load_certificate(path) -> Certificate:
    with open(path, "rb") as fh:
        return parse_certificate(decode_text(fh.read()))


def save_certificate(cert: Certificate, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(cert.to_text())


def search(
    alpha: Fraction,
    max_weight: int,
    mode: str = PLAIN,
    cache: dict | None = None,
    stop_at_stuck: bool = False,
    carry: Certificate | None = None,
) -> SearchOutcome:
    """Greedy exhaustive search for a certificate at the given ratio.

    Starts from the six two-digit codewords and, depth first in canonical
    order, tests each open codeword's tree, closing it with its path(s) or
    splitting it into its three one-digit extensions, until the code closes
    or a split would exceed max_weight.  With ``stop_at_stuck`` it stops at
    the first codeword stuck there, the least one, and reports only that
    one.  With ``carry``, an earlier search's certificate at a ratio no
    higher, it decides again only the entries with a path below alpha,
    and their descendants, and keeps the others (``engine.run``).
    Delegates scheduling and the argument checks to the engine.
    """
    from . import engine

    return engine.run(alpha, max_weight, mode, cache=cache,
                      stop_at_stuck=stop_at_stuck, carry=carry)


def depth_cap(level: int, alpha: Fraction) -> int:
    """Deepest path of ones-ratio >= alpha with ``level`` ones."""
    return (level * alpha.denominator) // alpha.numerator


def farey_successor(x: Fraction, n: int) -> Fraction:
    """The least fraction above x whose denominator is at most n (n >= x's
    denominator): the p/q with q <= n largest such that p*b - a*q = 1."""
    a, b = x.numerator, x.denominator
    if b > n:
        raise ValueError(f"denominator of {x} exceeds {n}")
    q = n - (n + pow(a, -1, b)) % b
    return Fraction((1 + a * q) // b, q)


@dataclass
class SweepState:
    """Incremental maximal-ratio search, one level at a time.

    Level l starts from the champion ratio ρ of level l-1 (level 1 from
    SWEEP_FLOOR, whose first test, 1/6, closes at weight 1 in both modes)
    and repeatedly tests the least fraction above ρ whose denominator is at
    most depth_cap(l, ρ): a successful search promotes the champion to the
    certificate's own minimum path ratio (the bound it actually proves), a
    failure ends the level.  No ratio in between needs a search: every
    ratio a search at level l above ρ compares alpha with is a path ratio
    of depth at most that cap, so every test in between decides exactly as
    this one does.
    Only whether a search closes matters here, so each stops at its first
    stuck codeword (``stop_at_stuck``), the least one, since every search
    runs depth first in canonical order: a level's failed search decides
    no codeword after it.
    Each search carries the champion certificate, the level below's at a
    level's first test (level 1 starts from the roots), and decides again
    only its entries with a path below the test ratio, and their
    descendants.  That is the same search, by the monotonicity in alpha
    that ``engine.run`` proves for its ``carry``.
    The certificates of successive levels share the entry objects they
    keep.
    Growth results are cached across test values, which is sound because
    a codeword's tree does not depend on alpha.  The cache holds one growth
    record for each group of siblings, packed into one int and keyed by the
    bytes of their parent (``engine._keys``), and no record is ever asked
    past the cap it was grown at.  Caps fall as the ratio
    rises, and a level's tests rise.  A test that failed at level l,
    a = farey_successor(c, depth_cap(l, c)), grew only at caps
    depth_cap(L, a) with L <= l, and every later test t lies above c, since
    champions never fall.  If t < a, each such cap is the same at t as at
    a: a change in between needs a fraction L/k in [t, a) with
    k <= depth_cap(L, c) <= depth_cap(l, c), and a is the least fraction
    above c with a denominator that small.
    """

    mode: str = PLAIN
    results: dict[int, tuple[Fraction, Certificate]] = field(
        default_factory=dict, init=False)
    cache: dict = field(default_factory=dict, init=False)

    def level(self, l: int) -> tuple[Fraction, Certificate]:
        # a level's searches split up to weight l, which the engine caps
        if not 1 <= l <= MAX_CODEWORD_LEN:
            raise ValueError(f"level must be within [1, {MAX_CODEWORD_LEN}]")
        for ll in range(1, l + 1):
            if ll not in self.results:
                self._run_level(ll)
        return self.results[l]

    def _run_level(self, l: int) -> None:
        champion, champ_cert = self.results.get(l - 1, (SWEEP_FLOOR, None))
        while True:
            test = farey_successor(champion, depth_cap(l, champion))
            outcome = search(test, l, self.mode, cache=self.cache,
                             stop_at_stuck=True, carry=champ_cert)
            if isinstance(outcome, Unclosed):
                break
            champion = outcome.min_ratio()
            champ_cert = replace(outcome, alpha=champion)
        self.results[l] = (champion, champ_cert)


@dataclass(frozen=True)
class WitnessRecord:
    n: int
    k: int
    ratio: Fraction


def _match_entry(entries: dict, n: int) -> CertificateEntry:
    """The entry whose codeword is a run of n's low ternary digits."""
    word = b""
    v = n
    while len(word) < MAX_CODEWORD_LEN:
        v, digit = divmod(v, 3)
        word += bytes((digit,))
        if word in entries:
            return entries[word]
    raise ValueError(f"no codeword matches {n} (certificate not exhaustive?)")


def _lift(n: int, path: str) -> int:
    """Walk a certificate path upward over the integers from n."""
    cur = n
    for ch in path:
        if ch == "0":
            cur = 2 * cur
        else:
            if cur % 3 != 2:
                raise AssertionError(f"1-edge lift illegal at {cur} (not 2 mod 3)")
            cur = (2 * cur - 1) // 3
    return cur


def _forward_check(n: int, k: int, target: int) -> str:
    """Iterate k steps, returning the parity string; asserts arrival."""
    bits = []
    v = n
    for _ in range(k):
        bits.append("1" if v % 2 else "0")
        v = t_map(v)
    if v != target:
        raise AssertionError(f"forward check failed: T^{k}({n}) = {v} != {target}")
    return "".join(bits)


def witnesses(
    cert: Certificate,
    anchor: int,
    count: int,
    breadth: int = 1,
) -> list[WitnessRecord]:
    """Chains of preimages of the anchor with ones-ratio >= cert.alpha.

    Each round matches the current integer's low ternary digits against the
    certificate, lifts the matched entry's path over the integers, and
    verifies the new element by forward iteration.  Reported k and ratio are
    cumulative back to the anchor.  Anchors 1 and 2 lie on the 1-2 cycle,
    whose preimage chains would circle it, so the construction roots at 41
    instead and folds 41's trajectory into the totals.
    breadth=2 (strong certificates only) expands both paths per element,
    doubling the population each round.  A certificate that does not
    verify is refused with its first violation.
    """
    if anchor < 1 or anchor % 3 == 0:
        raise ValueError("anchor must be a positive integer not divisible by 3")
    if count < 1:
        raise ValueError("count must be >= 1")
    if breadth not in (1, 2):
        raise ValueError("breadth must be 1 or 2")
    if breadth == 2 and cert.mode != STRONG:
        raise ValueError("breadth 2 needs a strong certificate")
    violations = verify(cert)
    if violations:
        raise ValueError(f"certificate does not verify: {violations[0]}")

    start = anchor
    suffix_k = 0
    suffix_ones = 0
    if anchor in (1, 2):
        start = 41
        # 41's trajectory reaches 2 one step before it first reaches 1
        parity = trajectory(start).parity
        if anchor == 2:
            parity = parity[:-1]
        suffix_k = len(parity)
        suffix_ones = parity.count("1")

    entries = {e.word: e for e in cert.entries}
    out: list[WitnessRecord] = []
    # queue of (integer, cumulative steps to start, cumulative ones)
    queue: deque[tuple[int, int, int]] = deque([(start, 0, 0)])
    while len(out) < count:
        n, k_acc, ones_acc = queue.popleft()
        entry = _match_entry(entries, n)
        for path in entry.paths[:breadth]:
            lifted = _lift(n, path)
            parity = _forward_check(lifted, len(path), n)
            if parity != path[::-1]:
                raise AssertionError("forward parity disagrees with reversed path")
            k = k_acc + len(path)
            ones = ones_acc + path.count("1")
            record = WitnessRecord(
                lifted,
                k + suffix_k,
                Fraction(ones + suffix_ones, k + suffix_k),
            )
            out.append(record)
            queue.append((lifted, k, ones))
            if len(out) >= count:
                break
    return out

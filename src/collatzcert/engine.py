"""Deterministic, checkpointable execution of the open-codeword frontier.

One in-process loop owns the frontier, a list of open codewords.  Each
pass takes them in canonical codeword order, grows each one's tree within
its own level's depth cap (or takes it from the growth memo) and closes,
leaves stuck or splits it; the splits form the next pass's frontier.
Siblings sit together in that order, so the trees of a group of them are
grown in one lookup of their parent's tree (three table reads up to level
9, one walk above it), and the memo holds that lookup's one record under
the parent.  The close decision reads a codeword's leaf keys from it and
renders the ones it keeps as paths.  Splitting a codeword into its three
one-digit extensions preserves the prefix-code property, which is asserted
as an exact Kraft identity after every pass.

The sweep only asks whether a search closes, so its searches run depth
first instead, in canonical order, and stop at the first codeword stuck at
the weight cap: a breadth-first search meets its stuck codewords only in
its last pass.  Both loops decide a codeword by the same step, and a
depth-first certificate is asserted exhaustive by the same Kraft ledger.
Without a cache to share, both keep the memo by one rule: a group's record
is dropped as soon as its child ending in 2 is decided.  So the memo holds
the groups in hand, and at most one record per open codeword of a resumed
group that lacks that child.

A breadth-first run with a checkpoint writes the file whole once, as
segment 0: the frontier it starts from and the entries it carries over.
After each pass it appends one segment, the entries that pass closed and
the codewords it left stuck, ended by the pass's ``end N`` marker.  A pass
decides its whole frontier, so the next one is derived, not written: the
children of every codeword the pass neither closed nor left stuck.  Each
closed entry is written once, and a checkpoint is about one certificate's
worth of text.  An append cut short leaves lines after the last marker,
which the loader drops.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .certify import (
    PLAIN,
    STRONG,
    Certificate,
    CertificateEntry,
    SearchOutcome,
    Unclosed,
    Violation,
    code_violations,
    depth_cap,
    entry_violations,
    parse_entry,
    parse_records,
    whole_lines,
)
from .numth import MAX_CODEWORD_LEN, POW3, codeword_display, codeword_from_display
from .tree import find_companion, grow_children, key_path
from .tree import grow_record  # noqa: F401  (bench/tracer.py wraps it by this name)

INITIAL_CODEWORDS = tuple(
    (i, j) for i in (1, 2) for j in (0, 1, 2)
)


@dataclass
class CheckpointState:
    """Resumable snapshot of a search: the codewords still open, those stuck
    at the weight cap, and the closed entries."""

    alpha: Fraction
    mode: str
    open_codewords: list[tuple[int, ...]]
    closed: list[CertificateEntry]
    stuck: list[tuple[int, ...]] = field(default_factory=list)

    def counters(self) -> dict[int, dict[str, int]]:
        """Per-level opened/closed/stuck/split counts, derived from the records.

        opened(1) = 6; opened(l+1) = 3 * split(l); split(l) is whatever was
        neither closed, stuck nor left open at level l.
        """
        closed_at = Counter(e.level for e in self.closed)
        open_at = Counter(len(c) - 1 for c in self.open_codewords)
        stuck_at = Counter(len(c) - 1 for c in self.stuck)
        top = max([1, *closed_at, *open_at, *stuck_at])
        out: dict[int, dict[str, int]] = {}
        opened = 6
        for lv in range(1, top + 1):
            split = opened - closed_at[lv] - open_at[lv] - stuck_at[lv]
            out[lv] = {
                "opened": opened,
                "closed": closed_at[lv],
                "stuck": stuck_at[lv],
                "split": split,
            }
            opened = 3 * split
        return out


@dataclass
class CheckpointSegment:
    """What one pass over the frontier decided: the entries it closed and
    the codewords it left stuck, each in canonical order."""

    number: int
    closed: list[CertificateEntry]
    stuck: list[tuple[int, ...]]


def _parse_v1_record(line: str):
    kind, _, rest = line.partition(" ")
    if kind == "open":
        return codeword_from_display(rest.strip())
    if kind == "closed":
        return parse_entry(rest.strip())
    raise ValueError(f"unknown record {kind!r}")


class _PassReader:
    """The records of a v2 checkpoint, read in order.

    Segment 0 lists the frontier a run starts from as ``open`` lines.  Each
    later segment is one pass, which decides its whole frontier: the
    codewords it neither closes nor marks stuck are split, so the next
    pass's frontier is derived from them, and only a codeword of the
    current frontier may be closed or marked stuck.
    """

    def __init__(self):
        self.number: int | None = None      # the last end marker read
        self.frontier: set[tuple[int, ...]] = set()
        self.closed: list[CertificateEntry] = []
        self.stuck: list[tuple[int, ...]] = []

    def __call__(self, line: str) -> None:
        kind, _, rest = line.partition(" ")
        rest = rest.strip()
        if kind == "end":
            self._end(rest)
            return
        if kind == "open":
            if self.number is not None:
                raise ValueError("open record after end 0")
            codeword = codeword_from_display(rest)
            if codeword in self.frontier:
                raise ValueError(f"open codeword {rest} listed twice")
            self.frontier.add(codeword)
            return
        if kind == "closed":
            entry = parse_entry(rest)
            codeword = entry.codeword
        elif kind == "stuck":
            codeword = codeword_from_display(rest)
        else:
            raise ValueError(f"unknown record {kind!r}")
        if self.number is not None:
            if codeword not in self.frontier:
                raise ValueError(
                    f"{kind} codeword {codeword_display(codeword)} is not "
                    f"open in pass {self.number + 1}")
            self.frontier.remove(codeword)
        if kind == "closed":
            self.closed.append(entry)
        else:
            self.stuck.append(codeword)

    def _end(self, rest: str) -> None:
        due = 0 if self.number is None else self.number + 1
        if rest != str(due):
            raise ValueError(f"end marker {rest!r} where end {due} is due")
        if due:
            for c in self.frontier:
                if len(c) >= MAX_CODEWORD_LEN:
                    raise ValueError(
                        f"pass {due} splits {codeword_display(c)} into "
                        f"codewords longer than {MAX_CODEWORD_LEN} digits")
            self.frontier = {c + (d,) for c in self.frontier for d in (0, 1, 2)}
        self.number = due


def _complete_passes(lines: list[str]) -> list[str]:
    """The lines of a text split at its newlines, up to its last end marker:
    what follows, the last line (which has no newline) among it, is a pass
    torn by an interrupted append, and is dropped."""
    for i in range(len(lines) - 2, -1, -1):
        if lines[i].strip().partition(" ")[0] == "end":
            return lines[:i + 1]
    raise ValueError(f"line {max(len(lines) - 1, 1)}: no end 0 marker")


def _header_version(lines: list[str]) -> str | None:
    for raw in lines:
        line = raw.strip()
        if line and not line.startswith("#"):
            parts = line.split()
            return parts[1] if parts[:1] == ["checkpoint"] and len(parts) > 1 else None
    return None


def parse_checkpoint(text: str) -> CheckpointState:
    """Parse either checkpoint format; errors carry line numbers.

    A v1 file lists every open codeword (stuck ones among them) and every
    closed entry.  A v2 file is segment 0, written whole, then one segment
    per pass, appended, each ended by its ``end N`` marker; lines after the
    last marker are dropped, and the open codewords are the frontier
    derived after it, in canonical order.  Closed entries are listed in
    the order the file lists them.
    """
    lines = text.split("\n")
    if _header_version(lines) != "v2":
        mode, alpha, records = parse_records(whole_lines(text), "checkpoint",
                                             _parse_v1_record)
        return CheckpointState(
            alpha=alpha, mode=mode,
            open_codewords=[r for r in records
                            if not isinstance(r, CertificateEntry)],
            closed=[r for r in records if isinstance(r, CertificateEntry)])
    reader = _PassReader()
    mode, alpha, _ = parse_records(_complete_passes(lines), "checkpoint",
                                   reader, "v2")
    return CheckpointState(alpha=alpha, mode=mode,
                           open_codewords=sorted(reader.frontier),
                           closed=reader.closed, stuck=reader.stuck)


def load_checkpoint(path) -> CheckpointState:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return parse_checkpoint(text)
    except ValueError as exc:
        raise ValueError(f"checkpoint {path}: {exc}") from exc


def save_checkpoint(record: CheckpointState | CheckpointSegment, path) -> None:
    """Write a search's checkpoint in the v2 format.

    A CheckpointState is written whole, as segment 0, to a file beside
    ``path`` that is then renamed over it; a CheckpointSegment, one pass,
    is appended, closed entries first, then the stuck codewords, then its
    end marker.
    """
    appended = isinstance(record, CheckpointSegment)
    if appended:
        lines, number = [], record.number
    else:
        alpha = record.alpha
        lines = [f"checkpoint v2 mode={record.mode} "
                 f"alpha={alpha.numerator}/{alpha.denominator}"]
        lines.extend(f"open {codeword_display(c)}" for c in record.open_codewords)
        number = 0
    lines.extend(f"closed {e.to_line()}" for e in record.closed)
    lines.extend(f"stuck {codeword_display(c)}" for c in record.stuck)
    lines.append(f"end {number}\n")
    if appended:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n".join(lines))
        return
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
    os.replace(tmp, path)


def stats(obj) -> list[tuple[int, int]]:
    """Per-level population: codewords of level >= l', for each l'.

    Accepts a finished Certificate or a CheckpointState (whose open and
    stuck codewords count alongside the closed entries).
    """
    if isinstance(obj, Certificate):
        levels = [e.level for e in obj.entries]
    elif isinstance(obj, CheckpointState):
        levels = [e.level for e in obj.closed]
        levels.extend(len(c) - 1 for c in [*obj.open_codewords, *obj.stuck])
    else:
        raise TypeError(f"stats wants a Certificate or CheckpointState, not {type(obj)}")
    top = max(levels, default=0)
    return [(lv, sum(1 for x in levels if x >= lv)) for lv in range(1, top + 1)]


def format_stats_csv(rows: list[tuple[int, int]]) -> str:
    return "level,count\n" + "".join(f"{lv},{n}\n" for lv, n in rows)


def _close_decision(
    codeword: tuple[int, ...], wits: list[int], cap: int,
    alpha: Fraction, mode: str,
) -> tuple[str, ...] | None:
    """Paths that close this codeword at this ratio, or None to split.

    ``wits`` are the keys of its first full-weight leaves within the cap.
    Plain mode closes on the first.  Strong mode needs two such leaves, or
    one leaf plus the canonically least lighter path of ones-ratio >= alpha
    that is not a prefix of it.
    """
    if mode == PLAIN:
        return (key_path(wits[0]),) if wits else None
    if len(wits) >= 2:
        return (key_path(wits[0]), key_path(wits[1]))
    if len(wits) == 1:
        companion = find_companion(codeword, cap, alpha, wits[0])
        if companion is not None:
            # key order is canonical order
            return tuple(key_path(k) for k in sorted((wits[0], companion)))
    return None


class _KraftLedger:
    """Exact running Kraft sum over open + closed + the reserved word (0)."""

    def __init__(self):
        # scale everything by 3^(MAX_CODEWORD_LEN + 1) to stay in integers
        self.scale = POW3[MAX_CODEWORD_LEN + 1]
        self.total = self.scale // 3          # the reserved word (0)

    def add(self, length: int) -> None:
        self.total += self.scale // POW3[length]

    def remove(self, length: int) -> None:
        self.total -= self.scale // POW3[length]

    def assert_exhaustive(self) -> None:
        if self.total != self.scale:
            raise AssertionError(
                f"Kraft invariant broken: sum = {Fraction(self.total, self.scale)}")


def _check_resumable(state: CheckpointState, path) -> None:
    """Refuse a checkpoint whose codewords do not form an exhaustive prefix
    code, that leaves a level-0 codeword open or stuck, or whose closed
    entries would not verify at its ratio and mode."""
    unclosed = [*state.open_codewords, *state.stuck]
    problems = code_violations([*unclosed, *(e.codeword for e in state.closed)])
    problems.extend(
        Violation(codeword_display(c), None, None,
                  "open codeword of level 0 (growth needs level >= 1)")
        for c in unclosed if len(c) < 2)
    for e in state.closed:
        problems.extend(entry_violations(e, state.alpha, state.mode))
    if problems:
        raise ValueError(f"checkpoint {path}: {problems[0]}")


def _decide(c: tuple[int, ...], memo: dict, caps: list[int],
            alpha: Fraction, mode: str) -> tuple[str, ...] | None:
    """The close decision for one codeword, at its own level's cap, from
    its parent's record in the memo, grown (or regrown) there when the
    record cannot answer: siblings share a level and so a cap, so a record
    grown for one of them answers all three, and every later query that
    the record it replaces answered."""
    cap = caps[len(c) - 1]
    parent = c[:-1]
    record = memo.get(parent)
    keys = None if record is None else record.keys_within(c[-1], cap)
    if keys is None:
        record = memo[parent] = grow_children(parent, cap)
        keys = record.keys_within(c[-1], cap)
    return _close_decision(c, keys, cap, alpha, mode)


def _depth_first(alpha: Fraction, max_weight: int, mode: str,
                 cache: dict | None) -> SearchOutcome:
    """The search depth first, in canonical codeword order, which stops at
    the first stuck codeword.

    A codeword is decided, and split if it must be, before its next
    sibling, so the closed entries come in canonical order and the first
    codeword stuck at the weight cap is the least one.
    """
    memo = {} if cache is None else cache
    caps = [depth_cap(level, alpha) for level in range(MAX_CODEWORD_LEN + 1)]
    closed: list[CertificateEntry] = []
    todo = list(reversed(INITIAL_CODEWORDS))
    while todo:
        c = todo.pop()
        paths = _decide(c, memo, caps, alpha, mode)
        if cache is None and c[-1] == 2:
            del memo[c[:-1]]
        if paths is not None:
            closed.append(CertificateEntry(codeword=c, paths=paths))
        elif len(c) - 1 >= max_weight:
            return Unclosed(alpha=alpha, mode=mode, max_weight=max_weight,
                            open_codewords=[c])
        else:
            todo.extend(c + (d,) for d in (2, 1, 0))
    kraft = _KraftLedger()
    for e in closed:
        kraft.add(len(e.codeword))
    kraft.assert_exhaustive()
    return Certificate(alpha=alpha, mode=mode, entries=closed)


def run(
    alpha: Fraction,
    max_weight: int,
    mode: str = PLAIN,
    checkpoint_path: str | None = None,
    cache: dict | None = None,
    stop_at_stuck: bool = False,
) -> SearchOutcome:
    """Run the certificate search to completion.

    Returns a Certificate when every codeword closes, an Unclosed report
    listing the codewords stuck at the weight cap otherwise.  The result is
    a pure function of (alpha, mode, max_weight): resume points cannot
    change a single byte of it.  The checkpoint, if any, is written whole
    once, from the frontier the run starts from and the entries it carries
    over, and then one segment is appended after every pass over the
    frontier.  Resumed, a codeword that was stuck is open again, so a
    larger ``max_weight`` continues it.

    With ``stop_at_stuck`` the search runs depth first instead and its
    Unclosed report holds only the least stuck codeword, the first of the
    full report; a certificate is the same.  It takes no checkpoint, since
    it makes no passes.

    Growth records are memoised by parent, one for each group of siblings:
    in ``cache`` when the caller passes one, to share them across searches,
    and otherwise in a memo of the search's own, under the module's one
    rule for it.
    """
    if mode not in (PLAIN, STRONG):
        raise ValueError(f"unknown mode {mode!r}")
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if not 1 <= max_weight <= MAX_CODEWORD_LEN:
        raise ValueError(f"max_weight must be within [1, {MAX_CODEWORD_LEN}]")
    if stop_at_stuck:
        if checkpoint_path:
            raise ValueError("a search that stops at the first stuck "
                             "codeword takes no checkpoint")
        return _depth_first(alpha, max_weight, mode, cache)

    frontier: list[tuple[int, ...]] = list(INITIAL_CODEWORDS)
    closed: list[CertificateEntry] = []
    kraft = _KraftLedger()

    if checkpoint_path and os.path.exists(checkpoint_path):
        state = load_checkpoint(checkpoint_path)
        if state.alpha != alpha or state.mode != mode:
            raise ValueError(
                f"checkpoint {checkpoint_path} was taken at "
                f"alpha={state.alpha} mode={state.mode}, refusing to resume "
                f"at alpha={alpha} mode={mode}")
        _check_resumable(state, checkpoint_path)
        frontier = sorted([*state.open_codewords, *state.stuck])
        closed = state.closed

    for c in [*frontier, *(e.codeword for e in closed)]:
        kraft.add(len(c))
    if checkpoint_path:
        save_checkpoint(CheckpointState(alpha, mode, frontier, closed),
                        checkpoint_path)

    memo = {} if cache is None else cache
    caps = [depth_cap(level, alpha) for level in range(MAX_CODEWORD_LEN + 1)]
    stuck: list[tuple[int, ...]] = []
    passes = 0
    while frontier:
        passes += 1
        closed_before, stuck_before = len(closed), len(stuck)
        deeper: list[tuple[int, ...]] = []
        for c in sorted(frontier):
            paths = _decide(c, memo, caps, alpha, mode)
            if cache is None and c[-1] == 2:
                del memo[c[:-1]]
            if paths is not None:
                closed.append(CertificateEntry(codeword=c, paths=paths))
            elif len(c) - 1 >= max_weight:
                stuck.append(c)
            else:
                kraft.remove(len(c))
                for d in (0, 1, 2):
                    deeper.append(c + (d,))
                    kraft.add(len(c) + 1)
        kraft.assert_exhaustive()
        frontier = deeper
        if checkpoint_path:
            save_checkpoint(
                CheckpointSegment(passes, closed[closed_before:],
                                  stuck[stuck_before:]),
                checkpoint_path)

    if stuck:
        return Unclosed(
            alpha=alpha,
            mode=mode,
            max_weight=max_weight,
            open_codewords=sorted(stuck),
        )
    return Certificate(alpha=alpha, mode=mode, entries=closed).sorted_canonically()

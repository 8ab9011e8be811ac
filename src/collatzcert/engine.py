"""Deterministic, checkpointable execution of the certificate search.

One in-process loop runs the search depth first, in canonical codeword
order: it keeps the open codewords as a stack with the least on top, and
closes, leaves stuck or splits each one in turn, each within its own
level's depth cap.  A split codeword's three children go on top, so a
codeword and everything below it are decided before its next sibling,
and the closed entries come in canonical order.  The trees of a group of
siblings are grown in one lookup of their parent's tree (three table
reads up to level 9, one walk above it), and the memo holds that
lookup's one record under the parent; the close decision reads a
codeword's leaf keys from it and renders the ones it keeps as paths.
Without a cache to share, a group's record is dropped as soon as its
child ending in 2 is decided, so the memo holds the groups in hand, and
at most one record per open codeword of a resumed group that lacks that
child.  Splitting a codeword into its three one-digit extensions
preserves the prefix-code property, which is asserted as an exact Kraft
identity once per search.

A run with a checkpoint writes the file whole once, as segment 0: the
entries it carries over and the codewords it starts from.  Then it
appends its decisions, ``closed`` entries and ``stuck`` codewords, in the
order it makes them.  Depth first, every decision is the least open
codeword or a descendant of it, so the loader derives the open codewords
from the decisions alone, and any prefix of the file that ends at a
newline is a valid state.  Each closed entry is written once, and a
checkpoint is about one certificate's worth of text.
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
    decode_text,
    depth_cap,
    entry_violations,
    parse_entry,
    parse_records,
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


class _DecisionLog:
    """The records of a v3 checkpoint, read in order.

    ``closed`` and ``stuck`` lines before the first ``open`` line are
    carried over; after it each one is a decision.  Depth first, every
    decision is the least open codeword or a descendant of it: a codeword
    above the decided one was split, and its later children are open.  So
    the open codewords are kept as the search keeps them, a stack with the
    least on top, and a decision anywhere else is refused.
    """

    def __init__(self):
        self.todo: list[tuple[int, ...]] = []     # the open codewords
        self.deciding = False
        self.closed: list[CertificateEntry] = []
        self.stuck: list[tuple[int, ...]] = []

    def __call__(self, line: str) -> None:
        kind, _, rest = line.partition(" ")
        rest = rest.strip()
        if kind == "open":
            if self.deciding:
                raise ValueError("open record after a decision")
            self.todo.append(codeword_from_display(rest))
            return
        if kind == "closed":
            entry = parse_entry(rest)
            codeword = entry.codeword
        elif kind == "stuck":
            codeword = codeword_from_display(rest)
        else:
            raise ValueError(f"unknown record {kind!r}")
        if self.todo and not self.deciding:
            self.todo.sort(reverse=True)
            self.deciding = True
        if self.deciding:
            self._decide(kind, codeword)
        if kind == "closed":
            self.closed.append(entry)
        else:
            self.stuck.append(codeword)

    def _decide(self, kind: str, codeword: tuple[int, ...]) -> None:
        todo = self.todo
        while True:
            if not todo:
                raise ValueError(f"{kind} codeword {codeword_display(codeword)} "
                                 f"where no codeword is open")
            least = todo[-1]
            if codeword[:len(least)] != least:
                raise ValueError(
                    f"{kind} codeword {codeword_display(codeword)} is not at "
                    f"or below the least open codeword {codeword_display(least)}")
            todo.pop()
            if codeword == least:
                return
            todo.extend(least + (d,) for d in (2, 1, 0))



def parse_checkpoint(text: str) -> CheckpointState:
    """Parse a v3 checkpoint; errors carry line numbers.

    A last line with no newline is a torn append, and is dropped: every
    line before it is whole, and any run of whole lines is a valid state.
    The open codewords are those left open after the last decision, in
    canonical order; closed entries and stuck codewords are listed in the
    order the file lists them.
    """
    log = _DecisionLog()
    mode, alpha, _ = parse_records(text.split("\n")[:-1], "checkpoint", log,
                                   "v3")
    return CheckpointState(alpha=alpha, mode=mode,
                           open_codewords=sorted(log.todo),
                           closed=log.closed, stuck=log.stuck)


def load_checkpoint(path) -> CheckpointState:
    try:
        with open(path, "rb") as fh:
            text = decode_text(fh.read())
        return parse_checkpoint(text)
    except ValueError as exc:
        raise ValueError(f"checkpoint {path}: {exc}") from exc


def save_checkpoint(record: CheckpointState | list, path) -> None:
    """Write a search's checkpoint in the v3 format.

    A CheckpointState is written whole, as segment 0, to a file beside
    ``path`` that is then renamed over it: its closed entries, its stuck
    codewords, then its open codewords in canonical order.  A list of
    decisions, closed entries and stuck codewords in the order the search
    made them, is appended.
    """
    if not isinstance(record, CheckpointState):
        with open(path, "a", encoding="utf-8") as fh:
            fh.writelines(
                f"closed {d.to_line()}\n" if isinstance(d, CertificateEntry)
                else f"stuck {codeword_display(d)}\n" for d in record)
        return
    alpha = record.alpha
    lines = [f"checkpoint v3 mode={record.mode} "
             f"alpha={alpha.numerator}/{alpha.denominator}"]
    lines.extend(f"closed {e.to_line()}" for e in record.closed)
    lines.extend(f"stuck {codeword_display(c)}" for c in record.stuck)
    lines.extend(f"open {codeword_display(c)}"
                 for c in sorted(record.open_codewords))
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
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
    """Exact Kraft sum over a search's codewords and the reserved word (0)."""

    def __init__(self):
        # scale everything by 3^(MAX_CODEWORD_LEN + 1) to stay in integers
        self.scale = POW3[MAX_CODEWORD_LEN + 1]
        self.total = self.scale // 3          # the reserved word (0)

    def add(self, length: int) -> None:
        self.total += self.scale // POW3[length]

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


def run(
    alpha: Fraction,
    max_weight: int,
    mode: str = PLAIN,
    checkpoint_path: str | None = None,
    cache: dict | None = None,
    stop_at_stuck: bool = False,
) -> SearchOutcome:
    """Run the certificate search, depth first in canonical codeword order.

    A codeword is decided, and split if it must be, before its next
    sibling.  Returns a Certificate when every codeword closes, and an
    Unclosed report listing the codewords stuck at the weight cap, sorted,
    otherwise; with ``stop_at_stuck`` the search returns at the first
    stuck codeword, the least one, and reports only that one.  The result
    is a pure function of (alpha, mode, max_weight, stop_at_stuck): resume
    points cannot change a single byte of it.

    The checkpoint, if any, is written whole once, from the codewords the
    run starts from and the entries it carries over; then the decisions
    are appended in the order they are made, just before each codeword of
    level 2 or less is decided and once at the end.  Resumed, a codeword
    that was stuck is open again, so a larger ``max_weight`` continues it.

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

    start: list[tuple[int, ...]] = list(INITIAL_CODEWORDS)
    closed: list[CertificateEntry] = []
    if checkpoint_path and os.path.exists(checkpoint_path):
        state = load_checkpoint(checkpoint_path)
        if state.alpha != alpha or state.mode != mode:
            raise ValueError(
                f"checkpoint {checkpoint_path} was taken at "
                f"alpha={state.alpha} mode={state.mode}, refusing to resume "
                f"at alpha={alpha} mode={mode}")
        _check_resumable(state, checkpoint_path)
        start = sorted([*state.open_codewords, *state.stuck])
        closed = state.closed
    log = None
    if checkpoint_path:
        save_checkpoint(CheckpointState(alpha, mode, start, closed),
                        checkpoint_path)
        log = []

    memo = {} if cache is None else cache
    caps = [depth_cap(level, alpha) for level in range(MAX_CODEWORD_LEN + 1)]
    stuck: list[tuple[int, ...]] = []
    todo = start[::-1]
    while todo:
        c = todo.pop()
        if log and len(c) <= 3:
            save_checkpoint(log, checkpoint_path)
            log = []
        paths = _decide(c, memo, caps, alpha, mode)
        if cache is None and c[-1] == 2:
            del memo[c[:-1]]
        if paths is not None:
            closed.append(CertificateEntry(codeword=c, paths=paths))
            if log is not None:
                log.append(closed[-1])
        elif len(c) - 1 < max_weight:
            todo.extend(c + (d,) for d in (2, 1, 0))
        else:
            stuck.append(c)
            if log is not None:
                log.append(c)
            if stop_at_stuck:
                break
    if log:
        save_checkpoint(log, checkpoint_path)

    kraft = _KraftLedger()
    for c in [*todo, *stuck, *(e.codeword for e in closed)]:
        kraft.add(len(c))
    kraft.assert_exhaustive()
    if stuck:
        return Unclosed(alpha=alpha, mode=mode, max_weight=max_weight,
                        open_codewords=sorted(stuck))
    return Certificate(alpha=alpha, mode=mode, entries=closed).sorted_canonically()

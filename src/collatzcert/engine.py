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
"""

from __future__ import annotations

import os
from dataclasses import dataclass
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
)
from .numth import MAX_CODEWORD_LEN, POW3, codeword_display, codeword_from_display
from .tree import find_companion, grow_children, key_path
from .tree import grow_record  # noqa: F401  (bench/tracer.py wraps it by this name)

INITIAL_CODEWORDS = tuple(
    (i, j) for i in (1, 2) for j in (0, 1, 2)
)


@dataclass
class CheckpointState:
    """Resumable snapshot of a search: everything still open, everything closed."""

    alpha: Fraction
    mode: str
    open_codewords: list[tuple[int, ...]]
    closed: list[CertificateEntry]

    def counters(self) -> dict[int, dict[str, int]]:
        """Per-level opened/closed/split counts, derived from the records.

        opened(1) = 6; opened(l+1) = 3 * split(l); split(l) is whatever was
        neither closed nor left open at level l.
        """
        closed_at: dict[int, int] = {}
        open_at: dict[int, int] = {}
        for e in self.closed:
            closed_at[e.level] = closed_at.get(e.level, 0) + 1
        for c in self.open_codewords:
            open_at[len(c) - 1] = open_at.get(len(c) - 1, 0) + 1
        top = max([1, *closed_at, *open_at])
        out: dict[int, dict[str, int]] = {}
        opened = 6
        for lv in range(1, top + 1):
            split = opened - closed_at.get(lv, 0) - open_at.get(lv, 0)
            out[lv] = {
                "opened": opened,
                "closed": closed_at.get(lv, 0),
                "split": split,
            }
            opened = 3 * split
        return out

    def to_text(self) -> str:
        lines = [
            f"checkpoint v1 mode={self.mode} "
            f"alpha={self.alpha.numerator}/{self.alpha.denominator}"
        ]
        for c in sorted(self.open_codewords):
            lines.append(f"open {codeword_display(c)}")
        for e in sorted(self.closed, key=lambda e: e.codeword):
            lines.append(f"closed {e.to_line()}")
        return "\n".join(lines) + "\n"


def _parse_checkpoint_record(line: str):
    kind, _, rest = line.partition(" ")
    if kind == "open":
        return codeword_from_display(rest.strip())
    if kind == "closed":
        return parse_entry(rest.strip())
    raise ValueError(f"unknown record {kind!r}")


def parse_checkpoint(text: str) -> CheckpointState:
    mode, alpha, records = parse_records(text, "checkpoint",
                                         _parse_checkpoint_record)
    closed = [r for r in records if isinstance(r, CertificateEntry)]
    open_codewords = [r for r in records if not isinstance(r, CertificateEntry)]
    return CheckpointState(alpha=alpha, mode=mode,
                           open_codewords=open_codewords, closed=closed)


def load_checkpoint(path) -> CheckpointState:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_checkpoint(fh.read())


def save_checkpoint(state: CheckpointState, path) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(state.to_text())
    os.replace(tmp, path)


def stats(obj) -> list[tuple[int, int]]:
    """Per-level population: codewords of level >= l', for each l'.

    Accepts a finished Certificate or a CheckpointState (whose still-open
    codewords count alongside the closed entries).
    """
    if isinstance(obj, Certificate):
        levels = [e.level for e in obj.entries]
    elif isinstance(obj, CheckpointState):
        levels = [e.level for e in obj.closed]
        levels.extend(len(c) - 1 for c in obj.open_codewords)
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
    code, that leaves a level-0 codeword open, or whose closed entries would
    not verify at its ratio and mode."""
    words = [*state.open_codewords, *(e.codeword for e in state.closed)]
    problems = code_violations(words)
    problems.extend(
        Violation(codeword_display(c), None, None,
                  "open codeword of level 0 (growth needs level >= 1)")
        for c in state.open_codewords if len(c) < 2)
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
    change a single byte of it.  The checkpoint, if any, is written after
    every pass over the frontier.

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
    stuck: list[tuple[int, ...]] = []
    kraft = _KraftLedger()

    if checkpoint_path and os.path.exists(checkpoint_path):
        state = load_checkpoint(checkpoint_path)
        if state.alpha != alpha or state.mode != mode:
            raise ValueError(
                f"checkpoint {checkpoint_path} was taken at "
                f"alpha={state.alpha} mode={state.mode}, refusing to resume "
                f"at alpha={alpha} mode={mode}")
        _check_resumable(state, checkpoint_path)
        frontier, closed = state.open_codewords, state.closed

    for c in [*frontier, *(e.codeword for e in closed)]:
        kraft.add(len(c))

    memo = {} if cache is None else cache
    caps = [depth_cap(level, alpha) for level in range(MAX_CODEWORD_LEN + 1)]
    while frontier:
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
                CheckpointState(alpha, mode, frontier + stuck, closed),
                checkpoint_path)

    if stuck:
        return Unclosed(
            alpha=alpha,
            mode=mode,
            max_weight=max_weight,
            open_codewords=sorted(stuck),
        )
    return Certificate(alpha=alpha, mode=mode, entries=closed).sorted_canonically()

"""Deterministic, checkpointable execution of the open-codeword frontier.

One in-process loop owns the frontier, a list of open codewords.  Each
pass takes them in canonical codeword order, grows each one's tree within
its own level's depth cap (or takes it from the growth cache) and closes,
leaves stuck or splits it; the splits form the next pass's frontier.
Siblings sit together in that order, so the trees of a group of them are
grown in one walk of their parent's tree.  Splitting a codeword into its
three one-digit extensions preserves the prefix-code property, which is
asserted as an exact Kraft identity after every pass.
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
from .tree import GrowthRecord, find_companion, grow_children, path_str
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
    record: GrowthRecord, cap: int, alpha: Fraction, mode: str
) -> tuple[str, ...] | None:
    """Paths that close this codeword at this ratio, or None to split.

    Plain mode closes on the first full-weight leaf within the cap.  Strong
    mode needs two such leaves, or one leaf plus the canonically least
    lighter path of ones-ratio >= alpha that is not a prefix of it.
    """
    wits = record.witnesses_within(cap)
    if mode == PLAIN:
        if not wits:
            return None
        d, p = wits[0]
        return (path_str(p, d),)
    if len(wits) >= 2:
        return tuple(path_str(p, d) for d, p in wits[:2])
    if len(wits) == 1:
        companion = find_companion(record, cap, alpha, wits[0])
        if companion is not None:
            pair = sorted([wits[0], companion])
            return tuple(path_str(p, d) for d, p in pair)
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


def run(
    alpha: Fraction,
    max_weight: int,
    mode: str = PLAIN,
    checkpoint_path: str | None = None,
    cache: dict | None = None,
) -> SearchOutcome:
    """Run the certificate search to completion.

    Returns a Certificate when every codeword closes, an Unclosed report
    listing the codewords stuck at the weight cap otherwise.  The result is
    a pure function of (alpha, mode, max_weight): resume points cannot
    change a single byte of it.  The checkpoint, if any, is written after
    every pass over the frontier.
    """
    if mode not in (PLAIN, STRONG):
        raise ValueError(f"unknown mode {mode!r}")
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if not 1 <= max_weight <= MAX_CODEWORD_LEN:
        raise ValueError(f"max_weight must be within [1, {MAX_CODEWORD_LEN}]")

    want = 2 if mode == STRONG else 1
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

    # the records of the last group of siblings grown, kept until the
    # parent changes
    parent: tuple[int, ...] = ()
    siblings: tuple[GrowthRecord, ...] = ()
    while frontier:
        deeper: list[tuple[int, ...]] = []
        for c in sorted(frontier):
            level = len(c) - 1
            cap = depth_cap(level, alpha)
            rec = cache.get(c) if cache is not None else None
            if rec is None or not rec.usable_for(cap, want):
                if c[:-1] != parent:
                    parent = c[:-1]
                    siblings = grow_children(parent, cap, want)
                rec = siblings[c[-1]]
                # share the frontier's tuple: an equal copy in every record
                # would double the memory the codewords take
                rec.codeword = c
                if cache is not None:
                    cache[c] = rec
            paths = _close_decision(rec, cap, alpha, mode)
            if paths is not None:
                closed.append(CertificateEntry(codeword=c, paths=paths))
            elif level >= max_weight:
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

"""Deterministic, checkpointable execution of the certificate search.

One in-process loop runs the search depth first, in canonical codeword
order: it keeps the open codewords as a stack with the least on top, and
closes, leaves stuck or splits each one in turn, each within its own
level's depth cap.  A split codeword's three children go on top, so a
codeword and everything below it are decided before its next sibling,
and the closed entries come in canonical order.  The trees of a group of
siblings are grown in one lookup of their parent's tree (three table
reads up to level 9, one walk above it), and the memo holds the one
int that lookup returns, under the bytes of the parent.  One read,
``_keys``, gives a codeword's leaf keys within its level's cap from its
parent's int, growing the group if the int is missing: the close
decision reads the codeword's own keys through it and renders the ones
it keeps as paths, and the strong companion reads those of the
codeword's prefixes.  A memo, the caller's cache or the search's own,
keeps every int grown into it for as long as it lives, so each group is
grown at most once, and is never asked past its cap.  Splitting a
codeword into its three one-digit extensions preserves the prefix-code
property, which is asserted as an exact Kraft identity, by the
verifier's count, once per search.

A run with a checkpoint writes the file whole once, as segment 0: the
entries it carries over and the codewords it starts from, in canonical
order.  Then it appends its decisions, ``closed`` entries and ``stuck``
codewords, in the order it makes them.  Every record, from the six roots
on, decides the least open codeword or a descendant of it, so the loader
derives the open codewords from the records alone and refuses any record
out of place at its line: every prefix of the file that ends at a newline
is a valid state, an exhaustive prefix code with no level-0 codeword.
Each closed entry is written once, and a checkpoint is about one
certificate's worth of text.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter

from .certify import (
    PLAIN,
    STRONG,
    Certificate,
    CertificateEntry,
    SearchOutcome,
    Unclosed,
    decode_text,
    depth_cap,
    entry_violations,
    kraft_mismatch,
    parse_entry,
    parse_records,
)
from .numth import MAX_CODEWORD_LEN, codeword_display, codeword_from_display
from .tree import grow_children, key_path, unpack_keys
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
    """The records of a v4 checkpoint, read in order.

    Every record is a decision on one codeword: a ``closed`` or ``stuck``
    one leaves the search, and an ``open`` one is set aside.  From the six
    roots on, depth first, each decision is the least open codeword or a
    descendant of it: a codeword above the decided one was split, and its
    later children are open.  So the open codewords are kept as the search
    keeps them, a stack with the least on top, and a record anywhere else
    is refused.  When the stack runs out, the codewords set aside become
    the stack, as a resumed run starts from them.
    """

    def __init__(self):
        self.todo = list(INITIAL_CODEWORDS[::-1])   # the least on top
        self.opened: list[tuple[int, ...]] = []    # set aside, ascending
        self.closed: list[CertificateEntry] = []
        self.stuck: list[tuple[int, ...]] = []

    def __call__(self, line: str) -> None:
        kind, _, rest = line.partition(" ")
        rest = rest.strip()
        if kind == "closed":
            entry = parse_entry(rest)
            codeword = entry.codeword
        elif kind in ("open", "stuck"):
            codeword = codeword_from_display(rest)
        else:
            raise ValueError(f"unknown record {kind!r}")
        todo = self.todo
        if not todo:
            todo.extend(reversed(self.opened))
            self.opened = []
        if not todo:
            raise ValueError(f"{kind} codeword {codeword_display(codeword)} "
                             f"where no codeword is open")
        while True:
            least = todo.pop()
            if codeword[:len(least)] != least:
                raise ValueError(
                    f"{kind} codeword {codeword_display(codeword)} is not at "
                    f"or below the least open codeword {codeword_display(least)}")
            if codeword == least:
                break
            todo.extend(least + (d,) for d in (2, 1, 0))
        if kind == "closed":
            self.closed.append(entry)
        elif kind == "stuck":
            self.stuck.append(codeword)
        else:
            self.opened.append(codeword)


def parse_checkpoint(text: str) -> CheckpointState:
    """Parse a v4 checkpoint; errors carry line numbers.

    A last line with no newline is a torn append, and is dropped: every
    line before it is whole, and any run of whole lines is a valid state.
    The open codewords are those set aside or still on the stack after the
    last record, in canonical order; closed entries and stuck codewords are
    listed in the order the file lists them.
    """
    log = _DecisionLog()
    mode, alpha = parse_records(text.split("\n")[:-1], "checkpoint", log, "v4")
    return CheckpointState(alpha=alpha, mode=mode,
                           open_codewords=sorted([*log.opened, *log.todo]),
                           closed=log.closed, stuck=log.stuck)


def load_checkpoint(path) -> CheckpointState:
    try:
        with open(path, "rb") as fh:
            text = decode_text(fh.read())
        return parse_checkpoint(text)
    except ValueError as exc:
        raise ValueError(f"checkpoint {path}: {exc}") from exc


def save_checkpoint(record: CheckpointState | list, path) -> None:
    """Write a search's checkpoint in the v4 format.

    A CheckpointState is written whole, as segment 0, to a file beside
    ``path`` that is then renamed over it: one line per closed entry,
    stuck codeword and open codeword, merged in canonical order, so a
    fresh run's segment 0 is its six roots, open.  A list of decisions,
    closed entries and stuck codewords in the order the search made them,
    is appended.
    """
    if not isinstance(record, CheckpointState):
        with open(path, "a", encoding="utf-8") as fh:
            fh.writelines(
                f"closed {d.to_line()}\n" if isinstance(d, CertificateEntry)
                else f"stuck {codeword_display(d)}\n" for d in record)
        return
    alpha = record.alpha
    records = [(e.word, f"closed {e.to_line()}") for e in record.closed]
    records.extend((bytes(c), f"stuck {codeword_display(c)}")
                   for c in record.stuck)
    records.extend((bytes(c), f"open {codeword_display(c)}")
                   for c in record.open_codewords)
    records.sort(key=itemgetter(0))
    lines = [f"checkpoint v4 mode={record.mode} "
             f"alpha={alpha.numerator}/{alpha.denominator}",
             *(line for _, line in records)]
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)


def stats(cert: Certificate) -> list[tuple[int, int]]:
    """Per-level population of a certificate: entries of level >= l', for
    each l'."""
    at = Counter(e.level for e in cert.entries)
    rows, count = [], 0
    for lv in range(max(at, default=0), 0, -1):
        count += at[lv]
        rows.append((lv, count))
    return rows[::-1]


def format_stats_csv(rows: list[tuple[int, int]]) -> str:
    return "level,count\n" + "".join(f"{lv},{n}\n" for lv, n in rows)


def _keys(memo: dict, caps: list[int], name: bytes, digit: int) -> list[int]:
    """The keys of the leaves of the parent named ``name`` extended by
    ``digit``, within that child's level's cap: the search's only read of
    the memo.  The memo is keyed by the bytes of a parent and holds each
    parent's packed record, grown at that cap if it is missing, which
    ``tree.unpack_keys`` decodes; siblings share a level and so a cap, so
    one record answers all three.  A record is never asked past its cap,
    within one search or across the sweep's (see ``SweepState``)."""
    cap = caps[len(name)]
    packed = memo.get(name)
    if packed is None:
        packed = memo[name] = grow_children(tuple(name), cap)
    return unpack_keys(packed, digit, cap)


def _close_decision(codeword: tuple[int, ...], memo: dict, caps: list[int],
                    mode: str) -> tuple[str, ...] | None:
    """Paths that close this codeword at this ratio, or None to split.

    The keys of its first full-weight leaves within its level's cap are
    read from its parent's record (``_keys``).  Plain mode closes on the
    first.  Strong mode needs two such leaves, or one leaf plus the
    canonically least lighter path of ones-ratio >= alpha that is not a
    prefix of it, which ``find_companion`` reads from the records of the
    codeword's prefixes.
    """
    wits = _keys(memo, caps, bytes(codeword)[:-1], codeword[-1])
    if mode == PLAIN:
        return (key_path(wits[0]),) if wits else None
    if len(wits) >= 2:
        return (key_path(wits[0]), key_path(wits[1]))
    if len(wits) == 1:
        companion = find_companion(codeword, memo, caps, wits[0])
        if companion is not None:
            # key order is canonical order
            return tuple(key_path(k) for k in sorted((wits[0], companion)))
    return None


def find_companion(codeword: tuple[int, ...], memo: dict, caps: list[int],
                   witness_key: int) -> int | None:
    """Canonically least path of weight < l with ones-ratio >= alpha.

    Returns the key of the smallest (depth, lex) node of weight w in 1..l-1
    and depth at most ``caps[w]`` that is not a prefix of the witness leaf
    whose key is ``witness_key``, or None.  Down to weight w a codeword's
    tree has the shape of the tree of its first w+1 digits, so the first
    weight-w nodes are that prefix's first two leaves, read by ``_keys``
    from the record of the prefix's parent, which the memo keeps for the
    whole run: grown when the search split that parent, or at the first
    read in a resumed or carried run that never split it.  The first may
    lie on the witness path, and then so may some of its 0-edge chain.  A
    candidate is taken only below the limit, at most the best so far, and
    a pad is the limit itself.

    The nodes searched are those of the unpruned tree.  For alpha <= 1/2
    the first qualifying one is also the first of the pruned tree, so that
    is the answer there; above 1/2, where pruning is not known to keep every
    candidate, the answer is the first qualifying node of the unpruned tree.
    """
    name = bytes(codeword)
    wd = witness_key.bit_length() - 1
    unset = best = 1 << (caps[len(codeword) - 1] + 1)
    for w in range(1, len(codeword) - 1):
        cap = caps[w]
        limit = min(best, 1 << (cap + 1))   # keys of depth <= cap lie below
        keys = _keys(memo, caps, name[:w], name[w])
        first, second = [*keys, limit, limit][:2]
        d = first.bit_length() - 1
        if d < wd and witness_key >> (wd - d) == first:
            # the witness runs on along first's 0-edge chain for ``zeros``
            # edges; the next node of that chain is the first one off its
            # path, and the second leaf is off it too
            zeros = wd - d - (witness_key & ((1 << (wd - d)) - 1)).bit_length()
            first = min(first << (zeros + 1), second)
        if first < limit:
            best = first
    return None if best == unset else best


def _check_resumable(state: CheckpointState, path) -> None:
    """Refuse a checkpoint whose closed entries would not verify at its
    ratio and mode.  The loader has already refused every record out of
    place, so its codewords form an exhaustive prefix code with none of
    level 0."""
    for e in state.closed:
        problems = entry_violations(e, state.alpha, state.mode)
        if problems:
            raise ValueError(f"checkpoint {path}: {problems[0]}")


def _carried(carry: Certificate, alpha: Fraction,
             mode: str) -> tuple[list, list[CertificateEntry]]:
    """The codewords a search at ``alpha`` decides again, sorted, and the
    entries it keeps, from the certificate of an earlier search (see
    ``run``)."""
    if carry.mode != mode:
        raise ValueError(f"cannot carry a {carry.mode} certificate into a "
                         f"{mode} search")
    if carry.alpha > alpha:
        raise ValueError(f"cannot carry a certificate at alpha={carry.alpha} "
                         f"into a search at alpha={alpha}")
    an, ad = alpha.numerator, alpha.denominator
    start, closed = [], []
    for e in carry.entries:
        # no path reads as one empty path, which is below no ratio
        for p in (e.path_text or "").split(" "):
            if p.count("1") * ad < an * len(p):
                start.append(e.codeword)
                break
        else:
            closed.append(e)
    return sorted(start), closed


def run(
    alpha: Fraction,
    max_weight: int,
    mode: str = PLAIN,
    checkpoint_path: str | None = None,
    cache: dict | None = None,
    stop_at_stuck: bool = False,
    carry: Certificate | None = None,
) -> SearchOutcome:
    """Run the certificate search, depth first in canonical codeword order.

    A codeword is decided, and split if it must be, before its next
    sibling.  Returns a Certificate when every codeword closes, and an
    Unclosed report listing the codewords stuck at the weight cap, in
    canonical order, the order the search meets them, otherwise; with
    ``stop_at_stuck`` the search returns at the first stuck codeword, the
    least one, and reports only that one.  The result
    is a pure function of (alpha, mode, max_weight, stop_at_stuck): resume
    points and a carry cannot change a single byte of it.  A search from
    the roots splits no codeword of weight ``max_weight``, so one that a
    resume or a carry starts from or keeps past it is refused with
    ValueError, naming the codeword and both weights (and the checkpoint,
    for a resume), before anything is decided or written.

    The checkpoint, if any, is written whole once, from the codewords the
    run starts from and the entries it carries over; then the decisions
    are appended in the order they are made, just before each codeword of
    level 2 or less is decided and once at the end.  Resumed, a codeword
    that was stuck is open again, so a larger ``max_weight`` continues it.

    ``carry``, a certificate this search returned in the same mode, to
    at most ``max_weight`` and at a ratio at most ``alpha`` (the sweep's
    champion, labelled with its least path ratio, which is no lower),
    starts the run as a resume would, when there is no checkpoint to
    resume: the entries with a path of ratio below ``alpha`` are open
    again, and every other entry is kept as closed, unreplayed.
    Monotonicity in alpha makes that the same search, for a ratio t and
    any higher t':
    - a codeword that closes at t' closes at t, so one split at t is
      split at t', as are the ancestors of every entry: caps only fall as
      alpha rises, and the witness at t' is the same first leaf at t, with
      a companion found at t' a candidate at t;
    - an entry closed at t with every path of ratio t' or more is decided
      at t' with the same paths: its first leaf (and in plain mode its one
      path) is still within the cap, and the least companion at t is
      still a candidate at t', whose candidates are a subset of those at t.
    A carry in another mode or at a higher ratio is refused with
    ValueError.

    Growth records are memoised by parent, one packed int for each group
    of siblings under the bytes of the parent: in ``cache`` when the
    caller passes one, to share them across searches that never ask a
    record past its cap, as the sweep's never do, and otherwise in a memo
    of the search's own.  Either keeps every record grown into it.
    """
    if mode not in (PLAIN, STRONG):
        raise ValueError(f"unknown mode {mode!r}")
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if not 1 <= max_weight <= MAX_CODEWORD_LEN:
        raise ValueError(f"max_weight must be within [1, {MAX_CODEWORD_LEN}]")

    start: list[tuple[int, ...]] = list(INITIAL_CODEWORDS)
    closed: list[CertificateEntry] = []
    resumed = bool(checkpoint_path) and os.path.exists(checkpoint_path)
    if resumed:
        state = load_checkpoint(checkpoint_path)
        if state.alpha != alpha or state.mode != mode:
            raise ValueError(
                f"checkpoint {checkpoint_path} was taken at "
                f"alpha={state.alpha} mode={state.mode}, refusing to resume "
                f"at alpha={alpha} mode={mode}")
        _check_resumable(state, checkpoint_path)
        start = sorted([*state.open_codewords, *state.stuck])
        closed = state.closed
    elif carry is not None:
        start, closed = _carried(carry, alpha, mode)
    top = max([*start, *(e.word for e in closed)], key=len, default=())
    if len(top) - 1 > max_weight:
        source = f"checkpoint {checkpoint_path}: " if resumed else ""
        raise ValueError(f"{source}cannot carry codeword "
                         f"{codeword_display(top)} of weight {len(top) - 1} "
                         f"into a search to max_weight {max_weight}")
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
        paths = _close_decision(c, memo, caps, mode)
        if paths is not None:
            closed.append(CertificateEntry(bytes(c), paths))
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

    total = kraft_mismatch([*todo, *stuck, *(e.word for e in closed)])
    if total is not None:
        raise AssertionError(f"Kraft invariant broken: sum = {total}")
    if stuck:
        return Unclosed(alpha=alpha, mode=mode, max_weight=max_weight,
                        open_codewords=stuck)
    return Certificate(alpha=alpha, mode=mode, entries=closed).sorted_canonically()

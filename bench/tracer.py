"""Span tracing of collatzcert from outside the package.

The tracer swaps module and class attributes for timing wrappers and puts
the originals back in ``restore``.  It never edits the package: every span
is recorded at a call from one layer into another, kept in memory, and
written out when the repetition ends.  Counters are read from the values
that cross the same boundaries (growth records, close decisions, file
sizes), so ratios are measured where the work happens.

Layers are the package modules ``tree``, ``engine``, ``certify`` and
``cli``; a span's layer is the part of its name before the first dot.
``find_companion`` lives in ``tree`` but only the engine's close decision
calls it, so its span is reported as ``engine.companion``.
"""

from __future__ import annotations

import functools
import json
import multiprocessing.pool
import os
from collections import Counter
from time import perf_counter

LAYERS = ("tree", "engine", "certify", "cli")


class Tracer:
    def __init__(self):
        self.spans: list = []            # (name, start, end, parent index)
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.frontier_peak = 0
        self.span_level: dict[int, int] = {}
        self._saved: list = []

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` by ``traced`` of it."""
        fn = getattr(owner, attr)
        self._swap(owner, attr, fn, self.traced(fn, name, on_result))

    def traced(self, fn, name: str, on_result=None):
        """``fn`` wrapped so that each call records span ``name``.

        ``on_result(index, args, kwargs, result)`` runs after the span
        closes, so its cost lands in the caller's self time.
        """
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if on_result is not None:
                on_result(idx, args, kwargs, result)
            return result

        return traced

    def count(self, owner, attr: str, on_result) -> None:
        """Replace ``owner.attr`` by a wrapper that only counts, no span."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_result(None, args, kwargs, result)
            return result

        self._swap(owner, attr, fn, counted)

    def _swap(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._saved.append((owner, attr, original))

    def restore(self) -> list[str]:
        """Put every original back; returns the attributes that failed to."""
        bad = []
        saved, self._saved = self._saved, []
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        for owner, attr, original in saved:
            if getattr(owner, attr) is not original:
                bad.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return bad

    def self_times(self) -> tuple[Counter, Counter, Counter, Counter]:
        """Calls, inclusive and self seconds per span name; self seconds per layer."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, incl, own, layer = Counter(), Counter(), Counter(), Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            dur = end - start
            calls[name] += 1
            incl[name] += dur
            own[name] += dur - child[i]
            layer[name.split(".", 1)[0]] += dur - child[i]
        return calls, incl, own, layer

    def write(self, path) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
        os.replace(tmp, path)

    # -- counters fed from the wrapped calls ---------------------------------

    def note_growth(self, record, cap: int, want: int) -> None:
        c = self.counts
        c["grows"] += 1
        c["nodes"] += record.nodes_expanded
        if len(record.witnesses_within(cap)) >= want:
            c["grow_yield"] += 1
        if record.frontier_peak > self.frontier_peak:
            self.frontier_peak = record.frontier_peak


def install(tracer: Tracer, cli, certify, engine) -> None:
    """Wrap every layer boundary of collatzcert that the benchmark reports."""
    c = tracer.counts

    def on_grow(_idx, args, kwargs, record):
        cap = args[1] if len(args) > 1 else kwargs["depth_cap"]
        want = args[2] if len(args) > 2 else kwargs.get("want_witnesses", 1)
        tracer.note_growth(record, cap, want)

    def on_decide(_idx, _args, _kwargs, paths):
        c["decisions"] += 1
        c["closes"] += paths is not None

    def on_checkpoint(_idx, args, _kwargs, _result):
        c["checkpoint_bytes"] += os.path.getsize(args[1])

    def on_search(_idx, _args, _kwargs, outcome):
        c["searches"] += 1
        c["searches_closed"] += isinstance(outcome, certify.Certificate)

    def on_level(idx, args, _kwargs, _result):
        tracer.span_level[idx] = args[1]

    def on_to_text(_idx, _args, _kwargs, text):
        c["cert_bytes"] += len(text.encode("utf-8"))

    def on_replay(_idx, args, _kwargs, violation):
        c["replayed_edges"] += (len(args[1]) if violation is None
                                else violation.position or 0)

    def on_pool_map(_idx, args, _kwargs, records):
        # growths on pool workers would take their spans with them, so
        # they are counted here from the records the pool hands back
        for work, record in zip(args[2], records):
            _codeword, cap, want = work[:3]
            tracer.note_growth(record, cap, want)

    w = tracer.wrap
    w(cli, "main", "cli.main")
    w(cli, "verify", "certify.verify")
    w(cli, "load_certificate", "certify.parse")
    w(cli, "save_certificate", "certify.save")
    w(certify, "search", "certify.search", on_search)
    w(certify.SweepState, "_run_level", "certify.level", on_level)
    w(certify.Certificate, "to_text", "certify.to_text", on_to_text)
    w(engine, "run", "engine.run")
    w(engine, "_close_decision", "engine.decide", on_decide)
    w(engine, "find_companion", "engine.companion")
    w(engine, "save_checkpoint", "engine.checkpoint", on_checkpoint)
    w(engine, "load_checkpoint", "certify.parse")
    w(engine, "grow_record", "tree.grow", on_grow)
    # the engine's pool is the only process pool in the process
    w(multiprocessing.pool.Pool, "map", "engine.pool_map", on_pool_map)
    tracer.count(certify, "replay_path", on_replay)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced repetition, by name."""
    calls, incl, own, layer = tracer.self_times()
    c = tracer.counts
    grows, decisions = c["grows"], c["decisions"]
    levels = sorted(set(tracer.span_level.values()), reverse=True)
    level_s = Counter()
    for idx, lv in tracer.span_level.items():
        _name, start, end, _parent = tracer.spans[idx]
        level_s[lv] += end - start
    top = [level_s[lv] for lv in levels[:3]] + [0.0] * 3
    return {
        "tree.grow_calls": grows,
        "tree.grow_s": incl["tree.grow"],
        "tree.nodes_expanded": c["nodes"],
        "tree.frontier_peak": tracer.frontier_peak,
        "tree.witness_yield": c["grow_yield"] / grows if grows else 0.0,
        "engine.decisions": decisions,
        "engine.cache_hit_ratio": 1 - grows / decisions if decisions else 0.0,
        "engine.decide_s": incl["engine.decide"],
        "engine.companion_calls": calls["engine.companion"],
        "engine.companion_s": incl["engine.companion"],
        "engine.close_ratio": c["closes"] / decisions if decisions else 0.0,
        "engine.merge_s": own["engine.run"],
        "engine.checkpoint_writes": calls["engine.checkpoint"],
        "engine.checkpoint_s": incl["engine.checkpoint"],
        "engine.checkpoint_bytes": c["checkpoint_bytes"],
        "engine.pool_wait_s": incl["engine.pool_map"],
        "engine.self_s": layer["engine"],
        "certify.searches": c["searches"],
        "certify.search_yield": (c["searches_closed"] / c["searches"]
                                 if c["searches"] else 0.0),
        "certify.level_s.top": top[0],
        "certify.level_s.top-1": top[1],
        "certify.level_s.top-2": top[2],
        "certify.verify_s": incl["certify.verify"],
        "certify.replayed_edges": c["replayed_edges"],
        "certify.parse_s": incl["certify.parse"],
        "certify.to_text_s": incl["certify.to_text"],
        "certify.cert_bytes": c["cert_bytes"],
        "certify.self_s": layer["certify"],
        "cli.self_s": layer["cli"],
        "tree.self_s": layer["tree"],
    }

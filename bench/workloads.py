"""The benchmark's workloads, written as plain-data specs.

A spec is a list of collatzcert commands plus what their outputs must be.
It is pure data (JSON), so a child process can run it and the self-test
can run toy sizes or tamper with an expectation.

Every expectation is fixed in advance: the sweep rows come from the
published tables in ``tests/tables.py`` (imported, not copied), the rows
past those tables and the certificate digests are pinned here.  The same
certificate text comes out of the sweep's top level and out of a cold
search at that ratio, so one digest per mode serves both.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from tables import (  # noqa: E402
    PLAIN_SWEEP_ROWS,
    STRONG_SWEEP_ROWS,
    reference_plain_text,
)

# (level, ratio, size, max-depth) for levels past the published tables
PINNED_ROWS = {
    "plain": [(16, "16/37", 10646, 37)],
    "strong": [(13, "13/31", 8020, 31)],
}
# sha256 of the certificate text
DIGESTS = {
    ("plain", "16/37"): "db78eb1684c4bcd83f012470c86dcd240b62bd196613221a3c10ddf87a3df95a",
    ("strong", "13/31"): "9506f6cf4d2c22350f6517d85563e1c95ce41e808d21d0eaaa0a56a8d6f2ef1e",
    # toy sizes, for the self-test
    ("plain", "5/14"): "6ec06573d0c121643cc15bc6e5e3ad32fbb262b780cddbd96d7028528f65e0c1",
    ("plain", "1/3"): hashlib.sha256(reference_plain_text().encode()).hexdigest(),
    ("strong", "1/3"): "6ab7fc1e90baa139e80c199bd6b20db1e0631f08710d3dead1535d5592bf8c2e",
}

WORKLOADS = ("sweep-plain", "sweep-strong", "search-verify", "search-pool")


def _ratio(f) -> str:
    return f"{f.numerator}/{f.denominator}"


def _rows(mode: str, level: int) -> list:
    table = PLAIN_SWEEP_ROWS if mode == "plain" else STRONG_SWEEP_ROWS
    rows = [[lv, _ratio(a), size, depth] for lv, a, size, depth in table]
    rows += [list(r) for r in PINNED_ROWS[mode]]
    return [r for r in rows if r[0] <= level]


def _sweep(mode: str, level: int) -> dict:
    rows = _rows(mode, level)
    if rows[-1][0] != level:
        raise ValueError(f"no expected {mode} row for level {level}")
    return {"cmd": "max-alpha", "mode": mode, "level": level, "rows": rows,
            "digest": DIGESTS[(mode, rows[-1][1])]}


def _search(mode: str, alpha: str, max_weight: int, workers: int,
            readback: bool) -> dict:
    return {"cmd": "search", "mode": mode, "alpha": alpha,
            "max_weight": max_weight, "workers": workers,
            "readback": readback, "digest": DIGESTS[(mode, alpha)]}


def _verify(mode: str, size: int) -> dict:
    return {"cmd": "verify", "mode": mode, "size": size}


def spec(workload: str, toy: bool = False) -> dict:
    """The spec of one workload; ``toy`` shrinks it to a few milliseconds."""
    if toy:
        plain, strong = ("1/3", 5, 12), ("1/3", 5, 36)
        sweep_plain, sweep_strong = 6, 5
    else:
        plain, strong = ("16/37", 16, 10646), ("13/31", 13, 8020)
        sweep_plain, sweep_strong = 16, 13
    if workload == "sweep-plain":
        steps = [_sweep("plain", sweep_plain)]
    elif workload == "sweep-strong":
        steps = [_sweep("strong", sweep_strong)]
    elif workload == "search-verify":
        steps = [_search("plain", *plain[:2], 1, True),
                 _search("strong", *strong[:2], 1, True),
                 _verify("plain", plain[2]),
                 _verify("strong", strong[2])]
    elif workload == "search-pool":
        # two workers, never more than the processors this process may use
        workers = min(2, len(os.sched_getaffinity(0)))
        steps = [_search("plain", *plain[:2], workers, False),
                 _search("strong", *strong[:2], workers, False)]
    else:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    return {"workload": workload, "steps": steps}

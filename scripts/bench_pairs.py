"""Run the benchmark on two checkouts in alternating pairs and write one
BENCH file: every run, and per workload and metric the medians, quartiles
and the number of pairs in which the change read lower, and the paired
verdict: the median of the per-pair ratios of change to parent, minus 1,
with its sign-test interval.

Usage:

    python3 scripts/bench_pairs.py --parent DIR --change DIR \\
        --workloads search-verify,sweep-plain --pairs 10 --out BENCH_N.json

Pair i runs ``python3 bench/run.py --workload W --seed i --seconds S
--trace 0`` once in each checkout, the parent first in odd pairs and the
change first in even ones, so that a drift in the host's load falls on
both sides.  Before any run, both checkouts are compiled to bytecode:
``setup_s`` is the time a fresh process takes to import the package, and a
checkout without compiled bytecode would pay for compiling it in every
repetition.

The sign-test interval of the median per-pair ratio runs from order
statistic k to order statistic n+1-k of the n ratios, and covers the median
with probability exactly 1 - 2 P(Bin(n, 1/2) <= k-1) whatever their
distribution.  k is the largest value that keeps that coverage at 95% or
more: for 10 pairs, order statistics 2 and 9, with coverage 97.9%.  Below 6
pairs no k does, and the interval is null.  Standard library only.  Exits 1
if any run failed or reported ``correct`` other than true.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from math import comb
from pathlib import Path

SIDES = ("parent", "change")
METRICS = ("setup_s", "total_s", "cpu_s", "peak_rss_mb")
# the least coverage of a reported sign-test interval
COVERAGE = 0.95
# room for bench/run.py's own watchdog, which stops a child after 150 s
RUN_TIMEOUT_SLACK_S = 600


def _commit(checkout: Path) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def compile_checkout(checkout: Path) -> None:
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "bench",
                    "tests"], cwd=checkout, check=True,
                   stdout=subprocess.DEVNULL)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` result object, or a failed stand-in."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    try:
        done = subprocess.run(cmd, cwd=checkout, capture_output=True,
                              text=True, timeout=seconds + RUN_TIMEOUT_SLACK_S)
    except subprocess.TimeoutExpired:
        return {"correct": False, "error": "timed out"}
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = done.stderr.strip().splitlines()[-1:] or [""]
        return {"correct": False,
                "error": f"exit {done.returncode}: {tail[0]}"}


def _spread(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": round(statistics.median(values), 4),
            "q1": round(q1, 4), "q3": round(q3, 4), "n": len(values)}


def sign_interval(fracs: list[float]) -> dict | None:
    """The sign-test interval of the median of ``fracs``, order statistics
    k and n+1-k with k as large as keeps the exact coverage at or above
    COVERAGE, or None when no k does."""
    n = len(fracs)
    found = None
    below = 0                         # 2^n P(Bin(n, 1/2) <= k-1)
    for k in range(1, (n + 1) // 2 + 1):
        below += comb(n, k - 1)
        coverage = 1 - 2 * below / 2 ** n
        if coverage < COVERAGE:
            break
        found = k, coverage
    if found is None:
        return None
    k, coverage = found
    ordered = sorted(fracs)
    return {"low": round(ordered[k - 1], 4), "high": round(ordered[n - k], 4),
            "order_statistics": [k, n + 1 - k],
            "coverage": round(coverage, 4)}


def summarise(runs: list[dict], workload: str) -> dict:
    by_seed: dict[int, dict[str, dict]] = {}
    for run in runs:
        if run["workload"] == workload:
            by_seed.setdefault(run["seed"], {})[run["side"]] = run["result"]
    out: dict = {}
    for metric in METRICS:
        values = {side: [] for side in SIDES}
        lower = compared = 0
        fracs = []                    # change / parent - 1, pair by pair
        for sides in by_seed.values():
            got = {side: sides.get(side, {}).get("metrics", {}).get(metric)
                   for side in SIDES}
            for side in SIDES:
                if got[side] is not None:
                    values[side].append(got[side]["value"])
            if None not in got.values():
                compared += 1
                change, parent = got["change"]["value"], got["parent"]["value"]
                lower += change < parent
                if parent:
                    fracs.append(change / parent - 1)
        if not values["parent"] or not values["change"]:
            continue
        entry = {side: _spread(values[side]) for side in SIDES}
        entry["change_lower_in_pairs"] = f"{lower}/{compared}"
        entry["median_change_frac"] = round(
            entry["change"]["median"] / entry["parent"]["median"] - 1, 4)
        entry["median_pair_frac"] = (round(statistics.median(fracs), 4)
                                     if fracs else None)
        entry["pair_frac_interval"] = sign_interval(fracs)
        out[metric] = entry
    results = [sides[side] for sides in by_seed.values() for side in sides]
    out["all_correct"] = all(r.get("correct") is True for r in results)
    out["failed"] = sum(r.get("failed", 1) for r in results)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True,
                        help="checkout of the change")
    parser.add_argument("--workloads", required=True,
                        help="comma-separated workload names")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="bench/run.py --seconds (default 30)")
    parser.add_argument("--out", type=Path, required=True,
                        help="the BENCH json file to write")
    parser.add_argument("--note", default="",
                        help="what the change is, for the file's 'change' field")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    workloads = [w for w in args.workloads.split(",") if w]
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, checkout in checkouts.items():
        if not (checkout / "bench" / "run.py").is_file():
            parser.error(f"--{side} {checkout} has no bench/run.py")
        compile_checkout(checkout)

    runs = []
    for workload in workloads:
        for seed in range(1, args.pairs + 1):
            order = SIDES if seed % 2 else SIDES[::-1]
            for side in order:
                result = run_once(checkouts[side], workload, seed, args.seconds)
                runs.append({"side": side, "workload": workload, "seed": seed,
                             "trace": 0, "result": result})
                total = result.get("metrics", {}).get("total_s", {}).get("value")
                print(f"{workload} pair {seed} {side}: correct="
                      f"{result.get('correct')} total_s={total}", file=sys.stderr)

    report = {
        "change": args.note,
        "parent_commit": _commit(checkouts["parent"]),
        "change_commit": _commit(checkouts["change"]),
        "host": {"cpu": _cpu_model(), "vcpus": os.cpu_count(),
                 "os": f"{platform.system()} {platform.release()}"},
        "python": platform.python_version(),
        "method": ("both checkouts compiled to bytecode first; pairs "
                   "alternate which side runs first; pair i uses --seed i"),
        "commands": {"trace0": "python3 bench/run.py --workload W --seed I "
                               f"--seconds {args.seconds:g} --trace 0"},
        "pairs": {w: args.pairs for w in workloads},
        "summary": {w: summarise(runs, w) for w in workloads},
        "runs": runs,
    }
    tmp = args.out.with_name(args.out.name + ".tmp")
    tmp.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    os.replace(tmp, args.out)
    return 0 if all(r["result"].get("correct") is True for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())

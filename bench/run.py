"""collatzcert benchmark: the real jobs, timed end to end, every output checked.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are listed in ``bench/README.md``.  Each repetition runs in a
fresh child process (``bench/child.py``); repetitions follow one another
until S seconds have passed, and every metric is the median over them.
With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing.  With ``--trace 1`` untraced and traced repetitions alternate, and
the metrics are the per-layer ones from the traced repetitions, plus the
tracing overhead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a
failed check counts in ``failed`` and is reported on standard error.

The workloads are the published instances, so the seed changes only the
names of the files a repetition writes: the same seed gives the same
inputs, and so does every other seed.  The benchmark needs the package in
``src/`` and the published tables in ``tests/tables.py``, and exits with
code 2 without a result when either is missing.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
NEEDED = (ROOT / "src" / "collatzcert" / "__init__.py", ROOT / "tests" / "tables.py")
CHILD_TIMEOUT_S = 150
# extra set-up-only processes per run, so that setup_s is a median of many
SETUP_SAMPLES = 5

END_TO_END = {
    "setup_s": "s",
    "total_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
COUNT_METRICS = (
    "tree.grow_calls", "tree.nodes_expanded", "tree.frontier_peak",
    "engine.decisions", "engine.companion_calls", "engine.checkpoint_writes",
    "engine.checkpoint_bytes", "certify.searches", "certify.replayed_edges",
    "certify.cert_bytes",
)
PER_LAYER = {
    "tree.grow_calls": "count",
    "tree.grow_s": "s",
    "tree.nodes_expanded": "count",
    "tree.frontier_peak": "count",
    "tree.witness_yield": "frac",
    "tree.self_s": "s",
    "engine.decisions": "count",
    "engine.cache_hit_ratio": "frac",
    "engine.decide_s": "s",
    "engine.companion_calls": "count",
    "engine.companion_s": "s",
    "engine.close_ratio": "frac",
    "engine.merge_s": "s",
    "engine.checkpoint_writes": "count",
    "engine.checkpoint_s": "s",
    "engine.checkpoint_bytes": "bytes",
    "engine.pool_wait_s": "s",
    "engine.self_s": "s",
    "certify.searches": "count",
    "certify.search_yield": "frac",
    "certify.level_s.top": "s",
    "certify.level_s.top-1": "s",
    "certify.level_s.top-2": "s",
    "certify.verify_s": "s",
    "certify.replayed_edges": "count",
    "certify.parse_s": "s",
    "certify.to_text_s": "s",
    "certify.cert_bytes": "bytes",
    "certify.self_s": "s",
    "cli.self_s": "s",
    "cli.search_plain_s": "s",
    "cli.search_strong_s": "s",
    "cli.verify_s": "s",
    "traced_total_s": "s",
    "trace_overhead_frac": "frac",
}
# untraced wall time of one CLI command, by (command, mode)
COMMAND_METRICS = {
    ("search", "plain"): "cli.search_plain_s",
    ("search", "strong"): "cli.search_strong_s",
    ("verify", "plain"): "cli.verify_s",
    ("verify", "strong"): "cli.verify_s",
}


def run_rep(spec: dict, seed: int, rep: int, mode: str) -> dict:
    """One repetition in a fresh process (see child.py for ``mode``); adds
    ``setup_s``, the time from spawning it to its ``ready`` line."""
    workdir = OUT / "work" / f"{spec['workload']}-seed{seed}-{mode}{rep}"
    shutil.rmtree(workdir, ignore_errors=True)
    spans = OUT / f"spans-{spec['workload']}.jsonl"
    cmd = [sys.executable, str(BENCH / "child.py"), json.dumps(spec), mode,
           str(workdir), str(spans)]
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = perf_counter() - start
            lines = proc.stdout.read().splitlines()
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:       # interrupted: never leave it running
                proc.kill()
    shutil.rmtree(workdir, ignore_errors=True)
    if ready.strip() != "ready" or proc.returncode != 0 or not lines:
        return {"mode": mode, "crashed": f"child exited {proc.returncode}"}
    result = json.loads(lines[-1])
    result.update(mode=mode, setup_s=setup_s)
    return result


def measure(spec: dict, seed: int, seconds: float, trace: bool) -> dict | None:
    """Run repetitions for ``seconds`` and summarise them as the result object.

    Returns None when no repetition of a needed kind finished.
    """
    OUT.mkdir(parents=True, exist_ok=True)
    start = perf_counter()
    setups = [run_rep(spec, seed, i, "setup") for i in range(SETUP_SAMPLES)]
    reps = []
    while True:
        mode = "traced" if trace and len(reps) % 2 == 1 else "untraced"
        rep = run_rep(spec, seed, len(reps), mode)
        reps.append(rep)
        print(f"rep {len(reps) - 1} {mode} "
              + " ".join(f"{k}={rep[k]:.4f}" for k in ("setup_s", "total_s")
                         if k in rep), file=sys.stderr)
        elapsed = perf_counter() - start
        # stop before a repetition that would end past the measuring time
        if elapsed * (len(reps) + 1) / len(reps) > seconds and (
                not trace or len(reps) >= 2):
            break

    attempted = failed = 0
    for i, rep in enumerate(setups + reps):
        if "crashed" in rep:
            attempted += 1
            failed += 1
            print(f"{rep['mode']} #{i}: FAILED: {rep['crashed']}", file=sys.stderr)
            continue
        attempted += rep.get("attempted", 0)
        failed += len(rep.get("failures", ()))
        for what in rep.get("failures", ()):
            print(f"{rep['mode']} #{i}: FAILED: {what}", file=sys.stderr)
    ok = [r for r in setups + reps if "crashed" not in r]
    plain = [r for r in ok if r["mode"] == "untraced"]
    traced = [r["layers"] for r in ok if r["mode"] == "traced"]
    if not plain or (trace and not traced):
        return None

    if not trace:
        metrics = {name: statistics.median(
                       r[name] for r in (ok if name == "setup_s" else plain))
                   for name in END_TO_END}
        units = END_TO_END
    else:
        for layers in traced[1:]:
            attempted += 1
            moved = [n for n in COUNT_METRICS if layers[n] != traced[0][n]]
            if moved:
                failed += 1
                print(f"FAILED: exact counts differ between repetitions: {moved}",
                      file=sys.stderr)
        # exact counts are the same in every repetition, checked above
        metrics = {name: traced[0][name] if name in COUNT_METRICS
                   else statistics.median(t[name] for t in traced)
                   for name in traced[0]}
        for name in set(COMMAND_METRICS.values()):
            metrics[name] = statistics.median(
                sum(s["s"] for s in r["steps"]
                    if COMMAND_METRICS.get((s["cmd"], s["mode"])) == name)
                for r in plain)
        untraced_total = statistics.median(r["total_s"] for r in plain)
        metrics["trace_overhead_frac"] = (
            metrics["traced_total_s"] / untraced_total - 1)
        units = PER_LAYER
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in NEEDED if not p.exists()]
    if missing:
        print(f"error: {', '.join(missing)} not found; run from the root of a "
              "full collatzcert checkout", file=sys.stderr)
        return 2

    import workloads

    try:
        spec = workloads.spec(args.workload)
    except ValueError as exc:
        parser.error(str(exc))
    result = measure(spec, args.seed, args.seconds, bool(args.trace))
    if result is None:
        print("error: no repetition finished", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

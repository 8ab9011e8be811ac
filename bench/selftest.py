"""Self-test of the benchmark at toy sizes, in a few seconds.

Usage, from the root of a checkout: python3 bench/selftest.py

Runs every workload at toy sizes (a plain sweep to level 6, a strong sweep
to level 5, ratio-1/3 searches with max-weight 5), untraced and traced, and
checks that each prints every metric BENCHMARK.json names, with its unit,
and fails no check.  Then it corrupts one expected certificate digest and
checks that the failure is counted without stopping the other checks, and
that the benchmark refuses to run without the package beside it.  Exits 0
when all of that holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import workloads


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def main() -> int:
    problems = []
    clean_attempts = None
    for name in workloads.WORKLOADS:
        spec = workloads.spec(name, toy=True)
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            result = run.measure(spec, seed=0, seconds=0, trace=trace)
            where = f"{name} trace={int(trace)}"
            if result is None:
                problems.append(f"{where}: no result")
                continue
            json.dumps(result)
            printed = {n: m["unit"] for n, m in result["metrics"].items()}
            if printed != _declared(kind):
                problems.append(f"{where}: metrics {printed} != declared "
                                f"{_declared(kind)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: {result['failed']} checks failed")
            if kind == "end_to_end" and not all(
                    m["value"] > 0 for m in result["metrics"].values()):
                problems.append(f"{where}: an end-to-end metric is not positive")
            if (name, trace) == ("search-verify", False):
                clean_attempts = result["attempted"]

    corrupt = workloads.spec("search-verify", toy=True)
    corrupt["steps"][0]["digest"] = "0" * 64
    result = run.measure(corrupt, seed=0, seconds=0, trace=False)
    if result is None or result["correct"] or not result["failed"] > 0:
        problems.append("a corrupted digest did not raise the failed fraction")
    elif result["attempted"] != clean_attempts:
        problems.append("a corrupted digest stopped other checks")

    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep-plain",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("the benchmark ran without the package beside it")

    for p in problems:
        print(f"FAILED: {p}")
    print("selftest " + ("failed" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""One repetition of one benchmark workload, in a fresh process.

Usage: python3 bench/child.py SPEC_JSON MODE WORKDIR SPANS_FILE

MODE is ``untraced``, ``traced`` or ``setup``.  Prints ``ready`` once
imports and inputs are prepared; in ``setup`` mode it stops there.
Otherwise it runs the spec's collatzcert commands through ``cli.main`` in
this process, traced or not, checks their outputs, and prints one JSON line
with the timings, the checks attempted and the failures.  A failed check is
reported and counted; it never stops the repetition.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

# tolerated gap between the sum of layer self times and the traced total,
# which also holds the benchmark's own loop between commands: 1% of the
# total plus 1 ms per command
SELF_TIME_SLACK = 0.01
SELF_TIME_SLACK_PER_STEP_S = 0.001


def _argv(step: dict, workdir: Path) -> list[str]:
    mode = step["mode"]
    cert = str(workdir / f"{mode}.cert")
    strong = ["--strong"] if mode == "strong" else []
    if step["cmd"] == "max-alpha":
        return ["max-alpha", "--level", str(step["level"]), *strong,
                "--out", cert]
    if step["cmd"] == "search":
        return ["search", "--alpha", step["alpha"], *strong,
                "--max-weight", str(step["max_weight"]),
                "--workers", str(step["workers"]),
                "--checkpoint", str(workdir / f"{mode}.ckpt"), "--out", cert]
    return ["verify", *strong, cert]


def _cpu_and_rss() -> tuple[float, float]:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, (own.ru_maxrss + kids.ru_maxrss) / 1024


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _check_sweep(checks: Checks, step: dict, out: str, sweeps: list) -> None:
    top = step["rows"][-1]
    checks.expect(out == f"{top[1]} {top[2]} {top[0]} {top[3]}\n",
                  f"max-alpha printed {out.strip()!r}, want row {top}")
    results = sweeps[-1].results if sweeps else {}
    for level, ratio, size, depth in step["rows"]:
        if level not in results:
            checks.expect(False, f"{step['mode']} level {level}: no result")
            continue
        alpha, cert = results[level]
        got = [level, f"{alpha.numerator}/{alpha.denominator}", cert.size,
               cert.max_depth()]
        checks.expect(got == [level, ratio, size, depth]
                      and cert.max_weight() <= level,
                      f"{step['mode']} level {level}: row {got}, want "
                      f"{[level, ratio, size, depth]}")


def _check_readback(checks: Checks, step: dict, state, text: str, certify) -> None:
    if state is None:
        checks.expect(False, f"{step['mode']} checkpoint: not read back")
        return
    whole = certify.Certificate(alpha=state.alpha, mode=state.mode,
                                entries=list(state.closed))
    checks.expect(not state.open_codewords
                  and whole.sorted_canonically().to_text() == text,
                  f"{step['mode']} checkpoint does not hold the whole certificate")


def run(spec: dict, mode: str, workdir: Path, spans_path: str) -> dict:
    from collatzcert import certify, cli, engine

    import tracer as tracing

    workdir.mkdir(parents=True)
    steps = [(step, _argv(step, workdir)) for step in spec["steps"]]
    sweeps: list = []
    real_sweep_state = cli.SweepState

    def sweep_state(*args, **kwargs):
        state = real_sweep_state(*args, **kwargs)
        sweeps.append(state)
        return state

    cli.SweepState = sweep_state
    tracer = tracing.Tracer() if mode == "traced" else None
    if tracer is not None:
        tracing.install(tracer, cli, certify, engine)
    print("ready", flush=True)
    if mode == "setup":
        shutil.rmtree(workdir)
        return {}

    outputs = []
    cpu0, _ = _cpu_and_rss()
    t0 = perf_counter()
    for step, argv in steps:
        out = io.StringIO()
        s0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            traceback.print_exc()
            rc = "exception"
        s1 = perf_counter()
        state = None
        if step.get("readback"):
            try:
                state = engine.load_checkpoint(workdir / f"{step['mode']}.ckpt")
            except (OSError, ValueError):
                traceback.print_exc()
        outputs.append((rc, out.getvalue(), s1 - s0, state))
    total = perf_counter() - t0
    cpu1, rss = _cpu_and_rss()

    checks = Checks()
    unrestored = tracer.restore() if tracer is not None else []
    cli.SweepState = real_sweep_state
    checks.expect(not unrestored, f"attributes left wrapped: {unrestored}")

    for (step, argv), (rc, out, _, state) in zip(steps, outputs):
        label = f"{step['cmd']} {step['mode']}"
        checks.expect(rc == 0, f"{label}: exit {rc}")
        if step["cmd"] == "verify":
            checks.expect(out.startswith(f"valid mode={step['mode']} ")
                          and out.endswith(f" size={step['size']}\n"),
                          f"{label}: {out.strip()!r}")
            continue
        cert_path = workdir / f"{step['mode']}.cert"
        text = cert_path.read_text(encoding="utf-8") if cert_path.exists() else ""
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        checks.expect(digest == step["digest"],
                      f"{label}: certificate sha256 {digest}, "
                      f"want {step['digest']}")
        if step["cmd"] == "max-alpha":
            _check_sweep(checks, step, out, sweeps)
        elif step.get("readback"):
            _check_readback(checks, step, state, text, certify)

    result = {
        "total_s": total,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": rss,
        "steps": [{"cmd": step["cmd"], "mode": step["mode"], "s": s}
                  for (step, _), (_, _, s, _) in zip(steps, outputs)],
    }
    if tracer is not None:
        layers = tracing.layer_metrics(tracer)
        self_sum = sum(layers[f"{name}.self_s"] for name in tracing.LAYERS)
        slack = SELF_TIME_SLACK * total + SELF_TIME_SLACK_PER_STEP_S * len(steps)
        checks.expect(abs(self_sum - total) <= slack,
                      f"layer self times add up to {self_sum:.4f} s, "
                      f"traced total is {total:.4f} s")
        layers["traced_total_s"] = total
        result["layers"] = layers
        tracer.write(spans_path)
    shutil.rmtree(workdir)
    result["attempted"] = checks.attempted
    result["failures"] = checks.failures
    return result


def main(argv: list[str]) -> int:
    spec_json, mode, workdir, spans_path = argv[1:5]
    result = run(json.loads(spec_json), mode, Path(workdir), spans_path)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

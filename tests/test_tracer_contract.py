"""The benchmark's tracer against the package names it wraps.

``bench/tracer.py`` swaps package attributes for timing wrappers by name,
from outside the package, so a renamed function breaks the traced
benchmark.  Installing it here makes such a rename fail in the default
test run too.
"""

import importlib.util
from fractions import Fraction
from pathlib import Path

from collatzcert import certify, cli, engine
from collatzcert.certify import Certificate

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_the_package_and_restores_it():
    traced = _tracer_module()
    tracer = traced.Tracer()
    try:
        traced.install(tracer, cli, certify, engine)
        swapped = list(tracer._saved)
        assert all(getattr(owner, attr) is not original
                   for owner, attr, original in swapped)
        # a traced search goes through the wrapped close decision
        out = engine.run(Fraction(1, 3), 4, "plain")
        assert isinstance(out, Certificate)
        assert tracer.counts["decisions"] > 0
        assert traced.layer_metrics(tracer)["engine.decisions"] > 0
    finally:
        assert tracer.restore() == []
    assert swapped
    assert all(getattr(owner, attr) is original
               for owner, attr, original in swapped)

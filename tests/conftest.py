import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from tables import reference_plain_text, reference_strong_text  # noqa: E402

from collatzcert import certify, engine  # noqa: E402
from collatzcert.certify import parse_certificate  # noqa: E402


@pytest.fixture(scope="session")
def reference_plain():
    return parse_certificate(reference_plain_text())


@pytest.fixture(scope="session")
def reference_strong():
    return parse_certificate(reference_strong_text())


class Interrupted(Exception):
    """Raised in place of whatever stops a search after a checkpoint write."""


@pytest.fixture
def run_interrupted():
    """Call ``engine.run(*args, **kwargs)`` and stop it with an exception
    right after its k-th checkpoint write, as a kill would."""
    def go(k, *args, **kwargs):
        real = engine.save_checkpoint
        writes = 0

        def save(state, path):
            nonlocal writes
            real(state, path)
            writes += 1
            if writes == k:
                raise Interrupted

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "save_checkpoint", save)
            with pytest.raises(Interrupted):
                engine.run(*args, **kwargs)
    return go


@pytest.fixture
def sweep_both_ways():
    """Sweep ``mode`` to level ``top`` and check every search it makes,
    which stops at the first stuck codeword, against the same search run
    to the end, sharing a cache of its own as the sweep shares one, and,
    with ``cold``, stopping with no cache.  A certificate must have the
    same text, and a report must hold the first codeword of the full
    one.  Returns the number of searches."""
    def go(mode, top, cold=False):
        searches = []
        real = certify.search

        def spy(alpha, max_weight, *args, **kwargs):
            outcome = real(alpha, max_weight, *args, **kwargs)
            searches.append((alpha, max_weight, outcome))
            return outcome

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(certify, "search", spy)
            certify.SweepState(mode=mode).level(top)
        cache = {}
        for alpha, max_weight, outcome in searches:
            wide = engine.run(alpha, max_weight, mode, cache=cache)
            deep = [outcome]
            if cold:
                deep.append(engine.run(alpha, max_weight, mode,
                                       stop_at_stuck=True))
            for out in deep:
                if isinstance(wide, certify.Unclosed):
                    assert isinstance(out, certify.Unclosed), (alpha, max_weight)
                    assert out.open_codewords == wide.open_codewords[:1]
                else:
                    assert out.to_text() == wide.to_text(), (alpha, max_weight)
        return len(searches)
    return go

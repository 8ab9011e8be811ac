import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from tables import reference_plain_text, reference_strong_text  # noqa: E402

from collatzcert import engine  # noqa: E402
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

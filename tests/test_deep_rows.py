"""Deep sweep rows, each pinned with the sha256 of its certificate's text,
and the sweep's searches, which stop at their first stuck codeword and
carry the champion certificate, checked against the same searches run
from the roots to the end at the benchmark's sizes.

The plain sweep to level 19 takes about a minute and a half and the
strong sweep to level 18 about twenty seconds, too long for the default
run, so these run only with COLLATZCERT_DEEP=1 in the environment.
"""

import hashlib
import os
from fractions import Fraction

import pytest

from collatzcert.certify import SweepState

pytestmark = pytest.mark.skipif(
    os.environ.get("COLLATZCERT_DEEP") != "1",
    reason="deep sweep rows run only with COLLATZCERT_DEEP=1")

# (level, ratio, classes, max depth, sha256 of the certificate text)
DEEP_ROWS = {
    "plain": [
        (17, Fraction(15, 34), 42336, 38,
         "9431fd8ac5b07c8f3e21978d4b05c89640d14c859a16047d89072f565d6f989c"),
        (18, Fraction(4, 9), 48718, 40,
         "9ef80d2491a338b680cf6139b75969ea12c7070c0546f68fbffc6f1c94ee0f6b"),
        (19, Fraction(19, 42), 282326, 42,
         "4221ae3266c63daf79256cee19c7da905c33aaf2e4586357b89151006138116d"),
    ],
    "strong": [
        (14, Fraction(14, 33), 16044, 33,
         "c09fe23bfc0d60b4de348f3c65d5551c9b974e938394d3401f13788301716574"),
        (15, Fraction(3, 7), 16182, 35,
         "4fdb85743a58dac1c0022cf248c44a27a84f1faad92f07cac1a0568b15ab0338"),
        (16, Fraction(16, 37), 34264, 37,
         "8295d9e8a98734b25b363dc052700fafddce840d50be4dba8f82d83846489072"),
        (17, Fraction(17, 39), 64960, 39,
         "df8317fe81485048ec25de2f0b6e14f9c0c7691454b472e84b77a297677ae4cc"),
        (18, Fraction(18, 41), 91170, 41,
         "128001f519596d60ad0e52af07bdb7c268ca5a81c83d638d592c2df0d453977f"),
    ],
}


@pytest.mark.parametrize("mode", sorted(DEEP_ROWS))
def test_deep_rows(mode):
    sweep = SweepState(mode=mode)
    for level, alpha, size, depth, digest in DEEP_ROWS[mode]:
        got, cert = sweep.level(level)
        row = (got, cert.size, cert.max_depth())
        assert row == (alpha, size, depth), level
        text = cert.to_text().encode()
        assert hashlib.sha256(text).hexdigest() == digest, level


@pytest.mark.parametrize("mode,top", [("plain", 16), ("strong", 13)])
def test_stopped_searches_match_full_ones(sweep_both_ways, mode, top):
    assert sweep_both_ways(mode, top) > top

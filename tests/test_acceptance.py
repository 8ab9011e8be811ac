"""Acceptance gate: every shipped criterion at its stated tolerance.

Each test prints one summary line so a plain ``pytest -s`` run reads as a
checklist.  The two sweep reproductions share module-scoped sweeps.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from tables import (
    PLAIN_SWEEP_ROWS,
    STRONG_SWEEP_ROWS,
    reference_plain_text,
    reference_strong_text,
)

from collatzcert import engine
from collatzcert.certify import (
    SweepState,
    kraft_mismatch,
    parse_certificate,
    verify,
    witnesses,
)
from collatzcert.numth import (
    POW3,
    codeword_of_int,
    stopping_profile,
    t_map,
    trajectory,
)
from collatzcert.tree import structure_signature, walk_integers, walk_nodes

DESK_LEVEL = 12


def _report(name, detail):
    print(f"ACCEPT {name}: PASS ({detail})")


@pytest.fixture(scope="module")
def plain_sweep():
    sweep = SweepState(mode="plain")
    sweep.level(DESK_LEVEL)
    return sweep


@pytest.fixture(scope="module")
def strong_sweep():
    sweep = SweepState(mode="strong")
    sweep.level(DESK_LEVEL)
    return sweep


def test_criterion_1_plain_sweep_rows(plain_sweep):
    t0 = time.perf_counter()
    for level, alpha, size, depth in PLAIN_SWEEP_ROWS:
        got_alpha, cert = plain_sweep.level(level)
        assert got_alpha == alpha, f"level {level}: ratio {got_alpha} != {alpha}"
        assert cert.size == size, f"level {level}: size {cert.size} != {size}"
        assert cert.max_depth() == depth
        assert cert.max_weight() <= level
    _report("criterion 1 (plain sweep rows 1..%d)" % PLAIN_SWEEP_ROWS[-1][0],
            f"{time.perf_counter() - t0:.1f}s")


def test_criterion_2_strong_sweep_rows(strong_sweep):
    t0 = time.perf_counter()
    for level, alpha, size, depth in STRONG_SWEEP_ROWS:
        got_alpha, cert = strong_sweep.level(level)
        assert got_alpha == alpha, f"level {level}: ratio {got_alpha} != {alpha}"
        assert cert.size == size, f"level {level}: size {cert.size} != {size}"
        assert cert.max_depth() == depth
        assert cert.max_weight() <= level
    _report("criterion 2 (strong sweep rows 1..%d)" % DESK_LEVEL,
            f"{time.perf_counter() - t0:.1f}s")


def test_criterion_3_verifier_ground_truth():
    t0 = time.perf_counter()
    plain_text = reference_plain_text()
    strong_text = reference_strong_text()
    mutations = 0
    for text in (plain_text, strong_text):
        cert = parse_certificate(text)
        assert verify(cert) == []
        lines = text.splitlines()
        body = lines[1:]
        for i, line in enumerate(body):
            parts = line.split(" ")
            for f in range(3, len(parts), 2):
                for pos in range(len(parts[f])):
                    flipped = list(parts[f])
                    flipped[pos] = "1" if flipped[pos] == "0" else "0"
                    mutated = parts[:f] + ["".join(flipped)] + parts[f + 1:]
                    bad = "\n".join(
                        [lines[0]] + body[:i] + [" ".join(mutated)] + body[i + 1:]
                    ) + "\n"
                    assert verify(parse_certificate(bad)), (
                        f"bit flip survived: {line} -> {' '.join(mutated)}")
                    mutations += 1
        for i in range(len(body)):
            bad = "\n".join([lines[0]] + body[:i] + body[i + 1:]) + "\n"
            violations = verify(parse_certificate(bad))
            assert any("Kraft" in v.reason for v in violations)
            mutations += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"verifier ground truth took {elapsed:.2f}s"
    _report("criterion 3 (verifier ground truth)",
            f"{mutations} mutations rejected in {elapsed:.2f}s")


def test_criterion_4_trajectory_records():
    t0 = time.perf_counter()
    r = trajectory(3)
    assert r.steps == 5
    assert r.parity == "11000"
    assert abs(r.log_ratio - 4.5512) < 1e-4

    r = trajectory(1008932249296231)
    assert r.steps == 1142
    assert abs(r.log_ratio - 33.0558) < 1e-3

    r = trajectory(37664971860959140595765286740059)
    assert r.steps == 2565
    assert abs(r.log_ratio - 35.2789) < 1e-3
    _report("criterion 4 (trajectory records)",
            f"{time.perf_counter() - t0:.2f}s")


def test_criterion_5_structural_identities():
    t0 = time.perf_counter()
    for k in range(1, 31):
        n = 2**k - 1
        for _ in range(k):
            n = t_map(n)
        assert n == 3**k - 1

    steps, ones = stopping_profile(10**6, cap=10**4)
    assert all(s >= 0 for s in steps[2:]), "a value below 10^6 missed the cap"

    ln2, ln3 = math.log(2), math.log(3)
    threshold = ln2 / ln3
    checked = 0
    for n in range(2, 10**5 + 1):
        rho = ones[n] / steps[n]
        if rho >= threshold:
            continue
        gamma = steps[n] / math.log(n)
        assert gamma >= 1 / (ln2 - rho * ln3) - 1e-9, f"bound fails at {n}"
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report("criterion 5 (structural identities)",
            f"{checked} bound checks, {elapsed:.1f}s")


def test_criterion_6_witness_construction():
    t0 = time.perf_counter()
    cert = parse_certificate(reference_plain_text())
    first = witnesses(cert, 41, 1)[0]
    assert (first.n, first.k, first.ratio) == (109, 3, Fraction(1, 3))

    chain = witnesses(cert, 41, 10)
    for rec in chain:
        assert rec.ratio >= Fraction(1, 3)
        v = rec.n
        for _ in range(rec.k):
            v = t_map(v)
        assert v == 41
        tail = trajectory(rec.n)
        assert tail.converged
    _report("criterion 6 (witness construction)",
            f"chain of {len(chain)}, {time.perf_counter() - t0:.2f}s")


def test_criterion_7_property_suites(plain_sweep, strong_sweep, tmp_path,
                                     run_interrupted):
    t0 = time.perf_counter()

    # exact Kraft equality on every certificate either sweep emitted
    certs = [cert for _, cert in plain_sweep.results.values()]
    certs += [cert for _, cert in strong_sweep.results.values()]
    for cert in certs:
        assert kraft_mismatch(e.codeword for e in cert.entries) is None

    # modulus-weight conservation over at least a million growth steps
    steps = 0
    length = 8
    value = 1
    while steps < 1_000_000:
        if value % 3:
            c = codeword_of_int(value, length)
            for node in walk_nodes(c, 24, stop_at_witnesses=None):
                assert node.exponent + node.weight == length
                steps += 1
        value += 1

    # residue growth and integer growth agree structurally
    rng = random.Random(517)
    agreed = 0
    while agreed < 100:
        a = rng.randrange(2, 10**6)
        if a % 3 == 0:
            continue
        t = list(walk_integers(a, 7))
        max_weight = max(bits.bit_count() for _, _, bits in t)
        if max_weight == 0:
            continue
        res = walk_nodes(codeword_of_int(a, max_weight + 2), 7, None,
                         prune=False)
        assert structure_signature(t) == structure_signature(res)
        agreed += 1

    # mean frontier size is exactly (4/3)^d for d <= 6
    for d in range(1, 7):
        total = 0
        for v in range(1, POW3[d + 1]):
            if v % 3:
                c = codeword_of_int(v, d + 1)
                total += sum(n.depth == d
                             for n in walk_nodes(c, d, None, prune=False))
        assert Fraction(total, 2 * POW3[d]) == Fraction(4, 3) ** d

    # checkpoint interrupt / resume equivalence
    cp = str(tmp_path / "state")
    run_interrupted(2, Fraction(1, 3), 5, "strong", checkpoint_path=cp)
    resumed = engine.run(Fraction(1, 3), 5, "strong", checkpoint_path=cp)
    straight = engine.run(Fraction(1, 3), 5, "strong")
    assert resumed.to_text() == straight.to_text()

    _report("criterion 7 (property suites)",
            f"{steps} growth steps, {time.perf_counter() - t0:.1f}s")

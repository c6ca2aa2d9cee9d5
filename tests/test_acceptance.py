"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Golden tables are hard-coded here on purpose so this module certifies the
artifact on its own, without importing fixtures from the unit tests.
"""

import random
import time
from itertools import islice

import pytest

from helpers import apply, image_tuples, iterates, level_with, windows
from tmblocks.claims import eta_system
from tmblocks.cli import run as cli_run
from tmblocks.injectivize import (fixed_letters, search_fixed_letters,
                                  verify_primitivity_argument, zeta5_fixture)
from tmblocks.nblock import verify_block_formula
from tmblocks.substitution import pf_eigenvalue
from tmblocks.thue_morse import (enumerate_by_descendants, enumerate_by_scan, grow,
                                 thue_morse_prefix, verify_prefix_pairs, verify_quarter_descendants,
                                 verify_quarter_minima)
from tmblocks.words import theta_bits

A2_GOLDEN = ["00101", "00110", "01001", "01011", "01100", "01101",
             "10010", "10011", "10100", "10110", "11001", "11010"]
A3_GOLDEN = [
    "001011001", "001011010", "001100101", "001101001", "010010110", "010011001",
    "010110011", "010110100", "011001011", "011001101", "011010010", "011010011",
    "100101100", "100101101", "100110010", "100110100", "101001011", "101001100",
    "101100110", "101101001", "110010110", "110011010", "110100101", "110100110",
]
THETA5_IMAGES = ((3, 9), (3, 9), (4, 10), (4, 10), (5, 11), (5, 11),
                 (6, 0), (6, 0), (7, 1), (7, 1), (8, 2), (8, 2))


def _verdict(number, name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status}")
    assert not failures, failures


@pytest.fixture(scope="module")
def factors():
    """The factor sets of levels 1..9, built once for the module."""
    return {m: enumerate_by_scan(m) for m in range(1, 10)}


@pytest.fixture(scope="module")
def systems():
    """The refinements at m = 2..8, built once for the module."""
    return {m: eta_system(m) for m in range(2, 9)}


def test_c01_cardinality_and_method_agreement():
    failures = []
    start = time.perf_counter()
    for m in range(1, 11):
        scan = enumerate_by_scan(m)
        desc = enumerate_by_descendants(m)
        if scan.size != 3 * 2 ** m:
            failures.append(f"m={m}: size {scan.size}")
        if tuple(windows(scan)) != desc:
            failures.append(f"m={m}: methods disagree")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"enumeration took {elapsed:.2f}s (budget 5s)")
    _verdict(1, "cardinality both methods, m=1..10", failures)


def test_c02_golden_tables(factors):
    failures = []
    for m, golden in ((2, A2_GOLDEN), (3, A3_GOLDEN)):
        fs = factors[m]
        if [fs.label(i) for i in range(fs.size)] != golden:
            failures.append(f"A_{m} table mismatch")
    fs3 = factors[3]
    words = [fs3.label(i) for i in range(fs3.size)]
    q1, q2, q3, q4 = words[::fs3.quarter_size]
    markers = {"q1": q1, "q2": q2, "q3": q3, "q4": q4,
               "f0": thue_morse_prefix(0, 9), "f1": thue_morse_prefix(1, 9)}
    expected = {"q1": 0, "q2": 6, "q3": 12, "q4": 18, "f0": 11, "f1": 12}
    for name, idx0 in expected.items():
        if words.index(markers[name]) != idx0:
            failures.append(f"{name} is not w_{idx0 + 1}")
    _verdict(2, "golden tables A_2, A_3, markers", failures)


def test_c03_quarter_minima_identities(factors):
    failures = [f"m={m}" for m in range(2, 9) if not verify_quarter_minima(factors[m], m).ok]
    _verdict(3, "quarter minima from f1, m=2..8", failures)


def test_c04_quarter_descendant_identities(factors):
    failures = [f"m={m}" for m in range(2, 9)
                if not verify_quarter_descendants(grow(factors[m])).ok]
    _verdict(4, "quarter image identities, m=2..8", failures)


def test_c05_prefix_pairing(factors):
    failures = [f"m={m}" for m in range(1, 9)
                if not verify_prefix_pairs(factors[m], factors[m + 1]).ok]
    _verdict(5, "prefix pairing one level up, m=1..8", failures)


def test_c06_block_formula(factors, systems):
    failures = [f"m={m}" for m in range(2, 9)
                if not verify_block_formula(factors[m], systems[m].nblock).ok]
    if image_tuples(systems[2].nblock) != THETA5_IMAGES:
        failures.append("width-5 table mismatch")
    _verdict(6, "closed form checked against the windows, m=2..8", failures)


def test_c07_zeta5_fixture(systems):
    failures = []
    z = zeta5_fixture()
    if not z.is_injective():
        failures.append("not injective")
    if z.is_primitive():
        failures.append("unexpectedly primitive")
    if next(islice(iterates(z, 2), 2, None)) != chr(2):
        failures.append("2-cycle at the third letter not detected")
    t5 = systems[2].nblock
    if any(a != b for a, b in islice(zip(iterates(z, 5), iterates(t5, 5)), 1, 11)):
        failures.append("orbit from the f0 letter diverges")
    _verdict(7, "zeta_5 fixture: injective, non-primitive, 2-cycle", failures)


def test_c08_injective_refinement(systems):
    failures = []
    for m in range(2, 9):
        sys_m = systems[m]
        eta, k = sys_m.eta, sys_m.eta.size
        if not eta.is_injective():
            failures.append(f"m={m}: images not distinct")
        for idx0, img in enumerate(image_tuples(eta)):
            odd = (idx0 + 1) % 2 == 1
            want = 2 if not odd else (1 if idx0 < k // 2 else 3)  # Q1 u Q2: first half
            if len(img) != want:
                failures.append(f"m={m}: length profile broken at w_{idx0 + 1}")
                break
        if sum(len(img) for img in image_tuples(eta)) != 2 * k:
            failures.append(f"m={m}: total image length is not 2|A_m|")
        if not sys_m.report("pairs").ok:
            failures.append(f"m={m}: pair images differ")
        if not sys_m.report("fixedpoint").ok:
            failures.append(f"m={m}: fixed point orbits differ")
        w = chr(fixed_letters(k)[0])
        for n in range(1, 13):
            w = apply(eta, w)
            if len(w) != 2 ** n:
                failures.append(f"m={m}: orbit length is not 2^{n}")
                break
    _verdict(8, "injective refinement profile and orbits, m=2..8", failures)


def _primitivity_argument(m, sys_m):
    return verify_primitivity_argument(m, sys_m.nblock, sys_m.eta, search_fixed_letters(sys_m.eta))


def test_c09_primitivity_argument(systems):
    failures = [f"m={m}" for m in range(3, 9) if not _primitivity_argument(m, systems[m]).ok]
    rep2 = _primitivity_argument(2, systems[2])
    print(f"  m=2 reported {'positive' if rep2.ok else 'negative'} "
          f"(construction stated for m >= 3)")
    if not rep2.ok:
        failures.append("m=2 expected positive")
    _verdict(9, "primitivity argument, m=3..8 (m=2 reported)", failures)


def _theorem(m, theta_n, sub):
    return level_with(m, nblock=theta_n, eta=sub).report("theorem")


def test_c10_eigenvalue_and_full_suite(capsys, systems):
    failures = []
    for m in range(2, 9):
        sys_m = systems[m]
        value = pf_eigenvalue(sys_m.eta, 1e-9)
        if abs(value - 2.0) >= 1e-9:
            failures.append(f"m={m}: PF {value!r}")
        f0, _ = fixed_letters(sys_m.eta.size)
        lengths = [len(w) for w in islice(iterates(sys_m.eta, f0), 1, 13)]
        if lengths != [2 ** n for n in range(1, 13)]:
            failures.append(f"m={m}: doubling of the f0 iterates broken")
        if not _theorem(m, sys_m.nblock, sys_m.eta).ok:
            failures.append(f"m={m}: theorem aggregate failed")
    rep = _theorem(2, systems[2].nblock, zeta5_fixture())
    wrong = {e.claim.split(".", 1)[1] for e in rep.entries if not e.passed}
    if wrong != {"primitive"}:
        failures.append(f"zeta_5 aggregate outcome {sorted(wrong)}")

    start = time.perf_counter()
    code = cli_run(["verify", "--m", "2..8"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    if code != 0:
        failures.append(f"verify exit code {code}")
    lines = out.splitlines()
    if len(lines) != 56 or any(not line.startswith("PASS") for line in lines):
        failures.append("expected 56 PASS lines")
    if elapsed >= 30.0:
        failures.append(f"verify took {elapsed:.1f}s (budget 30s)")
    _verdict(10, "PF eigenvalue 2 and full verify suite, m=2..8", failures)


def test_c11_property_suites(factors):
    failures = []
    rng = random.Random(20260810)
    words = {m: list(windows(factors[m])) for m in range(1, 9)}
    violations = 0
    for _ in range(10_000):
        m = rng.randrange(2, 9)
        n = factors[m].word_length
        u, v = sorted(rng.sample(words[m], 2))
        # u, v and their images each share one length: int order is lex order
        tu, tv = theta_bits(n, u), theta_bits(n, v)
        if not tu < tv:
            violations += 1
        # δ drops the last letter of θ, ε the first
        if not tu >> 1 < tv >> 1:
            violations += 1
        eps = (1 << 2 * n - 1) - 1
        if u >> n - 1 == v >> n - 1 and not tu & eps < tv & eps:
            violations += 1
    if violations:
        failures.append(f"{violations} order-preservation violations")
    for m in range(1, 9):
        fs = factors[m]
        for i, bits in enumerate(words[m]):
            mirror = bits ^ ((1 << fs.word_length) - 1)
            if words[m].index(mirror) != fs.size - 1 - i:
                failures.append(f"m={m}: mirror reversal broken at w_{i + 1}")
                break
            text = fs.label(i)
            if "000" in text or "111" in text:
                failures.append(f"m={m}: cube of a letter in w_{i + 1}")
                break
    _verdict(11, "order preservation, mirror closure, no letter cubes", failures)

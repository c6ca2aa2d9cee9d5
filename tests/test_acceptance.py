"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Golden tables are hard-coded here on purpose so this module certifies the
artifact on its own, without importing fixtures from the unit tests.
"""

import random
import time

import pytest

from tmblocks.cli import run as cli_run
from tmblocks.injectivize import (eta_system, theorem_report, verify_fixed_point,
                                  verify_pair_images, verify_primitivity_argument,
                                  zeta5_fixture)
from tmblocks.nblock import build_nblock, verify_block_formula
from tmblocks.substitution import pf_eigenvalue
from tmblocks.thue_morse import (apply_theta, descendants, enumerate_by_descendants,
                                 enumerate_by_scan, quarter_markers, theta,
                                 verify_prefix_pairs, verify_quarter_descendants,
                                 verify_quarter_minima)

A2_GOLDEN = ["00101", "00110", "01001", "01011", "01100", "01101",
             "10010", "10011", "10100", "10110", "11001", "11010"]
A3_GOLDEN = [
    "001011001", "001011010", "001100101", "001101001", "010010110", "010011001",
    "010110011", "010110100", "011001011", "011001101", "011010010", "011010011",
    "100101100", "100101101", "100110010", "100110100", "101001011", "101001100",
    "101100110", "101101001", "110010110", "110011010", "110100101", "110100110",
]
THETA3_IMAGES = ((1, 4), (2, 5), (2, 5), (3, 0), (3, 0), (4, 1))
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
        if scan.words != desc.words:
            failures.append(f"m={m}: methods disagree")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"enumeration took {elapsed:.2f}s (budget 5s)")
    _verdict(1, "cardinality both methods, m=1..10", failures)


def test_c02_golden_tables(factors):
    failures = []
    if [str(w) for w in factors[2].words] != A2_GOLDEN:
        failures.append("A_2 table mismatch")
    if [str(w) for w in factors[3].words] != A3_GOLDEN:
        failures.append("A_3 table mismatch")
    fs3 = factors[3]
    mk = quarter_markers(fs3)
    expected = {"q1": 0, "q2": 6, "q3": 12, "q4": 18, "f0": 11, "f1": 12}
    for name, idx0 in expected.items():
        if fs3.index(getattr(mk, name)) != idx0:
            failures.append(f"{name} is not w_{idx0 + 1}")
    _verdict(2, "golden tables A_2, A_3, markers", failures)


def test_c03_quarter_minima_identities(factors):
    failures = [f"m={m}" for m in range(2, 9) if not verify_quarter_minima(factors[m]).ok]
    _verdict(3, "quarter minima from f1, m=2..8", failures)


def test_c04_quarter_descendant_identities(factors):
    failures = [f"m={m}" for m in range(2, 9)
                if not verify_quarter_descendants(factors[m], factors[m + 1]).ok]
    _verdict(4, "quarter image identities, m=2..8", failures)


def test_c05_prefix_pairing(factors):
    failures = [f"m={m}" for m in range(1, 9)
                if not verify_prefix_pairs(factors[m], factors[m + 1]).ok]
    _verdict(5, "prefix pairing one level up, m=1..8", failures)


def test_c06_block_formula(factors, systems):
    failures = [f"m={m}" for m in range(2, 9)
                if not verify_block_formula(factors[m], systems[m].nblock).ok]
    if systems[2].nblock.block_sub.images != THETA5_IMAGES:
        failures.append("width-5 table mismatch")
    if build_nblock(theta(), 3).block_sub.images != THETA3_IMAGES:
        failures.append("width-3 table mismatch")
    _verdict(6, "closed form vs window construction, m=2..8", failures)


def test_c07_zeta5_fixture(systems):
    failures = []
    z = zeta5_fixture()
    if not z.is_injective():
        failures.append("not injective")
    if z.is_primitive():
        failures.append("unexpectedly primitive")
    if z.iterate(2, 2) != (2,):
        failures.append("2-cycle at the third letter not detected")
    t5 = systems[2].nblock.block_sub
    if any(z.iterate(5, n) != t5.iterate(5, n) for n in range(1, 11)):
        failures.append("orbit from the f0 letter diverges")
    _verdict(7, "zeta_5 fixture: injective, non-primitive, 2-cycle", failures)


def test_c08_injective_refinement(systems):
    failures = []
    for m in range(2, 9):
        sys_m = systems[m]
        eta, k = sys_m.eta, sys_m.size
        if not eta.is_injective():
            failures.append(f"m={m}: images not distinct")
        for idx0, img in enumerate(eta.images):
            odd = (idx0 + 1) % 2 == 1
            want = 2 if not odd else (1 if idx0 < k // 2 else 3)  # Q1 u Q2: first half
            if len(img) != want:
                failures.append(f"m={m}: length profile broken at w_{idx0 + 1}")
                break
        if sum(len(img) for img in eta.images) != 2 * k:
            failures.append(f"m={m}: total image length is not 2|A_m|")
        if not verify_pair_images(sys_m).ok:
            failures.append(f"m={m}: pair images differ")
        if not verify_fixed_point(sys_m, 12).ok:
            failures.append(f"m={m}: fixed point orbits differ")
        w = (sys_m.f0_index,)
        for n in range(1, 13):
            w = eta.apply(w)
            if len(w) != 2 ** n:
                failures.append(f"m={m}: orbit length is not 2^{n}")
                break
    _verdict(8, "injective refinement profile and orbits, m=2..8", failures)


def _primitivity_argument(sys_m):
    return verify_primitivity_argument(sys_m, sys_m.eta.is_primitive())


def test_c09_primitivity_argument(systems):
    failures = [f"m={m}" for m in range(3, 9) if not _primitivity_argument(systems[m]).ok]
    rep2 = _primitivity_argument(systems[2])
    print(f"  m=2 reported {'positive' if rep2.ok else 'negative'} "
          f"(construction stated for m >= 3)")
    if not rep2.ok:
        failures.append("m=2 expected positive")
    _verdict(9, "primitivity argument, m=3..8 (m=2 reported)", failures)


def _theorem(sub, reference_sys, **kwargs):
    matrix = sub.incidence_matrix()
    return theorem_report(sub, matrix, matrix.is_primitive(), reference_sys, **kwargs)


def test_c10_eigenvalue_and_full_suite(capsys, systems):
    failures = []
    for m in range(2, 9):
        sys_m = systems[m]
        matrix = sys_m.eta.incidence_matrix()
        value = pf_eigenvalue(matrix, 1e-9)
        if abs(value - 2.0) >= 1e-9:
            failures.append(f"m={m}: PF {value!r}")
        if matrix.image_length_sequence(sys_m.f0_index, 12) != [2 ** n for n in range(1, 13)]:
            failures.append(f"m={m}: integer doubling identity broken")
        if not _theorem(sys_m.eta, sys_m, tol=1e-9, n_max=12).ok:
            failures.append(f"m={m}: theorem aggregate failed")
    rep = _theorem(zeta5_fixture(), systems[2], claim_prefix="zeta5")
    wrong = {e.claim.split(".", 1)[1] for e in rep if not e.passed}
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
    violations = 0
    for _ in range(10_000):
        fs = factors[rng.randrange(2, 9)]
        u, v = rng.sample(fs.words, 2)
        if v < u:
            u, v = v, u
        if not apply_theta(u) < apply_theta(v):
            violations += 1
        du, dv = descendants(u), descendants(v)
        if not du[0] < dv[0]:
            violations += 1
        if u[0] == v[0] and not du[1] < dv[1]:
            violations += 1
    if violations:
        failures.append(f"{violations} order-preservation violations")
    for m in range(1, 9):
        fs = factors[m]
        for i, w in enumerate(fs.words):
            if fs.index(w.mirror()) != fs.size - 1 - i:
                failures.append(f"m={m}: mirror reversal broken at w_{i + 1}")
                break
            text = str(w)
            if "000" in text or "111" in text:
                failures.append(f"m={m}: cube of a letter in w_{i + 1}")
                break
    _verdict(11, "order preservation, mirror closure, no letter cubes", failures)

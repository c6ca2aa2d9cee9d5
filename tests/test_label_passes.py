"""The quarters, firsthalf and nblock passes read the offsets and the LCP
array of a level, and no text; the references in ``helpers`` compare the
ints of the windows of P, one at a time. The LCP array must be the text's
LCE, grown or read off u. The order pass must give the same entries as the
windows, detail for detail, on grown levels and on levels whose offsets are
swapped or permuted. firsthalf and nblock rest on a sorted level: they give
the same entries on the grown levels and on θ_N with two letters swapped,
the same verdicts on swapped offsets, and FAIL on an LCP entry off by one
across the bound they read."""

from array import array
from itertools import repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (block_formula_by_windows, lcp_changed, letters_swapped,
                     prefix_pairs_by_windows, quarters_by_windows, swapped, text_lce)
from tmblocks.nblock import thue_morse_block_system, verify_block_formula
from tmblocks.thue_morse import (MAX_M, FactorSet, _letter_lce, enumerate_by_scan, grow, lce,
                                 thue_morse_prefix, verify_prefix_pairs,
                                 verify_quarter_descendants)


def _entries(rep):
    return [(e.claim, e.passed, e.detail) for e in rep.entries]


def _check_quarters(fs_next):
    assert _entries(verify_quarter_descendants(fs_next)) == quarters_by_windows(fs_next)


@pytest.mark.parametrize("m", range(1, MAX_M + 1))
def test_lcp_is_the_lce_of_the_text(m):
    # the grown array, and the one read off u at the same offsets
    fs = enumerate_by_scan(m)
    n, off = fs.word_length, fs.offsets
    want = [text_lce(fs.prefix, a, b, n) for a, b in zip(off, off[1:])]
    assert list(fs.lcp) == want
    assert FactorSet(m, fs.prefix, off).lcp == fs.lcp
    assert fs.lcp.typecode == "H"


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 3000), st.integers(0, 3000), st.integers(1, 600))
def test_lce_is_the_lce_of_the_text_at_any_offsets(a, b, n):
    text = thue_morse_prefix(0, max(a, b) + n)
    want = text_lce(text, a, b, n)
    assert list(lce([a], [b], n)) == [want] == [_letter_lce(a, b, n)]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.data())
def test_grown_lcp_is_exact_on_any_offsets(m, data):
    # offsets repeated or out of order give LCEs of 0 and N inside a half
    fs = enumerate_by_scan(m)
    k = fs.size
    offsets = data.draw(st.lists(st.integers(0, k - 1), min_size=k, max_size=k), label="offsets")
    upper = grow(FactorSet(m, fs.prefix, array("I", offsets)))
    assert upper.lcp == FactorSet(m + 1, upper.prefix, upper.offsets).lcp


@pytest.mark.parametrize("m", range(1, 9))
def test_label_passes_match_the_int_windows(m):
    fs = enumerate_by_scan(m)
    fs_next = grow(fs)
    k = fs.size
    # the grown level, levels with two neighbours swapped: inside a pair,
    # across two pairs, and where the blocks of grow meet; and levels with
    # an offset repeated, whose two windows are equal: an LCE of N
    for upper in (fs_next, swapped(fs_next, 0), swapped(fs_next, 1), swapped(fs_next, k - 1),
                  swapped(fs_next, k // 2 - 1, k + 3), *map(_repeated, repeat(fs_next), range(4))):
        _check_quarters(upper)
    assert _entries(verify_prefix_pairs(fs, fs_next)) == prefix_pairs_by_windows(fs, fs_next)
    for upper in (swapped(fs_next, 1), swapped(fs_next, k - 1)):
        rep = verify_prefix_pairs(fs, upper)
        assert not rep.ok and _entries(rep) == prefix_pairs_by_windows(fs, upper)
    if m >= 2:
        theta_n = thue_morse_block_system(fs)
        assert _entries(verify_block_formula(fs, theta_n)) == block_formula_by_windows(fs, theta_n)
        for x, y in ((0, 1), (0, 4), (3, 2 * k - 2)):
            corrupted = letters_swapped(theta_n, x, y)
            rep = verify_block_formula(fs, corrupted)
            assert not rep.ok
            assert _entries(rep) == block_formula_by_windows(fs, corrupted)
        for lower in (swapped(fs, 0), swapped(fs, 1), swapped(fs, k // 2 - 1)):
            rep = verify_block_formula(lower, theta_n)
            assert not rep.entries[0].passed
            assert not block_formula_by_windows(lower, theta_n)[0][1]


def _repeated(fs, i):
    """``fs`` with the offset of w_{i+2} in place of that of w_{i+1}."""
    offsets = array("I", fs.offsets)
    offsets[i] = offsets[i + 1]
    return FactorSet(fs.m, fs.prefix, offsets)


def _permuted(data, fs):
    """``fs`` with its offsets permuted: a few swaps, or any permutation."""
    k = fs.size
    swaps = st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)), max_size=6)
    offsets = list(fs.offsets)
    if data.draw(st.booleans(), label="few swaps"):
        for i, j in data.draw(swaps, label="swaps"):
            offsets[i], offsets[j] = offsets[j], offsets[i]
    else:
        offsets = data.draw(st.permutations(offsets), label="permutation")
    return FactorSet(fs.m, fs.prefix, array("I", offsets))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.data())
def test_label_passes_match_the_int_windows_on_permuted_offsets(m, data):
    fs = enumerate_by_scan(m)
    lower, upper = _permuted(data, fs), _permuted(data, grow(fs))
    _check_quarters(upper)
    # firsthalf reads level m + 1 alone and rests on its order: where the
    # windows pass, so does it, and both agree on a sorted level
    rep, want = verify_prefix_pairs(fs, upper), prefix_pairs_by_windows(fs, upper)
    assert rep.ok >= want[0][1]
    if verify_quarter_descendants(upper).ok:
        assert _entries(rep) == want
    if m >= 2:
        theta_n = thue_morse_block_system(fs)
        assert verify_block_formula(lower, theta_n).entries[0].passed == \
            block_formula_by_windows(lower, theta_n)[0][1]


@pytest.mark.parametrize("m", range(2, 9))
def test_each_pass_fails_on_an_lcp_entry_off_by_one(m):
    """Negative controls: the order pass with an entry one more, where the
    letter it then reads is 1; firsthalf with an entry one less where a pair
    shares exactly N letters, or one more where two pairs share N - 1; and
    nblock with an entry one less where a pair shares exactly N' =
    2^(m-1) + 1 letters, or raised to N' between two pairs, each where the
    order pass still holds, so that only the bound FAILs."""
    fs, fs_next = enumerate_by_scan(m), grow(enumerate_by_scan(m))
    n, half, lcp = fs.word_length, (fs.word_length + 1) // 2, fs_next.lcp
    u = thue_morse_prefix(0, len(fs_next.prefix))
    i = next(i for i, (p, ell) in enumerate(zip(fs_next.offsets, lcp)) if u[p + ell + 1] == "1")
    failed = [e.detail for e in verify_quarter_descendants(lcp_changed(fs_next, i, 1)).entries
              if not e.passed]
    assert len(failed) == 1 and failed[0].endswith(f" out of order at i={i + 2}")
    inside = next(i for i in range(0, len(lcp), 2) if lcp[i] == n)
    between = next(i for i in range(1, len(lcp), 2) if lcp[i] == n - 1)
    for i, by, pair in ((inside, -1, inside // 2 + 1), (between, 1, between // 2 + 1)):
        rep = verify_prefix_pairs(fs, lcp_changed(fs_next, i, by))
        assert _entries(rep) == [("firsthalf.pairs", False, f"mismatch at i=[{pair}]")]
    theta_n = thue_morse_block_system(fs)
    lower, off = fs.lcp, fs.offsets
    inside = next(i for i in range(0, len(lower), 2)
                  if lower[i] == half and u[off[i] + half - 1] == "0")
    between = next(i for i in range(1, len(lower), 2) if u[off[i] + half] == "0")
    for i, by, what in ((inside, -1, f"a pair does not share its prefix of {half} letters"),
                        (between, half - lower[between],
                         f"two neighbouring pairs share their prefix of {half} letters")):
        entry = verify_block_formula(lcp_changed(fs, i, by), theta_n).entries[0]
        assert (entry.claim, entry.passed, entry.detail) == ("nblock.images", False,
                                                             f"level {m}: {what}")

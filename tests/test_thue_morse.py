import random
import re
import tracemalloc
from array import array
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (descendants_by_level, descendants_text, factor_labels, off_prefix, swapped,
                     theta_text, windows)
from tmblocks import thue_morse
from tmblocks.thue_morse import (MAX_M, FactorSet, LevelFailed, descendant_words,
                                 enumerate_by_descendants, enumerate_by_scan, grow,
                                 matches_descendants, thue_morse_prefix, verify_prefix_pairs,
                                 verify_quarter_descendants, verify_quarter_minima)

A2_GOLDEN = ["00101", "00110", "01001", "01011", "01100", "01101",
             "10010", "10011", "10100", "10110", "11001", "11010"]

A3_GOLDEN = [
    "001011001", "001011010", "001100101", "001101001", "010010110", "010011001",
    "010110011", "010110100", "011001011", "011001101", "011010010", "011010011",
    "100101100", "100101101", "100110010", "100110100", "101001011", "101001100",
    "101100110", "101101001", "110010110", "110011010", "110100101", "110100110",
]


def test_thue_morse_prefix():
    assert thue_morse_prefix(0, 16) == "0110100110010110"
    assert thue_morse_prefix(1, 8) == "10010110"
    assert thue_morse_prefix(1, 5) == "10010"
    assert thue_morse_prefix(0, 0) == ""
    with pytest.raises(ValueError):
        thue_morse_prefix(2, 4)


def test_descendants_examples():
    d, e = descendants_text("00101")
    assert d == "010110011" and e == "101100110"
    # the f1 marker maps to the next f1 marker under the prefix descendant
    d, _ = descendants_text("10010")
    assert d == "100101100" == thue_morse_prefix(1, 9)
    # and the f0 marker to the next f0 marker
    d, _ = descendants_text("01101")
    assert d == "011010011" == thue_morse_prefix(0, 9)
    assert d in factor_labels(enumerate_by_scan(3))


def test_scan_golden_tables():
    assert factor_labels(enumerate_by_scan(1)) == ["001", "010", "011", "100", "101", "110"]
    assert factor_labels(enumerate_by_scan(2)) == A2_GOLDEN
    assert factor_labels(enumerate_by_scan(3)) == A3_GOLDEN


def test_enumeration_methods_agree():
    """The grown level against the int oracle, at every m."""
    for m in range(1, MAX_M + 1):
        scan = enumerate_by_scan(m)
        desc = enumerate_by_descendants(m)
        assert tuple(windows(scan)) == desc
        # each factor's label is the window of the prefix at its offset
        n = scan.word_length
        assert factor_labels(scan) == [f"{b:0{n}b}" for b in desc]
        assert scan.size == 3 * 2 ** m


def test_descendant_recursion_matches_the_per_word_reference():
    """The recursion on ints against the same recursion on 0/1 text, θ of
    each word by the text reference."""
    words = thue_morse.A1_WORDS
    for m in range(1, 9):
        assert enumerate_by_descendants(m) == tuple(int(w, 2) for w in words)
        # one length per level: text order is lexicographic order
        words = sorted({d for w in words for d in descendants_text(w)})


def test_descendant_stream_against_the_breadth_first_oracle():
    """The stream yields each word of the level once: as many words as
    factors, whose sorted set is the level-by-level recursion."""
    for m in range(1, MAX_M + 1):
        words = list(descendant_words(m))
        assert len(words) == 3 * 2 ** m
        assert tuple(sorted(set(words))) == descendants_by_level(m) == enumerate_by_descendants(m)


@pytest.mark.parametrize("m", range(1, 9))
def test_descendant_stream_reads_the_prefix_block_by_block(m):
    """The stream's order, which the join reads: block u, for u in
    ``A1_WORDS`` in order, is the windows of P = θ^(m+2)(0) at
    2^d·t_u + s, s = 0 .. 2^d - 1, d = m - 1, where u starts θ^3(0) at t_u;
    P by the parity of popcount."""
    d, n = m - 1, 2 ** m + 1
    text = _parity_text(2 ** (m + 2))
    starts = [(text.index(u) << d) + s for u in thue_morse.A1_WORDS for s in range(2 ** d)]
    assert sorted(starts) == list(range(3 * 2 ** m))
    assert [f"{w:0{n}b}" for w in descendant_words(m)] == [text[p:p + n] for p in starts]


def test_descendant_stream_yields_each_word_once():
    """The stream against the one-level recursion on 0/1 text, kept as a
    multiset: for m = 1..8 both hold every factor exactly once."""
    words = list(thue_morse.A1_WORDS)
    for m in range(1, 9):
        stream = Counter(f"{w:0{2 ** m + 1}b}" for w in descendant_words(m))
        assert stream == Counter(words) and set(stream.values()) == {1}
        assert len(stream) == 3 * 2 ** m
        words = [d for w in words for d in descendants_text(w)]


def test_join_passes_on_the_grown_levels():
    for m in range(1, MAX_M + 1):
        assert matches_descendants(enumerate_by_scan(m))


def _with_offsets(fs, offsets):
    return FactorSet(fs.m, fs.prefix, array("I", offsets))


@pytest.mark.parametrize("m", [1, 2, 3, 6])
def test_join_fails_on_corrupted_levels(m):
    """Negative controls: a level read off a corrupted prefix, and levels
    whose offsets are reversed, short of one, or with one repeated."""
    fs = enumerate_by_scan(m)
    off = fs.offsets
    assert not matches_descendants(off_prefix(fs))
    assert not matches_descendants(_with_offsets(fs, reversed(off)))
    for i in (0, fs.size // 2, fs.size - 1):
        assert not matches_descendants(_with_offsets(fs, off[:i] + off[i + 1:]))
        assert not matches_descendants(_with_offsets(fs, off[:i + 1] + off[i:]))
        # w_{i+1} in place of its neighbour, so the level keeps its size
        j = i + 1 if i + 1 < fs.size else i - 1
        assert not matches_descendants(_with_offsets(fs, off[:j] + off[i:i + 1] + off[j + 1:]))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda m: st.tuples(st.just(m), st.permutations(range(3 * 2 ** m)))))
def test_join_fails_on_permuted_offsets(case):
    m, order = case
    assume(order != sorted(order))
    fs = enumerate_by_scan(m)
    assert not matches_descendants(_with_offsets(fs, (fs.offsets[i] for i in order)))


@pytest.mark.parametrize("m", range(1, 7))
def test_join_fails_on_every_single_letter_flip(m):
    """Negative control: every letter of P lies in a window at 0 .. k - 1,
    so P with any one letter flipped fails the join."""
    fs = enumerate_by_scan(m)
    p = fs.prefix
    for i in range(len(p)):
        flipped = p[:i] + "10"[int(p[i])] + p[i + 1:]
        assert not matches_descendants(FactorSet(m, flipped, fs.offsets))


@pytest.mark.parametrize("m", [1, 3, 6])
def test_join_fails_on_windows_past_the_level(m):
    """Negative controls: the offsets shifted by one, a permutation of
    1 .. k; one offset set to k, also in place of the factor that is P's
    last N - 1 letters and a 0, the window at k if P were followed by zeros,
    which keeps the windows in order; and P one letter short, so that the
    window at k - 1 runs past its end."""
    fs = enumerate_by_scan(m)
    k = fs.size
    assert not matches_descendants(_with_offsets(fs, (p + 1 for p in fs.offsets)))
    for i in (0, k // 2, k - 1, factor_labels(fs).index(fs.prefix[k:] + "0")):
        off = array("I", fs.offsets)
        off[i] = k
        assert not matches_descendants(_with_offsets(fs, off))
    assert not matches_descendants(FactorSet(m, fs.prefix[:-1], fs.offsets))


@pytest.mark.parametrize("m", [1, 5])
def test_join_fails_when_a_descendant_block_differs(monkeypatch, m):
    """Negative controls on the block check: θ^d(u) for one base word u with
    its first, middle or last letter flipped, or without its first or its
    last letter; and the blocks of the base words in another order, each
    checked at the start of another word."""
    fs = enumerate_by_scan(m)
    block, words = thue_morse._theta_block, thue_morse.A1_WORDS

    def join_with(theta_block):
        monkeypatch.setattr(thue_morse, "_theta_block", theta_block)
        return matches_descendants(fs)

    def corrupt(bad, change):
        return join_with(lambda u, d: change(*block(u, d)) if u == bad else block(u, d))

    assert join_with(block)
    for bad in words:
        for part in (0, 1, 2):  # the first, middle and last letter
            assert not corrupt(bad, lambda n, bits: (n, bits ^ 1 << n - 1 - part * (n - 1) // 2))
        assert not corrupt(bad, lambda n, bits: (n - 1, bits & (1 << n - 1) - 1))
        assert not corrupt(bad, lambda n, bits: (n - 1, bits >> 1))
    for shift in range(1, 6):
        assert not join_with(lambda u, d: block(words[(words.index(u) + shift) % 6], d))
    swapped = dict(zip(words, words))
    swapped["001"], swapped["110"] = "110", "001"
    assert not join_with(lambda u, d: block(swapped[u], d))


def test_join_holds_less_than_the_sorted_oracle():
    """The join holds eight shifted copies of P's bytes, one block θ^d(u)
    and two window keys at a time: under 16 bytes a factor at MAX_M, where
    the sorted oracle holds k words of N bits."""
    fs = enumerate_by_scan(MAX_M)
    tracemalloc.start()
    try:
        assert matches_descendants(fs)
        join_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        enumerate_by_descendants(MAX_M)
        oracle_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert join_peak < 16 * fs.size and join_peak < oracle_peak / 2


def test_scan_raises_when_the_base_repeats_a_window(monkeypatch):
    # an all-zero prefix of the same length: the six windows of length 3 of
    # the base are one word
    monkeypatch.setattr(thue_morse, "thue_morse_prefix", lambda a, n: "0" * n)
    with pytest.raises(LevelFailed, match=r"level 1 reads \['000', '000', '000', '000', '000', "
                                          r"'000'\], not the width-3 windows of θ\^4\(0\)"):
        enumerate_by_scan(2)


@pytest.mark.parametrize("dropped", range(6))
def test_scan_raises_when_the_base_drops_a_factor(monkeypatch, dropped):
    """Negative control: the five windows left are distinct and sorted, and
    the windows of θ^4(0) find the one missing."""
    base = thue_morse._base()
    offsets = base.offsets[:dropped] + base.offsets[dropped + 1:]
    monkeypatch.setattr(thue_morse, "_base", lambda: FactorSet(1, base.prefix, offsets))
    words = [w for w in thue_morse.A1_WORDS if w != base.label(dropped)]
    for m in (1, 4):
        with pytest.raises(LevelFailed, match=re.escape(f"level 1 reads {words}, not")):
            enumerate_by_scan(m)


def test_scan_raises_when_a_grown_level_is_out_of_order(monkeypatch):
    """Negative control: level 3 grown with the offsets of w_1 and w_2
    swapped fails its order pass, and the enumeration stops there."""
    monkeypatch.setattr(thue_morse, "grow",
                        lambda fs, grow=grow: swapped(grow(fs), 0) if fs.m == 2 else grow(fs))
    enumerate_by_scan(2)
    with pytest.raises(LevelFailed, match=r"level 3 is out of order: quarters\.Q1: eps\(Q3 u Q4\) "
                                          r"out of order at i=2"):
        enumerate_by_scan(5)


@pytest.mark.parametrize("m", range(1, 9))
def test_grow_lays_out_the_descendants_by_quarter(m):
    """The construction against the descendants of each word, on text:
    ε(Q3 u Q4), δ(Q1 u Q2), δ(Q3 u Q4), ε(Q1 u Q2)."""
    fs = enumerate_by_scan(m)
    words = factor_labels(fs)
    low, high = words[:fs.size // 2], words[fs.size // 2:]
    want = ([descendants_text(w)[1] for w in high] + [descendants_text(w)[0] for w in low]
            + [descendants_text(w)[0] for w in high] + [descendants_text(w)[1] for w in low])
    grown = grow(fs)
    assert (grown.m, grown.prefix) == (m + 1, theta_text(fs.prefix))
    assert factor_labels(grown) == want == sorted(want)


def _parity_factors(n, prefix_len):
    """Reference: the sorted width-n windows of the first ``prefix_len``
    letters of the fixed point, letter i the parity of popcount(i); windows
    are string slices and sorted as strings."""
    text = "".join(str(bin(i).count("1") % 2) for i in range(prefix_len))
    return sorted({text[i:i + n] for i in range(len(text) - n + 1)})


def test_scan_matches_windows_of_the_parity_sequence():
    for m in range(1, 10):
        n = 2 ** m + 1
        assert factor_labels(enumerate_by_scan(m)) == _parity_factors(n, 32 * n)


def test_small_factor_tables():
    assert _parity_factors(1, 64) == ["0", "1"]
    assert _parity_factors(2, 64) == ["00", "01", "10", "11"]
    assert _parity_factors(3, 64) == ["001", "010", "011", "100", "101", "110"]
    assert _parity_factors(5, 256) == A2_GOLDEN


def test_factors_are_factor_closed():
    for m in range(1, 6):
        n = 2 ** m + 1
        shorter = set(_parity_factors(n - 1, 32 * n))
        longer = factor_labels(enumerate_by_scan(m))
        # every shorter factor extends to the right among the factors
        for u in shorter:
            assert any(f[:-1] == u for f in longer)
        # and both windows of a factor one letter shorter are shorter factors
        for f in longer:
            assert f[:-1] in shorter and f[1:] in shorter


def test_factors_never_contain_cubes_of_a_letter():
    for n in range(3, 11):
        for f in _parity_factors(n, 32 * n):
            assert "000" not in f and "111" not in f
    for m in range(1, 7):
        for w in factor_labels(enumerate_by_scan(m)):
            assert "000" not in w and "111" not in w


def test_enumerators_reject_m_out_of_range():
    with pytest.raises(ValueError):
        enumerate_by_scan(0)
    with pytest.raises(ValueError):
        enumerate_by_descendants(MAX_M + 1)


def _quarter_minima(fs):
    return tuple(fs.label(i * fs.quarter_size) for i in range(4))


def test_quarter_markers_m2():
    q1, q2, q3, q4 = _quarter_minima(enumerate_by_scan(2))
    assert (q1, q2, q3, q4) == ("00101", "01011", "10010", "10110")
    assert thue_morse_prefix(0, 5) == "01101" and thue_morse_prefix(1, 5) == "10010"


def test_quarter_markers_m3_indices():
    fs = enumerate_by_scan(3)
    q1, q2, q3, q4 = _quarter_minima(fs)
    index = factor_labels(fs).index
    assert index(q1) == 0
    assert index(q2) == 6
    assert index(q3) == 12
    assert index(q4) == 18
    assert index(thue_morse_prefix(0, 9)) == 11
    assert index(thue_morse_prefix(1, 9)) == 12


def test_q3_equals_f1():
    for m in range(2, 7):
        fs = enumerate_by_scan(m)
        assert _quarter_minima(fs)[2] == thue_morse_prefix(1, fs.word_length)


def test_factor_set_structure():
    for m in range(2, 6):
        fs = enumerate_by_scan(m)
        words = factor_labels(fs)
        # mirror closure with index reversal: the mirror complements every bit
        for i, w in enumerate(words):
            assert words.index(w.translate(str.maketrans("01", "10"))) == fs.size - 1 - i
        # exactly half the words start with 0
        assert sum(1 for w in words if w[0] == "0") == fs.size // 2
        assert "000" not in words[0]


def test_quarters_need_m_at_least_2():
    fs = enumerate_by_scan(1)
    with pytest.raises(ValueError):
        fs.quarter_size
    with pytest.raises(ValueError):
        verify_quarter_minima(fs, 1)


def test_verify_quarter_minima():
    for m in (2, 3, 4):
        rep = verify_quarter_minima(enumerate_by_scan(m), m)
        assert rep.ok
        assert [e.claim for e in rep.entries] == ["qandf.count", "qandf.q1", "qandf.q2",
                                                  "qandf.q3", "qandf.q4"]


def test_verify_quarter_minima_fails_off_the_fixed_point():
    """Negative control: over a prefix with the first letter of w_1 flipped,
    the minima of Q1 and Q3 at m = 3 read other words, and qandf names each
    one it got next to f1."""
    fs = off_prefix(enumerate_by_scan(3))
    q, f1 = fs.quarter_size, "100101100"
    rep = verify_quarter_minima(fs, 3)
    assert [(e.claim, e.passed) for e in rep.entries] == [
        ("qandf.count", True), ("qandf.q1", False), ("qandf.q2", True), ("qandf.q3", False),
        ("qandf.q4", True)]
    for i in (0, 2):
        got = fs.label(i * q)
        assert got != f1 and rep.entries[i + 1].detail == f"q{i + 1}={got}, from f1={f1}"


@pytest.mark.parametrize("m", [2, 3, 5])
def test_quarters_fail_on_windows_cut_at_another_quarter_size(m, monkeypatch):
    """Negative control: with the quarters cut at q - 1, every window is
    still in order, but none reads its k/4 labels (one more after Q1), so
    the pairs where the true quarters meet would go unchecked."""
    fs_next = grow(enumerate_by_scan(m))
    q = fs_next.quarter_size
    monkeypatch.setattr(FactorSet, "quarter_size", property(lambda fs: fs.size // 4 - 1))
    rep = verify_quarter_descendants(fs_next)
    images = ("eps(Q3 u Q4)", "delta(Q1 u Q2)", "delta(Q3 u Q4)", "eps(Q1 u Q2)")
    assert [(e.claim, e.passed, e.detail) for e in rep.entries] == [
        (f"quarters.Q{n + 1}", False, f"{image} read {q - 1 + (n > 0)} labels, not {q + (n > 0)}")
        for n, image in enumerate(images)]


def test_verify_quarter_descendants_with_golden_cross_check():
    fs2 = enumerate_by_scan(2)
    fs3 = grow(fs2)
    rep = verify_quarter_descendants(fs3)
    assert rep.ok and factor_labels(fs3) == A3_GOLDEN
    assert [e.claim for e in rep.entries] == ["quarters.Q1", "quarters.Q2", "quarters.Q3",
                                              "quarters.Q4"]
    words = factor_labels(fs2)
    q1, q2 = words[:3], words[3:6]
    deltas = {descendants_text(w)[0] for w in q1 + q2}
    assert deltas == set(A3_GOLDEN[6:12])
    eps = {descendants_text(w)[1] for w in q1 + q2}
    assert eps == set(A3_GOLDEN[18:24])


def _parity_text(n):
    """Reference: the first n letters of the Thue-Morse fixed point, letter i
    the parity of popcount(i)."""
    return "".join(str(bin(i).count("1") % 2) for i in range(n))


@pytest.mark.parametrize("m", range(1, MAX_M + 1))
def test_every_offset_reads_back_its_word(m):
    fs = enumerate_by_scan(m)
    n = fs.word_length
    text = _parity_text(len(fs.prefix))
    # P = θ^(m+2)(0), whose first 3·2^m windows are the factors; θ(P) is
    # the prefix of level m + 1
    assert len(fs.prefix) == 2 ** (m + 2) and fs.prefix == text
    assert sorted(fs.offsets) == list(range(3 * 2 ** m))
    words = list(windows(fs))
    assert all(int(text[p:p + n], 2) == b for p, b in zip(fs.offsets, words))
    assert factor_labels(fs) == [format(b, f"0{n}b") for b in words]


@pytest.mark.parametrize("m", range(1, 11))
def test_theta_prefix_holds_per_factor_theta(m):
    # θ(w) is the width-2N slice of θ(P) at twice w's offset
    fs = enumerate_by_scan(m)
    n, text = fs.word_length, fs.theta_prefix()
    assert text == theta_text(fs.prefix)
    assert [text[2 * p:2 * p + 2 * n] for p in fs.offsets] == list(map(theta_text,
                                                                       factor_labels(fs)))


def _entries(rep):
    return [(e.claim, e.passed, e.detail) for e in rep.entries]


def _quarter_descendants_reference(fs_next):
    """The quarters claim on text: in each quarter, the first label that
    does not exceed the one before it."""
    words, q = factor_labels(fs_next), fs_next.quarter_size
    images = ("eps(Q3 u Q4)", "delta(Q1 u Q2)", "delta(Q3 u Q4)", "eps(Q1 u Q2)")
    entries = []
    for quarter, what in enumerate(images):
        upper = range(max(quarter * q, 1), (quarter + 1) * q)
        bad = [i + 1 for i in upper if words[i] <= words[i - 1]]
        # the pairs upper[0] - 1, upper[0] .. upper[-1] - 1, upper[-1] read
        # one label more than they compare
        entries.append((f"quarters.Q{quarter + 1}", not bad,
                        f"{what} out of order at i={bad[0]}" if bad
                        else f"{what} increases over {len(upper) + 1} labels"))
    return entries


def _prefix_pairs_reference(fs, fs_next):
    """The firsthalf claim per factor, on text: the N-prefixes of each pair."""
    n, upper = fs.word_length, factor_labels(fs_next)
    bad = [i + 1 for i, w in enumerate(factor_labels(fs))
           if upper[2 * i][:n] != w or upper[2 * i + 1][:n] != w]
    return [("firsthalf.pairs", not bad,
             f"all {fs.size} prefix pairs match" if not bad else f"mismatch at i={bad[:5]}")]


@pytest.mark.parametrize("m", range(1, 11))
def test_level_claims_on_offsets_match_the_per_factor_reference(m):
    # firsthalf reads of level m only N and k, so the negative controls
    # corrupt level m + 1: two neighbours swapped across two pairs
    fs, fs_next = enumerate_by_scan(m), enumerate_by_scan(m + 1)
    for upper in (fs_next, swapped(fs_next, 1), swapped(fs_next, fs.size - 1)):
        rep = verify_prefix_pairs(fs, upper)
        assert _entries(rep) == _prefix_pairs_reference(fs, upper)
        assert rep.ok == (upper is fs_next)
    for upper in (fs_next, swapped(fs_next, 0), grow(swapped(fs, 0))):
        rep = verify_quarter_descendants(upper)
        assert _entries(rep) == _quarter_descendants_reference(upper)
        assert rep.ok == (upper is fs_next)


def test_verify_prefix_pairs():
    for m in (1, 2, 3):
        assert verify_prefix_pairs(enumerate_by_scan(m), enumerate_by_scan(m + 1)).ok


def test_descendant_maps_are_injective_on_factors():
    for m in (2, 3, 4):
        fs = enumerate_by_scan(m)
        ds = [descendants_text(w) for w in factor_labels(fs)]
        assert len({d for d, _ in ds}) == fs.size
        assert len({e for _, e in ds}) == fs.size


def test_order_preservation_small_sample():
    rng = random.Random(32)
    for _ in range(200):
        m = rng.randrange(2, 6)
        fs = enumerate_by_scan(m)
        u, v = sorted(rng.sample(factor_labels(fs), 2))
        # all words compared have one length, so text order is lexicographic
        assert theta_text(u) < theta_text(v)
        du, dv = descendants_text(u), descendants_text(v)
        assert du[0] < dv[0]
        if u[0] == v[0]:
            assert du[1] < dv[1]

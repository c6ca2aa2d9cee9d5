import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmblocks import thue_morse
from tmblocks.thue_morse import (MAX_M, FactorSet, apply_theta, descendants,
                                 enumerate_by_descendants, enumerate_by_scan,
                                 quarter_markers, theta,
                                 thue_morse_prefix, verify_prefix_pairs,
                                 verify_quarter_descendants, verify_quarter_minima)
from tmblocks.words import BinaryWord, word

A2_GOLDEN = ["00101", "00110", "01001", "01011", "01100", "01101",
             "10010", "10011", "10100", "10110", "11001", "11010"]

A3_GOLDEN = [
    "001011001", "001011010", "001100101", "001101001", "010010110", "010011001",
    "010110011", "010110100", "011001011", "011001101", "011010010", "011010011",
    "100101100", "100101101", "100110010", "100110100", "101001011", "101001100",
    "101100110", "101101001", "110010110", "110011010", "110100101", "110100110",
]


def test_apply_theta_examples():
    assert apply_theta(word("00101")) == word("0101100110")
    assert apply_theta(word("")) == word("")


@st.composite
def _binary_words(draw):
    n = draw(st.integers(0, 70))
    return BinaryWord(n, draw(st.integers(0, (1 << n) - 1)))


@settings(max_examples=300, deadline=None)
@given(_binary_words())
def test_apply_theta_agrees_with_generic_substitution(w):
    # lengths 0..70 cover partial bytes on both sides of the byte tables
    image = apply_theta(w)
    assert image.length == 2 * w.length
    assert tuple(image) == theta().apply(tuple(w))


def test_thue_morse_prefix():
    assert str(thue_morse_prefix(0, 16)) == "0110100110010110"
    assert str(thue_morse_prefix(1, 8)) == "10010110"
    assert str(thue_morse_prefix(0, 0)) == ""
    with pytest.raises(ValueError):
        thue_morse_prefix(2, 4)


def test_descendants_examples():
    d, e = descendants(word("00101"))
    assert d == word("010110011") and e == word("101100110")
    # the f1 marker maps to the next f1 marker under the prefix descendant
    d, _ = descendants(word("10010"))
    assert d == word("100101100")
    # and the f0 marker to the next f0 marker
    d, _ = descendants(word("01101"))
    assert d == word("011010011")
    assert d == thue_morse_prefix(0, 9)
    assert d in enumerate_by_scan(3)


def test_scan_golden_tables():
    assert [str(w) for w in enumerate_by_scan(1).words] == ["001", "010", "011", "100", "101", "110"]
    assert [str(w) for w in enumerate_by_scan(2).words] == A2_GOLDEN
    assert [str(w) for w in enumerate_by_scan(3).words] == A3_GOLDEN


def test_enumeration_methods_agree():
    for m in range(1, 7):
        scan = enumerate_by_scan(m)
        desc = enumerate_by_descendants(m)
        assert scan.words == desc.words
        assert scan.size == 3 * 2 ** m


def test_scan_matches_windows_of_the_parity_sequence():
    # reference: letter i of the fixed point is the parity of popcount(i),
    # windows are string slices and sorted as strings
    for m in range(1, 8):
        n = 2 ** m + 1
        text = "".join(str(bin(i).count("1") % 2) for i in range(32 * n))
        want = sorted({text[i:i + n] for i in range(len(text) - n + 1)})
        assert [str(w) for w in enumerate_by_scan(m).words] == want


def test_enumerators_reject_m_out_of_range():
    with pytest.raises(ValueError):
        enumerate_by_scan(0)
    with pytest.raises(ValueError):
        enumerate_by_descendants(MAX_M + 1)


def test_quarter_markers_m2():
    mk = quarter_markers(enumerate_by_scan(2))
    assert (str(mk.q1), str(mk.q2), str(mk.q3), str(mk.q4)) == ("00101", "01011", "10010", "10110")
    assert str(mk.f0) == "01101" and str(mk.f1) == "10010"


def test_quarter_markers_m3_indices():
    fs = enumerate_by_scan(3)
    mk = quarter_markers(fs)
    assert fs.index(mk.q1) == 0
    assert fs.index(mk.q2) == 6
    assert fs.index(mk.q3) == 12
    assert fs.index(mk.q4) == 18
    assert fs.index(mk.f0) == 11
    assert fs.index(mk.f1) == 12


def test_q3_equals_f1():
    for m in range(2, 7):
        mk = quarter_markers(enumerate_by_scan(m))
        assert mk.q3 == mk.f1


def test_factor_set_structure():
    for m in range(2, 6):
        fs = enumerate_by_scan(m)
        # mirror closure with index reversal
        for i, w in enumerate(fs.words):
            assert fs.index(w.mirror()) == fs.size - 1 - i
        # exactly half the words start with 0
        assert sum(1 for w in fs.words if w[0] == 0) == fs.size // 2
        assert "000" not in "".join(str(fs.words[0]))


def test_quarters_need_m_at_least_2():
    fs = enumerate_by_scan(1)
    with pytest.raises(ValueError):
        fs.quarter_size
    with pytest.raises(ValueError):
        quarter_markers(fs)


def test_index_rejects_non_members():
    fs = enumerate_by_scan(2)
    with pytest.raises(ValueError):
        fs.index(word("00000"))
    assert word("00101") in fs
    assert word("00000") not in fs


def test_factor_set_validation():
    with pytest.raises(ValueError):
        FactorSet(1, tuple(word(t) for t in ("001", "010")))
    with pytest.raises(ValueError):
        FactorSet(1, tuple(word(t) for t in ("010", "001", "011", "100", "101", "110")))


def test_verify_quarter_minima():
    for m in (2, 3, 4):
        rep = verify_quarter_minima(enumerate_by_scan(m))
        assert rep.ok
        assert [e.claim for e in rep] == ["qandf.q1", "qandf.q2", "qandf.q3", "qandf.q4"]


def test_verify_quarter_descendants_with_golden_cross_check():
    fs2 = enumerate_by_scan(2)
    rep = verify_quarter_descendants(fs2, enumerate_by_scan(3))
    assert rep.ok
    q1, q2, _, _ = fs2.quarters()
    deltas = {str(descendants(w)[0]) for w in q1 + q2}
    assert deltas == set(A3_GOLDEN[6:12])
    eps = {str(descendants(w)[1]) for w in q1 + q2}
    assert eps == set(A3_GOLDEN[18:24])


def test_verify_quarter_descendants_expands_each_word_once(monkeypatch):
    expanded = []

    def counting(w):
        expanded.append(w)
        return descendants(w)
    fs3 = enumerate_by_scan(3)
    monkeypatch.setattr(thue_morse, "descendants", counting)
    assert verify_quarter_descendants(fs3, enumerate_by_scan(4)).ok
    assert sorted(expanded) == list(fs3.words)


def test_verify_prefix_pairs():
    for m in (1, 2, 3):
        assert verify_prefix_pairs(enumerate_by_scan(m), enumerate_by_scan(m + 1)).ok


def test_descendant_maps_are_injective_on_factors():
    for m in (2, 3, 4):
        fs = enumerate_by_scan(m)
        ds = [descendants(w) for w in fs.words]
        assert len({d for d, _ in ds}) == fs.size
        assert len({e for _, e in ds}) == fs.size


def test_order_preservation_small_sample():
    rng = random.Random(32)
    for _ in range(200):
        m = rng.randrange(2, 6)
        fs = enumerate_by_scan(m)
        u, v = rng.sample(fs.words, 2)
        if v < u:
            u, v = v, u
        assert apply_theta(u) < apply_theta(v)
        du, dv = descendants(u), descendants(v)
        assert du[0] < dv[0]
        if u[0] == v[0]:
            assert du[1] < dv[1]

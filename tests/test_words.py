import random

import pytest

from tmblocks.words import BinaryWord, word

EMPTY = BinaryWord(0, 0)


def test_parse_and_render_round_trip():
    for text in ("", "0", "1", "00101", "0110100110010110"):
        assert str(word(text)) == text
    assert word("") == EMPTY
    assert len(word("00101")) == 5


def test_parse_rejects_non_binary():
    with pytest.raises(ValueError):
        word("0120")


def test_letter_access():
    # letter i is bit length - 1 - i of bits, and str(w) spells the letters
    w = word("0110")
    assert [(w.bits >> (3 - i)) & 1 for i in range(4)] == [0, 1, 1, 0]
    assert str(w) == "0110"


def test_bits_order_is_lexicographic_on_equal_lengths():
    rng = random.Random(14)
    for _ in range(300):
        n = rng.randrange(1, 30)
        u = BinaryWord(n, rng.getrandbits(n))
        v = BinaryWord(n, rng.getrandbits(n))
        assert (u.bits < v.bits) == (str(u) < str(v))


def test_prefix_examples():
    assert word("010110011").prefix(5) == word("01011")
    w = word("100101")
    assert w.prefix(0) == EMPTY
    assert w.prefix(len(w)) == w
    with pytest.raises(ValueError):
        w.prefix(len(w) + 1)


def test_strip_prefix_examples():
    assert word("0110").strip_prefix(word("01")) == word("10")
    w = word("100101")
    assert w.strip_prefix(EMPTY) == w
    p, full = word("100"), word("100101100110101")
    got = full.strip_prefix(p)
    assert got == word("101100110101")
    assert p + got == full
    with pytest.raises(ValueError):
        word("0110").strip_prefix(word("10"))


def test_concat_suffix_append():
    assert word("0110") + word("1001") == word("01101001")
    assert word("0101100110").suffix(9) == word("101100110")
    assert word("0010110011010011") + word("1") == word("00101100110100111")
    with pytest.raises(ValueError):
        BinaryWord(1, 2)
    with pytest.raises(ValueError):
        word("01").suffix(3)


def _random_word(rng, max_len=40):
    n = rng.randrange(max_len + 1)
    return BinaryWord(n, rng.getrandbits(n) if n else 0)


def test_strip_concat_round_trip_property():
    rng = random.Random(11)
    for _ in range(300):
        p, w = _random_word(rng), _random_word(rng)
        assert (p + w).strip_prefix(p) == w


def test_prefix_monotone_on_equal_lengths():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randrange(1, 30)
        u = BinaryWord(n, rng.getrandbits(n))
        v = BinaryWord(n, rng.getrandbits(n))
        if u.bits > v.bits:
            u, v = v, u
        k = rng.randrange(n + 1)
        assert u.prefix(k).bits <= v.prefix(k).bits


def test_constructor_validation():
    with pytest.raises(ValueError):
        BinaryWord(-1, 0)
    with pytest.raises(ValueError):
        BinaryWord(2, 4)

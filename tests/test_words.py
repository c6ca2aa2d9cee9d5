import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import apply, theta, theta_text
from tmblocks.words import read_windows, theta_bits, window_keys


@st.composite
def _binary_texts(draw, max_len=70):
    """0/1 text of 0..max_len letters: 70 covers partial bytes on both sides
    of the byte tables and window spans of up to nine bytes."""
    n = draw(st.integers(0, max_len))
    return format(draw(st.integers(0, (1 << n) - 1)), f"0{n}b") if n else ""


def _bits(text: str) -> int:
    return int(text, 2) if text else 0


def test_letter_access():
    # letter i of a word of n letters is bit n - 1 - i of its int
    bits = int("0110", 2)
    assert [(bits >> (3 - i)) & 1 for i in range(4)] == [0, 1, 1, 0]
    assert f"{bits:04b}" == "0110"


def test_bits_order_is_lexicographic_on_equal_lengths():
    rng = random.Random(14)
    for _ in range(300):
        n = rng.randrange(1, 30)
        u, v = rng.getrandbits(n), rng.getrandbits(n)
        assert (u < v) == (format(u, f"0{n}b") < format(v, f"0{n}b"))


def test_prefix_monotone_on_equal_lengths():
    # the k-letter prefix of a word of n letters is its int >> (n - k)
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randrange(1, 30)
        u, v = sorted((rng.getrandbits(n), rng.getrandbits(n)))
        k = rng.randrange(n + 1)
        assert u >> (n - k) <= v >> (n - k)


def test_theta_bits_examples():
    assert theta_bits(5, int("00101", 2)) == int("0101100110", 2)
    assert theta_bits(0, 0) == 0
    assert theta_bits(1, 1) == int("10", 2)


@settings(max_examples=300, deadline=None)
@given(_binary_texts())
def test_theta_bits_matches_the_text_reference(w):
    image = theta_text(w)
    assert theta_bits(len(w), _bits(w)) == _bits(image)
    # and the generic substitution, whose letter a is code point a
    letters = str.maketrans("01", "\x00\x01")
    assert image.translate(letters) == apply(theta(), w.translate(letters))


@settings(max_examples=300, deadline=None)
@given(_binary_texts(), st.data())
def test_read_windows_matches_text_slices(w, data):
    n = data.draw(st.integers(0, len(w)))
    starts = data.draw(st.lists(st.integers(0, len(w) - n), max_size=20))
    got = list(read_windows(len(w), _bits(w), n, starts))
    assert got == [_bits(w[p:p + n]) for p in starts]


@pytest.mark.parametrize("n", range(1, 41))
@settings(max_examples=25, deadline=None)
@given(st.data())
def test_window_keys_order_and_tie_as_the_windows(n, data):
    """Every width 1..40, so n % 8 = 0, where a key's tail is 0, and n < 8,
    where its bytes are empty; ties come from repeated starts and from equal
    windows at different starts."""
    length = data.draw(st.integers(n, 70))
    bits = data.draw(st.integers(0, (1 << length) - 1))
    starts = data.draw(st.lists(st.integers(0, length - n), min_size=2, max_size=12))
    ints = list(read_windows(length, bits, n, starts))
    keys = list(window_keys(length, bits, n, starts))
    assert all(len(head) == n // 8 and 0 <= tail < 1 << n % 8 for head, tail in keys)
    for a, b in itertools.product(range(len(starts)), repeat=2):
        assert (keys[a] < keys[b]) == (ints[a] < ints[b])
        assert (keys[a] == keys[b]) == (ints[a] == ints[b])

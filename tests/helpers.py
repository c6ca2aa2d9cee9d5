"""Test-side views of a substitution: its dense incidence matrix, the
substitution of a dense matrix, its labels, and the image words of one
letter;
of a factor set: its labels, and a factor set read off a corrupted prefix;
and text references for θ: the Thue-Morse substitution, and θ and the
descendants of one word of 0/1 text."""

from collections.abc import Iterator
from itertools import islice

import numpy as np

from tmblocks.substitution import Substitution
from tmblocks.thue_morse import FactorSet, _scan


def dense(sub: Substitution) -> np.ndarray:
    """The k*k int64 incidence matrix: M[a][b] is the number of occurrences
    of letter a in the image of letter b."""
    counts = np.zeros((sub.size, sub.size), dtype=np.int64)
    for b, img in enumerate(sub.images):
        for a in img:
            counts[a, b] += 1
    return counts


def from_dense(counts) -> Substitution:
    """The substitution on letters "0".."k-1" whose image of b lists letter a
    M[a][b] times, in a-order; ValueError on a zero column."""
    k = len(counts)
    images = tuple(tuple(a for a in range(k) for _ in range(int(counts[a][b])))
                   for b in range(k))
    return Substitution(images, str)


def labels(sub: Substitution) -> tuple[str, ...]:
    """The labels of the letters of ``sub``, in order."""
    return tuple(map(sub.label, range(sub.size)))


def iterates(sub: Substitution, letter: int) -> Iterator[str]:
    """The n-th image words of ``letter`` for n = 0, 1, 2, ..., without
    end, each one ``translate`` of the one before."""
    table = sub._text_table()
    w = chr(letter)
    while True:
        yield w
        w = w.translate(table)


def nth_image(sub: Substitution, letter: int, n: int) -> str:
    """The n-th image word of ``letter``; n = 0 gives chr(letter)."""
    return next(islice(iterates(sub, letter), n, None))


def factor_labels(fs: FactorSet) -> list[str]:
    """The factors of ``fs`` in order, as the prefix slices it prints."""
    return list(map(fs.label, range(fs.size)))


def off_prefix(fs: FactorSet) -> FactorSet:
    """A factor set like ``fs`` but scanned off its prefix with one letter
    flipped, for the first letter whose flip changes the windows and keeps
    them distinct. The prefix is then no Thue-Morse prefix, and the set is
    not the factor set."""
    text = fs.prefix
    for j, letter in enumerate(text):
        try:
            broken = _scan(fs.m, text[:j] + "10"[int(letter)] + text[j + 1:])
        except RuntimeError:  # the flip repeats a window
            continue
        if broken.bits != fs.bits:
            return broken
    raise AssertionError("no single flip keeps the windows distinct")


def theta() -> Substitution:
    """The Thue-Morse substitution 0 -> 01, 1 -> 10 on the binary alphabet."""
    return Substitution(((0, 1), (1, 0)), "01".__getitem__)


_THETA_TEXT = str.maketrans({"0": "01", "1": "10"})


def theta_text(w: str) -> str:
    """θ of the 0/1 text w."""
    return w.translate(_THETA_TEXT)


def descendants_text(w: str) -> tuple[str, str]:
    """(δ(w), ε(w)) of the 0/1 text w: θ(w) without its last letter, and
    without its first."""
    t = theta_text(w)
    return t[:-1], t[1:]

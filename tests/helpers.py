"""Test-side views of a substitution: its dense incidence matrix, the
substitution of a dense matrix, and the n-th image of one letter."""

from itertools import islice

import numpy as np

from tmblocks.substitution import Alphabet, Substitution


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
    return Substitution(Alphabet(tuple(map(str, range(k)))), images)


def nth_image(sub: Substitution, letter: int, n: int) -> str:
    """The n-th image word of ``letter``; n = 0 gives chr(letter)."""
    return next(islice(sub.iterates(letter), n, None))

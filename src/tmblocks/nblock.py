"""The N-block presentation theta_N of Thue-Morse at width N = 2^m + 1.

The alphabet of theta_N is A_m, the 3·2^m Thue-Morse factors of length N in
lexicographic order, w_1 < ... < w_k. The block w_j maps to the two width-N
windows of theta(w_j), which are again factors: this is the higher block
presentation of Lind & Marcus, *An Introduction to Symbolic Dynamics and
Coding*, §1.4. Its images follow a closed form, which is how theta_N is
built: the first index depends only on ceil(j/2) and lands in the second
quarter (from the first half of the alphabet) or the third quarter (from the
second half); the second index is the first shifted by half the alphabet
size. The closed form is checked letter by letter against the factor set,
without applying theta to any block: the factor set is a prefix P of the
fixed point with one offset p per factor, theta(P) is again a prefix of the
fixed point, and theta(w_j) is its slice of width 2N at 2p, so the labels of
the two image letters of w_j, slices of P at their own offsets, must start
theta(P) at 2p and 2p + 1.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import chain, repeat
from operator import add, and_, eq, itemgetter

from .report import ReportBuilder, VerificationReport, first_failures
from .substitution import Substitution
from .thue_morse import FactorSet, thue_morse_prefix


def half_shift(i: int, size: int) -> int:
    """Translate a 1-based index by half the alphabet size (an involution)."""
    if size % 2:
        raise ValueError(f"alphabet size must be even, got {size}")
    return (i - 1 + size // 2) % size + 1


def _twice(items: Iterable) -> Iterator:
    """Each item of ``items`` twice in a row."""
    return chain.from_iterable(map(repeat, items, repeat(2)))


def thue_morse_block_system(fs: FactorSet) -> Substitution:
    """theta_N on the factors ``fs`` of level m >= 2, N = 2^m + 1, from the
    closed form; ``verify_block_formula`` checks it against the windows.
    The images of w_{2i-1} and w_{2i} both start with the i-th letter of
    Q2 u Q3, and end with that letter shifted by half the alphabet, which
    runs through Q4, then Q1."""
    if fs.m < 2:
        raise ValueError(f"the closed form needs a quarter partition (m >= 2), got m={fs.m}")
    k = fs.size
    q = k // 4
    return Substitution(tuple(zip(_twice(range(q, 3 * q)),
                                  _twice(chain(range(3 * q, k), range(q))))), fs.label)


def verify_block_formula(fs: FactorSet, theta_n: Substitution) -> VerificationReport:
    """Check ``theta_n`` on the factors ``fs`` of level m window by window:
    for each letter j with image (a, b), the labels of a and b must start
    θ(P) at 2p_j and 2p_j + 1. Also check that w_{k/2}, the block the
    injective refinement fixes, is the f0 prefix.

    θ_N maps w_{2i-1} and w_{2i} alike, since both windows of θ(w) lie in
    θ of its first 2^(m-1) + 1 letters, which the two share. So the labels
    are sliced once per pair, from the image of w_{2i}, and w_{2i-1} passes
    only if its image is that one too."""
    k, off, images = fs.size, fs.offsets, theta_n.images
    starts_with, evens = fs.theta_prefix().startswith, images[1::2]

    def labels(n: int) -> Iterator[str]:
        """The label of letter n of the image of each w_{2i}, twice."""
        return _twice(fs.labels(map(off.__getitem__, map(itemgetter(n), evens))))

    firsts = map(starts_with, labels(0), map(add, off, off))  # at 2p_j
    seconds = map(starts_with, labels(1), map(add, off, map((1).__add__, off)))  # 2p_j + 1
    # w_{2i-1} must have the image of w_{2i}, which w_{2i} has
    same = chain.from_iterable(zip(map(eq, images[0::2], evens), repeat(True)))
    bad = first_failures(map(and_, map(and_, firsts, seconds), same))
    rb = ReportBuilder(fs.m, "nblock")
    rb.check("images", not bad,
             f"all {k} two-letter images are windows of θ(P)" if not bad
             else f"mismatch at j={bad}")
    f0_idx, f0 = k // 2 - 1, thue_morse_prefix(0, fs.word_length)
    label = fs.label(f0_idx)
    rb.check("f0", label == f0, f"w_{f0_idx + 1}={label}, f0={f0}")
    return rb.build()

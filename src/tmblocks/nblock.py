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

from array import array
from collections.abc import Iterable, Iterator
from itertools import chain, repeat
from operator import add, and_, eq, getitem

from .report import ReportBuilder, VerificationReport, first_failures
from .substitution import Substitution
from .thue_morse import FactorSet, thue_morse_prefix


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
    letters = array("I", [0]) * (2 * k)
    # the images are 2 letters each, those of w_{2i-1} and w_{2i} 4 in a row
    letters[0::4] = letters[2::4] = array("I", range(q, 3 * q))
    letters[1::4] = letters[3::4] = array("I", chain(range(3 * q, k), range(q)))
    return Substitution(letters, array("I", range(0, 2 * k + 1, 2)), fs.label)


def verify_block_formula(fs: FactorSet, theta_n: Substitution) -> VerificationReport:
    """Check ``theta_n`` on the factors ``fs`` of level m window by window:
    each of its k letters has a two-letter image (a, b), and the labels of a
    and b must start θ(P) at 2p_j and 2p_j + 1. Also check that w_{k/2}, the
    block the injective refinement fixes, is the f0 prefix.

    θ_N maps w_{2i-1} and w_{2i} alike, since both windows of θ(w) lie in
    θ of its first 2^(m-1) + 1 letters, which the two share. So the labels
    are sliced once per pair, from the image of w_{2i}, and w_{2i-1} passes
    only if its image is that one too."""
    k, off, letters = fs.size, fs.offsets, theta_n.letters
    rb = ReportBuilder(fs.m, "nblock")
    if theta_n.size != k or set(theta_n.lengths()) != {2}:
        bad = first_failures(map((2).__eq__, theta_n.lengths()))
        rb.check("images", False, f"mismatch at j={bad}" if bad
                 else f"{theta_n.size} letters, not the {k} factors")
    else:
        starts_with = fs.theta_prefix().startswith

        def labels(n: int) -> Iterator[str]:
            """The label of letter n of the image of each w_{2i}, twice."""
            return _twice(fs.labels(map(getitem, repeat(off), letters[2 + n::4])))

        firsts = map(starts_with, labels(0), map(add, off, off))  # at 2p_j
        seconds = map(starts_with, labels(1), map(add, map(add, off, off), repeat(1)))  # 2p_j + 1
        # w_{2i-1} must have the image of w_{2i}, which w_{2i} has
        same = chain.from_iterable(zip(map(and_, map(eq, letters[0::4], letters[2::4]),
                                           map(eq, letters[1::4], letters[3::4])),
                                       repeat(True)))
        bad = first_failures(map(and_, map(and_, firsts, seconds), same))
        rb.check("images", not bad,
                 f"all {k} two-letter images are windows of θ(P)" if not bad
                 else f"mismatch at j={bad}")
    f0_idx, f0 = k // 2 - 1, thue_morse_prefix(0, fs.word_length)
    label = fs.label(f0_idx)
    rb.check("f0", label == f0, f"w_{f0_idx + 1}={label}, f0={f0}")
    return rb.build()

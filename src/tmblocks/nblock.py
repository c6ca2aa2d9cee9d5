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
fixed point, and theta(w_j) is its window of width 2N at 2p, so the two
image letters of w_j must be the width-N windows of theta(P) at 2p and
2p + 1.
"""

from __future__ import annotations

from .report import ReportBuilder, VerificationReport
from .substitution import Substitution
from .thue_morse import FactorSet, thue_morse_prefix


def half_shift(i: int, size: int) -> int:
    """Translate a 1-based index by half the alphabet size (an involution)."""
    if size % 2:
        raise ValueError(f"alphabet size must be even, got {size}")
    return (i - 1 + size // 2) % size + 1


def first_image_index(j: int, size: int) -> int:
    """1-based index of the first letter of the 2-letter block image of w_j."""
    return size // 4 + (j + 1) // 2


def second_image_index(j: int, size: int) -> int:
    """1-based index of the second letter: the first one, shifted half-way."""
    return half_shift(first_image_index(j, size), size)


def thue_morse_block_system(fs: FactorSet) -> Substitution:
    """theta_N on the factors ``fs`` of level m >= 2, N = 2^m + 1, from the
    closed form; ``verify_block_formula`` checks it against the windows."""
    if fs.m < 2:
        raise ValueError(f"the closed form needs a quarter partition (m >= 2), got m={fs.m}")
    k = fs.size
    return Substitution(tuple((first_image_index(j, k) - 1, second_image_index(j, k) - 1)
                              for j in range(1, k + 1)), fs.label)


def verify_block_formula(fs: FactorSet, theta_n: Substitution) -> VerificationReport:
    """Check ``theta_n`` on the factors ``fs`` of level m window by window:
    the image (a, b) of each letter j must be the width-N windows of θ(P)
    at 2p_j and 2p_j + 1, compared with ``bits[a]`` and ``bits[b]``. Also
    check the structural facts the injective refinement relies on:
    first-letter indices cover Q2 (from the first half) and Q3 (from the
    second half) twice each, and the f0 block maps to itself followed by its
    half-shift."""
    k = fs.size
    bits = fs.bits
    windows = fs.theta_windows(fs.word_length)
    bad = [j + 1 for j, ((a, b), (x, y)) in enumerate(zip(theta_n.images, windows))
           if bits[a] != x or bits[b] != y]
    rb = ReportBuilder(fs.m, "nblock")
    rb.check("images", not bad,
             f"all {k} two-letter images are windows of θ(P)" if not bad
             else f"mismatch at j={bad[:5]}")

    q = k // 4
    firsts_lo = sorted(img[0] + 1 for img in theta_n.images[:k // 2])
    firsts_hi = sorted(img[0] + 1 for img in theta_n.images[k // 2:])
    want_lo = sorted(list(range(q + 1, 2 * q + 1)) * 2)
    want_hi = sorted(list(range(2 * q + 1, 3 * q + 1)) * 2)
    rb.check("first_range", firsts_lo == want_lo and firsts_hi == want_hi,
             "first letters fill Q2 and Q3 twice each")

    f0_idx = k // 2 - 1
    f0_ok = (fs.label(f0_idx) == thue_morse_prefix(0, fs.word_length)
             and theta_n.images[f0_idx] == (f0_idx, half_shift(f0_idx + 1, k) - 1))
    rb.check("f0_image", f0_ok,
             f"image of w_{f0_idx + 1} is w_{f0_idx + 1} w_{half_shift(f0_idx + 1, k)}")
    return rb.build()

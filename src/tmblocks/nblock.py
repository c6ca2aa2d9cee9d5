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
image letters of w_j, the windows of P at their own offsets, must be the
width-N windows of theta(P) at 2p and 2p + 1.
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
    for each letter j with image (a, b), the windows of P at p_a and p_b
    must be those of θ(P) at 2p_j and 2p_j + 1. Also check that w_{k/2},
    the block the injective refinement fixes, is the f0 prefix."""
    k = fs.size
    want = fs.windows(fs.offsets[c] for image in theta_n.images for c in image)
    got = fs.theta_windows()
    bad = [j + 1 for j, (a, b, (x, y)) in enumerate(zip(want, want, got)) if a != x or b != y]
    rb = ReportBuilder(fs.m, "nblock")
    rb.check("images", not bad,
             f"all {k} two-letter images are windows of θ(P)" if not bad
             else f"mismatch at j={bad[:5]}")
    f0_idx, f0 = k // 2 - 1, thue_morse_prefix(0, fs.word_length)
    label = fs.label(f0_idx)
    rb.check("f0", label == f0, f"w_{f0_idx + 1}={label}, f0={f0}")
    return rb.build()

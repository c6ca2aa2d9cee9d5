"""The N-block presentation theta_N of Thue-Morse at width N = 2^m + 1.

The alphabet of theta_N is A_m, the 3·2^m Thue-Morse factors of length N in
lexicographic order, w_1 < ... < w_k. The block w_j maps to the two width-N
windows of theta(w_j), which are again factors: this is the higher block
presentation of Lind & Marcus, *An Introduction to Symbolic Dynamics and
Coding*, §1.4. It is read off the factor set without a second scan and
without applying theta to any block: the factor set is a prefix P of the
fixed point with one offset p per factor, theta(P) is again a prefix of the
fixed point, and theta(w_j) is its window of width 2N at 2p, so the two
image letters are the width-N windows of theta(P) at 2p and 2p + 1, looked
up by their bits among the factors. The image indices also follow a closed
form: the first index depends only on ceil(j/2) and lands in the second
quarter (from the first half of the alphabet) or the third quarter (from the
second half); the second index is the first shifted by half the alphabet
size.
"""

from __future__ import annotations

from .report import ReportBuilder, VerificationReport
from .substitution import Substitution, Word
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
    """theta_N on the factors ``fs`` of level m, N = 2^m + 1: the block w_j
    maps to the two width-N windows of theta(w_j), read at twice its offset
    in theta(P) and each looked up among the factors. A window that is not a
    factor raises RuntimeError."""
    n = fs.word_length
    position = fs._positions
    images = []
    for j, windows in enumerate(fs.theta_windows(n)):
        image = tuple(map(position.get, windows))
        if None in image:
            window = windows[image.index(None)]
            raise RuntimeError(
                f"window {window:0{n}b} of the image of block {fs.label(j)} is not "
                f"a factor (closure violation)")
        images.append(image)
    return Substitution(tuple(images), fs.label)


def formula_block_substitution(fs: FactorSet) -> Substitution:
    """The width-(2^m+1) Thue-Morse block substitution on the factors ``fs``
    of level m, assembled directly from the closed-form index map, without
    applying the base at all."""
    return Substitution(_formula_images(fs.m), fs.label)


def _formula_images(m: int) -> tuple[Word, ...]:
    """The closed-form 0-based image pairs on the 3·2^m blocks of width 2^m+1."""
    if m < 2:
        raise ValueError(f"the closed form needs a quarter partition (m >= 2), got m={m}")
    k = 3 * 2 ** m
    return tuple((first_image_index(j, k) - 1, second_image_index(j, k) - 1)
                 for j in range(1, k + 1))


def verify_block_formula(fs: FactorSet, theta_n: Substitution) -> VerificationReport:
    """Cross-check the closed form on the factors ``fs`` of level m against
    the window construction ``theta_n`` on them, plus the structural
    facts the injective refinement relies on: first-letter indices cover Q2
    (from the first half) and Q3 (from the second half) twice each, and the
    f0 block maps to itself followed by its half-shift."""
    explicit = _formula_images(fs.m)
    k = fs.size
    rb = ReportBuilder(fs.m, "nblock")
    # theta_n labels its letters with fs.label, so the check is on the size:
    # comparing labels would compare fs with itself
    rb.check("alphabet", theta_n.size == k, f"{theta_n.size} blocks vs {k} factors")
    rb.check("images", theta_n.images == explicit,
             f"all {k} two-letter images agree")

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

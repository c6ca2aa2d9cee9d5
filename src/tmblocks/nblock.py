"""N-block recoding of a constant-length substitution.

Given a constant-length-L substitution and a window width N, the block
alphabet is the set of length-N factors of the fixed point. The recoded
substitution maps a block b to the L consecutive width-N windows of the
image of b. For the Thue-Morse base with N = 2^m + 1 this image is a pair
of blocks whose indices follow a closed form: the first index depends only
on ceil(j/2) and lands in the second quarter (first half of the alphabet)
or third quarter (second half); the second index is the first shifted by
half the alphabet size.
"""

from __future__ import annotations

from dataclasses import dataclass

from .report import ReportBuilder, VerificationReport
from .substitution import Alphabet, Substitution, Word
from .thue_morse import FactorSet, theta, thue_morse_prefix


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


@dataclass(frozen=True)
class NBlockSystem:
    """A block recoding, stored as the stable iterate s of the base and one
    offset into s per block: block j is s[offsets[j]:offsets[j] + block_len].
    Labels are built from these on demand, so the system holds len(s) + k
    letters, not k copies of N."""

    base: Substitution
    block_len: int
    iterate: str                      # codepoint text, chr(a) per letter
    offsets: tuple[int, ...]
    block_sub: Substitution           # the recoded substitution

    @property
    def alphabet(self) -> Alphabet:
        """One letter per block; its label is the block in base labels."""
        return self.block_sub.alphabet

    @property
    def size(self) -> int:
        return self.alphabet.size


def build_nblock(base: Substitution, block_len: int) -> NBlockSystem:
    """Construct the width-``block_len`` block recoding of ``base``.

    The base must have constant length L >= 2 and a growing letter (an image
    starting with its own letter). Every window of every image must itself be
    a block of the alphabet; a violation means the input was not a factor
    language and is reported as an error.
    """
    L = base.constant_length()
    if L is None or L < 2:
        raise ValueError("block recoding needs a constant-length base with L >= 2")
    if block_len < 1:
        raise ValueError(f"block length must be >= 1, got {block_len}")
    try:
        seed = next(a for a in range(base.size) if base.is_growing_seed(a))
    except StopIteration:
        raise ValueError("base has no growing letter to seed the fixed point") from None
    # blocks, their images and the windows are codepoint text (letter a is
    # chr(a)); windows are looked up in a dict keyed by their text. Each block
    # occurs in the iterate s at some position i, and the base has constant
    # length L, so the image of the block is the slice [L*i, L*(i+N)) of the
    # next iterate: one application of the base serves every block.
    texts, s, occurrence = base._language_windows(block_len, seed)
    offsets = tuple(map(occurrence.__getitem__, texts))
    position = {t: j for j, t in enumerate(texts)}
    base_labels = base.alphabet.labels
    image_text = base.apply(s)
    images = []
    for i in offsets:
        img = []
        for off in range(L * i, L * i + L):
            window = image_text[off:off + block_len]
            if window not in position:
                raise RuntimeError(
                    f"window {window.translate(base_labels)!r} of the image of block "
                    f"{s[i:i + block_len].translate(base_labels)!r} is not in the block "
                    f"alphabet (closure violation)")
            img.append(position[window])
        images.append(tuple(img))

    def label(j: int) -> str:
        return s[offsets[j]:offsets[j] + block_len].translate(base_labels)

    if len(set(map(len, base_labels))) == 1:
        # one label width: distinct blocks have distinct labels
        alphabet = Alphabet.distinct(len(offsets), label)
    else:
        alphabet = Alphabet(tuple(map(label, range(len(offsets)))))
    return NBlockSystem(base, block_len, s, offsets, Substitution(alphabet, tuple(images)))


def thue_morse_block_system(m: int) -> NBlockSystem:
    """The 2-letter-image block recoding of Thue-Morse at width 2^m + 1."""
    return build_nblock(theta(), 2 ** m + 1)


def formula_block_substitution(fs: FactorSet) -> Substitution:
    """The width-(2^m+1) Thue-Morse block substitution on the factors ``fs``
    of level m, assembled directly from the closed-form index map, without
    applying the base at all."""
    return Substitution(fs.alphabet(), _formula_images(fs.m))


def _formula_images(m: int) -> tuple[Word, ...]:
    """The closed-form 0-based image pairs on the 3·2^m blocks of width 2^m+1."""
    if m < 2:
        raise ValueError(f"the closed form needs a quarter partition (m >= 2), got m={m}")
    k = 3 * 2 ** m
    return tuple((first_image_index(j, k) - 1, second_image_index(j, k) - 1)
                 for j in range(1, k + 1))


def verify_block_formula(fs: FactorSet, sys: NBlockSystem) -> VerificationReport:
    """Cross-check the closed form on the factors ``fs`` of level m against
    the window construction ``sys`` at width 2^m + 1, plus the structural
    facts the injective refinement relies on: first-letter indices cover Q2
    (from the first half) and Q3 (from the second half) twice each, and the
    f0 block maps to itself followed by its half-shift."""
    built = sys.block_sub
    explicit = _formula_images(fs.m)
    k = fs.size
    rb = ReportBuilder(fs.m, "nblock")

    # labels are compared with the factors one at a time, as ints: label j is
    # the window at offsets[j] of the iterate written in base labels, so with
    # one-letter base labels its bits are a shift and a mask of the bits of
    # the whole iterate (at m = 12 all labels as text would take 50 MB)
    n = fs.word_length
    text = sys.iterate.translate(sys.base.alphabet.labels)
    bits, mask = int(text, 2), (1 << n) - 1
    same = (sys.size == k and sys.block_len == n and len(text) == len(sys.iterate)
            and all((bits >> (len(text) - off - n)) & mask == w.bits
                    for off, w in zip(sys.offsets, fs.words)))
    rb.check("alphabet", same, f"{sys.size} language blocks vs {fs.size} enumerated factors")
    rb.check("images", built.images == explicit,
             f"all {k} two-letter images agree")

    q = k // 4
    firsts_lo = sorted(img[0] + 1 for img in built.images[:k // 2])
    firsts_hi = sorted(img[0] + 1 for img in built.images[k // 2:])
    want_lo = sorted(list(range(q + 1, 2 * q + 1)) * 2)
    want_hi = sorted(list(range(2 * q + 1, 3 * q + 1)) * 2)
    rb.check("first_range", firsts_lo == want_lo and firsts_hi == want_hi,
             "first letters fill Q2 and Q3 twice each")

    f0_idx = k // 2 - 1
    f0_ok = (fs.words[f0_idx] == thue_morse_prefix(0, n)
             and built.images[f0_idx] == (f0_idx, half_shift(f0_idx + 1, k) - 1))
    rb.check("f0_image", f0_ok,
             f"image of w_{f0_idx + 1} is w_{f0_idx + 1} w_{half_shift(f0_idx + 1, k)}")
    return rb.build()

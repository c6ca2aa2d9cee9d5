"""The N-block presentation theta_N of Thue-Morse at width N = 2^m + 1.

The alphabet of theta_N is A_m, the 3·2^m Thue-Morse factors of length N in
lexicographic order, w_1 < ... < w_k. The block w_j maps to the two width-N
windows of theta(w_j), which are again factors: this is the higher block
presentation of Lind & Marcus, *An Introduction to Symbolic Dynamics and
Coding*, §1.4. Its images follow a closed form, which is how theta_N is
built: the first index depends only on ceil(j/2) and lands in the second
quarter (from the first half of the alphabet) or the third quarter (from the
second half); the second index is the first shifted by half the alphabet
size.

The closed form is checked on levels m and m - 1 alone, in integer work on
the offsets and the LCP array of level m, with no window read and no level
m + 1. u = θ(u), so θ(w_j) is the width-2N window of u at 2p_j, and its two
windows are δ(v) and ε(v), where v is the prefix of w_j of length
N' = 2^(m-1) + 1. If level m is sorted, its pairs w_{2i-1}, w_{2i} share
their N'-prefix and neighbouring pairs do not, then the k/2 pair prefixes
are A_{m-1} in order, since every factor of length N' extends to one of
length N. If further the offsets of Q2 u Q3 are even and those of Q4 and Q1
odd, and each quarter's words share their first letter, then Q2 u Q3 is
δ(A_{m-1}) in order, since δ keeps the order of two words of one length,
and Q4, Q1 is ε of its two halves, ε keeping the order of two words that
share their first letter. So θ_N is right iff its letters are ``grow``'s
index map halved: with 0-based j and q = k/4, w_j maps to w_a w_b with
a = q + ⌊j/2⌋ and b = (3q + ⌊j/2⌋) mod k.
"""

from __future__ import annotations

from array import array
from itertools import chain, repeat
from operator import and_, eq, mod

from .injectivize import fixed_letters
from .report import ReportBuilder, VerificationReport, first_failures
from .substitution import Substitution
from .thue_morse import FactorSet, thue_morse_prefix


def thue_morse_block_system(fs: FactorSet) -> Substitution:
    """theta_N on the factors ``fs`` of level m >= 2, N = 2^m + 1, from the
    closed form; ``verify_block_formula`` checks it on levels m and m - 1.
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
    """Check ``theta_n`` on the factors ``fs`` of level m from levels m and
    m - 1 alone: each of its k letters has a two-letter image; level m is
    sorted and δ and ε of level m - 1 in order, as the module docstring
    sets out (``_grown_layout``); and the image of each letter j is
    (q + ⌊j/2⌋, (3q + ⌊j/2⌋) mod k). Also check that w_{k/2}, the block the
    injective refinement fixes, is the f0 prefix."""
    k = fs.size
    rb = ReportBuilder(fs.m, "nblock")
    if theta_n.size != k or set(theta_n.lengths()) != {2}:
        bad = first_failures(map((2).__eq__, theta_n.lengths()))
        rb.check("images", False, f"mismatch at j={bad}" if bad
                 else f"{theta_n.size} letters, not the {k} factors")
    else:
        q, letters = k // 4, theta_n.letters
        # the index map, written apart from the closed form that it checks:
        # the images of w_{2i-1} and w_{2i}, 4 letters in a row
        want = array("I", [0]) * (2 * k)
        want[0::4] = want[2::4] = array("I", range(q, 3 * q))
        want[1::4] = want[3::4] = array("I", map(mod, range(3 * q, 5 * q), repeat(k)))
        layout = _grown_layout(fs)
        wrong = [] if letters == want else first_failures(
            map(eq, zip(letters[0::2], letters[1::2]), zip(want[0::2], want[1::2])))
        rb.check("images", not layout and not wrong,
                 f"level {fs.m}: {layout}" if layout
                 else f"mismatch at j={wrong}" if wrong
                 else f"all {k} two-letter images are windows of θ(P)")
    f0_idx, f0 = fixed_letters(k)[0], thue_morse_prefix(0, fs.word_length)
    label = fs.label(f0_idx)
    rb.check("f0", label == f0, f"w_{f0_idx + 1}={label}, f0={f0}")
    return rb.build()


def _grown_layout(fs: FactorSet) -> str:
    """What level m, ``fs``, breaks of the layout that makes θ_N ``grow``'s
    index map halved, or "" if nothing: it is sorted; its pairs w_{2i-1},
    w_{2i} share their prefix of N' = 2^(m-1) + 1 letters and neighbouring
    pairs do not; each quarter's words share their first letter; and the
    offsets of Q2 u Q3 are even and those of Q4 and Q1 odd."""
    k, off, lcp = fs.size, fs.offsets, fs.lcp
    q, half = k // 4, (fs.word_length + 1) // 2
    bad = fs.disorder()
    if bad:
        return f"out of order at i={bad}"
    if min(lcp[0::2], default=half) < half:
        return f"a pair does not share its prefix of {half} letters"
    if max(lcp[1::2], default=0) >= half:
        return f"two neighbouring pairs share their prefix of {half} letters"
    if any(0 in lcp[n * q:(n + 1) * q - 1] for n in range(4)):
        return "the words of a quarter differ in their first letter"
    if any(map(and_, off[q:3 * q], repeat(1))) or not all(map(and_, off[:q] + off[3 * q:],
                                                               repeat(1))):
        return "an offset of Q2 u Q3 is odd, or one of Q4 or Q1 even"
    return ""

"""Thue-Morse factors of length N = 2^m + 1 and their lexicographic structure.

The factor set A_m (3·2^m words, lexicographically ordered) is one prefix
P = θ^(m+2)(0) of the fixed point u, whose letter i is the parity of
popcount(i), plus, for each factor, the offset p_i of one of its
occurrences, and the LCP array: ``lcp[i]`` is the longest common extension
LCE(p_i, p_{i+1}) of u at the offsets of two neighbours, capped at N. A
factor's label is the slice of P's text at its offset, read only where a
label is printed or compared with a given word.

The order passes read no text. Two windows of width N first differ at
ℓ = LCE(p, q) when ℓ < N, so the window at q exceeds the one at p exactly
when ℓ < N and u[p + ℓ] = 0: pair i increases iff lcp[i] < N and
popcount(p_i + lcp[i]) is even, two integer steps a pair.

Each level is grown from the one below. u = θ(u), so the window of length
2N - 1 at 2t is δ of the width-N window at t (θ of it without the last
letter) and the one at 2t + 1 is ε of it (without the first):
A_{m+1} = {δ(w), ε(w) : w in A_m}. ``grow`` lays these windows out as
ε(Q3 u Q4), δ(Q1 u Q2), δ(Q3 u Q4), ε(Q1 u Q2) of level m. θ doubles an
LCE: LCE(2a, 2b) = 2·LCE(a, b), and LCE(2a + 1, 2b + 1) = 2·LCE(a, b) - 1
when that is positive, else 0, so inside each of the four blocks the LCP
array is grown from the one below, and only the three pairs where the
blocks meet are compared letter by letter. One pass then checks that each
window exceeds the one before it (the ``quarters`` claim). By induction
from level 1, which is checked from both sides, that proves each level
sorted, distinct and complete, with no cited count.

On level m + 1, sorted, the pairs w'_{2i-1}, w'_{2i} share their N-prefix
and neighbouring pairs do not (the ``firsthalf`` claim): lcp[2i] >= N >
lcp[2i + 1], 0-based. Every factor of length N extends to one of length
2N - 1, so the k pair prefixes are all of A_m, each once, in order.

The descendant recursion on the ints of the words is an independent
oracle. The descendants of a word u at depth d are the windows of θ^d(u) at
its first 2^d offsets, so it yields the words of a level as windows of θ^d
of the six words of level 1, one block per word. θ^d maps the window of
θ^3(0) at t onto the slice of 3·2^d letters of P at 2^d·t, so block u reads
the windows of P at 2^d·t_u + s, s = 0 .. 2^d - 1, where u starts θ^3(0)
at t_u, and these windows cover θ^d(u); ``matches_descendants`` checks
that θ^d(u) is that slice of P, for each of the six words, and
``enumerate_by_descendants`` sorts the words. On top of the
ordered set sit the quarter partition Q_1..Q_4, its minima, the f_0/f_1 fixed-point prefixes,
and executable verifiers for the identities that tie them together.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, compress, count, islice, pairwise, repeat, starmap
from operator import add, and_, gt, le, lt, or_, sub, truth, xor

from .report import ReportBuilder, VerificationReport, first_failures
from .words import read_windows, theta_bits, window_keys

MAX_M = 12

# recursion base: the six factors of length 3
A1_WORDS = ("001", "010", "011", "100", "101", "110")


def _thue_morse_bits(first_letter: int, n: int) -> tuple[int, int]:
    """A prefix of at least n letters of the Thue-Morse fixed point starting
    with ``first_letter``, as its length, a power of two, and its bits."""
    length, bits = 1, first_letter
    while length < n:
        length, bits = 2 * length, theta_bits(length, bits)
    return length, bits


def thue_morse_prefix(first_letter: int, n: int) -> str:
    """The length-n prefix of the Thue-Morse fixed point starting with
    ``first_letter`` (0 gives 0110..., 1 gives 1001...), as 0/1 text."""
    if first_letter not in (0, 1):
        raise ValueError(f"first letter must be 0 or 1, got {first_letter!r}")
    if n < 0:
        raise ValueError(f"prefix length must be >= 0, got {n}")
    length, bits = _thue_morse_bits(first_letter, n)
    return f"{bits:0{length}b}"[:n]


def lce(starts: Sequence[int], others: Sequence[int], n: int) -> Iterator[int]:
    """The longest common extension of u at each offset of ``starts`` and
    the offset of ``others`` beside it, capped at n: the letters that the
    two width-n windows of u there share before they first differ, read
    off the highest bit of the xor of their bits."""
    length, bits = _thue_morse_bits(0, max(chain(starts, others), default=0) + n)
    xors = map(xor, read_windows(length, bits, n, starts), read_windows(length, bits, n, others))
    return map(sub, repeat(n), map(int.bit_length, xors))


def _letter_lce(a: int, b: int, n: int) -> int:
    """The longest common extension of u at a and b, capped at n, compared
    letter by letter: letter i of u is the parity of popcount(i)."""
    return next((i for i in range(n) if ((a + i).bit_count() ^ (b + i).bit_count()) & 1), n)


def _lcp_array(n: int, values: Iterable[int]) -> array:
    """LCP ``values`` capped at n, 2 bytes an entry while 2n fits in them."""
    return array(_lcp_typecode(n), values)


def _lcp_typecode(n: int) -> str:
    return "H" if n < 1 << 15 else "I"


def _twice(values: array, plus: int = 0) -> array:
    """2v + ``plus`` for each entry v of ``values``, where ``plus`` is 0, 1,
    or -1 if no entry is 0. The entries are the lanes of one int, shifted
    one bit up together: each must leave the top bit of its lane clear, so
    that nothing carries from one lane into the next."""
    order, size = sys.byteorder, len(values) * values.itemsize
    lanes = int.from_bytes(values.tobytes(), order) << 1
    if plus:
        ones = array(values.typecode, [1]) * len(values)
        lanes += plus * int.from_bytes(ones.tobytes(), order)
    doubled = array(values.typecode)
    doubled.frombytes(lanes.to_bytes(size, order))
    return doubled


class FactorSet:
    """The lexicographically sorted factors of length N = 2^m + 1, as
    windows of one Thue-Morse prefix: ``prefix`` is the 0/1 text of a prefix
    P of the fixed point, ``offsets[i]``, an ``array('I')``, the start of an
    occurrence of w_{i+1} in u, and ``lcp[i]`` the LCE of u at the offsets
    of w_{i+1} and w_{i+2}, capped at N. Its label is a slice of P's text.
    ``grow`` hands the LCP array on; when ``lcp`` is not given it is read
    off u at the offsets (``lce``), whatever P's text says."""

    def __init__(self, m: int, prefix: str, offsets: array, lcp: array | None = None) -> None:
        self.m = m
        self.prefix = prefix
        self.offsets = offsets
        n = self.word_length
        if lcp is None:
            lcp = _lcp_array(n, lce(offsets[:-1], offsets[1:], n))
        elif len(lcp) != max(len(offsets) - 1, 0):
            raise ValueError(f"{len(lcp)} LCP entries for {len(offsets)} offsets")
        self.lcp = lcp

    @property
    def word_length(self) -> int:
        return 2 ** self.m + 1

    @property
    def size(self) -> int:
        return len(self.offsets)

    @property
    def quarter_size(self) -> int:
        if self.size % 4:
            raise ValueError(f"|A_{self.m}| = {self.size} has no quarter partition (need m >= 2)")
        return self.size // 4

    def label(self, i: int) -> str:
        """The factor w_{i+1} as 0/1 text: a slice of the prefix text."""
        start = self.offsets[i]
        return self.prefix[start:start + self.word_length]

    def disorder(self, lo: int = 0, hi: int | None = None, limit: int = 5) -> list[int]:
        """The 1-based upper indices i of the first ``limit`` pairs of
        neighbours w_{i-1}, w_i among w_{lo+1} .. w_hi, by default all the
        factors, where w_i does not exceed w_{i-1}: their LCE ℓ reaches N,
        or u[p + ℓ] = 1 at the offset p of w_{i-1}."""
        hi = self.size if hi is None else hi
        n, offsets, lcp = self.word_length, self.offsets[lo:hi], self.lcp[lo:max(hi - 1, lo)]

        def ones() -> Iterator[int]:
            return map(and_, map(int.bit_count, map(add, offsets, lcp)), repeat(1))

        if max(lcp, default=0) < n and not any(ones()):
            return []
        return list(islice(compress(count(lo + 2), map(or_, map(le, repeat(n), lcp), ones())),
                           limit))

    def theta_prefix(self) -> str:
        """θ(P) as 0/1 text, the prefix of the next level."""
        length = len(self.prefix)
        return f"{theta_bits(length, int(self.prefix, 2)):0{2 * length}b}"


class LevelFailed(RuntimeError):
    """A level that failed its check while ``enumerate_by_scan`` built it."""


def _check_m(m: int) -> None:
    if not 1 <= m <= MAX_M:
        raise ValueError(f"m must be in 1..{MAX_M}, got {m}")


def _base() -> FactorSet:
    """Level 1: the width-3 windows at offsets 0 .. 5 of θ^3(0), sorted."""
    prefix = thue_morse_prefix(0, 8)
    return FactorSet(1, prefix, array("I", sorted(range(6), key=lambda p: prefix[p:p + 3])))


def grow(fs: FactorSet) -> FactorSet:
    """Level m + 1 from level m, unchecked: over θ(P), ε of the second half
    of ``fs``, δ of the first half, δ of the second and ε of the first.
    Inside each block the LCE L of two neighbours of level m becomes 2L
    under δ and 2L - 1 under ε, 0 if L is 0, both capped at 2N - 1; the
    three pairs where the blocks meet are compared letter by letter."""
    h, n, cap = fs.size // 2, fs.word_length, 2 * fs.word_length - 1
    # δ of each word starts at 2p, ε at 2p + 1
    offsets = (_twice(fs.offsets[h:], 1) + _twice(fs.offsets[:h]) + _twice(fs.offsets[h:])
               + _twice(fs.offsets[:h], 1))

    def images(lcp: array) -> tuple[array, array]:
        """The LCEs under δ and under ε of the pairs with LCE ``lcp``."""
        if lcp.typecode != _lcp_typecode(cap):
            lcp = _lcp_array(cap, lcp)
        under_delta = _twice(lcp)
        under_eps = (_twice(lcp, -1) if 0 not in lcp
                     else _lcp_array(cap, map(sub, under_delta, map(truth, lcp))))
        if n in lcp:
            under_delta = _lcp_array(cap, map(min, under_delta, repeat(cap)))
        return under_delta, under_eps

    (delta_low, eps_low), (delta_high, eps_high) = images(fs.lcp[:h - 1]), images(fs.lcp[h:])
    first, second, third = map(_letter_lce, offsets[h - 1:3 * h:h], offsets[h:3 * h + 1:h],
                               repeat(cap))
    lcp = eps_high
    lcp.append(first)
    lcp += delta_low
    lcp.append(second)
    lcp += delta_high
    lcp.append(third)
    lcp += eps_low
    return FactorSet(fs.m + 1, fs.theta_prefix(), offsets, lcp)


def enumerate_by_scan(m: int) -> FactorSet:
    """The factor set of level m: level 1 from θ^3(0), grown m - 1 times,
    each level checked; a failed check raises ``LevelFailed``. P is
    θ^(m+2)(0), and the offsets are a permutation of 0 .. 3·2^m - 1."""
    _check_m(m)
    fs = _base()
    # from both sides: the windows are distinct, and they include every
    # width-3 window of θ^4(0), which are all the factors, since one of
    # u = θ(u) lies in θ(ab) for a factor ab, and all four occur in θ^3(0)
    words, text = list(map(fs.label, range(fs.size))), thue_morse_prefix(0, 16)
    if words != sorted({text[p:p + 3] for p in range(14)}):
        raise LevelFailed(f"level 1 reads {words}, not the width-3 windows of θ^4(0)")
    for _ in range(m - 1):
        fs = grow(fs)
        failed = [f"{e.claim}: {e.detail}" for e in verify_quarter_descendants(fs).entries
                  if not e.passed]
        if failed:
            raise LevelFailed(f"level {fs.m} is out of order: {'; '.join(failed)}")
    return fs


def _theta_block(u: str, d: int) -> tuple[int, int]:
    """θ^d of the 0/1 text u as the length and the bits of the word."""
    length, bits = len(u), int(u, 2)
    for _ in range(d):
        length, bits = 2 * length, theta_bits(length, bits)
    return length, bits


def descendant_words(m: int) -> Iterator[int]:
    """The factors of length N as the ints of their bits: the descendant
    recursion from the hard-coded length-3 base, in six blocks of 2^d words,
    d = m - 1, one per word u of ``A1_WORDS`` in that order.

    δ(u) drops the last letter of θ(u) and ε(u) the first, so they are the
    windows of θ(u) at offsets 0 and 1, one letter narrower than it. θ maps
    the window at t of a word to the one of twice the width at 2t of its
    image, so by induction the descendants of u at depth d are the width-N
    windows of θ^d(u) at offsets 0 .. 2^d - 1, which block u yields in
    that order, each once."""
    _check_m(m)
    d = m - 1
    for u in A1_WORDS:
        length, bits = _theta_block(u, d)
        yield from read_windows(length, bits, 2 ** m + 1, range(2 ** d))


def enumerate_by_descendants(m: int) -> tuple[int, ...]:
    """The factors of length N in lexicographic order, as the ints of their
    bits: the distinct words of ``descendant_words(m)``, sorted, an oracle
    for the scan. One length per level, so int order is lex order."""
    words = sorted(set(descendant_words(m)))
    if len(words) != 3 * 2 ** m:
        raise RuntimeError(f"expected {3 * 2 ** m} factors for m={m}, got {len(words)}")
    return tuple(words)


def matches_descendants(fs: FactorSet) -> bool:
    """True iff the windows of ``fs`` increase and are, as a set, the words
    of ``descendant_words(fs.m)``, each yielded once: what comparing them
    with ``enumerate_by_descendants(fs.m)`` one by one proves, with no word
    held and no int a factor.

    P = θ^(m+2)(0) is θ^d(θ^3(0)), d = m - 1, so the block of the stream
    grown from u is the windows of P at 2^d·t_u + s, s = 0 .. 2^d - 1,
    where u starts θ^3(0) at t_u. Those windows, of width 2^(d+1) + 1,
    cover the 3·2^d letters of θ^d(u), so the block equals them one by one
    exactly when θ^d(u) is the 3·2^d letters of P from 2^d·t_u on: that is
    checked for each u, one slice of P a block. The six t_u are 0 .. 5, so
    the windows of the blocks start at 0 .. k - 1, k = 3·2^m, and their
    slices cover P. There must then be k offsets,
    counted from m, all below k, and one pass checks that each window
    exceeds the one before, on keys that order and tie as the windows do
    (``window_keys``). Windows that increase lie at distinct offsets, so
    the offsets are a permutation of 0 .. k - 1, and the level's windows
    are the stream's words as a set."""
    k, d, text = 3 << fs.m, fs.m - 1, fs.prefix
    if len(fs.offsets) != k or max(fs.offsets) >= k:
        return False
    t = map(thue_morse_prefix(0, 8).index, A1_WORDS)  # the oracle's own base
    for u, t_u in zip(A1_WORDS, t):
        length, bits = _theta_block(u, d)
        if text[t_u << d:t_u + 3 << d] != f"{bits:0{length}b}":
            return False
    keys = window_keys(len(text), int(text, 2), fs.word_length, fs.offsets)
    return all(starmap(lt, pairwise(keys)))


def verify_quarter_minima(fs: FactorSet, m: int) -> VerificationReport:
    """Check that ``fs`` is level m, 3·2^m labels of 2^m + 1 letters, and
    that each quarter minimum is the stated rewrite of f_1:
    q1 = 1^{-1} f1 · 1, q2 = (10)^{-1} f1 · 11, q3 = f1, q4 = (100)^{-1} f1 · 110."""
    k, n = 3 * 2 ** m, 2 ** m + 1
    rb = ReportBuilder(m, "qandf")
    # a label is cut short where its slice runs past the end of P
    shortest = min(fs.word_length, len(fs.prefix) - max(fs.offsets, default=0))
    rb.check("count", fs.m == m and fs.size == k and shortest == n,
             f"level {fs.m}: {fs.size} factors, the shortest label {shortest} letters long; "
             f"|A_{m}| = {k} of {n} letters")
    q = fs.quarter_size
    f1 = thue_morse_prefix(1, fs.word_length)
    # name -> (p, s) of the rewrite p^{-1} f1 · s
    rewrites = {"q1": ("1", "1"), "q2": ("10", "11"), "q3": ("", ""), "q4": ("100", "110")}
    for i, (name, (p, s)) in enumerate(rewrites.items()):
        got = fs.label(i * q)  # the minimum of quarter i + 1
        rb.check(name, f1.startswith(p) and got == f1[len(p):] + s,
                 f"{name}={got}, from f1={f1}")
    return rb.build()


def verify_quarter_descendants(fs_next: FactorSet) -> VerificationReport:
    """Check the four quarter image identities one level up, on the level
    ``fs_next`` that ``grow`` built from level m:
    Q1' = eps(Q3 u Q4), Q2' = delta(Q1 u Q2), Q3' = delta(Q3 u Q4), Q4' = eps(Q1 u Q2).
    Its quarters are these images, so they hold if each factor exceeds the
    one before it: one order pass over the LCP array per quarter, whose
    entry names the first index there that does not, and fails unless it
    read k/4 labels, one more after Q1: so the three pairs where quarters
    meet, the only ones not ordered by level m, are compared."""
    q = fs_next.quarter_size
    rb = ReportBuilder(fs_next.m - 1, "quarters")
    images = ("eps(Q3 u Q4)", "delta(Q1 u Q2)", "delta(Q3 u Q4)", "eps(Q1 u Q2)")
    for n, image in enumerate(images):
        # the pairs of neighbours from the one before the quarter on; i is
        # the 1-based upper index of the first that does not increase
        lo, hi = max(n * q - 1, 0), (n + 1) * q
        i = next(iter(fs_next.disorder(lo, hi, 1)), 0)
        read, want = len(fs_next.offsets[lo:hi]), fs_next.size // 4 + (n > 0)
        rb.check(f"Q{n + 1}", not i and read == want,
                 f"{image} out of order at i={i}" if i
                 else f"{image} increases over {read} labels" if read == want
                 else f"{image} read {read} labels, not {want}")
    return rb.build()


def verify_prefix_pairs(fs: FactorSet, fs_next: FactorSet) -> VerificationReport:
    """Check that consecutive pairs of the next level (``fs_next``) share
    their length-N prefix with the corresponding word one level down:
    Pref_N(w'_{2i-1}) = Pref_N(w'_{2i}) = w_i for every i. Level m + 1 is
    sorted (the ``quarters`` premise), and every factor of length N extends
    to one of length 2N - 1, so this holds iff it has 2k factors and, on
    its LCP array, each pair's LCE reaches N and that of the pair with the
    next does not: the k pair prefixes are then A_m, each once, in order,
    which is level m. Of level m, N and k are read."""
    k, n, lcp = fs.size, fs.word_length, fs_next.lcp
    inside = map(le, repeat(n), lcp[0::2])
    between = chain(map(gt, repeat(n), lcp[1::2]), (True,))
    bad = first_failures(map(and_, inside, between))
    rb = ReportBuilder(fs.m, "firsthalf")
    rb.check("pairs", not bad and fs_next.size == 2 * k,
             f"mismatch at i={bad}" if bad
             else f"all {k} prefix pairs match" if fs_next.size == 2 * k
             else f"{fs_next.size} factors one level up, not {2 * k}")
    return rb.build()

"""Thue-Morse factors of length N = 2^m + 1 and their lexicographic structure.

The factor set A_m (3·2^m words, lexicographically ordered) is one prefix
P = θ^(m+2)(0) of the fixed point u plus, for each factor, the offset of one
of its occurrences in P. A factor is its offset: its label is the slice of
P's text there, and labels are compared as text, which on words of one
length is lexicographic order, streamed one slice at a time.

Each level is grown from the one below. θ(P) is again a prefix of u = θ(u),
so the window of length 2N - 1 at 2t is δ of the width-N window at t (θ of
it without the last letter) and the one at 2t + 1 is ε of it (without the
first): A_{m+1} = {δ(w), ε(w) : w in A_m}. ``grow`` lays these windows out
as ε(Q3 u Q4), δ(Q1 u Q2), δ(Q3 u Q4), ε(Q1 u Q2) of level m, and one
streamed pass checks that each label exceeds the one before it (the
``quarters`` claim). By induction from level 1, which is checked from both
sides, that proves each level sorted, distinct and complete, with no cited
count.

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

from array import array
from collections.abc import Iterable, Iterator
from itertools import chain, pairwise, repeat, starmap, tee
from operator import add, and_, getitem, lt

from .report import ReportBuilder, VerificationReport, first_failures
from .words import read_windows, theta_bits, window_keys

MAX_M = 12

# recursion base: the six factors of length 3
A1_WORDS = ("001", "010", "011", "100", "101", "110")


def thue_morse_prefix(first_letter: int, n: int) -> str:
    """The length-n prefix of the Thue-Morse fixed point starting with
    ``first_letter`` (0 gives 0110..., 1 gives 1001...), as 0/1 text."""
    if first_letter not in (0, 1):
        raise ValueError(f"first letter must be 0 or 1, got {first_letter!r}")
    if n < 0:
        raise ValueError(f"prefix length must be >= 0, got {n}")
    length, bits = 1, first_letter
    while length < n:
        length, bits = 2 * length, theta_bits(length, bits)
    return f"{bits:0{length}b}"[:n]


class FactorSet:
    """The lexicographically sorted factors of length N = 2^m + 1, as
    windows of one Thue-Morse prefix: ``prefix`` is the 0/1 text of a prefix
    P of the fixed point, and ``offsets[i]``, an ``array('I')``, the start
    of an occurrence of w_{i+1} in P. Its label is a slice of P's text,
    and its θ image the width-2N slice of θ(P) at twice its offset."""

    def __init__(self, m: int, prefix: str, offsets: array) -> None:
        self.m = m
        self.prefix = prefix
        self.offsets = offsets

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

    def labels(self, starts: Iterable[int] | None = None) -> Iterator[str]:
        """The width-N slices of P's text at ``starts``, by default the
        factors' offsets in order, one at a time."""
        starts, ends = tee(self.offsets if starts is None else starts)
        return map(getitem, repeat(self.prefix),
                   map(slice, starts, map(add, ends, repeat(self.word_length))))

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
    of ``fs``, δ of the first half, δ of the second and ε of the first."""
    h = fs.size // 2
    twice = array("I", map(add, fs.offsets, fs.offsets))  # δ of each word starts at 2p
    low, high = twice[:h], twice[h:]
    offsets = array("I", chain(map(add, high, repeat(1)), low, high, map(add, low, repeat(1))))
    return FactorSet(fs.m + 1, fs.theta_prefix(), offsets)


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
    Its quarters are these images, so they hold if each label exceeds the
    one before it: one streamed pass over consecutive labels per quarter,
    whose entry names the first index there that does not, and fails unless
    it read k/4 labels, one more after Q1: so the three pairs where quarters
    meet, the only ones not ordered by level m, are compared."""
    q = fs_next.quarter_size
    rb = ReportBuilder(fs_next.m - 1, "quarters")
    images = ("eps(Q3 u Q4)", "delta(Q1 u Q2)", "delta(Q3 u Q4)", "eps(Q1 u Q2)")
    for n, image in enumerate(images):
        # the pairs of consecutive labels from the one before the quarter on;
        # i is the 1-based upper index of the first that does not increase
        lo = max(n * q - 1, 0)
        window = fs_next.offsets[lo:(n + 1) * q]
        bad = first_failures(starmap(lt, pairwise(fs_next.labels(window))), 1)
        i = lo + 1 + bad[0] if bad else 0
        read, want = len(window), fs_next.size // 4 + (n > 0)
        rb.check(f"Q{n + 1}", not i and read == want,
                 f"{image} out of order at i={i}" if i
                 else f"{image} increases over {read} labels" if read == want
                 else f"{image} read {read} labels, not {want}")
    return rb.build()


def verify_prefix_pairs(fs: FactorSet, fs_next: FactorSet) -> VerificationReport:
    """Check that consecutive pairs of the next level (``fs_next``) share
    their length-N prefix with the corresponding word one level down:
    Pref_N(w'_{2i-1}) = Pref_N(w'_{2i}) = w_i for every i: the label of w_i
    must start the next level's prefix at the offsets of w'_{2i-1} and
    w'_{2i}."""
    upper, starts_with = fs_next.offsets, fs_next.prefix.startswith
    first, second = tee(fs.labels())
    bad = first_failures(map(and_, map(starts_with, first, upper[0::2]),
                             map(starts_with, second, upper[1::2])))
    rb = ReportBuilder(fs.m, "firsthalf")
    rb.check("pairs", not bad,
             f"all {fs.size} prefix pairs match" if not bad else f"mismatch at i={bad}")
    return rb.build()

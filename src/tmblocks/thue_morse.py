"""Thue-Morse factors of length N = 2^m + 1 and their lexicographic structure.

The factor set A_m (3·2^m words, lexicographically ordered) is one prefix P
of the Thue-Morse fixed point plus, for each factor, the int of its bits and
the offset of its occurrence in P. P = θ^(m+2)(0) has 4·2^m letters, and its
3·2^m windows of width N at offsets 0 .. 3·2^m - 1 are pairwise distinct, so
they are all the factors (Brlek 1989; de Luca & Varricchio 1989): the scan
reads exactly those windows, with no deduplication. Every per-factor step
reads windows by offset instead of handling the words one at a time: θ(P) is
again a prefix of the fixed point, so the factor at offset p has θ_N image
the two width-N windows of θ(P) at 2p and 2p + 1, and descendants δ and ε
the width-(2N-1) windows there (the higher block presentation, Lind &
Marcus, §1.4). A binary word is the int of its bits where it is compared
or read from (``words``), and its 0/1 text where it is printed: P is held
as its text, and a factor is printed as a slice of it.

The factor set is enumerated two independent ways: by reading the windows
of P, and by the descendant recursion, which maps each word u of A_m to the
two length-(2N-1) windows of theta(u), on the ints of the words' bits. On
top of the ordered set sit the quarter partition Q_1..Q_4, its minima, the
f_0/f_1 fixed-point prefixes, and executable verifiers for the identities
that tie them together.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cached_property

from .report import ReportBuilder, VerificationReport
from .words import read_windows, theta_bits

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
    windows of one Thue-Morse prefix, as ``enumerate_by_scan`` reads them.

    ``prefix`` is the 0/1 text of a prefix P of the fixed point in which
    every factor occurs. For the factor w_{i+1}, ``offsets[i]`` is the start
    of one of its occurrences in P, and ``bits[i]`` is the int of its bits,
    the window of P there (so ``bits`` is strictly increasing). No factor is
    held as a word of its own: its label is a slice of P's text, and its θ
    image and descendants are windows of θ(P) at twice its offset
    (``theta_windows``).
    """

    def __init__(self, m: int, prefix: str, offsets: tuple[int, ...],
                 bits: tuple[int, ...]) -> None:
        self.m = m
        self.prefix = prefix
        self.offsets = offsets
        self.bits = bits

    @property
    def word_length(self) -> int:
        return 2 ** self.m + 1

    @property
    def size(self) -> int:
        return len(self.bits)

    @cached_property
    def _positions(self) -> dict[int, int]:
        """The ``bits`` of each factor -> its 0-based position."""
        return {b: i for i, b in enumerate(self.bits)}

    @property
    def quarter_size(self) -> int:
        if self.size % 4:
            raise ValueError(f"|A_{self.m}| = {self.size} has no quarter partition (need m >= 2)")
        return self.size // 4

    def quarters(self) -> tuple[tuple[int, ...], ...]:
        """The ``bits`` of the factors of Q_1..Q_4."""
        q = self.quarter_size
        return tuple(self.bits[i * q:(i + 1) * q] for i in range(4))

    def label(self, i: int) -> str:
        """The factor w_{i+1} as 0/1 text: a slice of the prefix text."""
        start = self.offsets[i]
        return self.prefix[start:start + self.word_length]

    def theta_windows(self, width: int) -> Iterator[tuple[int, int]]:
        """For each factor, in order, the width-``width`` windows of θ(P) at
        2p and 2p + 1, where p is the factor's offset in P, as the ints of
        their bits. θ(w) is the window of θ(P) of width 2N at 2p, so width N
        gives the two letters of w's θ_N image and width 2N - 1 its
        descendants (δ(w), ε(w))."""
        starts = (q for p in self.offsets for q in (2 * p, 2 * p + 1))
        length = len(self.prefix)
        windows = read_windows(2 * length, theta_bits(length, int(self.prefix, 2)), width, starts)
        return zip(windows, windows)  # consecutive windows of the one iterator


def _check_m(m: int) -> None:
    if not 1 <= m <= MAX_M:
        raise ValueError(f"m must be in 1..{MAX_M}, got {m}")


def enumerate_by_scan(m: int) -> FactorSet:
    """Read the width-N windows at offsets 0 .. 3·2^m - 1 of the fixed-point
    prefix P = θ^(m+2)(0) of 4·2^m letters. They are the 3·2^m factors, one
    offset each, and θ(P) is the prefix that level m + 1 reads."""
    _check_m(m)
    return _scan(m, thue_morse_prefix(0, 2 ** (m + 2)))


def _scan(m: int, prefix: str) -> FactorSet:
    """The width-(2^m + 1) windows at offsets 0 .. 3·2^m - 1 of the 0/1 text
    ``prefix``, sorted, as a factor set; a repeated window raises
    ``RuntimeError``."""
    n = 2 ** m + 1
    target = 3 * 2 ** m
    windows = list(read_windows(len(prefix), int(prefix, 2), n, range(target)))
    found = len(set(windows))
    if found != target:
        raise RuntimeError(
            f"found {found} distinct factors of length {n}, expected {target}")
    # equal lengths: integer order is lexicographic order
    offsets = tuple(sorted(range(target), key=windows.__getitem__))
    return FactorSet(m, prefix, offsets, tuple(map(windows.__getitem__, offsets)))


def enumerate_by_descendants(m: int) -> tuple[int, ...]:
    """The factors of length N in lexicographic order, as the ints of their
    bits, grown from the hard-coded length-3 base by taking both descendants
    of every word, level by level: an oracle for the scan. δ(u) drops the
    last letter of θ(u) and ε(u) the first."""
    _check_m(m)
    n = 3
    level = [int(t, 2) for t in A1_WORDS]
    for _ in range(m - 1):
        width = 2 * n - 1
        mask = (1 << width) - 1
        nxt = set()
        for b in level:
            t = theta_bits(n, b)
            nxt.add(t >> 1)
            nxt.add(t & mask)
        level = sorted(nxt)  # one length per level: int order is lex order
        n = width
    if len(level) != 3 * 2 ** m:
        raise RuntimeError(f"expected {3 * 2 ** m} factors for m={m}, got {len(level)}")
    return tuple(level)


def verify_quarter_minima(fs: FactorSet) -> VerificationReport:
    """Check that each quarter minimum is the stated rewrite of f_1:
    q1 = 1^{-1} f1 · 1, q2 = (10)^{-1} f1 · 11, q3 = f1, q4 = (100)^{-1} f1 · 110."""
    q = fs.quarter_size
    f1 = thue_morse_prefix(1, fs.word_length)
    rb = ReportBuilder(fs.m, "qandf")
    # name -> (p, s) of the rewrite p^{-1} f1 · s
    rewrites = {"q1": ("1", "1"), "q2": ("10", "11"), "q3": ("", ""), "q4": ("100", "110")}
    for i, (name, (p, s)) in enumerate(rewrites.items()):
        got = fs.label(i * q)  # the minimum of quarter i + 1
        rb.check(name, f1.startswith(p) and got == f1[len(p):] + s,
                 f"{name}={got}, from f1={f1}")
    return rb.build()


def verify_quarter_descendants(fs: FactorSet, fs_next: FactorSet) -> VerificationReport:
    """Check the four quarter image identities one level up, from the factor
    sets of levels m and m + 1:
    Q1' = eps(Q3 u Q4), Q2' = delta(Q1 u Q2), Q3' = delta(Q3 u Q4), Q4' = eps(Q1 u Q2).

    delta and eps of every factor are the width-(2N-1) windows of θ(P) at
    twice its offset; they are compared as ints with the quarters' bits."""
    p1, p2, p3, p4 = fs_next.quarters()
    # (delta, eps) of each word; Q1 u Q2 is the first half
    pairs = list(fs.theta_windows(2 * fs.word_length - 1))
    low, high = pairs[:2 * fs.quarter_size], pairs[2 * fs.quarter_size:]
    checks = [
        ("Q1", {e for _, e in high}, p1),
        ("Q2", {d for d, _ in low}, p2),
        ("Q3", {d for d, _ in high}, p3),
        ("Q4", {e for _, e in low}, p4),
    ]
    rb = ReportBuilder(fs.m, "quarters")
    for name, got, want in checks:
        rb.check(name, got == set(want), f"{len(got)} images vs quarter of size {len(want)}")
    return rb.build()


def verify_prefix_pairs(fs: FactorSet, fs_next: FactorSet) -> VerificationReport:
    """Check that consecutive pairs of the next level (``fs_next``) share
    their length-N prefix with the corresponding word one level down:
    Pref_N(w'_{2i-1}) = Pref_N(w'_{2i}) = w_i for every i."""
    shift = fs_next.word_length - fs.word_length  # Pref_N drops the other letters
    nxt = fs_next.bits
    bad = [i + 1 for i, b in enumerate(fs.bits)
           if nxt[2 * i] >> shift != b or nxt[2 * i + 1] >> shift != b]
    rb = ReportBuilder(fs.m, "firsthalf")
    rb.check("pairs", not bad,
             f"all {fs.size} prefix pairs match" if not bad else f"mismatch at i={bad[:5]}")
    return rb.build()

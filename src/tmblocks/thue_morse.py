"""Thue-Morse factors of length N = 2^m + 1 and their lexicographic structure.

The factor set A_m (3·2^m words, lexicographically ordered) is enumerated two
independent ways: by sliding a window over a fixed-point prefix, and by the
descendant recursion that maps each word u of A_m to the two length-(2N-1)
windows of theta(u). On top of the ordered set sit the quarter partition
Q_1..Q_4, its minima, the f_0/f_1 fixed-point prefixes, and executable
verifiers for the identities that tie them together.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter

from .report import ReportBuilder, VerificationReport
from .substitution import Alphabet, Substitution
from .words import BinaryWord, word

MAX_M = 12

# recursion base: the six factors of length 3
A1_WORDS = ("001", "010", "011", "100", "101", "110")


def _spread_nibble(x: int) -> int:
    """Move bit i of a 4-bit value to bit 2i of a byte."""
    return sum(((x >> i) & 1) << (2 * i) for i in range(4))


# byte -> the spread of its high / low nibble, for bytes.translate
_SPREAD_HIGH = bytes(_spread_nibble(b >> 4) for b in range(256))
_SPREAD_LOW = bytes(_spread_nibble(b & 15) for b in range(256))

_bits = attrgetter("bits")


def theta() -> Substitution:
    """The Thue-Morse substitution 0 -> 01, 1 -> 10 on the binary alphabet."""
    return Substitution(Alphabet(("0", "1")), ((0, 1), (1, 0)))


def apply_theta(w: BinaryWord) -> BinaryWord:
    """theta on a packed binary word (0 -> 01, 1 -> 10), on the bits alone.

    Letter i from the end goes to bit 2i + 1 of the image and its complement
    to bit 2i. The spread s (bit i of w at bit 2i) is built byte-wise with two
    256-entry tables; the complements are then s xor 0b0101...01, and theta(w)
    is (s << 1) | that. Zero bytes padding ``bits`` to whole bytes spread to
    zero bits above bit 2n, so no mask is needed.
    """
    data = w.bits.to_bytes((w.length + 7) // 8, "big")
    spread = bytearray(2 * len(data))
    spread[0::2] = data.translate(_SPREAD_HIGH)
    spread[1::2] = data.translate(_SPREAD_LOW)
    s = int.from_bytes(spread, "big")
    evens = ((1 << 2 * w.length) - 1) // 3
    return BinaryWord(2 * w.length, (s << 1) | (s ^ evens))


def thue_morse_prefix(first_letter: int, n: int) -> BinaryWord:
    """The length-n prefix of the Thue-Morse fixed point starting with
    ``first_letter`` (0 gives 0110..., 1 gives 1001...)."""
    if first_letter not in (0, 1):
        raise ValueError(f"first letter must be 0 or 1, got {first_letter!r}")
    if n < 0:
        raise ValueError(f"prefix length must be >= 0, got {n}")
    w = BinaryWord(1, first_letter)
    while len(w) < n:
        w = apply_theta(w)
    return w.prefix(n)


def descendants(w: BinaryWord) -> tuple[BinaryWord, BinaryWord]:
    """The two windows of theta(w) one letter shorter than the whole image:
    (prefix, suffix), each of length 2*len(w) - 1."""
    t = apply_theta(w)
    return t.prefix(t.length - 1), t.suffix(t.length - 1)


@dataclass(frozen=True)
class FactorSet:
    """The lexicographically sorted factors of length 2^m + 1."""

    m: int
    words: tuple[BinaryWord, ...]

    def __post_init__(self) -> None:
        n = 2 ** self.m + 1
        if len(self.words) != 3 * 2 ** self.m:
            raise ValueError(
                f"expected {3 * 2 ** self.m} factors for m={self.m}, got {len(self.words)}")
        for w in self.words:
            if len(w) != n:
                raise ValueError(f"factor {w} has length {len(w)}, expected {n}")
        # equal lengths: integer order of the bits is lexicographic order
        bits = list(map(_bits, self.words))
        if any(a >= b for a, b in zip(bits, bits[1:])):
            raise ValueError("factors must be strictly increasing")

    @property
    def word_length(self) -> int:
        return 2 ** self.m + 1

    @property
    def size(self) -> int:
        return len(self.words)

    @cached_property
    def _positions(self) -> dict[int, int]:
        """The ``bits`` of each factor -> its 0-based position."""
        return {w.bits: i for i, w in enumerate(self.words)}

    @property
    def quarter_size(self) -> int:
        if self.size % 4:
            raise ValueError(f"|A_{self.m}| = {self.size} has no quarter partition (need m >= 2)")
        return self.size // 4

    def quarters(self) -> tuple[tuple[BinaryWord, ...], ...]:
        q = self.quarter_size
        return tuple(self.words[i * q:(i + 1) * q] for i in range(4))

    def alphabet(self) -> Alphabet:
        """The words as labels; they are strictly increasing, hence distinct."""
        words = self.words
        return Alphabet.distinct(self.size, lambda i: str(words[i]))


def _check_m(m: int) -> None:
    if not 1 <= m <= MAX_M:
        raise ValueError(f"m must be in 1..{MAX_M}, got {m}")


def _windows(w: BinaryWord, n: int) -> set[int]:
    """The distinct width-n windows of w, as the ints of their bits.

    The window ending s letters before the end of w is (bits >> s) masked to
    n bits. It is read as the bytes of bits >> (s % 8) from byte s // 8 on,
    one of eight shifted copies. Those byte slices carry up to 7 more bits
    and are deduplicated before the few distinct ones are converted.
    """
    span = (n + 7) // 8
    size = (w.length + 7) // 8
    shifted = [(w.bits >> r).to_bytes(size, "little") for r in range(8)]
    chunks = {shifted[s & 7][s >> 3:(s >> 3) + span] for s in range(w.length - n + 1)}
    mask = (1 << n) - 1
    return {int.from_bytes(c, "little") & mask for c in chunks}


def enumerate_by_scan(m: int) -> FactorSet:
    """Collect the distinct width-N windows of a fixed-point prefix, doubling
    the prefix until the known cardinality 3*2^m is reached."""
    _check_m(m)
    n = 2 ** m + 1
    target = 3 * 2 ** m
    prefix_len = 16 * n
    while True:
        windows = _windows(thue_morse_prefix(0, prefix_len), n)
        if len(windows) > target:
            raise RuntimeError(
                f"found {len(windows)} distinct factors of length {n}, "
                f"more than the expected {target}")
        if len(windows) == target:
            # equal lengths: integer order is lexicographic order
            return FactorSet(m, tuple(BinaryWord(n, b) for b in sorted(windows)))
        prefix_len *= 2
        if prefix_len > (1 << 24):
            raise RuntimeError(f"factor collection did not saturate for m={m}")


def enumerate_by_descendants(m: int) -> FactorSet:
    """Grow the factor sets from the hard-coded length-3 base by taking both
    descendants of every word, level by level."""
    _check_m(m)
    words = [word(t) for t in A1_WORDS]
    for _ in range(m - 1):
        nxt = set()
        for w in words:
            d, e = descendants(w)
            nxt.add(d)
            nxt.add(e)
        words = sorted(nxt, key=_bits)  # one length per level: int order is lex order
    return FactorSet(m, tuple(words))


def verify_quarter_minima(fs: FactorSet) -> VerificationReport:
    """Check that each quarter minimum is the stated rewrite of f_1:
    q1 = 1^{-1} f1 · 1, q2 = (10)^{-1} f1 · 11, q3 = f1, q4 = (100)^{-1} f1 · 110."""
    q = fs.quarter_size
    f1 = thue_morse_prefix(1, fs.word_length)
    rb = ReportBuilder(fs.m, "qandf")
    expected = {
        "q1": f1.strip_prefix(word("1")) + word("1"),
        "q2": f1.strip_prefix(word("10")) + word("11"),
        "q3": f1,
        "q4": f1.strip_prefix(word("100")) + word("110"),
    }
    for i, (name, want) in enumerate(expected.items()):
        got = fs.words[i * q]  # the minimum of quarter i + 1
        rb.check(name, got == want, f"{name}={got}, from f1={f1}")
    return rb.build()


def verify_quarter_descendants(fs: FactorSet, fs_next: FactorSet) -> VerificationReport:
    """Check the four quarter image identities one level up, from the factor
    sets of levels m and m + 1:
    Q1' = eps(Q3 u Q4), Q2' = delta(Q1 u Q2), Q3' = delta(Q3 u Q4), Q4' = eps(Q1 u Q2)."""
    p1, p2, p3, p4 = fs_next.quarters()
    # (delta, eps) of each word, expanded once; Q1 u Q2 is the first half
    pairs = [descendants(w) for w in fs.words]
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
    n = fs.word_length
    bad = []
    for i, w in enumerate(fs.words):
        left = fs_next.words[2 * i].prefix(n)
        right = fs_next.words[2 * i + 1].prefix(n)
        if left != w or right != w:
            bad.append(i + 1)
    rb = ReportBuilder(fs.m, "firsthalf")
    rb.check("pairs", not bad,
             f"all {fs.size} prefix pairs match" if not bad else f"mismatch at i={bad[:5]}")
    return rb.build()

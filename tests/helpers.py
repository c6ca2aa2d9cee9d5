"""Test-side views of a substitution: its images as tuples, its dense
incidence matrix, the
substitution of a dense matrix, its labels, its image of a word of
codepoint text, and the image words of one letter;
of a factor set: its labels, its windows as ints, and a factor set read
off a corrupted prefix, with two offsets swapped or with an LCP entry off;
θ_N with two letters swapped; the LCE of 0/1 text by slices;
a Level that runs its claims on given inputs; the reader of a
substitution's JSON that decodes the whole text first;
the closed form of θ_N one letter at a time; the entries of the quarters,
firsthalf and nblock passes computed on the ints of the windows, one window
at a time; the breadth-first descendant oracle; and text references for
θ: the Thue-Morse substitution, and θ and the descendants of one word of
0/1 text; and the graph code of substitutions on tuples of letters, the
reference for the flat arrays."""

import itertools
import json
import math
from array import array
from collections.abc import Iterator
from functools import lru_cache
from itertools import islice

import numpy as np

from tmblocks.claims import Level
from tmblocks.substitution import Substitution, _block_bracket
from tmblocks.thue_morse import A1_WORDS, FactorSet
from tmblocks.words import read_windows, theta_bits


def image_tuples(sub: Substitution) -> tuple[tuple[int, ...], ...]:
    """The images of the letters of ``sub``, one tuple of letters each."""
    return tuple(map(tuple, sub.iter_images()))


def dense(sub: Substitution) -> np.ndarray:
    """The k*k int64 incidence matrix: M[a][b] is the number of occurrences
    of letter a in the image of letter b."""
    counts = np.zeros((sub.size, sub.size), dtype=np.int64)
    for b, img in enumerate(image_tuples(sub)):
        for a in img:
            counts[a, b] += 1
    return counts


def from_dense(counts) -> Substitution:
    """The substitution on letters "0".."k-1" whose image of b lists letter a
    M[a][b] times, in a-order; ValueError on a zero column."""
    k = len(counts)
    images = tuple(tuple(a for a in range(k) for _ in range(int(counts[a][b])))
                   for b in range(k))
    return Substitution.from_images(images, str)


# Substitution files that ``eigen`` must refuse with exit code 3
MALFORMED_SUBSTITUTIONS = [
    '{"alphabet": ["a", "b"], "images": [[1.9], [0]]}',
    '{"alphabet": ["a", "b"], "images": [[true], [0]]}',
    '{"alphabet": ["a", "b"], "images": [["0"], [0]]}',
    '{"alphabet": ["a"], "images": 5}',
    '{"alphabet": "ab", "images": [[0], [1]]}',
    '{"alphabet": ["a"], "images": [0]}',
    '{"alphabet": ["a", "a"], "images": [[0], [1]]}',
    '{"alphabet": [1, "1"], "images": [[0], [1]]}',
    '{"alphabet": [null, [1], {"a": 2}], "images": [[1], [2], [0]]}',
    '{"alphabet": ["a", "b"], "images": [[0]]}',
    '{"alphabet": [], "images": []}',
    "[" * 100_000,
]


def from_json_reference(text: str) -> Substitution:
    """The substitution of a JSON text, decoded whole by ``json.loads`` and
    then checked value by value: the reference for ``Substitution.read_json``,
    which reads the text in chunks."""
    data = json.loads(text)
    if not isinstance(data, dict) or "alphabet" not in data or "images" not in data:
        raise ValueError("substitution JSON must contain 'alphabet' and 'images'")
    alphabet, images = data["alphabet"], data["images"]
    if not isinstance(alphabet, list) or not isinstance(images, list):
        raise ValueError("'alphabet' and 'images' must be lists")
    for b, img in enumerate(images):
        if not isinstance(img, list):
            raise ValueError(f"image of letter {b} must be a list, got {img!r}")
        if not all(type(a) is int for a in img):  # true and false are not letters
            raise ValueError(f"image of letter {b} has a non-integer letter")
    if not all(isinstance(label, str) for label in alphabet):
        raise ValueError("alphabet labels must be strings")
    if len(set(alphabet)) != len(alphabet):
        raise ValueError("alphabet labels must be distinct")
    if len(alphabet) != len(images):
        raise ValueError(f"expected {len(alphabet)} images, got {len(images)}")
    return Substitution.from_images(images, tuple(alphabet).__getitem__)


def labels(sub: Substitution) -> tuple[str, ...]:
    """The labels of the letters of ``sub``, in order."""
    return tuple(map(sub.label, range(sub.size)))


@lru_cache(maxsize=8)
def _translate_table(sub: Substitution) -> tuple[str, ...]:
    """``str.translate`` table of ``sub``: entry a is the image of letter a
    as codepoint text. A code point >= k is not in it, and ``translate``
    would leave such a letter unchanged."""
    return tuple("".join(map(chr, img)) for img in sub.iter_images())


def apply(sub: Substitution, w: str) -> str:
    """The image of the word ``w`` under ``sub``, letter-wise image
    concatenation on codepoint text (letter a as ``chr(a)``); ValueError on a
    letter outside the alphabet."""
    if w:
        top = ord(max(w))
        if top >= sub.size:
            raise ValueError(f"letter {top} not in alphabet of size {sub.size}")
    return w.translate(_translate_table(sub))


def iterates(sub: Substitution, letter: int) -> Iterator[str]:
    """The n-th image words of ``letter`` for n = 0, 1, 2, ..., without
    end, each one the image of the one before."""
    w = chr(letter)
    while True:
        yield w
        w = apply(sub, w)


def nth_image(sub: Substitution, letter: int, n: int) -> str:
    """The n-th image word of ``letter``; n = 0 gives chr(letter)."""
    return next(islice(iterates(sub, letter), n, None))


def factor_labels(fs: FactorSet) -> list[str]:
    """The factors of ``fs`` in order, as the prefix slices it prints."""
    return list(map(fs.label, range(fs.size)))


def off_prefix(fs: FactorSet) -> FactorSet:
    """A factor set like ``fs``, with the same offsets, over its prefix with
    the first letter of w_1's occurrence flipped. The prefix is then no
    Thue-Morse prefix: w_1 reads as a word that starts with 1, above w_2,
    which starts with 0, so the windows are out of order."""
    text, p = fs.prefix, fs.offsets[0]
    return FactorSet(fs.m, text[:p] + "10"[int(text[p])] + text[p + 1:], fs.offsets)


def swapped(fs: FactorSet, *starts: int) -> FactorSet:
    """A factor set like ``fs``, over the same prefix, with the offsets of
    w_{i+1} and w_{i+2} swapped for each i of ``starts`` in turn: its LCP
    array is read off u at the new offsets, and w_{i+2} no longer exceeds
    w_{i+1}."""
    offsets = array("I", fs.offsets)
    for i in starts:
        offsets[i], offsets[i + 1] = offsets[i + 1], offsets[i]
    return FactorSet(fs.m, fs.prefix, offsets)


def lcp_changed(fs: FactorSet, i: int, by: int) -> FactorSet:
    """A factor set like ``fs`` with its LCP entry i off by ``by``."""
    lcp = array(fs.lcp.typecode, fs.lcp)
    lcp[i] += by
    return FactorSet(fs.m, fs.prefix, fs.offsets, lcp)


def letters_swapped(sub: Substitution, x: int, y: int) -> Substitution:
    """``sub`` with the letters at positions x and y of its images swapped."""
    letters = array("I", sub.letters)
    letters[x], letters[y] = letters[y], letters[x]
    return Substitution(letters, sub.starts, sub.label)


def text_lce(text: str, a: int, b: int, n: int) -> int:
    """The longest common extension of the 0/1 text at a and b, capped at n:
    the longest prefix that the two slices of n letters there share, found
    by halving on slice equality."""
    lo, hi = 0, n  # the slices agree on lo letters; hi bounds the LCE
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if text[a:a + mid] == text[b:b + mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


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


def level_with(m: int, **inputs) -> Level:
    """The Level of m with ``inputs``, for example ``eta=...``, in the places
    of the inputs it would build: its claims then run on them through
    ``Level.report``, premises included."""
    level = Level(m)
    for name, value in inputs.items():
        setattr(level, name, value)
    return level


def theta() -> Substitution:
    """The Thue-Morse substitution 0 -> 01, 1 -> 10 on the binary alphabet."""
    return Substitution.from_images(((0, 1), (1, 0)), "01".__getitem__)


_THETA_TEXT = str.maketrans({"0": "01", "1": "10"})


def theta_text(w: str) -> str:
    """θ of the 0/1 text w."""
    return w.translate(_THETA_TEXT)


def descendants_by_level(m: int) -> tuple[int, ...]:
    """Reference oracle: the factors of length 2^m + 1 as the sorted ints of
    their bits, by the descendant recursion breadth first from the six words
    of length 3, each level held whole and sorted."""
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
    return tuple(level)


def descendants_text(w: str) -> tuple[str, str]:
    """(δ(w), ε(w)) of the 0/1 text w: θ(w) without its last letter, and
    without its first."""
    t = theta_text(w)
    return t[:-1], t[1:]


Entry = tuple[str, bool, str]


def _windows(text: str, n: int, starts) -> Iterator[int]:
    """The width-n windows of the 0/1 text at ``starts``, as ints."""
    return read_windows(len(text), int(text, 2), n, starts)


def windows(fs: FactorSet) -> Iterator[int]:
    """The factors of ``fs`` in order as the ints of their bits: the
    width-N windows of its prefix at its offsets, one at a time."""
    return _windows(fs.prefix, fs.word_length, fs.offsets)


def quarters_by_windows(fs_next: FactorSet) -> list[Entry]:
    """The quarters entries of the level ``fs_next``: in each quarter, the
    first window that does not exceed the one before it."""
    q = fs_next.quarter_size
    bad = [0] * 4
    previous = -1
    for i, window in enumerate(_windows(fs_next.prefix, fs_next.word_length, fs_next.offsets)):
        if window <= previous and not bad[i // q]:
            bad[i // q] = i + 1
        previous = window
    images = ("eps(Q3 u Q4)", "delta(Q1 u Q2)", "delta(Q3 u Q4)", "eps(Q1 u Q2)")
    # the pass over Q1 reads its q windows; each later one reads the window
    # before its quarter too
    return [(f"quarters.Q{n + 1}", not i,
             f"{images[n]} out of order at i={i}" if i
             else f"{images[n]} increases over {q + (n > 0)} labels")
            for n, i in enumerate(bad)]


def prefix_pairs_by_windows(fs: FactorSet, fs_next: FactorSet) -> list[Entry]:
    """The firsthalf entry: the width-N windows of the next level's prefix at
    its offsets against the windows of level m."""
    n = fs.word_length
    upper = _windows(fs_next.prefix, n, fs_next.offsets)
    bad = [i + 1 for i, (w, a, b) in enumerate(zip(_windows(fs.prefix, n, fs.offsets),
                                                    upper, upper))
           if a != w or b != w]
    return [("firsthalf.pairs", not bad,
             f"all {fs.size} prefix pairs match" if not bad else f"mismatch at i={bad[:5]}")]


def block_formula_by_windows(fs: FactorSet, theta_n: Substitution) -> list[Entry]:
    """The nblock entries: for each letter j with image (a, b), the windows
    of P at p_a and p_b against those of θ(P) at 2p_j and 2p_j + 1; and the
    label of w_{k/2} against the f0 prefix."""
    k, n, text = fs.size, fs.word_length, fs.prefix
    want = _windows(text, n, (fs.offsets[c] for image in image_tuples(theta_n) for c in image))
    got = read_windows(2 * len(text), theta_bits(len(text), int(text, 2)), n,
                       (q for p in fs.offsets for q in (2 * p, 2 * p + 1)))
    bad = [j + 1 for j, (a, b, x, y) in enumerate(zip(want, want, got, got))
           if a != x or b != y]
    f0 = "".join(str(i.bit_count() & 1) for i in range(n))  # letter i: parity of popcount(i)
    label = fs.label(k // 2 - 1)
    return [("nblock.images", not bad,
             f"all {k} two-letter images are windows of θ(P)" if not bad
             else f"mismatch at j={bad[:5]}"),
            ("nblock.f0", label == f0, f"w_{k // 2}={label}, f0={f0}")]


# ---- the tuple-of-tuples graph code that the flat arrays replaced, kept as
# the reference for them: images[b] is the image of letter b as a tuple

Images = tuple[tuple[int, ...], ...]


def transpose_reference(images: Images) -> list[list[int]]:
    """Row a of the incidence matrix: the letters b whose image contains a,
    in ascending order and once per occurrence."""
    rows: list[list[int]] = [[] for _ in images]
    for b, img in enumerate(images):
        for a in img:
            rows[a].append(b)
    return rows


def bfs_levels_reference(adjacency, start: int = 0) -> list[int]:
    """Breadth-first distance of every node from node ``start``; -1 if
    unreached."""
    level = [-1] * len(adjacency)
    level[start] = 0
    frontier = [start]
    depth = 0
    while frontier:
        depth += 1
        reached = []
        for u in frontier:
            for v in adjacency[u]:
                if level[v] < 0:
                    level[v] = depth
                    reached.append(v)
        frontier = reached
    return level


def components_reference(images: Images) -> Iterator[list[int]]:
    """Tarjan's strongly connected components of the graph b -> images[b],
    each yielded after every component it reaches."""
    k = len(images)
    order = itertools.count()
    index = [-1] * k
    low = [0] * k
    stack: list[int] = []
    for root in range(k):
        if index[root] >= 0:
            continue
        index[root] = low[root] = next(order)
        stack.append(root)
        path = [(root, iter(images[root]))]
        while path:
            b, edges = path[-1]
            for a in edges:
                if index[a] < 0:
                    index[a] = low[a] = next(order)
                    stack.append(a)
                    path.append((a, iter(images[a])))
                    break
                low[b] = min(low[b], index[a])
            else:
                path.pop()
                if path:
                    parent = path[-1][0]
                    low[parent] = min(low[parent], low[b])
                if low[b] == index[b]:
                    component = []
                    while b not in component[-1:]:
                        component.append(stack.pop())
                        index[component[-1]] = k
                    yield component


def is_primitive_reference(images: Images) -> bool:
    """Strongly connected (reached from letter 0 along the edges and against
    them) and aperiodic (gcd of level(b) + 1 - level(a) over all edges)."""
    level = bfs_levels_reference(images)
    if min(level) < 0 or min(bfs_levels_reference(transpose_reference(images))) < 0:
        return False
    g = 0
    for b, img in enumerate(images):
        for a in img:
            g = math.gcd(g, level[b] + 1 - level[a])
    return g == 1


def pf_bracket_reference(images: Images, tol: float = 1e-9, max_iter: int = 10_000):
    """The Collatz-Wielandt bracket on ρ: by the row and column sums when
    that is tight enough, else the largest over the diagonal blocks of the
    strongly connected components, each by ``_block_bracket``."""
    rows = transpose_reference(images)
    lo = max(min(map(len, rows)), min(map(len, images)))
    hi = min(max(map(len, rows)), max(map(len, images)))
    if hi - lo <= tol:
        return lo, hi
    lo = hi = 0
    for letters in components_reference(images):
        local = {a: i for i, a in enumerate(letters)}
        block = [[local[b] for b in rows[a] if b in local] for a in letters]
        block_lo, block_hi = _block_bracket(block, tol, max_iter, lo)
        lo, hi = max(lo, block_lo), max(hi, block_hi)
    return lo, hi

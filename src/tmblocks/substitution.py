"""General substitutions on a finite ordered alphabet.

Letters are opaque indices 0..k-1; beside its images a substitution holds
``label``, a function from a letter to its display label (e.g. the binary
word a block letter stands for). Images may have different lengths, so
non-constant-length substitutions are first-class.

The images are the only representation of a substitution, held flat:
``letters`` is all of them one after another and ``starts`` the k + 1
offsets where they start, both ``array('I')``, so the image of letter b is
the slice letters[starts[b]:starts[b + 1]], 4 bytes a letter. Its incidence
matrix M[a][b] = number of occurrences of letter a in the image of letter b
is read off them: column b is the multiset of the image of b, column sums
are the image lengths, and the graph with an edge b -> a per letter a of
the image of b is the graph of M. The same pair for the transpose holds its
rows: the letters b whose images contain a. The strongly connected
components of the graph give the irreducible diagonal blocks on which
``pf_bracket`` certifies ρ.

A substitution is read from JSON text in chunks (``Substitution.read_json``,
by ``substitution_json``), so that reading a file holds its labels and the
two arrays, not the whole text beside them; a long 0/1 label is held as the
int of its bits.
"""

from __future__ import annotations

import io
import itertools
import math
from array import array
from bisect import bisect_right
from collections import Counter
from collections.abc import Callable, Iterator, Sequence
from itertools import accumulate, chain, islice, repeat
from operator import getitem, lt, ne, sub



class Substitution:
    """The images of the letters 0..k-1, concatenated in ``letters`` and
    delimited by the k + 1 offsets ``starts``, and ``label``, the function
    from a letter to its display label. The fields cannot be reassigned,
    but the two arrays are the caller's, held and not copied, and stay
    mutable: the constructor checks them once, so a letter changed in
    place afterwards is never checked. ``from_images`` and ``from_json``
    build arrays that no one else holds."""

    __slots__ = ("letters", "starts", "label")

    letters: array
    starts: array
    label: Callable[[int], str]

    def __init__(self, letters: array, starts: array, label: Callable[[int], str]) -> None:
        if not all(isinstance(a, array) and a.typecode == "I" for a in (letters, starts)):
            raise TypeError("letters and starts must be array('I')")
        k = len(starts) - 1
        if k < 1:
            raise ValueError("alphabet must contain at least one letter")
        if starts[0] != 0 or starts[-1] != len(letters):
            raise ValueError(f"image offsets must run from 0 to {len(letters)}")
        if not all(map(lt, starts, islice(starts, 1, None))):
            b = next(b for b in range(k) if starts[b] >= starts[b + 1])
            raise ValueError(f"image of letter {b} is empty")
        if max(letters) >= k:
            i = next(i for i, a in enumerate(letters) if a >= k)
            raise ValueError(f"image of letter {bisect_right(starts, i) - 1} "
                             f"uses unknown letter {letters[i]}")
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "label", label)

    @classmethod
    def from_images(cls, images: Sequence[Sequence[int]],
                    label: Callable[[int], str]) -> "Substitution":
        """The substitution with the image ``images[b]`` for each letter b."""
        try:
            letters = array("I", chain.from_iterable(images))
        except OverflowError:  # a negative letter, or one of 2^32 or more
            b, a = next((b, a) for b, img in enumerate(images) for a in img
                        if not 0 <= a < len(images))
            raise ValueError(f"image of letter {b} uses unknown letter {a}") from None
        return cls(letters, array("I", accumulate(map(len, images), initial=0)), label)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    @property
    def size(self) -> int:
        return len(self.starts) - 1

    def image(self, b: int) -> array:
        """The image of letter b, a slice of ``letters``."""
        return self.letters[self.starts[b]:self.starts[b + 1]]

    def iter_images(self, word: Sequence[int] | None = None) -> Iterator[array]:
        """The images of the letters of ``word``, a sequence that is read
        twice, by default of all letters in order, one slice at a time."""
        starts = self.starts
        if word is None:
            firsts, ends = starts, islice(starts, 1, None)
        else:
            firsts = map(getitem, repeat(starts), word)
            ends = map(getitem, repeat(starts[1:]), word)
        return map(getitem, repeat(self.letters), map(slice, firsts, ends))

    def lengths(self) -> Iterator[int]:
        """The lengths of the images in order: the column sums of M."""
        return _lengths(self.starts)

    def is_injective(self) -> bool:
        """True iff the letter images are pairwise distinct words: no two
        are equal next to each other once sorted as bytes."""
        words = sorted(map(array.tobytes, self.iter_images()))
        return all(map(ne, words, islice(words, 1, None)))

    def is_primitive(self) -> bool:
        """True iff some power of the incidence matrix is entrywise positive.

        That holds iff the graph with an edge b -> a for each letter a of the
        image of b is strongly connected and aperiodic (Seneta, Non-negative
        Matrices and Markov Chains, ch. 1). Both are read off breadth-first
        search from letter 0 in O(k + E): every letter must be reached along
        the edges and against them, and the period, the gcd over all edges
        b -> a of level(b) + 1 - level(a), must be 1 (Denardo 1977); the
        search forward reads it as it goes. A letter repeated in an image
        repeats an edge, which changes neither search nor gcd.
        """
        letters, starts = self.letters, self.starts
        level, period = _bfs_levels(letters, starts)
        return (period == 1 and min(level) >= 0
                and min(_bfs_levels(*_transpose(letters, starts))[0]) >= 0)

    def format_word(self, w: Sequence[int]) -> str:
        """Indexed rendering, e.g. 'w_4 w_10'."""
        return " ".join(f"w_{a + 1}" for a in w)

    def to_json(self) -> str:
        return "".join(self.iter_json())

    def iter_json(self) -> Iterator[str]:
        """``to_json`` in pieces of one label or one image each, so that a
        block alphabet is written without a copy of all its labels. A list
        of ints prints as its JSON."""
        import json  # only here: the commands that print no JSON stay off it

        yield '{"alphabet": ['
        for a, label in enumerate(map(self.label, range(self.size))):
            yield f", {json.dumps(label)}" if a else json.dumps(label)
        yield '], "images": ['
        for b, img in enumerate(map(array.tolist, self.iter_images())):
            yield f", {img}" if b else str(img)
        yield "]}"

    @classmethod
    def from_json(cls, text: str) -> "Substitution":
        """The substitution of the JSON text of ``to_json``, read by
        ``read_json``."""
        return cls.read_json(io.StringIO(text))

    @classmethod
    def read_json(cls, fh: io.TextIOBase) -> "Substitution":
        """The substitution of the JSON text ``{"alphabet": [label, ...],
        "images": [[letter, ...], ...]}`` in the text file ``fh``.

        The file is read a chunk at a time and decoded a run of labels or
        images at a time (``substitution_json``), so that what is held is
        the labels, the two image arrays and about a chunk of text: labels
        go straight into the list of labels and images into ``letters`` and
        ``starts``, and no copy of the text or list of images is made. A
        0/1 label of ``substitution_json.INT_LABEL_LENGTH`` letters or more,
        such as a block letter's, is held as the int of its bits, about a
        sixth of its ``str``, and ``label`` gives it back as the same text.

        The text is accepted exactly when ``json.loads`` accepts it and its
        object has a list of distinct string labels and as many lists of
        letters, each nonempty and below the number of labels; other keys
        are read and ignored, and of a repeated key the last value counts.
        A JSON syntax error raises ``json.JSONDecodeError`` with the message,
        line, column and offset in the whole text that ``json.loads`` gives.
        Any other fault raises ValueError once the whole text has been read:
        the first fault in the text, of the values that count, but for a
        letter at or above the number of labels, which is checked last.
        """
        from .substitution_json import read_substitution  # only here: other commands stay off it

        return cls(*read_substitution(fh))

    def iter_dot(self, name: str = "substitution") -> Iterator[str]:
        """Graphviz digraph, one line at a time: node per letter, edge b->a
        labeled with the number of occurrences of a in the image of b."""
        yield f"digraph {name} {{\n"
        for i, label in enumerate(map(self.label, range(self.size))):
            yield f'  w{i + 1} [label="w{i + 1}:{label}"];\n'
        for b, img in enumerate(self.iter_images()):
            for a, count in sorted(Counter(img).items()):
                yield f'  w{b + 1} -> w{a + 1} [label="{count}"];\n'
        yield "}\n"


def _lengths(starts: array) -> Iterator[int]:
    """The lengths of the slices between consecutive ``starts``."""
    return map(sub, islice(starts, 1, None), starts)


def _row_lengths(letters: array, k: int) -> list[int]:
    """The number of occurrences of each of the k letters in ``letters``:
    the row sums of M when ``letters`` are a substitution's."""
    count = [0] * k
    for a in letters:
        count[a] += 1
    return count


def _transpose(letters: array, starts: array) -> tuple[array, array]:
    """The rows of the incidence matrix as a (letters, starts) pair: row a
    lists the letters b whose image contains a, in ascending order and once
    per occurrence. A counting sort of the edges by target, stable in their
    source, which holds 4 bytes an edge and at most 16 a letter, where a
    sort of the edge indices would box an int for each edge and its key."""
    row_starts = array("I", accumulate(_row_lengths(letters, len(starts) - 1), initial=0))
    free = array("I", row_starts)  # the next free slot of each row
    rows = array("I", [0]) * len(letters)
    for b, a in zip(chain.from_iterable(map(repeat, itertools.count(), _lengths(starts))),
                    letters):
        i = free[a]
        rows[i] = b
        free[a] = i + 1
    return rows, row_starts


def _bfs_levels(letters: array, starts: array, start: int = 0) -> tuple[list[int], int]:
    """Breadth-first distance of every node from node ``start`` along the
    edges u -> letters[starts[u]:starts[u + 1]], -1 if unreached; and the
    gcd over the edges u -> v out of the reached nodes of level(u) + 1 -
    level(v), 0 if all are 0."""
    level = [-1] * (len(starts) - 1)
    level[start] = 0
    frontier = [start]
    depth = period = 0
    while frontier:
        depth += 1
        reached = []
        for u in frontier:
            for v in letters[starts[u]:starts[u + 1]]:
                if level[v] < 0:
                    level[v] = depth
                    reached.append(v)
                elif period != 1:
                    period = math.gcd(period, depth - level[v])
        frontier = reached
    return level, period


def _components(letters: array, starts: array) -> Iterator[list[int]]:
    """The strongly connected components of the graph with an edge b -> a
    per letter a of the image of b, each yielded after every component it
    reaches: Tarjan's algorithm (1972), one pass in O(k + E), with a stack
    of (letter, edges left) pairs in place of recursion."""
    k = len(starts) - 1
    order = itertools.count()
    index = array("i", [-1]) * k  # visit order; k once the letter's component is yielded
    low = array("I", [0]) * k
    stack = array("I")

    def edges(b: int) -> Iterator[int]:
        return iter(letters[starts[b]:starts[b + 1]])

    for root in range(k):
        if index[root] >= 0:
            continue
        index[root] = low[root] = next(order)
        stack.append(root)
        path = [(root, edges(root))]
        while path:
            b, out = path[-1]
            for a in out:
                if index[a] < 0:
                    index[a] = low[a] = next(order)
                    stack.append(a)
                    path.append((a, edges(a)))
                    break
                low[b] = min(low[b], index[a])
            else:
                path.pop()
                if path:
                    parent = path[-1][0]
                    low[parent] = min(low[parent], low[b])
                if low[b] == index[b]:
                    component = []
                    while b not in component[-1:]:  # pop the stack down to b
                        component.append(stack.pop())
                        index[component[-1]] = k
                    yield component


# (M + I)-steps between two certificates of a block. On a cycle b -> b + 1
# with a self-loop on 0 and 1 500 or 2 000 random extra edges (k = 1024 and
# 2048: primitive, no constant sum), certifying at steps 2^j instead took
# 1.2 to 1.6 times the CPU (medians of 21 interleaved runs, Python 3.11).
CERTIFY_EVERY = 16


def pf_eigenvalue(sub: Substitution, tol: float = 1e-9, max_iter: int = 10_000) -> float:
    """Dominant (Perron-Frobenius) eigenvalue ρ of the incidence matrix of
    ``sub``, as the midpoint of the exact bracket of ``pf_bracket``: the
    value is within ``tol`` / 2 of ρ, up to the rounding of the midpoint to a
    float, and it is ρ itself when the bracket is a single number.

    Raises ArithmeticError when a diagonal block gets no bracket at most
    ``tol`` wide within ``max_iter`` steps of its iterate.
    """
    lo, hi = pf_bracket(sub, tol, max_iter)
    return float((lo + hi) / 2)


def pf_bracket(sub: Substitution, tol: float = 1e-9, max_iter: int = 10_000
               ) -> tuple[int | Fraction, int | Fraction]:
    """An exact interval [lo, hi], ints or Fractions, at most ``tol`` wide
    around the dominant eigenvalue ρ of the incidence matrix M of ``sub``.

    The bounds are Collatz-Wielandt certificates (Collatz 1942; Wielandt
    1950): for x > 0, min_i (Mx)_i/x_i <= ρ <= max_i (Mx)_i/x_i. x = 1 on M
    and on its transpose brackets ρ by the row sums and by the column sums
    (the image lengths), exactly when either kind of sum is constant.
    Otherwise ρ is the largest ρ of the irreducible diagonal blocks, one per
    strongly connected component, each bracketed by ``_block_bracket``.
    Raises ArithmeticError as ``pf_eigenvalue`` does.
    """
    if not tol > 0:  # also refuses nan
        raise ValueError(f"tolerance must be positive, got {tol}")
    letters, starts = sub.letters, sub.starts
    # with one entry per occurrence, (Mx)[a] is a plain sum of entries of x
    # and the row sum is the length of the row
    row_sums, column_sums = _row_lengths(letters, sub.size), list(_lengths(starts))
    lo = max(min(row_sums), min(column_sums))
    hi = min(max(row_sums), max(column_sums))
    if hi - lo <= tol:
        return lo, hi
    rows, row_starts = _transpose(letters, starts)
    lo = hi = 0
    for component in _components(letters, starts):
        local = {a: i for i, a in enumerate(component)}
        block = [[local[b] for b in rows[row_starts[a]:row_starts[a + 1]] if b in local]
                 for a in component]
        block_lo, block_hi = _block_bracket(block, tol, max_iter, lo)
        lo, hi = max(lo, block_lo), max(hi, block_hi)
    return lo, hi


def _block_bracket(rows: list[list[int]], tol: float, max_iter: int,
                   floor: int | Fraction) -> tuple[Fraction, Fraction]:
    """Bounds on ρ of the irreducible matrix M with rows ``rows``, at most
    ``tol`` apart or the upper one at most ``floor``, from the iterate x of
    M + I on Python ints. M + I has M's Perron vector and is primitive, so x
    settles on periodic blocks too. A right shift keeps the smallest entry
    of x at 60 bits, so every entry is positive and 60 bits precise."""
    from fractions import Fraction  # only here: the sums path stays off it

    x = [1] * len(rows)
    for n in range(max_iter + 1):
        get = x.__getitem__
        y = [sum(map(get, row), xi) for row, xi in zip(rows, x)]
        if n % CERTIFY_EVERY == 0 or n == max_iter:
            lo_y, lo_x = hi_y, hi_x = y[0], x[0]
            for yi, xi in zip(y, x):  # min and max of y_i / x_i
                if yi * lo_x < lo_y * xi:
                    lo_y, lo_x = yi, xi
                elif yi * hi_x > hi_y * xi:
                    hi_y, hi_x = yi, xi
            lo, hi = Fraction(lo_y, lo_x) - 1, Fraction(hi_y, hi_x) - 1
            if hi <= floor or hi - lo <= tol:
                return lo, hi
        shift = min(y).bit_length() - 60
        x = [v >> shift for v in y] if shift > 0 else y
    raise ArithmeticError(f"no bracket at most {tol} wide within {max_iter} "
                          f"iterations on a block of {len(rows)} letters")

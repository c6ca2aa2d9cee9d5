"""General substitutions on a finite ordered alphabet.

Letters are opaque indices 0..k-1; beside its images a substitution holds
``label``, a function from a letter to its display label (e.g. the binary
word a block letter stands for). Images may have different lengths, so
non-constant-length substitutions are first-class.
Words over the alphabet are codepoint text, letter a as ``chr(a)``, so that
applying a substitution is one ``str.translate`` and windows and prefixes
are C-level slices. The images themselves are tuples of letter indices.

The images are the only representation of a substitution. Its incidence
matrix M[a][b] = number of occurrences of letter a in the image of letter b
is read off them: column b is the multiset images[b], column sums are the
image lengths, and the graph with an edge b -> a per letter a of images[b]
is the graph of M, whose strongly connected components give the irreducible
diagonal blocks on which ``pf_bracket`` certifies ρ.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from collections.abc import Callable, Iterator, Sequence

# the image of a letter: a tuple of letter indices
Word = tuple[int, ...]


class Substitution:
    """The images of the letters 0..k-1, one tuple of letter indices each,
    and ``label``, the function from a letter to its display label;
    immutable."""

    __slots__ = ("images", "label", "_table")

    images: tuple[Word, ...]
    label: Callable[[int], str]

    def __init__(self, images: tuple[Word, ...], label: Callable[[int], str]) -> None:
        k = len(images)
        if not k:
            raise ValueError("alphabet must contain at least one letter")
        for b, img in enumerate(images):
            if not img:
                raise ValueError(f"image of letter {b} is empty")
            for a in img:
                if not 0 <= a < k:
                    raise ValueError(f"image of letter {b} uses unknown letter {a}")
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "label", label)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    @property
    def size(self) -> int:
        return len(self.images)

    def _text_table(self) -> tuple[str, ...]:
        """``str.translate`` table: entry a is the image of letter a as
        text. Built on first use; a code point >= k is not in it, and
        ``translate`` would leave such a letter unchanged."""
        try:
            return self._table
        except AttributeError:
            table = tuple("".join(map(chr, img)) for img in self.images)
            object.__setattr__(self, "_table", table)
            return table

    def apply(self, w: str) -> str:
        """Letter-wise image concatenation (monoid morphism) on text."""
        if w:
            top = ord(max(w))
            if top >= self.size:
                raise ValueError(f"letter {top} not in alphabet of size {self.size}")
        return w.translate(self._text_table())

    def is_injective(self) -> bool:
        """True iff the letter images are pairwise distinct words."""
        return len(set(self.images)) == len(self.images)

    def is_primitive(self) -> bool:
        """True iff some power of the incidence matrix is entrywise positive.

        That holds iff the graph with an edge b -> a for each letter a of
        images[b] is strongly connected and aperiodic (Seneta, Non-negative
        Matrices and Markov Chains, ch. 1). Both are read off breadth-first
        search from letter 0 in O(k + E): every letter must be reached along
        the edges and against them, and the period, the gcd over all edges
        b -> a of level(b) + 1 - level(a), must be 1 (Denardo 1977). A letter
        repeated in an image repeats an edge, which changes neither search
        nor gcd. With no edges the gcd is 0 and the matrix is not primitive.
        """
        forward = self.images
        level = _bfs_levels(forward)
        if min(level) < 0 or min(_bfs_levels(_transpose(forward))) < 0:
            return False
        g = 0
        for b, img in enumerate(forward):
            for a in img:
                g = math.gcd(g, level[b] + 1 - level[a])
        return g == 1

    def format_word(self, w: Sequence[int]) -> str:
        """Indexed rendering, e.g. 'w_4 w_10'."""
        return " ".join(f"w_{a + 1}" for a in w)

    def to_json(self) -> str:
        return "".join(self.iter_json())

    def iter_json(self) -> Iterator[str]:
        """``to_json`` in pieces of one label or one image each, so that a
        block alphabet is written without a copy of all its labels. A list
        of ints prints as its JSON."""
        yield '{"alphabet": ['
        for a, label in enumerate(map(self.label, range(self.size))):
            yield f", {json.dumps(label)}" if a else json.dumps(label)
        yield '], "images": ['
        for b, img in enumerate(self.images):
            yield f", {list(img)}" if b else str(list(img))
        yield "]}"

    @classmethod
    def from_json(cls, text: str) -> "Substitution":
        data = json.loads(text)
        if not isinstance(data, dict) or "alphabet" not in data or "images" not in data:
            raise ValueError("substitution JSON must contain 'alphabet' and 'images'")
        alphabet, images = data["alphabet"], data["images"]
        if not isinstance(alphabet, list) or not isinstance(images, list):
            raise ValueError("'alphabet' and 'images' must be lists")
        for b, img in enumerate(images):
            if not isinstance(img, list):
                raise ValueError(f"image of letter {b} must be a list, got {img!r}")
            for a in img:
                # bool is a subclass of int, but true/false are not letters
                if not isinstance(a, int) or isinstance(a, bool):
                    raise ValueError(f"image of letter {b} has non-integer letter {a!r}")
        if not all(isinstance(label, str) for label in alphabet):
            raise ValueError("alphabet labels must be strings")
        labels = tuple(alphabet)
        if len(set(labels)) != len(labels):
            raise ValueError("alphabet labels must be distinct")
        if len(labels) != len(images):
            raise ValueError(f"expected {len(labels)} images, got {len(images)}")
        return cls(tuple(map(tuple, images)), labels.__getitem__)

    def iter_dot(self, name: str = "substitution") -> Iterator[str]:
        """Graphviz digraph, one line at a time: node per letter, edge b->a
        labeled with the number of occurrences of a in the image of b."""
        yield f"digraph {name} {{\n"
        for i, label in enumerate(map(self.label, range(self.size))):
            yield f'  w{i + 1} [label="w{i + 1}:{label}"];\n'
        for b, img in enumerate(self.images):
            for a, count in sorted(Counter(img).items()):
                yield f'  w{b + 1} -> w{a + 1} [label="{count}"];\n'
        yield "}\n"


def _transpose(images: Sequence[Sequence[int]]) -> list[list[int]]:
    """Row a of the incidence matrix: the letters b whose image contains a,
    in ascending order and once per occurrence."""
    rows: list[list[int]] = [[] for _ in images]
    for b, img in enumerate(images):
        for a in img:
            rows[a].append(b)
    return rows


def _bfs_levels(adjacency: Sequence[Sequence[int]], start: int = 0) -> list[int]:
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


def _components(images: Sequence[Sequence[int]]) -> Iterator[list[int]]:
    """The strongly connected components of the graph with an edge b -> a
    per letter a of images[b], each yielded after every component it
    reaches: Tarjan's algorithm (1972), one pass in O(k + E), with a stack
    of (letter, edges left) pairs in place of recursion."""
    k = len(images)
    order = itertools.count()
    index = [-1] * k  # visit order; k once the letter's component is yielded
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
    images = sub.images
    # with one entry per occurrence, (Mx)[a] is a plain sum of entries of x
    # and the row sum is the length of the row
    rows = _transpose(images)
    lo = max(min(map(len, rows)), min(map(len, images)))
    hi = min(max(map(len, rows)), max(map(len, images)))
    if hi - lo <= tol:
        return lo, hi
    lo = hi = 0
    for letters in _components(images):
        local = {a: i for i, a in enumerate(letters)}
        block = [[local[b] for b in rows[a] if b in local] for a in letters]
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

"""General substitutions on a finite ordered alphabet.

Letters are opaque indices 0..k-1; display labels (e.g. the underlying
binary words of a block alphabet) live on the Alphabet. Images may have
different lengths, so non-constant-length substitutions are first-class.
Words over the alphabet are codepoint text, letter a as ``chr(a)``, so that
applying a substitution is one ``str.translate`` and windows and prefixes
are C-level slices. The images themselves are tuples of letter indices.

The images are the only representation of a substitution. Its incidence
matrix M[a][b] = number of occurrences of letter a in the image of letter b
is read off them: column b is the multiset images[b], column sums are the
image lengths, and the graph with an edge b -> a per letter a of images[b]
is the graph of M.
"""

from __future__ import annotations

import json
import math
import operator
from collections import Counter
from collections.abc import Callable, Iterator, Sequence

# the image of a letter: a tuple of letter indices
Word = tuple[int, ...]


class Alphabet:
    """Ordered finite alphabet; position in ``labels`` is the letter index.

    ``Alphabet(labels)`` holds the labels and checks that they are distinct.
    ``Alphabet.distinct(size, label)`` holds only the function ``label`` from
    letter to label, for large alphabets whose labels are distinct by
    construction (block alphabets: k labels of N letters each). Either way
    ``label(a)`` and ``iter_labels()`` give one label at a time, and
    ``labels`` builds the whole tuple on each access.
    """

    __slots__ = ("size", "label")

    def __init__(self, labels: Sequence[str]) -> None:
        labels = tuple(labels)
        if not labels:
            raise ValueError("alphabet must contain at least one letter")
        if len(set(labels)) != len(labels):
            raise ValueError("alphabet labels must be distinct")
        self.size = len(labels)
        self.label: Callable[[int], str] = labels.__getitem__

    @classmethod
    def distinct(cls, size: int, label: Callable[[int], str]) -> "Alphabet":
        """The alphabet whose letter a has label ``label(a)``; the caller
        guarantees that the labels are distinct, so they are not checked."""
        if size < 1:
            raise ValueError("alphabet must contain at least one letter")
        alphabet = cls.__new__(cls)
        alphabet.size = size
        alphabet.label = label
        return alphabet

    def iter_labels(self) -> Iterator[str]:
        return map(self.label, range(self.size))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.iter_labels())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Alphabet):
            return NotImplemented
        return self is other or (self.size == other.size and all(
            map(operator.eq, self.iter_labels(), other.iter_labels())))

    def __hash__(self) -> int:
        return hash(self.labels)

    def __repr__(self) -> str:
        return f"Alphabet({self.labels!r})"


class Substitution:
    """The images of the letters of ``alphabet``, one tuple of letter
    indices each; immutable, and equal to another substitution with the
    same alphabet and images."""

    __slots__ = ("alphabet", "images", "_table")

    alphabet: Alphabet
    images: tuple[Word, ...]

    def __init__(self, alphabet: Alphabet, images: tuple[Word, ...]) -> None:
        k = alphabet.size
        if len(images) != k:
            raise ValueError(f"expected {k} images, got {len(images)}")
        for b, img in enumerate(images):
            if not img:
                raise ValueError(f"image of letter {b} is empty")
            for a in img:
                if not 0 <= a < k:
                    raise ValueError(f"image of letter {b} uses unknown letter {a}")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "images", images)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.alphabet == other.alphabet and self.images == other.images

    def __hash__(self) -> int:
        return hash((self.alphabet, self.images))

    def __repr__(self) -> str:
        return f"Substitution(alphabet={self.alphabet!r}, images={self.images!r})"

    @property
    def size(self) -> int:
        return self.alphabet.size

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

    def iterates(self, letter: int) -> Iterator[str]:
        """The n-th image words of a single letter for n = 0, 1, 2, ...,
        without end. Only the letter is range-checked: images use letters
        of the alphabet alone, so every later step is one ``translate``."""
        if not 0 <= letter < self.size:
            raise ValueError(f"letter {letter} not in alphabet of size {self.size}")
        table = self._text_table()
        w = chr(letter)
        while True:
            yield w
            w = w.translate(table)

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

    def image_length_sequence(self, letter: int, n_max: int) -> list[int]:
        """Exact lengths of the n-th image words of ``letter`` for n = 1..n_max,
        computed without building them: the letter's entry of 1^T M^n, by
        u_b = sum of u_a over the letters a of images[b].

        Uses Python integers, so arbitrarily deep powers stay exact.
        """
        k = self.size
        if not 0 <= letter < k:
            raise ValueError(f"letter {letter} out of range for size {k}")
        u = [1] * k  # u[b] = length of the n-th image of letter b
        out = []
        for _ in range(n_max):
            get = u.__getitem__
            u = [sum(map(get, img)) for img in self.images]
            out.append(u[letter])
        return out

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
        for a, label in enumerate(self.alphabet.iter_labels()):
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
        return cls(Alphabet(tuple(str(x) for x in alphabet)),
                   tuple(tuple(img) for img in images))

    def iter_dot(self, name: str = "substitution") -> Iterator[str]:
        """Graphviz digraph, one line at a time: node per letter, edge b->a
        labeled with the number of occurrences of a in the image of b."""
        yield f"digraph {name} {{\n"
        for i, label in enumerate(self.alphabet.iter_labels()):
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


# power-iteration steps between two Collatz-Wielandt certificates. A
# certificate works on big integers and costs several float steps. The value
# was chosen on one synthetic input (k = 1024) run to the cap; its cost on
# inputs that converge before the cap has not been measured.
# Only a certificate imports ``fractions`` (hence ``Fraction`` in
# annotations), so a bracket settled by row or column sums stays off it.
CERTIFY_EVERY = 32


def pf_eigenvalue(sub: Substitution, tol: float = 1e-9, max_iter: int = 10_000) -> float:
    """Dominant (Perron-Frobenius) eigenvalue ρ of the incidence matrix of
    ``sub``, as the midpoint of the exact bracket of ``pf_bracket``: the
    value is within ``tol`` / 2 of ρ, up to the rounding of the midpoint to a
    float, and it is ρ itself when the bracket is a single number.

    Raises ArithmeticError when no bracket at most ``tol`` wide is found
    within ``max_iter`` power-iteration steps, as on a reducible input whose
    dominant eigenvalue is defective (two diagonal blocks with the same ρ,
    one feeding the other).
    """
    lo, hi = pf_bracket(sub, tol, max_iter)
    return float((lo + hi) / 2)


def pf_bracket(sub: Substitution, tol: float = 1e-9, max_iter: int = 10_000
               ) -> tuple[int | Fraction, int | Fraction]:
    """An exact interval [lo, hi], ints or Fractions, that contains the
    dominant eigenvalue ρ of the incidence matrix M of ``sub`` and is at most
    ``tol`` wide.

    The bounds are Collatz-Wielandt certificates (Collatz 1942; Wielandt
    1950): for x > 0, min_i (Mx)_i/x_i <= ρ <= max_i (Mx)_i/x_i. The first
    takes x = 1 on M and on its transpose, which brackets ρ by the row sums
    and by the column sums (the image lengths) in O(k + E); it is exact when
    either kind of sum is constant. Otherwise power iteration on M + I from
    the all-ones vector supplies x, certified every ``CERTIFY_EVERY`` steps.
    Raises ArithmeticError as ``pf_eigenvalue`` does.
    """
    if not tol > 0:  # also refuses nan
        raise ValueError(f"tolerance must be positive, got {tol}")
    for lo, hi in _pf_brackets(sub, max_iter):
        if hi - lo <= tol:
            return lo, hi
    raise ArithmeticError(
        f"power iteration did not converge within {max_iter} iterations "
        f"(is the matrix primitive?)")


def _pf_brackets(sub: Substitution, max_iter: int
                 ) -> Iterator[tuple[int | Fraction, int | Fraction]]:
    """Exact brackets around ρ, each inside the one before: the row-sum and
    column-sum bracket, then one per certificate of the power iterate."""
    images = sub.images
    k = len(images)
    # with one entry per occurrence, (Mx)[a] is a plain sum of entries of x
    # and the row sum is the length of the row
    rows = _transpose(images)
    row_sums = list(map(len, rows))
    col_sums = list(map(len, images))
    lo = max(min(row_sums), min(col_sums))
    hi = min(max(row_sums), max(col_sums))
    yield lo, hi
    # The iteration runs on M + I, which has the Perron vector of M and is
    # primitive on every irreducible diagonal block of M. So the iterate
    # settles on periodic blocks too, and the ratio (Mx)_i/x_i of a letter
    # whose share of the iterate decays tends to at most ρ, not to the
    # ratio of an alternating iterate. The iterate is never 0: its largest
    # entry is 1 before a step, and the step adds x.
    x = [1.0] * k
    for n in range(1, max_iter + 1):
        get = x.__getitem__
        y = [sum(map(get, row), xi) for row, xi in zip(rows, x)]
        top = max(y)
        x = [v / top for v in y]
        if n % CERTIFY_EVERY == 0 or n == max_iter:
            below, above = _collatz_wielandt(rows, row_sums, x)
            lo, hi = max(lo, below), min(hi, above)
            yield lo, hi


def _collatz_wielandt(rows: list[list[int]], row_sums: list[int], x: list[float]
                      ) -> tuple[Fraction, Fraction]:
    """Exact bounds on ρ from the float vector x >= 0, x != 0.

    x is scaled to integers X without rounding, every non-zero entry at
    least 2^53. The upper bound needs a positive vector, so it is taken at
    X + 1, where M(X + 1) = MX + row sums. The lower bound min_i (MZ)_i/Z_i
    over the support of Z holds for every Z >= 0, Z != 0 (Horn & Johnson,
    Matrix Analysis, 8.1.26). It is taken at Z = X, and at X with the
    entries below 2^-64 of the largest set to zero: on a reducible matrix
    those are letters whose share of the iterate decays to 0, and their
    ratios would hold the bound below ρ.
    """
    from fractions import Fraction

    ratios = [v.as_integer_ratio() for v in x]  # denominators are powers of 2
    scale = max(d for _, d in ratios) << 53
    exact = [n * (scale // d) for n, d in ratios]
    cutoff = max(exact) >> 64
    truncated = [v if v > cutoff else 0 for v in exact]
    lower = _lower_bound(rows, exact)
    if truncated != exact:
        lower = max(lower, _lower_bound(rows, truncated))
    get = exact.__getitem__
    num, den = 0, 1
    for row, r, xi in zip(rows, row_sums, exact):
        yi = sum(map(get, row)) + r
        if yi * den > num * (xi + 1):
            num, den = yi, xi + 1
    return lower, Fraction(num, den)


def _lower_bound(rows: list[list[int]], z: list[int]) -> Fraction:
    """min over the support of z of (Mz)_i / z_i."""
    from fractions import Fraction

    get = z.__getitem__
    num, den = None, 1
    for row, zi in zip(rows, z):
        if zi:
            yi = sum(map(get, row))
            if num is None or yi * den < num * zi:
                num, den = yi, zi
    return Fraction(num, den)

"""General substitutions on a finite ordered alphabet.

Letters are opaque indices 0..k-1; display labels (e.g. the underlying
binary words of a block alphabet) live on the Alphabet. Images may have
different lengths, so non-constant-length substitutions are first-class.
Words over the alphabet are plain tuples of letter indices. The hot loops
(``language`` and the block recoding in ``nblock``) instead run on codepoint
text, letter a as ``chr(a)``, so that applying a substitution is one
``str.translate`` and windows are C-level slices.

The incidence matrix follows the convention M[a][b] = number of occurrences
of letter a in the image of letter b, so each column b is the letter-count
vector of images[b] and column sums are the image lengths.
"""

from __future__ import annotations

import json
import math
import operator
from collections import Counter
from collections.abc import Callable, Iterator, Sequence

Word = tuple[int, ...]
# one sparse column of an incidence matrix: sorted (letter, count > 0) pairs
Column = tuple[tuple[int, int], ...]


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

    __slots__ = ("alphabet", "images")

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

    def constant_length(self) -> int | None:
        """The common image length L, or None for non-constant length."""
        lengths = {len(img) for img in self.images}
        return lengths.pop() if len(lengths) == 1 else None

    def apply(self, w: Sequence[int]) -> Word:
        """Letter-wise image concatenation (monoid morphism)."""
        images = self.images
        k = self.size
        out: list[int] = []
        for a in w:
            if not 0 <= a < k:
                raise ValueError(f"letter {a} not in alphabet of size {k}")
            out.extend(images[a])
        return tuple(out)

    def text_table(self) -> list[str]:
        """``str.translate`` table applying the substitution to codepoint
        text: entry a is the image of letter a as text."""
        return ["".join(map(chr, img)) for img in self.images]

    def iterate(self, letter: int, n: int) -> Word:
        """The n-th image word of a single letter; n = 0 gives (letter,)."""
        if n < 0:
            raise ValueError(f"iteration count must be >= 0, got {n}")
        w: Word = (letter,)
        for _ in range(n):
            w = self.apply(w)
        return w

    def is_growing_seed(self, letter: int) -> bool:
        img = self.images[letter]
        return img[0] == letter and len(img) >= 2

    def language(self, length: int, seed: int) -> tuple[Word, ...]:
        """All factors of the given length of the fixed point grown from ``seed``,
        sorted lexicographically by display labels.

        Iterates the seed until two consecutive iterates yield the same factor
        set and the iterate is longer than twice the factor length. Meaningful
        for primitive substitutions, where the factor sets stabilize.
        """
        return tuple(tuple(map(ord, f)) for f in self.language_text(length, seed))

    def language_text(self, length: int, seed: int) -> list[str]:
        """``language`` with each factor as codepoint text."""
        return self._language_windows(length, seed)[0]

    def _language_windows(self, length: int, seed: int
                          ) -> tuple[list[str], str, dict[str, int]]:
        """The sorted factors of ``language_text``, the stable iterate s they
        were read from, and one position in s of each factor.

        The seed is growing, so each iterate is a prefix of the next: a
        window that does not reach into the new suffix was seen in an earlier
        round. One dict collects the windows, each round reads only those that
        start at or after ``start``, and the factor set is stable when a round
        adds none.
        """
        if length < 1:
            raise ValueError(f"factor length must be >= 1, got {length}")
        if not self.is_growing_seed(seed):
            raise ValueError(f"letter {seed} is not a growing seed")
        table = self.text_table()
        s = chr(seed).translate(table)
        found: dict[str, int] = {}
        add = found.setdefault
        start = 0
        while True:
            before = len(found)
            stop = len(s) - length + 1
            for i in range(start, stop):
                add(s[i:i + length], i)
            if len(found) == before and len(s) > 2 * length:
                break
            start = max(start, stop)
            s = s.translate(table)
        # All factors have one length, so comparing label tuples is comparing
        # the letters' ranks in label order, codepoint by codepoint.
        by_label = sorted(range(self.size), key=self.alphabet.label)
        if by_label == list(range(self.size)):
            return sorted(found), s, found
        rank = [""] * self.size
        for r, a in enumerate(by_label):
            rank[a] = chr(r)
        return sorted(found, key=lambda f: f.translate(rank)), s, found

    def is_injective(self) -> bool:
        """True iff the letter images are pairwise distinct words."""
        return len(set(self.images)) == len(self.images)

    def incidence_matrix(self) -> "IncidenceMatrix":
        return IncidenceMatrix.from_columns(
            tuple(tuple(sorted(Counter(img).items())) for img in self.images))

    def is_primitive(self) -> bool:
        return self.incidence_matrix().is_primitive()

    def format_word(self, w: Sequence[int], one_based: bool = True) -> str:
        """Indexed rendering, e.g. 'w_4 w_10'."""
        off = 1 if one_based else 0
        return " ".join(f"w_{a + off}" for a in w)

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

    def to_dot(self, name: str = "substitution") -> str:
        return "".join(self.iter_dot(name))

    def iter_dot(self, name: str = "substitution") -> Iterator[str]:
        """Graphviz digraph, one line at a time: node per letter, edge b->a
        labeled with the number of occurrences of a in the image of b."""
        yield f"digraph {name} {{\n"
        for i, label in enumerate(self.alphabet.iter_labels()):
            yield f'  w{i + 1} [label="w{i + 1}:{label}"];\n'
        for b, col in enumerate(self.incidence_matrix().columns):
            for a, count in col:
                yield f'  w{b + 1} -> w{a + 1} [label="{count}"];\n'
        yield "}\n"


def compose(outer: Substitution, inner: Substitution) -> Substitution:
    """The substitution a -> outer(inner(a)) on the shared alphabet."""
    if outer.alphabet != inner.alphabet:
        raise ValueError("composition requires a common alphabet")
    return Substitution(outer.alphabet,
                        tuple(outer.apply(img) for img in inner.images))


class IncidenceMatrix:
    """Square non-negative integer matrix of a substitution (read-only).

    Stored by sparse columns: column b is the tuple of ``(a, count)`` pairs,
    sorted by a, with count = M[a][b] > 0. Memory and the methods are linear
    in k plus the number of non-zero entries; only the dense constructor and
    the ``counts`` view take k*k.
    """

    def __init__(self, counts: Sequence[Sequence[int]]):
        """Build from a dense square array or nested list (small k)."""
        try:
            entries = [list(row) for row in counts]
            rows = [[int(c) for c in row] for row in entries]
        except TypeError:
            raise ValueError("incidence matrix must be a square 2-D array") from None
        k = len(rows)
        if k == 0 or any(len(row) != k for row in rows):
            raise ValueError(f"incidence matrix must be square, got {k} rows of lengths "
                             f"{sorted({len(row) for row in rows})}")
        if rows != entries:
            raise ValueError("incidence matrix entries must be integers")
        if any(c < 0 for row in rows for c in row):
            raise ValueError("incidence matrix entries must be non-negative")
        self.columns = tuple(tuple((a, rows[a][b]) for a in range(k) if rows[a][b])
                             for b in range(k))

    @classmethod
    def from_columns(cls, columns: tuple[Column, ...]) -> "IncidenceMatrix":
        """Wrap sparse columns that are already valid, without a dense pass."""
        matrix = cls.__new__(cls)
        matrix.columns = columns
        return matrix

    @property
    def size(self) -> int:
        return len(self.columns)

    @property
    def counts(self):
        """Dense read-only numpy view, built on demand: k*k int64 values, so
        meant for small k."""
        import numpy as np

        arr = np.zeros((self.size, self.size), dtype=np.int64)
        for b, col in enumerate(self.columns):
            for a, c in col:
                arr[a, b] = c
        arr.setflags(write=False)
        return arr

    def __eq__(self, other) -> bool:
        return isinstance(other, IncidenceMatrix) and self.columns == other.columns

    def column_sums(self) -> tuple[int, ...]:
        return tuple(sum(c for _, c in col) for col in self.columns)

    def is_primitive(self) -> bool:
        """True iff some power of the matrix is entrywise positive.

        That holds iff the graph with an edge b -> a whenever M[a][b] > 0 is
        strongly connected and aperiodic (Seneta, Non-negative Matrices and
        Markov Chains, ch. 1). Both are read off breadth-first search from
        letter 0 in O(k + E): every letter must be reached along the edges and
        against them, and the period, the gcd over all edges b -> a of
        level(b) + 1 - level(a), must be 1 (Denardo 1977). With no edges the
        gcd is 0 and the matrix is not primitive.
        """
        forward = [[a for a, _ in col] for col in self.columns]
        backward: list[list[int]] = [[] for _ in forward]
        for b, targets in enumerate(forward):
            for a in targets:
                backward[a].append(b)
        level = _bfs_levels(forward)
        if min(level) < 0 or min(_bfs_levels(backward)) < 0:
            return False
        g = 0
        for b, targets in enumerate(forward):
            for a in targets:
                g = math.gcd(g, level[b] + 1 - level[a])
        return g == 1

    def image_length_sequence(self, letter: int, n_max: int) -> list[int]:
        """Exact lengths of the n-th image words of ``letter`` for n = 1..n_max,
        computed from the matrix alone: the letter's entry of 1^T M^n.

        Uses Python integers on the sparse columns, so arbitrarily deep powers
        stay exact.
        """
        k = self.size
        if not 0 <= letter < k:
            raise ValueError(f"letter {letter} out of range for size {k}")
        u = [1] * k  # u[b] = length of the n-th image of letter b
        out = []
        for _ in range(n_max):
            u = [sum(c * u[a] for a, c in col) for col in self.columns]
            out.append(u[letter])
        return out


def _bfs_levels(adjacency: list[list[int]]) -> list[int]:
    """Breadth-first distance of every node from node 0; -1 if unreached."""
    level = [-1] * len(adjacency)
    level[0] = 0
    frontier = [0]
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


def pf_eigenvalue(matrix: IncidenceMatrix | Sequence[Sequence[int]], tol: float = 1e-9,
                  max_iter: int = 10_000) -> float:
    """Dominant (Perron-Frobenius) eigenvalue ρ, as the midpoint of the exact
    bracket of ``pf_bracket``: the value is within ``tol`` / 2 of ρ, up to
    the rounding of the midpoint to a float, and it is ρ itself when the
    bracket is a single number.

    Raises ArithmeticError when no bracket at most ``tol`` wide is found
    within ``max_iter`` power-iteration steps, as on a reducible input whose
    dominant eigenvalue is defective (two diagonal blocks with the same ρ,
    one feeding the other). A dense array is accepted and converted to
    sparse columns first.
    """
    lo, hi = pf_bracket(matrix, tol, max_iter)
    return float((lo + hi) / 2)


def pf_bracket(matrix: IncidenceMatrix | Sequence[Sequence[int]], tol: float = 1e-9,
               max_iter: int = 10_000) -> tuple[int | Fraction, int | Fraction]:
    """An exact interval [lo, hi], ints or Fractions, that contains the
    dominant eigenvalue ρ and is at most ``tol`` wide.

    The bounds are Collatz-Wielandt certificates (Collatz 1942; Wielandt
    1950): for x > 0, min_i (Mx)_i/x_i <= ρ <= max_i (Mx)_i/x_i. The first
    takes x = 1 on M and on its transpose, which brackets ρ by the row sums
    and by the column sums (the image lengths) in O(k + E); it is exact when
    either kind of sum is constant. Otherwise power iteration on M + I from
    the all-ones vector supplies x, certified every ``CERTIFY_EVERY`` steps.
    Raises ArithmeticError as ``pf_eigenvalue`` does.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if not isinstance(matrix, IncidenceMatrix):
        matrix = IncidenceMatrix(matrix)
    for lo, hi in _pf_brackets(matrix, max_iter):
        if hi - lo <= tol:
            return lo, hi
    raise ArithmeticError(
        f"power iteration did not converge within {max_iter} iterations "
        f"(is the matrix primitive?)")


def _pf_brackets(matrix: IncidenceMatrix, max_iter: int
                 ) -> Iterator[tuple[int | Fraction, int | Fraction]]:
    """Exact brackets around ρ, each inside the one before: the row-sum and
    column-sum bracket, then one per certificate of the power iterate."""
    k = matrix.size
    row_sums = [0] * k
    for col in matrix.columns:
        for a, c in col:
            row_sums[a] += c
    col_sums = matrix.column_sums()
    lo = max(min(row_sums), min(col_sums))
    hi = min(max(row_sums), max(col_sums))
    yield lo, hi
    # row a of M as the letters whose images contain a, one entry per
    # occurrence: (Mx)[a] is then a plain sum of entries of x
    rows: list[list[int]] = [[] for _ in range(k)]
    for b, col in enumerate(matrix.columns):
        for a, c in col:
            rows[a].extend([b] * c)
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

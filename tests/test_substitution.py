import json
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmblocks.injectivize import eta_system, zeta5_fixture
from tmblocks.nblock import build_nblock
from tmblocks.substitution import (Alphabet, IncidenceMatrix, Substitution,
                                   _pf_brackets, compose, pf_bracket, pf_eigenvalue)
from tmblocks.thue_morse import theta


def _word_text(s, w):
    return "".join(s.alphabet.labels[a] for a in w)


def test_apply_examples():
    t = theta()
    w = tuple(int(c) for c in "00101")
    assert _word_text(t, t.apply(w)) == "0101100110"
    assert t.apply(()) == ()
    with pytest.raises(ValueError):
        t.apply((0, 2))
    with pytest.raises(ValueError, match="letter 5 not in alphabet of size 2"):
        t.apply((0, 5, -1))
    with pytest.raises(ValueError, match="letter -1 not in alphabet of size 2"):
        t.apply((1, -1))


def test_iterate_examples():
    t = theta()
    assert _word_text(t, t.iterate(0, 4)) == "0110100110010110"
    assert t.iterate(1, 0) == (1,)
    with pytest.raises(ValueError):
        t.iterate(0, -1)


def test_fixed_point_prefix():
    t = theta()
    assert _word_text(t, t.iterate(0, 4)) == "0110100110010110"
    assert _word_text(t, t.iterate(1, 3)) == "10010110"
    w = t.iterate(0, 3)
    assert len(w) >= 5 and t.apply(w)[:len(w)] == w


def test_fixed_point_prefix_rejects_non_growing_seed():
    s = Substitution(Alphabet(("a", "b")), ((1, 0), (1, 0)))
    assert not s.is_growing_seed(0)
    with pytest.raises(ValueError, match="not a growing seed"):
        s.language(2, 0)


def test_incidence_matrix_of_theta():
    m = theta().incidence_matrix()
    assert np.array_equal(m.counts, [[1, 1], [1, 1]])
    assert m.column_sums() == (2, 2)


def test_is_injective():
    assert theta().is_injective()
    s = Substitution(Alphabet(("a", "b")), ((0, 1), (0, 1)))
    assert not s.is_injective()


def test_is_primitive():
    assert theta().is_primitive()
    identity = Substitution(Alphabet(("a", "b")), ((0,), (1,)))
    assert not identity.is_primitive()
    # letter b never occurs in any image: zero row
    sink = Substitution(Alphabet(("a", "b")), ((0, 0), (0, 0)))
    assert not sink.is_primitive()


def test_incidence_matrix_validation():
    with pytest.raises(ValueError):
        IncidenceMatrix([[1, 2, 3]])
    with pytest.raises(ValueError):
        IncidenceMatrix([[1, -1], [0, 1]])
    with pytest.raises(ValueError):
        IncidenceMatrix([[0.5]])


def test_pf_eigenvalue_constant_row_sums():
    assert pf_eigenvalue(IncidenceMatrix([[1, 1], [1, 1]])) == 2.0
    # the bracket from the sums alone is exact: every column of the first
    # sums to 3, and every row of zeta5 and of eta sums to 2
    assert pf_bracket(_numbered([[0, 1, 1], [1, 0, 1], [0, 0, 1]]).incidence_matrix()) == (3, 3)
    assert pf_bracket(zeta5_fixture().incidence_matrix()) == (2, 2)
    assert pf_bracket(eta_system(4).eta.incidence_matrix()) == (2, 2)


def test_pf_eigenvalue_periodic_and_defective_inputs():
    # eigenvalues +-2: the iterate of M alternates, that of M + I settles
    lo, hi = pf_bracket(IncidenceMatrix([[0, 1], [4, 0]]))
    assert lo <= 2 <= hi and hi - lo <= 1e-9
    # a Jordan block: the upper bound comes down only as 1 + 1/n, so no
    # bracket is 1e-9 wide within the cap
    with pytest.raises(ArithmeticError):
        pf_eigenvalue(IncidenceMatrix([[1, 0], [1, 1]]), max_iter=500)
    with pytest.raises(ValueError):
        pf_eigenvalue(IncidenceMatrix([[1]]), tol=0.0)


def test_language_small_lengths():
    t = theta()
    lang3 = [_word_text(t, f) for f in t.language(3, 0)]
    assert lang3 == ["001", "010", "011", "100", "101", "110"]
    assert [_word_text(t, f) for f in t.language(1, 0)] == ["0", "1"]
    lang5 = [_word_text(t, f) for f in t.language(5, 0)]
    assert lang5 == ["00101", "00110", "01001", "01011", "01100", "01101",
                     "10010", "10011", "10100", "10110", "11001", "11010"]


def test_language_is_factor_closed():
    t = theta()
    for L in (3, 5, 7):
        shorter = set(t.language(L - 1, 0))
        longer = t.language(L, 0)
        # every shorter factor extends to the right inside the language
        for u in shorter:
            assert any(f[:-1] == u for f in longer)
        # and every window of a longer factor is a shorter factor
        for f in longer:
            assert f[:-1] in shorter and f[1:] in shorter


def test_language_never_contains_cubes_of_a_letter():
    t = theta()
    for L in range(3, 11):
        for f in t.language(L, 0):
            text = _word_text(t, f)
            assert "000" not in text and "111" not in text


def test_apply_is_morphism_property():
    rng = random.Random(21)
    t = theta()
    for _ in range(200):
        u = tuple(rng.randrange(2) for _ in range(rng.randrange(10)))
        v = tuple(rng.randrange(2) for _ in range(rng.randrange(10)))
        assert t.apply(u + v) == t.apply(u) + t.apply(v)


def _random_substitution(rng, k, max_image=3):
    images = tuple(
        tuple(rng.randrange(k) for _ in range(rng.randrange(1, max_image + 1)))
        for _ in range(k))
    labels = tuple(chr(ord("a") + i) for i in range(k))
    return Substitution(Alphabet(labels), images)


def test_incidence_of_composition_is_matrix_product():
    rng = random.Random(22)
    for _ in range(50):
        k = rng.randrange(2, 6)
        s, t = _random_substitution(rng, k), _random_substitution(rng, k)
        left = compose(s, t).incidence_matrix().counts
        right = s.incidence_matrix().counts @ t.incidence_matrix().counts
        assert np.array_equal(left, right)


def test_pf_eigenvalue_equals_length_for_constant_length():
    rng = random.Random(23)
    found = 0
    while found < 10:
        k = rng.randrange(2, 5)
        L = rng.randrange(2, 4)
        images = tuple(tuple(rng.randrange(k) for _ in range(L)) for _ in range(k))
        s = Substitution(Alphabet(tuple(chr(ord("a") + i) for i in range(k))), images)
        if not s.is_primitive():
            continue
        assert pf_eigenvalue(s.incidence_matrix()) == L
        found += 1


def test_constant_length_and_image_lengths():
    t = theta()
    assert t.constant_length() == 2
    assert t.incidence_matrix().column_sums() == (2, 2)
    s = Substitution(Alphabet(("a", "b")), ((0, 1), (1,)))
    assert s.constant_length() is None


def test_length_growth_check():
    assert [len(theta().iterate(0, n)) for n in range(1, 11)] == [2 ** n for n in range(1, 11)]
    s = Substitution(Alphabet(("a", "b")), ((0, 1, 1), (1, 0)))
    assert [len(s.iterate(0, n)) for n in range(1, 4)] != [2, 4, 8]


def test_image_length_sequence_matches_direct_iteration():
    t = theta()
    m = t.incidence_matrix()
    assert m.image_length_sequence(0, 10) == [2 ** n for n in range(1, 11)]


def test_json_round_trip():
    t = theta()
    again = Substitution.from_json(t.to_json())
    assert again == t
    data = json.loads(t.to_json())
    assert data == {"alphabet": ["0", "1"], "images": [[0, 1], [1, 0]]}
    with pytest.raises(ValueError):
        Substitution.from_json("[1, 2]")
    with pytest.raises(ValueError):
        Substitution.from_json('{"alphabet": ["0"], "images": [[]]}')


def test_dot_export():
    dot = theta().to_dot("theta")
    assert dot.startswith("digraph theta {")
    assert 'w1 [label="w1:0"];' in dot
    assert 'w1 -> w2 [label="1"];' in dot


def test_substitution_is_an_immutable_value():
    sub = theta()
    twin = Substitution(Alphabet(("0", "1")), ((0, 1), (1, 0)))
    assert sub == twin and hash(sub) == hash(twin) and sub is not twin
    assert sub != Substitution(Alphabet(("0", "1")), ((0, 1), (1, 1)))
    assert sub != (sub.alphabet, sub.images)
    assert repr(sub) == ("Substitution(alphabet=Alphabet(('0', '1')), "
                         "images=((0, 1), (1, 0)))")
    with pytest.raises(AttributeError):
        sub.images = ((0,), (1,))
    with pytest.raises(AttributeError):
        del sub.alphabet
    with pytest.raises(AttributeError):
        sub.extra = 1
    assert sub == twin


def test_substitution_validation():
    with pytest.raises(ValueError):
        Substitution(Alphabet(("a", "b")), ((0,),))
    with pytest.raises(ValueError):
        Substitution(Alphabet(("a", "b")), ((0,), ()))
    with pytest.raises(ValueError):
        Substitution(Alphabet(("a", "b")), ((0,), (2,)))
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))


def test_alphabet_forms_compare_by_labels():
    held = Alphabet(("01", "10", "11"))
    labels = ("01", "10", "11")
    made = Alphabet.distinct(3, labels.__getitem__)
    assert held.labels == made.labels == labels
    assert held.label(2) == made.label(2) == "11"
    assert list(made.iter_labels()) == list(labels)
    assert held == made and hash(held) == hash(made)
    assert made != Alphabet(("01", "10", "00"))
    assert made != Alphabet(("01", "10"))
    assert Substitution(held, ((0,), (1,), (2,))) == Substitution(made, ((0,), (1,), (2,)))
    with pytest.raises(ValueError):
        Alphabet.distinct(0, labels.__getitem__)
    with pytest.raises(ValueError):
        Alphabet(())


@settings(max_examples=150, deadline=None)
@given(st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=5, unique=True),
       st.data())
def test_streamed_json_and_dot_match_whole_document_builders(labels, data):
    """Oracle: the json.dumps document and the joined dot lines that
    ``to_json`` and ``to_dot`` built before they were streamed."""
    k = len(labels)
    images = data.draw(st.lists(st.lists(st.integers(0, k - 1), min_size=1, max_size=3),
                                min_size=k, max_size=k))
    sub = Substitution(Alphabet(labels), tuple(map(tuple, images)))
    assert sub.to_json() == json.dumps({"alphabet": labels, "images": images})
    lines = ["digraph s {"]
    lines += [f'  w{i + 1} [label="w{i + 1}:{label}"];' for i, label in enumerate(labels)]
    lines += [f'  w{b + 1} -> w{a + 1} [label="{c}"];'
              for b, img in enumerate(images) for a, c in sorted(Counter(img).items())]
    assert sub.to_dot("s") == "\n".join(lines + ["}"]) + "\n"


def test_compose_requires_common_alphabet():
    with pytest.raises(ValueError):
        compose(theta(), Substitution(Alphabet(("x", "y")), ((0, 1), (1, 0))))


def test_incidence_matrix_from_dense_round_trip():
    m = Substitution(Alphabet(("a", "b", "c")), ((0, 0, 2), (1,), (2, 0))).incidence_matrix()
    assert m.columns == (((0, 2), (2, 1)), ((1, 1),), ((0, 1), (2, 1)))
    assert IncidenceMatrix(m.counts) == m
    assert IncidenceMatrix(m.counts.tolist()) == m
    assert not m.counts.flags.writeable


# ---- differential tests against a dense reference

def _wielandt_primitive(counts) -> bool:
    """Reference test: square the boolean matrix until every entry is
    positive or the exponent passes the Wielandt bound (k-1)^2 + 1.
    Positivity of M^n is monotone in n once no row or column is zero."""
    a = np.asarray(counts) > 0
    if not a.any(axis=0).all() or not a.any(axis=1).all():
        return False
    bound = (len(a) - 1) ** 2 + 1
    power, b = 1, a
    while not b.all():
        if power > bound:
            return False
        f = b.astype(np.int64)
        b = (f @ f) > 0
        power *= 2
    return True


def _numbered(images) -> Substitution:
    return Substitution(Alphabet(tuple(str(b) for b in range(len(images)))),
                        tuple(tuple(img) for img in images))


@st.composite
def _random_images(draw):
    k = draw(st.integers(1, 8))
    image = st.lists(st.integers(0, k - 1), min_size=1, max_size=3)
    return _numbered(draw(st.lists(image, min_size=k, max_size=k)))


@st.composite
def _permutations(draw):
    """b -> p(b), optionally with a self-loop added to one image: primitive
    exactly when p is one cycle through all letters and the loop is there."""
    k = draw(st.integers(1, 8))
    images = [[a] for a in draw(st.permutations(range(k)))]
    if draw(st.booleans()):
        b = draw(st.integers(0, k - 1))
        images[b].append(b)
    return _numbered(images)


@st.composite
def _two_blocks(draw):
    """The images of the first h letters use only those letters, so no letter
    of that block ever reaches the others: reducible."""
    k = draw(st.integers(2, 8))
    h = draw(st.integers(1, k - 1))
    images = [draw(st.lists(st.integers(0, (h if b < h else k) - 1), min_size=1, max_size=3))
              for b in range(k)]
    return _numbered(images)


_SUBSTITUTIONS = st.one_of(_random_images(), _permutations(), _two_blocks())


@pytest.mark.parametrize("sub, primitive", [
    (theta(), True),
    (_numbered([[1], [2], [0]]), False),                 # 3-cycle: period 3
    (_numbered([[1], [2], [0, 2]]), True),               # plus a self-loop
    (_numbered([[1], [2, 0], [0]]), True),               # cycles of lengths 2, 3
    (_numbered([[1], [0, 2], [3], [2]]), False),         # 2-cycle plus chain to a 2-cycle
    (_numbered([[0], [0, 1]]), False),                   # closed block {0}
    (zeta5_fixture(), False),
    (eta_system(2).eta, True),
    (eta_system(4).eta, True),
])
def test_is_primitive_examples_match_reference(sub, primitive):
    counts = sub.incidence_matrix().counts
    assert _wielandt_primitive(counts) == primitive
    assert sub.is_primitive() == primitive
    assert IncidenceMatrix(counts).is_primitive() == primitive


@settings(max_examples=400, deadline=None)
@given(_SUBSTITUTIONS)
def test_is_primitive_matches_wielandt_squaring(sub):
    matrix = sub.incidence_matrix()
    assert IncidenceMatrix(matrix.counts) == matrix
    assert matrix.is_primitive() == _wielandt_primitive(matrix.counts)


def _spectral_radius(counts) -> float:
    """max |eigvals| over the irreducible diagonal blocks, which is the
    spectral radius of the whole matrix. On a block it is a simple eigenvalue,
    so numpy gets it to rounding error; on the whole matrix a repeated,
    defective eigenvalue can cost half of the digits or more."""
    a = np.asarray(counts)
    k = len(a)
    reach = (a > 0) | np.eye(k, dtype=bool)
    for _ in range(k.bit_length()):
        f = reach.astype(np.int64)
        reach = (f @ f) > 0
    radius = 0.0
    for letters in {tuple(np.flatnonzero(row)) for row in reach & reach.T}:
        block = a[np.ix_(letters, letters)].astype(float)
        radius = max(radius, float(max(abs(np.linalg.eigvals(block)))))
    return radius


def _rayleigh_power_iteration(counts, tol=1e-9, max_iter=10_000) -> float:
    """The former stopping rule, on a dense float matrix: power iteration
    until two successive Rayleigh quotients differ by less than ``tol``. It
    bounds no error, so it can stop far from the eigenvalue."""
    m = np.asarray(counts, dtype=np.float64)
    x = np.ones(len(m)) / np.sqrt(len(m))
    lam_prev = None
    for _ in range(max_iter):
        y = m @ x
        lam = float(x @ y)
        norm = float(np.linalg.norm(y))
        if norm == 0.0:
            raise ArithmeticError("collapsed to zero")
        x = y / norm
        if lam_prev is not None and abs(lam - lam_prev) < tol:
            return lam
        lam_prev = lam
    raise ArithmeticError("no convergence")


@settings(max_examples=300, deadline=None)
@given(_SUBSTITUTIONS)
def test_pf_eigenvalue_is_within_tol_of_the_spectral_radius(sub):
    matrix = sub.incidence_matrix()
    rho = _spectral_radius(matrix.counts)
    # a low cap keeps the inputs that never converge cheap
    try:
        value = pf_eigenvalue(matrix, max_iter=500)
    except ArithmeticError:
        # only where the former rule gave no value or a wrong one, and so
        # never on a primitive input
        assert not _wielandt_primitive(matrix.counts)
        try:
            former = _rayleigh_power_iteration(matrix.counts, max_iter=500)
        except ArithmeticError:
            return
        assert abs(former - rho) > 1e-9
        return
    assert abs(value - rho) <= 1e-9
    assert pf_eigenvalue(matrix.counts, max_iter=500) == value


@pytest.mark.parametrize("images, rho", [
    # letter 1 is in no image, and 2 only in the image of 1. On the iterate
    # of M both entries fall to 0, and at x + 1 the ratio of letter 2 is its
    # row sum 3, which held the upper bound at 3
    ([[0, 0], [2, 2, 2], [0]], 2),
    # the periodic block {1, 2, 3} (ρ = √3) feeds {0, 4} (ρ = 2). On the
    # iterate of M its ratios alternate between 1 and 3
    ([[4, 4, 0], [2, 4, 2], [1, 3], [2], [0]], 2),
    ([[0], [0]], 1),                                     # a tail into a fixed letter
    ([[0, 0], [0], [1], [2, 2, 2, 2]], 2),               # a chain of tails
    ([[0, 1], [1, 0], [2]], 2),                          # closed blocks: θ, a fixed letter
    ([[0, 1], [0], [2, 3], [2]], (1 + 5 ** 0.5) / 2),    # closed blocks: Fibonacci twice
    ([[0, 1], [0], [2]], (1 + 5 ** 0.5) / 2),            # closed blocks: Fibonacci, a fixed letter
    ([[0, 0, 1], [1], [2, 2]], 2),                       # {0} feeds {1}; {2} is closed
])
def test_pf_eigenvalue_on_reducible_inputs_that_the_former_rule_got_right(images, rho):
    counts = _numbered(images).incidence_matrix().counts
    assert abs(_spectral_radius(counts) - rho) <= 1e-12
    assert abs(_rayleigh_power_iteration(counts) - rho) <= 1e-9
    lo, hi = pf_bracket(IncidenceMatrix(counts))
    assert lo <= rho + 1e-12 and rho - 1e-12 <= hi and hi - lo <= 1e-9
    assert abs(pf_eigenvalue(counts) - rho) <= 1e-9


@settings(max_examples=300, deadline=None)
@given(_SUBSTITUTIONS)
def test_pf_eigenvalue_matches_dense_solver_on_primitive_inputs(sub):
    matrix = sub.incidence_matrix()
    if not _wielandt_primitive(matrix.counts):
        return
    dominant = max(abs(np.linalg.eigvals(matrix.counts.astype(float))))
    assert abs(pf_eigenvalue(matrix) - dominant) <= 1e-9


@st.composite
def _periodic(draw):
    """Letter b is in class b mod d and its image uses only letters of the
    next class, so every cycle has a length divisible by d >= 2."""
    d = draw(st.integers(2, 4))
    k = draw(st.integers(d, 8))
    images = [draw(st.lists(st.sampled_from(range((b + 1) % d, k, d)), min_size=1,
                            max_size=3)) for b in range(k)]
    return _numbered(images)


@st.composite
def _zero_rows(draw):
    """Letters h..k-1 occur in no image: their rows of the matrix are zero."""
    k = draw(st.integers(2, 8))
    h = draw(st.integers(1, k - 1))
    return _numbered([draw(st.lists(st.integers(0, h - 1), min_size=1, max_size=3))
                      for _ in range(k)])


@settings(max_examples=300, deadline=None)
@given(st.one_of(_two_blocks(), _periodic(), _zero_rows(), _random_images()))
def test_every_pf_bracket_contains_the_spectral_radius(sub):
    matrix = sub.incidence_matrix()
    rho = _spectral_radius(matrix.counts)
    slack = 1e-12 * max(rho, 1)  # numpy's rounding; the bounds are exact
    outer = None
    for lo, hi in _pf_brackets(matrix, 200):
        assert lo <= rho + slack and rho - slack <= hi, (lo, hi, rho)
        if outer is not None:
            assert outer[0] <= lo and hi <= outer[1]
        outer = lo, hi


def test_pf_eigenvalue_on_a_stalled_rayleigh_quotient():
    # a 5-cycle with one self-loop: dominant root of x^5 = x^4 + 1. Two
    # successive Rayleigh quotients of the power iterate agree at 1.375
    sub = _numbered([[1, 0], [2], [3], [4], [0]])
    assert sub.is_primitive()
    rho = 1.324717957244746
    assert abs(pf_eigenvalue(sub.incidence_matrix()) - rho) <= 1e-9
    for tol in (1e-3, 1e-9, 1e-13):
        lo, hi = pf_bracket(sub.incidence_matrix(), tol)
        assert lo <= rho <= hi and hi - lo <= tol


def test_pf_eigenvalue_on_a_periodic_cycle_with_a_tail():
    # 0 <-> 1 is a 2-cycle and 2 -> 0 a tail: eigenvalues 1, -1, 0. The power
    # iterate alternates, but every image has length 1
    sub = _numbered([[1], [0], [0]])
    assert max(abs(np.linalg.eigvals(sub.incidence_matrix().counts))) == pytest.approx(1.0)
    assert pf_eigenvalue(sub.incidence_matrix()) == 1.0


def test_pf_eigenvalue_on_a_closed_letter_that_outgrows_the_rest():
    # letter 2 maps to 222 and {0, 1} to words of length 2 over {0, 1}:
    # eigenvalues 3, 2, 0. Sums bracket only [2, 3]; the certificate of the
    # power iterate, once the share of {0, 1} has decayed, gives [3, 3]
    sub = _numbered([[0, 1], [1, 0], [2, 2, 2]])
    assert pf_bracket(sub.incidence_matrix()) == (3, 3)
    assert pf_eigenvalue(sub.incidence_matrix()) == 3.0


@settings(max_examples=200, deadline=None)
@given(_SUBSTITUTIONS, st.data())
def test_image_length_sequence_matches_iteration(sub, data):
    letter = data.draw(st.integers(0, sub.size - 1))
    lengths = sub.incidence_matrix().image_length_sequence(letter, 6)
    assert lengths == [len(sub.iterate(letter, n)) for n in range(1, 7)]


# ---- the codepoint-text word layer against tuple-by-tuple references

def _language_reference(sub, length, seed):
    """Tuple iterates and tuple windows, sorted on the tuple of labels."""
    w = (seed,)
    prev = None
    while True:
        w = sub.apply(w)
        found = {w[i:i + length] for i in range(len(w) - length + 1)}
        if prev is not None and found == prev and len(w) > 2 * length:
            break
        prev = found
    labels = sub.alphabet.labels
    return tuple(sorted(found, key=lambda f: tuple(labels[a] for a in f)))


@st.composite
def _seeded_substitutions(draw):
    """Letter 0 is a growing seed; labels are distinct, multi-character and
    in random order, so label order and index order differ."""
    k = draw(st.integers(1, 4))
    images = [draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=3)) for _ in range(k)]
    if len(images[0]) < 2:
        images[0].append(0)
    images[0][0] = 0
    labels = draw(st.lists(st.text("01", min_size=1, max_size=3), min_size=k,
                           max_size=k, unique=True))
    return Substitution(Alphabet(tuple(labels)), tuple(map(tuple, images)))


@settings(max_examples=200, deadline=None)
@given(_seeded_substitutions(), st.integers(1, 5))
def test_language_matches_reference(sub, length):
    assert sub.language(length, 0) == _language_reference(sub, length, 0)


def _rehashing_language_windows(sub, length, seed):
    """Oracle: every window of every iterate hashed into a fresh dict, until
    two consecutive iterates give the same factor set and the iterate is
    longer than twice the factor length. Returns the factors sorted on their
    label tuples, the stable iterate and the last position of each factor."""
    table = sub.text_table()
    s = chr(seed)
    prev = None
    while True:
        s = s.translate(table)
        found = {s[i:i + length]: i for i in range(len(s) - length + 1)}
        if prev is not None and found.keys() == prev.keys() and len(s) > 2 * length:
            break
        prev = found
    labels = sub.alphabet.labels
    return sorted(found, key=lambda f: tuple(labels[ord(a)] for a in f)), s, found


@st.composite
def _growing_substitutions(draw):
    """Letter 0 is a growing seed and the labels are shuffled. Some draws
    have constant length L in 2..3 and labels of one width, so that they are
    bases of a block recoding."""
    k = draw(st.integers(1, 4))
    L = draw(st.sampled_from((None, 2, 3)))
    images = [draw(st.lists(st.integers(0, k - 1), min_size=L or 1, max_size=L or 3))
              for _ in range(k)]
    if len(images[0]) < 2:
        images[0].append(0)
    images[0][0] = 0
    width = draw(st.integers(1, 3)) if L else None
    labels = draw(st.lists(st.text("abcd", min_size=width or 1, max_size=width or 3),
                           min_size=k, max_size=k, unique=True))
    return Substitution(Alphabet(tuple(labels)), tuple(map(tuple, images)))


@settings(max_examples=300, deadline=None)
@given(_growing_substitutions(), st.integers(1, 6))
def test_incremental_language_windows_match_rehashing_every_iterate(sub, length):
    factors, s, last = _rehashing_language_windows(sub, length, 0)
    got, got_s, occurrence = sub._language_windows(length, 0)
    assert (got, got_s) == (factors, s)
    assert sorted(occurrence) == sorted(factors)
    assert all(s[i:i + length] == f for f, i in occurrence.items())
    L = sub.constant_length()
    if L is None:
        return
    # the block images as the oracle's language gives them: block f sits at
    # last[f] in s, so its image is a slice of the next iterate
    position = {f: j for j, f in enumerate(factors)}
    image_text = s.translate(sub.text_table())
    images = tuple(tuple(position[image_text[off:off + length]]
                         for off in range(L * last[f], L * last[f] + L)) for f in factors)
    labels = tuple("".join(sub.alphabet.labels[ord(a)] for a in f) for f in factors)
    if len(set(labels)) < len(labels):
        # labels of several widths can spell two blocks alike (a·aa = aa·a)
        with pytest.raises(ValueError, match="alphabet labels must be distinct"):
            build_nblock(sub, length)
        return
    system = build_nblock(sub, length)
    assert system.block_texts == tuple(factors)
    assert system.block_sub.images == images
    assert system.alphabet.labels == labels

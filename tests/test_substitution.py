import json
import math
import random
from array import array
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (apply, bfs_levels_reference, components_reference, dense, from_dense,
                     image_tuples, is_primitive_reference, iterates, labels, nth_image,
                     pf_bracket_reference, theta, transpose_reference)
from tmblocks.claims import eta_system
from tmblocks.injectivize import fixed_letters, verify_primitivity_argument, zeta5_fixture
from tmblocks.substitution import (Substitution, _bfs_levels, _components, _transpose, pf_bracket,
                                   pf_eigenvalue)


def _word_text(s, w):
    return w.translate(labels(s))


def _text(letters) -> str:
    return "".join(map(chr, letters))


def test_apply_examples():
    t = theta()
    w = _text(int(c) for c in "00101")
    assert _word_text(t, apply(t, w)) == "0101100110"
    assert apply(t, "") == ""
    with pytest.raises(ValueError):
        apply(t, _text((0, 2)))
    with pytest.raises(ValueError, match="letter 5 not in alphabet of size 2"):
        apply(t, _text((0, 5, 1)))


def test_iterate_examples():
    t = theta()
    assert _word_text(t, nth_image(t, 0, 4)) == "0110100110010110"
    assert nth_image(t, 1, 0) == "\x01"


def test_fixed_point_prefix():
    t = theta()
    assert _word_text(t, nth_image(t, 0, 4)) == "0110100110010110"
    assert _word_text(t, nth_image(t, 1, 3)) == "10010110"
    w = nth_image(t, 0, 3)
    assert len(w) >= 5 and apply(t, w)[:len(w)] == w


def test_incidence_matrix_of_theta():
    assert np.array_equal(dense(theta()), [[1, 1], [1, 1]])


def test_is_injective():
    assert theta().is_injective()
    s = Substitution.from_images(((0, 1), (0, 1)), "ab".__getitem__)
    assert not s.is_injective()


def test_is_primitive():
    assert theta().is_primitive()
    identity = Substitution.from_images(((0,), (1,)), "ab".__getitem__)
    assert not identity.is_primitive()
    # letter b never occurs in any image: zero row
    sink = Substitution.from_images(((0, 0), (0, 0)), "ab".__getitem__)
    assert not sink.is_primitive()


def test_pf_eigenvalue_constant_row_sums():
    assert pf_eigenvalue(from_dense([[1, 1], [1, 1]])) == 2.0
    # the bracket from the sums alone is exact: every column of the first
    # sums to 3, and every row of zeta5 and of eta sums to 2
    assert pf_bracket(_numbered([[0, 1, 1], [1, 0, 1], [0, 0, 1]])) == (3, 3)
    assert pf_bracket(zeta5_fixture()) == (2, 2)
    assert pf_bracket(eta_system(4).eta) == (2, 2)


def test_pf_eigenvalue_periodic_and_defective_inputs():
    # eigenvalues +-2: the iterate of M alternates, that of M + I settles
    lo, hi = pf_bracket(from_dense([[0, 1], [4, 0]]))
    assert lo <= 2 <= hi and hi - lo <= 1e-9
    # a Jordan block: the power iterate of the whole matrix brackets ρ only
    # as 1 + 1/n, but each of its two diagonal blocks is exactly [1, 1]
    assert pf_bracket(from_dense([[1, 0], [1, 1]])) == (1, 1)
    # the plastic number (a 5-cycle with one self-loop) needs more than 16
    # steps of the iterate for a bracket 1e-9 wide
    with pytest.raises(ArithmeticError, match="within 16 iterations"):
        pf_eigenvalue(_numbered([[1, 0], [2], [3], [4], [0]]), max_iter=16)
    # no width is at most nan, so nan would run to the cap even on an
    # input whose first bracket is exact
    for tol in (0.0, float("nan")):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            pf_eigenvalue(from_dense([[1, 1], [1, 1]]), tol=tol)


def test_apply_is_morphism_property():
    rng = random.Random(21)
    t = theta()
    for _ in range(200):
        u = _text(rng.randrange(2) for _ in range(rng.randrange(10)))
        v = _text(rng.randrange(2) for _ in range(rng.randrange(10)))
        assert apply(t, u + v) == apply(t, u) + apply(t, v)


def _random_substitution(rng, k, max_image=3):
    images = tuple(
        tuple(rng.randrange(k) for _ in range(rng.randrange(1, max_image + 1)))
        for _ in range(k))
    return Substitution.from_images(images, lambda a: chr(ord("a") + a))


def test_incidence_of_composition_is_matrix_product():
    rng = random.Random(22)
    for _ in range(50):
        k = rng.randrange(2, 6)
        s, t = _random_substitution(rng, k), _random_substitution(rng, k)
        # s∘t maps a to the images under s of the letters of t(a), in order
        s_after_t = Substitution.from_images(tuple(
            tuple(c for b in img for c in s.image(b)) for img in t.iter_images()), s.label)
        assert np.array_equal(dense(s_after_t), dense(s) @ dense(t))


def test_pf_eigenvalue_equals_length_for_constant_length():
    rng = random.Random(23)
    found = 0
    while found < 10:
        k = rng.randrange(2, 5)
        L = rng.randrange(2, 4)
        images = tuple(tuple(rng.randrange(k) for _ in range(L)) for _ in range(k))
        s = Substitution.from_images(images, lambda a: chr(ord("a") + a))
        if not s.is_primitive():
            continue
        assert pf_eigenvalue(s) == L
        found += 1


def test_length_growth_check():
    lengths = [len(w) for w in islice(iterates(theta(), 0), 1, 11)]
    assert lengths == [2 ** n for n in range(1, 11)]
    s = Substitution.from_images(((0, 1, 1), (1, 0)), "ab".__getitem__)
    assert [len(w) for w in islice(iterates(s, 0), 1, 4)] != [2, 4, 8]


def test_json_round_trip():
    t = theta()
    again = Substitution.from_json(t.to_json())
    assert image_tuples(again) == image_tuples(t) and labels(again) == labels(t) == ("0", "1")
    data = json.loads(t.to_json())
    assert data == {"alphabet": ["0", "1"], "images": [[0, 1], [1, 0]]}
    with pytest.raises(ValueError):
        Substitution.from_json("[1, 2]")
    with pytest.raises(ValueError):
        Substitution.from_json('{"alphabet": ["0"], "images": [[]]}')
    with pytest.raises(ValueError, match="labels must be strings"):
        Substitution.from_json('{"alphabet": [1, "1"], "images": [[0], [1]]}')
    with pytest.raises(ValueError, match="labels must be distinct"):
        Substitution.from_json('{"alphabet": ["a", "a"], "images": [[0], [1]]}')
    with pytest.raises(ValueError, match="expected 2 images, got 1"):
        Substitution.from_json('{"alphabet": ["a", "b"], "images": [[0]]}')
    with pytest.raises(ValueError, match="at least one letter"):
        Substitution.from_json('{"alphabet": [], "images": []}')


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.deferred(lambda: _SUBSTITUTIONS),
                 st.integers(2, 8).map(lambda m: eta_system(m).eta),
                 st.integers(2, 8).map(lambda m: eta_system(m).nblock)))
def test_json_round_trip_keeps_the_arrays_and_labels(sub):
    again = Substitution.from_json(sub.to_json())
    assert again.letters == sub.letters and again.starts == sub.starts
    assert again.letters.typecode == again.starts.typecode == "I"
    assert labels(again) == labels(sub)


def test_from_images_and_the_arrays_describe_one_substitution():
    sub = Substitution.from_images(((1, 1, 0), (0,), (2, 0)), "abc".__getitem__)
    assert sub.letters == array("I", (1, 1, 0, 0, 2, 0))
    assert sub.starts == array("I", (0, 3, 4, 6))
    assert sub.size == 3 and list(sub.lengths()) == [3, 1, 2]
    assert sub.image(2) == array("I", (2, 0))
    assert image_tuples(sub) == ((1, 1, 0), (0,), (2, 0))


@pytest.mark.parametrize("letters, starts, message", [
    ((), (0,), "at least one letter"),
    ((0, 1), (0, 1), "offsets must run from 0 to 2"),
    ((0, 1), (1, 2), "offsets must run from 0 to 2"),
    ((0, 1), (0, 0, 2), "image of letter 0 is empty"),
    ((0, 1, 1), (0, 2, 1, 3), "image of letter 1 is empty"),
    ((0, 1, 2), (0, 1, 3), "image of letter 1 uses unknown letter 2"),
])
def test_constructor_checks_the_arrays(letters, starts, message):
    with pytest.raises(ValueError, match=message):
        Substitution(array("I", letters), array("I", starts), str)


@pytest.mark.parametrize("letters, starts", [
    ((0, 1), (0, 1, 2)),
    (array("I", (0, 1)), (0, 1, 2)),
    (array("L", (0, 1)), array("I", (0, 1, 2))),
])
def test_constructor_takes_only_unsigned_int_arrays(letters, starts):
    with pytest.raises(TypeError, match=r"must be array\('I'\)"):
        Substitution(letters, starts, str)


@pytest.mark.parametrize("images, message", [
    (((0,), (-1,)), "image of letter 1 uses unknown letter -1"),
    (((2 ** 40,), (0,)), f"image of letter 0 uses unknown letter {2 ** 40}"),
    (((0,), (0, 5)), "image of letter 1 uses unknown letter 5"),
])
def test_from_images_names_a_letter_outside_the_alphabet(images, message):
    with pytest.raises(ValueError, match=message):
        Substitution.from_images(images, str)


def test_dot_export():
    dot = "".join(theta().iter_dot("theta"))
    assert dot.startswith("digraph theta {")
    assert 'w1 [label="w1:0"];' in dot
    assert 'w1 -> w2 [label="1"];' in dot


def test_substitution_is_an_immutable_value():
    sub = theta()
    with pytest.raises(AttributeError):
        sub.letters = array("I", (0, 1))
    with pytest.raises(AttributeError):
        del sub.label
    with pytest.raises(AttributeError):
        sub.extra = 1


def test_substitution_validation():
    with pytest.raises(ValueError):
        Substitution.from_images((), str)
    with pytest.raises(ValueError):
        Substitution.from_images(((0,), ()), str)
    with pytest.raises(ValueError):
        Substitution.from_images(((0,), (2,)), str)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=5, unique=True),
       st.data())
def test_streamed_json_and_dot_match_whole_document_builders(labels, data):
    """Oracle: the json.dumps document and the joined dot lines that the
    JSON and dot exports built before they were streamed."""
    k = len(labels)
    images = data.draw(st.lists(st.lists(st.integers(0, k - 1), min_size=1, max_size=3),
                                min_size=k, max_size=k))
    sub = Substitution.from_images(tuple(map(tuple, images)), labels.__getitem__)
    assert sub.to_json() == json.dumps({"alphabet": labels, "images": images})
    lines = ["digraph s {"]
    lines += [f'  w{i + 1} [label="w{i + 1}:{label}"];' for i, label in enumerate(labels)]
    lines += [f'  w{b + 1} -> w{a + 1} [label="{c}"];'
              for b, img in enumerate(images) for a, c in sorted(Counter(img).items())]
    assert "".join(sub.iter_dot("s")) == "\n".join(lines + ["}"]) + "\n"


def test_dense_helper_round_trip():
    sub = Substitution.from_images(((0, 0, 2), (1,), (2, 0)), "abc".__getitem__)
    counts = dense(sub)
    assert counts.tolist() == [[2, 0, 1], [0, 1, 0], [1, 0, 1]]
    assert image_tuples(from_dense(counts)) == ((0, 0, 2), (1,), (0, 2))
    assert image_tuples(from_dense(counts.tolist())) == image_tuples(from_dense(counts))


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
    return Substitution.from_images(tuple(tuple(img) for img in images), str)


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
    counts = dense(sub)
    assert _wielandt_primitive(counts) == primitive
    assert sub.is_primitive() == primitive
    assert from_dense(counts).is_primitive() == primitive


@settings(max_examples=400, deadline=None)
@given(_SUBSTITUTIONS)
def test_is_primitive_matches_wielandt_squaring(sub):
    counts = dense(sub)
    assert np.array_equal(dense(from_dense(counts)), counts)
    assert sub.is_primitive() == _wielandt_primitive(counts)


@settings(max_examples=200, deadline=None)
@given(_SUBSTITUTIONS, st.data())
def test_bfs_levels_from_any_start_match_reachability(sub, data):
    start = data.draw(st.integers(0, sub.size - 1))
    level, period = _bfs_levels(sub.letters, sub.starts, start)
    images = image_tuples(sub)
    reached = {start}  # reference: grow the set by its images until it stops
    while (grown := reached.union(*(images[b] for b in reached))) != reached:
        reached = grown
    assert {a for a, d in enumerate(level) if d >= 0} == reached
    # and the levels are distances: no edge skips one, and every reached
    # letter but the start has an edge in from the level before
    assert level[start] == 0
    for b, img in enumerate(images):
        assert level[b] < 0 or all(level[a] <= level[b] + 1 for a in img)
    assert all(any(level[b] == d - 1 and a in img for b, img in enumerate(images))
               for a, d in enumerate(level) if d > 0)
    # the period is read off the edges out of the reached letters
    assert period == math.gcd(*(level[b] + 1 - level[a] for b in reached for a in images[b]))


def _reach_blocks(counts) -> set[tuple[int, ...]]:
    """The letters of each irreducible diagonal block: the distinct rows of
    reach ∧ reachᵀ, where reach is the transitive closure by squaring."""
    a = np.asarray(counts)
    reach = (a > 0) | np.eye(len(a), dtype=bool)
    for _ in range(len(a).bit_length()):
        f = reach.astype(np.int64)
        reach = (f @ f) > 0
    return {tuple(np.flatnonzero(row).tolist()) for row in reach & reach.T}


def _spectral_radius(counts) -> float:
    """max |eigvals| over the irreducible diagonal blocks, which is the
    spectral radius of the whole matrix. On a block it is a simple eigenvalue,
    so numpy gets it to rounding error; on the whole matrix a repeated,
    defective eigenvalue can cost half of the digits or more."""
    a = np.asarray(counts)
    radius = 0.0
    for letters in _reach_blocks(a):
        block = a[np.ix_(letters, letters)].astype(float)
        radius = max(radius, float(max(abs(np.linalg.eigvals(block)))))
    return radius


@settings(max_examples=300, deadline=None)
@given(_SUBSTITUTIONS)
def test_components_match_mutual_reachability(sub):
    components = list(_components(sub.letters, sub.starts))
    assert sorted(a for c in components for a in c) == list(range(sub.size))
    assert {tuple(sorted(c)) for c in components} == _reach_blocks(dense(sub))
    # each component is listed after every component it reaches
    place = {a: i for i, c in enumerate(components) for a in c}
    assert all(place[a] <= place[b] for b, img in enumerate(image_tuples(sub)) for a in img)


def test_components_of_a_long_path_need_no_recursion():
    # b -> b + 1, and the last letter to itself twice: k blocks of one
    # letter, listed from the last, and row sums 0, 1, ..., 1, 3
    k = 20_000
    sub = Substitution.from_images(tuple((b + 1,) for b in range(k - 1)) + ((k - 1, k - 1),), str)
    assert list(_components(sub.letters, sub.starts)) == [[a] for a in reversed(range(k))]
    assert pf_bracket(sub) == (2, 2)


# ---- the graph code on the flat arrays against the tuple-of-tuples code it
# replaced (tests/helpers), on random substitutions: one letter, self-loops,
# repeated letters, permutations, reducible and periodic inputs

@st.composite
def _graphs(draw):
    return draw(st.one_of(_SUBSTITUTIONS, _periodic(), _zero_rows(),
                          st.integers(1, 3).map(lambda k: _numbered([[a] for a in range(k)]))))


@settings(max_examples=100, deadline=None)
@given(_graphs())
def test_transpose_matches_the_tuple_reference(sub):
    rows, row_starts = _transpose(sub.letters, sub.starts)
    assert rows.typecode == row_starts.typecode == "I"
    assert len(row_starts) == sub.size + 1 and row_starts[-1] == len(rows) == len(sub.letters)
    assert [list(rows[row_starts[a]:row_starts[a + 1]]) for a in range(sub.size)] == \
        transpose_reference(image_tuples(sub))


@settings(max_examples=100, deadline=None)
@given(_graphs(), st.data())
def test_bfs_levels_match_the_tuple_reference(sub, data):
    start = data.draw(st.integers(0, sub.size - 1))
    images = image_tuples(sub)
    assert _bfs_levels(sub.letters, sub.starts, start)[0] == bfs_levels_reference(images, start)
    rows, row_starts = _transpose(sub.letters, sub.starts)
    assert _bfs_levels(rows, row_starts, start)[0] == \
        bfs_levels_reference(transpose_reference(images), start)


@settings(max_examples=100, deadline=None)
@given(_graphs())
def test_components_match_the_tuple_reference(sub):
    assert list(_components(sub.letters, sub.starts)) == \
        list(components_reference(image_tuples(sub)))


@settings(max_examples=150, deadline=None)
@given(_graphs())
def test_is_primitive_and_injective_match_the_tuple_reference(sub):
    images = image_tuples(sub)
    assert sub.is_primitive() == is_primitive_reference(images)
    assert sub.is_injective() == (len(set(images)) == len(images))


def _matrix_and_forward(sub):
    """The matrix and forward entries of the primitivity argument on ``sub``
    as both its θ_N and its η, given ``is_primitive``'s verdict."""
    rep = verify_primitivity_argument(2, sub, sub, sub.is_primitive())
    entries = {e.claim: e.passed for e in rep.entries}
    return entries["primitivity.matrix"], entries["primitivity.forward"]


@settings(max_examples=150, deadline=None)
@given(_graphs().filter(lambda sub: sub.size >= 2))
def test_matrix_and_forward_entries_match_the_tuple_reference(sub):
    # matrix is the generic verdict, and forward holds iff f0 and f1 each
    # reach every letter
    images = image_tuples(sub)
    assert _matrix_and_forward(sub) == (
        is_primitive_reference(images),
        all(min(bfs_levels_reference(images, letter)) >= 0 for letter in fixed_letters(sub.size)))


@pytest.mark.parametrize("images, want", [
    # the cycle 0 -> 1 -> 2 -> 3 -> 0: strongly connected with period 4
    (((1,), (2,), (3,), (0,)), (False, True)),
    # f0 = 1 reaches every letter, but f1 = 2 maps to itself alone
    (((1,), (0, 2, 3), (2,), (0,)), (False, False)),
])
def test_forward_needs_no_primitivity_but_reach_from_both_fixed_letters(images, want):
    assert _matrix_and_forward(Substitution.from_images(images, str)) == want


@settings(max_examples=100, deadline=None)
@given(_graphs())
def test_pf_bracket_matches_the_tuple_reference(sub):
    try:
        want = pf_bracket_reference(image_tuples(sub), max_iter=300)
    except ArithmeticError:
        with pytest.raises(ArithmeticError):
            pf_bracket(sub, max_iter=300)
        return
    assert pf_bracket(sub, max_iter=300) == want


@pytest.mark.parametrize("m", [2, 3, 5, 8])
def test_graph_code_matches_the_tuple_reference_on_eta_and_theta_n(m):
    level = eta_system(m)
    for sub in (level.nblock, level.eta):
        images = image_tuples(sub)
        assert sub.is_primitive() == is_primitive_reference(images) is True
        assert pf_bracket(sub) == pf_bracket_reference(images) == (2, 2)
        assert list(_components(sub.letters, sub.starts)) == list(components_reference(images))


def test_pf_bracket_when_the_perron_vector_spans_many_orders():
    # letter 0 maps to 001, then a chain 1 -> 2 -> ... -> 99 -> 0: ρ is the
    # root of ρ = 2 + ρ^-99, just above 2, and entry i of the Perron vector
    # is about 2^-i of entry 0. Every entry needs its own precision: kept at
    # a common scale, the last letters would round away and stall the bound
    k = 100
    sub = _numbered([[0, 0, 1], *([b + 1] for b in range(1, k - 1)), [0]])
    for tol in (1e-9, 1e-13):
        lo, hi = pf_bracket(sub, tol)
        assert lo <= 2 + Fraction(1, 2 ** 97) and 2 <= hi and hi - lo <= tol


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
    counts = dense(sub)
    rho = _spectral_radius(counts)
    # a low cap keeps the inputs that never converge cheap
    try:
        value = pf_eigenvalue(sub, max_iter=500)
    except ArithmeticError:
        # only where the former rule gave no value or a wrong one, and so
        # never on a primitive input
        assert not _wielandt_primitive(counts)
        try:
            former = _rayleigh_power_iteration(counts, max_iter=500)
        except ArithmeticError:
            return
        assert abs(former - rho) > 1e-9
        return
    assert abs(value - rho) <= 1e-9
    # the value depends on the matrix alone, not on the order within images
    assert pf_eigenvalue(from_dense(counts), max_iter=500) == value


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
    sub = _numbered(images)
    counts = dense(sub)
    assert abs(_spectral_radius(counts) - rho) <= 1e-12
    assert abs(_rayleigh_power_iteration(counts) - rho) <= 1e-9
    lo, hi = pf_bracket(sub)
    assert lo <= rho + 1e-12 and rho - 1e-12 <= hi and hi - lo <= 1e-9
    assert abs(pf_eigenvalue(from_dense(counts)) - rho) <= 1e-9


@settings(max_examples=300, deadline=None)
@given(_SUBSTITUTIONS)
def test_pf_eigenvalue_matches_dense_solver_on_primitive_inputs(sub):
    counts = dense(sub)
    if not _wielandt_primitive(counts):
        return
    dominant = max(abs(np.linalg.eigvals(counts.astype(float))))
    assert abs(pf_eigenvalue(sub) - dominant) <= 1e-9


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
    rho = _spectral_radius(dense(sub))
    slack = 1e-12 * max(rho, 1)  # numpy's rounding; the bounds are exact
    for tol in (1, 1e-3, 1e-9, 1e-13):
        lo, hi = pf_bracket(sub, tol)
        assert lo <= rho + slack and rho - slack <= hi, (lo, hi, rho)
        assert hi - lo <= tol


def test_pf_eigenvalue_on_a_stalled_rayleigh_quotient():
    # a 5-cycle with one self-loop: dominant root of x^5 = x^4 + 1. Two
    # successive Rayleigh quotients of the power iterate agree at 1.375
    sub = _numbered([[1, 0], [2], [3], [4], [0]])
    assert sub.is_primitive()
    rho = 1.324717957244746
    assert abs(pf_eigenvalue(sub) - rho) <= 1e-9
    for tol in (1e-3, 1e-9, 1e-13):
        lo, hi = pf_bracket(sub, tol)
        assert lo <= rho <= hi and hi - lo <= tol


def test_pf_eigenvalue_on_a_periodic_cycle_with_a_tail():
    # 0 <-> 1 is a 2-cycle and 2 -> 0 a tail: eigenvalues 1, -1, 0. The power
    # iterate alternates, but every image has length 1
    sub = _numbered([[1], [0], [0]])
    assert max(abs(np.linalg.eigvals(dense(sub)))) == pytest.approx(1.0)
    assert pf_eigenvalue(sub) == 1.0


def test_pf_eigenvalue_on_a_closed_letter_that_outgrows_the_rest():
    # letter 2 maps to 222 and {0, 1} to words of length 2 over {0, 1}:
    # eigenvalues 3, 2, 0. Sums bracket only [2, 3]; the certificate of the
    # power iterate, once the share of {0, 1} has decayed, gives [3, 3]
    sub = _numbered([[0, 1], [1, 0], [2, 2, 2]])
    assert pf_bracket(sub) == (3, 3)
    assert pf_eigenvalue(sub) == 3.0


# ---- the codepoint-text word layer against tuple-by-tuple references

def _apply_reference(sub, w):
    """The per-letter loop that applied a substitution to a tuple word."""
    k = sub.size
    out = []
    for a in w:
        if not 0 <= a < k:
            raise ValueError(f"letter {a} not in alphabet of size {k}")
        out.extend(sub.image(a))
    return tuple(out)


@cache
def _wide_substitution(k):
    """k letters; each image starts with the letter's partner a ^ 1, so that
    surrogate code points (0xD800..0xDFFF, an even-aligned range) map to
    surrogates when k > 0xDFFF."""
    rng = random.Random(k)
    images = tuple((a ^ 1 if a ^ 1 < k else a,)
                   + tuple(rng.randrange(k) for _ in range(rng.randrange(3)))
                   for a in range(k))
    return Substitution.from_images(images, str)


# 1-byte, 2-byte and 4-byte str, the last with the surrogates
_WIDE = st.sampled_from((300, 70_000)).map(_wide_substitution)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_SUBSTITUTIONS, _WIDE), st.data())
def test_text_apply_matches_tuple_loop(sub, data):
    k = sub.size
    letter = st.integers(0, k - 1)
    if k > 0xDFFF:
        letter = st.one_of(letter, st.integers(0xD800, 0xDFFF))
    w = data.draw(st.lists(letter, max_size=20))
    assert apply(sub, _text(w)) == _text(_apply_reference(sub, w))
    a = data.draw(letter)
    ref = (a,)
    for image in islice(iterates(sub, a), 4):
        assert image == _text(ref)
        ref = _apply_reference(sub, ref)
    # translate leaves a code point without a table entry unchanged, so the
    # range check is what refuses a letter outside the alphabet
    bad = data.draw(st.integers(k, 0x10FFFF))
    at = data.draw(st.integers(0, len(w)))
    with pytest.raises(ValueError, match=f"letter {bad} not in alphabet of size {k}"):
        apply(sub, _text(w[:at] + [bad] + w[at:]))

from array import array
from collections import Counter

import pytest

from helpers import (factor_labels, first_image_index, half_shift, image_tuples, labels,
                     lcp_changed, nth_image, second_image_index, swapped, theta, theta_text)
from tmblocks.claims import Level
from tmblocks.nblock import thue_morse_block_system, verify_block_formula
from tmblocks.substitution import Substitution
from tmblocks.thue_morse import MAX_M, FactorSet, enumerate_by_descendants, enumerate_by_scan

# the 2-letter-image table at width 5, 0-based letter indices
THETA5_IMAGES = ((3, 9), (3, 9), (4, 10), (4, 10), (5, 11), (5, 11),
                 (6, 0), (6, 0), (7, 1), (7, 1), (8, 2), (8, 2))


def test_half_shift():
    assert half_shift(4, 12) == 10
    assert half_shift(7, 12) == 1
    for i in range(1, 13):
        assert half_shift(half_shift(i, 12), 12) == i
    with pytest.raises(ValueError):
        half_shift(1, 7)


def test_index_formula_values():
    assert first_image_index(1, 12) == 4
    assert second_image_index(1, 12) == 10
    assert first_image_index(7, 12) == 7
    assert second_image_index(7, 12) == 1
    assert first_image_index(1, 24) == 7
    assert second_image_index(1, 24) == 19


@pytest.mark.parametrize("m", range(2, MAX_M + 1))
def test_image_indices_follow_the_quarter_statement(m):
    """The first letters of the images of w_{2i-1} and w_{2i} are both the
    i-th letter of Q2 (first half) or of Q3 (second half), the quarters
    into which δ sends each half; the second letters are the same run of Q4
    or Q1, half the alphabet on. The images of the closed form follow it,
    and so does the per-letter formula."""
    k = 3 * 2 ** m
    q = k // 4
    q1, q2, q3, q4 = (range(i * q + 1, (i + 1) * q + 1) for i in range(4))
    want = [(a, b) for a, b in zip((*q2, *q3), (*q4, *q1)) for _ in range(2)]
    # the closed form reads only m and the number of factors
    built = thue_morse_block_system(FactorSet(m, "", array("I", range(k))))
    assert [(a + 1, b + 1) for a, b in image_tuples(built)] == want
    assert [(first_image_index(j, k), second_image_index(j, k))
            for j in range(1, k + 1)] == want


def _theta_n(m):
    return thue_morse_block_system(enumerate_by_scan(m))


def test_build_width_5_table():
    theta5 = _theta_n(2)
    assert labels(theta5) == tuple(f"{b:05b}" for b in enumerate_by_descendants(2))
    assert image_tuples(theta5) == THETA5_IMAGES


def test_closed_form_needs_a_quarter_partition():
    with pytest.raises(ValueError, match="quarter partition"):
        _theta_n(1)


def test_verify_block_formula():
    for m in (2, 3):
        fs = enumerate_by_scan(m)
        rep = verify_block_formula(fs, thue_morse_block_system(fs))
        assert rep.ok
        assert [e.claim for e in rep.entries] == ["nblock.images", "nblock.f0"]


def test_verify_block_formula_names_a_wrong_image():
    fs = enumerate_by_scan(2)
    theta5 = thue_morse_block_system(fs)

    def failed(letter, image):
        images = list(image_tuples(theta5))
        images[letter] = image
        rep = verify_block_formula(fs, Substitution.from_images(tuple(images), theta5.label))
        return [(e.claim, e.detail) for e in rep.entries if not e.passed]

    assert failed(0, tuple(theta5.image(2))) == [("nblock.images", "mismatch at j=[1]")]
    # a wrong second letter alone breaks only the window check
    a, b = theta5.image(6)
    assert failed(6, (a, b + 1)) == [("nblock.images", "mismatch at j=[7]")]


def test_verify_block_formula_names_a_block_that_is_not_f0():
    fs = enumerate_by_scan(3)
    p = fs.offsets[11]  # w_12, the f0 block 011010011
    broken = FactorSet(3, fs.prefix[:p] + "1" + fs.prefix[p + 1:], fs.offsets)
    entries = {e.claim: e for e in verify_block_formula(broken, _theta_n(3)).entries}
    assert not entries["nblock.f0"].passed
    assert entries["nblock.f0"].detail == "w_12=111010011, f0=011010011"


def _swapped_level(m, i):
    level = Level(m)
    level.factors = swapped(enumerate_by_scan(m), i)
    return level


@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_a_level_with_two_offsets_swapped_fails_the_window_check(m):
    # w_1 and w_2 swapped, and w_{k/2} and w_{k/2+1}: f0 and f1, whose
    # first letters differ
    k = 3 * 2 ** m
    for i in (0, k // 2 - 1):
        entries = {e.claim: e for e in _swapped_level(m, i).report("nblock").entries}
        assert not entries["nblock.images"].passed
        assert entries["nblock.images"].detail == f"level {m}: out of order at i=[{i + 2}]"


@pytest.mark.parametrize("m", [2, 3, 5])
def test_a_quarter_whose_words_differ_in_their_first_letter_fails_the_check(m):
    """Negative control that keeps the level sorted and its pairs as they
    are: an LCE of 0 inside Q1, between two pairs whose words start with 0.
    (The parity condition has no such control: a word of Q2 u Q3, a δ image,
    occurs in u at even offsets only.)"""
    fs = enumerate_by_scan(m)
    i = next(i for i in range(1, fs.quarter_size - 1, 2) if fs.label(i + 1)[0] == "0")
    entry = verify_block_formula(lcp_changed(fs, i, -fs.lcp[i]), _theta_n(m)).entries[0]
    assert (entry.claim, entry.passed) == ("nblock.images", False)
    assert entry.detail == f"level {m}: the words of a quarter differ in their first letter"


@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_claims_on_theta_n_fail_with_the_nblock_premise(m):
    def outcomes(claim):
        # a level of its own, so that the claim meets the failed window
        # check without the nblock claim having run before it
        return {(e.passed, e.detail) for e in _swapped_level(m, 0).report(claim).entries}

    assert outcomes("pairs") == outcomes("primitivity") == {(False, "premise nblock failed")}
    assert outcomes("fixedpoint") == {(False, "premise pairs failed")}
    assert (False, "orbit agreement with the block substitution") in outcomes("theorem")


@pytest.mark.parametrize("m", range(2, 11))
def test_theta_n_on_offsets_matches_per_factor_theta(m):
    fs = enumerate_by_scan(m)
    n = fs.word_length
    words = factor_labels(fs)
    position = {w: i for i, w in enumerate(words)}
    images = []
    for w in words:
        image = theta_text(w)
        images.append((position[image[:n]], position[image[1:n + 1]]))
    assert image_tuples(thue_morse_block_system(fs)) == tuple(images)


def test_block_substitution_is_two_to_one():
    for m in (2, 3, 4):
        assert set(Counter(image_tuples(_theta_n(m))).values()) == {2}


def _parity_text(n):
    """Reference: the first n letters of the Thue-Morse fixed point, letter i
    the parity of popcount(i)."""
    return "".join(str(bin(i).count("1") % 2) for i in range(n))


def test_first_letter_always_followed_by_its_half_shift():
    # the fixed point of theta_N from f0 is the N-block code of the Thue-Morse
    # fixed point u: its letter i is the block u[i:i + N], so its two-letter
    # factors are the pairs of blocks at i and i + 1
    for m in (2, 3):
        n = 2 ** m + 1
        sub = _theta_n(m)
        k = sub.size
        position = {label: a for a, label in enumerate(labels(sub))}
        text = _parity_text(64 * n)
        letters = [position[text[i:i + n]] for i in range(len(text) - n + 1)]
        firsts_seen = set()
        for c, d in zip(letters, letters[1:]):
            if k // 4 <= c < 3 * k // 4:  # c is a first-of-image letter (Q2 u Q3)
                assert d == half_shift(c + 1, k) - 1
                firsts_seen.add(c)
        assert firsts_seen == set(range(k // 4, 3 * k // 4))


def test_block_substitutions_are_primitive():
    for m in (2, 3, 4):
        assert _theta_n(m).is_primitive()


def test_block_fixed_point_prefix_from_f0():
    assert nth_image(_theta_n(2), 5, 2) == "".join(map(chr, (5, 11, 8, 2)))


def test_block_substitution_eigenvalue_is_two():
    from tmblocks.substitution import pf_eigenvalue
    for m in (2, 3):
        assert abs(pf_eigenvalue(_theta_n(m)) - 2.0) < 1e-9


def _apply_tuple(base, w):
    return tuple(a for b in w for a in base.image(b))


def _nblock_reference(base, block_len):
    """Tuple blocks from a tuple-iterate language; each image window is a
    tuple slice of the image of the whole block."""
    seed = next(a for a, img in enumerate(image_tuples(base)) if img[0] == a and len(img) >= 2)
    w = (seed,)
    prev = None
    while True:
        w = _apply_tuple(base, w)
        found = {w[i:i + block_len] for i in range(len(w) - block_len + 1)}
        if prev is not None and found == prev and len(w) > 2 * block_len:
            break
        prev = found
    names = labels(base)
    blocks = sorted(found, key=lambda f: tuple(names[a] for a in f))
    position = {b: i for i, b in enumerate(blocks)}
    L = len(base.image(0))  # the base has constant length
    images = []
    for b in blocks:
        v = _apply_tuple(base, b)
        images.append(tuple(position[v[off:off + block_len]] for off in range(L)))
    return tuple("".join(names[a] for a in b) for b in blocks), tuple(images)


@pytest.mark.parametrize("m", range(2, 10))
def test_theta_n_matches_the_per_letter_reference(m):
    names, images = _nblock_reference(theta(), 2 ** m + 1)
    sub = _theta_n(m)
    assert labels(sub) == names
    assert image_tuples(sub) == images


def test_theta_n_memory_is_a_fraction_of_the_blocks():
    """At width N = 2^10 + 1 the k = 3·2^10 blocks as text would be k·N
    bytes. theta_N holds no block text and no block word: the closed form is
    two flat arrays, 12 bytes a block (4 for each letter of its image and 4
    for its offset), and the check holds on top of it the index map it
    compares the images with, 8 bytes a block, and slices of the LCP array:
    14 to 16 bytes a block (tracemalloc, m = 8, 10 and 12, Python 3.11).
    Neither bound grows with N."""
    import tracemalloc

    m = 10
    k = 3 * 2 ** m
    fs = enumerate_by_scan(m)

    def peak_of(build):
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        result = build()
        _, peak = tracemalloc.get_traced_memory()
        return result, peak - before

    tracemalloc.start()
    try:
        sub, build_peak = peak_of(lambda: thue_morse_block_system(fs))
        rep, check_peak = peak_of(lambda: verify_block_formula(fs, sub))
    finally:
        tracemalloc.stop()
    assert sub.size == k and rep.ok
    assert build_peak < 16 * k and check_peak < 32 * k

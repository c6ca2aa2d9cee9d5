from collections import Counter

import pytest

from helpers import factor_labels, labels, nth_image, off_prefix, theta, theta_text
from tmblocks.nblock import (first_image_index, formula_block_substitution, half_shift,
                             second_image_index, thue_morse_block_system,
                             verify_block_formula)
from tmblocks.substitution import Substitution
from tmblocks.thue_morse import enumerate_by_descendants, enumerate_by_scan

# the 2-letter-image tables at widths 3 and 5, 0-based letter indices
THETA3_IMAGES = ((1, 4), (2, 5), (2, 5), (3, 0), (3, 0), (4, 1))
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


def _theta_n(m):
    return thue_morse_block_system(enumerate_by_scan(m))


def test_build_width_3_table():
    theta3 = _theta_n(1)
    assert labels(theta3) == ("001", "010", "011", "100", "101", "110")
    assert theta3.images == THETA3_IMAGES


def test_build_width_5_table():
    theta5 = _theta_n(2)
    assert labels(theta5) == tuple(f"{b:05b}" for b in enumerate_by_descendants(2))
    assert theta5.images == THETA5_IMAGES


def test_formula_matches_windows():
    for m in (2, 3, 4):
        fs = enumerate_by_scan(m)
        formula, windows = formula_block_substitution(fs), thue_morse_block_system(fs)
        assert formula.images == windows.images and labels(formula) == labels(windows)
    with pytest.raises(ValueError):
        formula_block_substitution(enumerate_by_scan(1))


def test_verify_block_formula():
    for m in (2, 3):
        fs = enumerate_by_scan(m)
        rep = verify_block_formula(fs, thue_morse_block_system(fs))
        assert rep.ok
        assert {e.claim for e in rep.entries} == {"nblock.alphabet", "nblock.images",
                                          "nblock.first_range", "nblock.f0_image"}


def test_verify_block_formula_fails_on_a_wrong_size_or_image():
    fs = enumerate_by_scan(2)
    theta5 = thue_morse_block_system(fs)
    images = list(theta5.images)
    images[0] = images[2]
    rep = verify_block_formula(fs, Substitution(tuple(images), theta5.label))
    assert [e.claim for e in rep.entries if not e.passed] == ["nblock.images", "nblock.first_range"]
    rep = verify_block_formula(fs, _theta_n(3))
    assert not next(e for e in rep.entries if e.claim == "nblock.alphabet").passed


def test_closure_violation_is_an_error():
    # a factor set that is not factor-closed: the prefix 01101... becomes
    # 11101..., so the factor 01101 at offset 0 is replaced by 11101, and
    # 01101, the first letter of θ_5(01100), is missing
    broken = off_prefix(enumerate_by_scan(2))
    assert broken.prefix.startswith("11101")
    message = "window 01101 of the image of block 01100 is not a factor"
    with pytest.raises(RuntimeError, match=message):
        thue_morse_block_system(broken)


@pytest.mark.parametrize("m", range(1, 11))
def test_theta_n_on_offsets_matches_per_factor_theta(m):
    fs = enumerate_by_scan(m)
    n = fs.word_length
    words = factor_labels(fs)
    position = {w: i for i, w in enumerate(words)}
    images = []
    for w in words:
        image = theta_text(w)
        images.append((position[image[:n]], position[image[1:n + 1]]))
    assert thue_morse_block_system(fs).images == tuple(images)


def test_block_substitution_is_two_to_one():
    for m in (2, 3, 4):
        assert set(Counter(_theta_n(m).images).values()) == {2}


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
    return tuple(a for b in w for a in base.images[b])


def _nblock_reference(base, block_len):
    """Tuple blocks from a tuple-iterate language; each image window is a
    tuple slice of the image of the whole block."""
    seed = next(a for a, img in enumerate(base.images) if img[0] == a and len(img) >= 2)
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
    L = len(base.images[0])  # the base has constant length
    images = []
    for b in blocks:
        v = _apply_tuple(base, b)
        images.append(tuple(position[v[off:off + block_len]] for off in range(L)))
    return tuple("".join(names[a] for a in b) for b in blocks), tuple(images)


@pytest.mark.parametrize("m", range(1, 10))
def test_theta_n_matches_the_per_letter_reference(m):
    names, images = _nblock_reference(theta(), 2 ** m + 1)
    sub = _theta_n(m)
    assert labels(sub) == names
    assert sub.images == images


def test_theta_n_memory_is_a_fraction_of_the_blocks():
    """At width N = 2^10 + 1 the k = 3·2^10 blocks as text would be k·N
    bytes. Built from the factor set, theta_N holds no block text and no
    block word: it adds the factor set's bits-to-position map and the image
    pairs, and reads one pair of windows at a time. That peaks at about 150
    bytes a block at every width (tracemalloc, m = 8, 10 and 12, Python
    3.11), so the bound does not grow with N."""
    import tracemalloc

    m = 10
    k = 3 * 2 ** m
    fs = enumerate_by_scan(m)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        sub = thue_morse_block_system(fs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sub.size == k
    assert peak - before < 200 * k

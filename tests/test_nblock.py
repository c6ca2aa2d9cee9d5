from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmblocks.nblock import (build_nblock, first_image_index,
                             formula_block_substitution, half_shift,
                             second_image_index, thue_morse_block_system,
                             verify_block_formula)
from tmblocks.substitution import Alphabet, Substitution
from tmblocks.thue_morse import enumerate_by_scan, theta

# the 2-letter-image tables at widths 3 and 5, 0-based letter indices
THETA3_IMAGES = ((1, 4), (2, 5), (2, 5), (3, 0), (3, 0), (4, 1))
THETA5_IMAGES = ((3, 9), (3, 9), (4, 10), (4, 10), (5, 11), (5, 11),
                 (6, 0), (6, 0), (7, 1), (7, 1), (8, 2), (8, 2))


def _blocks(system):
    """The blocks of a block system as text, read off its iterate."""
    return [system.iterate[i:i + system.block_len] for i in system.offsets]


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


def test_build_width_3_table():
    sys3 = build_nblock(theta(), 3)
    assert sys3.alphabet.labels == ("001", "010", "011", "100", "101", "110")
    assert sys3.block_sub.images == THETA3_IMAGES


def test_build_width_5_table():
    sys5 = build_nblock(theta(), 5)
    assert sys5.alphabet.labels == tuple(str(w) for w in enumerate_by_scan(2).words)
    assert sys5.block_sub.images == THETA5_IMAGES


def test_width_1_recoding_is_the_base_itself():
    sys1 = build_nblock(theta(), 1)
    assert sys1.alphabet.labels == ("0", "1")
    assert sys1.block_sub.images == ((0, 1), (1, 0))


def test_formula_matches_windows():
    for m in (2, 3, 4):
        formula = formula_block_substitution(enumerate_by_scan(m))
        built = thue_morse_block_system(m).block_sub
        assert formula == built
    with pytest.raises(ValueError):
        formula_block_substitution(enumerate_by_scan(1))


def test_verify_block_formula():
    for m in (2, 3):
        rep = verify_block_formula(enumerate_by_scan(m), thue_morse_block_system(m))
        assert rep.ok
        assert {e.claim for e in rep} == {"nblock.alphabet", "nblock.images",
                                          "nblock.first_range", "nblock.f0_image"}


def test_block_substitution_is_two_to_one():
    for m in (2, 3, 4):
        images = thue_morse_block_system(m).block_sub.images
        assert set(Counter(images).values()) == {2}


def test_first_letter_always_followed_by_its_half_shift():
    for m in (2, 3):
        sub = thue_morse_block_system(m).block_sub
        k = sub.size
        f0 = k // 2 - 1
        two_blocks = sub.language(2, f0)
        firsts_seen = set()
        for c, d in (map(ord, f) for f in two_blocks):
            if k // 4 <= c < 3 * k // 4:  # c is a first-of-image letter (Q2 u Q3)
                assert d == half_shift(c + 1, k) - 1
                firsts_seen.add(c)
        assert firsts_seen == set(range(k // 4, 3 * k // 4))


def test_block_substitutions_are_primitive():
    for m in (2, 3, 4):
        assert thue_morse_block_system(m).block_sub.is_primitive()


def test_block_fixed_point_prefix_from_f0():
    sub = thue_morse_block_system(2).block_sub
    assert sub.iterate(5, 2) == "".join(map(chr, (5, 11, 8, 2)))


def test_block_substitution_eigenvalue_is_two():
    from tmblocks.substitution import pf_eigenvalue
    for m in (2, 3):
        matrix = thue_morse_block_system(m).block_sub.incidence_matrix()
        assert abs(pf_eigenvalue(matrix) - 2.0) < 1e-9


def test_generic_base_period_doubling():
    pd = Substitution(Alphabet(("0", "1")), ((0, 1), (0, 0)))
    sys3 = build_nblock(pd, 3)
    assert sys3.block_sub.constant_length() == 2
    assert all(len(b) == 3 for b in _blocks(sys3))
    # closure: every window of every image is again a block
    blocks = set(_blocks(sys3))
    for b in blocks:
        v = pd.apply(b)
        assert v[0:3] in blocks and v[1:4] in blocks


def test_build_rejects_bad_bases():
    non_constant = Substitution(Alphabet(("0", "1")), ((0, 1), (1,)))
    with pytest.raises(ValueError):
        build_nblock(non_constant, 3)
    length_one = Substitution(Alphabet(("0", "1")), ((1,), (0,)))
    with pytest.raises(ValueError):
        build_nblock(length_one, 3)
    no_growing_seed = Substitution(Alphabet(("0", "1")), ((1, 0), (0, 1)))
    with pytest.raises(ValueError):
        build_nblock(no_growing_seed, 3)
    with pytest.raises(ValueError):
        build_nblock(theta(), 0)


def test_block_labels_are_checked_when_base_labels_differ_in_width():
    # blocks 01 and 10 are both "a" + "aa" = "aa" + "a" = "aaa"
    base = Substitution(Alphabet(("a", "aa")), ((0, 1), (1, 0)))
    with pytest.raises(ValueError, match="alphabet labels must be distinct"):
        build_nblock(base, 2)
    wide = build_nblock(Substitution(Alphabet(("a", "bb")), ((0, 1), (1, 0))), 2)
    assert wide.alphabet.labels == ("aa", "abb", "bba", "bbbb")


def _apply_tuple(base, w):
    return tuple(a for b in w for a in base.images[b])


def _nblock_reference(base, block_len):
    """Tuple blocks from a tuple-iterate language; each image window is a
    tuple slice of the image of the whole block."""
    seed = next(a for a in range(base.size) if base.is_growing_seed(a))
    w = (seed,)
    prev = None
    while True:
        w = _apply_tuple(base, w)
        found = {w[i:i + block_len] for i in range(len(w) - block_len + 1)}
        if prev is not None and found == prev and len(w) > 2 * block_len:
            break
        prev = found
    labels = base.alphabet.labels
    blocks = sorted(found, key=lambda f: tuple(labels[a] for a in f))
    position = {b: i for i, b in enumerate(blocks)}
    L = base.constant_length()
    images = []
    for b in blocks:
        v = _apply_tuple(base, b)
        images.append(tuple(position[v[off:off + block_len]] for off in range(L)))
    return (tuple(blocks), tuple("".join(labels[a] for a in b) for b in blocks),
            tuple(images))


@st.composite
def _constant_length_bases(draw):
    """Constant length L in 2..3 with letter 0 a growing seed; labels are
    shuffled and of one width, so that block labels (their concatenations)
    stay distinct."""
    k = draw(st.integers(1, 4))
    L = draw(st.integers(2, 3))
    images = [draw(st.lists(st.integers(0, k - 1), min_size=L, max_size=L)) for _ in range(k)]
    images[0][0] = 0
    width = draw(st.integers(1, 3))
    labels = draw(st.lists(st.text("abcd", min_size=width, max_size=width), min_size=k,
                           max_size=k, unique=True))
    return Substitution(Alphabet(tuple(labels)), tuple(map(tuple, images)))


@settings(max_examples=150, deadline=None)
@given(_constant_length_bases(), st.integers(1, 7))
def test_build_nblock_matches_reference_window_construction(base, block_len):
    blocks, labels, images = _nblock_reference(base, block_len)
    system = build_nblock(base, block_len)
    assert tuple(tuple(map(ord, b)) for b in _blocks(system)) == blocks
    assert system.alphabet.labels == labels
    assert system.block_sub.images == images


def _per_block_translate(base, block_len):
    """Oracle: each block's own image by applying the base to its first letters,
    its L windows looked up among the language blocks."""
    L = base.constant_length()
    texts = base.language(block_len, 0)
    position = {t: i for i, t in enumerate(texts)}
    head = -(-(block_len + L - 1) // L)
    images = []
    for t in texts:
        v = base.apply(t[:head])
        images.append(tuple(position[v[off:off + block_len]] for off in range(L)))
    return tuple(texts), tuple(images)


@pytest.mark.parametrize("m", range(1, 10))
def test_theta_blocks_read_off_one_iterate_match_per_block_images(m):
    texts, images = _per_block_translate(theta(), 2 ** m + 1)
    system = build_nblock(theta(), 2 ** m + 1)
    assert tuple(_blocks(system)) == texts
    assert system.block_sub.images == images


def test_build_nblock_memory_is_one_copy_of_the_blocks_while_building_and_none_after():
    """At width N = 2^10 + 1 the k = 3·2^10 blocks as text are k·N bytes.
    Building holds them once (the window dict); the built system keeps the
    iterate and one offset per block, not the block texts or labels."""
    import tracemalloc

    n = 2 ** 10 + 1
    k = 3 * 2 ** 10
    base = theta()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        system = build_nblock(base, n)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert system.size == k
    assert peak - before < 1.5 * k * n
    assert after - before < 0.25 * k * n

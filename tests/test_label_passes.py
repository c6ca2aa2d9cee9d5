"""The quarters, firsthalf and nblock passes compare labels, slices of the
prefix text; the references in ``helpers`` compare the ints of the same
windows, one at a time. Both must give the same entries, detail for detail,
on grown levels, on every level read off a corrupted prefix, and on levels
whose offsets are permuted."""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (block_formula_by_windows, off_prefix, prefix_pairs_by_windows,
                     quarters_by_windows)
from tmblocks.nblock import thue_morse_block_system, verify_block_formula
from tmblocks.thue_morse import (FactorSet, enumerate_by_scan, grow, verify_prefix_pairs,
                                 verify_quarter_descendants)


def _entries(rep):
    return [(e.claim, e.passed, e.detail) for e in rep.entries]


def _check_quarters(fs_next):
    assert _entries(verify_quarter_descendants(fs_next)) == quarters_by_windows(fs_next)


def _check_prefix_pairs(fs, fs_next):
    assert _entries(verify_prefix_pairs(fs, fs_next)) == prefix_pairs_by_windows(fs, fs_next)


def _check_block_formula(fs, theta_n):
    assert _entries(verify_block_formula(fs, theta_n)) == block_formula_by_windows(fs, theta_n)


@pytest.mark.parametrize("m", range(1, 9))
def test_label_passes_match_the_int_windows(m):
    fs = enumerate_by_scan(m)
    fs_next = grow(fs)
    # the grown level, the same offsets over a corrupted prefix, and a level
    # grown from a corrupted one
    for upper in (fs_next, off_prefix(fs_next), grow(off_prefix(fs))):
        _check_quarters(upper)
    for lower, upper in ((fs, fs_next), (off_prefix(fs), fs_next), (fs, off_prefix(fs_next))):
        _check_prefix_pairs(lower, upper)
    if m >= 2:
        theta_n = thue_morse_block_system(fs)
        for lower in (fs, off_prefix(fs)):
            _check_block_formula(lower, theta_n)


def _permuted(data, fs):
    """``fs`` with its offsets permuted: a few swaps, or any permutation."""
    k = fs.size
    swaps = st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)), max_size=6)
    offsets = list(fs.offsets)
    if data.draw(st.booleans(), label="few swaps"):
        for i, j in data.draw(swaps, label="swaps"):
            offsets[i], offsets[j] = offsets[j], offsets[i]
    else:
        offsets = data.draw(st.permutations(offsets), label="permutation")
    return FactorSet(fs.m, fs.prefix, array("I", offsets))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.data())
def test_label_passes_match_the_int_windows_on_permuted_offsets(m, data):
    fs = enumerate_by_scan(m)
    lower, upper = _permuted(data, fs), _permuted(data, grow(fs))
    _check_quarters(upper)
    _check_prefix_pairs(lower, upper)
    if m >= 2:
        _check_block_formula(lower, thue_morse_block_system(fs))

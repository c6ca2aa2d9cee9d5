from itertools import islice

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (apply, dense, factor_labels, image_tuples, iterates, labels, level_with,
                     nth_image)
from tmblocks import injectivize
from tmblocks.claims import Level, eta_system
from tmblocks.injectivize import (_map_power, build_eta, fixed_letters, initials_map,
                                  theorem_report, verify_fixed_point, verify_pair_images,
                                  verify_primitivity_argument, zeta5_fixture)
from tmblocks.nblock import thue_morse_block_system
from tmblocks.report import ReportBuilder
from tmblocks.substitution import Substitution, pf_bracket, pf_eigenvalue
from tmblocks.thue_morse import enumerate_by_scan

ETA5_IMAGES = ((9,), (3, 9), (10,), (4, 10), (5,), (5, 11),
               (6, 0, 3), (6, 0), (7, 1, 4), (7, 1), (11, 8, 2), (8, 2))
ZETA5_IMAGES = ((9,), (3, 9), (10,), (4, 10), (5, 11, 8), (5, 11),
                (6, 0, 3), (6, 0), (7, 1, 4), (7, 1), (2,), (8, 2))


def test_build_eta_m2_golden():
    sys2 = eta_system(2)
    assert image_tuples(sys2.eta) == ETA5_IMAGES
    assert labels(sys2.eta) == tuple(factor_labels(enumerate_by_scan(2)))
    assert fixed_letters(sys2.eta.size) == (5, 6)
    with pytest.raises(ValueError):
        build_eta(1, sys2.nblock)


@pytest.mark.parametrize("images", [
    ((1, 0), (0, 1), (1, 1), (0, 0), (1, 0), (0, 1)),  # six letters: no quarters
    ((1, 0), (0, 1), (1,), (0, 0)),                     # an image of one letter
])
def test_build_eta_refuses_a_block_substitution_of_another_shape(images):
    with pytest.raises(ValueError, match="four quarters of letters with two-letter images"):
        build_eta(2, Substitution.from_images(images, str))


def test_zeta5_fixture_golden():
    z = zeta5_fixture()
    assert image_tuples(z) == ZETA5_IMAGES
    assert z.is_injective()
    assert not z.is_primitive()
    # the trapped 2-cycle: the third letter returns to itself in two steps
    assert nth_image(z, 2, 1) == chr(10)
    assert nth_image(z, 2, 2) == chr(2)


def test_zeta5_orbit_agrees_with_block_substitution():
    z = zeta5_fixture()
    t5 = thue_morse_block_system(enumerate_by_scan(2))
    for n in range(1, 11):
        assert nth_image(z, 5, n) == nth_image(t5, 5, n)


def test_eta_and_zeta_differ_exactly_at_two_letters():
    eta = eta_system(2).eta
    z = zeta5_fixture()
    diff = [i + 1 for i in range(12) if eta.image(i) != z.image(i)]
    assert diff == [5, 11]


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_image_length_profile(m):
    sys_m = eta_system(m)
    eta, k = sys_m.eta, sys_m.eta.size
    for idx0, img in enumerate(image_tuples(eta)):
        i = idx0 + 1
        quarter = 4 * idx0 // k + 1
        if i % 2 == 0:
            assert len(img) == 2
        elif quarter in (1, 2):
            assert len(img) == 1
        else:
            assert len(img) == 3
    assert sum(len(img) for img in image_tuples(eta)) == 2 * k
    # even letters keep the block images verbatim
    theta_n = sys_m.nblock
    for idx0 in range(1, k, 2):  # 1-based index even
        assert eta.image(idx0) == theta_n.image(idx0)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_eta_is_injective(m):
    assert eta_system(m).eta.is_injective()


def test_eta_system_keeps_theta_n():
    for m in (2, 3, 4):
        kept, built = eta_system(m).nblock, thue_morse_block_system(enumerate_by_scan(m))
        assert image_tuples(kept) == image_tuples(built) and labels(kept) == labels(built)


def test_pair_images_golden_and_verifier():
    sys2 = eta_system(2)
    t5 = sys2.nblock
    # the pair starting the f1 orbit: image of (w7, w1)
    assert apply(sys2.eta, "\x06\x00") == "\x06\x00\x03\x09" == apply(t5, "\x06\x00")
    for m in (2, 3, 4):
        sys_m = eta_system(m)
        assert verify_pair_images(m, sys_m.nblock, sys_m.eta).ok


def _pair_mismatches(theta_n, eta):
    """Reference: the 1-based j whose θ_N image pair η and θ_N map
    differently, one word of θ_N's images at a time."""
    return [j + 1 for j, img in enumerate(image_tuples(theta_n))
            if nth_image(eta, img[0], 1) + nth_image(eta, img[1], 1)
            != nth_image(theta_n, img[0], 1) + nth_image(theta_n, img[1], 1)]


def _with_images(sub, changes):
    images = list(image_tuples(sub))
    for letter, image in changes.items():
        images[letter] = image
    return Substitution.from_images(tuple(images), sub.label)


@pytest.mark.parametrize("m", range(2, 9))
def test_pair_images_name_the_pairs_that_differ(m):
    level = eta_system(m)
    theta_n, eta = level.nblock, level.eta
    assert verify_pair_images(m, theta_n, eta).ok
    assert _pair_mismatches(theta_n, eta) == []
    # 0-based letters 1 and 3 have two-letter images under η; swapped, every
    # pair keeps its length
    swapped = _with_images(eta, {1: tuple(eta.image(3)), 3: tuple(eta.image(1))})
    # cut down to one letter, the image of letter 1 changes the lengths
    shorter = _with_images(eta, {1: tuple(eta.image(1))[:1]})
    for wrong in (swapped, shorter):
        bad = _pair_mismatches(theta_n, wrong)
        assert bad
        rep = verify_pair_images(m, theta_n, wrong)
        assert [(e.claim, e.passed, e.detail) for e in rep.entries] == [
            ("pairs.images", False, f"mismatch at j={bad[:5]}")]


def test_pair_images_are_compared_pair_by_pair():
    # θ: 0 -> 01, 1 -> 20, 2 -> 12 and η: 0 -> 012, 1 -> 0, 2 -> 12 agree on
    # the concatenation 012012 of the pairs 01, 20, 12, but not on 20 or 12
    theta_n = Substitution.from_images(((0, 1), (2, 0), (1, 2)), "abc".__getitem__)
    eta = Substitution.from_images(((0, 1, 2), (0,), (1, 2)), "abc".__getitem__)
    assert apply(eta, "\0\1\2\0\1\2") == apply(theta_n, "\0\1\2\0\1\2")
    assert _pair_mismatches(theta_n, eta) == [2, 3]
    rep = verify_pair_images(2, theta_n, eta)
    assert [(e.passed, e.detail) for e in rep.entries] == [(False, "mismatch at j=[2, 3]")]


def test_pair_images_need_two_letter_images():
    # images of 3 and 1 letters hold as many letters as two pairs; compared
    # with itself, such a θ_N agrees on every "pair" it is not made of
    theta_n = Substitution.from_images(((0, 1, 2), (2,), (1, 0)), "abc".__getitem__)
    rep = verify_pair_images(2, theta_n, theta_n)
    assert [(e.claim, e.passed, e.detail) for e in rep.entries] == [
        ("pairs.images", False, "images of θ_N with other than two letters at j=[1, 2]")]


def test_fixed_point_orbits():
    sys2 = eta_system(2)
    eta, t5 = sys2.eta, sys2.nblock
    f0, f1 = fixed_letters(t5.size)
    for n in range(1, 9):
        assert nth_image(eta, f0, n) == nth_image(t5, f0, n)
    # from f1 the refined iterate is longer but expands the same fixed point
    for n in range(1, 8):
        e = nth_image(eta, f1, n)
        t = nth_image(t5, f1, n)
        assert len(e) == 3 * 2 ** (n - 1)
        assert e[:len(t)] == t
        assert nth_image(t5, f1, n + 1)[:len(e)] == e


def _iterated_fixed_point(theta_n, sub, depth=10):
    """Reference: the f0_orbit and f1_common_fixed_point verdicts as the
    iterates of ``sub`` and ``theta_n`` compare them for n = 1..depth."""
    f0, f1 = fixed_letters(theta_n.size)
    e0, t0, e1, t1 = (list(islice(iterates(s, a), depth + 2))
                      for s, a in ((sub, f0), (theta_n, f0), (sub, f1), (theta_n, f1)))
    f0_ok = all(e0[n] == t0[n] and len(e0[n]) == 2 ** n for n in range(1, depth + 1))
    f1_ok = all(e1[n].startswith(t1[n]) and t1[n + 1].startswith(e1[n])
                for n in range(1, depth + 1))
    return f0_ok, f1_ok


def _induction(m, theta_n, sub):
    """The f0_orbit and f1_common_fixed_point verdicts of the induction:
    the fixedpoint report with ``sub`` in the place of η, under its pairs
    premise."""
    rep = level_with(m, nblock=theta_n, eta=sub).report("fixedpoint")
    return tuple(e.passed for e in rep.entries)


@pytest.mark.parametrize("m", range(2, 9))
def test_fixed_point_induction_and_iterates_pass_on_eta(m):
    level = eta_system(m)
    assert _induction(m, level.nblock, level.eta) == (True, True)
    assert _iterated_fixed_point(level.nblock, level.eta) == (True, True)


def test_fixed_point_induction_and_iterates_pass_on_zeta5():
    t5 = eta_system(2).nblock
    assert _induction(2, t5, zeta5_fixture()) == (True, True)
    assert _iterated_fixed_point(t5, zeta5_fixture()) == (True, True)


@st.composite
def _mutated_etas(draw):
    """(m, θ_N, η') for m = 2 or 3. Each distinct θ_N image pair (a, b) has
    its four letters θ_N(a)θ_N(b) split anew between η'(a) and η'(b), which
    keeps every pair image; then, sometimes, one image is drawn at random."""
    m = draw(st.sampled_from((2, 3)))
    level = eta_system(m)
    theta_n = level.nblock
    k = theta_n.size
    images = list(image_tuples(level.eta))
    for a, b in sorted(set(image_tuples(theta_n))):
        word = tuple(theta_n.image(a) + theta_n.image(b))
        cut = draw(st.integers(1, 3))
        images[a], images[b] = word[:cut], word[cut:]
    if draw(st.booleans()):
        letter = draw(st.integers(0, k - 1))
        images[letter] = tuple(draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=3)))
    return m, theta_n, Substitution.from_images(tuple(images), theta_n.label)


@settings(max_examples=200, deadline=None)
@given(_mutated_etas())
def test_fixed_point_induction_implies_the_iterated_check(case):
    # only this direction holds in general: the iterates can agree up to any
    # depth with a pair image that differs outside them
    m, theta_n, sub = case
    proved = _induction(m, theta_n, sub)
    iterated = _iterated_fixed_point(theta_n, sub)
    for entry_proved, entry_iterated in zip(proved, iterated):
        assert entry_iterated or not entry_proved


def test_fixed_point_fails_with_its_pairs_premise():
    # the image of letter 1 cut to one letter breaks the one image pair
    # that holds letter 1, and neither base case
    level = eta_system(3)
    level.eta = _with_images(level.eta, {1: tuple(level.eta.image(1))[:1]})
    rep = level.report("fixedpoint")
    assert not level.report("pairs").ok
    assert [(e.claim, e.passed, e.detail) for e in rep.entries] == [
        ("fixedpoint.f0_orbit", False, "premise pairs failed"),
        ("fixedpoint.f1_common_fixed_point", False, "premise pairs failed")]


@pytest.mark.parametrize("m", [2, 3, 4])
def test_fixed_point_base_cases_fail_alone(m):
    # a wrong letter after η(f1), or η(f0) reversed: each breaks its pairs
    # image too, so the base cases are checked here without their premise,
    # which the true η passes, where they alone decide
    level = eta_system(m)
    theta_n, eta = level.nblock, level.eta
    f0, f1 = fixed_letters(eta.size)
    assert level.report("pairs").ok
    after = nth_image(theta_n, f1, 2)[len(eta.image(f1))]
    wrong = (ord(after) + 1) % eta.size
    for letter, image, failed in ((f1, tuple(eta.image(f1)) + (wrong,), "f1_common_fixed_point"),
                                  (f0, tuple(eta.image(f0))[::-1], "f0_orbit")):
        sub = _with_images(eta, {letter: image})
        assert not verify_pair_images(m, theta_n, sub).ok
        rep = verify_fixed_point(m, theta_n, sub)
        assert [e.claim for e in rep.entries if not e.passed] == [f"fixedpoint.{failed}"]


def test_initials_maps():
    sys2 = eta_system(2)
    phi = initials_map(sys2.nblock)
    psi = initials_map(sys2.eta)
    assert phi[0] == 3   # the first letter's block image starts at w_4
    assert psi[0] == 9   # the refined image of w_1 is the single letter w_10
    for m in (2, 3, 4):
        sys_m = eta_system(m)
        k = sys_m.eta.size
        phi_m = initials_map(sys_m.nblock)
        psi_m = initials_map(sys_m.eta)
        assert psi_m[k // 4:3 * k // 4] == phi_m[k // 4:3 * k // 4]


def _primitivity_argument(m, theta_n, eta):
    return verify_primitivity_argument(m, theta_n, eta, eta.is_primitive())


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_primitivity_argument(m):
    sys_m = eta_system(m)
    rep = _primitivity_argument(m, sys_m.nblock, sys_m.eta)
    assert rep.ok, [e.claim for e in rep.entries if not e.passed]
    assert [e.claim.split(".", 1)[1] for e in rep.entries] == [
        "phi_reaches", "psi_reaches", "psi_phi_q2_q3", "psi_q4_increasing",
        "psi_q1_to_q4", "matrix", "forward"]


@pytest.mark.parametrize("m", [2, 3, 5])
@pytest.mark.parametrize("cut", ["shifted", "past the end"])
def test_quarter_checks_fail_on_slices_cut_short(m, cut, monkeypatch):
    """Negative control: with the first odd letter of each quarter moved on
    by two, or past the last letter, ψ still maps every letter it reads as
    the paper says, but psi_q4_increasing does not read the odd letters of
    Q4 nor psi_q1_to_q4 the q letters of Q1, and each names its count."""
    level = eta_system(m)
    theta_n, eta = level.nblock, level.eta
    q = theta_n.size // 4
    first_odd = injectivize.first_odd
    monkeypatch.setattr(injectivize, "first_odd",
                        (lambda q, n: first_odd(q, n) + 2) if cut == "shifted"
                        else (lambda q, n: 4 * q))
    rep = _primitivity_argument(m, theta_n, eta)
    odd_q4 = q // 2  # the odd numbers in 3q + 1 .. 4q, q = 3 at m = 2 and even above
    read_q4, read_q1 = (odd_q4 - 1, q - 2) if cut == "shifted" else (0, 0)
    assert [(e.claim, e.detail) for e in rep.entries if not e.passed] == [
        ("primitivity.psi_q4_increasing", f"read {read_q4} odd letters of Q4, not {odd_q4}"),
        ("primitivity.psi_q1_to_q4", f"read {read_q1} letters of Q1, not {q}")]


def test_eta_incidence_column_sums_m2():
    sums = dense(eta_system(2).eta).sum(axis=0)
    assert sums.tolist() == [1, 2, 1, 2, 1, 2, 3, 2, 3, 2, 3, 2]


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_column_sums_equal_image_lengths(m):
    eta = eta_system(m).eta
    assert dense(eta).sum(axis=0).tolist() == list(map(len, image_tuples(eta)))


def test_zeta5_incidence_column_of_the_trapped_letter():
    counts = dense(zeta5_fixture())
    # the third letter's image is the single letter w_11: a unit column
    assert list(counts[:, 2]) == [0] * 10 + [1, 0]


@pytest.mark.parametrize("m", [2, 3, 4])
def test_pf_eigenvalue_is_two(m):
    assert abs(pf_eigenvalue(eta_system(m).eta) - 2.0) < 1e-9


def test_pf_cross_checked_against_dense_solver():
    for m in (2, 3):
        counts = dense(eta_system(m).eta)
        dominant = max(abs(np.linalg.eigvals(counts.astype(float))))
        assert abs(dominant - 2.0) < 1e-9


def test_growth_identity_matrix_vs_iteration():
    for m in (2, 3):
        eta = eta_system(m).eta
        f0, _ = fixed_letters(eta.size)
        # 1^T M^n at the f0 column from dense integer matrix powers
        counts = dense(eta)
        mn = np.eye(eta.size, dtype=np.int64)
        for n in range(1, 13):
            mn = mn @ counts
            assert int(mn.sum(axis=0)[f0]) == 2 ** n
        w = chr(f0)
        for n in range(1, 13):
            w = apply(eta, w)
            assert len(w) == 2 ** n


def test_even_position_pairs_are_exactly_the_image_pairs():
    for m in (2, 3):
        sub = thue_morse_block_system(enumerate_by_scan(m))
        f0 = sub.size // 2 - 1
        w = nth_image(sub, f0, 12 if m == 2 else 13)
        pairs = {(ord(w[i]), ord(w[i + 1])) for i in range(0, len(w) - 1, 2)}
        assert pairs == set(image_tuples(sub))


def _theorem(m, theta_n, sub):
    """The theorem report with ``sub`` in the place of η, with its own
    primitivity verdict and fixed-point report against ``theta_n``."""
    return level_with(m, nblock=theta_n, eta=sub).report("theorem")


@pytest.mark.parametrize("m", [2, 3, 4])
def test_verify_theorem(m):
    sys_m = eta_system(m)
    rep = _theorem(m, sys_m.nblock, sys_m.eta)
    assert rep.ok, [e.claim for e in rep.entries if not e.passed]
    assert [e.detail for e in rep.entries if e.claim == "theorem.pf_eigenvalue"] == ["PF in [2, 2]"]


def test_zeta5_through_theorem_aggregator():
    sys2 = eta_system(2)
    rep = _theorem(2, sys2.nblock, zeta5_fixture())
    outcomes = {e.claim.split(".", 1)[1]: e.passed for e in rep.entries}
    assert outcomes == {"injective": True, "primitive": False,
                        "pf_eigenvalue": True, "fixed_point": True}
    # the passing fixed_point entry covers length doubling from f0
    f0, _ = fixed_letters(12)
    lengths = [len(w) for w in islice(iterates(zeta5_fixture(), f0), 1, 13)]
    assert lengths == [2 ** n for n in range(1, 13)]


def test_pf_eigenvalue_needs_exactly_two():
    # primitive with ρ = 2 (x^3 - 2x^2 + x - 2 = (x - 2)(x^2 + 1)), but
    # the row and column sums are not constant, so the bracket comes from
    # the iterate and holds 2 only up to its width
    probe = Substitution.from_images(((0, 1, 1), (1, 2), (0,)), "abc".__getitem__)
    assert probe.is_primitive()
    lo, hi = pf_bracket(probe)
    assert lo < 2 < hi and hi - lo <= 1e-9
    rep = theorem_report(2, probe, probe.is_primitive(), ReportBuilder(2, "fixedpoint").build())
    assert [(e.passed, e.detail) for e in rep.entries if e.claim == "theorem.pf_eigenvalue"] == [
        (False, f"PF in [{lo}, {hi}]")]


def _first_hit_walk(chain, start, targets, cap):
    """Reference: walk up to ``cap`` steps from ``start``, one at a time."""
    x = start
    for step in range(1, cap + 1):
        x = chain[x]
        if x in targets:
            return step
    return -1


def _power_walk(chain, start, n):
    x = start
    for _ in range(n):
        x = chain[x]
    return x


@st.composite
def _functional_graphs(draw):
    """A map on k <= 12 letters, 1-2 targets and a cap in 1..2k; some maps
    get a target-free cycle on letters the targets' letters never enter."""
    k = draw(st.integers(1, 12))
    chain = draw(st.lists(st.integers(0, k - 1), min_size=k, max_size=k))
    targets = set(draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=2)))
    free = [x for x in range(k) if x not in targets]
    if free and draw(st.booleans()):
        cycle = draw(st.lists(st.sampled_from(free), min_size=1, max_size=len(free),
                              unique=True))
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            chain[a] = b
    return chain, targets, draw(st.integers(1, 2 * k))


@settings(max_examples=300, deadline=None)
@given(_functional_graphs())
def test_map_power_matches_step_by_step_walks(graph):
    chain, _, cap = graph
    k = len(chain)
    for n in (0, 1, cap, 2 * k + 1):
        assert _map_power(chain, n) == [_power_walk(chain, x, n) for x in range(k)]


def _relabelled(chain, targets):
    """``chain`` with its two targets renamed to the fixed letters of
    ``len(chain)`` letters, and the renaming: old letter -> new letter."""
    f0, _ = fixed_letters(len(chain))
    others = [x for x in range(len(chain)) if x not in targets]
    order = others[:f0] + sorted(targets) + others[f0:]
    rank = {old: new for new, old in enumerate(order)}
    return [rank[chain[old]] for old in order], rank


@settings(max_examples=300, deadline=None)
@given(_functional_graphs())
def test_psi_reaches_matches_step_by_step_walks(graph):
    # psi_reaches on a substitution whose initials map is the drawn map, with
    # the two targets moved to f0 and f1, against walks of up to k steps
    chain, targets, _ = graph
    assume(len(targets) == 2)
    k = len(chain)
    psi, rank = _relabelled(chain, targets)
    sub = Substitution.from_images(tuple((a,) for a in psi), str)
    rep = verify_primitivity_argument(2, sub, sub, False)
    bad = sorted(rank[i] + 1 for i in range(k) if _first_hit_walk(chain, i, targets, k) < 0)
    assert [(e.passed, e.detail) for e in rep.entries if e.claim == "primitivity.psi_reaches"] == [
        (not bad, "every letter reaches f0 or f1" if not bad else f"failures at w_{bad[:5]}")]


def _reachability_reference(theta_n, eta):
    """The phi_reaches and psi_reaches entries as the step-by-step walks give
    them: (passed, detail) pairs."""
    k = theta_n.size
    f0, f1 = fixed_letters(k)
    phi = initials_map(theta_n)
    psi = initials_map(eta)
    targets = {f0, f1}
    bad = [i + 1 for i in range(k)
           if _first_hit_walk(phi, i, targets, k // 2) < 0
           or _power_walk(phi, i, k // 2) != (f0 if i < k // 2 else f1)]
    phi_entry = (not bad, f"every letter hits its fixed letter within {k // 2} steps"
                 if not bad else f"failures at w_{bad[:5]}")
    bad = [i + 1 for i in range(k) if _first_hit_walk(psi, i, targets, k) < 0]
    psi_entry = (not bad, "every letter reaches f0 or f1"
                 if not bad else f"failures at w_{bad[:5]}")
    return [phi_entry, psi_entry]


def test_primitivity_argument_on_zeta5_matches_the_reference_walks():
    t5 = eta_system(2).nblock
    rep = _primitivity_argument(2, t5, zeta5_fixture())
    entries = {e.claim.split(".", 1)[1]: (e.passed, e.detail) for e in rep.entries}
    assert [entries["phi_reaches"], entries["psi_reaches"]] == _reachability_reference(
        t5, zeta5_fixture())
    # the trapped pair {w3, w11} never reaches f0 or f1
    assert entries["psi_reaches"] == (False, "failures at w_[3, 11]")
    assert sorted(name for name, (passed, _) in entries.items() if not passed) == [
        "matrix", "psi_q4_increasing", "psi_reaches"]


def test_forward_reachability_ends_when_an_iterate_stops_growing():
    # f0 maps to itself alone: nothing else is reachable from it
    sys2 = eta_system(2)
    f0, _ = fixed_letters(sys2.eta.size)
    images = list(image_tuples(sys2.eta))
    images[f0] = (f0,)
    probe = Substitution.from_images(tuple(images), sys2.eta.label)
    rep = verify_primitivity_argument(2, sys2.nblock, probe, probe.is_primitive())
    assert [e.claim for e in rep.entries if not e.passed][-1] == "primitivity.forward"


def test_forward_reachability_has_no_length_cap():
    # an f0 image longer than 64 k letters that adds no new letter: every
    # letter is still reachable from f0, through the letters of η's image
    sys2 = eta_system(2)
    k = sys2.eta.size
    f0, _ = fixed_letters(k)
    images = list(image_tuples(sys2.eta))
    images[f0] += (f0,) * (64 * k)
    probe = Substitution.from_images(tuple(images), sys2.eta.label)
    rep = verify_primitivity_argument(2, sys2.nblock, probe, probe.is_primitive())
    assert [e.passed for e in rep.entries if e.claim == "primitivity.forward"] == [True]


def test_index_claims_hold_and_peak_under_100_bytes_a_letter():
    """A fresh level at m = 12 runs the claims on the index tables: the
    factor set, θ_N and η it holds, and the peak of the largest claim on top
    of them, stay under 100 bytes a letter, k = 3·2^12. It holds about 31
    and peaks at about 97 in ``primitivity``, whose powers of ψ are lists
    of ints (tracemalloc, Python 3.11), where the images as tuples of ints
    held 173 and peaked at 317."""
    import tracemalloc

    m = 12
    k = 3 * 2 ** m
    tracemalloc.start()
    try:
        level = Level(m)
        for claim in ("nblock", "pairs", "fixedpoint", "primitivity", "theorem"):
            assert level.report(claim).ok
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 40 * k and peak < 100 * k

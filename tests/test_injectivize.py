import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmblocks.injectivize import (EtaSystem, _first_hits, _map_power, build_eta,
                                  eta_system, initials_map,
                                  theorem_report, verify_fixed_point,
                                  verify_pair_images, verify_primitivity_argument,
                                  zeta5_fixture)
from tmblocks.nblock import thue_morse_block_system
from tmblocks.substitution import pf_eigenvalue
from tmblocks.thue_morse import enumerate_by_scan

ETA5_IMAGES = ((9,), (3, 9), (10,), (4, 10), (5,), (5, 11),
               (6, 0, 3), (6, 0), (7, 1, 4), (7, 1), (11, 8, 2), (8, 2))
ZETA5_IMAGES = ((9,), (3, 9), (10,), (4, 10), (5, 11, 8), (5, 11),
                (6, 0, 3), (6, 0), (7, 1, 4), (7, 1), (2,), (8, 2))


def test_build_eta_m2_golden():
    sys2 = eta_system(2)
    assert sys2.eta.images == ETA5_IMAGES
    assert sys2.eta.alphabet.labels == tuple(str(w) for w in enumerate_by_scan(2).words)
    assert sys2.f0_index == 5 and sys2.f1_index == 6
    with pytest.raises(ValueError):
        build_eta(1, thue_morse_block_system(1))


def test_zeta5_fixture_golden():
    z = zeta5_fixture()
    assert z.images == ZETA5_IMAGES
    assert z.is_injective()
    assert not z.is_primitive()
    # the trapped 2-cycle: the third letter returns to itself in two steps
    assert z.iterate(2, 1) == (10,)
    assert z.iterate(2, 2) == (2,)


def test_zeta5_orbit_agrees_with_block_substitution():
    z = zeta5_fixture()
    t5 = thue_morse_block_system(2).block_sub
    for n in range(1, 11):
        assert z.iterate(5, n) == t5.iterate(5, n)


def test_eta_and_zeta_differ_exactly_at_two_letters():
    eta = eta_system(2).eta
    z = zeta5_fixture()
    diff = [i + 1 for i in range(12) if eta.images[i] != z.images[i]]
    assert diff == [5, 11]


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_image_length_profile(m):
    sys_m = eta_system(m)
    eta, k = sys_m.eta, sys_m.size
    for idx0, img in enumerate(eta.images):
        i = idx0 + 1
        quarter = 4 * idx0 // k + 1
        if i % 2 == 0:
            assert len(img) == 2
        elif quarter in (1, 2):
            assert len(img) == 1
        else:
            assert len(img) == 3
    assert sum(len(img) for img in eta.images) == 2 * k
    # even letters keep the block images verbatim
    theta_n = sys_m.nblock.block_sub
    for idx0 in range(1, k, 2):  # 1-based index even
        assert eta.images[idx0] == theta_n.images[idx0]


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_eta_is_injective(m):
    assert eta_system(m).eta.is_injective()


def test_pair_images_golden_and_verifier():
    sys2 = eta_system(2)
    t5 = sys2.nblock.block_sub
    # the pair starting the f1 orbit: image of (w7, w1)
    assert sys2.eta.apply((6, 0)) == (6, 0, 3, 9) == t5.apply((6, 0))
    for m in (2, 3, 4):
        assert verify_pair_images(eta_system(m)).ok


def test_fixed_point_orbits():
    sys2 = eta_system(2)
    eta, t5 = sys2.eta, sys2.nblock.block_sub
    for n in range(1, 9):
        assert eta.iterate(sys2.f0_index, n) == t5.iterate(sys2.f0_index, n)
    # from f1 the refined iterate is longer but expands the same fixed point
    for n in range(1, 8):
        e = eta.iterate(sys2.f1_index, n)
        t = t5.iterate(sys2.f1_index, n)
        assert len(e) == 3 * 2 ** (n - 1)
        assert e[:len(t)] == t
        assert t5.iterate(sys2.f1_index, n + 1)[:len(e)] == e
    for m in (2, 3, 4):
        assert verify_fixed_point(eta_system(m), 12).ok


def test_initials_maps():
    sys2 = eta_system(2)
    phi = initials_map(sys2.nblock.block_sub)
    psi = initials_map(sys2.eta)
    assert phi[0] == 3   # the first letter's block image starts at w_4
    assert psi[0] == 9   # the refined image of w_1 is the single letter w_10
    for m in (2, 3, 4):
        sys_m = eta_system(m)
        k = sys_m.size
        phi_m = initials_map(sys_m.nblock.block_sub)
        psi_m = initials_map(sys_m.eta)
        assert psi_m[k // 4:3 * k // 4] == phi_m[k // 4:3 * k // 4]


def _primitivity_argument(sys_m):
    return verify_primitivity_argument(sys_m, sys_m.eta.is_primitive())


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_primitivity_argument(m):
    rep = _primitivity_argument(eta_system(m))
    assert rep.ok, [e.claim for e in rep if not e.passed]
    assert [e.claim.split(".", 1)[1] for e in rep] == [
        "phi_reaches", "psi_reaches", "psi_phi_q2_q3", "psi_q4_increasing",
        "psi_q1_to_q4", "matrix", "forward"]


def test_eta_incidence_column_sums_m2():
    m = eta_system(2).eta.incidence_matrix()
    assert m.column_sums() == (1, 2, 1, 2, 1, 2, 3, 2, 3, 2, 3, 2)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_column_sums_equal_image_lengths(m):
    eta = eta_system(m).eta
    assert eta.incidence_matrix().column_sums() == tuple(map(len, eta.images))


def test_zeta5_incidence_column_of_the_trapped_letter():
    counts = zeta5_fixture().incidence_matrix().counts
    # the third letter's image is the single letter w_11: a unit column
    assert list(counts[:, 2]) == [0] * 10 + [1, 0]


@pytest.mark.parametrize("m", [2, 3, 4])
def test_pf_eigenvalue_is_two(m):
    matrix = eta_system(m).eta.incidence_matrix()
    assert abs(pf_eigenvalue(matrix) - 2.0) < 1e-9


def test_pf_cross_checked_against_dense_solver():
    for m in (2, 3):
        counts = eta_system(m).eta.incidence_matrix().counts
        dominant = max(abs(np.linalg.eigvals(counts.astype(float))))
        assert abs(dominant - 2.0) < 1e-9


def test_growth_identity_matrix_vs_iteration():
    for m in (2, 3):
        sys_m = eta_system(m)
        matrix = sys_m.eta.incidence_matrix()
        lengths = matrix.image_length_sequence(sys_m.f0_index, 12)
        assert lengths == [2 ** n for n in range(1, 13)]
        # independent route: dense integer matrix powers
        mn = np.eye(sys_m.size, dtype=np.int64)
        for n in range(1, 13):
            mn = mn @ matrix.counts
            assert int(mn.sum(axis=0)[sys_m.f0_index]) == 2 ** n
        w = (sys_m.f0_index,)
        for n in range(1, 13):
            w = sys_m.eta.apply(w)
            assert len(w) == 2 ** n


def test_even_position_pairs_are_exactly_the_image_pairs():
    for m in (2, 3):
        sub = thue_morse_block_system(m).block_sub
        f0 = sub.size // 2 - 1
        w = sub.iterate(f0, 12 if m == 2 else 13)
        pairs = {(w[i], w[i + 1]) for i in range(0, len(w) - 1, 2)}
        assert pairs == set(sub.images)


def _theorem(sub, reference_sys, **kwargs):
    matrix = sub.incidence_matrix()
    return theorem_report(sub, matrix, matrix.is_primitive(), reference_sys, **kwargs)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_verify_theorem(m):
    sys_m = eta_system(m)
    rep = _theorem(sys_m.eta, sys_m)
    assert rep.ok, [e.claim for e in rep if not e.passed]


def test_zeta5_through_theorem_aggregator():
    sys2 = eta_system(2)
    rep = _theorem(zeta5_fixture(), sys2, claim_prefix="zeta5")
    outcomes = {e.claim.split(".", 1)[1]: e.passed for e in rep}
    assert outcomes == {"injective": True, "primitive": False,
                        "pf_eigenvalue": True, "lengths_matrix": True,
                        "lengths_direct": True, "fixed_point": True}


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
def test_first_hits_and_map_power_match_step_by_step_walks(graph):
    chain, targets, cap = graph
    k = len(chain)
    assert _first_hits(chain, targets, cap) == [
        _first_hit_walk(chain, x, targets, cap) for x in range(k)]
    for n in (0, 1, cap, 2 * k + 1):
        assert _map_power(chain, n) == [_power_walk(chain, x, n) for x in range(k)]


def test_first_hits_on_a_target_free_cycle():
    # 0 -> 1 -> 2 -> 0 never meets target 4; 3 -> 4 -> 4 does
    chain = (1, 2, 0, 4, 4)
    assert _first_hits(chain, {4}, 5) == [-1, -1, -1, 1, 1]
    assert _first_hits(chain, {0}, 5) == [3, 2, 1, -1, -1]
    assert _first_hits(chain, {0}, 2) == [-1, 2, 1, -1, -1]


def _reachability_reference(sys_m):
    """The phi_reaches and psi_reaches entries as the step-by-step walks give
    them: (passed, detail) pairs."""
    k, f0, f1 = sys_m.size, sys_m.f0_index, sys_m.f1_index
    phi = initials_map(sys_m.nblock.block_sub)
    psi = initials_map(sys_m.eta)
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
    sys2 = eta_system(2)
    probe = EtaSystem(2, sys2.nblock, zeta5_fixture())
    rep = _primitivity_argument(probe)
    entries = {e.claim.split(".", 1)[1]: (e.passed, e.detail) for e in rep}
    assert [entries["phi_reaches"], entries["psi_reaches"]] == _reachability_reference(probe)
    # the trapped pair {w3, w11} never reaches f0 or f1
    assert entries["psi_reaches"] == (False, "failures at w_[3, 11]")
    assert sorted(name for name, (passed, _) in entries.items() if not passed) == [
        "matrix", "psi_q4_increasing", "psi_reaches"]

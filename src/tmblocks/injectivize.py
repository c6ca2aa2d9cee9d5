"""Injective refinement of the two-letter-image Thue-Morse block substitution.

The block substitution is exactly 2-to-1 on letters: consecutive indices
2i-1, 2i share their image pair. The refinement keeps the images of the
even-indexed letters and redistributes the letters of the odd-indexed
images by quarter: odd letters of Q1 keep only the second letter of their
pair, odd letters of Q2 only the first, odd letters of Q3 gain the letter
their half-shifted partner starts with, and odd letters of Q4 are prefixed
with the letter their half-shifted partner ends with. The result has
pairwise distinct images with lengths in {1, 2, 3}, acts identically on the
image pairs, fixes the same one-sided fixed point, and is primitive with
dominant eigenvalue 2.
"""

from __future__ import annotations

from typing import Sequence

from .nblock import half_shift
from .report import ReportBuilder, VerificationReport
from .substitution import Substitution, Word, _bfs_levels, pf_bracket
from .thue_morse import enumerate_by_scan


def fixed_letters(k: int) -> tuple[int, int]:
    """0-based letters of the f0 block (largest word starting with 0) and
    the f1 block (smallest word starting with 1) among k blocks."""
    return k // 2 - 1, k // 2


def build_eta(m: int, theta_n: Substitution) -> Substitution:
    """The injective refinement of the Thue-Morse block substitution
    ``theta_n`` of width 2^m + 1. It reads the images alone: that the f0
    block sits at the midpoint is the ``nblock`` report's f0_image entry."""
    if m < 2:
        raise ValueError(f"the construction needs a quarter partition (m >= 2), got m={m}")
    k = theta_n.size
    images: list[Word] = []
    for idx0 in range(k):
        pair = theta_n.images[idx0]
        i = idx0 + 1
        if i % 2 == 0:
            images.append(pair)
            continue
        quarter = (4 * idx0) // k + 1
        partner = theta_n.images[half_shift(i, k) - 1]
        if quarter == 1:
            images.append((pair[1],))
        elif quarter == 2:
            images.append((pair[0],))
        elif quarter == 3:
            images.append(pair + (partner[0],))
        else:
            images.append((partner[1],) + pair)
    return Substitution(tuple(images), theta_n.label)


# The m=2 negative example: an injective redistribution that keeps the odd
# Q2 letter long and cuts the odd Q4 letter down to one letter, trapping the
# pair {w3, w11} in a 2-cycle. 0-based images on the 12-letter alphabet.
_ZETA5_IMAGES = (
    (9,), (3, 9), (10,), (4, 10), (5, 11, 8), (5, 11),
    (6, 0, 3), (6, 0), (7, 1, 4), (7, 1), (2,), (8, 2),
)


def zeta5_fixture() -> Substitution:
    """The injective but non-primitive redistribution on the m=2 alphabet."""
    return Substitution(_ZETA5_IMAGES, enumerate_by_scan(2).label)


def initials_map(s: Substitution) -> tuple[int, ...]:
    """letter -> first letter of its image (0-based)."""
    return tuple(img[0] for img in s.images)


def _map_power(chain: Sequence[int], n: int) -> list[int]:
    """chain^n for all letters at once, by repeated squaring."""
    result = list(range(len(chain)))
    square = list(chain)
    while n:
        if n & 1:
            result = [square[x] for x in result]
        n >>= 1
        if n:
            square = [square[x] for x in square]
    return result


def verify_pair_images(m: int, theta_n: Substitution, eta: Substitution) -> VerificationReport:
    """The refinement and the block substitution agree on every image pair:
    for the image (a, b) of each letter, η(a)η(b) = θ_N(a)θ_N(b), compared
    as the texts of their translate tables."""
    eta_of, theta_of = eta._text_table(), theta_n._text_table()
    bad = [j + 1 for j, (a, b) in enumerate(theta_n.images)
           if eta_of[a] + eta_of[b] != theta_of[a] + theta_of[b]]
    rb = ReportBuilder(m, "pairs")
    rb.check("images", not bad,
             f"all {theta_n.size} pairs agree" if not bad else f"mismatch at j={bad[:5]}")
    return rb.build()


def verify_fixed_point(m: int, theta_n: Substitution, eta: Substitution,
                       pairs: VerificationReport) -> VerificationReport:
    """Orbit equality from the f0 letter, and common-fixed-point agreement
    from the f1 letter, for every n >= 1: two base cases and the ``pairs``
    report of the same θ_N and η.

    A passing ``pairs`` report says η(θ_N(b)) = θ_N²(b) for every letter b,
    so η∘θ_N = θ_N∘θ_N as morphisms, and a morphism keeps the prefix order
    ≤. By induction on n, η(f0) = θ_N(f0) then gives η^n(f0) = θ_N^n(f0),
    of length 2^n when every θ_N image has 2 letters; and θ_N(f1) ≤ η(f1)
    ≤ θ_N²(f1) gives θ_N^n(f1) ≤ η^n(f1) ≤ θ_N^(n+1)(f1), so both f1
    iterates expand one fixed point, although η's grows strictly faster
    (3·2^(n-1) letters vs 2^n). Without ``pairs`` neither entry passes.
    """
    f0, f1 = fixed_letters(theta_n.size)
    eta_of, theta_of = eta._text_table(), theta_n._text_table()
    rb = ReportBuilder(m, "fixedpoint")
    base = all(len(img) == 2 for img in theta_n.images) and eta_of[f0] == theta_of[f0]
    rb.check("f0_orbit", base, "orbits equal with length 2^n for every n" if base
             else "θ_N is not 2-uniform or η(f0) != θ_N(f0)")
    eta_f1, theta_f1 = eta_of[f1], theta_of[f1]
    base = eta_f1.startswith(theta_f1) and theta_n.apply(theta_f1).startswith(eta_f1)
    rb.check("f1_common_fixed_point", base,
             "the f1 iterates of both substitutions are nested prefixes of one fixed point"
             if base else "θ_N(f1) ≤ η(f1) ≤ θ_N²(f1) fails in the prefix order")
    return rb.build().given("pairs", pairs)


def verify_primitivity_argument(m: int, theta_n: Substitution, eta: Substitution,
                                primitive: bool) -> VerificationReport:
    """The first-letter reachability argument, checked independently of the
    generic graph test of primitivity, plus that test's verdict ``primitive``
    on the refinement's incidence matrix and forward reachability from the
    two fixed-point letters, by breadth-first search over its images."""
    k = theta_n.size
    f0, f1 = fixed_letters(k)
    phi = initials_map(theta_n)
    psi = initials_map(eta)
    rb = ReportBuilder(m, "primitivity")

    # phi^(k/2) landing on the fixed letter means the walk met it by then
    landed = _map_power(phi, k // 2)
    bad = [i + 1 for i in range(k) if landed[i] != (f0 if i < k // 2 else f1)]
    rb.check("phi_reaches", not bad,
             f"every letter hits its fixed letter within {k // 2} steps"
             if not bad else f"failures at w_{bad[:5]}")

    # with f0 and f1 absorbing, psi^n(i) meets one of them for some n in
    # 1..k iff the walk from psi(i) rests on one after k - 1 steps
    absorbing = list(psi)
    absorbing[f0], absorbing[f1] = f0, f1
    landed = _map_power(absorbing, k - 1)
    bad = [i + 1 for i in range(k) if landed[psi[i]] not in (f0, f1)]
    rb.check("psi_reaches", not bad,
             "every letter reaches f0 or f1" if not bad else f"failures at w_{bad[:5]}")

    mid = (k // 4, 3 * k // 4)  # 0-based span of Q2 u Q3
    agree = all(psi[i] == phi[i] for i in range(*mid))
    rb.check("psi_phi_q2_q3", agree, "initials maps agree on Q2 u Q3")

    odd_q4 = [i for i in range(3 * k // 4, k) if (i + 1) % 2 == 1]
    rb.check("psi_q4_increasing", all(psi[i] > i for i in odd_q4),
             "strictly index-increasing on odd letters of Q4")

    q1 = range(0, k // 4)
    odd_ok = all(3 * k // 4 <= psi[i] < k for i in q1 if (i + 1) % 2 == 1)
    even_ok = all(k // 4 <= psi[i] < k // 2 for i in q1 if (i + 1) % 2 == 0)
    rb.check("psi_q1_to_q4", odd_ok and even_ok,
             "odd letters of Q1 map into Q4; even ones follow phi into Q2")

    note = "" if m >= 3 else "m=2 outcome is empirical; the construction is stated for m >= 3"
    rb.check("matrix", primitive, note)

    rb.check("forward", all(min(_bfs_levels(eta.images, seed)) >= 0 for seed in (f0, f1)),
             "every letter occurs in iterates of both fixed-point letters")
    return rb.build()


def theorem_report(m: int, eta: Substitution, primitive: bool,
                   fixed_point: VerificationReport) -> VerificationReport:
    """The headline claims for the refinement ``eta`` at level m, given its
    primitivity verdict and its fixed-point report: injectivity,
    primitivity, dominant eigenvalue 2 of its incidence matrix, and
    fixed-point agreement, which includes that the f0 iterates double in
    length for every n."""
    rb = ReportBuilder(m, "theorem")
    rb.check("injective", eta.is_injective())
    rb.check("primitive", primitive)

    try:
        # exact: on eta every letter occurs twice among the images, so the
        # row sums give [2, 2] before any block is iterated
        lo, hi = pf_bracket(eta)
        rb.check("pf_eigenvalue", lo == hi == 2, f"PF in [{lo}, {hi}]")
    except ArithmeticError as exc:
        rb.check("pf_eigenvalue", False, str(exc))

    rb.check("fixed_point", fixed_point.ok, "orbit agreement with the block substitution")
    return rb.build()

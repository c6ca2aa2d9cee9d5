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

from array import array
from collections.abc import Sequence
from itertools import accumulate, chain, compress, islice, repeat
from operator import contains, eq, getitem, gt, ne, or_, sub

from .report import ReportBuilder, VerificationReport, first_failures
from .substitution import Substitution, _bfs_levels, pf_bracket
from .thue_morse import enumerate_by_scan


def fixed_letters(k: int) -> tuple[int, int]:
    """0-based letters of the f0 block (largest word starting with 0) and
    the f1 block (smallest word starting with 1) among k blocks."""
    return k // 2 - 1, k // 2


def first_odd(q: int, n: int) -> int:
    """The first 0-based letter of quarter n + 1 of 4q letters whose 1-based
    index is odd."""
    return n * q + n * q % 2


def build_eta(m: int, theta_n: Substitution) -> Substitution:
    """The injective refinement of the Thue-Morse block substitution
    ``theta_n`` of width 2^m + 1, four quarters of letters whose images
    have two letters each. It reads the images alone: that the f0 block sits
    at the midpoint is the ``nblock`` report's f0 entry."""
    if m < 2:
        raise ValueError(f"the construction needs a quarter partition (m >= 2), got m={m}")
    k = theta_n.size
    if k % 4 or set(theta_n.lengths()) != {2}:
        raise ValueError(f"the block substitution must have four quarters of letters with "
                         f"two-letter images, got {k} letters")
    q, h = k // 4, k // 2
    first, second = theta_n.letters[0::2], theta_n.letters[1::2]
    # the 0-based letters j = cut[n], cut[n] + 2, ... below (n + 1)·q are the
    # odd-indexed ones of quarter n + 1; half the alphabet away from those of
    # Q3 and Q4 lie those of Q1 and Q2
    cut = [first_odd(q, n) for n in range(4)]

    def odd(column: array, n: int, shift: int = 0) -> array:
        """Letter ``column`` of the images of the odd-indexed letters of
        quarter n + 1, or, with ``shift`` = h, of their partners."""
        return column[cut[n] - shift:(n + 1) * q - shift:2]

    # each odd-indexed letter and the even one after it take 1 + 2 letters
    # in the first half, q pairs, and 3 + 2 in the second; the even ones
    # keep their images
    low, high = array("I", [0]) * (3 * q), array("I", [0]) * (5 * q)
    low[0::3] = odd(second, 0) + odd(first, 1)
    low[1::3], low[2::3] = first[1:h:2], second[1:h:2]
    high[0::5] = odd(first, 2) + odd(second, 3, h)
    high[1::5] = odd(second, 2) + odd(first, 3)
    high[2::5] = odd(first, 2, h) + odd(second, 3)
    high[3::5], high[4::5] = first[h + 1::2], second[h + 1::2]
    lengths = chain.from_iterable(chain(repeat((1, 2), q), repeat((3, 2), q)))
    return Substitution(low + high, array("I", accumulate(lengths, initial=0)), theta_n.label)


# The m=2 negative example: an injective redistribution that keeps the odd
# Q2 letter long and cuts the odd Q4 letter down to one letter, trapping the
# pair {w3, w11} in a 2-cycle. 0-based images on the 12-letter alphabet,
# (9), (3, 9), (10), (4, 10), (5, 11, 8), (5, 11), (6, 0, 3), (6, 0),
# (7, 1, 4), (7, 1), (2), (8, 2): their letters in a row, and their lengths.
_ZETA5_LETTERS = (9, 3, 9, 10, 4, 10, 5, 11, 8, 5, 11, 6, 0, 3, 6, 0, 7, 1, 4, 7, 1, 2, 8, 2)
_ZETA5_LENGTHS = (1, 2, 1, 2, 3, 2, 3, 2, 3, 2, 1, 2)


def zeta5_fixture() -> Substitution:
    """The injective but non-primitive redistribution on the m=2 alphabet."""
    return Substitution(array("I", _ZETA5_LETTERS),
                        array("I", accumulate(_ZETA5_LENGTHS, initial=0)),
                        enumerate_by_scan(2).label)


def initials_map(s: Substitution) -> array:
    """letter -> first letter of its image (0-based)."""
    return array("I", map(getitem, repeat(s.letters), islice(s.starts, s.size)))


def _map_power(chain: Sequence[int], n: int) -> list[int]:
    """chain^n for all letters at once, by repeated squaring. The result
    starts as the first power it takes, not as the identity, which would be
    one more list of k ints at the peak."""
    result, square = None, list(chain)
    while n:
        if n & 1:
            result = square if result is None else [square[x] for x in result]
        n >>= 1
        if n:
            square = [square[x] for x in square]
    return list(range(len(square))) if result is None else result


def verify_pair_images(m: int, theta_n: Substitution, eta: Substitution) -> VerificationReport:
    """The refinement and the block substitution agree on every image pair:
    for the image (a, b) of each letter under ``theta_n``, whose images must
    have two letters each, η(a)η(b) = θ_N(a)θ_N(b). Each run of letters
    with one image is compared once and takes that verdict: θ_N maps
    w_{2i-1} and w_{2i} alike, so half the letters are not compared again.
    A failing image names every letter that has it."""
    rb = ReportBuilder(m, "pairs")
    if set(theta_n.lengths()) != {2}:
        bad = first_failures(map((2).__eq__, theta_n.lengths()))
        rb.check("images", False, f"images of θ_N with other than two letters at j={bad}")
        return rb.build()
    letters, image, starts = theta_n.letters, eta.letters, eta.starts
    firsts, seconds = letters[0::2], letters[1::2]
    # 1 for each letter whose image is not the one of the letter before it
    new = bytes(map(or_, map(ne, firsts, chain((None,), firsts)),
                    map(ne, seconds, chain((None,), seconds))))
    verdicts = [image[starts[a]:starts[a + 1]] + image[starts[b]:starts[b + 1]]
                == letters[2 * a:2 * a + 2] + letters[2 * b:2 * b + 2]
                for a, b in zip(compress(firsts, new), compress(seconds, new))]
    # the verdict of a letter is that of its run, the number of runs begun up to it
    bad = [] if all(verdicts) else first_failures(
        map(verdicts.__getitem__, map(sub, accumulate(new), repeat(1))))
    rb.check("images", not bad,
             f"all {theta_n.size} pairs agree" if not bad else f"mismatch at j={bad}")
    return rb.build()


def verify_fixed_point(m: int, theta_n: Substitution, eta: Substitution) -> VerificationReport:
    """Orbit equality from the f0 letter, and common-fixed-point agreement
    from the f1 letter, for every n >= 1: two base cases, under the premise
    that the ``pairs`` report of the same θ_N and η passed.

    A passing ``pairs`` report says η(θ_N(b)) = θ_N²(b) for every letter b,
    so η∘θ_N = θ_N∘θ_N as morphisms, and a morphism keeps the prefix order
    ≤. By induction on n, η(f0) = θ_N(f0) then gives η^n(f0) = θ_N^n(f0),
    of length 2^n when every θ_N image has 2 letters; and θ_N(f1) ≤ η(f1)
    ≤ θ_N²(f1) gives θ_N^n(f1) ≤ η^n(f1) ≤ θ_N^(n+1)(f1), so both f1
    iterates expand one fixed point, although η's grows strictly faster
    (3·2^(n-1) letters vs 2^n).
    """
    f0, f1 = fixed_letters(theta_n.size)
    rb = ReportBuilder(m, "fixedpoint")
    base = set(theta_n.lengths()) == {2} and eta.image(f0) == theta_n.image(f0)
    rb.check("f0_orbit", base, "orbits equal with length 2^n for every n" if base
             else "θ_N is not 2-uniform or η(f0) != θ_N(f0)")
    eta_f1, theta_f1 = eta.image(f1), theta_n.image(f1)
    theta2_f1 = array("I", chain.from_iterable(map(theta_n.image, theta_f1)))
    base = eta_f1[:len(theta_f1)] == theta_f1 and theta2_f1[:len(eta_f1)] == eta_f1
    rb.check("f1_common_fixed_point", base,
             "the f1 iterates of both substitutions are nested prefixes of one fixed point"
             if base else "θ_N(f1) ≤ η(f1) ≤ θ_N²(f1) fails in the prefix order")
    return rb.build()


def verify_primitivity_argument(m: int, theta_n: Substitution, eta: Substitution,
                                primitive: bool) -> VerificationReport:
    """The first-letter reachability argument, checked independently of the
    generic graph test of primitivity, plus that test's verdict on the
    refinement's incidence matrix, ``primitive`` (``eta.is_primitive()``),
    and forward reachability from the two fixed-point letters. A primitive
    graph is strongly connected, so every letter is reached from each of
    them; only a graph that is not is searched from f0 and from f1."""
    k = theta_n.size
    f0, f1 = fixed_letters(k)
    phi = initials_map(theta_n)
    psi = initials_map(eta)
    rb = ReportBuilder(m, "primitivity")

    # phi^(k/2) landing on the fixed letter means the walk met it by then
    bad = first_failures(map(eq, _map_power(phi, k // 2),
                             chain(repeat(f0, k // 2), repeat(f1, k - k // 2))))
    rb.check("phi_reaches", not bad,
             f"every letter hits its fixed letter within {k // 2} steps"
             if not bad else f"failures at w_{bad}")

    # with f0 and f1 absorbing, psi^n(i) meets one of them for some n in
    # 1..k iff the walk from psi(i) rests on one after k - 1 steps
    absorbing = array("I", psi)
    absorbing[f0], absorbing[f1] = f0, f1
    landed = _map_power(absorbing, k - 1)
    bad = first_failures(map(contains, repeat((f0, f1)), map(landed.__getitem__, psi)))
    rb.check("psi_reaches", not bad,
             "every letter reaches f0 or f1" if not bad else f"failures at w_{bad}")

    mid = slice(k // 4, 3 * k // 4)  # 0-based span of Q2 u Q3
    rb.check("psi_phi_q2_q3", psi[mid] == phi[mid], "initials maps agree on Q2 u Q3")

    # each check below FAILs unless it read the letters of its quarter, so
    # that it cannot pass on a slice cut short
    q = k // 4
    q4 = first_odd(q, 3)
    # the odd letters of Q4 are the even 0-based ones below 4q, less those below 3q
    odd_q4, want = psi[q4::2], (4 * q + 1) // 2 - (3 * q + 1) // 2
    rb.check("psi_q4_increasing", len(odd_q4) == want and all(map(gt, odd_q4, range(q4, k, 2))),
             f"strictly index-increasing on the {want} odd letters of Q4" if len(odd_q4) == want
             else f"read {len(odd_q4)} odd letters of Q4, not {want}")

    q1 = first_odd(q, 0)
    odd, even = psi[q1:q:2], psi[q1 + 1:q:2]
    read = len(odd) + len(even)
    into = all(3 * q <= a < k for a in odd) and all(q <= a < 2 * q for a in even)
    rb.check("psi_q1_to_q4", into and read == q,
             f"odd ones of the {q} letters of Q1 map into Q4; even ones follow phi into Q2"
             if read == q else f"read {read} letters of Q1, not {q}")

    note = "" if m >= 3 else "m=2 outcome is empirical; the construction is stated for m >= 3"
    rb.check("matrix", primitive, note)
    forward = primitive or all(min(_bfs_levels(eta.letters, eta.starts, f)[0]) >= 0
                               for f in (f0, f1))
    rb.check("forward", forward, "every letter occurs in iterates of both fixed-point letters")
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

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

from dataclasses import dataclass
from typing import Sequence

from .nblock import NBlockSystem, half_shift, thue_morse_block_system
from .report import ReportBuilder, VerificationReport
from .substitution import IncidenceMatrix, Substitution, Word, pf_bracket
from .thue_morse import enumerate_by_scan, thue_morse_prefix


@dataclass(frozen=True)
class EtaSystem:
    """The block system together with its injective refinement."""

    m: int
    nblock: NBlockSystem
    eta: Substitution

    @property
    def size(self) -> int:
        return self.nblock.size

    @property
    def f0_index(self) -> int:
        """0-based letter of the f0 block (largest word starting with 0)."""
        return self.size // 2 - 1

    @property
    def f1_index(self) -> int:
        """0-based letter of the f1 block (smallest word starting with 1)."""
        return self.size // 2


def build_eta(m: int, nb: NBlockSystem) -> EtaSystem:
    """Assemble the injective refinement of the Thue-Morse block system
    ``nb`` of width 2^m + 1."""
    if m < 2:
        raise ValueError(f"the construction needs a quarter partition (m >= 2), got m={m}")
    sub = nb.block_sub
    k = sub.size
    n = 2 ** m + 1
    f0_block = map(ord, nb.block_text(k // 2 - 1))
    if "".join(map(str, f0_block)) != str(thue_morse_prefix(0, n)):
        raise RuntimeError("block alphabet does not place the f0 block at midpoint")
    images: list[Word] = []
    for idx0 in range(k):
        pair = sub.images[idx0]
        i = idx0 + 1
        if i % 2 == 0:
            images.append(pair)
            continue
        quarter = (4 * idx0) // k + 1
        partner = sub.images[half_shift(i, k) - 1]
        if quarter == 1:
            images.append((pair[1],))
        elif quarter == 2:
            images.append((pair[0],))
        elif quarter == 3:
            images.append(pair + (partner[0],))
        else:
            images.append((partner[1],) + pair)
    return EtaSystem(m, nb, Substitution(sub.alphabet, tuple(images)))


def eta_system(m: int) -> EtaSystem:
    """The block system of width 2^m + 1 and its injective refinement, built
    from scratch."""
    return build_eta(m, thue_morse_block_system(m))


# The m=2 negative example: an injective redistribution that keeps the odd
# Q2 letter long and cuts the odd Q4 letter down to one letter, trapping the
# pair {w3, w11} in a 2-cycle. 0-based images on the 12-letter alphabet.
_ZETA5_IMAGES = (
    (9,), (3, 9), (10,), (4, 10), (5, 11, 8), (5, 11),
    (6, 0, 3), (6, 0), (7, 1, 4), (7, 1), (2,), (8, 2),
)


def zeta5_fixture() -> Substitution:
    """The injective but non-primitive redistribution on the m=2 alphabet."""
    return Substitution(enumerate_by_scan(2).alphabet(), _ZETA5_IMAGES)


def initials_map(s: Substitution) -> tuple[int, ...]:
    """letter -> first letter of its image (0-based)."""
    return tuple(img[0] for img in s.images)


def _first_hits(chain: Sequence[int], targets: set[int], cap: int) -> list[int]:
    """For every letter x, the least n in 1..cap with chain^n(x) in
    ``targets``, or -1 when there is none.

    One pass over the functional graph: each letter is resolved once, from
    the letter after it. A walk that comes back to itself has closed a cycle
    without meeting a target, so its letters never hit one.
    """
    hit = [0] * len(chain)  # 0: unresolved, -1: never, n > 0: first-hit step
    for start in range(len(chain)):
        path = []
        on_path = set()
        x = start
        while hit[x] == 0 and x not in on_path:
            nxt = chain[x]
            if nxt in targets:
                hit[x] = 1
                break
            path.append(x)
            on_path.add(x)
            x = nxt
        # x is resolved now, or lies on a target-free cycle through the path
        n = hit[x] if hit[x] else -1
        for y in reversed(path):
            n = n + 1 if n > 0 else -1
            hit[y] = n
    return [n if n <= cap else -1 for n in hit]


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


def verify_pair_images(sys: EtaSystem) -> VerificationReport:
    """The refinement and the block substitution agree on every image pair."""
    sub = sys.nblock.block_sub
    eta = sys.eta
    bad = [j + 1 for j, pair in enumerate(sub.images)
           if eta.apply(pair) != sub.apply(pair)]
    rb = ReportBuilder(sys.m, "pairs")
    rb.check("images", not bad,
             f"all {sys.size} pairs agree" if not bad else f"mismatch at j={bad[:5]}")
    return rb.build()


def verify_fixed_point(sys: EtaSystem, n_max: int = 12) -> VerificationReport:
    """Orbit equality from the f0 letter, and common-fixed-point agreement
    from the f1 letter.

    From f1 the refinement grows strictly faster (3·2^(n-1) letters vs 2^n),
    so the checkable facts are that each block iterate is a prefix of the
    refined iterate and the refined iterate is a prefix of the next block
    iterate: both sequences expand the same one-sided fixed point.
    """
    theta_n = sys.nblock.block_sub
    eta = sys.eta
    rb = ReportBuilder(sys.m, "fixedpoint")

    e: Word = (sys.f0_index,)
    t: Word = (sys.f0_index,)
    ok = True
    for n in range(1, n_max + 1):
        e = eta.apply(e)
        t = theta_n.apply(t)
        if e != t or len(e) != 2 ** n:
            ok = False
            break
    rb.check("f0_orbit", ok, f"orbits equal with length 2^n for n <= {n_max}")

    e1: Word = (sys.f1_index,)
    t1: Word = (sys.f1_index,)
    t_next = theta_n.apply(t1)
    ok = True
    for n in range(1, n_max + 1):
        e1 = eta.apply(e1)
        t1, t_next = t_next, theta_n.apply(t_next)
        if e1[:len(t1)] != t1 or t_next[:len(e1)] != e1:
            ok = False
            break
    rb.check("f1_common_fixed_point", ok,
             "the f1 iterates of both substitutions are nested prefixes "
             "of one fixed point")
    return rb.build()


def verify_primitivity_argument(sys: EtaSystem, primitive: bool) -> VerificationReport:
    """The first-letter reachability argument, checked independently of the
    generic graph test of primitivity, plus that test's verdict ``primitive``
    on the refinement's incidence matrix and direct forward reachability from
    the two fixed-point letters."""
    k = sys.size
    m = sys.m
    f0, f1 = sys.f0_index, sys.f1_index
    phi = initials_map(sys.nblock.block_sub)
    psi = initials_map(sys.eta)
    rb = ReportBuilder(m, "primitivity")

    targets = {f0, f1}
    steps = _first_hits(phi, targets, k // 2)
    landed = _map_power(phi, k // 2)
    bad = [i + 1 for i in range(k)
           if steps[i] < 0 or landed[i] != (f0 if i < k // 2 else f1)]
    rb.check("phi_reaches", not bad,
             f"every letter hits its fixed letter within {k // 2} steps"
             if not bad else f"failures at w_{bad[:5]}")

    bad = [i + 1 for i, n in enumerate(_first_hits(psi, targets, k)) if n < 0]
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

    cap = 64 * k
    missing = []
    for seed in (f0, f1):
        seen = {seed}
        w: Word = (seed,)
        while len(seen) < k and len(w) < cap:
            w = sys.eta.apply(w)
            seen.update(w)
        if len(seen) < k:
            missing.append(seed)
    rb.check("forward", not missing,
             "every letter occurs in iterates of both fixed-point letters")
    return rb.build()


def theorem_report(sub: Substitution, matrix: IncidenceMatrix, primitive: bool,
                   reference_sys: EtaSystem, tol: float = 1e-9, n_max: int = 12,
                   claim_prefix: str = "theorem") -> VerificationReport:
    """The headline claims for one substitution sharing the reference block
    system's alphabet and f0 letter, given its incidence matrix and that
    matrix's primitivity verdict: injectivity, primitivity, dominant
    eigenvalue 2 (with the exact doubling identity both from the matrix and
    by direct iteration), and fixed-point agreement."""
    rb = ReportBuilder(reference_sys.m, claim_prefix)
    rb.check("injective", sub.is_injective())
    rb.check("primitive", primitive)

    try:
        # an exact bracket at most tol wide; on eta every letter occurs
        # twice among the images, so the row sums give exactly [2, 2]
        lo, hi = pf_bracket(matrix, tol)
        rb.check("pf_eigenvalue", lo <= 2 <= hi, f"PF in [{lo}, {hi}]")
    except ArithmeticError as exc:
        rb.check("pf_eigenvalue", False, str(exc))

    f0 = reference_sys.f0_index
    powers = [2 ** n for n in range(1, n_max + 1)]
    rb.check("lengths_matrix", matrix.image_length_sequence(f0, n_max) == powers,
             f"1^T M^n at the f0 column doubles up to n={n_max}")

    w: Word = (f0,)
    direct = []
    for _ in range(n_max):
        w = sub.apply(w)
        direct.append(len(w))
    rb.check("lengths_direct", direct == powers,
             f"iterate lengths double up to n={n_max}")

    probe = EtaSystem(reference_sys.m, reference_sys.nblock, sub)
    rb.check("fixed_point", verify_fixed_point(probe, n_max).ok,
             "orbit agreement with the block substitution")
    return rb.build()

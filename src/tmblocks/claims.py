"""The claims ``verify`` checks at each m, and the per-m level they run on.

``CLAIMS`` is the one table of claims. Its order is the output order, and
each entry says whether the claim compares level m with level m + 1 and how
it runs against a ``Level``. A ``Level`` builds each input on first use and
at most once. Nothing is cached across levels except the factor set of level
m + 1, which ``levels`` hands on to the next m, so each level is scanned once.
Every check is exact and has no setting: ``fixedpoint`` holds for every n by
induction from the ``pairs`` report, which a ``Level`` builds once. θ_N is
the closed form, and the ``nblock`` report checks it window by window; it
is the premise of ``pairs`` and ``primitivity``, and through them of
``fixedpoint`` and ``theorem``, so no claim passes on an unchecked θ_N,
even when ``nblock`` is not selected.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from functools import cached_property
from typing import NamedTuple

from .injectivize import (build_eta, theorem_report, verify_fixed_point, verify_pair_images,
                          verify_primitivity_argument)
from .nblock import thue_morse_block_system, verify_block_formula
from .report import VerificationReport
from .substitution import Substitution
from .thue_morse import (FactorSet, enumerate_by_scan, verify_prefix_pairs,
                         verify_quarter_descendants, verify_quarter_minima)


class Level:
    """The inputs of the claims at one m: the factor sets of levels m and
    m + 1, the block substitution θ_N on the first and its window check, the
    refinement η, η's primitivity verdict, and its pair-image and
    fixed-point reports."""

    def __init__(self, m: int) -> None:
        self.m = m

    @cached_property
    def factors(self) -> FactorSet:
        return enumerate_by_scan(self.m)

    @cached_property
    def factors_next(self) -> FactorSet:
        return enumerate_by_scan(self.m + 1)

    @cached_property
    def nblock(self) -> Substitution:
        return thue_morse_block_system(self.factors)

    @cached_property
    def nblock_report(self) -> VerificationReport:
        return verify_block_formula(self.factors, self.nblock)

    @cached_property
    def eta(self) -> Substitution:
        return build_eta(self.m, self.nblock)

    @cached_property
    def eta_primitive(self) -> bool:
        return self.eta.is_primitive()

    @cached_property
    def pairs(self) -> VerificationReport:
        report = verify_pair_images(self.m, self.nblock, self.eta)
        return report.given("nblock", self.nblock_report)

    @cached_property
    def fixed_point(self) -> VerificationReport:
        return verify_fixed_point(self.m, self.nblock, self.eta, self.pairs)


def eta_system(m: int) -> Level:
    """The Level of m; its ``eta`` and ``nblock`` are built from scratch on
    first use."""
    return Level(m)


def levels(lo: int, hi: int) -> Iterator[Level]:
    """One Level per m in lo..hi. The level-(m+1) factor set, if level m
    built it, becomes the level factor set of m + 1."""
    carried = None
    for m in range(lo, hi + 1):
        level = Level(m)
        if carried is not None:
            level.factors = carried
        yield level
        # a cached_property keeps what it built in the instance dict
        carried = vars(level).get("factors_next")


class Claim(NamedTuple):
    needs_next_level: bool  # reads the factor set of level m + 1
    run: Callable[[Level], VerificationReport]


CLAIMS = {
    "qandf": Claim(False, lambda lv: verify_quarter_minima(lv.factors)),
    "quarters": Claim(True, lambda lv: verify_quarter_descendants(lv.factors, lv.factors_next)),
    "firsthalf": Claim(True, lambda lv: verify_prefix_pairs(lv.factors, lv.factors_next)),
    "nblock": Claim(False, lambda lv: lv.nblock_report),
    "pairs": Claim(False, lambda lv: lv.pairs),
    "fixedpoint": Claim(False, lambda lv: lv.fixed_point),
    "primitivity": Claim(False, lambda lv: verify_primitivity_argument(
        lv.m, lv.nblock, lv.eta, lv.eta_primitive).given("nblock", lv.nblock_report)),
    "theorem": Claim(False, lambda lv: theorem_report(
        lv.m, lv.eta, lv.eta_primitive, lv.fixed_point)),
}

"""The claims ``verify`` checks at each m, and the per-m level they run on.

``CLAIMS`` is the one table of claims. Its order is the output order, and
each entry says whether the claim compares level m with level m + 1 and how
it runs against a ``Level``. A ``Level`` builds each input on first use and
at most once. Nothing is cached across levels except the factor set of level
m + 1, which ``levels`` hands on to the next m, so each level is scanned once.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from functools import cached_property
from typing import NamedTuple

from .injectivize import (EtaSystem, build_eta, theorem_report, verify_fixed_point,
                          verify_pair_images, verify_primitivity_argument)
from .nblock import NBlockSystem, thue_morse_block_system, verify_block_formula
from .report import VerificationReport
from .substitution import IncidenceMatrix
from .thue_morse import (FactorSet, enumerate_by_scan, verify_prefix_pairs,
                         verify_quarter_descendants, verify_quarter_minima)


class Level:
    """The inputs of the claims at one m: the factor sets of levels m and
    m + 1, the block system, the refinement η, and η's incidence matrix and
    its primitivity verdict; plus the tolerance and iteration depth."""

    def __init__(self, m: int, tol: float, depth: int) -> None:
        self.m = m
        self.tol = tol
        self.depth = depth

    @cached_property
    def factors(self) -> FactorSet:
        return enumerate_by_scan(self.m)

    @cached_property
    def factors_next(self) -> FactorSet:
        return enumerate_by_scan(self.m + 1)

    @cached_property
    def nblock(self) -> NBlockSystem:
        return thue_morse_block_system(self.m)

    @cached_property
    def eta(self) -> EtaSystem:
        return build_eta(self.m, self.nblock)

    @cached_property
    def eta_matrix(self) -> IncidenceMatrix:
        return self.eta.eta.incidence_matrix()

    @cached_property
    def eta_primitive(self) -> bool:
        return self.eta_matrix.is_primitive()


def levels(lo: int, hi: int, tol: float, depth: int) -> Iterator[Level]:
    """One Level per m in lo..hi. The level-(m+1) factor set, if level m
    built it, becomes the level factor set of m + 1."""
    carried = None
    for m in range(lo, hi + 1):
        level = Level(m, tol, depth)
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
    "nblock": Claim(False, lambda lv: verify_block_formula(lv.factors, lv.nblock)),
    "pairs": Claim(False, lambda lv: verify_pair_images(lv.eta)),
    "fixedpoint": Claim(False, lambda lv: verify_fixed_point(lv.eta, lv.depth)),
    "primitivity": Claim(False, lambda lv: verify_primitivity_argument(lv.eta, lv.eta_primitive)),
    "theorem": Claim(False, lambda lv: theorem_report(
        lv.eta.eta, lv.eta_matrix, lv.eta_primitive, lv.eta, lv.tol, lv.depth)),
}

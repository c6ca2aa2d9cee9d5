"""The claims ``verify`` checks at each m, and the per-m level they run on.

``CLAIMS`` is the one table of claims. Its order is the output order, and
each entry says whether the claim reads level m + 1, which claims are its
premises (firsthalf <- quarters, pairs <- nblock, fixedpoint <- pairs,
primitivity <- nblock) and how it checks a ``Level``. ``Level.report`` runs
a claim at most once per level, its premises first, which ``verify`` does
not print unless they are selected. If a premise failed, each entry of the
claim FAILs with ``premise … failed``, so no claim passes on a level m + 1
out of order or on a θ_N that failed its window check: ``fixedpoint``
fails through ``pairs``. ``theorem`` reads the ``fixedpoint`` report as an
entry, not as a premise. Nothing is cached across levels except the factor
set of level m + 1, which ``levels`` hands on to the next m once
``quarters`` has passed on it.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from functools import cached_property
from typing import NamedTuple

from .injectivize import (build_eta, theorem_report, verify_fixed_point, verify_pair_images,
                          verify_primitivity_argument)
from .nblock import thue_morse_block_system, verify_block_formula
from .report import CheckEntry, VerificationReport
from .substitution import Substitution
from .thue_morse import (FactorSet, LevelFailed, enumerate_by_scan, grow, verify_prefix_pairs,
                         verify_quarter_descendants, verify_quarter_minima)


class Level:
    """The inputs of the claims at one m: the factor sets of levels m and
    m + 1, the block substitution θ_N on the first, the refinement η and
    its primitivity verdict, which ``primitivity`` and ``theorem`` both
    read; and, in ``reports``, the report of each claim run so far."""

    def __init__(self, m: int) -> None:
        self.m = m
        self.reports: dict[str, VerificationReport] = {}
        self.failed: LevelFailed | None = None  # why level m could not be built

    @cached_property
    def factors(self) -> FactorSet:
        """Level m, built at most once: a ``cached_property`` keeps no
        exception, so a failed build is kept in ``failed`` and raised again
        by every later read."""
        if self.failed is None:
            try:
                return enumerate_by_scan(self.m)
            except LevelFailed as exc:
                self.failed = exc
        raise self.failed

    @cached_property
    def factors_next(self) -> FactorSet:
        return grow(self.factors)

    @cached_property
    def nblock(self) -> Substitution:
        return thue_morse_block_system(self.factors)

    @cached_property
    def eta(self) -> Substitution:
        return build_eta(self.m, self.nblock)

    @cached_property
    def eta_primitive(self) -> bool:
        return self.eta.is_primitive()

    def report(self, name: str) -> VerificationReport:
        """The report of the claim ``name`` on this level, run at most once,
        after its premises; each entry FAILs if a premise failed, and one
        entry, ``factors``, if the level failed its check while it was built."""
        if name not in self.reports:
            claim = CLAIMS[name]
            premises = {premise: self.report(premise) for premise in claim.premises}
            try:
                self.reports[name] = claim.check(self).given(premises)
            except LevelFailed as exc:  # level m, or one below it, failed its check
                self.reports[name] = VerificationReport(
                    (CheckEntry(self.m, f"{name}.factors", False, str(exc)),))
        return self.reports[name]


def eta_system(m: int) -> Level:
    """The Level of m; its ``eta`` and ``nblock`` are built from scratch on
    first use."""
    return Level(m)


def levels(lo: int, hi: int) -> Iterator[Level]:
    """One Level per m in lo..hi. The level-(m+1) factor set, if level m
    built it and it passed its order pass, becomes the factor set of m + 1."""
    carried = None
    for m in range(lo, hi + 1):
        level = Level(m)
        if carried is not None:
            level.factors = carried
        yield level
        quarters = level.reports.get("quarters")
        carried = level.factors_next if quarters is not None and quarters.ok else None


class Claim(NamedTuple):
    needs_next_level: bool  # reads the factor set of level m + 1
    premises: tuple[str, ...]  # claims, listed before it, whose failure fails it
    check: Callable[[Level], VerificationReport]  # the claim alone, without its premises


CLAIMS = {
    "qandf": Claim(False, (), lambda lv: verify_quarter_minima(lv.factors, lv.m)),
    "quarters": Claim(True, (), lambda lv: verify_quarter_descendants(lv.factors_next)),
    "firsthalf": Claim(True, ("quarters",),
                       lambda lv: verify_prefix_pairs(lv.factors, lv.factors_next)),
    "nblock": Claim(False, (), lambda lv: verify_block_formula(lv.factors, lv.nblock)),
    "pairs": Claim(False, ("nblock",), lambda lv: verify_pair_images(lv.m, lv.nblock, lv.eta)),
    "fixedpoint": Claim(False, ("pairs",),
                        lambda lv: verify_fixed_point(lv.m, lv.nblock, lv.eta)),
    "primitivity": Claim(False, ("nblock",), lambda lv: verify_primitivity_argument(
        lv.m, lv.nblock, lv.eta, lv.eta_primitive)),
    "theorem": Claim(False, (), lambda lv: theorem_report(
        lv.m, lv.eta, lv.eta_primitive, lv.report("fixedpoint"))),
}

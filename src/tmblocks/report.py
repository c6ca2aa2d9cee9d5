"""Structured pass/fail records produced by the claim verifiers."""

from __future__ import annotations

from collections.abc import Iterable
from itertools import compress, count, islice
from operator import not_
from typing import NamedTuple


class CheckEntry(NamedTuple):
    m: int
    claim: str
    passed: bool
    detail: str = ""


class VerificationReport(NamedTuple):
    """An ordered list of check entries; overall success = no FAIL entry."""

    entries: tuple[CheckEntry, ...] = ()

    @property
    def ok(self) -> bool:
        return all(e.passed for e in self.entries)

    def given(self, premises: dict[str, VerificationReport]) -> VerificationReport:
        """This report if each report of ``premises``, by claim name, passed;
        otherwise every entry FAILs, naming the first premise that failed."""
        name = next((name for name, premise in premises.items() if not premise.ok), None)
        if name is None:
            return self
        return VerificationReport(tuple(e._replace(passed=False, detail=f"premise {name} failed")
                                        for e in self.entries))


class ReportBuilder:
    """Collects entries for one verifier run."""

    def __init__(self, m: int, prefix: str = ""):
        self.m = m
        self.prefix = prefix
        self._entries: list[CheckEntry] = []

    def check(self, name: str, passed: bool, detail: str = "") -> bool:
        claim = f"{self.prefix}.{name}" if self.prefix else name
        self._entries.append(CheckEntry(self.m, claim, bool(passed), detail))
        return bool(passed)

    def build(self) -> VerificationReport:
        return VerificationReport(tuple(self._entries))


def first_failures(passed: Iterable[bool], limit: int = 5) -> list[int]:
    """The 1-based positions of the first ``limit`` false values of
    ``passed``, read only as far as the last of them."""
    return list(islice(compress(count(1), map(not_, passed)), limit))

"""Structured pass/fail records produced by the claim verifiers."""

from __future__ import annotations

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

    def given(self, name: str, premise: VerificationReport) -> VerificationReport:
        """This report if the report ``premise`` of the claim ``name``
        passed; otherwise every entry FAILs, naming the premise."""
        if premise.ok:
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

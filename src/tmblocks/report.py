"""Structured pass/fail records produced by the claim verifiers."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CheckEntry:
    m: int
    claim: str
    passed: bool
    detail: str = ""

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"


@dataclass(frozen=True)
class VerificationReport:
    """An ordered list of check entries; overall success = no FAIL entry."""

    entries: tuple[CheckEntry, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return all(e.passed for e in self.entries)

    @property
    def failed_count(self) -> int:
        return sum(1 for e in self.entries if not e.passed)

    def __add__(self, other: "VerificationReport") -> "VerificationReport":
        return VerificationReport(self.entries + other.entries)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def entry(self, claim: str) -> CheckEntry:
        for e in self.entries:
            if e.claim == claim:
                return e
        raise KeyError(claim)

    def lines(self) -> list[str]:
        out = []
        for e in self.entries:
            suffix = f"  ({e.detail})" if e.detail else ""
            out.append(f"{e.status} m={e.m} {e.claim}{suffix}")
        return out


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

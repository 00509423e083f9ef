"""Check records and verification reports.

Every audited inequality or factorization becomes one :class:`Check`
carrying the measured signed slack (lhs - rhs), so regressions show up
quantitatively instead of as bare booleans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


class Check(NamedTuple):
    """One verified relation.

    kind "le" asserts lhs <= rhs + tol; kind "eq" asserts
    |lhs - rhs| <= tol.  slack is always lhs - rhs.  The fields, in
    order, are the keys of a JSON row (``to_dict``).
    """

    name: str
    kind: str
    lhs: float
    rhs: float
    tol: float
    slack: float
    passed: bool

    @classmethod
    def le(cls, name: str, lhs: float, rhs: float, tol: float) -> "Check":
        slack = lhs - rhs
        return cls(name, "le", float(lhs), float(rhs), float(tol),
                   float(slack), slack <= tol)

    @classmethod
    def eq(cls, name: str, lhs: float, rhs: float, tol: float) -> "Check":
        slack = lhs - rhs
        return cls(name, "eq", float(lhs), float(rhs), float(tol),
                   float(slack), abs(slack) <= tol)

    @property
    def violation(self) -> float:
        """How badly the relation is broken; <= 0 means it holds."""
        if self.kind == "eq":
            return abs(self.slack) - self.tol
        return self.slack - self.tol

    def to_dict(self) -> dict:
        return {"name": self.name, "kind": self.kind, "lhs": self.lhs,
                "rhs": self.rhs, "tol": self.tol, "slack": self.slack,
                "passed": self.passed}

    @classmethod
    def from_dict(cls, d: dict) -> "Check":
        return cls(str(d["name"]), str(d["kind"]), float(d["lhs"]),
                   float(d["rhs"]), float(d["tol"]), float(d["slack"]),
                   bool(d["passed"]))


@dataclass(frozen=True)
class VerificationReport:
    """Ordered, deterministic collection of checks."""

    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def n_checks(self) -> int:
        return len(self.checks)

    def failures(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def worst(self) -> Check | None:
        """The check closest to (or furthest past) its tolerance."""
        if not self.checks:
            return None
        return max(self.checks, key=lambda c: c.violation)

    def to_dict(self) -> dict:
        worst = self.worst()
        return {
            "passed": self.passed,
            "total": self.n_checks,
            "failed": len(self.failures()),
            "worst": worst.name if worst is not None else None,
            "checks": [c.to_dict() for c in self.checks],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "VerificationReport":
        return cls(tuple(Check.from_dict(c) for c in d["checks"]))

"""Check records and verification reports.

Every audited inequality or factorization is one check carrying the
measured signed slack (lhs - rhs), so regressions show up quantitatively
instead of as bare booleans.  The audits emit their checks as
:class:`CheckBlock` columns, one block per batch of checks that share a
kind, a tolerance and a name pattern: lhs, rhs, slack and passed are
float64 and bool arrays, and the names are a %-format over integer
index columns.  A :class:`VerificationReport` is an ordered run of
blocks; its summary (passed, counts, the worst check) is array
reductions, and a :class:`Check` record per row is built only when
``checks``, ``failures`` or ``to_dict`` asks for one.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np


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


_NO_INDEX = np.empty((1, 0), dtype=np.int64)
_NO_INDEX.flags.writeable = False


@dataclass(frozen=True, eq=False)
class CheckBlock:
    """Checks of one kind and tolerance, as columns.

    Row i is the check named ``fmt % tuple(index[i])`` with values
    lhs[i], rhs[i], slack[i] and passed[i].  ``index`` is a (rows,
    columns) integer array; a one-row block with no columns has the
    fixed name ``fmt % ()``.  ``le`` and ``eq`` compute slack and passed
    with the same IEEE operations as ``Check.le`` and ``Check.eq``.
    """

    fmt: str
    index: np.ndarray
    kind: str
    lhs: np.ndarray
    rhs: np.ndarray
    tol: float
    slack: np.ndarray
    passed: np.ndarray

    def __post_init__(self) -> None:
        for column in (self.index, self.lhs, self.rhs, self.slack, self.passed):
            column.flags.writeable = False

    @classmethod
    def le(cls, fmt: str, lhs, rhs, tol: float,
           index: np.ndarray = _NO_INDEX) -> "CheckBlock":
        return cls._measure(fmt, index, "le", lhs, rhs, tol)

    @classmethod
    def eq(cls, fmt: str, lhs, rhs, tol: float,
           index: np.ndarray = _NO_INDEX) -> "CheckBlock":
        return cls._measure(fmt, index, "eq", lhs, rhs, tol)

    @classmethod
    def _measure(cls, fmt: str, index: np.ndarray, kind: str, lhs, rhs,
                 tol: float) -> "CheckBlock":
        lhs, rhs = _column(lhs), _column(rhs)
        slack = lhs - rhs
        passed = (np.abs(slack) if kind == "eq" else slack) <= tol
        return cls(fmt, index, kind, lhs, rhs, float(tol), slack, passed)

    @classmethod
    def of(cls, check: Check) -> "CheckBlock":
        """The one-row block of a check record, its values as given."""
        return cls(check.name.replace("%", "%%"), _NO_INDEX, check.kind,
                   _column(check.lhs), _column(check.rhs), check.tol,
                   _column(check.slack), np.array([check.passed], dtype=bool))

    @property
    def violation(self) -> np.ndarray:
        """``Check.violation`` of every row."""
        return (np.abs(self.slack) if self.kind == "eq" else self.slack) - self.tol

    def checks(self, rows: slice | np.ndarray = slice(None)) -> Iterator[Check]:
        """The check records of the selected rows, in row order."""
        names = map(self.fmt.__mod__, map(tuple, self.index[rows].tolist()))
        return map(Check, names, itertools.repeat(self.kind),
                   self.lhs[rows].tolist(), self.rhs[rows].tolist(),
                   itertools.repeat(self.tol), self.slack[rows].tolist(),
                   self.passed[rows].tolist())


def _column(values) -> np.ndarray:
    return np.array(values, dtype=np.float64, ndmin=1, copy=None)


class VerificationReport:
    """Ordered, deterministic collection of checks.

    Built from check records (``VerificationReport(checks)``) or from
    blocks (``from_blocks``); either form is derived from the other on
    first use.  Reports are equal when their checks are.
    """

    def __init__(self, checks: Iterable[Check]) -> None:
        self.__dict__["checks"] = tuple(checks)

    @classmethod
    def from_blocks(cls, blocks: Iterable[CheckBlock]) -> "VerificationReport":
        report = cls.__new__(cls)
        report.__dict__["blocks"] = tuple(blocks)
        return report

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    @functools.cached_property
    def checks(self) -> tuple[Check, ...]:
        return tuple(itertools.chain.from_iterable(
            block.checks() for block in self.blocks))

    @functools.cached_property
    def blocks(self) -> tuple[CheckBlock, ...]:
        return tuple(map(CheckBlock.of, self.checks))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VerificationReport):
            return NotImplemented
        return self.checks == other.checks

    def __repr__(self) -> str:
        return f"VerificationReport(checks={self.checks!r})"

    @property
    def passed(self) -> bool:
        return all(block.passed.all() for block in self.blocks)

    @property
    def n_checks(self) -> int:
        return sum(len(block.passed) for block in self.blocks)

    def failures(self) -> tuple[Check, ...]:
        return tuple(itertools.chain.from_iterable(
            block.checks(np.flatnonzero(~block.passed)) for block in self.blocks))

    def worst(self) -> Check | None:
        """The check closest to (or furthest past) its tolerance: the
        first of largest violation, as ``max`` over ``checks`` picks it
        (a NaN never replaces the running maximum, and a NaN first check
        is never replaced)."""
        if not self.n_checks:
            return None
        violation = np.concatenate([block.violation for block in self.blocks])
        nan = np.isnan(violation)
        row = 0 if nan[0] else int(np.argmax(np.where(nan, -np.inf, violation)))
        for block in self.blocks:
            if row < len(block.passed):
                return next(block.checks(slice(row, row + 1)))
            row -= len(block.passed)

    def totals(self) -> dict:
        """The keys of ``to_dict`` before its check rows."""
        worst = self.worst()
        failed = sum(int(np.count_nonzero(~block.passed)) for block in self.blocks)
        return {"passed": self.passed, "total": self.n_checks, "failed": failed,
                "worst": worst.name if worst is not None else None}

    def to_dict(self) -> dict:
        return {**self.totals(), "checks": [c.to_dict() for c in self.checks]}

    @classmethod
    def from_dict(cls, d: dict) -> "VerificationReport":
        return cls(tuple(Check.from_dict(c) for c in d["checks"]))

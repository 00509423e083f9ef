"""Closed-form union lower bounds, the windowed rate form, and reports.

For an m-dependent family with total event mass S over N events and
local pair mass T (pairs at gap <= m-1):

* first-order bound:   P(union) >= 1 - exp(-S / (m+1)),
* second-order bound:  P(union) >= 1 - exp(-(S - T) / 2)   (m >= 1),

and the second-order bound is strictly sharper exactly when
T < S * (m-1)/(m+1).  For m = 1 the two exponents coincide (T = 0).
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

from .errors import BoundViolationError
from .families import Family, partial_sum, t_local, total_mass
from .oracle import union_prob

#: Exponent differences inside this band count as ties; the sharpness
#: verdict reports ties as False (the comparison is strict).
TIE_TOL = 1e-12

#: Slack allowed when comparing exact probabilities against bounds.
SLACK_TOL = 1e-9


def first_order_bound(s_n: float, m: int) -> float:
    """1 - exp(-s_n / (m+1)); m = 0 gives the classical independent bound."""
    m = operator.index(m)
    if m < 0:
        raise ValueError("m must be nonnegative")
    if not s_n >= 0:
        raise ValueError(f"total event mass must be nonnegative (got {s_n!r})")
    return -math.expm1(-s_n / (m + 1))


def second_order_bound(s_n: float, t: float, m: int) -> tuple[float, float]:
    """(exponent, bound) with exponent (s_n - t)/2 and bound
    1 - exp(-exponent), clamped to 0 when the exponent is negative.

    A negative exponent happens for heavily overlapping families; the
    clamped bound 0 is vacuous but still true.  Rejects m = 0: the block
    construction behind this bound needs m >= 1.
    """
    m = operator.index(m)
    if m < 1:
        raise ValueError("the second-order bound requires m >= 1")
    if not s_n >= 0:
        raise ValueError(f"total event mass must be nonnegative (got {s_n!r})")
    if not t >= 0:
        raise ValueError(f"local pair mass must be nonnegative (got {t!r})")
    exponent = (s_n - t) / 2.0
    bound = -math.expm1(-exponent) if exponent > 0 else 0.0
    return exponent, bound


def second_order_sharper(s_n: float, t: float, m: int) -> bool:
    """True when the second-order exponent strictly beats the first-order
    one, i.e. t < s_n * (m-1)/(m+1); ties within TIE_TOL report False."""
    m = operator.index(m)
    if m < 1:
        raise ValueError("the sharpness comparison requires m >= 1")
    diff = (s_n - t) / 2.0 - s_n / (m + 1)
    return diff > TIE_TOL


@dataclass(frozen=True)
class ThresholdFunction:
    """Minimal nondecreasing map n -> index with prefix mass >= n.

    Defined for 1 <= n <= max_n = floor(total_mass) and empty when the
    family's total event mass is below 1.  Each call searches the
    family's prefix masses, so no threshold is stored.
    """

    family: Family
    total_mass: float

    @property
    def max_n(self) -> int:
        return math.floor(self.total_mass)

    @property
    def is_empty(self) -> bool:
        return self.max_n < 1

    def defined(self, n: int) -> bool:
        return 1 <= n <= self.max_n

    def __call__(self, n: int) -> int:
        n = operator.index(n)
        if not self.defined(n):
            raise ValueError(
                f"threshold undefined at n={n}: needs prefix event mass >= {n} "
                f"but the family's total event mass is {self.total_mass:.12g} "
                f"(deficit {n - self.total_mass:.12g})")
        return bisect.bisect_left(range(self.family.n_events + 1), n,
                                  key=self.family.prefix_mass)


def build_threshold(family: Family) -> ThresholdFunction:
    """Minimal threshold function of a family's prefix event masses.

    threshold(n) is the least t with P(A_1)+..+P(A_t) >= n; minimality
    makes it nondecreasing and gives the tightest windows.  Defined for
    every integer n up to the total event mass; explicitly empty when
    that mass is below 1.  A call bisects ``prefix_mass`` over 0..N,
    which :func:`partial_sum` reads, so partial_sum(threshold(n)) >= n
    and partial_sum(threshold(n) - 1) < n hold exactly; it takes
    O(log N) queries and builds no array of N entries.
    """
    return ThresholdFunction(family, total_mass(family))


@dataclass(frozen=True)
class WindowedBound:
    """Result of the windowed rate bound over events first..last."""

    first: int
    last: int
    window_n: int
    bound: float
    mass: float


def windowed_bound(family: Family, threshold: ThresholdFunction,
                   i: int, window_n: int) -> WindowedBound:
    """Union lower bound 1 - exp(-window_n / (m+1)) over the index window
    {i+1, .., threshold(i + window_n)}.

    Requires threshold(i + window_n) to be defined; raises ValueError
    naming the mass deficit otherwise.  Also verifies the window really
    carries event mass >= window_n (each P(A_k) <= 1 guarantees it), and
    raises BoundViolationError if that fails.
    """
    i = operator.index(i)
    window_n = operator.index(window_n)
    if i < 0:
        raise ValueError("i must be nonnegative")
    if window_n < 1:
        raise ValueError("window_n must be >= 1")
    last = threshold(i + window_n)
    first = i + 1
    mass = partial_sum(family, last) - partial_sum(family, i)
    if mass < window_n - SLACK_TOL:
        raise BoundViolationError(
            f"window {first}..{last} carries mass {mass:.12g} < {window_n}; "
            f"this cannot happen when every event probability is <= 1")
    bound = first_order_bound(float(window_n), family.m)
    return WindowedBound(first, last, window_n, bound, mass)


class MonteCarloRecord(NamedTuple):
    """Monte Carlo union estimate attached to a report."""

    estimate: float
    ci_low: float
    ci_high: float
    trials: int
    seed: int


@dataclass(frozen=True)
class BoundReport:
    """Bound summary for one family.  Field names follow the JSON report
    schema; the thm2 trio and t_local are None when m = 0 (the
    second-order machinery needs m >= 1)."""

    n: int
    m: int
    s_n: float
    t_local: float | None
    thm1_exponent: float
    thm1_bound: float
    thm2_exponent: float | None
    thm2_bound: float | None
    thm2_sharper: bool | None
    exact_union: float | None = None
    mc_union: MonteCarloRecord | None = None

    def validate(self) -> None:
        """When the exact union is present, check that it dominates both
        bounds.  Each bound and its exponent come from one expression in
        ``build_report``, so they are not re-checked against each other."""
        if self.exact_union is not None:
            if self.exact_union < self.thm1_bound - SLACK_TOL:
                raise BoundViolationError(
                    f"exact union {self.exact_union:.12g} below the first-order "
                    f"bound {self.thm1_bound:.12g}; the claimed dependence "
                    f"range m={self.m} is probably wrong (try the dependence "
                    f"checker)")
            if self.thm2_bound is not None and \
                    self.exact_union < self.thm2_bound - SLACK_TOL:
                raise BoundViolationError(
                    f"exact union {self.exact_union:.12g} below the "
                    f"second-order bound {self.thm2_bound:.12g}; the claimed "
                    f"dependence range m={self.m} is probably wrong")

    def to_dict(self) -> dict:
        out: dict = {"n": self.n, "m": self.m, "s_n": self.s_n,
                     "thm1_exponent": self.thm1_exponent,
                     "thm1_bound": self.thm1_bound}
        if self.m >= 1:
            out["t_local"] = self.t_local
            out["thm2_exponent"] = self.thm2_exponent
            out["thm2_bound"] = self.thm2_bound
            out["thm2_sharper"] = self.thm2_sharper
        if self.exact_union is not None:
            out["exact_union"] = self.exact_union
        if self.mc_union is not None:
            out["mc_union"] = dict(self.mc_union._asdict())
        return out


def build_report(family: Family, *, exact: bool = False,
                 mc: tuple[int, int] | None = None) -> BoundReport:
    """Compute every bound for a family; optionally attach the exact union
    probability and/or a Monte Carlo estimate (mc = (trials, seed),
    window models only).

    Raises BoundViolationError when the exact union falls below a bound,
    which for a correctly declared m cannot happen.
    """
    n, m = family.n_events, family.m
    s_n = partial_sum(family, n)
    e1 = s_n / (m + 1)
    b1 = first_order_bound(s_n, m)
    if m >= 1:
        t = t_local(family)
        e2, b2 = second_order_bound(s_n, t, m)
        sharper = second_order_sharper(s_n, t, m)
    else:
        t = e2 = b2 = sharper = None
    if mc is not None:  # the estimate's refusals before the exact union's
        from .montecarlo import _require_mc_scale, estimate_union

        _require_mc_scale(family, 1, n, mc[0])
    exact_union = union_prob(family, 1, n) if exact else None
    mc_record = None
    if mc is not None:
        trials, seed = mc
        est = estimate_union(family, 1, n, trials, seed)
        mc_record = MonteCarloRecord(est.estimate, est.ci_low, est.ci_high,
                                     int(trials), int(seed))
    report = BoundReport(n=n, m=m, s_n=s_n, t_local=t,
                         thm1_exponent=e1, thm1_bound=b1,
                         thm2_exponent=e2, thm2_bound=b2,
                         thm2_sharper=sharper,
                         exact_union=exact_union, mc_union=mc_record)
    report.validate()
    return report

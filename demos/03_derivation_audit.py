#!/usr/bin/env python3
"""Auditing the derivation behind the bounds, step by step.

verify_derivation measures every link in the chain that proves the two
union lower bounds and that a false m can break: residue classes mod
(m+1) really contain mutually independent events, shifted block events
are 1-dependent, and the exact complement sits below the parity
products and the exponential of half the block mass.  The other links
hold for any events and any m, so the audit has no row for them: the
product-to-exponential step 1 - x <= e^-x, the second-order Bonferroni
bound inside each block, the parity average, and the counting lemma
that a local pair at gap d lands in a common block for exactly m-d
shifts (tests pin pair_shift_count instead).

A family whose claimed m is wrong fails loudly, with the offending check
named and its violation measured.
"""

from mdepbounds import (
    ExplicitEventFamily,
    check_m_dependence,
    consecutive_run_model,
    verify_derivation,
)

model = consecutive_run_model(12)
report = verify_derivation(model)
print(f"== run model, N=12, m=2: {report.n_checks} checks, "
      f"passed={report.passed} ==")

by_prefix: dict[str, list] = {}
for check in report.checks:
    by_prefix.setdefault(check.name.split("[")[0], []).append(check)
for prefix, checks in by_prefix.items():
    worst = max(c.violation for c in checks)
    print(f"  {prefix:<28} {len(checks):>3} checks, worst margin {worst:+.2e}")

print()
print("== a family that lies about its dependence range ==")
# Three outcomes; the first and third event are the same coin flip, at
# index gap 2 = m+1, so they sit in one residue class but are maximally
# correlated: the claimed m = 1 is false.
liar = ExplicitEventFamily.from_events([0.5, 0.25, 0.25],
                                       [[0], [1], [0]], m=1)
bad = verify_derivation(liar)
print(f"passed = {bad.passed}")
for check in bad.failures():
    print(f"  FAIL {check.name}: lhs={check.lhs:.4f} rhs={check.rhs:.4f} "
          f"slack={check.slack:+.4f}")

print()
print("== the dependence checker quantifies the same lie ==")
dep = check_m_dependence(liar)
print(f"passed = {dep.passed}; worst violation "
      f"{dep.worst().slack:+.4f} in {dep.worst().name}")

print()
print("claiming m = 2 = N - 1 instead is true of any three events, so")
print("neither audit has a row that could fail:")
honest = ExplicitEventFamily.from_events([0.5, 0.25, 0.25],
                                         [[0], [1], [0]], m=2)
for audit in (verify_derivation, check_m_dependence):
    report = audit(honest)
    print(f"  {audit.__name__} passed = {report.passed}, {report.n_checks} checks")

#!/usr/bin/env python3
"""Monte Carlo as an independent cross-check on the exact oracle.

The estimator derives every trial's randomness from (seed, trial index)
through a counter-based mixing function, so results are reproducible
bit-for-bit no matter how the trials are chunked or how the chunks fall
between its worker threads.  Wilson 95% intervals should cover the exact
DP value about 95% of the time; we watch that happen across seeds.
"""

from mdepbounds import consecutive_run_model, estimate_union, union_prob

model = consecutive_run_model(24)
exact = union_prob(model, 1, 2)
print(f"exact P(A_1 or A_2) = {exact}")
print()

print("== interval coverage across 40 seeds at 20k trials ==")
covered = 0
for seed in range(40):
    est = estimate_union(model, 1, 2, trials=20_000, seed=seed)
    hit = est.ci_low <= exact <= est.ci_high
    covered += hit
    if seed < 8:
        marker = "covers" if hit else "MISSES"
        print(f"  seed {seed}: {est.estimate:.5f} "
              f"[{est.ci_low:.5f}, {est.ci_high:.5f}]  {marker}")
print(f"  ... {covered}/40 intervals cover the exact value")
print()

print("== estimates tighten with the trial budget (seed 7) ==")
print(f"{'trials':>9} {'estimate':>10} {'ci width':>10} {'|err|':>10}")
for trials in (1_000, 10_000, 100_000, 1_000_000):
    est = estimate_union(model, 1, 2, trials=trials, seed=7)
    print(f"{trials:>9} {est.estimate:>10.6f} "
          f"{est.ci_high - est.ci_low:>10.6f} "
          f"{abs(est.estimate - exact):>10.6f}")

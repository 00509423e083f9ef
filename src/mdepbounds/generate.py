"""Model generators: the canonical consecutive-run example and seeded
random window models for property testing and sweeps."""

from __future__ import annotations

import operator

import numpy as np

from .errors import CapExceededError
from .families import MAX_WINDOW_TABLE, WindowModel


def consecutive_run_model(n: int, m: int = 2, alphabet_size: int = 2,
                          symbol_dist: tuple[float, ...] | None = None,
                          ) -> WindowModel:
    """Window model whose event k fires when symbols k..k+m are all the
    top symbol s-1 (a run of length m+1).

    With the default fair coin and m = 2 this is the standard worked
    example: every event has probability 2**-(m+1) = 0.125.  A table
    above MAX_WINDOW_TABLE entries is refused before it is built.
    """
    s, m = operator.index(alphabet_size), operator.index(m)
    if s < 2:
        raise ValueError("alphabet_size must be an integer >= 2")
    if m < 0:
        raise ValueError("m must be a nonnegative integer")
    # s >= 2: past the cap's bit length every power is above it
    if m + 1 > MAX_WINDOW_TABLE.bit_length() or s ** (m + 1) > MAX_WINDOW_TABLE:
        raise CapExceededError(
            f"predicate table of size {s}**{m + 1} exceeds the verifier cap "
            f"{MAX_WINDOW_TABLE}")
    if symbol_dist is None:
        symbol_dist = tuple(1.0 / s for _ in range(s))
    table = [False] * s ** (m + 1)
    table[-1] = True  # all digits equal to s-1 is the largest index
    return WindowModel(alphabet_size=s, symbol_dist=tuple(symbol_dist),
                       m=m, predicate_table=tuple(table), horizon=n)


def random_window_model(rng: np.random.Generator | int, *,
                        alphabet_sizes: tuple[int, ...] = (2, 3),
                        dependence_ranges: tuple[int, ...] = (1, 2, 3),
                        min_horizon: int = 1, max_horizon: int = 200,
                        table_density: float | None = None,
                        min_symbol_prob: float = 0.02) -> WindowModel:
    """Random window model with a Dirichlet symbol law (floored at
    min_symbol_prob) and an i.i.d. Bernoulli predicate table.

    Deterministic given the generator state; pass an integer seed for a
    one-off model.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    s = int(rng.choice(alphabet_sizes))
    m = int(rng.choice(dependence_ranges))
    n = int(rng.integers(min_horizon, max_horizon + 1))
    dist = rng.dirichlet(np.ones(s)) + min_symbol_prob
    dist /= dist.sum()
    density = table_density if table_density is not None \
        else float(rng.uniform(0.02, 0.35))
    table = rng.random(s ** (m + 1)) < density
    return WindowModel(alphabet_size=s, symbol_dist=tuple(float(p) for p in dist),
                       m=m, predicate_table=tuple(bool(b) for b in table),
                       horizon=n)

"""Seeded workload plans for the mdepbounds benchmark.

A plan is a set of model-spec dicts plus one *round*: a fixed sequence of
CLI calls over those models.  The runner repeats whole rounds, so every
run sees the same call mix.  Each slot of a round fixes the alphabet size
s, the dependence range m and the horizon N, which set the cost of a
call; the seed draws only the symbol law, the predicate table and the
Monte Carlo seeds.  That keeps the cost of a round nearly independent of
the seed while the numbers the package computes change with it.

The package receives nothing but the model-spec JSON files written from
these dicts and the argv of each call.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mdepbounds import (expand_window_model, model_to_dict, parse_model,
                        random_window_model)

WORKLOADS = ("exact", "audit", "derive", "mc")

#: Monte Carlo trials per generated `mc` call.
MC_TRIALS = 100_000

#: Stored byte-identity cases for the `mc` verb (model spec, argv, stdout).
MC_REFERENCE = Path(__file__).resolve().parent / "reference" / "mc_reference.json"

# (s, m, N) slots.  Rationale for each list is in NOTES.md.
EXACT_WINDOW_SLOTS = [(s, m, n) for s in (2, 3) for m in (1, 2, 3)
                      for n in (40, 120, 200)]
#: Small enough for an expand_window_model cross-check (s**(N+m) <= 2**14);
#: each also ships as an explicit family built by that expansion.
EXACT_SMALL_SLOTS = [(2, 1, 12), (2, 2, 11), (3, 1, 7), (3, 2, 6)]
AUDIT_WINDOW_SLOTS = [(2, 1, 12), (3, 2, 14), (2, 3, 16), (3, 1, 18), (2, 2, 20)]
AUDIT_EXPLICIT_SLOTS = [(2, 2, 12)]
#: Default-flag `verify` is refused above MAX_SUBSETS from N = 48 on.
AUDIT_CAPPED_SLOTS = [(3, 3, 48)]
#: The stderr text of that refusal; only calls whose expectation names it
#: may exit 2 (see checks.check).
CAP_MESSAGE = "candidate index subsets exceed the cap"
DERIVE_SLOTS = [(2, 1, 48), (3, 3, 56), (2, 2, 64), (3, 2, 72), (2, 3, 96)]
MC_SLOTS = [(2, 2, 50), (3, 1, 100), (2, 3, 150), (3, 2, 200)]


@dataclass(frozen=True)
class Call:
    """One CLI call, `mdepbounds VERB MODEL ARGS...`, which must exit 0 with
    output that passes the checks named by `expect["kind"]`."""

    verb: str
    model: str
    args: tuple[str, ...]
    expect: dict

    def argv(self, model_dir: Path) -> list[str]:
        return [self.verb, str(model_dir / f"{self.model}.json"), *self.args]


@dataclass
class Plan:
    models: dict[str, dict]
    calls: list[Call]
    warmup: list[Call]

    def write_models(self, model_dir: Path) -> None:
        """Write every model spec as `<name>.json`, laid out like dump_model."""
        model_dir.mkdir(parents=True, exist_ok=True)
        for name, spec in self.models.items():
            (model_dir / f"{name}.json").write_text(json.dumps(spec, indent=2) + "\n")


def event_prob(spec: dict) -> float:
    """P(A_k) of a window-model spec, summed directly from its table."""
    s, m, dist = spec["alphabet_size"], spec["m"], spec["symbol_dist"]
    return math.fsum(math.prod(dist[(w // s ** t) % s] for t in range(m + 1))
                     for w, fires in enumerate(spec["predicate_table"]) if fires)


def _window(rng: np.random.Generator, s: int, m: int, n: int,
            lo: float, hi: float, density: float | None = None,
            fires: int | None = None) -> dict:
    """Random window-model spec whose event probability p has N*p in [lo, hi]
    and, if `fires` is given, whose predicate table has that many entries set.

    Rejection keeps the cost of calls whose work depends on the event mass
    (windowed bounds) or on the table (explicit-file size) nearly
    seed-independent.
    """
    for _ in range(10_000):
        model = random_window_model(rng, alphabet_sizes=(s,), dependence_ranges=(m,),
                                    min_horizon=n, max_horizon=n,
                                    table_density=density)
        spec = model_to_dict(model)
        if fires is not None and sum(spec["predicate_table"]) != fires:
            continue
        if lo <= n * event_prob(spec) <= hi:
            return spec
    raise RuntimeError(f"no window model with s={s} m={m} N={n} and event "
                       f"mass in [{lo}, {hi}] after 10000 draws")


def _small(rng: np.random.Generator, s: int, m: int, n: int) -> dict:
    """Window model for expansion: a quarter of the table set, so an
    explicit file lists about a quarter of all strings under each event."""
    return _window(rng, s, m, n, 0.1 * n, 0.4 * n, fires=s ** (m + 1) // 4)


def _expected(spec: dict, **extra) -> dict:
    return {"n": spec["horizon"], "m": spec["m"], "p": event_prob(spec), **extra}


def _warmup_model() -> dict:
    """Run-of-two model on 8 fair coin flips: cheap for every verb."""
    return {"type": "window", "m": 1, "alphabet_size": 2, "symbol_dist": [0.5, 0.5],
            "predicate_table": [False, False, False, True], "horizon": 8}


def _warmup_calls(verbs: tuple[str, ...]) -> list[Call]:
    args = {"report": ("--exact",), "window": ("0", "1"),
            "sweep": ("horizon=4..8:2", "--exact"), "verify": (),
            "mc": ("1", "8", "1000", "1")}
    return [Call(verb, "warmup", args[verb], {}) for verb in verbs]


def _exact(rng: np.random.Generator, models: dict) -> list[Call]:
    calls = []
    for s, m, n in EXACT_WINDOW_SLOTS:
        name = f"w{s}{m}n{n}"
        spec = models[name] = _window(rng, s, m, n, 0.1 * n, 0.4 * n)
        mass = math.floor(n * event_prob(spec))
        # The window ends near N/2 whatever p is, so the DP span of the
        # exact union it prints scales with N, not with the seed.
        i = mass // 4
        window_n = max(1, mass // 2 - i)
        lo = max(1, n // 4)
        step = max(1, math.ceil((n - lo) / 3))
        calls += [
            Call("report", name, ("--exact",), _expected(spec, kind="report")),
            Call("window", name, (str(i), str(window_n)),
                 _expected(spec, kind="window", i=i, window_n=window_n)),
            Call("sweep", name, (f"horizon={lo}..{n}:{step}", "--exact"),
                 _expected(spec, kind="sweep", rows=list(range(lo, n + 1, step)))),
        ]
    for s, m, n in EXACT_SMALL_SLOTS:
        name = f"w{s}{m}n{n}"
        spec = models[name] = _small(rng, s, m, n)
        explicit = f"x{s}{m}n{n}"
        models[explicit] = _explicit(spec)
        calls += [
            Call("report", name, ("--exact",), _expected(spec, kind="report", xref=name)),
            Call("report", explicit, ("--exact",), _expected(spec, kind="report", xref=name)),
        ]
    return calls


def _explicit(spec: dict) -> dict:
    return model_to_dict(expand_window_model(parse_model(spec)))


def _audit(rng: np.random.Generator, models: dict) -> list[Call]:
    calls = []
    for s, m, n in AUDIT_WINDOW_SLOTS:
        name = f"w{s}{m}n{n}"
        models[name] = _window(rng, s, m, n, 0.1 * n, 0.4 * n)
        calls.append(Call("verify", name, (), {"kind": "verify"}))
    for s, m, n in AUDIT_CAPPED_SLOTS:
        name = f"w{s}{m}n{n}"
        models[name] = _window(rng, s, m, n, 0.1 * n, 0.4 * n)
        calls.append(Call("verify", name, (),
                          {"kind": "verify", "may_refuse": CAP_MESSAGE}))
    for s, m, n in AUDIT_EXPLICIT_SLOTS:
        name = f"x{s}{m}n{n}"
        models[name] = _explicit(_small(rng, s, m, n))
        calls.append(Call("verify", name, (), {"kind": "verify"}))
    return calls


def _derive(rng: np.random.Generator, models: dict) -> list[Call]:
    calls = []
    for s, m, n in DERIVE_SLOTS:
        name = f"w{s}{m}n{n}"
        models[name] = _window(rng, s, m, n, 0.1 * n, 0.4 * n)
        calls.append(Call("verify", name, ("--max-subset", "2"), {"kind": "verify"}))
    return calls


def _mc(rng: np.random.Generator, models: dict) -> list[Call]:
    calls = []
    for s, m, n in MC_SLOTS:
        name = f"w{s}{m}n{n}"
        # Event mass 0.3..1.5 keeps the union away from 0 and 1, where the
        # statistical check against the exact union would be empty.
        models[name] = _window(rng, s, m, n, 0.3, 1.5, density=0.1)
        seed = int(rng.integers(0, 2 ** 63))
        calls.append(Call("mc", name, ("1", str(n), str(MC_TRIALS), str(seed)),
                          {"kind": "mc", "model": name, "first": 1, "last": n,
                           "trials": MC_TRIALS, "seed": seed}))
    for k, case in enumerate(json.loads(MC_REFERENCE.read_text())["cases"]):
        name = f"ref{k}"
        models[name] = case["model"]
        calls.append(Call("mc", name, tuple(case["args"]),
                          {"kind": "mc_reference", "stdout": case["stdout"]}))
    return calls


_BUILDERS = {"exact": (_exact, ("report", "window", "sweep")),
             "audit": (_audit, ("verify",)),
             "derive": (_derive, ("verify",)),
             "mc": (_mc, ("mc",))}


def build(workload: str, seed: int) -> Plan:
    """The plan of one workload; the same (workload, seed) gives the same plan."""
    builder, verbs = _BUILDERS[workload]
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    models: dict[str, dict] = {"warmup": _warmup_model()}
    calls = builder(rng, models)
    return Plan(models, calls, _warmup_calls(verbs))

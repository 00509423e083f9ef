"""mdepbounds benchmark: closed-loop CLI workloads, end to end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload exact --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

One process, one thread, one client: each call goes in-process to
`mdepbounds.cli.main(argv)` with stdout captured in memory, and the next
call starts when the previous one returns.  The runner repeats whole
rounds of the workload's call sequence (see workloads.py) for about
`--seconds`, then checks every call's output (checks.py) and prints a
summary followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
their timings are scaled to a reference host speed (pace.py).
With --trace 1 untraced rounds alternate with rounds that record spans
around every public function (spans.py); the runner reports the
per-layer metrics per traced round plus the tracing overhead.  Spans,
and a JSON record of every run with its environment, go to
perfbench/work/.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

#: BLAS pools are pinned to one thread before numpy is imported, so every
#: number below comes from one single-threaded process.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
WORKLOADS = ("exact", "audit", "derive", "mc")

#: Set-up is repeated in this many fresh processes besides the measuring
#: one; setup_s is the median of all of them, each in reference time.
SETUP_REPEATS = 6
CHILD_TIMEOUT_S = 150


def _import_package():
    """Import mdepbounds from this checkout's src/, and nothing else."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import mdepbounds
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import mdepbounds from {ROOT / 'src'}: {exc}")
    where = Path(mdepbounds.__file__).resolve()
    if ROOT / "src" not in where.parents:
        sys.exit(f"perfbench: imported mdepbounds from {where}, not from this checkout")
    return mdepbounds


def _environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
            "seed": seed}


class Runner:
    """Set-up, timed rounds and checks for one workload and seed."""

    def __init__(self, workload: str, seed: int) -> None:
        import checks
        import mdepbounds.cli
        import workloads
        from pace import Pace

        self.checks = checks
        self.cli = mdepbounds.cli
        self.plan = workloads.build(workload, seed)
        self.model_dir = WORK / f"models-{os.getpid()}"
        self.plan.write_models(self.model_dir)
        self.argvs = [call.argv(self.model_dir) for call in self.plan.calls]
        for call in self.plan.warmup:
            self._call(call.argv(self.model_dir))
        self.setup_s = time.perf_counter() - _START
        self.pace = Pace()
        self.setup_scale = self.pace.scale()
        # per call of a round: first (rc, out, err), and later runs that differ
        self.first: list = [None] * len(self.argvs)
        self.drifted = [0] * len(self.argvs)
        self.timings: list[tuple[float, float]] = []  # untraced (start, seconds)

    def close(self) -> None:
        shutil.rmtree(self.model_dir, ignore_errors=True)

    def _call(self, argv: list[str]) -> tuple:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(argv)  # looked up per call: trace wrappers
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # a crash is a wrong result, not a harness error
                rc = None
                traceback.print_exc()
        return rc, out.getvalue(), err.getvalue()

    def round(self, tracer=None) -> float:
        """Run every call of the round once; returns the seconds spent in
        the calls (calibration between calls is left out)."""
        busy = 0.0
        for i, argv in enumerate(self.argvs):
            if tracer is not None:
                tracer.begin_call()
            t = time.perf_counter()
            result = self._call(argv)
            elapsed = time.perf_counter() - t
            busy += elapsed
            if tracer is None:
                self.timings.append((t, elapsed))
            else:
                tracer.end_call(len(result[1]))
            if self.first[i] is None:
                self.first[i] = result
            elif result[:2] != self.first[i][:2]:
                self.drifted[i] += 1
            self.pace.tick()
        return busy

    def rounds(self, seconds: float, tracer=None) -> tuple[list[float], list[float]]:
        """Whole rounds for about `seconds` of calls: stop when another round
        would end more than half a round late.  With a tracer, untraced and
        traced rounds alternate.  Returns the times of the untraced and of
        the traced rounds."""
        plain: list[float] = []
        traced: list[float] = []
        while True:
            plain.append(self.round())
            if tracer is not None:
                tracer.install()
                try:
                    traced.append(self.round(tracer))
                finally:
                    tracer.uninstall()
            elapsed = sum(plain) + sum(traced)
            per_round = elapsed / len(plain)
            if elapsed + 0.5 * per_round >= seconds:
                return plain, traced

    def verdicts(self, rounds: int) -> tuple[int, int, list]:
        """(attempted, failed, problems) over `rounds` runs of every call."""
        refs = self.checks.references(self.plan.calls, self.plan.models)
        failed, problems = 0, []
        for call, first, drifted in zip(self.plan.calls, self.first, self.drifted):
            rc, out, err = first
            verdict = self.checks.check(call.expect, rc, out, err, refs)
            if verdict.status != self.checks.OK:
                failed += rounds
                problems.append((verdict.status, call, verdict.reason))
            elif drifted:
                failed += drifted
                problems.append((self.checks.WRONG, call,
                                 f"output changed between rounds ({drifted} times)"))
        return rounds * len(self.plan.calls), failed, problems


def _setup_samples(workload: str, seed: int) -> list[float]:
    """Set-up times of SETUP_REPEATS fresh processes, in reference time."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up process failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    runner = Runner(workload, seed)
    try:
        tracer = None
        if trace:
            from spans import Tracer, layer_metrics, layer_unit

            tracer = Tracer()
        plain, traced = runner.rounds(seconds, tracer)
        total_rounds = len(plain) + len(traced)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted, failed, problems = runner.verdicts(total_rounds)
    finally:
        runner.close()

    per_call = len(runner.argvs)
    record = {"workload": workload, "trace": int(trace), "rounds": total_rounds,
              "round_s": plain, "env": _environment(seed),
              "call_p50_ms": {f"{c.verb} {c.model} {' '.join(c.args)}".strip():
                              statistics.median(d for _, d in runner.timings[i::per_call]) * 1e3
                              for i, c in enumerate(runner.plan.calls)}}
    print(f"workload {workload}, seed {seed}: {total_rounds} rounds of "
          f"{per_call} calls, {attempted} calls, {failed} failed")
    for status, call, reason in problems:
        print(f"  {status}: {call.verb} {call.model} {' '.join(call.args)}: {reason}")
    if trace:
        metrics = layer_metrics(tracer, len(traced))
        # Each traced round is compared with the untraced round just before
        # it, so slow drift in machine speed cancels out of the ratio.
        metrics["trace.overhead_frac"] = statistics.median(
            t / p for p, t in zip(plain, traced)) - 1.0
        WORK.mkdir(exist_ok=True)
        span_path = WORK / f"spans-{workload}.tsv"
        tracer.write_spans(span_path)
        print(f"  {len(tracer.spans)} spans written to {span_path.relative_to(ROOT)}; "
              f"per-layer values are per round; counters are work requested "
              f"at the wrapped boundaries")
        units = {name: layer_unit(name) for name in metrics}
    else:
        # Timings are scaled to the reference host speed (pace.py).
        pace = runner.pace
        seconds_ref = [d * pace.scale(s, d) for s, d in runner.timings]
        samples = [runner.setup_s * runner.setup_scale] + _setup_samples(workload, seed)
        raw = {"ops_per_s": (attempted - failed) / sum(plain),
               "op_p50_ms": statistics.median(d for _, d in runner.timings) * 1e3}
        metrics = {
            "setup_s": statistics.median(samples),
            "ops_per_s": (attempted - failed) / sum(seconds_ref),
            "op_p50_ms": statistics.median(seconds_ref) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}
        notes = {"setup_s": f"median of {len(samples)} set-ups",
                 "ops_per_s": f"raw {_fmt(raw['ops_per_s'])}",
                 "op_p50_ms": f"raw {_fmt(raw['op_p50_ms'])}, n={len(runner.timings)}"}
        for name, value in metrics.items():
            print(f"  {name:<12} {_fmt(value):>12} {units[name]:<4} {notes.get(name, '')}")
        print(f"  {'failed_frac':<12} {_fmt(failed / attempted):>12} ratio "
              f"({failed} of {attempted})")
        print(f"  timings in reference time (pace.py): median scale "
              f"{_fmt(pace.scale())} from {len(pace.samples)} calibrations")
        record.update(raw=raw, setup_samples_s=samples)
    record.update(calibration_s=runner.pace.samples)
    print("  env: " + json.dumps(record["env"]))
    record.update(attempted=attempted, failed=failed, metrics=metrics,
                  problems=[f"{s}: {c.verb} {c.model}: {r}" for s, c, r in problems])
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return {"correct": not any(s == "wrong" for s, _, _ in problems),
            "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    args = parser.parse_args()

    if args.workload == "all":
        # A fresh process per workload, so each peak_rss_mb is its own.
        codes = [subprocess.run([sys.executable, str(HERE / "run.py"),
                                 "--workload", workload, "--seed", str(args.seed),
                                 "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)], cwd=ROOT).returncode
                 for workload in WORKLOADS]
        return max(codes)

    _import_package()
    if args.setup_only:
        runner = Runner(args.workload, args.seed)
        runner.close()
        print(json.dumps({"setup_s": runner.setup_s * runner.setup_scale,
                          "setup_raw_s": runner.setup_s}))
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

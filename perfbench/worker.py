"""One benchmark workload in a fresh interpreter (started by run.py).

    python3 perfbench/worker.py --workload formal --seed 1 --seconds 30 --trace 0

run.py starts it from the repository root with PYTHONPATH=src and the
BLAS/OpenMP thread counts pinned to 1.  It imports exactwkb, does the
workload's prebuild, notes the moment the first job could start, and
then either

* ``--probe``: stops there (a set-up sample);
* ``--trace 0``: runs round(``--seconds`` / ROUND_SECONDS) rounds of jobs,
  checking every output, with the speed loop after every job, and
  reports the end-to-end figures at reference speed (see REF_LOOP_S);
* ``--trace 1``: runs ``TRACE_ROUNDS`` rounds with a span around every
  call into exactwkb, replays the same rounds untraced to measure the
  tracing overhead, and (formal only) counts calls under cProfile on
  round 0.  Fixed rounds make the counts repeat exactly for a seed.

The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import os
import platform
import pstats
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from spans import Tracer, Untraced

TRACE_ROUNDS = {"formal": 5, "numeric": 25, "stokes": 2}
# Wall seconds one round takes, checks included, on a 2-vCPU Xeon.  An
# untraced run makes round(seconds / ROUND_SECONDS) rounds, a number fixed
# by the arguments, so the same seed always attempts the same jobs.
ROUND_SECONDS = {"formal": 4.3, "numeric": 1.15, "stokes": 6.0}
# A run stops early, at a round boundary, only past this much wall time
# (a program many times slower than the reference); run.py reports it.
ROUND_LIMIT_S = 140.0
# Speed-loop samples a set-up probe takes once it is ready.
PROBE_LOOPS = 51
SPAN_DIR = ".perfbench-out"
OUTCOMES = ("pass", "wrong", "typed_error", "bare_error")


@dataclass(frozen=True)
class Record:
    job: str
    kind: str
    ring: str
    start: float
    end: float
    outcome: str
    error: str | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


# Seconds the speed loop takes on the reference machine, a 2-vCPU Xeon.
# Job and set-up times are reported at reference speed: multiplied by
# REF_LOOP_S / (the mean loop time measured alongside them).
REF_LOOP_S = 5.0e-4
# After each job the loop runs until it has taken this share of the job's
# time (at least once), so the speed is sampled in step with the work and
# the mean loop time weighs each stretch of the run as the jobs do.
LOOP_SHARE = 0.02


def speed_loop() -> float:
    """Wall seconds of a fixed bit of pure-Python work that touches no
    exactwkb code: Fraction, dict and complex arithmetic, like the jobs.
    On a shared host the speed a process gets drifts by a third within
    minutes; this loop measures that drift so that it can be divided out
    of the job times."""
    t0 = time.perf_counter()
    acc, counts = Fraction(0), {}
    for k in range(1, 120):
        acc = acc * Fraction(k, k + 1) + Fraction(1, k)
        counts[k % 17] = counts.get(k % 17, 0) + k * k
        if acc.denominator > 10**30:
            acc = Fraction(acc.numerator % 1000, 7)
    x = 0.5 + 0.5j
    for k in range(200):
        x = x * x * 0.5 + (k % 3) * 0.1j
    return time.perf_counter() - t0


def run_job(job, calls, kinds, typed_error):
    """Time one job, then check its output outside the timing."""
    kind = kinds[job.kind]
    calls.job = job.id
    out, outcome, error = None, "pass", None
    start = time.perf_counter()
    try:
        out = kind.run(job.inputs, calls)
    except typed_error as exc:
        outcome, error = "typed_error", f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # a bare failure is a measured outcome, not a crash
        outcome, error = "bare_error", f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    if outcome == "pass":
        try:
            ok = kind.check(job.inputs, out)
        except Exception as exc:  # an output the check cannot digest is wrong
            ok, error = False, f"check raised {type(exc).__name__}: {exc}"
        if not ok:
            outcome = "wrong"
    return Record(job.id, job.kind, job.ring, start, end, outcome, error), out


class Digest:
    """SHA-256 over the canonical JSON of every exact output, in job order;
    ``first`` covers round 0 only, which every run completes."""

    def __init__(self, canon):
        self.canon = canon
        self.all = hashlib.sha256()
        self.first = hashlib.sha256()
        self.jobs = 0

    def add(self, job, rec, out):
        body = self.canon(out) if rec.outcome in ("pass", "wrong") else rec.error
        line = json.dumps([job.id, rec.outcome, body], sort_keys=True,
                          separators=(",", ":")).encode() + b"\n"
        self.all.update(line)
        if job.round == 0:
            self.first.update(line)
        self.jobs += 1

    def report(self) -> dict:
        return {"round0": self.first.hexdigest(), "all": self.all.hexdigest(),
                "jobs": self.jobs}


def run_round(wl, workload, seed, index, ctx, calls, on_job=None, loops=None,
              rounds=1):
    """Run and check one round; with a list ``loops``, run the speed loop
    after every job and append its times to the list."""
    from exactwkb.errors import ExactWKBError

    records = []
    for job in wl.make_round(workload, seed, index, ctx, rounds):
        rec, out = run_job(job, calls, wl.KINDS, ExactWKBError)
        if loops is not None:
            spent = 0.0
            while spent == 0.0 or spent < LOOP_SHARE * rec.seconds:
                loops.append(speed_loop())
                spent += loops[-1]
        records.append(rec)
        if on_job is not None:
            on_job(job, rec, out)
    return records


def run_rounds(wl, workload, seed, ctx, calls, rounds, *, seconds=None,
               on_job=None, loops=None):
    """Rounds 0 to ``rounds`` - 1, stopping early at a round boundary only
    once ``seconds`` of wall time have passed."""
    records = []
    deadline = None if seconds is None else time.monotonic() + seconds
    r = 0
    while r < rounds and (deadline is None or time.monotonic() < deadline):
        records += run_round(wl, workload, seed, r, ctx, calls, on_job, loops,
                             rounds=rounds)
        r += 1
    return records, r


def run_traced(wl, workload, seed, ctx, tracer, rounds, on_job=None):
    """Each round traced and untraced back to back, alternating which goes
    first, so that drift in machine speed cancels from the overhead."""
    traced, untraced = [], []
    for r in range(rounds):
        if r % 2:
            untraced += run_round(wl, workload, seed, r, ctx, Untraced(), rounds=rounds)
        traced += run_round(wl, workload, seed, r, ctx, tracer, on_job, rounds=rounds)
        if not r % 2:
            untraced += run_round(wl, workload, seed, r, ctx, Untraced(), rounds=rounds)
    return traced, untraced


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of
    all order statistics.  With a few dozen samples it varies far less
    from run to run than one or two order statistics do."""
    from scipy.special import betainc

    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [betainc(a, b, i / n) for i in range(n + 1)]
    return float(sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs)))


def summary(records, scale: float = 1.0) -> dict:
    """End-to-end figures over the records of one run, with every job time
    multiplied by ``scale``."""
    times = [r.seconds * scale for r in records]
    passed = [r for r in records if r.outcome == "pass"]
    failed = len(records) - len(passed)
    per_kind: dict = {}
    for r in records:
        per_kind[r.kind] = per_kind.get(r.kind, 0) + 1
    return {
        "attempted": len(records),
        "failed": failed,
        "jobs_per_s": len(passed) / sum(times),
        "latency_p50_ms": 1e3 * hd_quantile(times, 0.5),
        "latency_p90_ms": 1e3 * hd_quantile(times, 0.9),
        "pass_frac": len(passed) / len(records),
        "jobs_per_kind": dict(sorted(per_kind.items())),
        "failures": sorted({f"{r.kind}: {r.error or r.outcome}" for r in records
                            if r.outcome != "pass"})[:20],
    }


def profile_counts(wl, workload, seed, ctx) -> dict:
    """Exact call counts of the two functions ROADMAP item 2 targets, under
    cProfile on round 0 (counts only: cProfile distorts times)."""
    from fractions import Fraction

    from exactwkb.series import PuiseuxSeries

    targets = {
        "count.Fraction.__hash__": Fraction.__hash__.__code__,
        "count.PuiseuxSeries.__init__": PuiseuxSeries.__init__.__code__,
    }
    prof = cProfile.Profile()
    prof.enable()
    try:
        run_round(wl, workload, seed, 0, ctx, Untraced(), rounds=TRACE_ROUNDS[workload])
    finally:
        prof.disable()
    stats = pstats.Stats(prof).stats
    out = {}
    for name, code in targets.items():
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        out[name] = stats[key][1] if key in stats else 0
    return out


def traced_metrics(wl, records, tracer, replay, counts) -> dict:
    busy, calls = tracer.busy()
    m = {}
    for name in wl.SPANS:
        m[f"{name}.busy_s"] = busy.get(name, 0.0)
        m[f"{name}.calls"] = calls.get(name, 0)
    for name in wl.COUNTS:
        m[name] = tracer.counts.get(name, 0)
    for ring in wl.RINGS:
        m[f"ring.{ring}.busy_s"] = sum((r.seconds for r in records if r.ring == ring), 0.0)
    for kind in wl.KINDS:
        mine = [r for r in records if r.kind == kind]
        m[f"kind.{kind}.p50_ms"] = 1e3 * statistics.median(r.seconds for r in mine) if mine else 0.0
        for outcome in OUTCOMES[1:]:
            m[f"kind.{kind}.{outcome}"] = sum(r.outcome == outcome for r in mine)
    job_total = sum(r.seconds for r in records)
    m["job.self_s"] = job_total - sum(busy.values())
    m["fail_frac"] = sum(r.outcome != "pass" for r in records) / len(records)
    m["trace.overhead_frac"] = job_total / sum(r.seconds for r in replay) - 1.0
    m["count.Fraction.__hash__"] = counts.get("count.Fraction.__hash__", 0)
    m["count.PuiseuxSeries.__init__"] = counts.get("count.PuiseuxSeries.__init__", 0)
    return m


def write_spans(path: Path, records, tracer) -> None:
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        for r in records:
            fh.write(json.dumps({"id": r.job, "name": "job", "kind": r.kind,
                                 "ring": r.ring, "start": r.start, "end": r.end,
                                 "outcome": r.outcome}) + "\n")
        for job, name, start, end in tracer.spans:
            fh.write(json.dumps({"parent": job, "name": name, "start": start,
                                 "end": end}) + "\n")


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "mpmath": mpmath.__version__,
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true")
    args = p.parse_args(argv)

    t0 = time.perf_counter()
    import exactwkb
    import_s = time.perf_counter() - t0
    src = (Path.cwd() / "src").resolve()
    if Path(exactwkb.__file__).resolve().parent.parent != src:
        print(f"exactwkb imported from {exactwkb.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads as wl

    t1 = time.perf_counter()
    ctx = wl.prebuild(args.workload, args.seed)
    prebuild_s = time.perf_counter() - t1
    result = {"ready": time.monotonic(), "import_s": import_s, "prebuild_s": prebuild_s}
    if args.probe:
        result["loop_s"] = statistics.fmean(speed_loop() for _ in range(PROBE_LOOPS))
        print(json.dumps(result))
        return 0

    result["env"] = environment()
    digest = Digest(wl.canon)
    exact = args.workload == "formal"  # the workload whose outputs are exact
    on_job = digest.add if exact else None
    if args.trace == 0:
        planned = max(1, round(args.seconds / ROUND_SECONDS[args.workload]))
        loops: list[float] = []
        records, rounds = run_rounds(wl, args.workload, args.seed, ctx, Untraced(),
                                     planned, seconds=ROUND_LIMIT_S,
                                     on_job=on_job, loops=loops)
        result["loop_s"] = statistics.fmean(loops)
        result["measured"] = summary(records)
        result.update(summary(records, REF_LOOP_S / result["loop_s"]))
        result["planned_rounds"] = planned
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        rounds = TRACE_ROUNDS[args.workload]
        counts = profile_counts(wl, args.workload, args.seed, ctx) \
            if args.workload == "formal" else {}
        tracer = Tracer()
        records, replay = run_traced(wl, args.workload, args.seed, ctx, tracer,
                                     rounds, on_job)
        result.update(summary(records))
        result["per_layer"] = traced_metrics(wl, records, tracer, replay, counts)
        result["per_layer"]["setup.import_s"] = import_s
        result["per_layer"]["setup.prebuild_s"] = prebuild_s
        write_spans(Path.cwd() / SPAN_DIR / f"spans-{args.workload}-{args.seed}.jsonl",
                    records, tracer)
    result["rounds"] = rounds
    if exact:
        result["digest"] = digest.report()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

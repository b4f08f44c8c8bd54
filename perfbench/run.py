"""Run one exactwkb benchmark workload and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload formal --seed 1 --seconds 30 --trace 0

Workloads: ``formal`` (exact pipelines), ``numeric`` (double-precision
evaluations against oracles) and ``stokes`` (Stokes-curve tracing and its
node check); README.md in this directory says why each exists.  Every job
runs in one closed loop, one client, one process and one thread, in a
fresh interpreter (worker.py) that imports exactwkb from ./src.  A run
makes a number of rounds fixed by ``--seconds``, so a seed always gives
the same jobs, the same ``attempted`` and the same ``failed``.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  Times in the end-to-end metrics are at reference speed: scaled by
a speed loop run alongside the jobs, which divides out the drift of a
shared host (worker.REF_LOOP_S).  The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give the environment, the exact-output
digest, the same figures as measured (``measured``, unscaled) and every
metric with its unit.  Exit status 0 on a completed run, non-zero (and no result line)
when the run cannot be made.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import REF_LOOP_S

HERE = Path(__file__).resolve().parent
WORKLOADS = ("formal", "numeric", "stokes")
# Set-up is sampled this many times in fresh interpreters, plus once by
# the measuring worker itself; setup_s is the median at reference speed.
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 20
RUN_LIMIT_S = 170
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
END_TO_END = {"setup_s": "s", "jobs_per_s": "1/s", "latency_p50_ms": "ms",
              "latency_p90_ms": "ms", "pass_frac": "ratio", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def spawn(root: Path, env: dict, argv: list[str], timeout: float) -> dict:
    """Run worker.py to completion; its setup time runs from the spawn to
    the moment it reports ready (CLOCK_MONOTONIC is system-wide)."""
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *argv],
                              cwd=root, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(argv)} exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(argv)} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - start
    return result


def measure(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0", **PINNED)
    began = time.monotonic()
    base = ["--workload", workload, "--seed", str(seed)]
    setups = []
    if trace == 0:
        for _ in range(SETUP_PROBES):
            setups.append(spawn(root, env, base + ["--probe"], PROBE_TIMEOUT_S))
    left = RUN_LIMIT_S - (time.monotonic() - began)
    result = spawn(root, env, base + ["--seconds", str(seconds), "--trace", str(trace)], left)
    if trace == 0:
        setups.append(result)
    result["setup_samples"] = [(s["setup_s"], s["loop_s"]) for s in setups]
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="exactwkb benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "exactwkb" / "__init__.py").is_file():
        print(f"no exactwkb sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    try:
        r = measure(root, args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    env = dict(r["env"], seed=args.seed, workload=args.workload, trace=args.trace,
               rounds=r["rounds"], planned_rounds=r.get("planned_rounds"),
               samples=r["attempted"], jobs_per_kind=r["jobs_per_kind"])
    print("env " + json.dumps(env, sort_keys=True))
    if "digest" in r:
        print("digest " + json.dumps(r["digest"], sort_keys=True))
    if args.trace == 0:
        measured = {k: r["measured"][k] for k in END_TO_END if k in r["measured"]}
        measured["setup_s"] = statistics.median(t for t, _ in r["setup_samples"])
        print("measured " + json.dumps(dict(measured, loop_s=r["loop_s"]), sort_keys=True))
    for failure in r["failures"]:
        print(f"failure {failure}")
    if args.trace == 0:
        values = {name: r[name] for name in END_TO_END if name != "setup_s"}
        values["setup_s"] = statistics.median(t * REF_LOOP_S / loop
                                              for t, loop in r["setup_samples"])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    else:
        metrics = {name: {"value": value, "unit": per_layer_unit(name)}
                   for name, value in sorted(r["per_layer"].items())}
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    # A failed job is a measured outcome.  The formal and stokes jobs are
    # certificates that hold exactly at this commit, so any failure there
    # means wrong code; numeric failures are counted, not gated, because
    # known defects there (ROADMAP item 3) must stay visible.
    correct = r["attempted"] > 0 and (args.workload == "numeric" or r["failed"] == 0)
    print(json.dumps({"correct": correct, "attempted": r["attempted"],
                      "failed": r["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

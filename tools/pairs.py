"""Alternated benchmark pairs of a parent and a change of this repository.

From the repository root:

    python3 tools/pairs.py --parent REV [--change REV] --workload W --seed S \\
        --pairs N --out BENCH.json

Exports the parent revision, and the change if ``--change`` names one, with
``git archive`` into a temporary directory; without ``--change`` the change
is the working tree (its tracked and its untracked, not ignored, files).
Runs ``python3 perfbench/run.py --workload W --seed S --seconds 30`` in
each export N times, alternated, the change first in odd pairs, and keeps
every run's ``env`` line (the machine and run settings perfbench records)
and ``measured`` line (raw figures and the speed loop's ``loop_s``) beside
its end-to-end metrics.

Writes, or updates, the entry "W:S" (or ``--key``) of ``--out`` in the ``pairs`` schema of
the BENCH_*.json files: per end-to-end metric, each side's runs in pair
order, [q1, median, q3], the pairs the change wins, the median ratio
change/parent and whether the change's median is worse than the parent's
by more than the metric's BENCHMARK.json bound; the unscaled ``jobs_per_s``
of the ``measured`` lines is compared the same way.  A run whose ``loop_s`` or
raw ``jobs_per_s`` lies more than FAR times above or below the median of
its side's runs is listed under "outliers" and kept in every figure.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 30
FAR = 1.5       # a run this many times off its side's median is an outlier
RAW = ("loop_s", "jobs_per_s")


def export(rev: str | None, dest: Path) -> None:
    """The tree of ``rev`` (or the working tree, for None) into dest."""
    if rev is not None:
        tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
            tf.extractall(dest)
        return
    names = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                           cwd=ROOT, capture_output=True, check=True).stdout.decode().split("\0")
    for name in filter(None, names):
        src = ROOT / name
        if src.is_file():       # a tracked file deleted in the working tree is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run(tree: Path, workload: str, seed: int) -> dict:
    """One benchmark run in tree, as parse reads it."""
    return parse(subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                                 "--seed", str(seed), "--seconds", str(SECONDS)], cwd=tree,
                                capture_output=True, text=True, check=True).stdout.splitlines())


def parse(out: list) -> dict:
    """A run's printed lines: its end-to-end metrics, failures, and its
    ``env`` and ``measured`` lines."""
    tagged = dict(line.split(" ", 1) for line in out if line.startswith(("env ", "measured ")))
    result = json.loads(out[-1])
    return {"metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "failed": result["failed"], "env": json.loads(tagged["env"]),
            "measured": json.loads(tagged["measured"])}


def quartiles(values: list) -> list:
    """[q1, median, q3] (the exclusive method; the values themselves for one run)."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def outliers(runs: list, side: str) -> list:
    """The runs whose loop_s or raw jobs_per_s is more than FAR times off
    the median of the side's runs, with the figures that put them there."""
    out = []
    for key in RAW:
        mid = statistics.median(r["measured"][key] for r in runs)
        for i, r in enumerate(runs):
            x = r["measured"][key]
            if mid > 0 and not mid / FAR <= x <= mid * FAR:
                out.append({"side": side, "pair": i + 1, "figure": key, "value": x,
                            "side_median": round(mid, 6)})
    return out


def compare(p: list, c: list, higher: bool) -> dict:
    """Each side's runs (pair order), [q1, median, q3], the pairs the change
    wins and the median ratio change/parent."""
    p, c = [round(x, 4) for x in p], [round(x, 4) for x in c]
    pq, cq = quartiles(p), quartiles(c)
    return {"parent_runs": p, "change_runs": c,
            "parent_q1_median_q3": [round(x, 4) for x in pq],
            "change_q1_median_q3": [round(x, 4) for x in cq],
            "change_wins": sum((b > a) if higher else (b < a) for a, b in zip(p, c)),
            "median_ratio": round(cq[1] / pq[1], 3) if pq[1] else None}


def summary(parent: list, change: list, end_to_end: list) -> dict:
    """The ``pairs`` entry of the runs: parent[i] and change[i] are pair i.
    "raw_jobs_per_s" compares the rates before perfbench scales them by its
    speed loop's ``loop_s``."""
    metrics = {}
    for spec in end_to_end:
        name, higher, bound = spec["name"], spec["better"] == "higher", spec["bound"]
        m = compare([r["metrics"][name] for r in parent], [r["metrics"][name] for r in change],
                    higher)
        pm, cm = m["parent_q1_median_q3"][1], m["change_q1_median_q3"][1]
        m["worse_than_bound"] = cm < pm * (1 - bound) if higher else cm > pm * (1 + bound)
        metrics[name] = m
    return {"failed": [[r["failed"] for r in parent], [r["failed"] for r in change]],
            "metrics": metrics,
            "raw_jobs_per_s": compare([r["measured"]["jobs_per_s"] for r in parent],
                                      [r["measured"]["jobs_per_s"] for r in change], True),
            "env": {"parent": [r["env"] for r in parent], "change": [r["env"] for r in change]},
            "measured": {"parent": [r["measured"] for r in parent],
                         "change": [r["measured"] for r in change]},
            "outliers": outliers(parent, "parent") + outliers(change, "change")}


ABOUT = ("Pairs of `python3 perfbench/run.py --workload W --seed S --seconds 30` (trace off) "
         "from a copy of the parent commit (git archive) and of the change, made and "
         "summarised by tools/pairs.py, the change first in odd pairs; each entry is "
         "keyed W:S (or as given) and names its parent_commit and change. Per end-to-end metric: each side's runs, [q1, median, q3], pairs the "
         "change wins, median ratio change/parent, and whether the change's median is "
         "worse than the parent's by more than the BENCHMARK.json bound. 'raw_jobs_per_s' "
         "compares the unscaled rates the same way; 'env' keeps each run's env record as "
         "perfbench prints it, 'measured' its raw figures and loop_s; 'outliers' lists "
         "runs whose loop_s or raw "
         f"jobs_per_s is more than {FAR}x off their side's median (kept in every figure).")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="parent revision")
    p.add_argument("--change", help="change revision (default: the working tree)")
    p.add_argument("--workload", required=True, choices=("formal", "numeric", "stokes"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--out", required=True, help="JSON file to write or update")
    p.add_argument("--key", help='the entry to write (default "W:S")')
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be positive")
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    sha = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.strip()
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": Path(tmp, "parent"), "change": Path(tmp, "change")}
        for side, rev in (("parent", args.parent), ("change", args.change)):
            trees[side].mkdir()
            export(rev, trees[side])
        for i in range(args.pairs):
            order = ("change", "parent") if i % 2 == 0 else ("parent", "change")
            for side in order:
                runs[side].append(run(trees[side], args.workload, args.seed))
            print(f"pair {i + 1}: " + ", ".join(
                f"{s} {runs[s][-1]['metrics']['jobs_per_s']:.1f}" for s in order), flush=True)
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["about"] = ABOUT
    if not args.key:    # the file's own comparison; a keyed entry is an ablation
        doc.update(parent_commit=sha, change=args.change or "working tree")
    entry = summary(runs["parent"], runs["change"], end_to_end)
    entry.update(parent_commit=sha, change=args.change or "working tree")
    doc.setdefault("pairs", {})[args.key or f"{args.workload}:{args.seed}"] = entry
    out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

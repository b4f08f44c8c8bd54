"""Tests of the benchmark itself.  From the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402
from exactwkb.pde import BivariateSeries  # noqa: E402
from exactwkb.series import PuiseuxSeries  # noqa: E402
from spans import Tracer, Untraced  # noqa: E402

SEED = 7


def one_round(workload, calls=None, seed=SEED):
    ctx = wl.prebuild(workload, seed)
    return worker.run_round(wl, workload, seed, 0, ctx, calls or Untraced())


def describe(workload, seed, rounds=2):
    ctx = wl.prebuild(workload, seed)
    return [json.dumps([j.id, j.kind, j.ring, wl.canon(j.inputs)])
            for r in range(rounds) for j in wl.make_round(workload, seed, r, ctx)]


@pytest.mark.parametrize("workload", ["formal", "stokes"])
def test_tiny_run_passes_its_checks(workload):
    records = one_round(workload)
    assert {r.kind for r in records} == {k for k, _ in wl.MIX[workload]}
    assert all(r.outcome == "pass" for r in records), \
        [(r.job, r.outcome, r.error) for r in records if r.outcome != "pass"]


def test_tiny_numeric_run_checks_every_job():
    # numeric has known defects (ROADMAP item 3), so a few failures are
    # expected; every job must still be run, checked and classified
    records = one_round("numeric")
    assert {r.kind for r in records} == {k for k, _ in wl.MIX["numeric"]}
    assert all(r.outcome in worker.OUTCOMES for r in records)
    assert worker.summary(records)["pass_frac"] >= 0.8


def test_perturbed_exact_result_counts_as_failed(monkeypatch):
    real = wl.pde_taylor

    def perturbed(F, h, Nx, Nz):
        psi = real(F, h, Nx, Nz)
        a = list(psi.a_list)
        a[2] = a[2] + PuiseuxSeries({0: Fraction(1, 10**9)}, trunc=a[2].trunc)
        return BivariateSeries(a_list=tuple(a), Nx=psi.Nx, Nz=psi.Nz)

    monkeypatch.setattr(wl, "pde_taylor", perturbed)
    records = one_round("formal")
    pde = [r for r in records if r.kind == "pde"]
    assert pde and all(r.outcome == "wrong" for r in pde)
    s = worker.summary(records)
    assert s["failed"] == len(pde)
    assert s["pass_frac"] == 1 - len(pde) / len(records)


def test_perturbed_numeric_result_counts_as_failed(monkeypatch):
    real = wl.airy_contour

    def perturbed(z, eps):
        r = real(z, eps)
        return dataclasses.replace(r, value=r.value * (1 + 1e-6))

    monkeypatch.setattr(wl, "airy_contour", perturbed)
    tracer = Tracer()
    records = one_round("numeric", tracer)
    contour = [r for r in records if r.kind == "contour"]
    assert contour and all(r.outcome == "wrong" for r in contour)
    m = worker.traced_metrics(wl, records, tracer, records, {})
    assert m["kind.contour.wrong"] == len(contour)
    assert m["fail_frac"] >= len(contour) / len(records)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_jobs(workload):
    first = describe(workload, SEED)
    assert first == describe(workload, SEED)
    assert first != describe(workload, SEED + 1)


def test_run_of_fixed_length_holds_the_same_sizes_and_rings_for_every_seed():
    def shape(seed, rounds=8):
        ctx = wl.prebuild("formal", seed)
        return sorted((j.kind, j.ring, j.inputs.get("N", j.inputs.get("Nx", j.inputs.get("n"))))
                      for r in range(rounds) for j in wl.make_round("formal", seed, r, ctx, rounds))
    assert shape(1) == shape(2)
    assert describe("formal", 1) != describe("formal", 2)


def test_continuous_inputs_are_stratified_over_the_run():
    rounds = 10
    ctx = wl.prebuild("stokes", SEED)
    lo, hi = wl.STOKES_EXTENT
    first = lo + (hi - lo) / wl.MIX["stokes"][0][1]  # slot 0's extents lie below
    alphas = [j.inputs["alpha"] for r in range(rounds)
              for j in wl.make_round("stokes", SEED, r, ctx, rounds)
              if j.inputs["extent"] < first]
    assert len(alphas) == rounds
    cells = sorted(int(rounds * (a / math.pi + 0.5)) for a in alphas)
    assert cells == list(range(rounds))


def test_harrell_davis_quantile():
    assert worker.hd_quantile([3.0] * 7, 0.9) == pytest.approx(3.0)
    assert worker.hd_quantile(range(1, 102), 0.5) == pytest.approx(51.0)
    xs = [float(x) for x in range(100)]
    assert 85 < worker.hd_quantile(xs, 0.9) < 93


def test_summary_scales_job_times():
    records = one_round("formal")
    plain, doubled = worker.summary(records), worker.summary(records, 2.0)
    assert doubled["jobs_per_s"] == pytest.approx(plain["jobs_per_s"] / 2)
    assert doubled["latency_p90_ms"] == pytest.approx(2 * plain["latency_p90_ms"])
    assert doubled["attempted"] == plain["attempted"]


def test_same_seed_same_counts_and_digest():
    runs = []
    for _ in range(2):
        tracer = Tracer()
        records = one_round("numeric", tracer)
        runs.append((dict(tracer.counts), tracer.busy()[1],
                     [(r.job, r.outcome) for r in records]))
    assert runs[0] == runs[1]
    assert runs[0][0]["airy.airy_contour.nodes"] > 0

    digests = []
    for _ in range(2):
        d = worker.Digest(wl.canon)
        ctx = wl.prebuild("formal", SEED)
        worker.run_round(wl, "formal", SEED, 0, ctx, Untraced(), d.add)
        digests.append(d.report())
    assert digests[0] == digests[1] and digests[0]["jobs"] > 0


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END.values())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    tracer = Tracer()
    records = one_round("numeric", tracer)
    emitted = worker.traced_metrics(wl, records, tracer, records, {})
    emitted.update({"setup.import_s": 0.0, "setup.prebuild_s": 0.0})
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert listed == {name: run.per_layer_unit(name) for name in emitted}


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "formal", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_command_prints_metrics_and_result_line():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "numeric",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(line.startswith("env ") for line in lines)

"""tools/pairs.py: the summary of alternated benchmark pairs, on canned runs."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parent.parent / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

END_TO_END = [{"name": "jobs_per_s", "better": "higher", "bound": 0.25},
              {"name": "latency_p50_ms", "better": "lower", "bound": 0.25}]


def canned(jobs, p50, loop=0.001, failed=0):
    return {"metrics": {"jobs_per_s": jobs, "latency_p50_ms": p50}, "failed": failed,
            "env": {"cpus": 2, "jobs": jobs}, "measured": {"jobs_per_s": jobs / 2, "loop_s": loop}}


def test_a_run_keeps_its_env_line_beside_its_measured_line():
    out = ['env {"cpus": 2, "python": "3.11.7", "seed": 1}',
           'digest {"all": "ab"}',
           'measured {"jobs_per_s": 250.0, "loop_s": 0.0012}',
           "failure hardy_eval: overflow",
           "jobs_per_s 500.0 1/s",
           '{"correct": true, "attempted": 9, "failed": 1, '
           '"metrics": {"jobs_per_s": {"value": 500.0, "unit": "1/s"}}}']
    assert pairs.parse(out) == {"metrics": {"jobs_per_s": 500.0}, "failed": 1,
                                "env": {"cpus": 2, "python": "3.11.7", "seed": 1},
                                "measured": {"jobs_per_s": 250.0, "loop_s": 0.0012}}


def test_summary_arithmetic_on_canned_pairs():
    parent = [canned(100, 5.0), canned(110, 4.0), canned(90, 6.0), canned(105, 5.5),
              canned(95, 4.5, failed=1)]
    change = [canned(120, 4.0), canned(100, 4.5), canned(130, 3.0), canned(125.00004, 5.5),
              canned(118, 4.4)]
    got = pairs.summary(parent, change, END_TO_END)
    jobs, p50 = got["metrics"]["jobs_per_s"], got["metrics"]["latency_p50_ms"]
    assert jobs["parent_runs"] == [100, 110, 90, 105, 95]
    assert jobs["change_runs"] == [120, 100, 130, 125.0, 118]       # rounded to 4 places
    # exclusive quartiles of 5 runs: q1 halfway between the 1st and 2nd of the sorted runs
    assert jobs["parent_q1_median_q3"] == [92.5, 100, 107.5]
    assert jobs["change_q1_median_q3"] == [109, 120, 127.5]
    assert jobs["change_wins"] == 4 and jobs["median_ratio"] == 1.2
    assert jobs["worse_than_bound"] is False
    assert p50["parent_q1_median_q3"] == [4.25, 5.0, 5.75]
    assert p50["change_wins"] == 3      # lower is better; the tie at 5.5 is no win
    assert p50["median_ratio"] == 0.88 and p50["worse_than_bound"] is False
    assert got["failed"] == [[0, 0, 0, 0, 1], [0, 0, 0, 0, 0]]
    raw = got["raw_jobs_per_s"]     # the unscaled rates, half the scaled ones here
    assert raw["parent_q1_median_q3"] == [46.25, 50, 53.75] and raw["change_wins"] == 4
    assert raw["median_ratio"] == 1.2 and "worse_than_bound" not in raw
    assert got["measured"]["change"][0] == {"jobs_per_s": 60, "loop_s": 0.001}
    assert got["env"]["parent"][2] == {"cpus": 2, "jobs": 90}
    assert got["outliers"] == []


def test_a_run_far_from_its_side_is_flagged_and_kept():
    parent = [canned(100, 5.0), canned(250, 2.0), canned(104, 5.0), canned(98, 5.0)]
    change = [canned(60, 9.0, loop=0.002), canned(61, 9.0), canned(59, 9.5), canned(62, 8.0)]
    got = pairs.summary(parent, change, END_TO_END)
    assert got["outliers"] == [
        {"side": "parent", "pair": 2, "figure": "jobs_per_s", "value": 125.0,
         "side_median": 51.0},
        {"side": "change", "pair": 1, "figure": "loop_s", "value": 0.002, "side_median": 0.001}]
    jobs = got["metrics"]["jobs_per_s"]
    assert jobs["parent_runs"][1] == 250 and jobs["parent_q1_median_q3"][1] == 102
    # the change's median is 0.59 of the parent's, past the 0.25 bound
    assert jobs["median_ratio"] == pytest.approx(0.593, abs=1e-3)
    assert jobs["worse_than_bound"] is True
    assert got["metrics"]["latency_p50_ms"]["worse_than_bound"] is True


def test_one_pair_reads_its_own_runs_as_the_quartiles():
    got = pairs.summary([canned(100, 5.0)], [canned(80, 5.0)], END_TO_END)
    assert got["metrics"]["jobs_per_s"]["parent_q1_median_q3"] == [100, 100, 100]
    assert got["metrics"]["jobs_per_s"]["change_wins"] == 0

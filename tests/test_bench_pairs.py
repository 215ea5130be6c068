"""The pair driver's summary: wins by each metric's direction, ties for
neither side, and each side's median and quartiles."""

import importlib.util
from pathlib import Path

DRIVER = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", DRIVER)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "job_s.p50", "better": "lower"}, {"name": "jobs_per_s", "better": "higher"}]


def pair(base_s, head_s):
    return {side: {"metrics": {"job_s.p50": s, "jobs_per_s": 1 / s}}
            for side, s in (("base", base_s), ("head", head_s))}


def test_summary_counts_wins_by_direction_and_ties_for_neither():
    pairs = [pair(4, 2), pair(4, 4), pair(2, 3), pair(8, 1), {"base": {"exit": 2}, "head": {}}]
    got = bench_pairs.summarize(pairs, METRICS)
    assert got["job_s.p50"]["pairs"] == got["jobs_per_s"]["pairs"] == 4
    assert got["job_s.p50"]["head_wins"] == got["jobs_per_s"]["head_wins"] == 2
    assert got["job_s.p50"]["base"] == {"median": 4, "q1": 2.5, "q3": 7}
    assert got["job_s.p50"]["head"]["median"] == 2.5


def test_one_pair_has_its_value_as_every_quartile():
    assert bench_pairs.spread([3.0]) == {"median": 3.0, "q1": 3.0, "q3": 3.0}
    assert bench_pairs.summarize([], METRICS)["jobs_per_s"] == {"pairs": 0}

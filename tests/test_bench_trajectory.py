"""tools/bench_trajectory.py reads every BENCH_*.json of the checkout."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_trajectory.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_trajectory", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_prints_a_row_per_workload_of_every_bench_file():
    out = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT)],
        capture_output=True, text=True, timeout=60, check=True,
    ).stdout.splitlines()
    rows = [line.split() for line in out[1:]]
    want = set()
    for path in ROOT.glob("BENCH_*.json"):
        workloads = json.loads(path.read_text(encoding="utf-8"))["workloads"]
        want |= {(path.stem.removeprefix("BENCH_"), name) for name in workloads}
    assert want
    assert {(row[0], row[1]) for row in rows} == want
    assert len(rows) == len(want)
    for row in rows:
        # pairs, then parent and change medians of wall_s, peak_rss_mb,
        # attempted, then the pairs with a lower change wall_s and whether
        # the median gap is wider than the parent's interquartile range,
        # then the peak_rss_mb change in percent and the attempted ratio
        assert len(row) == 13 and int(row[2]) > 0
        assert all(float(cell) > 0 for cell in row[3:9])
        assert 0 <= int(row[9]) <= int(row[2]) and row[10] in ("yes", "no")
        rss, ops = row[11], float(row[12])
        pct = 100 * (float(row[6]) / float(row[5]) - 1)
        assert rss.rstrip("!").endswith("%") and abs(float(rss.rstrip("%!")) - pct) < 0.1
        assert rss.endswith("!") == (pct > 10)  # BENCHMARK.json's bound is 0.1
        # the printed medians are rounded to whole operations
        assert abs(ops - float(row[8]) / float(row[7])) <= 0.005 + (1 + ops) / float(row[7])


def test_medians_come_from_the_raw_pairs(tmp_path):
    def run(wall, rss, attempted):
        return {"wall_s": wall, "peak_rss_mb": rss, "attempted": attempted}

    pairs = [
        {"seed": 1, "parent": run(0.30, 30.0, 100), "change": run(0.20, 31.0, 120)},
        {"seed": 2, "parent": run(0.34, 30.4, 90), "change": run(0.24, 31.4, 130)},
        {"seed": 3, "parent": run(0.32, 30.2, 95), "change": run(0.22, 31.2, 125)},
    ]
    (tmp_path / "BENCH_b.json").write_text(json.dumps({"workloads": {"search-s23": {"pairs": pairs}}}))
    (tmp_path / "BENCH_a.json").write_text(json.dumps({"workloads": {"analyze": {"pairs": pairs[:2]}}}))
    tool = _load_tool()
    # outside a git checkout the files come in name order
    assert [p.name for p in tool.bench_files(tmp_path)] == ["BENCH_a.json", "BENCH_b.json"]
    [(name, count, medians)] = tool.trajectory(tmp_path / "BENCH_b.json")
    assert (name, count) == ("search-s23", 3)
    assert medians == {
        "wall_s": (0.32, 0.22),
        "peak_rss_mb": (30.2, 31.2),
        "attempted": (95, 125),
    }


def test_claim_rule_counts_lower_pairs_and_compares_the_gap_with_the_spread():
    def pairs(parent, change):
        return [{"parent": {"wall_s": a}, "change": {"wall_s": b}} for a, b in zip(parent, change)]

    tool = _load_tool()
    parent = [0.40, 0.41, 0.42, 0.43, 0.44]  # quartiles 0.41 and 0.43
    # 4 of 5 lower, and a median gap of 0.03 > 0.02
    assert tool.claim_rule(pairs(parent, [0.37, 0.38, 0.39, 0.40, 0.45])) == (4, True)
    # every pair lower, but by 0.01 only: inside the parent's spread
    assert tool.claim_rule(pairs(parent, [0.39, 0.40, 0.41, 0.42, 0.43])) == (5, False)
    assert tool.claim_rule(pairs(parent[:1], [0.3])) == (1, None)


def test_rss_cost_marks_a_change_past_the_bound(tmp_path):
    tool = _load_tool()
    assert tool.rss_bound(tmp_path) is None
    (tmp_path / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": [{"name": "wall_s", "bound": 0.25}, {"name": "peak_rss_mb", "bound": 0.1}]})
    )
    bound = tool.rss_bound(tmp_path)
    assert bound == 0.1

    def medians(rss, ops):
        return {"peak_rss_mb": rss, "attempted": ops}

    assert tool.rss_cost(medians((30.0, 31.5), (100, 150)), bound) == ("+5.0%", "1.50")
    assert tool.rss_cost(medians((30.0, 33.3), (100, 190)), bound) == ("+11.0%!", "1.90")
    assert tool.rss_cost(medians((30.0, 29.7), (100, 90)), None) == ("-1.0%", "0.90")
    assert tool.rss_cost(medians((None, None), (None, None)), bound) == ("-", "-")

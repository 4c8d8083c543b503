"""Print the benchmark trajectory recorded in the BENCH_*.json files.

    python3 tools/bench_trajectory.py [ROOT]

Each BENCH_*.json at the root of a checkout (ROOT, by default the one this
script lives in) records one change as pairs of ``bench/run.py`` results,
parent and change, per workload.  For every file, in the order the commits
added them (files git does not know come last, by name), and for every
workload in it, this prints the number of pairs, the parent and change
medians of ``wall_s`` and ``peak_rss_mb``, and the median number of
operations attempted on each side: a workload that runs more operations in
the same time keeps more per-operation data, so its peak RSS drifts with
the op count.  Two more columns show the rule a claimed gain in ``wall_s``
must meet: the number of pairs whose change ran faster than its parent,
and whether the gap between the medians is wider than the parent's
interquartile range.  The last two show the RSS cost of a faster loop: the
change in median ``peak_rss_mb`` as a percentage of the parent's, marked
``!`` when it exceeds the bound ROOT/BENCHMARK.json gives that metric, and
the ratio of the median operations attempted, change over parent.  Only the
raw ``pairs`` are read, which every file has.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

COLUMNS = (
    ("wall_s", "{:.3f}"),
    ("peak_rss_mb", "{:.2f}"),
    ("attempted", "{:.0f}"),
)


def bench_files(root):
    """The BENCH_*.json paths under root, in the order commits added them."""
    try:
        log = subprocess.run(
            ["git", "-C", str(root), "log", "--reverse", "--diff-filter=A",
             "--format=", "--name-only", "--", "BENCH_*.json"],
            capture_output=True, text=True, check=True,
        ).stdout.split()
    except (OSError, subprocess.CalledProcessError):
        log = []
    rank = {}
    for name in log:
        rank.setdefault(name, len(rank))
    files = sorted(Path(root).glob("BENCH_*.json"), key=lambda p: p.name)
    return sorted(files, key=lambda p: rank.get(p.name, len(rank)))


def _median(pairs, side, metric):
    values = [pair[side][metric] for pair in pairs if metric in pair.get(side, {})]
    return statistics.median(values) if values else None


def _workloads(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["workloads"]


def claim_rule(pairs, metric="wall_s"):
    """(pairs where the change is lower, median gap wider than the parent's IQR).

    The quartiles interpolate linearly between the parent's sorted values;
    with fewer than two of them there is no spread to compare with (None).
    """
    both = [pair for pair in pairs if metric in pair.get("parent", {}) and metric in pair.get("change", {})]
    lower = sum(pair["change"][metric] < pair["parent"][metric] for pair in both)
    parent = [pair["parent"][metric] for pair in both]
    if len(parent) < 2:
        return lower, None
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    gap = statistics.median(parent) - statistics.median(pair["change"][metric] for pair in both)
    return lower, gap > q3 - q1


def trajectory(path):
    """(workload, pairs, {metric: (parent median, change median)}) per workload."""
    rows = []
    for name, data in _workloads(path).items():
        pairs = data["pairs"]
        medians = {
            metric: (_median(pairs, "parent", metric), _median(pairs, "change", metric))
            for metric, _ in COLUMNS
        }
        rows.append((name, len(pairs), medians))
    return rows


def rss_bound(root):
    """The bound BENCHMARK.json under root gives peak_rss_mb (a fraction), or None."""
    try:
        with open(Path(root) / "BENCHMARK.json", encoding="utf-8") as fh:
            metrics = json.load(fh)["end_to_end"]
    except (OSError, ValueError, KeyError):
        return None
    return next((m.get("bound") for m in metrics if m.get("name") == "peak_rss_mb"), None)


def rss_cost(medians, bound):
    """(peak_rss_mb change in % of the parent, marked ! past bound; attempted ratio) as cells."""
    (rss_p, rss_c), (ops_p, ops_c) = medians["peak_rss_mb"], medians["attempted"]
    rss = "-"
    if rss_p and rss_c is not None:
        pct = 100 * (rss_c / rss_p - 1)
        rss = f"{pct:+.1f}%" + ("!" if bound is not None and pct > 100 * bound else "")
    return rss, "-" if not ops_p or ops_c is None else f"{ops_c / ops_p:.2f}"


def _cell(fmt, value):
    return "-" if value is None else fmt.format(value)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    files = bench_files(root)
    if not files:
        print(f"no BENCH_*.json under {root}", file=sys.stderr)
        return 1
    head = ["file", "workload", "pairs"]
    for metric, _ in COLUMNS:
        head += [f"{metric} parent", f"{metric} change"]
    head += ["wall_s lower", "gap>iqr", "rss change", "ops ratio"]
    bound = rss_bound(root)
    table = [head]
    for path in files:
        workloads = _workloads(path)
        for name, count, medians in trajectory(path):
            row = [path.stem.removeprefix("BENCH_"), name, str(count)]
            for metric, fmt in COLUMNS:
                row += [_cell(fmt, value) for value in medians[metric]]
            lower, wider = claim_rule(workloads[name]["pairs"])
            row += [str(lower), "-" if wider is None else "yes" if wider else "no"]
            row += rss_cost(medians, bound)
            table.append(row)
    widths = [max(len(row[i]) for row in table) for i in range(len(head))]
    for row in table:
        cells = [cell.ljust(w) if i < 2 else cell.rjust(w) for i, (cell, w) in enumerate(zip(row, widths))]
        print("  ".join(cells).rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())

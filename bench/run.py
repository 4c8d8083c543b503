"""picard benchmark: three closed-loop workloads, timed end to end or traced per layer.

    python3 bench/run.py --workload analyze --seed 3 --seconds 35 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Each workload is a closed loop with one client: the next operation starts
when the last one ends. Before timing, every bundled fixture must PASS, and
every operation is checked against the reference in bench/reference.

Workloads (see bench/README.md for why each was chosen):

- search-s23: ``run_search(S={2,3}, H=12, workers=2)``, repeated.
- analyze: ``normalize`` + ``global_conductor`` per curve of the analyze
  pool, in the seed's stratified order.
- witness-p3: ``normalize`` + ``analyze_p3`` with the bundled p = 3 chart
  per member of the family x^4 + 3b3 x^3 + 3b2 x^2 + 9b1 x + (1+9b0) in
  its pool, in the seed's stratified order.

The search inputs are fixed by S and H, so the seed does not change them.

With ``--trace 0`` the run measures for ``--seconds`` and prints the
end-to-end metrics. Every time in them is taken at the reference speed: a
thread times a fixed reference loop on the main thread's CPU every
SAMPLE_PERIOD_S, and each operation's wall time is scaled by REFERENCE_S
over the loop's mean cost while it ran (see ``Speedometer``). With
``--trace 1`` it runs a fixed slice of the workload untraced and traced,
alternating (searches with one worker, so every span is in this process),
then once more counting the GF kernels; it prints the per-layer metrics
and the tracing overhead, and writes the spans to bench/_work. The last
line of stdout is the JSON result.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import traceback
from bisect import bisect_left, bisect_right
from contextlib import nullcontext
from fractions import Fraction
from itertools import cycle, islice
from pathlib import Path
from time import perf_counter, thread_time

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORKLOADS = ("search-s23", "analyze", "witness-p3")

SETUP_RUNS = 21
# A pooled workload runs whole stratified passes of PASS curves, so every
# quantile sees the same cost mix; wall_s is the median time of a pass (of a
# search, for the searches). A traced run does the first TRACE_ITEMS curves.
PASS = {"analyze": 100, "witness-p3": 1000}
TRACE_ITEMS = {"analyze": 30, "witness-p3": 300}

# A scaled time reads as on a host where reference_work takes REFERENCE_S of
# CPU time, a round figure near its usual cost on the 2-core host the benchmark
# was built on.
REFERENCE_S = 0.001
REFERENCE_ITERS = 1600
SAMPLE_PERIOD_S = 0.05

# Prints the time to import picard and load its fixtures, then the cost of
# reference_work in the same process, to scale that time by.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import picard
from picard.fixtures import load_fixtures
load_fixtures()
took = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
from run import reference_work
reference_work()
c0 = time.thread_time()
reference_work()
reference_work()
print(took, (time.thread_time() - c0) / 2)
"""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def reference_work():
    """A fixed pure-Python loop of int, dict and Fraction work, like picard's own.

    The Fractions stay small, so every call does the same work.
    """
    acc, table, frac = 1, {}, Fraction(0)
    for i in range(1, REFERENCE_ITERS + 1):
        acc = (acc * 1103515245 + i) % 2147483647
        table[acc & 63] = i
        if i % 64 == 0:
            frac = Fraction(acc % 10007, i) * Fraction(i + 1, 3) - frac / 2
            frac = Fraction(frac.numerator % 1000003, frac.denominator % 1009 + 1)
    return frac


def _read_proc(path):
    """The text of a /proc file, or "" if its thread or process has just ended."""
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read()
    except (FileNotFoundError, ProcessLookupError):
        return ""


class Speedometer:
    """Samples how fast the CPU runs picard's main thread, from a thread of its own.

    Every SAMPLE_PERIOD_S the thread moves to the CPU the main thread last
    ran on, takes the GIL and times reference_work in thread CPU time, so
    the sample shows how fast that CPU runs Python, not whether this
    process had it. It skips the moment while any child process (a
    search's pool worker) is running, so the program's own load on the
    other CPU is never taken for a slow host. ``scale`` turns a wall time
    into one at the reference speed. The thread costs the program about
    2-3 % of its time, the same on every commit.
    """

    def __init__(self):
        self.at, self.cost = [], []
        self._main = threading.get_native_id()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample_until_stopped)

    def __enter__(self):
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.sample()

    def _sample_until_stopped(self):
        while not self._stop.wait(SAMPLE_PERIOD_S):
            if not self._child_running():
                os.sched_setaffinity(0, {self._main_cpu()})
                self.sample()

    def _main_cpu(self):
        return int(_read_proc(f"/proc/self/task/{self._main}/stat").rpartition(")")[2].split()[36])

    def _child_running(self):
        kids = []
        for task in os.listdir("/proc/self/task"):
            kids += _read_proc(f"/proc/self/task/{task}/children").split()
        return any(_read_proc(f"/proc/{kid}/stat").rpartition(")")[2].split()[:1] == ["R"] for kid in kids)

    def sample(self):
        c0 = thread_time()
        reference_work()
        cost = thread_time() - c0
        self.at.append(perf_counter())
        self.cost.append(cost)

    def scale(self, t0, t1):
        """REFERENCE_S over the loop's mean cost in [t0, t1], or at the sample nearest it."""
        lo, hi = bisect_left(self.at, t0), bisect_right(self.at, t1)
        if lo == hi:
            near = min((k for k in (lo - 1, lo) if 0 <= k < len(self.at)),
                       key=lambda k: abs(self.at[k] - (t0 + t1) / 2))
            lo, hi = near, near + 1
        return REFERENCE_S * (hi - lo) / sum(self.cost[lo:hi])


def measure_setup():
    """Scaled times to import picard and load its fixtures in fresh interpreters."""
    times = []
    for _ in range(SETUP_RUNS):
        out = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(BENCH)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        took, cost = map(float, out.stdout.split()[-2:])
        times.append(took * REFERENCE_S / cost)
    return times


def peak_rss_mb():
    """Largest resident set of this process or any waited-for child, in MiB."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024


def p50_p90(values):
    """Median and 90th percentile, interpolated within the data, never beyond it."""
    if len(values) == 1:
        return values[0], values[0]
    return statistics.median(values), statistics.quantiles(values, n=10, method="inclusive")[8]


def unit_sums(times, unit):
    return [sum(times[i:i + unit]) for i in range(0, len(times), unit)]


class Loop:
    """Closed loop over items: time each op, check each result outside the timing."""

    def __init__(self, op, check):
        self.op = op
        self.check = check
        self.times = []
        self.spans = []
        self.failed = 0

    def step(self, item):
        t0 = perf_counter()
        try:
            out = self.op(item)
        except Exception:
            self._took(t0)
            self.failed += 1
            traceback.print_exc()
            return
        self._took(t0)
        if not self.check(item, out):
            self.failed += 1
            print(f"MISMATCH on {item!r:.200}: got {out!r:.500}", file=sys.stderr)

    def _took(self, t0):
        t1 = perf_counter()
        self.times.append(t1 - t0)
        self.spans.append((t0, t1))

    def run(self, items, seconds, unit):
        """Step through whole units of `unit` items for about `seconds`.

        At least one unit runs; another starts only if, taking as long as
        the last, it would end within `seconds`.
        """
        start = last = perf_counter()
        for item in items:
            self.step(item)
            if len(self.times) % unit == 0:
                now = perf_counter()
                if now - start + (now - last) > seconds:
                    break
                last = now
        return self


def build(name, seed, ref, trace):
    """(items, op, check, arrivals) for one workload.

    For a search, op appends to `arrivals` the times from its start at
    which the records arrived; for a pooled workload, arrivals is None.
    """
    import workloads as w

    if name in w.SEARCHES:
        want = ref["searches"][name]
        w.WORK_DIR.mkdir(exist_ok=True)
        fifo = w.WORK_DIR / f"{name}-{os.getpid()}.fifo"
        cfg = w.search_config(name, workers=1 if trace else None)
        arrivals = []

        def op(c):
            got = []
            arrivals.append(got)  # stays empty if the search raises
            written, sha, times = w.search_op(c, fifo)
            got.extend(times)
            return written, sha

        def check(_, out):
            return out == (want["records"], want["sha256"])

        return cycle([cfg]), op, check, arrivals
    op = w.pooled_op(name)
    return (
        cycle(w.stratified_order(name, ref[name], seed)),
        lambda entry: op(entry["curve"]),
        lambda entry, got: w.digest(got) == entry["sha256"],
        None,
    )


def end_to_end(name, seed, seconds, ref):
    """Metrics from scaled times: each op's, and for a search each record's arrival."""
    items, op, check, arrivals = build(name, seed, ref, trace=False)
    unit = PASS.get(name, 1)
    loop = Loop(op, check)
    with Speedometer() as meter:
        setup = measure_setup()
        loop.run(items, seconds, unit)
    scales = [meter.scale(t0, t1) for t0, t1 in loop.spans]
    times = [t * k for t, k in zip(loop.times, scales)]
    if arrivals is None:
        latency = times
    else:
        latency = [a * k for got, k in zip(arrivals, scales) for a in got]
    p50, p90 = p50_p90([1000 * t for t in latency])
    metrics = {
        "wall_s": (statistics.median(unit_sums(times, unit)), "s"),
        "curve_ms_p50": (p50, "ms"),
        "curve_ms_p90": (p90, "ms"),
        "setup_s": (statistics.median(setup), "s"),
    }
    unscaled = statistics.median(unit_sums(loop.times, unit))
    print(f"# wall_s unscaled {unscaled:.6g} s; reference loop took {statistics.median(meter.cost):.4g} s")
    return [loop], metrics


def traced(name, seed, ref):
    """A fixed slice, untraced and spanned in ABBA order, then with kernels counted."""
    import tracing
    import workloads as w

    items, op, check, _ = build(name, seed, ref, trace=True)
    items = list(islice(items, TRACE_ITEMS.get(name, 2)))
    tracer = tracing.Tracer()
    plain = Loop(op, check)
    spanned = Loop(tracer.wrap(tracing.ROOT_SPAN, op), check)
    for i, item in enumerate(items):
        for loop in (plain, spanned) if i % 2 == 0 else (spanned, plain):
            with tracer.layers() if loop is spanned else nullcontext():
                loop.step(item)
    counted = Loop(op, check)
    with tracer.kernels():
        for item in items:
            counted.step(item)
    w.WORK_DIR.mkdir(exist_ok=True)
    tracer.dump(w.WORK_DIR / f"trace-{name}-seed{seed}.json")
    metrics = {
        key: (value, "s" if key.endswith("_s") else "ratio" if key.endswith("_ratio") else "count")
        for key, value in tracer.layer_metrics().items()
    }
    untraced_s, traced_s = sum(plain.times), sum(spanned.times)
    metrics["trace.untraced_wall_s"] = (untraced_s, "s")
    metrics["trace.traced_wall_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return [plain, spanned, counted], metrics


def fixture_gate():
    from picard.fixtures import run_fixtures

    lines = []
    run_fixtures(emit=lines.append)
    verdicts = [line.split()[0] for line in lines if line.startswith(("PASS", "FAIL"))]
    for line in lines:
        if line.startswith("FAIL"):
            print(f"fixture {line}", file=sys.stderr)
    return len(verdicts), verdicts.count("FAIL")


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "picard" / "__init__.py").is_file():
        print(f"error: no picard sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as w

    loadavg = os.getloadavg()[0]
    print(
        f"# picard benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}; python {platform.python_version()}, "
        f"nproc {os.cpu_count()}, loadavg at start {loadavg:.2f}"
    )
    fixtures, fixtures_failed = fixture_gate()
    print(f"# fixtures: {fixtures - fixtures_failed}/{fixtures} PASS")
    if fixtures_failed:
        result = {"correct": False, "attempted": fixtures, "failed": fixtures_failed, "metrics": {}}
        print(json.dumps(result))
        return 1

    ref = w.load_reference()
    try:
        if args.trace:
            loops, metrics = traced(args.workload, args.seed, ref)
        else:
            loops, metrics = end_to_end(args.workload, args.seed, args.seconds, ref)
            metrics["peak_rss_mb"] = (peak_rss_mb(), "MiB")
    finally:
        for leftover in w.WORK_DIR.glob(f"*-{os.getpid()}.fifo"):
            leftover.unlink()

    attempted = sum(len(loop.times) for loop in loops)
    failed = sum(loop.failed for loop in loops)
    for key, (value, unit) in metrics.items():
        print(f"{key} {value:.6g} {unit}")
    print(f"error_rate {failed / attempted:.6g} ratio ({failed}/{attempted} operations)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark harness at tiny sizes (about 5 s).

    python3 bench/selftest.py

Checks the closed loop's failure counting, the speedometer, the tracer (span nesting, self
times, counters, restoring the program), the seeded inputs, and that a
whole run at tiny sizes prints exactly the metrics BENCHMARK.json names.
Exits 1 on the first failed check.
"""

import contextlib
import io
import json
import subprocess
import sys
from itertools import count, islice
from pathlib import Path
from time import perf_counter, sleep

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import picard.localfield  # noqa: E402
import picard.search  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as w  # noqa: E402

TINY_SEARCH = {"primes": (3,), "height": 3}


def expect(cond, what):
    if not cond:
        raise SystemExit(f"FAIL {what}")
    print(f"ok   {what}")


def check_loop():
    def op(x):
        if x == 2:
            raise ValueError("boom")
        return x * x

    loop = run.Loop(op, lambda x, got: got == x * x and x != 3)
    with contextlib.redirect_stderr(io.StringIO()):
        for x in range(5):
            loop.step(x)
    expect(len(loop.times) == 5 and loop.failed == 2, "loop counts a raise and a mismatch as failed")
    loop = run.Loop(lambda x: x, lambda x, got: True).run(range(1000), seconds=0, unit=3)
    expect(len(loop.times) == 3, "loop runs one whole unit when the time is up")
    loop = run.Loop(lambda x: x, lambda x, got: True).run(count(), seconds=0.05, unit=300)
    expect(len(loop.times) % 300 == 0 and len(run.unit_sums(loop.times, 300)) > 1,
           "loop stops only at a unit boundary")


def check_speedometer():
    with run.Speedometer() as meter:
        t0 = perf_counter()
        sleep(4 * run.SAMPLE_PERIOD_S)
        t1 = perf_counter()
    expect(len(meter.cost) >= 4 and meter.at == sorted(meter.at), "speedometer samples in time order")
    inside = [c for a, c in zip(meter.at, meter.cost) if t0 <= a <= t1]
    expect(abs(meter.scale(t0, t1) - run.REFERENCE_S * len(inside) / sum(inside)) < 1e-12,
           "scale uses the samples taken while the op ran")
    expect(meter.scale(meter.at[-1] + 1, meter.at[-1] + 2) == run.REFERENCE_S / meter.cost[-1],
           "scale falls back to the nearest sample")
    with run.Speedometer() as meter:
        child = subprocess.Popen([sys.executable, "-c", "while True: pass"])
        try:
            sleep(0.2)
            expect(meter._child_running(), "a busy child process is seen")
            n = len(meter.cost)
            sleep(4 * run.SAMPLE_PERIOD_S)
            expect(len(meter.cost) == n, "no sample is taken while a child process runs")
        finally:
            child.kill()
            child.wait()


def tiny_search(workers):
    cfg = picard.SearchConfig(primes=TINY_SEARCH["primes"], height=TINY_SEARCH["height"], workers=workers)
    return cfg, *w.search_op(cfg, w.WORK_DIR / "selftest.fifo")


def check_tracer():
    w.WORK_DIR.mkdir(exist_ok=True)
    cfg, written, sha, arrivals = tiny_search(1)
    expect(tiny_search(2)[1:3] == (written, sha), "search bytes agree with 1 and 2 workers")
    expect(len(arrivals) == written and arrivals == sorted(arrivals), "every record arrives, in order")
    original, original_mul = picard.search.normalize, picard.localfield.GF.mul
    tracer = tracing.Tracer()
    curves = list(islice(w.analyze_candidates(seed=1), 3))
    fifo = w.WORK_DIR / "selftest.fifo"
    with tracer.layers():
        traced_written = tracer.wrap(tracing.ROOT_SPAN, lambda c: w.search_op(c, fifo))(cfg)[0]
        for coeffs in curves:
            tracer.wrap(tracing.ROOT_SPAN, w.analyze_op)(coeffs)
    fifo.unlink()
    expect(picard.search.normalize is original, "leaving layers() puts the program's functions back")
    expect(tracer.counts["localfield.gf.mul.calls"] == 0, "layers() leaves the GF kernels alone")
    with tracer.kernels():
        for coeffs in curves:
            w.analyze_op(coeffs)
    expect(picard.localfield.GF.mul is original_mul, "leaving kernels() puts GF back")
    expect(traced_written == written, "traced search writes the same records")
    m = tracer.layer_metrics()
    expect(m["search.scan_slice.calls"] == 2 * TINY_SEARCH["height"] + 1, "one scan span per a3 slice")
    expect(m["search.scan_slice.hits"] >= written, "scan hits count every candidate")
    expect(m["curves.equivalent.hits"] <= m["curves.equivalent.calls"], "dedup hits within calls")
    expect(m["bench.op.calls"] == 4, "one root span per operation")
    roots = sum(e - s for name, s, e, parent in tracer.spans if parent == -1)
    selfs = sum(v for k, v in m.items() if k.endswith(".self_s"))
    expect(abs(roots - selfs) < 1e-6 * max(1.0, roots), "self times add up to the root spans")
    expect(all(v >= -1e-9 for k, v in m.items() if k.endswith(".self_s")), "self times are non-negative")
    expect(m["localfield.gf.mul.calls"] > 0, "GF kernels are counted")


def check_inputs(ref):
    for name, spec in w.POOLS.items():
        pool = ref[name]
        a, b = w.stratified_order(name, pool, 1), w.stratified_order(name, pool, 2)
        expect(a == w.stratified_order(name, pool, 1) and a != b, f"{name} order is a function of the seed")
        held = w.stratified_order(name, pool, spec["held_out_seed"])
        dev = {tuple(e["curve"]) for e in a}
        expect(not dev & {tuple(e["curve"]) for e in held}, f"{name} held-out seed draws only held-out curves")
        expect(len(a) == len(pool) - spec["held_out"], f"{name} order visits every dev curve once")
        ranked = sorted(pool[: -spec["held_out"]], key=lambda e: e["ms"])
        stratum = {tuple(e["curve"]): i // spec["stratum"] for i, e in enumerate(ranked)}
        first = [stratum[tuple(e["curve"])] for e in a[: len(a) // spec["stratum"]]]
        expect(len(set(first)) == len(first), f"{name} passes take one curve per cost stratum")
    op = w.pooled_op("witness-p3")
    expect(all(op(e["curve"]) == w.WITNESS_EXPECT for e in ref["witness-p3"][:3]),
           "witness-p3 members give type (a), f_3 = 6")


def run_main(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(argv)
    return code, json.loads(buf.getvalue().strip().splitlines()[-1])


def check_runs():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    run.PASS = {"analyze": 3, "witness-p3": 5}
    run.TRACE_ITEMS = {"analyze": 2, "witness-p3": 3}
    run.SETUP_RUNS = 1
    _, written, sha, _ = tiny_search(1)
    w.SEARCHES["search-s23"] = dict(TINY_SEARCH, workers=2)
    real_load = w.load_reference

    def tiny_reference():
        ref = real_load()
        ref["searches"]["search-s23"] = {"records": written, "sha256": sha}
        return ref

    w.load_reference = tiny_reference
    for name in run.WORKLOADS:
        for trace, names in ((0, e2e), (1, layers)):
            code, res = run_main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
            expect(code == 0 and res["correct"] and res["failed"] == 0, f"{name} trace={trace} runs correct")
            expect(set(res["metrics"]) == names, f"{name} trace={trace} prints exactly the listed metrics")


def main():
    check_loop()
    check_speedometer()
    check_tracer()
    check_inputs(w.load_reference())
    check_runs()
    print("selftest passed")


if __name__ == "__main__":
    main()

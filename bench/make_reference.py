"""Record the reference outputs the benchmark checks against.

    python3 bench/make_reference.py

Run from the root of a checkout whose results are known to be right. It
writes bench/reference/reference.json (search digests, and where and when
it was recorded) and, per pooled workload, bench/reference/<name>-pool.jsonl:
one curve per line with the digest of its checked output and its cost in
ms at the reference speed, which workloads.stratified_order uses. Takes
about 7 minutes on a 2-core machine.
"""

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def record_pool(w, name, candidates):
    """The first POOLS[name]["size"] separable candidates with digest and cost.

    The cost is the curve's time at the reference speed, as the benchmark
    scales it, so the cost strata hold curves of like cost whatever the
    host did while they ran.
    """
    from picard import InseparableCurveError
    from run import Speedometer

    op = w.pooled_op(name)
    pool, spans = [], []
    with Speedometer() as meter:
        for coeffs in candidates:
            if len(pool) == w.POOLS[name]["size"]:
                break
            t0 = time.perf_counter()
            try:
                out = op(coeffs)
            except InseparableCurveError:
                continue
            spans.append((t0, time.perf_counter()))
            if name == "witness-p3" and out != w.WITNESS_EXPECT:
                raise SystemExit(f"witness-p3 member {coeffs} gave {out}, want {w.WITNESS_EXPECT}")
            pool.append({"curve": coeffs, "sha256": w.digest(out)})
            if len(pool) % 200 == 0:
                print(f"{name} pool: {len(pool)}", flush=True)
    for entry, (t0, t1) in zip(pool, spans):
        entry["ms"] = round((t1 - t0) * meter.scale(t0, t1) * 1000, 2)
    return pool


def main():
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as w

    ref = {
        "meta": {
            "commit": _commit(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "loadavg_at_start": os.getloadavg()[0],
            "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        },
        "searches": {},
    }
    w.WORK_DIR.mkdir(exist_ok=True)
    fifo = w.WORK_DIR / "reference-search.fifo"
    for name in w.SEARCHES:
        written, sha, _ = w.search_op(w.search_config(name), fifo)
        ref["searches"][name] = {"records": written, "sha256": sha}
        print(f"{name}: {ref['searches'][name]}", flush=True)
    fifo.unlink()

    pools = {
        "analyze": record_pool(w, "analyze", w.analyze_candidates()),
        "witness-p3": record_pool(w, "witness-p3", w.witness_candidates()),
    }
    w.REF_DIR.mkdir(exist_ok=True)
    with open(w.REF_DIR / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    for name, pool in pools.items():
        with open(w.pool_path(name), "w", encoding="utf-8") as fh:
            for entry in pool:
                fh.write(json.dumps(entry, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()

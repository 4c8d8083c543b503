"""Check every entry of the benchmark's curve pools against its recorded digest.

Runs each ``analyze`` and ``witness-p3`` pool entry of ``bench/reference/``
through ``bench/workloads.py``'s ``pooled_op`` and ``digest``, the same check
the benchmark makes, and compares the result with the recorded sha256. It
reads the reference files and changes none.

Usage:

    python tools/check_pool_digests.py

Prints one line per pool, with the seconds its entries took, and the first
mismatches, and exits 1 when any entry does not match.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402

SHOWN = 10  # mismatches listed per pool


def check(name, limit=None):
    """(entries checked, mismatches) for the pool `name`, its first `limit` entries or all.

    A mismatch is (index, curve, recorded digest, computed digest or the
    exception's repr).
    """
    with open(workloads.pool_path(name), encoding="utf-8") as fh:
        entries = [json.loads(line) for line in fh if line.strip()][:limit]
    op = workloads.pooled_op(name)
    bad = []
    for i, entry in enumerate(entries):
        try:
            got = workloads.digest(op(entry["curve"]))
        except Exception as ex:  # a crash is a mismatch too
            got = repr(ex)
        if got != entry["sha256"]:
            bad.append((i, entry["curve"], entry["sha256"], got))
    return len(entries), bad


def main():
    failed = False
    for name in workloads.POOLS:
        t0 = time.perf_counter()
        n, bad = check(name)
        took = time.perf_counter() - t0
        print(f"{name}: {n - len(bad)}/{n} digests match in {took:.2f} s")
        for i, curve, want, got in bad[:SHOWN]:
            print(f"  entry {i} {curve}: recorded {want}, got {got}")
        failed |= bool(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

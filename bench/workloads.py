"""The benchmark's workloads: seeded inputs, one operation each, and checks.

Every operation goes through picard's public functions only and is checked
against a reference recorded by make_reference.py:

- search-s23: one ``run_search`` call, writing its JSONL into
  a FIFO that a reader thread drains, noting when each record arrives; the
  bytes must hash to the recorded digest.
- analyze: ``normalize`` plus ``global_conductor`` for one curve of the
  analyze pool; ``to_dict()`` must hash to the digest recorded for it.
- witness-p3: ``normalize`` plus ``analyze_p3`` with the bundled
  ``potgood-p3-f6`` chart for one pooled member of the family
  x^4 + 3b3 x^3 + 3b2 x^2 + 9b1 x + (1 + 9b0), |b_i| <= 20; status, type and
  f_3 must hash to the digest recorded for it (type (a), f_3 = 6 for all).

The caller puts the checkout's ``src`` first on ``sys.path`` before importing
this module, so ``picard`` is the code under test.
"""

import hashlib
import json
import os
import random
import threading
from pathlib import Path
from time import perf_counter

import picard
import picard.conductor
import picard.curves
from picard.fixtures import load_fixtures

REF_DIR = Path(__file__).resolve().parent / "reference"
WORK_DIR = Path(__file__).resolve().parent / "_work"  # outputs of runs, not tracked

SEARCHES = {
    "search-s23": {"primes": (2, 3), "height": 12, "workers": 2},
}

# Each pool is drawn once from POOL_SEED and recorded with digests and costs
# by make_reference.py; the last `held_out` entries are used only by the
# held-out seed.
POOL_SEED = 20261017
POOLS = {
    "analyze": {"size": 1200, "held_out": 200, "stratum": 10, "held_out_seed": 1701},
    "witness-p3": {"size": 3600, "held_out": 600, "stratum": 3, "held_out_seed": 1986},
}
ANALYZE_HEIGHT = 12
WITNESS_FIXTURE = "potgood-p3-f6"
WITNESS_B = 20
WITNESS_EXPECT = {"status": "computed", "type": "a", "f_p": 6}


def digest(obj):
    """Leading 64 bits of the sha256 of obj's canonical JSON form, in hex."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def pool_path(name):
    return REF_DIR / f"{name}-pool.jsonl"


def load_reference():
    with open(REF_DIR / "reference.json", encoding="utf-8") as fh:
        ref = json.load(fh)
    for name in POOLS:
        with open(pool_path(name), encoding="utf-8") as fh:
            ref[name] = [json.loads(line) for line in fh if line.strip()]
    return ref


# --- search ---------------------------------------------------------------


def search_config(name, workers=None):
    spec = SEARCHES[name]
    return picard.SearchConfig(
        primes=spec["primes"],
        height=spec["height"],
        workers=spec["workers"] if workers is None else workers,
    )


def search_op(cfg, fifo):
    """One search writing its JSONL into the FIFO at `fifo`.

    Returns (records written, sha256 of the bytes, seconds from the call
    until each record was read). A reader thread drains the FIFO as
    run_search flushes it, once per a3 slice.
    """
    if not fifo.is_fifo():
        os.mkfifo(fifo)
    chunks, arrivals = [], []
    rfd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    keep = os.open(fifo, os.O_WRONLY)  # no end of file before run_search has opened it too
    os.set_blocking(rfd, True)

    def drain():
        while data := os.read(rfd, 1 << 16):
            now = perf_counter()
            chunks.append(data)
            arrivals.extend([now] * data.count(b"\n"))

    reader = threading.Thread(target=drain)
    reader.start()
    t0 = perf_counter()
    try:
        written = picard.run_search(cfg, fifo)[0]
    finally:
        os.close(keep)
        reader.join()
        os.close(rfd)
    return written, hashlib.sha256(b"".join(chunks)).hexdigest(), [t - t0 for t in arrivals]


# --- pooled curve workloads ----------------------------------------------


def _distinct(draw, seed):
    """Endless stream of distinct coefficient lists draw(rng) for a seeded rng."""
    rng = random.Random(seed)
    seen = set()
    while True:
        coeffs = draw(rng)
        if tuple(coeffs) not in seen:
            seen.add(tuple(coeffs))
            yield coeffs


def analyze_candidates(seed=POOL_SEED):
    """Monic quartics with |a_i| <= ANALYZE_HEIGHT."""
    return _distinct(
        lambda rng: [1] + [rng.randint(-ANALYZE_HEIGHT, ANALYZE_HEIGHT) for _ in range(4)], seed
    )


def witness_candidates(seed=POOL_SEED):
    """x^4 + 3b3 x^3 + 3b2 x^2 + 9b1 x + (1 + 9b0) with |b_i| <= WITNESS_B."""

    def draw(rng):
        b3, b2, b1, b0 = (rng.randint(-WITNESS_B, WITNESS_B) for _ in range(4))
        return [1, 3 * b3, 3 * b2, 9 * b1, 1 + 9 * b0]

    return _distinct(draw, seed)


def analyze_op(coeffs):
    """The ``picard analyze`` path for one curve: normalize, then every prime."""
    curve, _ = picard.curves.normalize(picard.poly_from_ints(coeffs))
    return picard.conductor.global_conductor(curve).to_dict()


def bundled_witness():
    """The bundled p = 3 witness, untied from its curve so it applies to the family."""
    for fix in load_fixtures():
        if fix["name"] == WITNESS_FIXTURE:
            data = dict(fix["witness"])
            data.pop("curve", None)
            return picard.WildWitness.from_dict(data)
    raise LookupError(f"bundled fixture {WITNESS_FIXTURE} is missing")


def witness_op(coeffs, witness):
    """normalize, then p = 3 with the witness; returns the checked fields."""
    curve, _ = picard.curves.normalize(picard.poly_from_ints(coeffs))
    rep = picard.conductor.analyze_p3(curve, witness)
    return {"status": rep.status, "type": rep.reduction_type, "f_p": rep.f_lo}


def pooled_op(name):
    """coeffs -> checked output, for the pooled workload `name`."""
    if name == "analyze":
        return analyze_op
    witness = bundled_witness()
    return lambda coeffs: witness_op(coeffs, witness)


def stratified_order(name, pool, seed):
    """Pool entries in the order a run of workload `name` with this seed visits them.

    The dev part of the pool (or, for the held-out seed, the held-out part)
    is cut into strata of `stratum` entries of similar recorded cost. Pass j
    of the order takes one random entry from every stratum, in a random
    stratum order, so every pass spans the whole cost range and per-curve
    quantiles vary little from seed to seed.
    """
    spec = POOLS[name]
    held = spec["held_out"]
    part = pool[-held:] if seed == spec["held_out_seed"] else pool[:-held]
    ranked = sorted(part, key=lambda entry: entry["ms"])
    size = spec["stratum"]
    strata = [ranked[i:i + size] for i in range(0, len(ranked), size)]
    rng = random.Random(seed)
    for stratum in strata:
        rng.shuffle(stratum)
    order = []
    for j in range(size):
        visit = list(range(len(strata)))
        rng.shuffle(visit)
        order.extend(strata[s][j] for s in visit if j < len(strata[s]))
    return order

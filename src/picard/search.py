"""Bounded-height enumeration of Picard curves with S-unit discriminant.

Iterates monic integral quartics x^4 + a3 x^3 + a2 x^2 + a1 x + a0 with
|a_i| <= height, keeps the separable ones whose discriminant is supported
on the prime set S, keeps one curve per class under scaling + translation,
normalizes it, and analyzes it at its bad primes.

The work runs as two kinds of task, in a process pool when workers > 1 and
in-process otherwise.  ``keyed_slice`` scans one a3 slice and returns each
hit with its ``class_key``, as ints: a hit's key is read off its own
coefficients, since ``normalize`` moves a monic integral quartic only where
p^36 divides its discriminant, and only such a hit is normalized for its
key.  ``analyze_slice`` normalizes the retained hits of one slice and
analyzes each at its bad primes.  The writer keeps everything stateful: it
takes the slices in order, drops a hit whose class key it has seen,
submits one analysis task for the rest of the slice, and writes the
records in enumeration order, flushing after each slice.  Output order is
coefficient-lexicographic and byte-identical across reruns and worker
counts.
"""

import json
from collections import deque
from contextlib import contextmanager
from itertools import islice

from .conductor import analyze_prime
from .curves import (
    PicardCurve,
    equivalent,  # noqa: F401  (unused here; bench/tracing.py wraps this binding)
    normalize,
)
from .exact import disc_quartic_monic, is_prime, poly_from_ints
from .record import FrozenRecord, Record


# Most worker processes a search may start: each is a whole interpreter, and
# the writer keeps that many slices in flight.
MAX_WORKERS = 32


class CheckpointCorruptError(RuntimeError):
    """An existing output file could not be replayed for resumption."""


class SearchConfig(FrozenRecord):
    """A validated search: the prime set S is stored sorted and without repeats.

    resume_from is the last completed a3 slice, or None.
    """

    __slots__ = ("primes", "height", "workers", "resume_from")

    def __init__(self, primes: tuple, height: int, workers: int = 1, resume_from: int | None = None):
        if not primes:
            raise ValueError("S must be nonempty")
        for p in primes:
            if not isinstance(p, int) or not is_prime(p):
                raise ValueError(f"S must hold primes only, not {p}")
        if height < 1:
            raise ValueError("height must be >= 1")
        if not 1 <= workers <= MAX_WORKERS:
            raise ValueError(f"workers must lie in [1, {MAX_WORKERS}]")
        if resume_from is not None and abs(resume_from) > height:
            raise ValueError(f"resume token must lie in [-{height}, {height}]")
        self._set(tuple(sorted(set(primes))), height, workers, resume_from)


class SearchRecord(Record):
    """One retained curve with its per-prime reports and conductor interval.

    source is the enumerated (1, a3, a2, a1, a0).
    """

    __slots__ = ("curve", "source", "reports", "conductor_lo", "conductor_hi", "dedup_class")

    def __init__(self, curve: PicardCurve, source: tuple, reports: tuple, conductor_lo: int,
                 conductor_hi: int, dedup_class: str):
        self.curve = curve
        self.source = source
        self.reports = reports
        self.conductor_lo = conductor_lo
        self.conductor_hi = conductor_hi
        self.dedup_class = dedup_class

    def to_dict(self):
        return {
            "label": self.curve.label,
            "curve": list(reversed(self.curve.coeffs)),
            "source": list(self.source),
            "disc": self.curve.disc,
            "disc_factors": [[p, e] for p, e in self.curve.disc_factors],
            "reports": [r.to_dict() for r in self.reports],
            "conductor_lo": self.conductor_lo,
            "conductor_hi": self.conductor_hi,
            "dedup_class": self.dedup_class,
        }

    def to_line(self):
        return json.dumps(self.to_dict(), separators=(",", ":"), sort_keys=False)


def _s_units(primes, bound):
    """Every positive integer <= bound whose prime factors all lie in primes."""
    units = {1}
    for p in primes:
        for u in list(units):
            u *= p
            while u <= bound:
                units.add(u)
                u *= p
    return units


def scan_slice(args):
    """All S-supported separable quartics in one a3 slice, lex order.

    A discriminant is S-supported iff it lies in the set of signed S-units
    up to a bound on |disc| over the slice, built once per call.
    """
    a3, height, primes = args
    rng = range(-height, height + 1)
    a3_2 = a3 * a3
    rows = []
    for a2 in rng:
        a2_2 = a2 * a2
        for a1 in rng:
            a1_2 = a1 * a1
            # discriminant as a cubic in a0 (see disc_quartic_monic)
            c2 = -192 * a1 * a3 - 128 * a2_2 + 144 * a2 * a3_2 - 27 * a3_2 * a3_2
            c1 = (
                144 * a1_2 * a2
                - 6 * a1_2 * a3_2
                - 80 * a1 * a2_2 * a3
                + 18 * a1 * a2 * a3 * a3_2
                + 16 * a2_2 * a2_2
                - 4 * a2 * a2_2 * a3_2
            )
            c0 = (
                -27 * a1_2 * a1_2
                + 18 * a1 * a1_2 * a2 * a3
                - 4 * a1 * a1_2 * a3 * a3_2
                - 4 * a1_2 * a2 * a2_2
                + a1_2 * a2_2 * a3_2
            )
            rows.append((a2, a1, c2, c1, c0))
    # |a0| <= height bounds every |disc| of the slice termwise
    bound = max(
        ((256 * height + abs(c2)) * height + abs(c1)) * height + abs(c0)
        for _, _, c2, c1, c0 in rows
    )
    # +-u for every S-unit u; 0 is not in it: inseparable quartics drop out
    units = {s * u for u in _s_units(primes, bound) for s in (1, -1)}
    out = []
    for a2, a1, c2, c1, c0 in rows:
        for a0 in rng:
            if ((256 * a0 + c2) * a0 + c1) * a0 + c0 in units:
                out.append((a3, a2, a1, a0))
    return out


def class_key(coeffs):
    """Dedup key of a normalized quartic: equal iff the curves are equivalent.

    coeffs are f's ints with index = degree, as in ``PicardCurve.coeffs``.
    For f = x^4 + a3 x^3 + a2 x^2 + a1 x + a0 the key is (P, |Q|, R) from
    256 f((y - a3)/4) = y^4 + P y^2 + Q y + R.  Normalized models with equal
    discriminants differ by x -> +-x + b (u^36 = 1 forces u = +-1), and
    f(+-x + b) has the same depressed form as f up to the sign of Q.
    """
    a3, a2, a1, a0 = coeffs[3::-1]
    a3_2 = a3 * a3
    return (
        16 * a2 - 6 * a3_2,
        abs(8 * a3 * a3_2 - 32 * a2 * a3 + 64 * a1),
        -3 * a3_2 * a3_2 + 16 * a2 * a3_2 - 64 * a1 * a3 + 256 * a0,
    )


def hit_key(source, primes):
    """class_key of normalize(source) for an S-supported hit (1, a3, a2, a1, a0).

    normalize changes a monic integral quartic only by descaling at a prime
    p with p^36 | Delta, so any other hit is keyed off its own coefficients.
    """
    disc = disc_quartic_monic(*source[1:])
    if any(disc % p**36 == 0 for p in primes):
        return class_key(normalize(poly_from_ints(source))[0].coeffs)
    return class_key(source[::-1])


def keyed_slice(args):
    """(source, hit_key) for each hit of one a3 slice, in scan order."""
    primes = args[2]
    out = []
    for hit in scan_slice(args):
        source = (1, *hit)
        out.append((source, hit_key(source, primes)))
    return out


def analyze_slice(sources):
    """(normalized curve, its reports at each bad prime) per source, in order."""
    out = []
    for source in sources:
        curve, _ = normalize(poly_from_ints(source))
        out.append((curve, tuple(analyze_prime(curve, p) for p in curve.bad_prime_candidates())))
    return out


class _Done:
    """A task run in-process at once, read like a pool's ``AsyncResult``."""

    __slots__ = ("value",)

    def __init__(self, fn, args):
        self.value = fn(*args)

    def get(self):
        return self.value


@contextmanager
def _task_runner(workers):
    """submit(fn, args) -> result handle: a pool's, or in-process for one worker."""
    if workers == 1:
        yield _Done
        return
    # imported here so that importing picard does not pay for multiprocessing
    from multiprocessing import Pool

    with Pool(workers) as pool:
        yield pool.apply_async


def _slice_records(a3, sources, analyses):
    """The records of one slice in order, then its end-of-slice marker."""
    for source, (curve, reports) in zip(sources, analyses.get()):
        lo = hi = 1
        for r in reports:
            lo *= r.p**r.f_lo
            hi *= r.p**r.f_hi
        yield a3, SearchRecord(
            curve=curve,
            source=source,
            reports=reports,
            conductor_lo=lo,
            conductor_hi=hi,
            dedup_class=curve.label,
        )
    yield a3, None


def replay_retained(lines):
    """Rebuild the dedup state from existing output lines (for resume)."""
    retained = []
    for i, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
            coeffs = data["curve"]
            curve = PicardCurve(poly_from_ints(coeffs))
        except (ValueError, KeyError, TypeError) as ex:
            raise CheckpointCorruptError(f"output line {i + 1} unreadable: {ex}")
        retained.append(curve)
    return retained


def enumerate_search(cfg: SearchConfig, retained=None):
    """Yield (a3_slice, record-or-None): records in deterministic order.

    A None record marks the end of a slice (its checkpoint boundary).
    retained carries dedup state when resuming.  Each slice costs two
    tasks: its keyed scan, and one analysis of the hits whose key is new.
    ``workers`` slices are scanned ahead, and a slice's records are taken
    once the next slice's analysis is submitted, so the pool always has
    work queued.
    """
    seen = {class_key(curve.coeffs) for curve in retained or ()}
    a3s = iter(range(-cfg.height, cfg.height + 1))
    if cfg.resume_from is not None:
        a3s = (a3 for a3 in a3s if a3 > cfg.resume_from)
    with _task_runner(cfg.workers) as submit:

        def scan(a3):
            return a3, submit(keyed_slice, ((a3, cfg.height, cfg.primes),))

        scans = deque(scan(a3) for a3 in islice(a3s, cfg.workers))
        analyzing = deque()
        while scans:
            a3, found = scans.popleft()
            scans.extend(scan(a3_next) for a3_next in islice(a3s, 1))
            fresh = []
            for source, key in found.get():
                if key not in seen:
                    seen.add(key)
                    fresh.append(source)
            analyzing.append((a3, fresh, submit(analyze_slice, (fresh,))))
            if len(analyzing) > 1:
                yield from _slice_records(*analyzing.popleft())
        while analyzing:
            yield from _slice_records(*analyzing.popleft())


def run_search(cfg: SearchConfig, out_path):
    """Execute the search, appending JSONL records to out_path.

    Returns (records_written, last_token).  With resume_from set, existing
    records in out_path are replayed to restore the dedup state, and only
    slices after the token are enumerated (the emitted lines are exactly
    the suffix of a fresh run).
    """
    retained = []
    mode = "w"
    if cfg.resume_from is not None:
        try:
            with open(out_path, "r", encoding="utf-8") as fh:
                retained = replay_retained(fh)
        except FileNotFoundError:
            raise CheckpointCorruptError(f"cannot resume: {out_path} is missing")
        except OSError as ex:
            raise CheckpointCorruptError(f"cannot resume: {out_path} is unreadable ({ex.strerror})")
        mode = "a"
    written = 0
    last_token = cfg.resume_from
    with open(out_path, mode, encoding="utf-8") as fh:
        for a3, record in enumerate_search(cfg, retained=retained):
            if record is None:
                last_token = a3
                fh.flush()
                continue
            fh.write(record.to_line() + "\n")
            written += 1
    return written, last_token


def rank(records):
    """Stable sort by conductor_lo, then conductor_hi, then class label."""
    return sorted(
        records, key=lambda r: (r.conductor_lo, r.conductor_hi, r.dedup_class)
    )

"""Bounded-height enumeration of Picard curves with S-unit discriminant.

Iterates monic integral quartics x^4 + a3 x^3 + a2 x^2 + a1 x + a0 with
|a_i| <= height, keeps the separable ones whose discriminant is supported
on the prime set S, normalizes, deduplicates against the already retained
curves under scaling + translation, and analyzes each retained curve at its
bad primes.  Output order is coefficient-lexicographic and byte-identical
across reruns, including with workers > 1 (slices are merged in order and
all stateful work happens on the writer side).
"""

import json
from dataclasses import dataclass
from multiprocessing import Pool

from .conductor import analyze_prime
from .curves import (
    PicardCurve,
    curve_text,
    disc_quartic_monic,
    equivalent,
    normalize,
)
from .exact import poly_from_ints


class CheckpointCorruptError(RuntimeError):
    """An existing output file could not be replayed for resumption."""


@dataclass(frozen=True)
class SearchConfig:
    primes: tuple  # sorted prime set S
    height: int
    workers: int = 1
    resume_from: int | None = None  # last completed a3 slice

    def __post_init__(self):
        if not self.primes:
            raise ValueError("S must be nonempty")
        if self.height < 1:
            raise ValueError("height must be >= 1")


@dataclass
class SearchRecord:
    """One retained curve with its per-prime reports and conductor interval."""

    curve: PicardCurve
    source: tuple  # the enumerated (1, a3, a2, a1, a0)
    reports: tuple
    conductor_lo: int
    conductor_hi: int
    dedup_class: str

    def to_dict(self):
        return {
            "label": self.curve.label,
            "curve": [int(self.curve.f[i]) for i in range(4, -1, -1)],
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


def _s_supported(n, primes):
    v = -n if n < 0 else n
    for p in primes:
        while v % p == 0:
            v //= p
    return v == 1


def scan_slice(args):
    """All S-supported separable quartics in one a3 slice, lex order."""
    a3, height, primes = args
    out = []
    rng = range(-height, height + 1)
    a3_2 = a3 * a3
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
            for a0 in rng:
                d = ((256 * a0 + c2) * a0 + c1) * a0 + c0
                if d and _s_supported(d, primes):
                    out.append((a3, a2, a1, a0))
    return out


def _candidate_stream(cfg):
    """Candidates slice by slice; each item is (a3, [tuples])."""
    slices = [a3 for a3 in range(-cfg.height, cfg.height + 1)]
    if cfg.resume_from is not None:
        slices = [a3 for a3 in slices if a3 > cfg.resume_from]
    args = [(a3, cfg.height, tuple(cfg.primes)) for a3 in slices]
    if cfg.workers > 1 and len(args) > 1:
        with Pool(cfg.workers) as pool:
            for a3, found in zip(slices, pool.imap(scan_slice, args, chunksize=1)):
                yield a3, found
    else:
        for a3, arg in zip(slices, args):
            yield a3, scan_slice(arg)


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
    retained carries dedup state when resuming.
    """
    retained = list(retained) if retained else []
    for a3, found in _candidate_stream(cfg):
        for tup in found:
            a3_, a2, a1, a0 = tup
            f = poly_from_ints([1, a3_, a2, a1, a0])
            curve, _ = normalize(f)
            dup = None
            for rep in retained:
                if rep.disc == curve.disc and equivalent(rep, curve) is not None:
                    dup = rep
                    break
            if dup is not None:
                continue
            retained.append(curve)
            reports = tuple(
                analyze_prime(curve, p) for p in curve.bad_prime_candidates()
            )
            lo = hi = 1
            for r in reports:
                lo *= r.p**r.f_lo
                hi *= r.p**r.f_hi
            yield a3, SearchRecord(
                curve=curve,
                source=(1, a3_, a2, a1, a0),
                reports=reports,
                conductor_lo=lo,
                conductor_hi=hi,
                dedup_class=retained[-1].label,
            )
        yield a3, None


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

"""The golden clustered corpus: one report digest per (curve, p), recorded once.

A seeded generator builds quartics whose roots cluster at p, shifts each
by a multiple of p and normalizes it.  The digest of a report is the
sha256 of its compact `picard analyze --json` serialization, key order
included, as search records write keys unsorted.  golden_corpus.json holds
the digests; a change that moves any report fails here.  Re-record only
for a proven bug fix:

    PYTHONPATH=src python tests/test_golden_corpus.py --record
"""

import hashlib
import json
import random
import sys
from functools import cache
from pathlib import Path

from picard import localfield as lf
from picard.conductor import analyze_prime
from picard.curves import _shift, normalize
from picard.exact import _TRIAL_PRIMES, disc_quartic_monic, is_prime, poly_from_ints

PRIMES = (2, 5, 7, 11, 13, 10007, 1000003)
DIGESTS = Path(__file__).with_name("golden_corpus.json")


def _mul(*factors):
    """Product of int polynomials, lowest degree first."""
    out = [1]
    for g in factors:
        prod = [0] * (len(out) + len(g) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(g):
                prod[i + j] += a * b
        out = prod
    return out


def _unit(rng, p):
    """A small int prime to p, either sign."""
    while True:
        u = rng.choice((-1, 1)) * rng.randrange(1, 12)
        if u % p:
            return u


def _families(rng, p):
    """(family, make) pairs: make() draws a monic int quartic clustered at p, lowest degree first.

    make is called before the next pair is drawn, as it reads the loop's a.

    Depths stay small at large p, where the unit part of the discriminant
    would otherwise be too large to factor at once.
    """
    top = 12 if p < 100 else 4 if p < 10**5 else 3

    def unit():
        return _unit(rng, p)

    def depth():
        return rng.randrange(1, top + 1)

    def twin(a, centre=0):  # (x - centre)^2 - p^a u
        return _shift([-(p**a) * unit(), 0, 1], -centre)

    def nested():
        s, t = depth(), depth()
        r3 = unit() * p ** rng.randrange(0, min(s, t) + 1)
        return _mul([0, 1], [-unit() * p**s, 1], [-r3, 1], [-r3 - unit() * p**t, 1])

    def squared(a):  # (x^2 - n)^2 - p^a (ux + w)
        sq = _mul([-unit(), 0, 1], [-unit(), 0, 1])
        return [sq[0] - p**a * unit(), sq[1] - p**a * unit()] + sq[2:]

    def single(a):  # (x^2 - D)(x^2 - D + s), D = p^a u: the resultant is s^2
        d = p**a * unit()
        return _mul([-d, 0, 1], [unit() - d, 0, 1])

    for a in range(1, top + 1):
        yield "x^4 - p^a u", lambda: [-(p**a) * unit(), 0, 0, 0, 1]
        yield "(x^3 - p^a u)(x - c)", lambda: _mul([-(p**a) * unit(), 0, 0, 1], [-unit(), 1])
        yield "(x^2 - p^a u)(x^2 - p^b w)", lambda: _mul(twin(a), twin(depth()))
        yield "(x^2 - p^a u)((x - c)^2 - p^b w)", lambda: _mul(twin(a), twin(depth(), unit()))
        yield "(x^2 - p^a u)(x - p^b w)(x - c)", lambda: _mul(twin(a), [-(p ** depth()) * unit(), 1], [-unit(), 1])
        yield "nested twins", nested
        yield "(x^2 - p^a u)(x^2 + bx + c)", lambda: _mul(twin(a), [unit(), unit(), 1])
        yield "(x^2 - n)^2 - p^a (ux + w)", lambda: squared(a)
    for a in list(range(1, top + 1)) + ([20, 21] if p in (5, 7) else []):
        yield "(x^2 - D)(x^2 - D + s)", lambda: single(a)
    if p < 100:
        for _ in range(12):
            yield "small random", lambda: [rng.randrange(-12, 13) for _ in range(4)] + [1]


def _quick_to_factor(f, p):
    """Whether disc f is nonzero and, past p and trial division, a prime or below 10^12.

    Rho then splits it in a few thousand steps at most: a corpus curve
    should not spend its time in normalize.
    """
    m = abs(disc_quartic_monic(*f[3::-1]))
    for q in (p,) + _TRIAL_PRIMES:
        while m and m % q == 0:
            m //= q
    return m and (m < 10**12 or is_prime(m))


def corpus():
    """The (family, curve, p) triples of the corpus, the curves normalized and deduplicated.

    Each family draws until its quartic is quick to factor, at most 100 times.
    """
    seen = set()
    out = []
    for p in PRIMES:
        rng = random.Random(f"golden-{p}")
        for family, make in _families(rng, p):
            f = next((f for f in (make() for _ in range(100)) if _quick_to_factor(f, p)), None)
            if f is None:
                continue
            curve, _ = normalize(poly_from_ints(_shift(f, p * rng.randrange(-3, 4))[::-1]))
            if (curve.coeffs, p) not in seen:
                seen.add((curve.coeffs, p))
                out.append((family, curve, p))
    # inertia swaps the two pairs centred at +-sqrt(p u), of radius p^k; drawn
    # from no stream, so the entries above keep their digests
    for p in (5, 7, 11, 13):
        for u in (1, 2):
            for k in (1, 2):
                c = p * u - p ** (2 * k)
                curve, _ = normalize(poly_from_ints([1, 0, 2 * c - 4 * p * u, 0, c * c]))
                if (curve.coeffs, p) not in seen:
                    seen.add((curve.coeffs, p))
                    out.append(("(x^2 + c)^2 - 4pux^2", curve, p))
    return out


def _digest(report):
    text = json.dumps(report.to_dict(), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@cache
def _reports():
    return [(family, curve, p, analyze_prime(curve, p)) for family, curve, p in corpus()]


def _key(curve, p):
    return f"{curve.label} {p}"


def _pattern(curve, p):
    """The repeated factors of f mod p: sorted (multiplicity, factor degree, product degree)."""
    parts = lf._fp_factor(p, tuple(c % p for c in curve.coeffs))
    return tuple(sorted((m, D, len(g) - 1) for g, D, m in parts if m > 1))


def test_golden_corpus_reports_match_their_digests():
    recorded = json.loads(DIGESTS.read_text())["digests"]
    reports = _reports()
    assert sorted(_key(curve, p) for _, curve, p, _ in reports) == sorted(recorded)
    moved = [(family, _key(curve, p)) for family, curve, p, rep in reports if _digest(rep) != recorded[_key(curve, p)]]
    assert not moved, moved[:10]


def test_golden_corpus_covers_the_rare_pictures():
    reports = _reports()
    tame = [(curve, p, rep) for _, curve, p, rep in reports if rep.status == "computed"]
    assert {rep.reduction_type for _, _, rep in tame} == set("abcde")
    assert {rep.detail["e_splitting"] for _, p, rep in tame if p >= 5 and rep.detail.get("e_splitting")} == {1, 2, 3, 4}
    semistable = {rep.detail.get("e_semistable") for _, _, rep in tame}
    assert {9, 12} <= semistable
    assert any(rep.exceptional and not rep.detail.get("good_reduction") for _, _, rep in tame)
    # inertia moves a component: an orbit of length > 1
    moved = [
        rep for _, _, rep in tame
        if "quotient_genera" in rep.detail and len(rep.detail["quotient_genera"]) < len(rep.detail["fiber"]["components"])
    ]
    assert len(moved) >= 16, len(moved)
    at2 = [rep for _, _, p, rep in reports if p == 2]
    assert any(rep.status == "unknown-wild" for rep in at2)
    assert any(rep.status == "computed" and not rep.detail.get("good_reduction") for rep in at2)
    # the residue patterns at p >= 5, each at several v = ord_p(disc f)
    single, double, squared, triple = ((2, 1, 1),), ((2, 1, 1), (2, 1, 1)), ((2, 2, 2),), ((3, 1, 1),)
    depths = {single: set(), double: set(), squared: set(), triple: set()}
    for curve, p, _ in tame:
        if p >= 5 and _pattern(curve, p) in depths:
            depths[_pattern(curve, p)].add(curve.ord_disc(p))
    assert all(len(vs) >= 3 for vs in depths.values()), depths
    assert max(depths[single]) >= 20  # past the closed form's precision: the lift


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    digests = {_key(curve, p): _digest(rep) for _, curve, p, rep in _reports()}
    DIGESTS.write_text(json.dumps({"digests": digests}, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {DIGESTS}")

import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import picard
from picard.curves import PicardCurve, disc_quartic_monic, equivalent, normalize
from picard.exact import poly_from_ints
from picard.search import (
    CheckpointCorruptError,
    SearchConfig,
    SearchRecord,
    class_key,
    enumerate_search,
    normalized_slice,
    rank,
    run_search,
    scan_slice,
)


def collect(cfg):
    return [rec for _, rec in enumerate_search(cfg) if rec is not None]


def test_scan_slice_filters_s_support():
    found = scan_slice((0, 2, (2, 3)))
    for a3, a2, a1, a0 in found:
        from picard.curves import disc_quartic_monic

        d = disc_quartic_monic(a3, a2, a1, a0)
        assert d != 0
        v = abs(d)
        for p in (2, 3):
            while v % p == 0:
                v //= p
        assert v == 1


def _s_supported(n, primes):
    """The division route scan_slice used before its S-unit set."""
    if n == 0:
        return False
    v = abs(n)
    for p in primes:
        while v % p == 0:
            v //= p
    return v == 1


def test_scan_slice_unit_set_matches_division_route():
    height = 4
    rng = range(-height, height + 1)
    for primes in ((2,), (3,), (2, 3), (2, 3, 5), (3, 7, 11)):
        for a3 in rng:
            want = [
                (a3, a2, a1, a0)
                for a2 in rng
                for a1 in rng
                for a0 in rng
                if _s_supported(disc_quartic_monic(a3, a2, a1, a0), primes)
            ]
            assert scan_slice((a3, height, primes)) == want, (primes, a3)


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(primes=(), height=3)
    with pytest.raises(ValueError):
        SearchConfig(primes=(3,), height=0)
    with pytest.raises(ValueError):
        SearchConfig(primes=(3,), height=3, workers=0)
    # S holds primes only: 0 and 1 would loop forever building S-units, 4
    # keeps the powers of 4, a negative prime keeps nothing
    for primes in [(1,), (0,), (2, 1), (4,), (-3,), (2.0,)]:
        with pytest.raises(ValueError):
            SearchConfig(primes=primes, height=2)
    assert SearchConfig(primes=(3, 2, 3), height=2).primes == (2, 3)
    # a resume token names one of the a3 slices in [-height, height]
    for token in (-4, 4, 99):
        with pytest.raises(ValueError):
            SearchConfig(primes=(3,), height=3, resume_from=token)
    assert SearchConfig(primes=(3,), height=3, resume_from=3).resume_from == 3


def test_small_search_contents_and_invariants():
    cfg = SearchConfig(primes=(2, 3), height=3)
    records = collect(cfg)
    labels = {r.curve.label for r in records}
    assert "[1,0,0,0,-1]" in labels
    assert "[1,0,0,0,1]" in labels
    for r in records:
        # normalized, minimal, supported on S
        c2, w2 = normalize(r.curve.f)
        assert c2.f == r.curve.f and w2.is_identity()
        for p, e in r.curve.disc_factors:
            assert p in (2, 3)
            assert 0 <= e < 36
        assert r.conductor_lo <= r.conductor_hi


def test_search_deduplicates_translates():
    # the class of x^4 - 1 holds (x - 1)^4 - 1 = x^4 - 4x^3 + 6x^2 - 4x and
    # (x + 1)^4 - 1; exactly one record stands for it, the member met first
    h = 6
    x4_minus_1 = PicardCurve(poly_from_ints([1, 0, 0, 0, -1]))
    box = range(-h, h + 1)
    first = next(
        (1, a3, a2, a1, a0)
        for a3 in box for a2 in box for a1 in box for a0 in box
        if disc_quartic_monic(a3, a2, a1, a0) == x4_minus_1.disc
        and equivalent(x4_minus_1, PicardCurve(poly_from_ints([1, a3, a2, a1, a0])))
    )
    assert first == (1, -4, 6, -4, 0)
    records = collect(SearchConfig(primes=(2, 3), height=h))
    same = [r for r in records if class_key(r.curve) == class_key(x4_minus_1)]
    assert [r.source for r in same] == [first]
    assert same[0].dedup_class == "[1,-4,6,-4,0]"


def test_class_key_equal_iff_equivalent():
    # every normalized hit at S = {2,3}, H = 3 against every other, plus
    # translates g = f(+-x + b) with b in (1/4)Z and g integral
    curves = [
        curve for a3 in range(-3, 4) for _, curve, _ in normalized_slice((a3, 3, (2, 3)))
    ]
    rng = random.Random(43)
    moved = fractional = 0
    for f in rng.sample(curves, 20):
        for sign in (1, -1):
            for b in (Fraction(k, 4) for k in range(-8, 9)):
                g = f.f.compose_linear(sign, b)
                if g.is_integral():
                    curves.append(normalize(g)[0])
                    moved += b != 0
                    fractional += b.denominator > 1
    # only b in Z keeps a monic integral quartic integral: for b = k/4, k odd,
    # the x^2 coefficient gains 3k(2a3 + k)/8; for b = 1/2 it needs a3 odd
    # and the x coefficient then needs a3 = 2 mod 4
    assert moved > 0 and fractional == 0
    keys = [class_key(c) for c in curves]
    pairs = equal = 0
    for i, ci in enumerate(curves):
        for j in range(i):
            cj = curves[j]
            same = ci.disc == cj.disc and equivalent(ci, cj) is not None
            assert (keys[i] == keys[j]) == same
            pairs += 1
            equal += same
    assert 0 < equal < pairs


def test_rerun_byte_identical(tmp_path):
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    cfg = SearchConfig(primes=(3,), height=4)
    run_search(cfg, str(out1))
    run_search(cfg, str(out2))
    assert out1.read_bytes() == out2.read_bytes()


def test_workers_match_serial(tmp_path):
    # S = {2,3} reaches p = 2 and dedup; every worker count writes the same bytes
    outputs = []
    for workers in (1, 2, 3):
        out = tmp_path / f"w{workers}.jsonl"
        run_search(SearchConfig(primes=(2, 3), height=5, workers=workers), str(out))
        outputs.append(out.read_bytes())
    assert outputs[0] and outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_resume_emits_exact_suffix(tmp_path):
    full = tmp_path / "full.jsonl"
    run_search(SearchConfig(primes=(3,), height=4), str(full))
    full_lines = full.read_text().splitlines()

    part = tmp_path / "part.jsonl"
    # run only slices a3 <= 0 by simulating an interrupted run: rerun with
    # resume token 0 after truncating to the records with a3 <= 0
    kept = [l for l in full_lines if json.loads(l)["source"][1] <= 0]
    part.write_text("".join(line + "\n" for line in kept))
    run_search(SearchConfig(primes=(3,), height=4, resume_from=0), str(part))
    assert part.read_text().splitlines() == full_lines


def test_resume_with_workers_emits_exact_suffix(tmp_path):
    full = tmp_path / "full.jsonl"
    run_search(SearchConfig(primes=(2, 3), height=5), str(full))
    full_lines = full.read_text().splitlines()
    part = tmp_path / "part.jsonl"
    kept = [l for l in full_lines if json.loads(l)["source"][1] <= -1]
    assert 0 < len(kept) < len(full_lines)
    part.write_text("".join(line + "\n" for line in kept))
    written, token = run_search(
        SearchConfig(primes=(2, 3), height=5, workers=2, resume_from=-1), str(part)
    )
    assert part.read_text().splitlines() == full_lines
    assert (written, token) == (len(full_lines) - len(kept), 5)


def test_resume_missing_file_errors(tmp_path):
    with pytest.raises(CheckpointCorruptError):
        run_search(SearchConfig(primes=(3,), height=2, resume_from=0),
                   str(tmp_path / "missing.jsonl"))


def test_resume_corrupt_line_errors(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"curve": [1,0,0,0,-1]}\nnot json at all\n')
    with pytest.raises(CheckpointCorruptError):
        run_search(SearchConfig(primes=(3,), height=2, resume_from=0), str(bad))


def test_rank_ordering_and_stability():
    cfg = SearchConfig(primes=(2, 3), height=2)
    records = collect(cfg)
    ranked = rank(records)
    keys = [(r.conductor_lo, r.conductor_hi, r.dedup_class) for r in ranked]
    assert keys == sorted(keys)
    assert rank([]) == []
    # stability: equal keys preserve input order
    two = [records[0], records[0]]
    assert rank(two) == two


def test_import_leaves_multiprocessing_out():
    # the pool is imported only when a search starts one, so importing the
    # package does not pay for multiprocessing
    src = str(Path(picard.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import picard, picard.conductor; "
        "print('multiprocessing' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60, check=True
    )
    assert out.stdout.strip() == "False"

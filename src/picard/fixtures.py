"""Bundled worked-example fixtures and the verify-examples runner.

Each fixture is a JSON file with a curve, an optional p = 3 witness, an
"expect" block of checked values, and an optional "documentation" block of
recorded-but-not-computed values (wild conductor exponents from external
sources); documentation is echoed, never asserted.
"""

import json
import os

from .conductor import analyze_prime, global_conductor
from .curves import normalize
from .exact import poly_from_ints
from .wild3 import WildWitness


def load_fixtures():
    # picard is installed as files, never as a zip: the JSON sits next to this module
    root = os.path.join(os.path.dirname(__file__), "fixtures")
    out = []
    for name in sorted(os.listdir(root)):
        if name.endswith(".json"):
            with open(os.path.join(root, name), encoding="utf-8") as fh:
                out.append(json.load(fh))
    return out


def run_fixture(fix):
    """Check one fixture; returns (ok, list of messages)."""
    msgs = []
    ok = True

    def check(cond, label):
        nonlocal ok
        if not cond:
            ok = False
            msgs.append(f"MISMATCH {label}")

    curve, _ = normalize(poly_from_ints(fix["curve"]))
    witness = None
    if fix.get("witness"):
        witness = WildWitness.from_dict(fix["witness"])
    expect = fix.get("expect", {})

    if "discriminant" in expect:
        raw_disc = _raw_disc(fix["curve"])
        check(raw_disc == expect["discriminant"],
              f"discriminant: got {raw_disc}, want {expect['discriminant']}")
    if "normalized" in expect:
        want = poly_from_ints(expect["normalized"])
        check(curve.f == want, f"normalized model: got {curve.label}")

    reports = {}
    for pstr, exp in expect.get("primes", {}).items():
        p = int(pstr)
        rep = analyze_prime(curve, p, witness if (witness and witness.m and p == 3) else None)
        reports[p] = rep
        if "status" in exp:
            check(rep.status == exp["status"], f"p={p} status {rep.status} != {exp['status']}")
        if "f" in exp:
            check(rep.status == "computed" and rep.f_p == exp["f"],
                  f"p={p} f got {(rep.f_lo, rep.f_hi)}, want {exp['f']}")
        if "f_range" in exp:
            check([rep.f_lo, rep.f_hi] == list(exp["f_range"]),
                  f"p={p} range {(rep.f_lo, rep.f_hi)} != {exp['f_range']}")
        if "f_lo_min" in exp:
            check(rep.f_lo >= exp["f_lo_min"], f"p={p} f_lo {rep.f_lo} < {exp['f_lo_min']}")
        if "type" in exp:
            check(rep.reduction_type == exp["type"],
                  f"p={p} type {rep.reduction_type} != {exp['type']}")
        if "exceptional" in exp:
            check(rep.exceptional == exp["exceptional"], f"p={p} exceptional flag")
        if "notes_contain" in exp:
            for frag in exp["notes_contain"]:
                check(any(frag in n for n in rep.notes), f"p={p} note {frag!r} missing")
        if "fiber_genera" in expect and pstr in expect["fiber_genera"]:
            genera = sorted(
                (c["genus"] for c in rep.detail["fiber"]["components"]), reverse=True
            )
            check(genera == sorted(expect["fiber_genera"][pstr], reverse=True),
                  f"p={p} fiber genera {genera}")
        if "clusters" in expect and pstr in expect["clusters"]:
            got = {
                (len(key), depth)
                for key, depth in rep.detail.get("cluster_depths", [])
                if len(key) < 4
            }
            want = {
                (c["size"], c["depth"]) for c in expect["clusters"][pstr]
            }
            check(got == want, f"p={p} proper clusters {sorted(got)} != {sorted(want)}")

    if "n_lo_divisible_by" in expect:
        g = global_conductor(curve, {3: witness} if witness else None)
        check(g.n_lo % expect["n_lo_divisible_by"] == 0,
              f"N_lo = {g.n_lo} not divisible by {expect['n_lo_divisible_by']}")

    for key, text in fix.get("documentation", {}).items():
        msgs.append(f"note ({key}): {text}")
    return ok, msgs


def _raw_disc(coeffs):
    from .exact import discriminant

    return int(discriminant(poly_from_ints(coeffs)))


def run_fixtures(emit=print):
    """Run every bundled fixture; one PASS/FAIL line each."""
    all_ok = True
    for fix in load_fixtures():
        ok, msgs = run_fixture(fix)
        emit(f"{'PASS' if ok else 'FAIL'}  {fix['name']}")
        for m in msgs:
            emit(f"      {m}")
        all_ok = all_ok and ok
    return all_ok

"""The golden witness corpus: one digest per p = 3 witness outcome, recorded once.

The cases are seeded Artin-Schreier covers z^3 - z = h over F_3 and F_9,
with poles at rational points and at infinity; the bundled witnesses on
their curves; the potgood-p3-f6 chart on a seeded family of curves; and
the bundled charts with one field changed.  An outcome is the full
result, each component's cover included (h, h_red, shift, the jumps in
their order, tbar), or the type and message of the error it raises.
golden_witness.json holds the sha256 of each outcome's compact JSON; a
change that moves any outcome fails here.  Re-record only for a proven
bug fix:

    PYTHONPATH=src python tests/test_golden_witness.py --record
"""

import hashlib
import json
import random
import sys
from functools import cache
from pathlib import Path

from test_wild3 import random_h

import picard.localfield as lf
from picard.conductor import _witness_equation
from picard.curves import normalize
from picard.exact import poly_from_ints
from picard.fixtures import load_fixtures
from picard.wild3 import INF, WildWitness, WitnessInvalidError, as_cover, verify_witness

DIGESTS = Path(__file__).with_name("golden_witness.json")
AS_CASES = {1: 400, 2: 150}  # seeded covers per residue degree k of F_{3^k}
FAMILY_CURVES = 200


def _poly(a):
    return [list(c) for c in a]


def _rat(x):
    return [_poly(x[0]), _poly(x[1])]


def _cover(cov):
    ram = [[P if P == INF else list(P), jump] for P, jump in cov.ram.items()]
    return {"h": _rat(cov.h), "h_red": _rat(cov.h_red), "shift": _rat(cov.shift), "ram": ram, "genus": cov.genus}


def _verification(v):
    comps = [
        {
            "index": c.index,
            "inseparable": c.inseparable,
            "genus": c.genus,
            "cover": c.cover and _cover(c.cover),
            "tbar": c.tbar and _poly(c.tbar),
        }
        for c in v.components
    ]
    return {
        "m": v.m,
        "type": v.reduction_type,
        "etale": v.etale_genera,
        "insep": v.inseparable_count,
        "quotient": v.quotient_genera,
        "gamma0": v.gamma0,
        "f3": v.f3,
        "f3_range": list(v.f3_range),
        "components": comps,
    }


def _outcome(run, *args):
    try:
        return run(*args)
    except WitnessInvalidError as ex:
        return {"error": "WitnessInvalidError", "message": str(ex)}
    except lf.NeedsLargerK as ex:
        return {"error": "NeedsLargerK", "k": ex.k}


def _family_curves():
    """The witness-p3 family x^4 + 3b3 x^3 + 3b2 x^2 + 9b1 x + (1 + 9b0), seeded."""
    rng = random.Random("golden-witness-family")
    for _ in range(FAMILY_CURVES):
        b3, b2, b1, b0 = (rng.randint(-20, 20) for _ in range(4))
        yield normalize(poly_from_ints([1, 3 * b3, 3 * b2, 9 * b1, 1 + 9 * b0]))[0]


def _plus_pi(tup, n, sign=1):
    """The pi-polynomial tup + sign * pi^n."""
    out = list(tup) + [0] * (n + 1 - len(tup))
    out[n] += sign
    return out


def _mutations(chart):
    """(name, chart) pairs: the chart with one field changed."""
    a, d = chart["x_scale"], chart["y_codim"]
    g = chart["y_poly"] + [[]] * 2
    yield "x_scale+1", dict(chart, x_scale=a + 1)
    yield "y_scale+1", dict(chart, y_scale=chart["y_scale"] + 1)
    yield "y_codim+1", dict(chart, y_codim=d + 1)
    yield "x_center+1", dict(chart, x_center=_plus_pi(chart["x_center"], 0))
    for n, sign in ((a - 1, 1), (a, 1), (a, -1), (a + 1, 1)):
        yield f"x_center{'+-'[sign < 0]}pi^{n}", dict(chart, x_center=_plus_pi(chart["x_center"], n, sign))
    for j in (1, 2):
        yield f"y_poly+pi^{d}x1^{j}", dict(chart, y_poly=g[:j] + [_plus_pi(g[j], d)] + chart["y_poly"][j + 1 :])


@cache
def cases():
    """{key: outcome} over the whole corpus, outcomes as plain JSON values."""
    out = {}
    for k, n in AS_CASES.items():
        gf = lf.GF(3, k)
        rng = random.Random(f"golden-as-{k}")
        for i in range(n):
            out[f"as F{3**k} {i}"] = _outcome(lambda h: _cover(as_cover(gf, h)), random_h(gf, rng))

    def verified(f_ints, witness):
        return _verification(verify_witness(f_ints, witness))

    bundled = [(fix["name"], fix["witness"]) for fix in load_fixtures() if fix.get("witness")]
    for name, data in bundled:
        w = WildWitness.from_dict(data)
        out[f"fixture {name}"] = _outcome(verified, list(w.curve[::-1]), w)
    family = dict(next(data for name, data in bundled if name == "potgood-p3-f6"))
    family.pop("curve")
    family = WildWitness.from_dict(family)
    for i, curve in enumerate(_family_curves()):
        out[f"family {i}"] = _outcome(verified, _witness_equation(curve, family), family)
    for name, data in bundled:
        f_ints = data["curve"][::-1]
        for i, chart in enumerate(data["charts"]):
            for mutation, changed in _mutations(chart):
                charts = [changed if j == i else ch for j, ch in enumerate(data["charts"])]
                w = WildWitness.from_dict(dict(data, charts=charts))
                out[f"mutated {name} chart {i} {mutation}"] = _outcome(verified, f_ints, w)
    return out


def _digest(outcome):
    return hashlib.sha256(json.dumps(outcome, separators=(",", ":")).encode()).hexdigest()


def _digests():
    return {key: _digest(outcome) for key, outcome in cases().items()}


def test_golden_witness_outcomes_match_their_digests():
    recorded = json.loads(DIGESTS.read_text())["digests"]
    digests = _digests()
    assert sorted(digests) == sorted(recorded)
    moved = [key for key, digest in digests.items() if digest != recorded[key]]
    assert not moved, moved[:10]


def test_golden_witness_corpus_reaches_every_path():
    outcomes = cases()
    covers = [o for key, o in outcomes.items() if key.startswith("as ") and "error" not in o]
    assert any(any(P != INF for P, _ in cov["ram"]) and cov["shift"][0] for cov in covers)
    assert {o["error"] for o in outcomes.values() if "error" in o} == {"WitnessInvalidError", "NeedsLargerK"}
    verified = [o for key, o in outcomes.items() if not key.startswith("as ") and "error" not in o]
    assert {o["type"] for o in verified} >= {"a", "b"}
    # a finite jump on a verified component: the witness path away from INF
    assert any(c["cover"] and any(P != INF for P, _ in c["cover"]["ram"]) for o in verified for c in o["components"])
    assert sum(key.startswith("mutated ") and "error" in o for key, o in outcomes.items()) >= 10


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    digests = _digests()
    DIGESTS.write_text(json.dumps({"digests": digests}, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {DIGESTS}")

"""The golden witness corpus: one digest per p = 3 witness outcome, recorded once.

The cases are seeded Artin-Schreier covers z^3 - z = h over F_3 and F_9,
with poles at rational points and at infinity; the bundled witnesses on
their curves; the potgood-p3-f6 chart on a seeded family of curves; the
bundled charts with one field changed; and the bundled charts lowered,
duplicated or moved to another m.  An outcome is the full
result, each component's cover included (h, h_red, shift, the jumps in
their order, tbar), or the type and message of the error it raises.
golden_witness.json holds the sha256 of each outcome's compact JSON; a
change that moves any outcome fails here.  Re-record only for a proven
bug fix:

    PYTHONPATH=src python tests/test_golden_witness.py --record
"""

import hashlib
import itertools
import json
import random
import sys
from collections import Counter
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


def _witness_inputs():
    """(key, f_ints, witness) for each verify_witness case: bundled, family and mutated."""
    bundled = [(fix["name"], fix["witness"]) for fix in load_fixtures() if fix.get("witness")]
    for name, data in bundled:
        w = WildWitness.from_dict(data)
        yield f"fixture {name}", list(w.curve[::-1]), w
    family = dict(next(data for name, data in bundled if name == "potgood-p3-f6"))
    family.pop("curve")
    family = WildWitness.from_dict(family)
    for i, curve in enumerate(_family_curves()):
        yield f"family {i}", _witness_equation(curve, family), family
    for name, data in bundled:
        f_ints = data["curve"][::-1]
        for i, chart in enumerate(data["charts"]):
            for mutation, changed in _mutations(chart):
                charts = [changed if j == i else ch for j, ch in enumerate(data["charts"])]
                w = WildWitness.from_dict(dict(data, charts=charts))
                yield f"mutated {name} chart {i} {mutation}", f_ints, w
    yield from _inseparable_inputs(bundled)


def _inseparable_inputs(bundled):
    """(key, f_ints, witness) for the bundled charts changed so that components turn inseparable.

    A lower y_codim makes y1^3 = cube; a duplicated chart 0 gives genera no
    type has; at m = 10 the m = 8 charts certify an inseparable component,
    and at m = 16 with every scale doubled they certify type (a) again.
    """
    for name, data in bundled:
        f_ints = data["curve"][::-1]
        for i, chart in enumerate(data["charts"]):
            for drop in (1, 2):
                charts = [dict(ch, y_codim=ch["y_codim"] - drop) if j == i else ch for j, ch in enumerate(data["charts"])]
                w = WildWitness.from_dict(dict(data, charts=charts))
                yield f"lowered {name} chart {i} y_codim-{drop}", f_ints, w
        w = WildWitness.from_dict(dict(data, charts=data["charts"][:1] + data["charts"]))
        yield f"duplicated {name} chart 0", f_ints, w
    for name, data in bundled:
        if data["m"] != 8:
            continue
        f_ints = data["curve"][::-1]
        yield f"retuned {name} m=10", f_ints, WildWitness.from_dict(dict(data, m=10))
        scaled = [dict(ch, x_scale=2 * ch["x_scale"], y_scale=2 * ch["y_scale"], y_codim=2 * ch["y_codim"])
                  for ch in data["charts"]]
        yield f"retuned {name} m=16", f_ints, WildWitness.from_dict(dict(data, m=16, charts=scaled))


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

    for key, f_ints, w in _witness_inputs():
        out[key] = _outcome(verified, f_ints, w)
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
    # both ends of the inseparable branch: a triple line is refused, and a
    # reduced y1^3 = -A0 is accepted, here as the only component
    messages = {o["message"] for o in outcomes.values() if "message" in o}
    assert any(msg.endswith("reduction y1^3 = cube is not a reduced curve") for msg in messages)
    assert "etale component genera [] match no reduction type" in messages


def _four_row_reduction(ring, f_ints, chart):
    """(rows, N0): y^3 - f(x) in the chart with every row substituted, divided by the content pi^N0, reduced.

    rows[j] is the coefficient of y1^j in x1 over the residue field.  The
    reference the chart constants replace: y^3 = pi^(3b) (g + pi^d y1)^3
    expanded with 3 as a ring element, nothing derived.
    """
    gf = ring.gf
    pi_elt = lambda tup: lf.geval(ring, [ring.from_int(c) for c in tup], ring.pi_power(1))  # noqa: E731
    G = [pi_elt(tup) for tup in chart.y_poly]
    G2 = lf.gmul(ring, G, G)
    b, d = chart.y_scale, chart.y_codim
    three = ring.from_int(3)
    fX = lf.gcompose_linear(ring, [ring.from_int(c) for c in f_ints], ring.pi_power(chart.x_scale), pi_elt(chart.x_center))
    rows = [
        lf.gadd(ring, [ring.mul(c, ring.pi_power(3 * b)) for c in lf.gmul(ring, G2, G)], [ring.neg(c) for c in fX]),
        [ring.mul(c, ring.mul(three, ring.pi_power(3 * b + d))) for c in G2],
        [ring.mul(c, ring.mul(three, ring.pi_power(3 * b + 2 * d))) for c in G],
        [ring.pi_power(3 * b + 3 * d)],
    ]
    n0 = min(ring.val(c) for row in rows for c in row)
    if n0 >= ring.cap:
        return None, n0
    return [lf.gtrim(gf, [ring.residue(ring.div_pi(c, n0)) for c in row]) for row in rows], n0


def _raised_inputs():
    """(key, f_ints, witness): the m = 8 bundled charts with x_scale and y_codim both raised by 1 or 2.

    There the y1 row's content is the least of the chart's, below that of
    the y1^0 row and of pi^(3b+3d): no corpus input has that.
    """
    for fix in load_fixtures():
        data = fix.get("witness")
        if not data or data["m"] != 8:
            continue
        for da, dd in itertools.product((1, 2), repeat=2):
            chart = data["charts"][0]
            raised = dict(chart, x_scale=chart["x_scale"] + da, y_codim=chart["y_codim"] + dd)
            yield f"raised {fix['name']} +{da} +{dd}", data["curve"][::-1], WildWitness.from_dict(dict(data, charts=[raised]))


def test_chart_constants_match_the_four_row_reduction():
    """On every chart of the corpus whose y1^3 row reduces to a nonzero constant: A3 = 1, A2 = 0, A1 = -tbar^2.

    tbar None stands for A1 = 0, the inseparable case; A0 and N0 are those
    of wild3._chart_reduction, and the content check passes exactly there.
    """
    import picard.wild3 as wild3

    checked = Counter()
    for key, f_ints, w in [*_witness_inputs(), *_raised_inputs()]:
        ring = wild3._witness_ring(w.m, lf.multiplicative_order(3, w.m))
        gf = ring.gf
        for chart in w.charts:
            rows, n0 = _four_row_reduction(ring, f_ints, chart)
            if rows is None:
                continue
            a0, got_n0 = wild3._chart_reduction(ring, f_ints, chart)
            assert (a0, got_n0) == (rows[0], n0), key
            passes = len(rows[3]) == 1  # gtrim left a nonzero constant
            assert passes == (n0 == 3 * (chart.y_scale + chart.y_codim)), key
            if not passes:
                continue
            tbar = wild3._chart_constants(ring, chart)[4]
            assert rows[3] == [gf.one] and rows[2] == [], key
            minus_t2 = [] if tbar is None else [gf.neg(c) for c in lf.gmul(gf, tbar, tbar)]
            assert rows[1] == minus_t2, key
            checked[tbar is None] += 1
    # separable: the bundled, family, mutated and m = 16 charts; inseparable:
    # the lowered and the m = 10 ones
    assert checked == {False: 254, True: 10}


def test_lefschetz_trace_formula_matches_witness_quotients(monkeypatch):
    """(1/m) sum_j Tr(tau^j | H^1) equals 2 * sum(quotient_genera) + gamma0 on every computed f3.

    The special fiber of types (a)-(c) is a tree, so H^1 is the sum of its
    components' H^1, and an inseparable component (genus 0) adds 0.  An
    etale component in an orbit of length ell is fixed by tau^j exactly
    when ell | j; there tau^j adds 2g when it acts as the identity, else
    2 - #fixed points.  The oracle shares the actions (_stabilizer_actions)
    and fixed-point counts (_as_fix_count) of verify_witness, so it is
    independent in aggregation only: it replaces the orbits, the kernel
    count and Riemann-Hurwitz over each stabilizer of quotient_genera by an
    average of traces over the whole group.  No input here has type (c),
    which stays unchecked.
    """
    import picard.wild3 as wild3

    seen = {}

    def quotient_genera(*args):
        seen["quotient"] = args[:6]
        return quotient_genera_orig(*args)

    quotient_genera_orig = wild3.quotient_genera
    monkeypatch.setattr(wild3, "quotient_genera", quotient_genera)
    checked = Counter()
    for key, f_ints, w in _witness_inputs():
        try:
            v = verify_witness(f_ints, w)
        except (WitnessInvalidError, lf.NeedsLargerK):
            continue
        if v.f3 is None:
            continue
        items, perm, m, genus, signature, fixed_points = seen.pop("quotient")
        total = 0
        for i in items:
            ell, cur = 1, perm[i]
            while cur != i:
                ell, cur = ell + 1, perm[cur]
            for j in range(0, m, ell):
                sig = signature(i, j) if j else None
                total += 2 * genus(i) if sig is None else 2 - fixed_points(i, j, sig)
        assert total % m == 0 and total // m == 2 * sum(v.quotient_genera) + v.gamma0, key
        checked[v.reduction_type, m] += 1
    # the bundled witnesses, the 200 family curves, the mutated charts that
    # still verify and the m = 8 charts retuned to m = 16
    assert checked == {("a", 8): 212, ("b", 4): 6, ("a", 16): 2}


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    digests = _digests()
    DIGESTS.write_text(json.dumps({"digests": digests}, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {DIGESTS}")

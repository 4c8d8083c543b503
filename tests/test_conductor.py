import itertools
import random
from fractions import Fraction

import pytest

import picard.conductor
from picard.conductor import (
    ConductorReport,
    analyze_p2,
    analyze_p3,
    analyze_prime,
    conductor_tame,
    global_conductor,
    sqrt_disc_unramified_at_2,
)
from picard.curves import InseparableCurveError, PicardCurve, normalize
from picard.exact import poly_from_ints
from picard.localfield import WildSplittingError, split_over_minimal_tame
from picard.wild3 import WildWitness, WitnessInvalidError

EXA_TAME = poly_from_ints([1, 0, 14, 72, -41])
X4_MINUS_1 = poly_from_ints([1, 0, 0, 0, -1])

WITNESS_X4_PLUS_1 = WildWitness.from_dict(
    {
        "p": 3,
        "m": 8,
        "curve": [1, 0, 0, 0, 1],
        "charts": [
            {"x_scale": 3, "x_center": [0], "y_scale": 0, "y_poly": [[1]], "y_codim": 4}
        ],
    }
)

WITNESS_X4_MINUS_1 = WildWitness.from_dict(
    {
        "p": 3,
        "m": 8,
        "curve": [1, 0, 0, 0, -1],
        "charts": [
            {"x_scale": 3, "x_center": [0], "y_scale": 0, "y_poly": [[-1]], "y_codim": 4}
        ],
    }
)

WITNESS_F3_4 = WildWitness.from_dict(
    {
        "p": 3,
        "m": 4,
        "curve": [3, 1, 0, 0, -54],
        "charts": [
            {"x_scale": 2, "x_center": [0], "y_scale": 2, "y_poly": [[0], [1]], "y_codim": 2},
            {"x_scale": 5, "x_center": [0, 0, 0, 0, -1], "y_scale": 4,
             "y_poly": [[1], [0, 1]], "y_codim": 2},
        ],
    }
)


def test_tame_pipeline_exceptional_p5():
    c, _ = normalize(EXA_TAME)
    rep = conductor_tame(c, 5)
    assert rep.status == "computed"
    assert rep.f_p == 0
    assert rep.reduction_type == "b"
    assert rep.exceptional
    genera = sorted(
        (comp["genus"] for comp in rep.detail["fiber"]["components"]), reverse=True
    )
    assert genera == [2, 1]


def test_tame_good_reduction_fast_path():
    c, _ = normalize(X4_MINUS_1)
    rep = conductor_tame(c, 5)
    assert rep.f_p == 0 and rep.reduction_type == "a" and not rep.exceptional


def test_tame_kummer_frozen_value():
    # hand-derived: e0 = 4, cube twist to 12, type (a), quotient genus 0.
    # All C12 fixed-point counts were verified against Riemann-Hurwitz:
    # 2*3 - 2 = 12*(2*0 - 2) + 28.
    c, _ = normalize(poly_from_ints([1, 0, 0, 0, -5]))
    rep = conductor_tame(c, 5)
    assert rep.f_p == 6
    assert rep.reduction_type == "a"
    assert rep.detail["e_semistable"] == 12
    assert rep.detail["quotient_genera"] == [0]


def test_conductor_tame_rejects_small_primes():
    c, _ = normalize(X4_MINUS_1)
    with pytest.raises(ValueError):
        conductor_tame(c, 3)
    with pytest.raises(ValueError):
        conductor_tame(c, 2)


def test_analyze_p2_wild_constraints():
    c, _ = normalize(X4_MINUS_1)
    rep = analyze_p2(c)
    assert rep.status == "unknown-wild"
    assert (rep.f_lo, rep.f_hi) == (2, 28)
    assert any("f_2 != 1" in n for n in rep.notes)


def test_disc_check_for_wildness_at_2_agrees_with_lifting(monkeypatch):
    # every normalized separable monic quartic with |a_i| <= 3 and 2 | Delta
    # that the discriminant check calls wild: no tame e splits it, and the
    # report is the one the lifting path gives
    wild = {}
    for a in itertools.product(range(-3, 4), repeat=4):
        try:
            curve, _ = normalize(poly_from_ints([1, *a]))
        except InseparableCurveError:
            continue
        if curve.ord_disc(2) > 0 and not sqrt_disc_unramified_at_2(curve):
            wild[curve.f] = curve
    assert len(wild) > 400
    for curve in wild.values():
        with pytest.raises(WildSplittingError):
            split_over_minimal_tame([int(c) for c in curve.f.coeffs], 2)
    checked = [analyze_p2(curve).to_dict() for curve in wild.values()]
    monkeypatch.setattr(picard.conductor, "sqrt_disc_unramified_at_2", lambda curve: True)
    assert [analyze_p2(curve).to_dict() for curve in wild.values()] == checked


def test_analyze_p2_good_reduction():
    # x^4 + x + 1 is separable mod 2 (Delta = 229): good reduction at 2
    c2, _ = normalize(poly_from_ints([1, 0, 0, 1, 1]))
    assert c2.ord_disc(2) == 0
    assert analyze_p2(c2).f_p == 0


def test_analyze_p3_without_witness_bounds():
    c, _ = normalize(X4_MINUS_1)
    rep = analyze_p3(c)
    assert rep.status == "bounded"
    assert (rep.f_lo, rep.f_hi) == (4, 21)


def test_analyze_p3_with_witnesses():
    c_plus, _ = normalize(poly_from_ints([1, 0, 0, 0, 1]))
    rep = analyze_p3(c_plus, WITNESS_X4_PLUS_1)
    assert rep.status == "computed" and rep.f_p == 6 and rep.reduction_type == "a"

    c_354, _ = normalize(poly_from_ints([3, 1, 0, 0, -54]))
    rep4 = analyze_p3(c_354, WITNESS_F3_4)
    assert rep4.status == "computed" and rep4.f_p == 4 and rep4.reduction_type == "b"
    assert rep4.detail["quotient_genera"] == [1, 0]


def test_witness_curve_mismatch_rejected():
    c, _ = normalize(X4_MINUS_1)
    with pytest.raises(WitnessInvalidError):
        analyze_p3(c, WITNESS_X4_PLUS_1)


def test_witness_invalid_chart_diagnosed():
    bad = WildWitness.from_dict(
        {
            "p": 3,
            "m": 8,
            "curve": [1, 0, 0, 0, 1],
            "charts": [
                {"x_scale": 2, "x_center": [0], "y_scale": 0,
                 "y_poly": [[1]], "y_codim": 4}
            ],
        }
    )
    with pytest.raises(WitnessInvalidError):
        analyze_p3(normalize(poly_from_ints([1, 0, 0, 0, 1]))[0], bad)


def test_global_conductor_assembly():
    c, _ = normalize(X4_MINUS_1)
    g = global_conductor(c, witnesses={3: WITNESS_X4_MINUS_1})
    assert g.n_lo % 3**6 == 0
    assert not g.exact
    by_p = {r.p: r for r in g.reports}
    assert by_p[3].f_p == 6
    assert by_p[2].status == "unknown-wild"
    assert any("f_2 != 1" in n for n in by_p[2].notes)
    # interval bounds multiply out
    assert g.n_lo == 2**2 * 3**6
    assert g.n_hi == 2**28 * 3**6


def test_global_conductor_covers_bad_primes_plus_three():
    c, _ = normalize(poly_from_ints([1, 0, 14, 72, -41]))
    g = global_conductor(c)
    assert g.n_lo <= g.n_hi
    assert {r.p for r in g.reports} == {2, 3, 5}


def test_global_conductor_invariant_under_integer_translation():
    # f(x) and f(x + b) are the same curve, but their roots, and so the
    # residue polynomials met while lifting them, differ at every prime.
    # So is the raw model u^12 f(u^-3 x) once normalized: u = 2 and 5 must be
    # scaled away, u = 1/2 needs its denominators cleared.
    def summary(g):
        return (g.n_lo, g.n_hi), [
            (r.p, r.status, r.f_lo, r.f_hi, r.reduction_type) for r in g.reports
        ]

    rng = random.Random(43)
    checked = 0
    while checked < 8:
        coeffs = [1] + [rng.randint(-6, 6) for _ in range(4)]
        try:
            c, _ = normalize(poly_from_ints(coeffs))
        except InseparableCurveError:
            continue
        b = rng.choice([b for b in range(-5, 6) if b])
        expected = summary(global_conductor(c))
        assert summary(global_conductor(PicardCurve(c.f.shift(b)))) == expected, (coeffs, b)
        for u in (2, 5, Fraction(1, 2)):
            raw = c.f.compose_linear(Fraction(1) / u**3, 0).scale(u**12)
            scaled, _ = normalize(raw)
            assert scaled.f == c.f, (coeffs, u)
            assert summary(global_conductor(scaled)) == expected, (coeffs, u)
        checked += 1


def test_report_invariant_guards():
    with pytest.raises(ValueError):
        ConductorReport(p=3, status="computed", f_lo=2, f_hi=2)
    with pytest.raises(ValueError):
        ConductorReport(p=2, status="computed", f_lo=1, f_hi=1)
    with pytest.raises(ValueError):
        ConductorReport(p=5, status="computed", f_lo=2, f_hi=4)


def test_report_serialization():
    c, _ = normalize(EXA_TAME)
    rep = conductor_tame(c, 5)
    d = rep.to_dict()
    assert d["p"] == 5 and d["f_p"] == 0 and d["type"] == "b" and d["exceptional"]
    rep2 = analyze_p2(c)
    d2 = rep2.to_dict()
    assert d2["f_p"] == [2, 28] and d2["status"] == "unknown-wild"


def test_analyze_prime_rejects_composites():
    c, _ = normalize(X4_MINUS_1)
    with pytest.raises(ValueError):
        analyze_prime(c, 6)

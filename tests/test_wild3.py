import random

import pytest

import picard.localfield as lf
import picard.wild3 as wild3
from picard.conductor import _witness_equation
from picard.curves import normalize
from picard.exact import poly_from_ints
from picard.fixtures import load_fixtures
from picard.wild3 import (
    INF,
    WildWitness,
    WitnessInvalidError,
    _poly_sqrt,
    _rf,
    as_cover,
    verify_witness,
)

F3 = lf.GF(3, 1)
F9 = lf.GF(3, 2)


def rf(gf, num, den=(1,)):
    return _rf(gf, [gf.from_int(c) for c in num], [gf.from_int(c) for c in den])


def test_as_genus_quartic_pole():
    # z^3 - z = x^4: one ramified point above infinity with jump 4: genus 3
    cov = as_cover(F9, rf(F9, [0, 0, 0, 0, 1]))
    assert cov.genus == 3
    assert cov.ram == {INF: 4}


def test_as_genus_two_simple_poles_after_reduction():
    # h = (1 + x^4)/x^3 reduces to jumps 1 at 0 and 1 at infinity: genus 2
    cov = as_cover(F3, rf(F3, [1, 0, 0, 0, 1], [0, 0, 0, 1]))
    assert cov.genus == 2
    assert set(cov.ram.values()) == {1}
    assert INF in cov.ram and (0,) in cov.ram


def test_as_genus_conic():
    cov = as_cover(F3, rf(F3, [0, 0, 1]))
    assert cov.genus == 1
    assert cov.ram == {INF: 2}


def test_as_reduction_strips_cube_poles():
    # h = x^3 is AS-equivalent to h = x: genus 0
    cov = as_cover(F3, rf(F3, [0, 0, 0, 1]))
    assert cov.genus == 0
    assert cov.ram == {INF: 1}


def test_as_reducible_rejected():
    # h = x^3 - x = u^3 - u with u = x: split cover
    with pytest.raises(WitnessInvalidError):
        as_cover(F3, rf(F3, [0, -1, 0, 1]))


def test_poly_sqrt():
    rng = random.Random(3)
    for _ in range(40):
        t = [F9.from_int(rng.randrange(3)) for _ in range(rng.randint(1, 4))]
        t = lf.gtrim(F9, t)
        if not t:
            continue
        sq = lf.gmul(F9, t, t)
        s = _poly_sqrt(F9, sq)
        assert s is not None
        assert lf.gtrim(F9, lf.gadd(F9, lf.gmul(F9, s, s), [F9.neg(c) for c in sq])) == []
    # x is not a square
    assert _poly_sqrt(F9, [F9.zero, F9.one]) is None


CHART_POTGOOD = {
    "p": 3,
    "m": 8,
    "charts": [
        {"x_scale": 3, "x_center": [0], "y_scale": 0, "y_poly": [[1]], "y_codim": 4}
    ],
}


def test_witness_potentially_good():
    v = verify_witness([1, 0, 0, 0, 1], WildWitness.from_dict(CHART_POTGOOD))
    assert v.reduction_type == "a"
    assert v.etale_genera == [3]
    assert v.quotient_genera == [0]
    assert v.f3 == 6
    comp = v.components[0]
    # reduced equation y^3 - y = x^4 up to the AS generator choice
    assert comp.cover.ram == {INF: 4}


CHART_TWO_M4 = {
    "p": 3,
    "m": 4,
    "charts": [
        {"x_scale": 2, "x_center": [0], "y_scale": 2,
         "y_poly": [[0], [1]], "y_codim": 2},
        {"x_scale": 5, "x_center": [0, 0, 0, 0, -1], "y_scale": 4,
         "y_poly": [[1], [0, 1]], "y_codim": 2},
    ],
}


def test_witness_two_charts_f3_4():
    w = WildWitness.from_dict(CHART_TWO_M4)
    v = verify_witness([-54, 0, 0, 1, 3], w)
    assert v.reduction_type == "b"
    assert v.etale_genera == [1, 2]
    assert sorted(v.quotient_genera) == [0, 1]
    assert v.f3 == 4
    genus2 = next(c for c in v.components if c.genus == 2)
    # the Artin-Schreier form of the cuspidal chart: jumps 1 at 0 and infinity
    zero = tuple(genus2.cover.gf.zero)
    assert genus2.cover.ram == {zero: 1, INF: 1}


def test_witness_wrong_scale_fails():
    w = WildWitness.from_dict(
        {
            "p": 3,
            "m": 8,
            "charts": [
                {"x_scale": 2, "x_center": [0], "y_scale": 0,
                 "y_poly": [[1]], "y_codim": 4}
            ],
        }
    )
    with pytest.raises(WitnessInvalidError):
        verify_witness([1, 0, 0, 0, 1], w)


def test_witness_degenerate_codim_fails():
    w = WildWitness.from_dict(
        {
            "p": 3,
            "m": 8,
            "charts": [
                {"x_scale": 3, "x_center": [0], "y_scale": 0,
                 "y_poly": [[1]], "y_codim": 3}
            ],
        }
    )
    with pytest.raises(WitnessInvalidError):
        verify_witness([1, 0, 0, 0, 1], w)


def test_witness_rejects_p_not_3():
    with pytest.raises(WitnessInvalidError):
        WildWitness.from_dict({"p": 5, "m": 4, "charts": []})
    with pytest.raises(WitnessInvalidError):
        WildWitness.from_dict({"p": 3, "m": 6, "charts": []})


def test_witness_roundtrip_serialization():
    w = WildWitness.from_dict(CHART_POTGOOD)
    again = WildWitness.from_dict(w.to_dict())
    assert again == w


def _check_composed_powers(f_ints, witness):
    """Every stabilizer power composed in F_q equals the direct chart action.

    Besides the stabilizer of each chart (generated by tau^ell, ell its orbit
    length), every subgroup generated by tau^L with ell | L | m is composed
    too, so generators other than tau itself are covered.  Returns the orbit
    lengths.
    """
    m = witness.m
    ring = lf.TameRing(lf.TameExtension(3, m, c=-1), lf.multiplicative_order(3, m), 20)
    comps = [wild3._analyze_chart(ring, f_ints, i, ch) for i, ch in enumerate(witness.charts)]
    perm = wild3._chart_permutation(ring, comps, 1)
    lengths = []
    for i, comp in enumerate(comps):
        if comp.inseparable:
            continue
        ell, cur = 1, perm[i]
        while cur != i:
            ell, cur = ell + 1, perm[cur]
        lengths.append(ell)
        direct = {j: wild3._as_automorphism(ring, comp, j) for j in range(ell, m, ell)}
        for gen in range(ell, m, ell):
            if m % gen:
                continue
            composed = wild3._stabilizer_actions(ring, comp, gen)
            assert list(composed) == list(range(gen, m, gen))
            for j, act in composed.items():
                assert act == direct[j], (f_ints, i, gen, j)
    return lengths


def test_composed_powers_match_direct_action_on_fixtures():
    assert _check_composed_powers([1, 0, 0, 0, 1], WildWitness.from_dict(CHART_POTGOOD)) == [1]
    # both charts of the m = 4 witness are fixed by tau; tau^2 is checked as a generator too
    assert _check_composed_powers([-54, 0, 0, 1, 3], WildWitness.from_dict(CHART_TWO_M4)) == [1, 1]


def test_composed_powers_match_direct_action_on_family():
    # the witness-p3 family x^4 + 3b3 x^3 + 3b2 x^2 + 9b1 x + (1 + 9b0) with
    # the bundled potgood-p3-f6 chart, untied from its curve
    data = dict(next(f for f in load_fixtures() if f["name"] == "potgood-p3-f6")["witness"])
    data.pop("curve")
    witness = WildWitness.from_dict(data)
    rng = random.Random(10)
    for _ in range(50):
        b3, b2, b1, b0 = (rng.randint(-20, 20) for _ in range(4))
        curve, _ = normalize(poly_from_ints([1, 3 * b3, 3 * b2, 9 * b1, 1 + 9 * b0]))
        assert _check_composed_powers(_witness_equation(curve, witness), witness) == [1]


def test_one_chart_action_per_stabilizer(monkeypatch):
    calls = []
    direct = wild3._chart_xy_action

    def counted(ring, comp, j):
        calls.append(j)
        return direct(ring, comp, j)

    monkeypatch.setattr(wild3, "_chart_xy_action", counted)
    assert verify_witness([1, 0, 0, 0, 1], WildWitness.from_dict(CHART_POTGOOD)).f3 == 6
    assert calls == [1]


def test_corrupted_generator_action_is_rejected(monkeypatch):
    # the generator's action is checked against the AS equation; its powers
    # are composed from it, so a wrong generator must still be caught
    direct = wild3._chart_xy_action

    def shifted(ring, comp, j):
        lam, gam, F = direct(ring, comp, j)
        return lam, ring.gf.add(gam, ring.gf.one), F

    monkeypatch.setattr(wild3, "_chart_xy_action", shifted)
    with pytest.raises(WitnessInvalidError, match="does not preserve the AS equation"):
        verify_witness([1, 0, 0, 0, 1], WildWitness.from_dict(CHART_POTGOOD))

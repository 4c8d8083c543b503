import copy
import itertools
import random
import time
from collections import Counter

import pytest

import picard.localfield as lf
import picard.wild3 as wild3
from picard.conductor import _witness_equation, analyze_p3
from picard.curves import normalize
from picard.exact import poly_from_ints
from picard.fixtures import load_fixtures
from picard.wild3 import (
    INF,
    WildWitness,
    WitnessInvalidError,
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


def random_h(gf, rng):
    """A seeded h = num/den over gf: poles of order up to 7 at rational points and at infinity.

    One den in ten also has a random quadratic factor, often irreducible, so
    as_cover asks for a larger field.
    """
    elts = list(gf.elements())
    num = [rng.choice(elts) for _ in range(rng.randrange(9))]
    den = [gf.one]
    for _ in range(rng.randrange(4)):
        lin = [gf.neg(rng.choice(elts)), gf.one]
        for _ in range(rng.randrange(1, 8)):
            den = lf.gmul(gf, den, lin)
    if rng.random() < 0.1:
        den = lf.gmul(gf, den, [rng.choice(elts), rng.choice(elts), gf.one])
    return _rf(gf, num, den)


def _as_outcome(gf, h):
    """(genus, ram) of as_cover(gf, h), or the error it raises: its type and message, or its k."""
    try:
        cov = as_cover(gf, h)
    except WitnessInvalidError as ex:
        return "invalid", str(ex)
    except lf.NeedsLargerK as ex:
        return "needs-k", ex.k
    return cov.genus, cov.ram


def _invert(gf, h):
    """h(1/x): x^dd num(1/x) / (x^dn den(1/x)), dn and dd the degrees of num and den."""
    num, den = h
    if not num:
        return h
    return _rf(gf, [gf.zero] * (len(den) - 1) + num[::-1], [gf.zero] * (len(num) - 1) + den[::-1])


@pytest.mark.parametrize("gf, n", [(F3, 300), (F9, 120)], ids=["F3", "F9"])
def test_as_cover_is_invariant_under_x_to_1_over_x(gf, n):
    # x -> 1/x is an automorphism of P^1: the genus stays, the jump at P moves
    # to 1/P (0 and INF swap), and a cover that fails fails the same way
    rng = random.Random(f"invert-{gf.k}")

    def image(P):
        if P == INF:
            return tuple(gf.zero)
        return INF if gf.is_zero(P) else tuple(gf.inv(P))

    ramified = 0
    for _ in range(n):
        h = random_h(gf, rng)
        want, got = _as_outcome(gf, h), _as_outcome(gf, _invert(gf, h))
        if isinstance(want[0], int):
            genus, ram = want
            assert got == (genus, {image(P): jump for P, jump in ram.items()}), h
            ramified += any(P != INF for P in ram) and any(P != INF for P in got[1])
        else:
            assert got == want, h
    assert ramified >= n // 10  # many covers ramify at finite points on both sides


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


def test_witness_rejects_a_ring_wider_than_the_bound():
    # elements of the witness ring are m*k ints, k the order of 3 mod m:
    # m = 3^8 - 1 and 3^10 - 1 ask for 52480 and 590480 of them
    chart = dict(CHART_POTGOOD["charts"][0])
    for m in (6560, 59048):
        t0 = time.perf_counter()
        with pytest.raises(WitnessInvalidError, match="m\\*k"):
            WildWitness.from_dict({"p": 3, "m": m, "charts": [chart]})
        assert time.perf_counter() - t0 < 0.05, m
    # m = 20 (k = 4) is within the bound, and m = 40 (k = 4) is not
    assert WildWitness.from_dict({"p": 3, "m": 20, "charts": [chart]}).m == 20
    assert 20 * 4 <= wild3.MAX_WITNESS_WIDTH < 40 * 4
    with pytest.raises(WitnessInvalidError):
        WildWitness.from_dict({"p": 3, "m": 40, "charts": [chart]})


def test_witness_rejects_a_long_y_poly_before_any_ring(monkeypatch):
    # the chart substitution costs about len(y_poly)^2 ring products
    chart = dict(CHART_POTGOOD["charts"][0])
    long = [[1]] + [[0] * 8 + [1]] * wild3.MAX_WITNESS_Y_TERMS
    with monkeypatch.context() as patch:
        patch.setattr(lf.TameRing, "__init__", None)  # building a ring raises TypeError
        with pytest.raises(WitnessInvalidError, match="y_poly has 17 > 16 terms"):
            WildWitness.from_dict(dict(CHART_POTGOOD, charts=[dict(chart, y_poly=long)]))
    ok = WildWitness.from_dict(dict(CHART_POTGOOD, charts=[dict(chart, y_poly=long[:-1])]))
    assert len(ok.charts[0].y_poly) == wild3.MAX_WITNESS_Y_TERMS


@pytest.mark.parametrize("key", ["x_center", "y_poly"])
def test_witness_rejects_a_pi_polynomial_longer_than_the_ring(key):
    # at m = 8 the ring holds m * 20 = 160 pi-digits; pi^160 and above vanish there
    chart = dict(CHART_POTGOOD["charts"][0])

    def witness(digits):
        tup = [1] + [0] * (digits - 1)
        return dict(CHART_POTGOOD, charts=[dict(chart, **{key: [tup] if key == "y_poly" else tup})])

    WildWitness.from_dict(witness(160))
    with pytest.raises(WitnessInvalidError, match="longer than the ring's m\\*20 = 160 digits"):
        WildWitness.from_dict(witness(161))


@pytest.mark.parametrize("field", ["x_scale", "y_scale", "y_codim"])
def test_witness_rejects_negative_scales(field):
    # the witness ring holds no pi^-1
    chart = dict(CHART_POTGOOD["charts"][0], **{field: -3})
    with pytest.raises(WitnessInvalidError, match="non-negative"):
        WildWitness.from_dict(dict(CHART_POTGOOD, charts=[chart]))


def _potgood_with(path, value):
    """CHART_POTGOOD with its curve, the entry at path (keys and indices) set to value."""
    data = copy.deepcopy(dict(CHART_POTGOOD, curve=[1, 0, 0, 0, 1]))
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return data


@pytest.mark.parametrize(
    "path, value",
    [
        (("m",), 8.9),
        (("m",), 8.0),
        (("m",), "8"),
        (("p",), 3.0),
        (("charts", 0, "x_scale"), 3.9),
        (("charts", 0, "y_scale"), False),
        (("charts", 0, "y_codim"), "4"),
        (("charts", 0, "x_center", 0), 0.0),
        (("charts", 0, "y_poly", 0, 0), 1.5),
        (("charts", 0, "y_poly", 0, 0), True),
        (("curve", 4), 1.0),
        (("curve", 0), "1"),
    ],
)
def test_witness_numbers_must_be_json_integers(path, value):
    # int() would read 8.9 as 8, True as 1 and "8" as 8: another witness than the file's
    with pytest.raises(WitnessInvalidError, match="^malformed witness: TypeError: expected an integer, got "):
        WildWitness.from_dict(_potgood_with(path, value))


@pytest.mark.parametrize("curve", [[1, 0, 0, 0], [1, 0, 0, 0, 0]])
def test_witness_curve_that_is_no_separable_quartic_is_invalid(curve):
    target, _ = normalize(poly_from_ints([1, 0, 0, 0, 1]))
    with pytest.raises(WitnessInvalidError, match="witness curve"):
        analyze_p3(target, WildWitness.from_dict(dict(CHART_POTGOOD, curve=curve)))


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
    perm = wild3._chart_permutation(ring, witness.charts, 1)
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


def _family(n, seed):
    """n members of the witness-p3 family x^4 + 3b3 x^3 + 3b2 x^2 + 9b1 x + (1 + 9b0)."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        b3, b2, b1, b0 = (rng.randint(-20, 20) for _ in range(4))
        out.append(normalize(poly_from_ints([1, 3 * b3, 3 * b2, 9 * b1, 1 + 9 * b0]))[0])
    return out


def _family_witness():
    """The bundled potgood-p3-f6 chart, untied from its curve."""
    data = dict(next(f for f in load_fixtures() if f["name"] == "potgood-p3-f6")["witness"])
    data.pop("curve")
    return WildWitness.from_dict(data)


def test_composed_powers_match_direct_action_on_family():
    witness = _family_witness()
    for curve in _family(50, 10):
        assert _check_composed_powers(_witness_equation(curve, witness), witness) == [1]


def test_one_chart_action_per_stabilizer(monkeypatch):
    calls = []
    direct = wild3._chart_action

    def counted(ring, chart, j):
        calls.append(j)
        return direct(ring, chart, j)

    monkeypatch.setattr(wild3, "_chart_action", counted)
    assert verify_witness([1, 0, 0, 0, 1], WildWitness.from_dict(CHART_POTGOOD)).f3 == 6
    assert calls == [1]


def _inverse_map_action(ring, ch, j):
    """(lam, gam, eps, w) of tau^j on a separable chart, or the message of the check that fails.

    The reference for wild3._chart_action: H = zeta^(jb) tau^j(g)(A^-1 x1) -
    g(x1), A^-1 x1 = zeta^(-ja) (x1 - gamma), reduces to F after division by
    pi^d, and F is composed with A only in the residue field.
    """
    a, b, d, m = ch.x_scale, ch.y_scale, ch.y_codim, ring.e
    gf, zp = ring.gf, ring.zeta_powers
    center, G, _, _, tbar = wild3._chart_constants(ring, ch)
    gam_elt = ring.div_pi(ring.sub(ring.galois_map(center, j), center), a)
    lam, gam = ring.residue(zp[j * a % m]), ring.residue(gam_elt)
    zinv = ring.from_unram(zp[-j * a % m])
    inverse = lf.gcompose_linear(ring, [ring.galois_map(c, j) for c in G], zinv, ring.mul(zinv, ring.neg(gam_elt)))
    zb = ring.from_unram(zp[j * b % m])
    H = lf.gadd(ring, [ring.mul(c, zb) for c in inverse], [ring.neg(c) for c in G])
    if any(ring.val(c) < d for c in H):
        return "chart is not equivariant under its stabilizer"
    F = lf.gtrim(gf, [ring.residue(ring.div_pi(c, d)) for c in H])
    tA = lf.gcompose_linear(gf, tbar, lam, gam)
    if len(tA) != len(tbar):
        return "translation function not projectively invariant"
    kappa = gf.mul(tA[-1], gf.inv(tbar[-1]))
    if lf.gtrim(gf, lf.gadd(gf, tA, [gf.neg(gf.mul(kappa, c)) for c in tbar])):
        return "translation function not scaled by the action"
    eps = gf.mul(ring.residue(zp[j * (b + d) % m]), gf.inv(kappa))
    if eps not in (gf.one, gf.neg(gf.one)):
        return "deck conjugation is not +/-1 on the AS generator"
    return lam, gam, eps, _rf(gf, lf.gcompose_linear(gf, F, lam, gam), tA)


def test_chart_action_matches_the_inverse_map_reference():
    # charts x = pi^a (kappa + x1), y = pi^b ((x1 + kappa)^2 + pi^d r(x1)) with
    # d = m/2 (separable) and b = 2a mod m: tau^j moves the center by
    # gamma = kappa (zeta^(ja) - 1), so both compositions with A are tested,
    # and eps = zeta^(jd) = (-1)^j; b + 1 breaks the equivariance
    outcomes = Counter()
    for m in (4, 8):
        ring = wild3._witness_ring(m, lf.multiplicative_order(3, m))
        d = m // 2
        for a, kappa, r in itertools.product((1, 2, 3, 5), (1, 2), ([], [[0] * d + [1]], [[], [], [0] * d + [1, 1]])):
            for b in (2 * a % m, 2 * a % m + 1):
                y_poly = [[kappa * kappa], [2 * kappa], [1]]
                for i, tup in enumerate(r):
                    y_poly[i] = [x + y for x, y in itertools.zip_longest(y_poly[i], tup, fillvalue=0)]
                ch = wild3.WitnessChart(a, (0,) * a + (kappa,), b, tuple(map(tuple, y_poly)), d)
                for j in range(1, m):
                    want = _inverse_map_action(ring, ch, j)
                    try:
                        got = wild3._chart_action(ring, ch, j)
                    except WitnessInvalidError as ex:
                        got = str(ex)
                    assert got == want, (ch, j)
                    outcomes[want if isinstance(want, str) else (want[2], bool(want[3][0]))] += 1
    one = ring.gf.one
    assert sum(outcomes.values()) == 480
    assert set(outcomes) == {
        (one, False), (one, True), (ring.gf.neg(one), False), (ring.gf.neg(one), True),
        "chart is not equivariant under its stabilizer",
    }


def test_corrupted_generator_action_is_rejected(monkeypatch):
    # the generator's action is checked against the AS equation; its powers
    # are composed from it, so a wrong generator must still be caught
    direct = wild3._chart_action

    def shifted(ring, chart, j):
        lam, gam, eps, w = direct(ring, chart, j)
        return lam, ring.gf.add(gam, ring.gf.one), eps, w

    monkeypatch.setattr(wild3, "_chart_action", shifted)
    with pytest.raises(WitnessInvalidError, match="does not preserve the AS equation"):
        verify_witness([1, 0, 0, 0, 1], WildWitness.from_dict(CHART_POTGOOD))


def _field_free(v):
    """The fields of a verification that do not name the residue field."""
    return (v.m, v.reduction_type, v.etale_genera, v.inseparable_count, v.quotient_genera, v.gamma0, v.f3,
            v.f3_range, [(c.index, c.inseparable, c.genus, c.cover and sorted(c.cover.ram.values())) for c in v.components])


def test_needs_larger_k_retries_on_a_larger_ring(monkeypatch):
    witness = WildWitness.from_dict(CHART_POTGOOD)
    want = verify_witness([1, 0, 0, 0, 1], witness)
    direct = wild3.as_cover
    fields = []

    def once(gf, h):
        fields.append(gf.k)
        if len(fields) == 1:
            raise lf.NeedsLargerK(4)
        return direct(gf, h)

    monkeypatch.setattr(wild3, "as_cover", once)
    got = verify_witness([1, 0, 0, 0, 1], witness)
    # m = 8 starts at k = 2, the order of 3 mod 8, and grows to lcm(4, 2)
    assert fields == [2, 4]
    assert got.components[0].cover.gf.k == 4
    assert _field_free(got) == _field_free(want)
    monkeypatch.undo()
    assert got == wild3._verify_with_ring(wild3._witness_ring(8, 4), [1, 0, 0, 0, 1], witness)


def test_needs_larger_k_beyond_the_cap_is_invalid(monkeypatch):
    def oversized(gf, h):
        raise lf.NeedsLargerK(lf.HARD_K_CAP + 1)

    monkeypatch.setattr(wild3, "as_cover", oversized)
    with pytest.raises(WitnessInvalidError, match="^witness needs an oversized residue field$"):
        verify_witness([1, 0, 0, 0, 1], WildWitness.from_dict(CHART_POTGOOD))


def test_vertical_as_action_fix_count():
    # x -> x with z -> eps z + w: the identity, a deck translation by a
    # constant in F_3 (fixing the ramified points), or no automorphism
    cover = as_cover(F9, rf(F9, [0, 0, 0, 0, 1]))
    one, zero = F9.one, F9.zero

    def fix(eps, w):
        return wild3._as_fix_count(F9, cover, one, zero, eps, w)

    assert fix(one, ([], [one])) is None
    with pytest.raises(WitnessInvalidError, match="orientation-reversing"):
        fix(F9.neg(one), ([], [one]))
    for c in (one, F9.neg(one)):
        assert fix(one, ([c], [one])) == len(cover.ram) == 1
    # a constant of F_9 outside F_3, x and 1/x
    for w in (([(0, 1)], [one]), rf(F9, [0, 1]), rf(F9, [1], [0, 1])):
        with pytest.raises(WitnessInvalidError, match="non-F3 translation"):
            fix(one, w)


# ---- the data bound once per witness ring ----------------------------------

WITNESS_CACHES = (
    wild3._witness_ring,
    wild3._chart_constants,
    wild3._chart_action,
    wild3._chart_permutation,
)


def _clear_witness_caches():
    for cache in WITNESS_CACHES:
        cache.cache_clear()


@pytest.fixture
def cold():
    _clear_witness_caches()
    yield
    _clear_witness_caches()


def _outcome(f_ints, witness):
    try:
        return verify_witness(f_ints, witness)
    except WitnessInvalidError as ex:
        return str(ex)


def test_warm_and_cold_caches_give_equal_verifications(cold):
    cases = []
    for fix in load_fixtures():
        if fix.get("witness"):
            w = WildWitness.from_dict(fix["witness"])
            cases.append((list(w.curve[::-1]), w))
    witness = _family_witness()
    cases += [(_witness_equation(curve, witness), witness) for curve in _family(200, 24)]
    warm = [_outcome(f, w) for f, w in cases]
    assert {v.reduction_type for v in warm} == {"a", "b"}
    warm_again = [_outcome(f, w) for f, w in cases]
    coldly = []
    for f, w in cases:
        _clear_witness_caches()
        coldly.append(_outcome(f, w))
    assert warm == warm_again == coldly


def test_chart_action_built_once_across_family_curves(cold):
    witness = _family_witness()
    for curve in _family(3, 5):
        assert verify_witness(_witness_equation(curve, witness), witness).f3 == 6
    # one ring, one set of chart constants, one chart action, one permutation
    for cache in WITNESS_CACHES:
        assert cache.cache_info().misses == 1, cache


def test_failing_witness_raises_the_same_error_twice(cold, monkeypatch):
    # tau(c) moved by pi^3 keeps the chart disk (a = 3) but breaks the
    # equivariance of g (d = 4): the check fails inside the kept chart action
    witness = WildWitness.from_dict(CHART_POTGOOD)
    direct = lf.TameRing.galois_map

    def moved(ring, a, j):
        return ring.add(direct(ring, a, j), ring.pi_power(3))

    monkeypatch.setattr(lf.TameRing, "galois_map", moved)
    errors = []
    for _ in range(2):
        with pytest.raises(WitnessInvalidError) as info:
            verify_witness([1, 0, 0, 0, 1], witness)
        errors.append(str(info.value))
    assert errors == ["chart is not equivariant under its stabilizer"] * 2
    assert wild3._chart_action.cache_info().currsize == 0
    # so does a witness that fails in the checks each curve makes
    bad = WildWitness.from_dict(dict(CHART_POTGOOD, charts=[dict(CHART_POTGOOD["charts"][0], y_codim=3)]))
    monkeypatch.undo()
    errors = []
    for _ in range(2):
        with pytest.raises(WitnessInvalidError) as info:
            verify_witness([1, 0, 0, 0, 1], bad)
        errors.append(str(info.value))
    assert errors[0] == errors[1]

import random
from fractions import Fraction

import pytest

from picard.curves import (
    EquivalenceWitness,
    InseparableCurveError,
    PicardCurve,
    curve_text,
    disc_quartic_monic,
    equivalent,
    exceptional_prime_candidate,
    good_reduction_at,
    normalize,
    parse_curve_text,
)
from picard.exact import Poly, discriminant, poly_from_ints, resultant, valuation

X4_MINUS_1 = poly_from_ints([1, 0, 0, 0, -1])
EXA_TAME = poly_from_ints([1, 0, 14, 72, -41])


def test_disc_formula_matches_resultant_route():
    rng = random.Random(17)
    for _ in range(300):
        a3, a2, a1, a0 = (rng.randint(-40, 40) for _ in range(4))
        f = poly_from_ints([1, a3, a2, a1, a0])
        assert disc_quartic_monic(a3, a2, a1, a0) == resultant(f, f.derivative()) / f.lc


def test_normalize_fixed_point():
    c, w = normalize(X4_MINUS_1)
    assert c.f == X4_MINUS_1
    assert w.is_identity()
    assert c.disc == -256


def test_normalize_monicizes():
    # y^3 = 3x^4 + x^3 - 54; cleared by x -> x/3, y -> y/3, times 27.
    f = poly_from_ints([3, 1, 0, 0, -54])
    c, w = normalize(f)
    assert c.f == poly_from_ints([1, 1, 0, 0, -1458])
    assert w.apply(f) == c.f
    c2, w2 = normalize(c.f)
    assert c2.f == c.f and w2.is_identity()


def test_normalize_descales_full_36():
    # Delta(x^4 - p^12) = p^36 * Delta(x^4 - 1), so u = p collapses it.
    f = poly_from_ints([1, 0, 0, 0, -(2**12)])
    c, w = normalize(f)
    assert c.f == X4_MINUS_1
    assert w.apply(f) == c.f
    # same collapse away from the origin: quadruple cluster centered at 135
    g = X4_MINUS_1.compose_linear(Fraction(1, 27), 5).scale(3**12)
    assert discriminant(g) == 3**36 * -256
    c2, w2 = normalize(g)
    assert c2.f == X4_MINUS_1.shift(5)
    assert valuation(c2.disc, 3) == 0
    assert w2.apply(g) == c2.f
    # two primes, several descales at one: ord_2(Delta) = 80, ord_5(Delta) = 36
    h = poly_from_ints([1, 0, 0, 0, -(20**12)])
    c3, w3 = normalize(h)
    assert c3.f == X4_MINUS_1
    assert w3.apply(h) == c3.f


def test_normalize_rejects_inseparable():
    f = poly_from_ints([1, -1]) * poly_from_ints([1, -1]) * poly_from_ints([1, 0, 1])
    with pytest.raises(InseparableCurveError):
        normalize(f)
    # rational input reaches the same check after denominators are cleared
    half = Poly([Fraction(-1, 2), 1])
    with pytest.raises(InseparableCurveError):
        normalize(half * half * poly_from_ints([1, 0, 1]))


def test_normalize_minimal_integral_input_factors_once(monkeypatch):
    import picard.curves
    import picard.exact

    calls = {"factor": 0, "disc": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module, name, key in [
        (picard.curves, "factor_integer", "factor"),
        (picard.curves, "discriminant", "disc"),
        (picard.exact, "discriminant", "disc"),
    ]:
        monkeypatch.setattr(module, name, counted(key, getattr(module, name)))
    c, w = normalize(EXA_TAME)
    assert c.f == EXA_TAME and w.is_identity()
    assert calls == {"factor": 1, "disc": 0}


def test_normalized_minimality_random():
    from picard.curves import _descale_shift

    rng = random.Random(23)
    n = 0
    while n < 150:
        f = Poly([Fraction(rng.randint(-60, 60), rng.randint(1, 9)) for _ in range(4)] + [rng.randint(1, 5)])
        if f.degree != 4 or discriminant(f) == 0:
            continue
        n += 1
        c, w = normalize(f)
        assert w.apply(f) == c.f
        # the one Delta against independent oracles
        assert c.disc == resultant(c.f, c.f.derivative())
        prod = 1
        for p, e in c.disc_factors:
            prod *= p**e
        assert c.disc_sign * prod == c.disc
        for p, e in c.disc_factors:
            # the < 36 bound holds whenever any scaling+translation attains
            # it; above 36 the model must be genuinely minimal
            if e >= 36:
                assert _descale_shift(c.coeffs, p) is None
        c2, w2 = normalize(c.f)
        assert c2.f == c.f and w2.is_identity()


def test_normalized_disc_bound_integral_corpus():
    # monic integral height-bounded corpus: the < 36 bound always holds
    rng = random.Random(29)
    n = 0
    while n < 200:
        f = Poly([rng.randint(-30, 30) for _ in range(4)] + [1])
        if discriminant(f) == 0:
            continue
        n += 1
        c, _ = normalize(f)
        for p, e in c.disc_factors:
            assert 0 <= e < 36


def test_equivalent_identity_and_twists():
    c1, _ = normalize(X4_MINUS_1)
    w = equivalent(c1, c1)
    assert w is not None and w.is_identity()
    c2, _ = normalize(poly_from_ints([1, 0, 0, 0, 1]))
    # x^4-1 and x^4+1 are distinct twists (different conductors)
    assert equivalent(c1, c2) is None


def test_equivalent_roundtrip_scaling():
    rng = random.Random(31)
    for _ in range(40):
        f = Poly([rng.randint(-20, 20) for _ in range(4)] + [1])
        if discriminant(f) == 0:
            continue
        c, _ = normalize(f)
        u = 2
        g = c.f.compose_linear(Fraction(1, u**3), 0).scale(u**12)
        cg, _ = normalize(g)
        w = equivalent(c, cg)
        assert w is not None and w.apply(c.f) == cg.f


def test_equivalent_symmetric_reflexive_corpus():
    rng = random.Random(37)
    made = 0
    while made < 100:
        f = Poly([rng.randint(-30, 30) for _ in range(4)] + [1])
        if discriminant(f) == 0:
            continue
        made += 1
        c, _ = normalize(f)
        # random twist inside the group: x -> -x + b or x -> x + b
        b = rng.randint(-5, 5)
        sign = rng.choice([1, -1])
        g = c.f.compose_linear(sign, b)
        cg = PicardCurve(g)
        w12 = equivalent(c, cg)
        w21 = equivalent(cg, c)
        assert w12 is not None and w21 is not None
        assert w12.apply(c.f) == cg.f and w21.apply(cg.f) == c.f


def test_good_reduction_at():
    c, _ = normalize(X4_MINUS_1)
    assert good_reduction_at(c, 5)
    assert not good_reduction_at(c, 2)
    e, _ = normalize(EXA_TAME)
    assert not good_reduction_at(e, 5)  # ord_5(Delta) = 6
    with pytest.raises(ValueError):
        good_reduction_at(c, 3)


def test_exceptional_prime_candidate():
    e, _ = normalize(EXA_TAME)
    assert exceptional_prime_candidate(e, 5)
    c, _ = normalize(X4_MINUS_1)
    assert not exceptional_prime_candidate(c, 5)
    s, _ = normalize(poly_from_ints([1, -3, -24, -1, 0]))
    assert not exceptional_prime_candidate(s, 3)  # p | 6: not applicable


def test_curve_text_roundtrip():
    assert curve_text(X4_MINUS_1) == "[1,0,0,0,-1]"
    assert parse_curve_text("[1,0,0,0,-1]") == X4_MINUS_1
    assert parse_curve_text(" [ 1, -3, -24, -1, 0 ] ") == poly_from_ints([1, -3, -24, -1, 0])
    with pytest.raises(ValueError):
        parse_curve_text("[1,2,3]")

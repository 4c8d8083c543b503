import random
from fractions import Fraction
from math import inf

import pytest

from picard.exact import (
    FactorizationBudgetError,
    Poly,
    discriminant,
    factor_integer,
    is_prime,
    nth_root_exact,
    poly_from_ints,
    resultant,
    valuation,
)


def test_discriminant_pinned_values():
    # y^3 = x^4 - 1 has Delta = -2^8
    assert discriminant(poly_from_ints([1, 0, 0, 0, -1])) == -256
    # Delta = -2^10 3^4 5^6
    assert discriminant(poly_from_ints([1, 0, 14, 72, -41])) == -(2**10) * 3**4 * 5**6
    # Delta = 3^10
    assert discriminant(poly_from_ints([1, -3, -24, -1, 0])) == 3**10


def test_discriminant_matches_resultant_oracle():
    # non-monic, Fraction and inseparable quartics against res(f, f') / lc
    rng = random.Random(41)

    def small():
        return Fraction(rng.randint(-30, 30), rng.randint(1, 12))

    cases = []
    for _ in range(60):
        lc = rng.choice([-3, -1, 2, 5, 12])
        cases.append(Poly([rng.randint(-30, 30) for _ in range(4)] + [lc]))
        cases.append(Poly([small() for _ in range(4)] + [1]))
        cases.append(Poly([small() for _ in range(4)] + [Fraction(rng.randint(1, 9), -rng.randint(1, 7))]))
        root = Poly([-small(), 1])
        cases.append(root * root * Poly([rng.randint(-9, 9), rng.randint(-9, 9), rng.choice([-3, 1, 2])]))
    for f in cases:
        d = discriminant(f)
        assert isinstance(d, Fraction)
        assert d == resultant(f, f.derivative()) / f.lc
    assert all(discriminant(f) == 0 for f in cases[3::4])


def test_discriminant_repeated_root_is_zero():
    f = poly_from_ints([1, -1]) * poly_from_ints([1, -1]) * poly_from_ints([1, 0, 1])
    assert discriminant(f) == 0


def test_discriminant_rejects_wrong_degree():
    with pytest.raises(ValueError):
        discriminant(poly_from_ints([1, 0, 0]))


def test_resultant_linear_and_shared_root():
    assert resultant(poly_from_ints([1, -2]), poly_from_ints([1, -3])) == -1
    assert resultant(poly_from_ints([1, 0, -1]), poly_from_ints([1, -1])) == 0
    with pytest.raises(ValueError):
        resultant(Poly([]), poly_from_ints([1, 1]))


def test_resultant_discriminant_identity():
    f = poly_from_ints([1, 0, 0, 0, -1])
    assert resultant(f, f.derivative()) == -256  # (-1)^6 res/lc = Delta


def test_valuation_basic():
    assert valuation(Fraction(45, 7), 3) == 2
    assert valuation(0, 5) == inf
    assert valuation(3**10, 3) == 10
    assert valuation(Fraction(7, 45), 3) == -2
    with pytest.raises(ValueError):
        valuation(10, 4)


def test_valuation_ultrametric_random():
    rng = random.Random(7)
    for _ in range(1000):
        p = rng.choice([2, 3, 5, 7, 11])
        a = Fraction(rng.randint(-500, 500), rng.randint(1, 500))
        b = Fraction(rng.randint(-500, 500), rng.randint(1, 500))
        if a == 0 or b == 0:
            continue
        va, vb = valuation(a, p), valuation(b, p)
        assert valuation(a * b, p) == va + vb
        vs = valuation(a + b, p)
        assert vs >= min(va, vb)
        if va != vb:
            assert vs == min(va, vb)


def test_factor_integer_pinned():
    assert factor_integer(46656) == (1, [(2, 6), (3, 6)])
    assert factor_integer(-835884417024) == (-1, [(2, 19), (3, 13)])
    assert factor_integer(1) == (1, [])
    with pytest.raises(ValueError):
        factor_integer(0)


def test_factor_integer_roundtrip_random():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(2, 10**12)
        sign, fac = factor_integer(n)
        assert sign == 1
        prod = 1
        for p, e in fac:
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def test_factor_integer_budget_names_the_cofactor():
    # 2^61 - 1 and 2^89 - 1 are prime; rho would need about 2^30 steps
    n = (2**61 - 1) * (2**89 - 1)
    assert issubclass(FactorizationBudgetError, ValueError)
    with pytest.raises(FactorizationBudgetError, match="46-digit cofactor"):
        factor_integer(-(3**5) * n)


def test_is_prime_edges():
    assert not is_prime(1)
    assert is_prime(2)
    assert is_prime(3317044064679887385962123)  # above the proven table
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7


def test_translation_invariance_of_discriminant():
    rng = random.Random(3)
    count = 0
    while count < 200:
        f = Poly([rng.randint(-50, 50) for _ in range(4)] + [1])
        d = discriminant(f)
        if d == 0:
            continue
        count += 1
        c = rng.randint(-20, 20)
        assert discriminant(f.shift(c)) == d


def test_scaling_identity_of_discriminant():
    # Delta(u^12 f(u^-3 x)) = u^36 Delta(f)
    rng = random.Random(5)
    for _ in range(50):
        f = Poly([rng.randint(-30, 30) for _ in range(4)] + [1])
        d = discriminant(f)
        u = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        if u == 0:
            continue
        g = f.compose_linear(Fraction(1) / u**3, 0).scale(u**12)
        assert discriminant(g) == u**36 * d


def test_poly_arithmetic_and_eval():
    f = poly_from_ints([2, -3, 1])  # 2x^2 - 3x + 1
    g = poly_from_ints([1, 1])
    assert (f * g)(Fraction(1, 2)) == f(Fraction(1, 2)) * g(Fraction(1, 2))
    assert (f + g).degree == 2
    assert f.compose_linear(2, 1)(3) == f(7)
    assert f.derivative() == poly_from_ints([4, -3])


def test_nth_root_exact():
    assert nth_root_exact(2**36, 36) == 2
    assert nth_root_exact(3**36 * 2**36, 36) == 6
    assert nth_root_exact(2**36 + 1, 36) is None
    assert nth_root_exact(1, 7) == 1


def test_nth_root_exact_is_integer_only_for_huge_inputs():
    # 10**400 overflows a float; the root must still come out exactly
    assert nth_root_exact(10**400, 36) is None
    assert nth_root_exact(7**1080, 36) == 7**30
    assert nth_root_exact(7**1080 + 1, 36) is None
    assert nth_root_exact(10**720, 36) == 10**20


def test_nth_root_exact_brackets_random_roots():
    rng = random.Random(36)
    for _ in range(300):
        k = rng.choice([2, 3, 36])
        r = rng.randrange(2, 1 << rng.randrange(2, 200))
        assert nth_root_exact(r**k, k) == r
        assert nth_root_exact(r**k - 1, k) is None
        assert nth_root_exact(r**k + 1, k) is None

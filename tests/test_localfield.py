import itertools
import random
from fractions import Fraction
from math import inf

import pytest

import picard.localfield as lf
from picard.exact import poly_from_ints


def test_gf_field_axioms_random():
    rng = random.Random(5)
    for p, k in [(5, 1), (5, 2), (7, 3), (2, 4), (3, 2)]:
        F = lf.GF(p, k)
        for _ in range(50):
            a = tuple(rng.randrange(p) for _ in range(k))
            b = tuple(rng.randrange(p) for _ in range(k))
            c = tuple(rng.randrange(p) for _ in range(k))
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
            if not F.is_zero(a):
                assert F.mul(a, F.inv(a)) == F.one


def test_gf_multiplicative_order():
    F = lf.GF(5, 2)
    # F_25^* is cyclic of order 24; x^24 = 1 for all nonzero x
    for a in F.elements():
        if not F.is_zero(a):
            assert F.pow(a, 24) == F.one


def test_residue_roots_with_multiplicity():
    F = lf.GF(7, 1)
    # (x-1)^2 (x-3) over F_7
    one, three = F.from_int(1), F.from_int(3)
    poly = lf.gmul(F, [F.neg(one), F.one], lf.gmul(F, [F.neg(one), F.one], [F.neg(three), F.one]))
    roots, missing = lf.residue_roots(F, poly)
    assert missing == 0
    assert sorted((r[0], m) for r, m in roots) == [(1, 2), (3, 1)]


def test_residue_roots_detects_missing_degree():
    F = lf.GF(3, 1)
    # x^2 + 1 irreducible over F_3
    _, missing = lf.residue_roots(F, [F.one, F.zero, F.one])
    assert missing == 2


def test_unramified_ring_inverse_and_zeta():
    U = lf.UnramifiedRing(7, 2, 10)
    rng = random.Random(3)
    for _ in range(20):
        a = tuple(rng.randrange(U.mod) for _ in range(2))
        if U.val(a) == 0:
            assert U.mul(a, U.inv_unit(a)) == U.one
    for e in (2, 3, 4, 6, 8, 12):
        if (7**2 - 1) % e == 0:
            z = U.zeta(e)
            assert U.pow(z, e) == U.one
            for d in range(1, e):
                assert U.pow(z, d) != U.one


def test_tame_ring_uniformizer_laws():
    for c in (1, -1):
        R = lf.TameRing(lf.TameExtension(5, 4, c), 1, 8)
        pi = R.pi_power(1)
        p4 = R.mul(R.mul(pi, pi), R.mul(pi, pi))
        assert p4 == R.from_int(c * 5)
        assert R.val(pi) == 1
        assert R.val(R.from_int(5)) == 4
        x = R.add(R.from_int(2), R.mul(pi, pi))
        assert R.mul(x, R.inv_unit(x)) == R.one
        # dividing by pi^3 recovers x up to the 3 pi-digits the division loses
        back = R.div_pi(R.mul(x, R.pi_power(3)), 3)
        assert R.val(R.sub(back, x)) >= R.cap - 3


def test_galois_map_is_ring_automorphism():
    R = lf.TameRing(lf.TameExtension(5, 4, 1), 1, 6)
    zeta = R.zeta(4)
    rng = random.Random(11)
    for _ in range(20):
        a = tuple((rng.randrange(R.U.mod),) for _ in range(4))
        b = tuple((rng.randrange(R.U.mod),) for _ in range(4))
        lhs = R.galois_map(R.mul(a, b), zeta, 1)
        rhs = R.mul(R.galois_map(a, zeta, 1), R.galois_map(b, zeta, 1))
        assert lhs == rhs


def test_newton_polygon_pinned():
    # all unit roots
    np1 = lf.newton_polygon(poly_from_ints([1, 0, 14, 72, -41]), 5)
    assert np1.slopes == ((Fraction(0), 4),)
    # Eisenstein: slope -1/4
    np2 = lf.newton_polygon(poly_from_ints([1, 0, 0, 0, -5]), 5)
    assert np2.slopes == ((Fraction(-1, 4), 4),)
    # zero root plus three unit roots (oracle: lifting mod 3^20 over e = 3
    # shows the cubic factor has three valuation-0 roots)
    np3 = lf.newton_polygon(poly_from_ints([1, -3, -24, -1, 0]), 3)
    assert np3.slopes == ((-inf, 1), (Fraction(0), 3))
    assert sorted(np3.root_valuations(), key=str) == sorted([inf, 0, 0, 0], key=str)


def test_newton_polygon_lengths_sum_to_degree():
    rng = random.Random(19)
    for _ in range(200):
        f = poly_from_ints([1] + [rng.randint(-100, 100) for _ in range(4)])
        np_ = lf.newton_polygon(f, rng.choice([2, 3, 5, 7]))
        assert sum(length for _, length in np_.slopes) == 4
        ss = [s for s, _ in np_.slopes]
        assert ss == sorted(ss)


def test_lift_roots_certification_and_np_match():
    rng = random.Random(23)
    checked = 0
    while checked < 40:
        coeffs = [1] + [rng.randint(-30, 30) for _ in range(4)]
        f = poly_from_ints(coeffs)
        from picard.exact import discriminant

        if discriminant(f) == 0:
            continue
        p = rng.choice([5, 7])
        try:
            e, sr = lf.split_over_minimal_tame(list(reversed(coeffs)), p)
        except lf.WildSplittingError:
            continue
        checked += 1
        np_vals = sorted(
            lf.newton_polygon(f, p).root_valuations(), key=lambda v: (v is inf, v)
        )
        got = sorted(
            (sr.root_val(i) for i in range(4)), key=lambda v: (v is inf, v)
        )
        # exact zero roots show as valuation >= cap
        fixed = [
            inf if v >= Fraction(sr.ring.cap, sr.ring.e) else v for v in got
        ]
        assert fixed == np_vals
        for i in range(4):
            fv, ball = sr.cert[i]
            assert fv >= 2 * (fv - ball) + 1  # a - 2b >= 1


def test_lift_roots_example_unit_pair():
    # f = x^4+14x^2+72x-41 mod 5 = (x+3)^2 (x^2+4x+1): two unit Hensel roots
    # and two roots congruent to -3, splitting at depth 3
    sr = lf.lift_over_ring([-41, 72, 14, 0, 1], 5, 1)
    deep = [
        (i, j)
        for i, j in itertools.combinations(range(4), 2)
        if sr.pairwise_val(i, j) > 0
    ]
    assert len(deep) == 1
    i, j = deep[0]
    assert sr.pairwise_val(i, j) == 3
    ring = sr.ring
    for t in (i, j):
        # alpha = -58 mod 5^3
        diff = ring.sub(sr.roots[t], ring.from_int(-58))
        assert ring.val(diff) >= 3


def test_lift_roots_quarter_valuation():
    e, sr = lf.split_over_minimal_tame([-5, 0, 0, 0, 1], 5)
    assert e == 4
    assert all(sr.root_val(i) == Fraction(1, 4) for i in range(4))
    assert {
        sr.pairwise_val(i, j) for i, j in itertools.combinations(range(4), 2)
    } == {Fraction(1, 4)}


def test_lift_roots_double_cluster_derived():
    # (x^2 - p)(x^2 - 2p): the pairwise-valuation oracle gives ONE cluster
    # of depth 1/2 (1 - sqrt2 is a 5-adic unit)
    p = 5
    e, sr = lf.split_over_minimal_tame([2 * p * p, 0, -3 * p, 0, 1], p)
    assert e == 2
    vals = {sr.pairwise_val(i, j) for i, j in itertools.combinations(range(4), 2)}
    assert vals == {Fraction(1, 2)}


def test_wild_detection():
    with pytest.raises(lf.WildSplittingError):
        lf.split_over_minimal_tame([-1, 0, 0, 0, 1], 2)  # Q_2(i) wild
    with pytest.raises(lf.WildSplittingError):
        lf.split_over_minimal_tame([0, -1, -24, -3, 1], 3)  # needs e = 3 at p = 3


def test_precision_env_override(monkeypatch):
    monkeypatch.setenv("PICARD_MAX_PRECISION", "123")
    assert lf.max_pi_digits() == 123
    monkeypatch.delenv("PICARD_MAX_PRECISION")
    assert lf.max_pi_digits() == 640


def test_lift_roots_public_api_hensel_units():
    from picard.localfield import TameExtension, lift_roots

    f = poly_from_ints([1, 0, 14, 72, -41])
    roots = lift_roots(f, TameExtension(5, 1), 10)
    assert len(roots) == 4
    ring = roots[0].ring
    gf = ring.U.gf
    hensel = [r for r in roots if ring.val(ring.sub(r.value, ring.from_int(-58))) < 3]
    deep = [r for r in roots if ring.val(ring.sub(r.value, ring.from_int(-58))) >= 3]
    assert len(hensel) == 2 and len(deep) == 2
    # the Hensel pair satisfies a^2 + 4a + 1 = 0 in the residue field
    four, one = gf.from_int(4), gf.one
    for r in hensel:
        a = r.expansion()[0][1]
        val = gf.add(gf.add(gf.mul(a, a), gf.mul(four, a)), one)
        assert gf.is_zero(val)
    for r in roots:
        assert r.precision >= 10


def test_lift_roots_public_api_roots_of_unity():
    from picard.localfield import TameExtension, lift_roots

    roots = lift_roots(poly_from_ints([1, 0, 0, 0, -1]), TameExtension(5, 1), 5)
    first_digits = sorted(r.expansion()[0][1][0] for r in roots)
    assert first_digits == [1, 2, 3, 4]  # 1, -1 and the square roots of -1 mod 5


def test_lift_roots_public_api_half_valuation():
    from picard.localfield import TameExtension, lift_roots

    p = 5
    f = poly_from_ints([1, 0, -3 * p, 0, 2 * p * p])
    roots = lift_roots(f, TameExtension(p, 2), 6)
    assert all(r.valuation == Fraction(1, 2) for r in roots)
    digits = [r.expansion()[0] for r in roots]
    assert all(expo == Fraction(1, 2) for expo, _ in digits)


def test_lift_roots_insufficient_extension():
    from picard.localfield import (
        InsufficientExtensionError,
        TameExtension,
        lift_roots,
    )

    with pytest.raises(InsufficientExtensionError):
        lift_roots(poly_from_ints([1, 0, 0, 0, -5]), TameExtension(5, 2), 4)


def test_cluster_tree_from_approx_roots():
    from picard.clusters import cluster_tree
    from picard.localfield import TameExtension, lift_roots

    roots = lift_roots(poly_from_ints([1, 0, 14, 72, -41]), TameExtension(5, 1), 8)
    t = cluster_tree(roots)
    assert t.component_count() == 2
    proper = [nd for nd in t.nodes if not nd.is_root]
    assert proper[0].depth == 3


def _nonzero_elements(F):
    return [a for a in F.elements() if not F.is_zero(a)]


def test_gf_inverse_exhaustive_small_fields():
    for p, k in [(p, k) for p in (2, 3) for k in (1, 2, 3, 4)] + [(5, 2)]:
        F = lf.GF(p, k)
        for a in _nonzero_elements(F):
            assert F.mul(F.inv(a), a) == F.one, (p, k, a)


def test_gf_inverse_random_large_fields():
    rng = random.Random(7)
    for p, k in [(10007, 2), (1000003, 1)]:
        F = lf.GF(p, k)
        for _ in range(200):
            a = tuple(rng.randrange(p) for _ in range(k))
            if not F.is_zero(a):
                inv = F.inv(a)
                assert F.mul(inv, a) == F.one
                # Fermat's a^(p^k - 2) is the same unique inverse
                assert inv == F.pow(a, p**k - 2)


def test_gf_inverse_of_zero_raises():
    for p, k in [(2, 1), (5, 2), (10007, 2)]:
        F = lf.GF(p, k)
        with pytest.raises(ZeroDivisionError):
            F.inv(F.zero)


def _gdivmod_fermat(F, a, b):
    """Schoolbook division inverting the leading coefficient by Fermat."""
    a = a[:]
    inv = F.pow(b[-1], F.p**F.k - 2)
    q = [F.zero] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        c = F.mul(a[-1], inv)
        off = len(a) - len(b)
        q[off] = c
        for i in range(len(b)):
            a[off + i] = F.sub(a[off + i], F.mul(c, b[i]))
        a = lf.gtrim(F, a)
        if not a:
            break
    return lf.gtrim(F, q), a


def _ggcd_fermat(F, a, b):
    a, b = a[:], b[:]
    while b:
        a, b = b, _gdivmod_fermat(F, a, b)[1]
    if a:
        inv = F.pow(a[-1], F.p**F.k - 2)
        a = [F.mul(c, inv) for c in a]
    return a


def test_gdivmod_and_ggcd_match_fermat_reference():
    rng = random.Random(13)
    for p, k in [(2, 3), (3, 2), (5, 1), (7, 2), (10007, 2)]:
        F = lf.GF(p, k)

        def rand_poly(deg, monic):
            poly = [tuple(rng.randrange(p) for _ in range(k)) for _ in range(deg)]
            lead = F.one
            while not monic and (lead == F.one or F.is_zero(lead)):
                lead = tuple(rng.randrange(p) for _ in range(k))
            return lf.gtrim(F, poly + [lead])

        for _ in range(40):
            a = rand_poly(rng.randrange(0, 7), rng.random() < 0.5)
            for monic in (True, False):
                b = rand_poly(rng.randrange(0, 4), monic)
                if not b:
                    continue
                assert lf.gdivmod(F, a, b) == _gdivmod_fermat(F, a, b)
                assert lf.ggcd(F, a, b) == _ggcd_fermat(F, a, b)
                common = rand_poly(1, monic)
                assert lf.ggcd(F, lf.gmul(F, a, common), lf.gmul(F, b, common)) == _ggcd_fermat(
                    F, lf.gmul(F, a, common), lf.gmul(F, b, common)
                )


def test_gpowmod_non_monic_modulus():
    F = lf.GF(7, 2)
    mod = [F.one, F.from_int(3), F.from_int(5)]  # 5x^2 + 3x + 1
    monic = lf.gmonic(F, mod)
    assert monic[-1] == F.one
    base = [F.from_int(2), F.one]
    assert lf.gpowmod(F, base, 1000, mod) == lf.gpowmod(F, base, 1000, monic)
    # reference: multiply and reduce one step at a time
    acc = [F.one]
    for _ in range(1000):
        acc = lf.gdivmod(F, lf.gmul(F, acc, base), mod)[1]
    assert lf.gpowmod(F, base, 1000, mod) == acc


def test_zeta_is_computed_once_per_ring(monkeypatch):
    U = lf.UnramifiedRing(7, 2, 12)
    assert U.zeta(8) is U.zeta(8)
    assert U.pow(U.zeta(8), 4) != U.one
    R = lf.TameRing(lf.TameExtension(7, 8, 1), 2, 12)
    assert R.zeta(8) is R.zeta(8)
    # one more digit lifts the same root again: N is part of the key
    other = lf.UnramifiedRing(7, 2, 13)
    z13 = other.zeta(8)
    assert other.pow(z13, 8) == other.one
    assert tuple(c % 7**12 for c in z13) == U.zeta(8)

    # a new ring with the same (p, k, N) reuses the lift instead of redoing it
    def no_lift(*args):
        raise AssertionError("zeta lifted again")

    monkeypatch.setattr(lf, "_cyclotomic_mod", no_lift)
    assert lf.UnramifiedRing(7, 2, 12).zeta(8) is U.zeta(8)
    assert lf.TameRing(lf.TameExtension(7, 4, -1), 2, 13).zeta(8) is z13


def test_gf_is_the_ring_at_n_equal_1():
    # reduction mod p is a ring map O/p^N -> F_{p^k}, and GF shares the ring's kernels
    rng = random.Random(11)
    for p, k in ((2, 3), (3, 2), (5, 1), (7, 4), (101, 2)):
        F, U = lf.GF(p, k), lf.UnramifiedRing(p, k, 6)
        assert isinstance(F, lf.UnramifiedRing) and F.gf is F and F.mod == p
        assert F.h == U.h
        for _ in range(30):
            a = tuple(rng.randrange(U.mod) for _ in range(k))
            b = tuple(rng.randrange(U.mod) for _ in range(k))
            abar, bbar = U.to_gf(a), U.to_gf(b)
            assert U.to_gf(U.mul(a, b)) == F.mul(abar, bbar)
            assert U.to_gf(U.sub(a, b)) == F.sub(abar, bbar)
            n = rng.randrange(40)
            acc = F.one
            for _ in range(n):
                acc = F.mul(acc, abar)
            assert F.pow(abar, n) == acc == U.to_gf(U.pow(a, n))


def test_precision_env_rejects_non_positive_integers(monkeypatch):
    for bad in ("abc", "0", "-5", "1.5"):
        monkeypatch.setenv("PICARD_MAX_PRECISION", bad)
        with pytest.raises(lf.PrecisionSettingError):
            lf.max_pi_digits()
    assert issubclass(lf.PrecisionSettingError, ValueError)


def test_minimal_irreducible_pinned():
    # values of the lexicographic search before its F_p kernels were shared
    assert lf.minimal_irreducible(2, 6) == (1, 1, 0, 0, 0, 0, 1)
    assert lf.minimal_irreducible(3, 2) == (1, 0, 1)
    assert lf.minimal_irreducible(5, 2) == (2, 0, 1)
    assert lf.minimal_irreducible(7, 3) == (2, 0, 0, 1)
    assert lf.minimal_irreducible(999983, 2) == (1, 0, 1)


def _fp_product(F, rng, degree):
    """Random poly over F with coefficients in F_p: a product of random monic
    factors of degree <= 6, some squared, times a random F_p scalar."""
    p = F.p
    poly, deg = [F.one], 0
    while deg < degree:
        d = rng.randint(1, min(6, degree - deg))
        fac = [F.from_int(rng.randrange(p)) for _ in range(d)] + [F.one]
        for _ in range(rng.choice((1, 1, 2))):
            poly = lf.gmul(F, poly, fac)
            deg += d
    lead = F.from_int(rng.randrange(1, p))
    return [F.mul(lead, c) for c in poly]


def _fp_fields():
    for p in (3, 5, 7, 11, 13, 101, 1009, 999983):
        for k in (1, 2, 3, 4, 6):
            if p**k <= 10**13:
                yield p, k


def test_residue_roots_fp_route_matches_tuple_route():
    rng = random.Random(29)
    for p, k in _fp_fields():
        F = lf.GF(p, k)
        for _ in range(6):
            poly = _fp_product(F, rng, rng.randint(1, 8))
            assert lf.residue_roots(F, poly) == lf._residue_roots_tuple(F, poly), (p, k, poly)


def test_residue_roots_fp_route_brute_force():
    rng = random.Random(31)
    for p, k in [(3, 1), (3, 2), (3, 3), (3, 4), (3, 6), (5, 2), (5, 4), (7, 3), (11, 2), (13, 2)]:
        assert p**k <= 729
        F = lf.GF(p, k)
        for _ in range(8):
            poly = _fp_product(F, rng, rng.randint(1, 8))
            roots, missing = lf.residue_roots(F, poly)
            expect = []
            for x in F.elements():
                if F.is_zero(lf.geval(F, poly, x)):
                    m, rest = 0, poly
                    while True:
                        quot, rem = lf.gdivmod(F, rest, [F.neg(x), F.one])
                        if rem:
                            break
                        rest, m = quot, m + 1
                    expect.append((x, m))
            assert roots == sorted(expect), (p, k, poly)
            assert (missing == 0) == (sum(m for _, m in roots) == len(poly) - 1)
            assert missing == lf._residue_roots_tuple(F, poly)[1]


def test_residue_roots_k2_quadratic_formula():
    # p = 3 mod 4, 5 mod 8 and 1 mod 8 reach every branch of Tonelli-Shanks
    for p in (3, 7, 11, 13, 29, 101, 17, 41, 1009):
        F = lf.GF(p, 2)
        irreducible = [
            [c, b] for b in range(min(p, 5)) for c in range(min(p, 5))
            if lf._fp_poly_is_irreducible([c, b, 1], p)
        ]
        assert irreducible
        for c, b in irreducible[:6]:
            g = [F.from_int(c), F.from_int(b), F.one]
            for power in (1, 2):
                poly = g if power == 1 else lf.gmul(F, g, g)
                roots, missing = lf.residue_roots(F, poly)
                assert missing == 0 and len(roots) == 2
                assert all(m == power for _, m in roots)
                for r, _ in roots:
                    assert F.is_zero(lf.geval(F, g, r))
                assert (roots, missing) == lf._residue_roots_tuple(F, poly)


def test_fp_sqrt_exhaustive_small_primes():
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        squares = {x * x % p for x in range(p)}
        for a in range(p):
            if a in squares:
                assert lf._fp_sqrt(a, p) ** 2 % p == a
            else:
                with pytest.raises(ValueError):
                    lf._fp_sqrt(a, p)


def test_residue_roots_route_choice(monkeypatch):
    calls = []
    tuple_route = lf._residue_roots_tuple

    def spy(F, poly):
        calls.append((F.p, F.k))
        return tuple_route(F, poly)

    monkeypatch.setattr(lf, "_residue_roots_tuple", spy)
    F2 = lf.GF(2, 3)
    assert lf.residue_roots(F2, [F2.one, F2.one, F2.one])[1] == 2  # x^2 + x + 1
    F5 = lf.GF(5, 2)
    t = (0, 1)
    roots, missing = lf.residue_roots(F5, [F5.neg(t), F5.one])  # x - t
    assert roots == [(t, 1)] and missing == 0
    assert calls == [(2, 3), (5, 2)]
    # coefficients in F_5: factored over F_5, the tuple route is not called
    assert lf.residue_roots(F5, [F5.from_int(3), F5.zero, F5.one]) == ([((0, 2), 1), ((0, 3), 1)], 0)
    assert lf.residue_roots(lf.GF(5, 1), [(3,), (0,), (1,)]) == ([], 2)
    assert calls == [(2, 3), (5, 2)]

import itertools
import json
import random
import time
from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest

import picard.localfield as lf
from picard.clusters import cluster_tree
from picard.exact import discriminant, poly_from_ints, valuation


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


def _unram(p, k, N):
    """O/p^N of Q_{p^k}^nr: the tame ring at e = 1."""
    return lf.TameRing(lf.TameExtension(p, 1), k, N)


def test_unramified_ring_inverse_and_zeta():
    U = _unram(7, 2, 10)
    rng = random.Random(3)
    for _ in range(20):
        a = tuple(rng.randrange(U.mod) for _ in range(2))
        if U.val(a) == 0:
            assert U.mul(a, _inv_unit(U, a)) == U.one
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
        assert R.mul(x, _inv_unit(R, x)) == R.one
        # dividing by pi^3 recovers x up to the 3 pi-digits the division loses
        back = R.div_pi(R.mul(x, R.pi_power(3)), 3)
        assert R.val(R.sub(back, x)) >= R.cap - 3


def _inv_unit(ring, a):
    """Inverse of a unit of a TameRing: Newton z <- z(2 - a z) from the F_{p^k} inverse."""
    if ring.val(a) != 0:
        raise ZeroDivisionError("not a unit")
    z = ring.lift_residue(ring.gf.inv(ring.residue(a)))
    two = ring.from_int(2)
    for _ in range(max(1, (ring.cap - 1).bit_length()) + 1):
        z = ring.mul(z, ring.sub(two, ring.mul(a, z)))
    return z


def test_galois_map_is_ring_automorphism():
    R = lf.TameRing(lf.TameExtension(5, 4, 1), 1, 6)
    rng = random.Random(11)
    for _ in range(20):
        a = tuple(rng.randrange(R.mod) for _ in range(4))
        b = tuple(rng.randrange(R.mod) for _ in range(4))
        lhs = R.galois_map(R.mul(a, b), 1)
        rhs = R.mul(R.galois_map(a, 1), R.galois_map(b, 1))
        assert lhs == rhs


def _vieta_margin(sr, f):
    """The pi digits past the least ball to which the product of the x - z_i matches f.

    f is monic, its int coefficients low to high.  Vieta: every coefficient
    of the product, taken in the ring, must equal f's to within pi^ball, so
    a consistent lift has a margin >= 0.
    """
    ring = sr.ring
    prod = [ring.one]
    for z in sr.roots:
        prod = lf.gmul(ring, prod, [ring.neg(z), ring.one])
    assert len(prod) == len(f)
    ball = min(b for _, b in sr.cert)
    return min(ring.val(ring.sub(c, ring.from_int(a))) for c, a in zip(prod, f)) - ball


def test_lift_roots_certification_and_vieta_match():
    rng = random.Random(23)
    checked = 0
    while checked < 40:
        coeffs = [1] + [rng.randint(-30, 30) for _ in range(4)]
        if discriminant(poly_from_ints(coeffs)) == 0:
            continue
        p = rng.choice([5, 7])
        f = list(reversed(coeffs))
        try:
            e, sr = lf.split_over_minimal_tame(f, p)
        except lf.WildSplittingError:
            continue
        checked += 1
        assert _vieta_margin(sr, f) >= 0, (f, p)
        for i in range(4):
            fv, ball = sr.cert[i]
            assert fv >= 2 * (fv - ball) + 1  # a - 2b >= 1


def _pairwise(sr, i, j):
    """v(alpha_i - alpha_j) in p units, read off the ring without the cluster tree."""
    ring = sr.ring
    return Fraction(ring.val(ring.sub(sr.roots[i], sr.roots[j])), ring.e)


def test_lift_roots_example_unit_pair():
    # f = x^4+14x^2+72x-41 mod 5 = (x+3)^2 (x^2+4x+1): two unit Hensel roots
    # and two roots congruent to -3, splitting at depth 3
    sr = lf.lift_over_ring([-41, 72, 14, 0, 1], 5, 1)
    pairwise = cluster_tree(sr).pairwise
    deep = [(i, j) for i, j in itertools.combinations(range(4), 2) if pairwise[i, j] > 0]
    assert len(deep) == 1
    i, j = deep[0]
    assert pairwise[i, j] == 3
    ring = sr.ring
    for t in (i, j):
        # alpha = -58 mod 5^3
        diff = ring.sub(sr.roots[t], ring.from_int(-58))
        assert ring.val(diff) >= 3


def test_lift_roots_quarter_valuation():
    e, sr = lf.split_over_minimal_tame([-5, 0, 0, 0, 1], 5)
    assert e == 4
    assert set(cluster_tree(sr).pairwise.values()) == {Fraction(1, 4)}


def test_lift_roots_double_cluster_derived():
    # (x^2 - p)(x^2 - 2p): the pairwise-valuation oracle gives ONE cluster
    # of depth 1/2 (1 - sqrt2 is a 5-adic unit)
    p = 5
    e, sr = lf.split_over_minimal_tame([2 * p * p, 0, -3 * p, 0, 1], p)
    assert e == 2
    assert set(cluster_tree(sr).pairwise.values()) == {Fraction(1, 2)}


def test_wild_detection():
    with pytest.raises(lf.WildSplittingError):
        lf.split_over_minimal_tame([-1, 0, 0, 0, 1], 2)  # Q_2(i) wild
    with pytest.raises(lf.WildSplittingError):
        lf.split_over_minimal_tame([0, -1, -24, -3, 1], 3)  # needs e = 3 at p = 3


def _first_digit(ring, z):
    """The residue-field digit of z's leading pi-adic term."""
    return ring.residue(ring.div_pi(z, ring.val(z)))


def _precisions(sr):
    """Certified radius of each root, in p units."""
    return [Fraction(ball, sr.ring.e) for _, ball in sr.cert]


def test_lift_roots_public_api_hensel_units():
    sr = lf.lift_over_ring([-41, 72, 14, 0, 1], 5, 1)
    assert len(sr.roots) == 4
    ring = sr.ring
    gf = ring.gf
    hensel = [z for z in sr.roots if ring.val(ring.sub(z, ring.from_int(-58))) < 3]
    deep = [z for z in sr.roots if ring.val(ring.sub(z, ring.from_int(-58))) >= 3]
    assert len(hensel) == 2 and len(deep) == 2
    # the Hensel pair satisfies a^2 + 4a + 1 = 0 in the residue field
    four, one = gf.from_int(4), gf.one
    for z in hensel:
        a = _first_digit(ring, z)
        val = gf.add(gf.add(gf.mul(a, a), gf.mul(four, a)), one)
        assert gf.is_zero(val)
    assert min(_precisions(sr)) >= 10


def test_lift_roots_public_api_roots_of_unity():
    sr = lf.lift_over_ring([-1, 0, 0, 0, 1], 5, 1)
    assert min(_precisions(sr)) >= 5
    first_digits = sorted(_first_digit(sr.ring, z)[0] for z in sr.roots)
    assert first_digits == [1, 2, 3, 4]  # 1, -1 and the square roots of -1 mod 5


def test_lift_roots_public_api_half_valuation():
    p = 5
    sr = lf.lift_over_ring([2 * p * p, 0, -3 * p, 0, 1], p, 2)
    assert min(_precisions(sr)) >= 6
    assert set(cluster_tree(sr).pairwise.values()) == {Fraction(1, 2)}


def test_lift_roots_insufficient_extension():
    # x^4 - 5 is Eisenstein: its roots have valuation 1/4, so e = 2 is short by 2
    with pytest.raises(lf.NeedsLargerE) as ex:
        lf.lift_over_ring([-5, 0, 0, 0, 1], 5, 2)
    assert ex.value.factor == 2


def test_cluster_tree_from_approx_roots():
    sr = lf.lift_over_ring([-41, 72, 14, 0, 1], 5, 1)
    assert min(_precisions(sr)) >= 8
    t = cluster_tree(sr)
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
    U = _unram(7, 2, 12)
    assert U.zeta(8) is U.zeta(8)
    assert U.pow(U.zeta(8), 4) != U.one
    R = lf.TameRing(lf.TameExtension(7, 8, 1), 2, 12)
    assert R.zeta(8) is R.zeta(8)
    # one more digit lifts the same root again: N is part of the key
    other = _unram(7, 2, 13)
    z13 = other.zeta(8)
    assert other.pow(z13, 8) == other.one
    assert tuple(c % 7**12 for c in z13) == U.zeta(8)

    # a new ring with the same (p, k, N) reuses the lift instead of redoing it
    def no_lift(*args):
        raise AssertionError("zeta lifted again")

    monkeypatch.setattr(lf, "_newton_lift", no_lift)
    assert _unram(7, 2, 12).zeta(8) is U.zeta(8)
    assert lf.TameRing(lf.TameExtension(7, 4, -1), 2, 13).zeta(8) is z13


def _schoolbook_mul(a, b, h, mod):
    """a*b in (Z/mod)[t]/(h), h monic: multiply the int lists, then reduce by h."""
    k = len(h) - 1
    out = [0] * (2 * k - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    for i in range(len(out) - 1, k - 1, -1):
        c, out[i] = out[i], 0
        for j in range(k):
            out[i - k + j] -= c * h[j]
    return tuple(x % mod for x in out[:k])


def test_gf_is_the_ring_at_n_equal_1():
    # reduction mod p is a ring map O/p^N -> F_{p^k}, GF shares the e = 1
    # ring's kernels, and both agree with schoolbook products mod h and p^N
    rng = random.Random(11)
    cases = [(p, k, 6) for p, k in ((2, 3), (3, 2), (5, 1), (7, 4), (101, 2))]
    cases += [(p, k, N) for p, k in sorted({(p, k) for p, _, k, _ in _tame_rings()}) for N in (1, 5)]
    for p, k, N in cases:
        F, U = lf.GF(p, k), _unram(p, k, N)
        assert isinstance(F, lf.TameRing) and (F.e, F.N) == (1, 1) and F.gf is F and F.mod == p
        assert F.h == U.h and U.U is U and U.gf.h == U.h
        for _ in range(30):
            a = tuple(rng.randrange(U.mod) for _ in range(k))
            b = tuple(rng.randrange(U.mod) for _ in range(k))
            abar, bbar = U.residue(a), U.residue(b)
            assert U.mul(a, b) == _schoolbook_mul(a, b, U.h, U.mod)
            assert F.mul(abar, bbar) == _schoolbook_mul(abar, bbar, F.h, p)
            assert U.residue(U.mul(a, b)) == F.mul(abar, bbar)
            assert U.residue(U.sub(a, b)) == F.sub(abar, bbar)
            n = rng.randrange(40)
            acc, ref = F.one, U.one
            for _ in range(n):
                acc = F.mul(acc, abar)
                ref = _schoolbook_mul(ref, a, U.h, U.mod)
            assert U.pow(a, n) == ref
            assert F.pow(abar, n) == acc == U.residue(U.pow(a, n))


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
    for p, k in itertools.chain(((2, k) for k in range(1, 7)), _fp_fields()):
        F = lf.GF(p, k)
        for _ in range(6):
            poly = _fp_product(F, rng, rng.randint(1, 8))
            assert lf.residue_roots(F, poly) == lf._residue_roots_tuple(F, poly), (p, k, poly)


def _brute_force_roots(F, poly):
    """The oracle: every element of F tried, with its multiplicity."""
    out = []
    for x in F.elements():
        if F.is_zero(lf.geval(F, poly, x)):
            m, rest = 0, poly
            while True:
                quot, rem = lf.gdivmod(F, rest, [F.neg(x), F.one])
                if rem:
                    break
                rest, m = quot, m + 1
            out.append((x, m))
    return sorted(out)


def test_residue_roots_fp_route_brute_force():
    rng = random.Random(31)
    fields = [(2, k) for k in range(1, 7)]
    fields += [(3, 1), (3, 2), (3, 3), (3, 4), (3, 6), (5, 2), (5, 4), (7, 3), (11, 2), (13, 2)]
    for p, k in fields:
        assert p**k <= 729
        F = lf.GF(p, k)
        for _ in range(8):
            poly = _fp_product(F, rng, rng.randint(1, 8))
            roots, missing = lf.residue_roots(F, poly)
            assert roots == _brute_force_roots(F, poly), (p, k, poly)
            assert (missing == 0) == (sum(m for _, m in roots) == len(poly) - 1)
            assert missing == lf._residue_roots_tuple(F, poly)[1]


def test_residue_roots_tuple_route_p2_brute_force():
    # coefficients outside F_2: the tuple route, its roots split by the trace
    rng = random.Random(41)
    for k in range(2, 7):
        F = lf.GF(2, k)
        for _ in range(8):
            poly = [F.one]
            for _ in range(rng.randint(1, 5)):
                a = tuple(rng.randrange(2) for _ in range(k))
                poly = lf.gmul(F, poly, [a, F.one])
            if rng.random() < 0.5:
                poly = lf.gmul(F, poly, [tuple(rng.randrange(2) for _ in range(k)), F.one, F.one])
            if not any(any(c[1:]) for c in poly):
                continue
            assert lf.residue_roots(F, poly) == lf._residue_roots_tuple(F, poly)
            assert lf.residue_roots(F, poly)[0] == _brute_force_roots(F, poly), (k, poly)


def test_residue_roots_returns_a_fresh_list():
    # the F_p route is memoized; a caller mutating its roots must not reach the memo
    for p, k, poly in [(2, 4, [1, 1, 0, 0, 1]), (7, 1, [6, 0, 1])]:  # x^4 + x + 1, x^2 - 1
        F = lf.GF(p, k)
        poly = [F.from_int(c) for c in poly]
        roots, missing = lf.residue_roots(F, poly)
        expect = list(roots)
        assert len(expect) == len(poly) - 1 and missing == 0
        roots.pop()
        roots.append((F.one, 9))
        assert lf.residue_roots(F, poly) == (expect, missing)


def _f2_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] ^= x & y
    return out


def _fp_roots(g, p):
    """The roots in F_p of the int polynomial g (low degree first), by trying every element."""
    return [x for x in range(p) if sum(c * pow(x, i, p) for i, c in enumerate(g)) % p == 0]


def _brute_irreducible(g, p):
    """Irreducibility of the monic g of degree <= 4 over a small F_p, by brute force.

    No root, and at degree 4 also no monic quadratic factor.
    """
    g = [c % p for c in g]
    if len(g) == 2:
        return True
    if _fp_roots(g, p):
        return False
    return len(g) < 5 or all(lf._fp_divmod(g, [c, b, 1], p)[1] for b in range(p) for c in range(p))


def _rabin_irreducible(g, p):
    """Irreducibility of the monic g over F_p by Rabin's test, for degrees brute force cannot reach.

    g divides x^(p^n) - x, n = deg g, and is prime to x^(p^(n/q)) - x for
    every prime q | n.
    """
    n, g, x = len(g) - 1, [c % p for c in g], [0, 1]
    if lf._fp_powmod(x, p**n, g, p) != x:
        return False
    return all(
        lf._fp_gcd(g, lf._fp_sub(lf._fp_powmod(x, p ** (n // q), g, p), x, p), p) == [1]
        for q in lf._prime_divisors(n)
    )


def test_irreducibility_oracles_agree():
    for p, n in ((2, 4), (3, 4), (5, 3), (5, 4), (7, 2)):
        for low in itertools.product(range(p), repeat=n):
            g = list(low) + [1]
            assert _brute_irreducible(g, p) == _rabin_irreducible(g, p), (p, g)


def test_fp_equal_degree_p2_splits_fully():
    # a product of distinct irreducibles of degree D over F_2 splits over
    # F_{2^D} into every root the field holds, each once
    rng = random.Random(43)
    for D in (1, 2, 3, 4):
        F = lf.GF(2, D)
        irreducible = [
            list(c) + [1] for c in itertools.product((0, 1), repeat=D) if _brute_irreducible(list(c) + [1], 2)
        ]
        for _ in range(12):
            chosen = rng.sample(irreducible, rng.randint(1, len(irreducible)))
            g = [1]
            for h in chosen:
                g = _f2_mul(g, h)
            assert {d for _, d, _ in lf._fp_factor.__wrapped__(2, tuple(g))} == {D}
            roots, missing = lf._residue_roots_fp.__wrapped__(2, D, tuple(g))
            poly = [F.from_int(c) for c in g]
            want = [a for a in F.elements() if F.is_zero(lf.geval(F, poly, a))]
            assert missing == 0 and list(roots) == [(a, 1) for a in sorted(want)], (D, chosen)
            assert len(roots) == len(g) - 1


def _fp_factor_distinct_degree(p, f):
    """The oracle: distinct-degree factorization of f itself, each product cut by multiplicity.

    gcd(x^(p^D) - x, rem) is the product of the distinct degree-D factors
    left in rem; dividing it out once leaves those of multiplicity >= 2,
    which the gcd of rem with it picks out, and so on.
    """
    x, rem = [0, 1], list(f)
    xpd, D, out = x, 0, []
    while len(rem) > 1:
        D += 1
        xpd = lf._fp_powmod(xpd, p, rem, p)
        g, m = lf._fp_gcd(lf._fp_sub(xpd, x, p), rem, p), 0
        while len(g) > 1:  # the degree-D factors of multiplicity > m
            rem, m = lf._fp_divmod(rem, g, p)[0], m + 1
            deeper = lf._fp_gcd(rem, g, p)
            exact = lf._fp_divmod(g, deeper, p)[0]
            if len(exact) > 1:
                out.append((tuple(exact), D, m))
            g = deeper
        xpd = lf._fp_divmod(xpd, rem, p)[1] if len(rem) > 1 else xpd
    return sorted(out)


def _by_degree_and_multiplicity(factors, p):
    """{(D, m): the product of the given factors of degree D and multiplicity m}.

    _fp_factor gives a split quadratic part as its two linear factors, which
    this merges back.
    """
    out = {}
    for g, D, m in factors:
        out[D, m] = [c % p for c in _poly_mul(out.get((D, m), [1]), list(g))]
    return out


def _is_degree_product(g, D, p):
    """Whether g is a product of distinct monic irreducibles of degree D over a small F_p, by trial division."""
    g = list(g)
    for low in itertools.product(range(p), repeat=D):
        h = list(low) + [1]
        if _brute_irreducible(h, p) and not (qr := lf._fp_divmod(g, h, p))[1]:
            g = qr[0]
    return g == [1]


def _fp_power(g, n, p):
    out = [1]
    for _ in range(n):
        out = [c % p for c in _poly_mul(out, g)]
    return out


def test_fp_factor_squarefree_parts_first():
    # repeated factors, p-th powers (zero derivative) and parts of every degree
    pinned = [
        (3, [1, 1], 3),  # (x + 1)^3 = x^3 + 1 mod 3
        (2, [1, 1, 1], 2),  # (x^2 + x + 1)^2 = x^4 + x^2 + 1 mod 2
        (2, [1, 1], 4),  # x^4 + 1 mod 2
        (3, [1, 0, 1], 3),  # (x^2 + 1)^3 = x^6 + 1 mod 3
        (5, [0, 1], 4),  # x^4
    ]
    cases = [(p, tuple(_fp_power(g, n, p))) for p, g, n in pinned]
    rng = random.Random(47)
    for p in (2, 3, 5, 7, 101, 999983):
        for _ in range(40):
            f = [1]
            for _ in range(rng.randint(1, 3)):
                g = [rng.randrange(p) for _ in range(rng.randint(1, 3))] + [1]
                f = _poly_mul(f, _fp_power(g, rng.choice((1, 1, 2, 3, p if p < 8 else 2)), p))
            cases.append((p, tuple(c % p for c in f)))
    for p, f in cases:
        got = lf._fp_factor.__wrapped__(p, f)
        prod = [1]
        for g, D, m in got:
            assert p > 7 or _is_degree_product(g, D, p), (p, f, g, D)
            prod = [c % p for c in _poly_mul(prod, _fp_power(g, m, p))]
        assert tuple(prod) == f, (p, f)
        assert _by_degree_and_multiplicity(got, p) == _by_degree_and_multiplicity(_fp_factor_distinct_degree(p, f), p)
    assert lf._fp_factor(3, (1, 0, 0, 1)) == (((1, 1), 1, 3),)
    assert lf._fp_factor(2, (1, 0, 1, 0, 1)) == (((1, 1, 1), 2, 2),)


def test_fp_factor_seeds_a_generator_only_to_split(monkeypatch):
    seeds = []

    class Spy(random.Random):
        def __init__(self, seed):
            seeds.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(lf.random, "Random", Spy)
    lf._fp_factor.cache_clear()
    lf._residue_roots_fp.cache_clear()
    p = 999983
    # (x - 1)^2 (x - 2)(x - 3) and (x - 1)^2 (x^2 + 1): squarefree parts of degree <= 2
    for f in ((6, p - 17, 17, p - 7, 1), (1, p - 2, 2, p - 2, 1)):
        assert lf._residue_roots_fp(p, 2, f)[1] == 0
    assert seeds == []
    # (x - 1)(x - 2)(x - 3)(x - 4): distinct-degree gives one product of degree 4 to split
    roots, missing = lf._residue_roots_fp(p, 1, (24, p - 50, 35, p - 10, 1))
    assert [r[0] for r, _ in roots] == [1, 2, 3, 4] and missing == 0
    assert seeds == [repr((p, 1, (24, p - 50, 35, p - 10, 1)))]


def test_residue_roots_k2_quadratic_formula():
    # p = 3 mod 4, 5 mod 8 and 1 mod 8 reach every branch of Tonelli-Shanks
    for p in (3, 7, 11, 13, 29, 101, 17, 41, 1009):
        F = lf.GF(p, 2)
        irreducible = [
            [c, b] for b in range(min(p, 5)) for c in range(min(p, 5))
            if _brute_irreducible([c, b, 1], p)
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


def test_residue_roots_k2_linear_product_is_not_a_quadratic(monkeypatch):
    # (x - a)(x - b) q(x), q irreducible, is squarefree of degree 4: its
    # distinct-degree product for D = 1 is the quadratic (x - a)(x - b),
    # which splits by Cantor-Zassenhaus, while only q takes the quadratic
    # formula and its one square root
    sqrt_calls = []

    def spy(a, p):
        sqrt_calls.append(a)
        return sqrt(a, p)

    sqrt = lf._fp_sqrt
    monkeypatch.setattr(lf, "_fp_sqrt", spy)
    rng = random.Random(2081)
    cases = 0
    for p in (2, 3, 5, 7, 13, 1009, 999983):
        F = lf.GF(p, 2)
        for _ in range(4):
            a, b = rng.sample(range(p), 2)
            q = [1, 1, 1]  # the irreducible quadratic over F_2; for odd p, a non-square discriminant
            while p > 2 and pow((q[1] ** 2 - 4 * q[0]) % p, (p - 1) // 2, p) != p - 1:
                q = [rng.randrange(p), rng.randrange(p), 1]
            f = tuple(c % p for c in _poly_mul(_poly_mul([-a, 1], [-b, 1]), q))
            assert lf._fp_factor.__wrapped__(p, f) == tuple(
                sorted([(tuple(c % p for c in _poly_mul([-a, 1], [-b, 1])), 1, 1), (tuple(q), 2, 1)])
            )
            sqrt_calls.clear()
            roots, missing = lf._residue_roots_fp.__wrapped__(p, 2, f)
            assert len(sqrt_calls) == (p != 2)
            poly = [F.from_int(c) for c in f]
            assert (list(roots), missing) == lf._residue_roots_tuple(F, poly)
            assert sorted(r[0] for r, _ in roots if not any(r[1:])) == sorted((a, b))
            assert missing == 0 and len(roots) == 4 and all(F.is_zero(lf.geval(F, poly, r)) for r, _ in roots)
            cases += 1
    assert cases == 28


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
    # coefficients in F_2: factored over F_2 like every other F_p
    F2 = lf.GF(2, 3)
    assert lf.residue_roots(F2, [F2.one, F2.one, F2.one])[1] == 2  # x^2 + x + 1
    assert calls == []
    F5 = lf.GF(5, 2)
    t = (0, 1)
    roots, missing = lf.residue_roots(F5, [F5.neg(t), F5.one])  # x - t
    assert roots == [(t, 1)] and missing == 0
    assert calls == [(5, 2)]
    # coefficients in F_5: factored over F_5, the tuple route is not called
    assert lf.residue_roots(F5, [F5.from_int(3), F5.zero, F5.one]) == ([((0, 2), 1), ((0, 3), 1)], 0)
    assert lf.residue_roots(lf.GF(5, 1), [(3,), (0,), (1,)]) == ([], 2)
    assert calls == [(5, 2)]
    # a coefficient outside F_2 still takes the tuple route at p = 2
    assert lf.residue_roots(F2, [(0, 1, 0), F2.one]) == ([((0, 1, 0), 1)], 0)  # x + t
    assert calls == [(5, 2), (2, 3)]


def _exact_inverse_newton(ring, poly, dpoly, z):
    """The lift before coupled Newton: f'(z) inverted in the ring at every step."""
    steps = max(2, ring.cap.bit_length() + 2)
    for _ in range(steps):
        fz = lf.geval(ring, poly, z)
        if ring.is_zero(fz):
            break
        dz = lf.geval(ring, dpoly, z)
        z = ring.sub(z, ring.mul(fz, _inv_unit(ring, dz)))
    return z


def _simple_residue_roots(rng, ring):
    """A seeded quartic over ring (a unit leading coefficient) with its simple residue roots.

    Every coordinate is random, except that residues lie in F_p, which keeps
    the residue factorization on its fast route; the roots may still leave F_p.
    """
    mod, p = ring.mod, ring.p

    def coeff():
        u0 = (rng.randrange(mod),) + tuple(p * rng.randrange(mod // p) for _ in range(ring.k - 1))
        return u0 + tuple(rng.randrange(mod) for _ in range((ring.e - 1) * ring.k))

    while True:
        poly = [coeff() for _ in range(5)]
        if ring.val(poly[4]):
            continue
        pbar = lf._residue_poly(ring, poly)
        simple = [r for r, mult in lf.residue_roots(ring.gf, pbar)[0] if mult == 1]
        if simple:
            return poly, simple


def test_coupled_newton_matches_exact_inverse_oracle():
    rng = random.Random(2017)
    lifts = 0
    for p in (5, 7, 11, 13, 1009):
        for e in (1, 2, 3, 4, 6):
            for k in (1, 2, 3):
                ring = lf.TameRing(lf.TameExtension(p, e, rng.choice((1, -1))), k, 5)
                poly, simple = _simple_residue_roots(rng, ring)
                dpoly = lf.gderiv(ring, poly)
                for rbar in simple:
                    r = ring.lift_residue(rbar)
                    want = _exact_inverse_newton(ring, poly, dpoly, r)
                    assert ring.is_zero(lf.geval(ring, poly, want))
                    assert lf._newton_lift(ring, poly, dpoly, r) == want, (p, e, k)
                    lifts += 1
    assert lifts >= 150
    # zeta_e: the lift of the first root of the e-th cyclotomic polynomial
    # as a root of x^e - 1 over the unramified ring
    zetas = 0
    for p in (5, 7, 13, 1009, 1000003):
        for k in (1, 2, 3) if p < 10**6 else (1, 2):
            for N in (1, 2, 5, 20):
                U = _unram(p, k, N)
                for e in rng.sample([e for e in (2, 3, 4, 6, 8, 12, 24) if (p**k - 1) % e == 0], 2):
                    poly = [U.neg(U.one)] + [U.zero] * (e - 1) + [U.one]
                    rbar = lf.residue_roots(U.gf, _cyclotomic_mod(e, p, k))[0][0][0]
                    want = _exact_inverse_newton(U, poly, lf.gderiv(U, poly), U.lift_residue(rbar))
                    assert U.pow(want, e) == U.one
                    assert U.zeta(e) == want, (p, k, N, e)
                    zetas += 1
    assert zetas >= 100


def test_newton_lift_stalls_when_its_step_budget_runs_out(monkeypatch):
    ring = lf.TameRing(lf.TameExtension(5, 2), 1, 10)
    poly = [ring.from_int(c) for c in (-6, 0, 1)]  # x^2 - 6: simple roots 1 and 4 mod 5
    dpoly = lf.gderiv(ring, poly)
    r = ring.lift_residue((1,))
    root = lf._newton_lift(ring, poly, dpoly, r)
    assert ring.is_zero(lf.geval(ring, poly, root))
    monkeypatch.setattr(lf, "_newton_budget", lambda ring: 1)
    with pytest.raises(lf.PrecisionStallError):
        lf._newton_lift(ring, poly, dpoly, r)
    # lift_over_ring doubles N on the stall until the ceiling, then gives up
    monkeypatch.setattr(lf, "MAX_PI_DIGITS", 80)
    with pytest.raises(lf.PrecisionStallError):
        lf.lift_over_ring([-6, 0, 1], 5, 1)


class _NestedTameRing:
    """TameRing before its flat layout: e k-tuples of the e = 1 ring, one per power of pi."""

    def __init__(self, ext, k, N):
        self.p, self.e, self.c = ext.p, ext.e, ext.c
        self.N = N
        self.U = _unram(self.p, k, N)
        self.cap = self.e * N
        self._cp = self.U.from_int(self.c * self.p)

    def pi_power(self, m):
        q, r = divmod(m, self.e)
        out = [self.U.zero] * self.e
        out[r] = self.U.pow(self._cp, q)
        return tuple(out)

    def add(self, a, b):
        return tuple(self.U.add(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(self.U.sub(x, y) for x, y in zip(a, b))

    def neg(self, a):
        return tuple(self.U.neg(x) for x in a)

    def mul(self, a, b):
        U, e = self.U, self.e
        if e == 1:
            return (U.mul(a[0], b[0]),)
        out = [U.zero] * e
        for i, x in enumerate(a):
            if x == U.zero:
                continue
            for j, y in enumerate(b):
                if y == U.zero:
                    continue
                t = U.mul(x, y)
                idx = i + j
                if idx >= e:
                    idx -= e
                    t = U.mul(t, self._cp)
                out[idx] = U.add(out[idx], t)
        return tuple(out)

    def val(self, a):
        best = self.cap
        for i, u in enumerate(a):
            vu = self.U.val(u)
            if vu < self.N:
                best = min(best, self.e * vu + i)
        return best

    def is_zero(self, a):
        return self.val(a) >= self.cap

    def _div_p(self, u):
        if any(x % self.p for x in u):
            raise lf.PrecisionStallError("division by pi under-determined")
        return tuple(x // self.p for x in u)

    def div_pi(self, a, m):
        q, r = divmod(m, self.e)
        U = self.U
        out = list(a)
        for _ in range(q):
            out = [self._div_p(u) for u in out]
            if self.c == -1:
                out = [U.neg(u) for u in out]
        for _ in range(r):
            head = self._div_p(out[0])
            if self.c == -1:
                head = U.neg(head)
            out = out[1:] + [head]
        return tuple(out)

    def galois_map(self, a, zeta, j):
        U = self.U
        return tuple(U.mul(u, U.pow(zeta, (i * j) % self.e)) for i, u in enumerate(a))


def _flatten(a):
    return tuple(x for u in a for x in u)


def _unflatten(ring, a):
    return tuple(a[i * ring.k:(i + 1) * ring.k] for i in range(ring.e))


def _tame_rings():
    for p in (2, 3, 5, 7, 1009):
        for e in (1, 2, 3, 4, 6, 8):
            for k in (1, 2, 3):
                for c in (1, -1):
                    if e % p:
                        yield p, e, k, c


def _oracle_elements(rng, ring):
    """Dense and sparse elements of ring, some with positive valuation."""
    p, mod, n = ring.p, ring.mod, ring.e * ring.k
    out = [ring.zero, ring.one]
    for _ in range(2):
        out.append(tuple(rng.randrange(mod) for _ in range(n)))
        out.append(tuple(p * rng.randrange(mod // p) for _ in range(n)))
        out.append(ring.from_int(rng.randrange(-mod, mod)))
        out.append(ring.from_int(p ** rng.randrange(ring.N) * rng.randrange(1, p)))
        out.append(ring.pi_power(rng.randrange(ring.cap + ring.e)))
        out.append(ring.from_unram(tuple(rng.randrange(mod) for _ in range(ring.k))))
        sparse = [0] * n
        sparse[rng.randrange(n)] = rng.randrange(mod)
        out.append(tuple(sparse))
    return out


def test_tame_ring_matches_nested_oracle():
    rng = random.Random(1707)
    for p, e, k, c in _tame_rings():
        N = 3 if p == 1009 else 5
        ext = lf.TameExtension(p, e, c)
        ring, old = lf.TameRing(ext, k, N), _NestedTameRing(ext, k, N)
        U, pad = old.U, (old.U.zero,) * (e - 1)
        n, u = rng.randrange(-ring.mod, ring.mod), tuple(rng.randrange(ring.mod) for _ in range(k))
        assert ring.from_int(n) == _flatten((U.from_int(n),) + pad)
        assert ring.from_unram(u) == _flatten((u,) + pad)
        elts = _oracle_elements(rng, ring)
        results = []
        for m in range(ring.cap + ring.e):
            assert ring.pi_power(m) == _flatten(old.pi_power(m))
            results.append(ring.pi_power(m))
        zeta = ring.zeta(e) if (p**k - 1) % e == 0 else None
        for a in elts:
            na = _unflatten(ring, a)
            assert ring.val(a) == old.val(na), (p, e, k, c, a)
            assert ring.is_zero(a) == old.is_zero(na)
            assert ring.neg(a) == _flatten(old.neg(na))
            j = rng.randrange(e)
            if zeta is not None:
                assert ring.galois_map(a, j) == _flatten(old.galois_map(na, zeta, j))
            for m in (rng.randrange(ring.cap), ring.val(a), rng.randrange(ring.e + 1)):
                try:
                    want = old.div_pi(na, m)
                except lf.PrecisionStallError:
                    with pytest.raises(lf.PrecisionStallError):
                        ring.div_pi(a, m)
                else:
                    assert ring.div_pi(a, m) == _flatten(want), (p, e, k, c, a, m)
                    results.append(ring.div_pi(a, m))
            for b in elts:
                nb = _unflatten(ring, b)
                for name in ("add", "sub", "mul"):
                    got = getattr(ring, name)(a, b)
                    assert got == _flatten(getattr(old, name)(na, nb)), (name, p, e, k, c, a, b)
                    results.append(got)
        # is_zero is `not any(a)`: it needs every result in canonical form
        for r in results:
            assert len(r) == e * k and all(0 <= x < ring.mod for x in r)


def _loop_mul(ring, a, b):
    """The interpreted product that the generated kernels replaced: the reference.

    The reduction rows t^(k+i) mod h are rebuilt from h.  One pass over the
    nonzero entries fills the unreduced array, pi^e -> c*p folds it, and
    the rows reduce it, with one mod p^N per entry.
    """
    p, e, k, m = ring.p, ring.e, ring.k, ring.mod
    red, cur = [], [-x % m for x in ring.h[:k]]
    for _ in range(k - 1):
        red.append(tuple(cur))
        top = cur.pop()
        cur = [0] + cur
        if top:
            cur = [(x - top * y) % m for x, y in zip(cur, ring.h)]
    if len(a) == 1:
        return (a[0] * b[0] % m,)
    if e == 1:
        out = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        for i in range(k, 2 * k - 1):
            x = out[i] % m
            if x:
                for j, r in enumerate(red[i - k]):
                    out[j] += x * r
        return tuple([x % m for x in out[:k]])
    w = 2 * k - 1
    pos = [i * w + j for i in range(e) for j in range(k)]
    tred = [(i * w + j, i * w, red[j - k]) for i in range(e) for j in range(k, w)]
    bs = [(pos[t], y) for t, y in enumerate(b) if y]
    out = [0] * ((2 * e - 1) * w)
    for s, x in enumerate(a):
        if x:
            ps = pos[s]
            for pt, y in bs:
                out[ps + pt] += x * y
    cp, wrap = ring.c * p, e * w
    for s in range(wrap, len(out)):
        if out[s]:
            out[s - wrap] += cp * out[s]
    for s, base, row in tred:
        x = out[s] % m
        if x:
            for j, r in enumerate(row):
                out[base + j] += x * r
    return tuple([out[s] % m for s in pos])


def _kernel_rings():
    """(p, e, k, N, c): the tame shapes at five primes, and p = 3 witness rings, one wider than 64 entries."""
    for p in (2, 5, 7, 10007, 1000003):
        for e in range(1, 5):
            for k in range(1, 7):
                for N in (1, 2, 3):
                    for c in (1, -1):
                        if e % p:
                            yield p, e, k, N, c
    for m, k in ((4, 2), (8, 2), (20, 4)):
        assert pow(3, k, m) == 1  # k is the witness ring's residue degree
        yield 3, m, k, 20, -1


def test_generated_mul_matches_the_loop_reference():
    rng = random.Random(27)
    shapes = set()
    for p, e, k, N, c in _kernel_rings():
        ring = lf.TameRing(lf.TameExtension(p, e, c), k, N)
        mod, n = ring.mod, e * k
        elts = [ring.zero, ring.one, ring.pi_power(rng.randrange(ring.cap))]
        for _ in range(2):
            elts.append(tuple(rng.randrange(mod) for _ in range(n)))
            sparse = [0] * n
            for _ in range(rng.randrange(1, 3)):
                sparse[rng.randrange(n)] = rng.randrange(1, mod)
            elts.append(tuple(sparse))
        for a in elts:
            for b in elts:
                assert ring.mul(a, b) == _loop_mul(ring, a, b), (p, e, k, N, c, a, b)
        # gderiv's entrywise multiples are the ring products i*a_i
        assert lf.gderiv(ring, elts) == [ring.mul(ring.from_int(i), a) for i, a in enumerate(elts)][1:]
        shapes.add((e, k))
        with pytest.raises(ValueError):
            ring.mul(ring.one, ring.one[:-1] if n > 1 else ring.one + (0,))
        with pytest.raises(ValueError):
            ring.mul(ring.one + (0,), ring.one)
    assert len(shapes) == 4 * 6 + 2  # (4, 2) is a tame shape too


# --- root lifting once per prime ------------------------------------------


def _cyclotomic_mod(e, p, k):
    """The e-th cyclotomic polynomial over GF(p, k): x^e - 1 over those of the proper divisors of e."""
    F = lf.GF(p, k)
    num = [F.neg(F.one)] + [F.zero] * (e - 1) + [F.one]
    for d in range(1, e):
        if e % d == 0:
            num, rem = lf.gdivmod(F, num, _cyclotomic_mod(d, p, k))
            assert not rem
    return num


def _zeta_keys():
    """(p, k, N, order) of every zeta the analyze pool asks for, and p = 5 mod 6 at k = 2."""
    with open(Path(__file__).with_name("zeta_keys_analyze_pool.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    for group, primes in data["primes"].items():
        k, order = map(int, group.split(","))
        for p in primes:
            yield p, k, data["N"], order
    for p in (5, 11, 17, 23, 29, 41, 47, 53, 59, 71, 83, 89, 101, 1013, 999983):
        for N in (1, 5):
            for order in (2, 3, 4, 6, 8, 12, 24):
                yield p, 2, N, order
    yield 454501, 2, 20, 6  # 6 | p - 1, yet every a in F_p has a^((p^2-1)/6) of order 1 or 3


def _least_of_exact_order(F, order):
    """The oracle for q <= 10^4: F's elements in increasing order, tried until one has exact order `order`."""
    primes = [r for r in range(2, order + 1) if order % r == 0 and all(r % d for d in range(2, r))]
    for x in itertools.product(range(F.p), repeat=F.k):
        if F.pow(x, order) == F.one and all(F.pow(x, order // r) != F.one for r in primes):
            return x


def _least_primitive_power(F, order):
    """The oracle for large q: the least primitive power of one element of exact order `order`.

    g = a^((q-1)/order) for the first candidate a (from t on when k > 1) that
    makes g primitive.
    """
    q = F.p**F.k
    primes = [r for r in range(2, order + 1) if order % r == 0 and all(r % d for d in range(2, r))]
    for a in lf._fp_tuples(F.p, F.k, F.p if F.k > 1 else 1):
        g = F.pow(a, (q - 1) // order)
        if all(F.pow(g, order // r) != F.one for r in primes):
            return min(F.pow(g, j) for j in range(1, order) if gcd(j, order) == 1)


def test_zeta_residue_root_is_the_least_of_its_order():
    # every pool key and more: the residue root of zeta is the least element
    # of exact order `order`, and zeta is its lift as a root of x^order - 1
    checked = brute = 0
    for p, k, N, order in _zeta_keys():
        U = _unram(p, k, N)
        if p**k <= 10**4:
            rbar = _least_of_exact_order(U.gf, order)
            brute += 1
        else:
            rbar = _least_primitive_power(U.gf, order)
        poly = [U.neg(U.one)] + [U.zero] * (order - 1) + [U.one]
        want = lf._newton_lift(U, poly, lf.gderiv(U, poly), U.lift_residue(rbar))
        assert U.zeta(order) == want, (p, k, N, order)
        checked += 1
    assert checked >= 1000 and brute >= 100


def _minimal_irreducible_from_code_0(p, k):
    """The lexicographic search over every candidate, the binomials x^k + c included."""
    for code in range(p**k):
        low = [code // p**i % p for i in range(k)]
        if low[0] and _rabin_irreducible(low + [1], p):
            return tuple(low) + (1,)


def test_minimal_irreducible_matches_search_from_code_0():
    primes = [p for p in range(2, 160) if all(p % d for d in range(2, p))]
    cases = [(p, k) for p in primes for k in (2, 3, 4, 6)]
    assert len(cases) == 148
    for p, k in cases:
        assert lf._minimal_irreducible.__wrapped__(p, k) == _minimal_irreducible_from_code_0(p, k), (p, k)


def test_minimal_irreducible_skips_reducible_binomials_fast():
    # p = 2 mod 3 makes every element a cube and p = 3 mod 4 leaves -1 a
    # non-square: no x^3 + c, resp. x^4 + c, is irreducible, and p of them
    # took 20 s and more to rule out one at a time; at (1000037, 6) and
    # (3, 12) no binomial is irreducible either
    pinned = (
        (100019, 3, (9, 1, 0, 1)),
        (100003, 4, (7, 1, 0, 0, 1)),
        (1000037, 6, (1, 1, 0, 0, 0, 0, 1)),
        (3, 12, (2, 0, 1) + (0,) * 9 + (1,)),
    )
    for p, k, want in pinned:
        t0 = time.perf_counter()
        assert lf._minimal_irreducible.__wrapped__(p, k) == want
        assert time.perf_counter() - t0 < 0.05, (p, k)
        assert _rabin_irreducible(list(want), p)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _seeded_quartic(rng, p):
    """A separable integer quartic, low degree first, with a unit leading coefficient.

    Random, or a product with p-adically clustered roots and a quadratic or
    cubic factor that is often irreducible mod p, the constant term moved by
    a power of p.
    """
    from picard.exact import discriminant

    while True:
        kind = rng.randrange(4)
        if kind == 0:
            f = [rng.randint(-p**4, p**4) for _ in range(4)] + [rng.choice((1, -1, p + 1))]
        else:
            a, b = rng.randrange(p), rng.randrange(p)
            factors = [[-a, 1], [-a - p ** rng.randint(1, 3), 1]]
            if kind == 1:
                factors += [[-b, 1], [-b - rng.choice((1, -1)) * p ** rng.randint(1, 3), 1]]
            elif kind == 2:
                factors += [[rng.randint(-p, p), rng.randint(-p, p), 1]]
            else:
                factors = [[-a, 1], [rng.randint(-p, p), rng.randint(-p, p), rng.randint(-p, p), 1]]
            f = [1]
            for g in factors:
                f = _poly_mul(f, g)
            f[0] += rng.choice((0, 1, -1)) * p ** rng.randint(1, 5)
        if f[-1] % p and discriminant(poly_from_ints(f[::-1])) != 0:
            return f


def _lift_outcome(f, p, e, k=1):
    try:
        sr = lf.lift_over_ring(f, p, e, k)
    except lf.NeedsLargerE as ex:
        return "NeedsLargerE", ex.factor
    except RuntimeError as ex:  # PrecisionStallError included
        return (type(ex).__name__,)
    ring = sr.ring
    return ring.e, ring.k, ring.N, ring.c, sr.roots, sr.cert


def _split_degree_by_climbing(f, p):
    """The oracle: k grows by the missing relative degree until f mod p splits over F_{p^k}."""
    inv = pow(f[-1], -1, p)
    fbar = tuple(c * inv % p for c in f)
    k = 1
    while missing := lf._residue_roots_fp(p, k, fbar)[1]:
        k *= missing
    return k


def test_residue_split_degree_is_the_climbed_degree():
    rng = random.Random(1616)
    climbed = 0
    for p in (2, 3, 5, 7, 11, 13, 1009, 999983):
        for _ in range(30):
            f = _seeded_quartic(rng, p)
            k = lf._residue_split_degree(f, p)
            assert k == _split_degree_by_climbing(f, p), (f, p)
            climbed += k > 1
    assert climbed >= 40


def test_lift_from_the_residue_split_degree_matches_lift_from_k_1():
    # split_over_minimal_tame starts every try of e at the k where f mod p
    # splits; lift_over_ring reaches the same ring, roots and certificate,
    # or the same exception, from k = 1 through NeedsLargerK at depth 0
    rng = random.Random(1313)
    climbed = 0
    for p in (2, 3, 5, 7, 11, 13, 1009):
        for _ in range(6):
            f = _seeded_quartic(rng, p)
            k_top = lf._residue_split_degree(f, p)
            for e in lf.TAME_E_CANDIDATES:
                if e % p:
                    got = _lift_outcome(f, p, e, k_top)
                    assert got == _lift_outcome(f, p, e), (f, p, e)
                    climbed += k_top > 1
    assert climbed >= 20
    # x^4 - 2 is irreducible mod 5, (x^2 + x + 1)(x^2 - 2) a product of two
    # irreducible quadratics, and (x - 1)(x^3 - 3) has an irreducible cubic mod 7
    assert lf._residue_split_degree([-2, 0, 0, 0, 1], 5) == 4
    assert lf._residue_split_degree(_poly_mul([1, 1, 1], [-2, 0, 1]), 5) == 2
    assert lf._residue_split_degree(_poly_mul([-1, 1], [-3, 0, 0, 1]), 7) == 3
    assert lf._residue_split_degree([-1, 0, 0, 0, 1], 3) == 2


def test_depth_0_roots_lifted_once_over_the_unramified_ring():
    # a simple residue root of f lifted in the ramified ring itself is the
    # root lifted over U and embedded: f'(z) is a unit, so the root is unique
    # mod pi^(eN) and ring elements are canonical
    rng = random.Random(1414)
    lifts = 0
    for p in (5, 7, 11, 13, 1009):
        for _ in range(4):
            f = _seeded_quartic(rng, p)
            k_top = lf._residue_split_degree(f, p)
            for e in (1, 2, 3, 4, 6):
                for c in (1, -1):
                    ring = lf.TameRing(lf.TameExtension(p, e, c), lcm(k_top, lf.multiplicative_order(p, e)), 5)
                    poly = [ring.from_int(c) for c in f]
                    dpoly = lf.gderiv(ring, poly)
                    for rbar, mult in lf.residue_roots(ring.gf, lf._residue_poly(ring, poly))[0]:
                        if mult == 1 and not ring.gf.is_zero(rbar):
                            U = ring.U
                            upoly = [U.from_int(c) for c in f]
                            u = lf._newton_lift(U, upoly, lf.gderiv(U, upoly), U.lift_residue(rbar))
                            want = lf._newton_lift(ring, poly, dpoly, ring.lift_residue(rbar))
                            assert ring.from_unram(u) == want, (f, p, e, c)
                            lifts += 1
    assert lifts >= 200


def _clustered_quartic(rng, p):
    """(x-a)(x-a-p^s)(x-b)(x-b-c p^t), plus 0 or +-p^m on the constant term.

    Half the time b = a + u p^j, so the two pairs nest in one cluster; with
    no shift all four roots are exact integers, some inside clusters.
    """
    while True:
        a = rng.randrange(p)
        b = a + rng.randrange(p) * p ** rng.randint(1, 2) if rng.randrange(2) else rng.randrange(p)
        c = rng.choice([u for u in range(1, p + 2) if u % p])
        f = [1]
        for g in ([-a, 1], [-a - p ** rng.randint(1, 6), 1], [-b, 1], [-b - c * p ** rng.randint(1, 6), 1]):
            f = _poly_mul(f, g)
        f[0] += rng.choice((0, 1, -1)) * p ** rng.randint(1, 10)
        if discriminant(poly_from_ints(f[::-1])) != 0:
            return f


def _shift_reference(ring, poly, r):
    """poly(x + r) by the untrimmed Horner the lifting used before: acc <- acc*(x + r) + c."""
    acc = []
    for c in reversed(poly):
        new = [ring.zero] * (len(acc) + 1)
        for i, a in enumerate(acc):
            new[i + 1] = a
        for i, a in enumerate(acc):
            new[i] = ring.add(new[i], ring.mul(a, r))
        new[0] = ring.add(new[0], c)
        acc = new
    return acc if acc else [ring.zero]


def _compose_reference(F, poly, lam, gam):
    """poly(lam*x + gam) by Horner on gmul and gadd."""
    acc = []
    for c in reversed(poly):
        acc = lf.gadd(F, lf.gmul(F, acc, [gam, lam]), [c])
    return acc


def _cluster_outcome(ring, poly, mult):
    try:
        return lf._cluster_roots(ring, poly, mult, ring.cap, 1)
    except lf.NeedsLargerE as ex:
        return "NeedsLargerE", ex.factor
    except lf.NeedsLargerK as ex:
        return "NeedsLargerK", ex.k
    except lf.PrecisionStallError:
        return "PrecisionStallError"


def test_shift_by_compose_matches_the_untrimmed_horner():
    # gcompose_linear(ring, poly, ring.one, r) is poly(x + r) with its zero
    # top coefficients trimmed, and _cluster_roots finds the same roots, or
    # raises the same exception, in it as in the untrimmed shift; here f's
    # top coefficients p^N u vanish in the ring
    rng = random.Random(1717)
    clusters = trimmed = 0
    for p in (2, 3, 5, 7):
        for _ in range(10):
            f = _clustered_quartic(rng, p)
            for e in (1, 2, 3, 4):
                if e % p == 0:
                    continue
                N = rng.randint(2, 8)
                ring = lf.TameRing(lf.TameExtension(p, e, rng.choice((1, -1))), lf.multiplicative_order(p, e), N)
                top = [p**N * rng.randint(1, 9) for _ in range(rng.randint(0, 2))]
                poly = [ring.from_int(c) for c in f + top]
                for rbar, mult in lf.residue_roots(ring.gf, lf._residue_poly(ring, poly))[0]:
                    r = ring.lift_residue(rbar)
                    ref = _shift_reference(ring, poly, r)
                    got = lf.gcompose_linear(ring, poly, ring.one, r)
                    assert got == lf.gtrim(ring, ref[:]) and len(ref) == len(got) + len(top)
                    if mult > 1:
                        assert _cluster_outcome(ring, got, mult) == _cluster_outcome(ring, ref, mult), (f, p, e, N)
                        clusters += 1
                        trimmed += bool(top)
    assert clusters >= 100 and trimmed >= 50
    # any lam and gam, over a residue field and a ramified ring
    for ring in (lf.GF(3, 2), lf.GF(7, 1), lf.TameRing(lf.TameExtension(3, 8, -1), 2, 20)):
        def elt():
            return tuple(rng.randrange(ring.mod) for _ in ring.one) if rng.randrange(3) else ring.zero

        for _ in range(60):
            poly = lf.gtrim(ring, [elt() for _ in range(rng.randint(0, 6))])
            lam = rng.choice((ring.one, elt()))
            gam = elt()
            assert lf.gcompose_linear(ring, poly, lam, gam) == _compose_reference(ring, poly, lam, gam)


def _tries_of_e(f, p, n_digits):
    """Each try of e up to the first split: NeedsLargerE, or the split's pairwise valuations."""
    out = []
    for e in lf.TAME_E_CANDIDATES:
        if e % p:
            try:
                sr = lf.lift_over_ring(f, p, e, n_digits=n_digits)
            except lf.NeedsLargerE:
                out.append((e, "NeedsLargerE"))
                continue
            pairs = itertools.combinations(range(4), 2)
            return out + [(e, tuple(_pairwise(sr, i, j) for i, j in pairs))]
    return out


def test_lift_outcome_does_not_depend_on_the_starting_precision():
    # NeedsLargerE is raised only on a certified fractional slope, and a lower
    # precision stalls and doubles instead, so the tries of e and the roots
    # (in order) come out the same from every starting N
    rng = random.Random(1515)
    splits_above_1 = 0
    for p in (2, 3, 5, 7):
        for _ in range(25):
            f = _clustered_quartic(rng, p)
            want = _tries_of_e(f, p, 20)
            for n in (4, 6, 8, 40):
                assert _tries_of_e(f, p, n) == want, (f, p, n)
            splits_above_1 += len(want) > 1 and want[-1][1] != "NeedsLargerE"
    assert splits_above_1 >= 20


def test_needs_larger_e_at_low_precision_was_a_truncated_hull():
    # at n_digits = 6 the hull of a truncated cluster showed a slope of 1/2;
    # the roots lie in Q_2^nr, as n_digits = 80 finds
    f = [12, -8, -5, 1, 1]
    sr = lf.lift_over_ring(f, 2, 1, n_digits=6)
    assert sr.ring.e == 1 and sr.ring.N > 6
    hi = lf.lift_over_ring(f, 2, 1, n_digits=80)
    pairs = list(itertools.combinations(range(4), 2))
    assert [_pairwise(sr, i, j) for i, j in pairs] == [_pairwise(hi, i, j) for i, j in pairs]


def test_exact_roots_inside_clusters_keep_their_place_at_every_precision():
    # x = 2 is an exact root of x^4 + x^3 - 2x^2 - 4x - 8 at a depth-1
    # centre of the cluster of three roots at 0 mod 2, and comes last there;
    # x(x - 5)(x - 1)(x - 2) has the exact root 0 at the depth-0 centre of
    # the cluster {0, 5} mod 5, and it comes first
    for f, p in (([-8, -4, -2, 1, 1], 2), (_poly_mul(_poly_mul([0, 1], [-5, 1]), [2, -3, 1]), 5)):
        want = _tries_of_e(f, p, 80)
        for n in (2, 4, 6, 20):
            assert _tries_of_e(f, p, n) == want, (f, p, n)
        sr = lf.lift_over_ring(f, p, 1, n_digits=4)
    # the simple roots 1 and 2, then the cluster at 0 mod 5: 0 itself, then 5
    assert sr.roots[2] == sr.ring.zero and sr.ring.val(sr.roots[3]) == 1
    # root 2 comes last at p = 2 from any N, where N = 20 put it before the start moved
    for n in (1, 4, 20):
        sr = lf.lift_over_ring([-8, -4, -2, 1, 1], 2, 1, n_digits=n)
        assert sr.ring.is_zero(sr.ring.sub(sr.roots[3], sr.ring.from_int(2))), n
    assert lf._vanishes_at([0, -5, 1], (0,), (0, 1))
    h = lf.minimal_irreducible(3, 2)
    f = _poly_mul(list(h), [-1, 1])  # h(x)(x - 1): t is an exact root in Z[t]/(h)
    assert lf._vanishes_at(f, (0, 1), h) and lf._vanishes_at(f, (1, 0), h)
    assert not lf._vanishes_at(f, (1, 1), h)


def test_split_starts_from_the_discriminant_valuation(monkeypatch):
    # every try of e starts at N = min(DEFAULT_PI_DIGITS, v + 1) for v = ord_p(disc f)
    started = []
    real = lf.lift_over_ring

    def spy(f, p, e, k=1, n_digits=lf.DEFAULT_PI_DIGITS):
        started.append(n_digits)
        return real(f, p, e, k, n_digits)

    monkeypatch.setattr(lf, "lift_over_ring", spy)
    runs = []
    # x^4 - 5^m: disc = -256 * 5^(3m), v odd, so the tries are e = 2, 4
    for m in (1, 7):
        started.clear()
        e, sr = lf.split_over_minimal_tame([-(5**m), 0, 0, 0, 1], 5)
        runs.append((e, sr.ring.N, started[:]))
    assert runs == [(4, 4, [4, 4]), (4, 20, [20, 20])]


# tame indices in the order the oracle tries them, none skipped
EVERY_TAME_E = (1, 2, 3, 4, 6, 8, 12, 24)


def _split_trying_every_e(f, p):
    """Oracle: the first e of EVERY_TAME_E prime to p whose lift splits f, or None."""
    k = lf._residue_split_degree(f, p) if f[-1] % p else 1
    n = min(lf.DEFAULT_PI_DIGITS, lf._disc_val(f, p) + 1)
    for e in EVERY_TAME_E:
        if gcd(e, p) == 1:
            try:
                return e, lf.lift_over_ring(f, p, e, k, n)
            except lf.NeedsLargerE:
                continue
    return None


def _split_outcome(split):
    if split is None:
        return None
    e, sr = split
    return e, (sr.ring.e, sr.ring.k, sr.ring.N), sr.roots


def _spy_tries(monkeypatch):
    """The list of the e that lift_over_ring is called with, from now on."""
    tried = []
    real = lf.lift_over_ring

    def spy(f, p, e, *args):
        tried.append(e)
        return real(f, p, e, *args)

    monkeypatch.setattr(lf, "lift_over_ring", spy)
    return tried


def _split_or_wild(f, p):
    try:
        return lf._split_by_lifting(f, p, lf._disc_val(f, p))
    except lf.WildSplittingError:
        return None


def test_split_skips_only_tries_that_cannot_split(monkeypatch):
    # a try of e that is not a multiple of what disc f and the earlier tries
    # force would end in NeedsLargerE: the split loop that skips it finds the
    # same e, ring and roots as the loop that tries every candidate in turn
    # (the loop split_over_minimal_tame runs for every f but a single twin)
    rng = random.Random(2121)
    tried = _spy_tries(monkeypatch)
    seen = {"wild": 0, "e > 1": 0, "fewer tries": 0}
    for p in (2, 3, 5, 7, 11, 13, 10007):
        for i in range(24):
            f = _seeded_quartic(rng, p) if i % 2 else _clustered_quartic(rng, p)
            tried.clear()
            got = _split_outcome(_split_or_wild(f, p))
            ours = len(tried)
            tried.clear()
            want = _split_outcome(_split_trying_every_e(f, p))
            assert got == want, (f, p)
            seen["wild"] += want is None
            seen["e > 1"] += want is not None and want[0] > 1
            seen["fewer tries"] += ours < len(tried)
    assert seen["wild"] >= 10 and seen["e > 1"] >= 40 and seen["fewer tries"] >= 50, seen


def _tries(f, p, monkeypatch):
    tried = _spy_tries(monkeypatch)
    e, _ = lf.split_over_minimal_tame(f, p)
    return e, tried


def test_an_odd_discriminant_valuation_forces_an_even_index(monkeypatch):
    # x^4 - 5: ord_5(disc) = 3, so sqrt(disc) has valuation 3/2 and e is even
    assert lf._disc_val([-5, 0, 0, 0, 1], 5) == 3
    assert _tries([-5, 0, 0, 0, 1], 5, monkeypatch) == (4, [2, 4])


def test_a_certified_slope_forces_its_denominator(monkeypatch):
    # (x^3 - 5)(x - 1): ord_5(disc) = 2, and the try at e = 1 certifies the
    # slope 1/3 of x^3 - 5, so e = 2 cannot split f and is not tried
    f = _poly_mul([-5, 0, 0, 1], [-1, 1])
    assert lf._disc_val(f, 5) == 2
    with pytest.raises(lf.NeedsLargerE) as ex:
        lf.lift_over_ring(f, 5, 1)
    assert ex.value.factor == 3
    assert _tries(f, 5, monkeypatch) == (3, [1, 3])


def test_discriminant_valuation_of_a_quartic_with_unit_leading_coefficient():
    rng = random.Random(5)
    for _ in range(60):
        p = rng.choice([2, 3, 5, 7])
        lc = rng.choice([1, -1, 1 + p, 2 * p - 1])
        f = [rng.randint(-40, 40) for _ in range(4)] + [lc]
        d = discriminant(poly_from_ints(f[::-1]))
        if d == 0:
            with pytest.raises(ValueError):
                lf._disc_val(f, p)
        else:
            assert lf._disc_val(f, p) == valuation(d, p), (f, p)


def test_residue_factorization_and_zeta_caches():
    # f mod p is factored once for every k it is asked at, and the zeta
    # memo is bounded like the other ring caches
    f = (1, 0, 0, 0, 1)  # x^4 + 1 over F_3: two irreducible quadratics
    lf._fp_factor.cache_clear()
    lf._residue_roots_fp.cache_clear()
    assert lf._residue_roots_fp(3, 1, f) == ((), 2)
    assert len(lf._residue_roots_fp(3, 2, f)[0]) == 4
    assert lf._residue_roots_fp(3, 4, f)[1] == 0
    info = lf._fp_factor.cache_info()
    assert (info.hits, info.misses) == (2, 1)
    assert lf._zeta.cache_info().maxsize == 64


def test_multiplicative_order_needs_a_positive_modulus():
    assert lf.multiplicative_order(3, 8) == 2 and lf.multiplicative_order(3, 1) == 1
    for e in (0, -1, -8):  # -1 looped forever
        with pytest.raises(ValueError):
            lf.multiplicative_order(3, e)


def _twin_case(rng, p, v):
    """(f, exact) with f mod p = (x - a)^2 h, ord_p(disc f) = v, h squarefree and h(a) != 0.

    The twin is (x - s)^2 - p^v u with s = a mod p or, at even v, has two
    integer roots (exact is True), one of them a itself half the time.  h
    is split or inert mod p.  f is the product, or the product moved by
    p^(v+1) times a cubic, which keeps the twin and its depth.
    """
    while True:
        a = rng.choice((0, rng.randrange(p)))
        s = a + p * rng.randrange(p) * rng.randrange(2)
        u = rng.randrange(1, p)
        if v % 2 == 0 and rng.randrange(3) == 0:
            r = rng.choice((a, s))
            d = rng.choice((1, -1)) * u * p ** (v // 2)
            G, exact = [r * (r + d), -2 * r - d, 1], True
        else:
            G, exact = [s * s - u * p**v, -2 * s, 1], False
        if rng.randrange(2):
            b1, b2 = rng.randrange(p), rng.randrange(p)
            H = [b1 * b2, -b1 - b2, 1]
        else:
            b = rng.randrange(p)
            c = next(c for c in range(1, p) if pow((b * b - 4 * c) % p, (p - 1) // 2, p) == p - 1)
            H = [c, b, 1]
        f = _poly_mul(G, H)
        if rng.randrange(2) and not exact:
            f = [x + p ** (v + 1) * rng.randint(-p, p) for x in f[:4]] + [1]
        if lf._single_twin(f, p) == a and lf._disc_val(f, p) == v:
            return f, exact


def _twin_against_lift(f, p):
    """The closed-form split of a single twin and the lift's, checked to agree; returns both."""
    from picard.clusters import Ramification
    from picard.inertia import analyze_tame

    v = lf._disc_val(f, p)
    e, sr = lf._split_single_twin(f, p, lf._single_twin(f, p), v)
    want_e, want = lf._split_by_lifting(f, p, v)
    ring = want.ring
    assert (e, sr.ring.e, sr.ring.k, sr.ring.N) == (want_e, ring.e, ring.k, ring.N), (f, p)
    assert [ring.residue(z) for z in sr.roots] == [ring.residue(z) for z in want.roots], (f, p)
    ball = min(b for _, b in want.cert)
    assert all(ring.val(ring.sub(x, y)) >= ball for x, y in zip(sr.roots, want.roots)), (f, p)
    got = analyze_tame(Ramification(p=p, tame=True, e=e, split=sr))
    assert got == analyze_tame(Ramification(p=p, tame=True, e=want_e, split=want)), (f, p)
    return sr, want


def test_single_twin_closed_form_matches_the_lift():
    # the four roots from the Hensel factors (x - a)^2 h by two square roots:
    # the lift's ring, residue order, roots within its certified balls, and
    # tame analysis, over p = 1 and 2 mod 3, v = 1..12, h split and inert
    rng = random.Random(2222)
    seen = Counter()
    for p in (5, 7, 11, 13, 10007, 1000003):
        for v in range(1, 13):
            for _ in range(5):
                f, exact = _twin_case(rng, p, v)
                sr, want = _twin_against_lift(f, p)
                a = lf._single_twin(f, p)
                (C, B, _), _ = lf._twin_factors(f, p, a, v + 1)
                u = (B * B - 4 * C) // p**v
                seen["p = 1 mod 3" if p % 3 == 1 else "p = 2 mod 3"] += 1
                seen["h inert" if lf._residue_split_degree(f, p) == 2 else "h split"] += 1
                seen["u square" if pow(u, (p - 1) // 2, p) == 1 else "u non-square"] += 1
                seen["a = 0" if a == 0 else "a != 0"] += 1
                seen["integer twin roots"] += exact
                seen[_twin_order_rule(f, sr, a)] += 1
        for _ in range(40):  # the suite's other generators, single twins among them
            f = rng.choice((_seeded_quartic, _clustered_quartic))(rng, p)
            if f[-1] == 1 and lf._single_twin(f, p) is not None:
                _twin_against_lift(f, p)
                seen["generated"] += 1
    assert sum(n for k, n in seen.items() if k.startswith("p =")) >= 300
    assert len(seen) == 13 and min(seen.values()) >= 10, seen


def _twin_order_rule(f, sr, a):
    """Which rule put the two twin roots of sr in their order."""
    ring = sr.ring
    z1, z2 = [z for z in sr.roots if ring.residue(z) == ring.residue(ring.from_int(a))]
    if lf._vanishes_at(f, (a,), (0, 1)):
        assert z1 == ring.from_int(a)
        return "exact root a first"
    m, i = divmod(ring.val(ring.sub(z1, z2)), ring.e)
    digit = tuple(x // ring.p**m % ring.p for x in z2[i * ring.k:(i + 1) * ring.k])
    return "nonzero digits sorted" if any(digit) else "zero digit last"


def test_a_single_twin_at_v_1_lifts_nothing(monkeypatch):
    # (x - 1)^2 - 7 times x^2 + 1 at p = 7, ord_7(disc) = 1: no call of
    # lift_over_ring, and e = 2 with sqrt(-1) outside F_7, so k = 2
    def no_lift(*args):
        raise AssertionError("lift_over_ring called")

    monkeypatch.setattr(lf, "lift_over_ring", no_lift)
    f = _poly_mul([-6, -2, 1], [1, 0, 1])
    assert lf._disc_val(f, 7) == 1 and lf._single_twin(f, 7) == 1
    e, sr = lf.split_over_minimal_tame(f, 7)
    assert (e, sr.ring.e, sr.ring.k, sr.ring.N) == (2, 2, 2, 2)


def test_a_deep_single_twin_falls_back_to_the_lift():
    # at v = 20 the start N = 20 leaves no room for certification: the
    # closed form stalls, and the lift doubles N
    f = _poly_mul([1 - 2 * 5**20, -2, 1], [1, 1, 1])
    v = lf._disc_val(f, 5)
    assert v == 20 and lf._single_twin(f, 5) == 1
    with pytest.raises(lf.PrecisionStallError):
        lf._split_single_twin(f, 5, 1, v)
    e, sr = lf.split_over_minimal_tame(f, 5)
    assert _split_outcome((e, sr)) == _split_outcome(lf._split_by_lifting(f, 5, v))
    assert sr.ring.N == 40

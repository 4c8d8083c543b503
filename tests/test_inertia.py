import random

from picard.clusters import cluster_tree, splitting_ramification
from picard.curves import normalize
from picard.exact import Poly, discriminant, poly_from_ints
from picard.inertia import (
    analyze_tame,
    inertia_quotient,
    needs_cube_twist,
)


def run(coeffs, p):
    c, _ = normalize(poly_from_ints(coeffs))
    ram = splitting_ramification(c.f, p)
    assert ram.tame
    return analyze_tame([int(x) for x in c.f.coeffs], p, ram), ram


def test_trivial_action_quotient_is_fiber():
    a, ram = run([1, 0, 14, 72, -41], 5)
    assert a.e_semistable == 1
    q = a.quotient
    assert q.quotient_genera == [g for _, g, _ in a.fiber.components]
    assert q.gamma0 == a.fiber.gamma
    assert q.epsilon == 6 - (sum(2 * g for g in q.quotient_genera) + q.gamma0)


def test_cube_twist_detection():
    # x^4 - 5 splits with e0 = 4 but v_Z(f) = 1: needs the cube root
    c, _ = normalize(poly_from_ints([1, 0, 0, 0, -5]))
    ram = splitting_ramification(c.f, 5)
    tree = cluster_tree(ram.split)
    assert needs_cube_twist(tree, ram.e)
    # good-reduction-shaped tree needs none
    c2, _ = normalize(poly_from_ints([1, 0, 0, 0, -1]))
    ram2 = splitting_ramification(c2.f, 5)
    assert not needs_cube_twist(cluster_tree(ram2.split), ram2.e)


def test_type_a_twisted_quotient_is_projective_line():
    # order-12 inertia on a smooth genus-3 fiber has quotient genus 0
    a, _ = run([1, 0, 0, 0, -5], 5)
    assert a.fiber.reduction_type == "a"
    assert a.e_semistable == 12
    assert a.quotient.quotient_genera == [0]
    assert a.quotient.gamma0 == 0
    assert a.f_p == 6


def test_type_e_pinned():
    # roots {0, p^2, p, 1}: chain clusters, type (e), gamma = gamma0 = 2
    p = 5
    f = Poly([0, 1])
    for r in (p * p, p, 1):
        f = f * poly_from_ints([1, -r])
    a, _ = run([int(c) for c in f.coeffs][::-1], p)
    assert a.fiber.reduction_type == "e"
    assert a.fiber.genera() == [1, 0, 0]
    assert a.fiber.gamma == 2
    assert a.e_semistable == 3 * a.e_splitting
    assert a.quotient.gamma0 == 2
    assert a.f_p == 4


def test_type_d_pinned():
    # roots {0, p, 2p, 1}: one triple cluster, type (d)
    p = 7
    f = Poly([0, 1])
    for r in (p, 2 * p, 1):
        f = f * poly_from_ints([1, -r])
    a, _ = run([int(c) for c in f.coeffs][::-1], p)
    assert a.fiber.reduction_type == "d"
    assert a.fiber.gamma == 2
    assert a.quotient.gamma0 in (0, 2)
    assert a.f_p in (0, 2, 4, 6)


def test_gamma0_parity_random_loops():
    # types (d)/(e) must keep gamma0 in {0, 2}: the three points above an
    # unramified node are fixed or rotated as a whole
    rng = random.Random(99)
    seen_de = 0
    tried = 0
    while seen_de < 12 and tried < 4000:
        tried += 1
        p = rng.choice([5, 7])
        scale = p ** rng.choice([1, 2])
        roots = rng.sample(range(-6, 7), 3)
        f = poly_from_ints([1, -rng.randint(-4, 4)])
        f = Poly([0, 1]) if rng.random() < 0.3 else f
        g = f
        for r in roots:
            g = g * poly_from_ints([1, -r * scale])
        if g.degree != 4 or discriminant(g) == 0:
            continue
        c, _ = normalize(g)
        if c.ord_disc(p) == 0:
            continue
        ram = splitting_ramification(c.f, p)
        if not ram.tame:
            continue
        a = analyze_tame([int(x) for x in c.f.coeffs], p, ram)
        if a.fiber.reduction_type in ("d", "e"):
            seen_de += 1
            assert a.quotient.gamma0 in (0, 2)
    assert seen_de >= 5


def test_epsilon_formula_consistency():
    a, _ = run([1, 0, 0, 0, -5], 5)
    q = a.quotient
    assert q.h1_dim == sum(2 * g for g in q.quotient_genera) + q.gamma0
    assert q.epsilon == 6 - q.h1_dim


def test_pure_cube_twist_quotient_is_base_line():
    # roots {p, 2p, 3p, 4p}: shape (a) with e0 = 1 but v_Z(f) = 4, so the
    # inertia C3 acts through the deck group; the quotient is the line under
    # the cover, so epsilon = 6 (forced: Y/G is the marked P^1)
    p = 5
    f = Poly([1])
    for i in (1, 2, 3, 4):
        f = f * poly_from_ints([1, -i * p])
    a, _ = run([int(c) for c in f.coeffs][::-1], p)
    assert a.fiber.reduction_type == "a"
    assert (a.e_splitting, a.e_semistable) == (1, 3)
    assert a.quotient.quotient_genera == [0]
    assert a.quotient.gamma0 == 0
    assert a.f_p == 6


def _materialize_gbar(sr, curve_ints, m, n, center):
    """Reduced cover equation of a chart by direct Horner substitution.

    Computes red(f(z + pi^m u) / pi^n) from the integer coefficients of f,
    independently of the root-difference bookkeeping in the chart builder.
    """
    ring = sr.ring
    import picard.localfield as lf

    z = sr.roots[center]
    X = [z, ring.pi_power(m)]
    poly = [ring.zero]
    for coef in reversed(curve_ints):
        # poly = poly * X + coef
        new = [ring.zero] * (len(poly) + 1)
        for i, a in enumerate(poly):
            new[i] = ring.add(new[i], ring.mul(a, X[0]))
            new[i + 1] = ring.add(new[i + 1], ring.mul(a, X[1]))
        new[0] = ring.add(new[0], ring.from_int(coef))
        while len(new) > 1 and ring.is_zero(new[-1]):
            new.pop()
        poly = new
    assert min(ring.val(c) for c in poly) == n
    shifted = [ring.div_pi(c, n) for c in poly]
    gf = ring.U.gf
    return lf.gtrim(gf, [ring.residue(c) for c in shifted])


def test_chart_data_against_substitution_oracle():
    """Dual-route check of the inertia charts on a random corpus.

    Route A (implementation): multiplicities from pairwise root residues.
    Route B (oracle): the reduced equation from coefficient substitution.
    Also verifies the full multiplier identity nu^3 * g = g o A for every
    stabilizer power, which pins the Kummer multiplier formulas.
    """
    import picard.localfield as lf
    from picard.clusters import inertia_permutation
    from picard.cover import cover_fiber
    from picard.inertia import _build_charts, needs_cube_twist
    from picard.localfield import lift_over_ring

    rng = random.Random(6060)
    done = 0
    while done < 40:
        f = poly_from_ints([1] + [rng.randint(-25, 25) for _ in range(4)])
        if discriminant(f) == 0:
            continue
        p = rng.choice([5, 7, 11])
        c, _ = normalize(f)
        if c.ord_disc(p) == 0:
            continue
        ram = splitting_ramification(c.f, p)
        if not ram.tame:
            continue
        done += 1
        ints = [int(x) for x in c.f.coeffs]
        tree = cluster_tree(ram.split)
        fiber = cover_fiber(tree)
        e = 3 * ram.e if needs_cube_twist(tree, ram.e) else ram.e
        sr = ram.split if e == ram.e else lift_over_ring(ints, p, e, k=ram.split.ring.k)
        charts = _build_charts(tree, fiber, sr, e)
        ring = sr.ring
        gf = ring.U.gf
        for key, chart in charts.items():
            gbar = _materialize_gbar(sr, ints, chart.m, chart.n, chart.center)
            assert len(gbar) - 1 == chart.size
            roots, missing = lf.residue_roots(gf, gbar)
            assert missing == 0
            assert {r: mult for r, mult in roots} == chart.mult_at
            if e == 1:
                continue
            perm = inertia_permutation(sr, 1)
            zbar = ring.U.to_gf(ring.zeta(e))
            cl_image = tuple(sorted(perm[i] for i in key))
            if cl_image != key:
                continue
            for j in range(1, e):
                pj = list(range(4))
                for _ in range(j):
                    pj = [perm[i] for i in pj]
                if tuple(sorted(pj[i] for i in key)) != key:
                    continue
                lam = gf.pow(zbar, (j * chart.m) % e)
                nu = gf.pow(zbar, (j * (chart.n // 3)) % e)
                zc = sr.roots[chart.center]
                gam = ring.residue(
                    ring.div_pi(ring.sub(sr.roots[pj[chart.center]], zc), chart.m)
                )
                # nu^3 * g(u) == g(lam*u + gam): the cover map commutes
                nu3 = gf.mul(nu, gf.mul(nu, nu))
                lhs = [gf.mul(nu3, cf) for cf in gbar]
                acc = []
                lin = [gam, lam]
                for cf in reversed(gbar):
                    acc = lf.gadd(gf, lf.gmul(gf, acc, lin), [cf])
                assert lf.gtrim(
                    gf, lf.gadd(gf, lhs, [gf.neg(x) for x in acc])
                ) == [], (c.label, p, key, j)


def _embedding_cases():
    """Pinned cube-twist cases, then a seeded random corpus of them.

    The pinned ones grow the residue field: k = 3 -> 6 at 5, k = 2 -> 6 at
    5 (theta a root of a quadratic h in F_{5^6}), k = 1 -> 3 at 7 and
    k = 1 -> 2 at 5.
    """
    yield from [([1, 0, 25, 125, 0], 5), ([1, 0, 0, -10, 0], 5),
                ([1, 0, 0, -7, 0], 7), ([1, 0, 0, 0, -5], 5)]
    rng = random.Random(2024)
    while True:
        coeffs = [1] + [rng.randint(-25, 25) for _ in range(4)]
        if discriminant(poly_from_ints(coeffs)) != 0:
            yield coeffs, rng.choice([5, 7, 11, 13])


def test_embedded_split_matches_relift_oracle():
    """extend_split against lifting the roots again over pi'^(3 e0) = p."""
    from math import lcm

    import picard.localfield as lf
    from picard.cover import cover_fiber
    from picard.localfield import extend_split, lift_over_ring

    done, grown = 0, set()
    for coeffs, p in _embedding_cases():
        if done == 30:
            break
        c, _ = normalize(poly_from_ints(coeffs))
        if c.ord_disc(p) == 0:
            continue
        ram = splitting_ramification(c.f, p)
        tree = cluster_tree(ram.split)
        if not ram.tame or not needs_cube_twist(tree, ram.e):
            continue
        done += 1
        ints = [int(x) for x in c.f.coeffs]
        e, k = 3 * ram.e, ram.split.ring.k
        sr = extend_split(ram.split)
        ring = sr.ring
        assert (ring.e, ring.N, ring.c) == (e, ram.split.ring.N, ram.split.ring.c)
        assert ring.k == lcm(k, lf.multiplicative_order(p, e))
        if ring.k > k:
            grown.add(k)
        # the embedding is a ring map: f at each embedded root keeps its
        # valuation, in pi' units, and the balls scale with it
        fpoly = lf.rpoly_from_ints(ring, ints)
        for z, (fval, ball), (fval0, ball0) in zip(sr.roots, sr.cert, ram.split.cert):
            assert ring.val(lf.rpoly_eval(ring, fpoly, z)) == fval == 3 * fval0
            assert ball == 3 * ball0
        oracle = lift_over_ring(ints, p, e, k=k)
        assert cluster_tree(sr).signature() == tree.signature()
        assert cluster_tree(oracle).signature() == tree.signature(), (c.label, p)
        fiber = cover_fiber(tree)
        got = analyze_tame(ints, p, ram)
        want = inertia_quotient(tree, fiber, oracle, e)
        assert got.e_semistable == e
        assert (got.epsilon, got.quotient.quotient_genera, got.quotient.gamma0) == (
            want.epsilon, want.quotient_genera, want.gamma0,
        ), (c.label, p)
    assert done == 30
    assert {1, 2, 3} <= grown

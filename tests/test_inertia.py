import random

from picard.clusters import Ramification, cluster_tree, splitting_ramification
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
    return analyze_tame(ram), ram


def test_trivial_action_quotient_is_fiber():
    a, ram = run([1, 0, 14, 72, -41], 5)
    assert a.e_semistable == 1
    q = a.quotient
    # the general path at e = 1: every component is its own orbit
    assert q.component_orbits == [[key] for key, _, _ in a.fiber.components]
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
        a = analyze_tame(ram)
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
    gf = ring.gf
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
        gf = ring.gf
        for key, chart in charts.items():
            gbar = _materialize_gbar(sr, ints, chart.m, chart.n, chart.center)
            assert len(gbar) - 1 == chart.size
            roots, missing = lf.residue_roots(gf, gbar)
            assert missing == 0
            assert {r: mult for r, mult in roots} == chart.mult_at
            if e == 1:
                continue
            perm = inertia_permutation(sr, 1)
            zbar = ring.residue(ring.zeta(e))
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


def _twist_cases():
    """Pinned cube-twist cases, then a seeded random corpus of them.

    The pinned ones need zeta_{3 e0} outside the splitting ring's residue
    field, so a relift at 3 e0 grows it: k = 3 -> 6 at 5, k = 2 -> 6 at 5,
    k = 1 -> 3 at 7 and k = 1 -> 2 at 5.
    """
    yield from [([1, 0, 25, 125, 0], 5), ([1, 0, 0, -10, 0], 5),
                ([1, 0, 0, -7, 0], 7), ([1, 0, 0, 0, -5], 5)]
    rng = random.Random(2024)
    while True:
        coeffs = [1] + [rng.randint(-25, 25) for _ in range(4)]
        if discriminant(poly_from_ints(coeffs)) != 0:
            yield coeffs, rng.choice([5, 7, 11, 13])


def test_twisted_quotient_matches_relift_oracle():
    """The twist as exponents mod e against the roots lifted again over pi'^(3 e0) = p."""
    from picard.cover import cover_fiber
    from picard.localfield import lift_over_ring

    done, grown = 0, set()
    for coeffs, p in _twist_cases():
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
        oracle = lift_over_ring(ints, p, e, k=k)
        if oracle.ring.k > k:
            grown.add(k)
        assert cluster_tree(oracle).signature() == tree.signature(), (c.label, p)
        got = analyze_tame(ram)
        want = inertia_quotient(tree, cover_fiber(tree), oracle)
        assert got.e_semistable == want.e == e
        assert (
            got.epsilon, got.quotient.component_orbits, got.quotient.quotient_genera,
            got.quotient.gamma0,
        ) == (want.epsilon, want.component_orbits, want.quotient_genera, want.gamma0), (c.label, p)
    assert done == 30
    assert {1, 2, 3} <= grown


def test_analyze_tame_builds_no_ring_beyond_the_split(monkeypatch):
    """With the cube twist, every ring analyze_tame builds has e in {1, e0} and the split's k."""
    from itertools import islice

    from picard.localfield import TameRing

    init = TameRing.__init__
    for coeffs, p in islice(_twist_cases(), 4):
        c, _ = normalize(poly_from_ints(coeffs))
        ram = splitting_ramification(c.f, p)
        built = []

        def spy(self, ext, k, N):
            init(self, ext, k, N)
            built.append((self.e, self.k))

        with monkeypatch.context() as m:
            m.setattr(TameRing, "__init__", spy)
            a = analyze_tame(ram)
        assert a.e_semistable == 3 * ram.e, (coeffs, p)
        assert all(e in (1, ram.e) and k == ram.split.ring.k for e, k in built), (coeffs, p, built)


def _relabel_cases():
    """(curve ints, p, ram) at tame primes: the fixtures, then 20 seeded pool-style curves."""
    from picard.fixtures import load_fixtures

    for fix in load_fixtures():
        c, _ = normalize(poly_from_ints(fix["curve"]))
        for p, _ in c.disc_factors:
            if p >= 5:
                ram = splitting_ramification(c.f, p)
                if ram.tame:
                    yield [int(x) for x in c.f.coeffs], p, ram
    rng = random.Random(1701)
    found = 0
    while found < 20:
        coeffs = [1] + [rng.randint(-12, 12) for _ in range(4)]
        if discriminant(poly_from_ints(coeffs)) == 0:
            continue
        c, _ = normalize(poly_from_ints(coeffs))
        primes = [p for p, _ in c.disc_factors if 5 <= p <= 13]
        if not primes:
            continue
        p = rng.choice(primes)
        ram = splitting_ramification(c.f, p)
        if ram.tame:
            found += 1
            yield [int(x) for x in c.f.coeffs], p, ram


def test_tame_analysis_invariant_under_root_relabelling():
    """Cluster tree, epsilon, quotient genera and gamma0 ignore the order of the roots."""
    from picard.localfield import SplitRoots

    rng = random.Random(7)
    cases = 0
    for ints, p, ram in _relabel_cases():
        sr = ram.split
        perm = list(range(len(sr.roots)))
        while perm == sorted(perm):
            rng.shuffle(perm)
        moved = SplitRoots(sr.ring, [sr.roots[i] for i in perm], [sr.cert[i] for i in perm], sr.f)
        got = analyze_tame(Ramification(ram.p, ram.tame, ram.e, moved))
        want = analyze_tame(ram)
        # root j of the relabelled split is root perm[j] of the original
        relabelled = sorted(
            (tuple(sorted(perm[j] for j in idx)), depth) for idx, depth in got.tree.signature()
        )
        assert relabelled == sorted(want.tree.signature()), (ints, p, perm)
        assert (got.epsilon, got.quotient.quotient_genera, got.quotient.gamma0) == (
            want.epsilon, want.quotient.quotient_genera, want.quotient.gamma0,
        ), (ints, p, perm)
        cases += 1
    assert cases >= 25


def _lefschetz_cases(pool_sample):
    """(curve, ram) at each tame bad prime of the golden corpus, a seeded pool slice and swapped pairs.

    No tame entry of the golden corpus or of the slice has a cluster that
    inertia moves, so the last family adds two pairs centred at +-sqrt(p*u),
    of radius p^k, which tau swaps: (x^2 + c)^2 - 4*p*u*x^2, c = p*u - p^(2k).
    """
    import json
    from pathlib import Path

    from picard.conductor import sqrt_disc_unramified_at_2
    from picard.curves import parse_curve_text

    root = Path(__file__).resolve().parents[1]
    with open(root / "tests" / "golden_corpus.json", encoding="utf-8") as fh:
        keys = sorted(json.load(fh)["digests"])
    pairs = []
    for key in keys:
        text, p = key.split()
        pairs.append((normalize(parse_curve_text(text))[0], [int(p)]))
    with open(root / "bench" / "reference" / "analyze-pool.jsonl", encoding="utf-8") as fh:
        pool = [json.loads(line)["curve"] for line in fh if line.strip()]
    for coeffs in random.Random(26).sample(pool, pool_sample):
        c, _ = normalize(poly_from_ints(coeffs))
        pairs.append((c, [p for p, _ in c.disc_factors if p != 3]))
    for p in (5, 7, 11, 13):
        for u in (1, 2):
            for k in (1, 2):
                c = p * u - p ** (2 * k)
                pairs.append((normalize(poly_from_ints([1, 0, 2 * c - 4 * p * u, 0, c * c]))[0], [p]))
    for c, primes in pairs:
        for p in primes:
            if c.ord_disc(p) == 0 or (p == 2 and not sqrt_disc_unramified_at_2(c)):
                continue
            ram = splitting_ramification(c.coeffs, p)
            if ram.tame:
                yield c, ram


def _lefschetz_h1(fiber, charts, perm, e, genus, signature, fixed_points):
    """(1/e) sum_j Tr(tau^j | H^1(Y)) over the inertia of order e, by the Lefschetz formula.

    H^1 of the special fiber Y is the H^1 of its components plus that of its
    dual graph.  tau^j adds nothing from a component it moves; on one it
    stabilizes it adds 2g when it acts trivially there, else 2 - #fixed
    points.  On the graph it adds 1 - #fixed vertices + #fixed edges: the
    one point above a node is fixed with its component, the three points
    are all fixed or rotated.
    """
    from picard.inertia import _mu_trivial

    total = 0
    power = {key: key for key in charts}  # tau^j on components
    for j in range(e):
        fixed = [key for key in charts if power[key] == key]
        for key in fixed:
            sig = signature(key, j)
            total += 2 * genus(key) if sig is None else 2 - fixed_points(key, j, sig)
        total += 1 - len(fixed)
        for points, child, _ in fiber.edges:
            if power[child] == child:
                chart = charts[child]
                total += 1 if points == 1 else 3 * _mu_trivial(e, j, chart, chart.size)
        power = {key: perm[image] for key, image in power.items()}
    assert total % e == 0
    return total // e


def test_lefschetz_trace_formula_matches_h1_dim(monkeypatch):
    """dim H^1(Y)^I = (1/e) sum_j Tr(tau^j) agrees with inertia_quotient's h1_dim.

    The oracle is independent in aggregation only: it reuses the charts, the
    signatures and the fixed-point counts of inertia_quotient, and replaces
    its orbits, Riemann-Hurwitz over each stabilizer and quotient-graph loop
    count by an average of traces over the whole group.
    """
    import picard.inertia as inertia

    seen = {}

    def build_charts(*args):
        seen["charts"] = charts = build_charts_orig(*args)
        return charts

    def quotient_genera(*args):
        seen["quotient"] = args[1:6]
        return quotient_genera_orig(*args)

    build_charts_orig, quotient_genera_orig = inertia._build_charts, inertia.quotient_genera
    monkeypatch.setattr(inertia, "_build_charts", build_charts)
    monkeypatch.setattr(inertia, "quotient_genera", quotient_genera)
    twisted = moved = checked = 0
    for curve, ram in _lefschetz_cases(pool_sample=40):
        a = analyze_tame(ram)
        perm, e = seen["quotient"][:2]
        got = _lefschetz_h1(a.fiber, seen["charts"], *seen["quotient"])
        assert got == a.quotient.h1_dim, (curve, ram.p)
        twisted += e > ram.e
        moved += any(perm[key] != key for key in perm)
        checked += 1
    assert checked >= 500 and twisted >= 300 and moved >= 16, (checked, twisted, moved)

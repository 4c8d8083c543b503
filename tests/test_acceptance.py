"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance here is exact (integer/rational equality); the only numeric
budgets are the per-criterion wall-clock limits, asserted explicitly.
"""

import itertools
import json
import random
import time

from picard.clusters import cluster_tree, splitting_ramification
from picard.conductor import analyze_p2, analyze_p3, conductor_tame, global_conductor
from picard.curves import equivalent, normalize
from picard.exact import discriminant, poly_from_ints
from picard.inertia import analyze_tame
from picard.localfield import TameExtension, TameRing, lift_over_ring
from picard.search import SearchConfig, run_search
from picard.wild3 import WildWitness, _chart_constants, _chart_reduction, verify_witness


def _report(n, label):
    print(f"ACCEPTANCE {n} PASS: {label}")


def test_criterion_1_discriminant_exactness():
    cases = [
        ([1, 0, 0, 0, -1], -(2**8)),
        ([1, 0, 14, 72, -41], -(2**10) * 3**4 * 5**6),
        ([1, -3, -24, -1, 0], 3**10),
    ]
    t0 = time.perf_counter()
    for coeffs, want in cases:
        assert discriminant(poly_from_ints(coeffs)) == want
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.003 * len(cases) + 0.01
    _report(1, f"three pinned discriminants exact ({elapsed * 1000:.2f} ms total)")


def test_criterion_2_tame_pipeline_p5():
    t0 = time.perf_counter()
    c, _ = normalize(poly_from_ints([1, 0, 14, 72, -41]))
    ram = splitting_ramification(c.f, 5)
    tree = cluster_tree(ram.split)
    proper = [nd for nd in tree.nodes if not nd.is_root]
    assert len(proper) == 1
    assert len(proper[0].indices) == 2 and proper[0].depth == 3
    analysis = analyze_tame(ram)
    assert analysis.fiber.reduction_type == "b"
    assert analysis.fiber.genera() == [2, 1]
    rep = conductor_tame(c, 5)
    assert rep.f_p == 0 and rep.exceptional
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(2, f"p=5 pipeline: depth-3 pair, type (b) {{2,1}}, f_5 = 0 ({elapsed:.2f} s)")


def test_criterion_3_p3_witnesses():
    t0 = time.perf_counter()
    w1 = WildWitness.from_dict(
        {
            "p": 3, "m": 8,
            "charts": [{"x_scale": 3, "x_center": [0], "y_scale": 0,
                        "y_poly": [[1]], "y_codim": 4}],
        }
    )
    v1 = verify_witness([1, 0, 0, 0, 1], w1)
    assert v1.reduction_type == "a" and v1.f3 == 6
    comp = v1.components[0]
    gf = comp.cover.gf
    ring = TameRing(TameExtension(3, 8, -1), gf.k, 20)
    a0, n0 = _chart_reduction(ring, [1, 0, 0, 0, 1], comp.chart)
    tbar = _chart_constants(ring, comp.chart)[4]
    # smooth reduction y^3 - y = x^4: content pi^(3(b+d)), so A3 = 1 and
    # A2 = 0; A1 = -tbar^2 = -1 and A0 = -x^4
    assert n0 == 12
    assert tbar == [gf.one]
    assert a0 == [gf.zero] * 4 + [gf.neg(gf.one)]
    t1 = time.perf_counter()
    assert t1 - t0 < 5.0

    w2 = WildWitness.from_dict(
        {
            "p": 3, "m": 4,
            "charts": [
                {"x_scale": 2, "x_center": [0], "y_scale": 2,
                 "y_poly": [[0], [1]], "y_codim": 2},
                {"x_scale": 5, "x_center": [0, 0, 0, 0, -1], "y_scale": 4,
                 "y_poly": [[1], [0, 1]], "y_codim": 2},
            ],
        }
    )
    v2 = verify_witness([-54, 0, 0, 1, 3], w2)
    assert v2.reduction_type == "b" and v2.f3 == 4
    t2 = time.perf_counter()
    assert t2 - t1 < 5.0
    _report(3, f"witnesses: x^4+1 smooth f_3 = 6; 3x^4+x^3-54 type (b) f_3 = 4 "
               f"({t2 - t0:.2f} s)")


def test_criterion_4_classification_property_suite():
    t0 = time.perf_counter()
    rng = random.Random(20260809)
    made = 0
    computed = 0
    while made < 500:
        f = poly_from_ints([1] + [rng.randint(-60, 60) for _ in range(4)])
        if discriminant(f) == 0:
            continue
        made += 1
        curve, _ = normalize(f)
        for p in (5, 7, 11, 13):
            if curve.ord_disc(p) == 0:
                continue
            ram = splitting_ramification(curve.f, p)
            assert ram.tame
            analysis = analyze_tame(ram)
            computed += 1
            assert analysis.f_p in (0, 2, 4, 6)
            assert analysis.epsilon % 2 == 0
            assert analysis.fiber.total_genus() == 3
            if analysis.fiber.reduction_type in ("d", "e"):
                assert analysis.fiber.gamma == 2
                assert analysis.quotient.gamma0 in (0, 2)
            if analysis.f_p == 0:
                # exceptional primes force a tree-type fiber, an unramified
                # splitting field, and ord_p(Delta) in {6, 12}
                assert analysis.fiber.reduction_type in ("a", "b", "c")
                assert analysis.e_splitting == 1
                assert curve.ord_disc(p) in (6, 12)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    _report(4, f"500 curves x {{5,7,11,13}}: {computed} bad-prime fibers, "
               f"zero violations ({elapsed:.1f} s)")


def test_criterion_5_p3_p2_constraints():
    t0 = time.perf_counter()
    rng = random.Random(77)
    made = 0
    while made < 200:
        f = poly_from_ints([1] + [rng.randint(-40, 40) for _ in range(4)])
        if discriminant(f) == 0:
            continue
        made += 1
        curve, _ = normalize(f)
        rep3 = analyze_p3(curve)
        assert rep3.f_lo >= 4
        rep2 = analyze_p2(curve)
        assert not (rep2.f_lo == rep2.f_hi == 1)
        assert rep2.f_lo != 1
    elapsed = time.perf_counter() - t0
    _report(5, f"200 curves: f_3 lower bounds >= 4, f_2 never 1 ({elapsed:.1f} s)")


def test_criterion_6_oracle_equivalence_precision():
    t0 = time.perf_counter()
    rng = random.Random(31337)
    done = 0
    while done < 100:
        coeffs = [1] + [rng.randint(-40, 40) for _ in range(4)]
        f = poly_from_ints(coeffs)
        if discriminant(f) == 0:
            continue
        p = rng.choice([5, 7])
        curve, _ = normalize(f)
        ram = splitting_ramification(curve.f, p)
        assert ram.tame
        done += 1
        tree_default = cluster_tree(ram.split)
        sr_hi = lift_over_ring(
            [int(x) for x in curve.f.coeffs], p, ram.e,
            k=ram.split.ring.k, n_digits=4 * 20,
        )
        assert sr_hi.ring.N == 80
        tree_hi = cluster_tree(sr_hi)
        assert tree_default.signature() == tree_hi.signature()
        # root certifications hold at both precisions (a - 2b >= 1)
        for fv, ball in itertools.chain(ram.split.cert, sr_hi.cert):
            assert fv - 2 * (fv - ball) >= 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    _report(6, f"100 cluster trees stable under 4x precision ({elapsed:.1f} s)")


def test_criterion_7_search_regression(tmp_path):
    t0 = time.perf_counter()
    out1 = tmp_path / "s3a.jsonl"
    out2 = tmp_path / "s3b.jsonl"
    cfg = SearchConfig(primes=(3,), height=30, workers=4)
    run_search(cfg, str(out1))
    run_search(cfg, str(out2))
    assert out1.read_bytes() == out2.read_bytes()
    labels = [json.loads(l)["label"] for l in out1.read_text().splitlines()]
    assert "[1,-3,-24,-1,0]" in labels

    out3 = tmp_path / "s23.jsonl"
    run_search(SearchConfig(primes=(2, 3), height=5), str(out3))
    recs = [json.loads(l) for l in out3.read_text().splitlines()]
    by_label = {r["label"]: r for r in recs}
    assert "[1,0,0,0,-1]" in by_label and "[1,0,0,0,1]" in by_label
    c1, _ = normalize(poly_from_ints([1, 0, 0, 0, -1]))
    c2, _ = normalize(poly_from_ints([1, 0, 0, 0, 1]))
    assert equivalent(c1, c2) is None
    elapsed = time.perf_counter() - t0
    assert elapsed < 600
    _report(7, f"search regressions: S={{3}} h=30 ({len(labels)} classes, "
               f"byte-identical reruns), twins inequivalent at h=5 ({elapsed:.1f} s)")


def test_criterion_8_global_assembly_fixture():
    t0 = time.perf_counter()
    w = WildWitness.from_dict(
        {
            "p": 3, "m": 8, "curve": [1, 0, 0, 0, -1],
            "charts": [{"x_scale": 3, "x_center": [0], "y_scale": 0,
                        "y_poly": [[-1]], "y_codim": 4}],
        }
    )
    curve, _ = normalize(poly_from_ints([1, 0, 0, 0, -1]))
    g = global_conductor(curve, witnesses={3: w})
    assert g.n_lo % 3**6 == 0
    by_p = {r.p: r for r in g.reports}
    assert by_p[3].status == "computed" and by_p[3].f_p == 6
    assert by_p[2].status == "unknown-wild"
    assert any("f_2 != 1" in n for n in by_p[2].notes)
    # N = 46656 = 2^6 3^6 is recorded in the bundled fixture documentation,
    # not computed: the honest output is an interval containing it
    assert g.n_lo <= 46656 <= g.n_hi
    elapsed = time.perf_counter() - t0
    _report(8, f"global assembly: N_lo = {g.n_lo} (3^6 | N_lo), f_2 wild with "
               f"f_2 != 1 ({elapsed:.2f} s)")

import itertools
import random
from fractions import Fraction

import pytest
from test_localfield import _pairwise

import picard.clusters
from picard.clusters import (
    ClusterTree,
    cluster_tree,
    inertia_permutation,
    splitting_ramification,
)
from picard.curves import normalize
from picard.exact import Poly, discriminant, poly_from_ints


def tree_from(pairs):
    m = [[Fraction(0)] * 4 for _ in range(4)]
    for (i, j), v in pairs.items():
        m[i][j] = m[j][i] = Fraction(v)
    return ClusterTree(m)


def test_tree_for_exceptional_p5_example():
    ram = splitting_ramification(poly_from_ints([1, 0, 14, 72, -41]), 5)
    assert ram.tame and ram.e == 1
    t = cluster_tree(ram.split)
    assert t.component_count() == 2
    proper = [nd for nd in t.nodes if not nd.is_root]
    assert len(proper) == 1
    assert len(proper[0].indices) == 2 and proper[0].depth == 3
    # infinity marks the top component, together with the two unit roots
    assert sorted(t.top.marks(), key=str) == sorted(
        [*(i for i in t.top.immediate), "inf"], key=str
    )
    assert len(t.top.immediate) == 2


def test_tree_single_component_when_disc_unit():
    ram = splitting_ramification(poly_from_ints([1, 0, 0, 0, -1]), 5)
    t = cluster_tree(ram.split)
    assert t.component_count() == 1
    assert t.top.depth == 0 and len(t.top.marks()) == 5


def test_tree_synthetic_two_pairs():
    # roots {0, p, 1, 1+p}: two depth-1 clusters, three components
    t = tree_from({(0, 1): 1, (2, 3): 1})
    assert t.component_count() == 3
    sizes = sorted(len(nd.indices) for nd in t.nodes)
    assert sizes == [2, 2, 4]


def test_tree_relabeling_invariance():
    rng = random.Random(7)
    base = {(0, 1): 2, (0, 2): 1, (1, 2): 1}
    t0 = tree_from(base)
    for _ in range(10):
        perm = list(range(4))
        rng.shuffle(perm)
        relabeled = {}
        for (i, j), v in base.items():
            a, b = perm[i], perm[j]
            relabeled[(min(a, b), max(a, b))] = v
        t1 = tree_from(relabeled)
        shape0 = sorted((len(nd.indices), nd.depth) for nd in t0.nodes)
        shape1 = sorted((len(nd.indices), nd.depth) for nd in t1.nodes)
        assert shape0 == shape1


def test_depth_strictly_increases_downward():
    # chain {2,3} in {1,2,3} in R
    t = tree_from({(1, 2): 1, (1, 3): 1, (2, 3): 4})
    assert t.component_count() == 3
    for nd in t.nodes:
        if nd.parent is not None:
            assert nd.depth > nd.parent.depth


def test_gauss_valuation_values():
    ram = splitting_ramification(poly_from_ints([1, 0, 14, 72, -41]), 5)
    t = cluster_tree(ram.split)
    by_size = {len(nd.indices): nd for nd in t.nodes}
    assert t.gauss_valuation_of_f(by_size[4]) == 0
    assert t.gauss_valuation_of_f(by_size[2]) == 6


def test_splitting_ramification_cases():
    ram = splitting_ramification(poly_from_ints([1, 0, 14, 72, -41]), 5)
    assert (ram.e, ram.tame) == (1, True)
    assert inertia_permutation(ram.split) == (0, 1, 2, 3)

    kummer = splitting_ramification(poly_from_ints([1, 0, 0, 0, -5]), 5)
    assert (kummer.e, kummer.tame) == (4, True)
    perm = inertia_permutation(kummer.split)
    # a 4-cycle on the roots
    seen, cur = set(), 0
    for _ in range(4):
        seen.add(cur)
        cur = perm[cur]
    assert len(seen) == 4 and cur == 0

    wild2 = splitting_ramification(poly_from_ints([1, 0, 0, 0, -1]), 2)
    assert not wild2.tame and wild2.split is None

    wild3 = splitting_ramification(poly_from_ints([1, -3, -24, -1, 0]), 3)
    assert not wild3.tame


def test_inertia_preserves_cluster_depths_random():
    rng = random.Random(41)
    done = 0
    while done < 30:
        f = poly_from_ints([1] + [rng.randint(-20, 20) for _ in range(4)])
        if discriminant(f) == 0:
            continue
        p = rng.choice([5, 7, 11])
        ram = splitting_ramification(f, p)
        if not ram.tame or ram.e == 1:
            continue
        done += 1
        sr = ram.split
        perm = inertia_permutation(sr)
        for i, j in itertools.combinations(range(4), 2):
            assert _pairwise(sr, i, j) == _pairwise(sr, perm[i], perm[j])


def test_inertia_permutation_has_order_dividing_e():
    ram = splitting_ramification(poly_from_ints([1, 0, 0, 0, -5]), 5)
    perm = inertia_permutation(ram.split)
    power = tuple(range(4))
    for j in range(1, ram.e + 1):
        power = tuple(perm[i] for i in power)
        assert power == inertia_permutation(ram.split, j)
        assert (power == (0, 1, 2, 3)) == (j == ram.e)


def test_splitting_ramification_rejects_rational_coefficients():
    # x^4 + x + 7/2 used to be split as x^4 + x + 3
    with pytest.raises(ValueError):
        splitting_ramification(Poly([Fraction(7, 2), 1, 0, 0, 1]), 5)
    assert splitting_ramification(Poly([Fraction(6, 2), 1, 0, 0, 1]), 5).tame


def test_splitting_ramification_wants_a_quartic():
    with pytest.raises(ValueError):
        splitting_ramification(poly_from_ints([1, 0, -5]), 5)


def test_splitting_ramification_of_a_curve_skips_the_discriminant(monkeypatch):
    curves = [normalize(poly_from_ints(c))[0] for c in ([1, 0, 14, 72, -41], [1, 0, 0, 0, -5], [1, 0, 0, 0, -1])]
    expect = {(c, p): splitting_ramification(c.f, p) for c in curves for p in (2, 3, 5)}

    def no_discriminant(f):
        raise AssertionError("a curve's coeffs are separable already")

    monkeypatch.setattr(picard.clusters, "discriminant", no_discriminant)
    for (c, p), want in expect.items():
        got = splitting_ramification(c.coeffs, p)
        assert (got.tame, got.e) == (want.tame, want.e), (c, p)
        if got.tame:
            assert got.split.roots == want.split.roots


def _lift_split(roots, p, n_digits=20):
    from picard.localfield import lift_over_ring

    f = [1]
    for r in roots:
        f = [0, *f]
        for i in range(len(f) - 1):
            f[i] -= r * f[i + 1]
    return lift_over_ring(f, p, 1, n_digits=n_digits)


def test_one_valuation_pattern_gives_one_shared_tree():
    # the same roots at two precisions, and roots moved by a unit multiple of
    # the cluster's diameter: other rings and roots, one valuation pattern
    splits = [_lift_split((1, 6, 2, 3), 5, 2), _lift_split((1, 6, 2, 3), 5, 30), _lift_split((1, 11, 2, 3), 5)]
    patterns = {tuple(_pairwise(sr, i, j) for i, j in itertools.combinations(range(4), 2)) for sr in splits}
    assert len(patterns) == 1 and len({sr.ring.N for sr in splits}) == 3
    tree = cluster_tree(splits[0])
    assert all(cluster_tree(sr) is tree for sr in splits)
    deeper = cluster_tree(_lift_split((1, 26, 2, 3), 5))
    assert deeper is not tree and deeper != tree
    assert deeper.signature() != tree.signature()


def test_a_shared_tree_cannot_be_reordered_or_extended():
    tree = cluster_tree(_lift_split((1, 6, 2, 3), 5))
    assert isinstance(tree.nodes, tuple)
    assert all(isinstance(nd.children, tuple) for nd in tree.nodes)
    with pytest.raises(AttributeError):
        tree.nodes.sort(key=lambda nd: len(nd.indices))
    with pytest.raises(AttributeError):
        tree.nodes.append(tree.top)
    with pytest.raises(AttributeError):
        tree.top.children.append(tree.top)
    with pytest.raises(TypeError):
        tree.pairwise[0, 1] = Fraction(7)
    assert cluster_tree(_lift_split((1, 6, 2, 3), 5)) is tree
    assert tree.top.children[0].key == (0, 1) and tree.component_count() == 2

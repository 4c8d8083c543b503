import itertools
import random
from fractions import Fraction

import pytest

from picard.clusters import INF_MARK, ClusterTree
from picard.cover import (
    ImpossibleFiberError,
    SpecialFiber,
    classify_marked_tree,
    cover_fiber,
)


def tree_from_depths(pairs):
    """Build a ClusterTree from {(i,j): depth}; unspecified pairs get 0."""
    m = [[Fraction(0)] * 4 for _ in range(4)]
    for (i, j), v in pairs.items():
        m[i][j] = m[j][i] = Fraction(v)
    return ClusterTree(m)


SHAPE_TREES = {
    "a": tree_from_depths({}),
    "b": tree_from_depths({(2, 3): 2}),
    "c": tree_from_depths({(0, 1): 1, (2, 3): 3}),
    "d": tree_from_depths({(1, 2): 1, (1, 3): 1, (2, 3): 1}),
    "e": tree_from_depths({(1, 2): 1, (1, 3): 1, (2, 3): 4}),
}

EXPECTED_GENERA = {
    "a": [3],
    "b": [2, 1],
    "c": [1, 1, 1],
    "d": [1, 0],
    "e": [1, 0, 0],
}

EXPECTED_GAMMA = {"a": 0, "b": 0, "c": 0, "d": 2, "e": 2}

EXPECTED_EDGE_POINTS = {"a": [], "b": [1], "c": [1, 1], "d": [3], "e": [1, 3]}


@pytest.mark.parametrize("shape", list(SHAPE_TREES))
def test_classification_exhaustive(shape):
    assert classify_marked_tree(SHAPE_TREES[shape]) == shape


@pytest.mark.parametrize("shape", list(SHAPE_TREES))
def test_cover_fiber_matches_taxonomy(shape):
    fiber = cover_fiber(SHAPE_TREES[shape])
    assert fiber.reduction_type == shape
    assert fiber.genera() == EXPECTED_GENERA[shape]
    assert fiber.gamma == EXPECTED_GAMMA[shape]
    assert sorted(pts for pts, _, _ in fiber.edges) == sorted(EXPECTED_EDGE_POINTS[shape])
    assert fiber.total_genus() == 3


def walk_generators(tree):
    """Reference: canonical inertia generators at every mark and node.

    Marks carry sigma for infinity and sigma^2 for roots.  At a node the
    child-side exponent is forced bottom-up by the product-one relation, and
    the parent side carries the inverse (admissibility).  Returns
    (component key, location, exponent) triples; location is a root index,
    "inf", or ("node", child key).
    """
    points = []
    parent_side = {}

    def walk(node):
        total = 0
        key = tuple(sorted(node.indices))
        for i in node.immediate:
            points.append((key, i, 2))
            total += 2
        if node.is_root:
            points.append((key, INF_MARK, 1))
            total += 1
        for child in node.children:
            walk(child)
            child_key = tuple(sorted(child.indices))
            a = parent_side[child_key]
            points.append((key, ("node", child_key), a))
            total += a
        if not node.is_root:
            up = (-total) % 3
            parent_side[key] = (-up) % 3
            points.append((key, ("node", key), up))

    walk(tree.top)
    return points


def walk_fiber(tree):
    """Reference: the special fiber the generator walk implies."""
    points = walk_generators(tree)
    components = []
    for node in tree.nodes:
        key = tuple(sorted(node.indices))
        branch = sum(1 for comp, _, k in points if comp == key and k)
        assert branch != 1
        components.append((key, 0, 3) if branch == 0 else (key, branch - 2, 1))
    node_exponent = {}
    for _, loc, k in points:
        if isinstance(loc, tuple):
            node_exponent.setdefault(loc[1], k)
    edges = tuple(
        (1 if node_exponent[tuple(sorted(nd.indices))] else 3,
         tuple(sorted(nd.indices)), tuple(sorted(nd.parent.indices)))
        for nd in tree.nodes
        if not nd.is_root
    )
    vertices = sum(c for _, _, c in components)
    gamma = sum(pts for pts, _, _ in edges) - vertices + 1
    return SpecialFiber(classify_marked_tree(tree), tuple(components), edges, gamma)


def relabeled(tree, perm):
    m = [[Fraction(0)] * 4 for _ in range(4)]
    for (i, j), v in tree.pairwise.items():
        m[perm[i]][perm[j]] = v
    return ClusterTree(m)


def random_tree(rng):
    # pairwise p-adic valuations of four distinct integers, over a ramified
    # value group: an ultrametric of any of the five shapes
    p, e = rng.choice([2, 3, 5]), rng.choice([1, 2, 3, 4])
    roots = rng.sample(range(-200, 201), 4)
    m = [[Fraction(0)] * 4 for _ in range(4)]
    for i, j in itertools.combinations(range(4), 2):
        d, v = abs(roots[i] - roots[j]), 0
        while d % p == 0:
            d, v = d // p, v + 1
        m[i][j] = m[j][i] = Fraction(v, e)
    return ClusterTree(m)


def assert_rule_matches_walk(tree):
    points = walk_generators(tree)
    per = {}
    for comp, loc, k in points:
        per[comp] = per.get(comp, 0) + k
        if loc == INF_MARK:
            assert k == 1
        elif isinstance(loc, int):
            assert k == 2
    # product-one on every component
    assert all(total % 3 == 0 for total in per.values())
    fiber = cover_fiber(tree)
    assert fiber == walk_fiber(tree)
    assert fiber.to_dict() == walk_fiber(tree).to_dict()


@pytest.mark.parametrize("shape", list(SHAPE_TREES))
def test_branch_rule_matches_generator_walk_relabeled(shape):
    for perm in itertools.permutations(range(4)):
        tree = relabeled(SHAPE_TREES[shape], perm)
        assert classify_marked_tree(tree) == shape
        assert_rule_matches_walk(tree)


def test_branch_rule_matches_generator_walk_random():
    rng = random.Random(1812)
    shapes = set()
    for _ in range(600):
        tree = random_tree(rng)
        shapes.add(classify_marked_tree(tree))
        assert_rule_matches_walk(tree)
    assert shapes == set(SHAPE_TREES)


def test_shape_d_node_unramified():
    fiber = cover_fiber(SHAPE_TREES["d"])
    assert fiber.edges[0][0] == 3  # three singular points above the node


def test_serialization_shape_e():
    d = cover_fiber(SHAPE_TREES["e"]).to_dict()
    assert d["type"] == "e"
    assert d["gamma"] == 2
    assert sorted(c["genus"] for c in d["components"]) == [0, 0, 1]
    assert sorted(e["points"] for e in d["edges"]) == [1, 3]


def test_fiber_and_cube_twist_are_computed_once_per_tree(monkeypatch):
    import picard.cover
    from picard.inertia import needs_cube_twist

    shapes, gauss = [], []
    classify, gauss_of = picard.cover.classify_marked_tree, ClusterTree.gauss_valuation_of_f
    monkeypatch.setattr(picard.cover, "classify_marked_tree", lambda t: shapes.append(t) or classify(t))
    monkeypatch.setattr(
        ClusterTree, "gauss_valuation_of_f", lambda t, node: gauss.append(t) or gauss_of(t, node)
    )
    cover_fiber.cache_clear()
    needs_cube_twist.cache_clear()
    trees = [
        tree_from_depths({}),
        tree_from_depths({(2, 3): Fraction(1, 2)}),
        tree_from_depths({(0, 1): 1, (2, 3): Fraction(1, 3)}),
        tree_from_depths({(1, 2): 1, (1, 3): 1, (2, 3): 1}),
        tree_from_depths({(1, 2): Fraction(1, 4), (1, 3): Fraction(1, 4), (2, 3): 2}),
    ]
    calls = []
    for _ in range(3):
        for tree in trees:
            cover_fiber(tree)
            for e0 in (1, 2, 3, 4):
                needs_cube_twist(tree, e0)
        # an equal tree built anew shares the memo of the first
        cover_fiber(tree_from_depths({(2, 3): Fraction(1, 2)}))
        calls.append((len(shapes), len(gauss)))
    assert shapes == trees
    assert calls[0] == calls[2] and 0 < calls[0][1] <= 4 * sum(len(t.nodes) for t in trees)

"""Admissible degree-3 covers of stable 5-marked trees: the tame special fiber.

Given the marked tree of p-adic root clusters (p != 3), the special fiber of
the stable model is determined combinatorially: marks carry canonical inertia
generators (sigma for the infinity mark, sigma^2 for roots), node generators
are forced by the product-one relation on each component together with
admissibility (inverse generators on the two branches at a node), and each
component of the cover is a tame cyclic degree-3 cover of P^1 whose genus is
(number of branch points) - 2.
"""

from dataclasses import dataclass

from .clusters import INF_MARK, ClusterTree

TREE_SHAPES = ("a", "b", "c", "d", "e")


class ImpossibleFiberError(RuntimeError):
    """Internal invariant violation: input was not a valid stable 5-tree."""


def classify_marked_tree(tree: ClusterTree):
    """Letter (a)-(e) of the stable 5-marked tree.

    The laminar families on four roots allow exactly five shapes, keyed by
    the sizes of the proper sub-clusters: none -> a, one pair -> b, two
    pairs -> c, one triple -> d, nested pair-in-triple -> e.
    """
    top = tree.top
    kids = sorted(len(c.indices) for c in top.children)
    grandkids = [len(g.indices) for c in top.children for g in c.children]
    if kids == [] :
        return "a"
    if kids == [2] and not grandkids:
        return "b"
    if kids == [2, 2]:
        return "c"
    if kids == [3] and not grandkids:
        return "d"
    if kids == [3] and grandkids == [2]:
        return "e"
    raise ImpossibleFiberError(f"not a stable 5-marked quartic tree: {tree!r}")


@dataclass(frozen=True)
class CoverBranchPoint:
    """A branch point of the cover on one component.

    location is a root index, the string "inf", or ("node", child-cluster
    key); generator_exponent k in {0,1,2} means the canonical inertia
    generator there is sigma^k.
    """

    component: tuple
    location: object
    generator_exponent: int


def _cluster_key(node):
    return tuple(sorted(node.indices))


def assign_generators(tree: ClusterTree):
    """Canonical inertia generators at every mark and node of the tree.

    Marks: sigma for infinity, sigma^2 for roots.  At a node the child-side
    exponent is forced bottom-up by the product-one relation, and the
    parent side carries the inverse (admissibility).  The system is always
    consistent: the mark exponents total 1 + 4*2 = 9 = 0 mod 3.
    """
    points = []
    parent_side = {}

    def walk(node):
        total = 0
        key = _cluster_key(node)
        for i in node.immediate:
            points.append(CoverBranchPoint(key, i, 2))
            total += 2
        if node.is_root:
            points.append(CoverBranchPoint(key, INF_MARK, 1))
            total += 1
        for child in node.children:
            walk(child)
            a = parent_side[_cluster_key(child)]
            points.append(CoverBranchPoint(key, ("node", _cluster_key(child)), a))
            total += a
        if not node.is_root:
            up = (-total) % 3
            parent_side[key] = (-up) % 3
            points.append(CoverBranchPoint(key, ("node", key), up))
            total += up
        if total % 3:
            raise ImpossibleFiberError("product-one relation failed")

    walk(tree.top)
    return points


@dataclass(frozen=True)
class SpecialFiber:
    """Components, dual graph and loop count of the stable reduction.

    components: ((key, genus, copies), ...); edges: ((points, key_child,
    key_parent), ...) where points is the number of nodes of the cover above
    that node of the tree.  gamma = edges - vertices + 1 on the dual graph.
    """

    reduction_type: str
    components: tuple
    edges: tuple
    gamma: int

    def genera(self):
        return sorted((g for _, g, copies in self.components for _ in range(copies)), reverse=True)

    def total_genus(self):
        return sum(g * c for _, g, c in self.components) + self.gamma

    def to_dict(self):
        return {
            "type": self.reduction_type,
            "components": [
                {"genus": g, "copies": c} for _, g, c in self.components
            ],
            "edges": [
                {"points": pts, "between": [list(a), list(b)]}
                for pts, a, b in self.edges
            ],
            "gamma": self.gamma,
        }


def cover_fiber(tree: ClusterTree):
    """Special fiber of the admissible degree-3 cover of the marked tree.

    Per component with B branch points: B = 0 lifts to three disjoint
    genus-0 copies (an unramified degree-3 cover of P^1 is split), B = 1 is
    impossible by product-one, B >= 2 gives one connected component of genus
    B - 2.  Nodes with nonzero generator have one point above, nodes with
    generator zero have three.
    """
    shape = classify_marked_tree(tree)
    points = assign_generators(tree)
    by_component = {}
    for pt in points:
        by_component.setdefault(pt.component, []).append(pt)

    components = []
    for node in tree.nodes:
        key = _cluster_key(node)
        branch = sum(1 for pt in by_component[key] if pt.generator_exponent)
        if branch == 1:
            raise ImpossibleFiberError("component with a single branch point")
        if branch == 0:
            components.append((key, 0, 3))
        else:
            components.append((key, branch - 2, 1))

    node_exponent = {}
    for pt in points:
        if isinstance(pt.location, tuple) and pt.location[0] == "node":
            node_exponent.setdefault(pt.location[1], pt.generator_exponent)

    edges = []
    for node in tree.nodes:
        if node.is_root:
            continue
        key = _cluster_key(node)
        upstairs = 1 if node_exponent[key] % 3 else 3
        edges.append((upstairs, key, _cluster_key(node.parent)))

    vertices = sum(c for _, _, c in components)
    edge_count = sum(pts for pts, _, _ in edges)
    gamma = edge_count - vertices + 1
    fiber = SpecialFiber(
        reduction_type=shape,
        components=tuple(components),
        edges=tuple(edges),
        gamma=gamma,
    )
    if fiber.total_genus() != 3:
        raise ImpossibleFiberError(
            f"arithmetic genus {fiber.total_genus()} != 3 for shape {shape}"
        )
    return fiber

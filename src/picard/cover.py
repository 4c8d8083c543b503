"""Admissible degree-3 covers of stable 5-marked trees: the tame special fiber.

Given the marked tree of p-adic root clusters (p != 3), the special fiber of
the stable model is read off the cluster sizes.  The inertia generator is
sigma^2 at a root and sigma at infinity, and by product-one on each
component the exponents on the component of a cluster s, leaving out its
upper node, add up to 2|s| mod 3; so the node above s carries +-|s| mod 3.
Hence one point of the cover lies above that node when 3 does not divide
|s|, and three points otherwise.  The component of s is a connected cyclic
degree-3 cover of P^1 with B branch points: its own roots, its children c
with 3 not dividing |c|, and one more when 3 does not divide |s| (infinity
on the top cluster, where |s| = 4).  It has genus B - 2; with four roots
B >= 2 always holds.
"""

from functools import lru_cache

from .clusters import ClusterTree
from .record import FrozenRecord


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


class SpecialFiber(FrozenRecord):
    """Components, dual graph and loop count of the stable reduction.

    components: ((key, genus, copies), ...); edges: ((points, key_child,
    key_parent), ...) where points is the number of nodes of the cover above
    that node of the tree.  gamma = edges - vertices + 1 on the dual graph.
    """

    __slots__ = ("reduction_type", "components", "edges", "gamma")

    def __init__(self, reduction_type: str, components: tuple, edges: tuple, gamma: int):
        self._set(reduction_type, components, edges, gamma)

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


@lru_cache(maxsize=256)
def cover_fiber(tree: ClusterTree):
    """Special fiber of the admissible degree-3 cover of the marked tree.

    One connected component per cluster, of genus B - 2, and one edge per
    proper cluster with 1 or 3 points above it (see the module docstring).
    Memoized per tree: the fiber is a function of the tree's signature.
    """
    shape = classify_marked_tree(tree)
    components, edges = [], []
    for node in tree.nodes:
        size = len(node.indices)
        branch = len(node.immediate) + sum(1 for c in node.children if len(c.indices) % 3)
        if size % 3:  # the node above the cluster, or infinity on the top one
            branch += 1
        components.append((node.key, branch - 2, 1))
        if not node.is_root:
            edges.append((1 if size % 3 else 3, node.key, node.parent.key))
    fiber = SpecialFiber(
        reduction_type=shape,
        components=tuple(components),
        edges=tuple(edges),
        gamma=sum(pts for pts, _, _ in edges) - len(components) + 1,
    )
    if fiber.total_genus() != 3:
        raise ImpossibleFiberError(
            f"arithmetic genus {fiber.total_genus()} != 3 for shape {shape}"
        )
    return fiber

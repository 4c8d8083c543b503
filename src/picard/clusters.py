"""Cluster trees of p-adic root configurations and splitting-field data.

The stably marked model of (P^1, {roots of f, infinity}) is combinatorial:
its components correspond to the clusters of the four roots (subsets cut
out by p-adic disks), nested by inclusion, with infinity marking the top
component.  Depths are exact rationals in (1/e)Z.
"""

import itertools
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .exact import discriminant
from .localfield import (
    PrecisionStallError,
    SplitRoots,
    WildSplittingError,
    split_over_minimal_tame,
)
from .record import Record

INF_MARK = "inf"
_PAIRS = tuple(itertools.combinations(range(4), 2))


class ClusterNode(Record):
    """One component of the marked model: a cluster of root indices.

    ``immediate`` holds the root indices marking this component directly;
    ``key``, the sorted indices, is the cluster's name in fibers and reports.
    """

    __slots__ = ("indices", "depth", "parent", "children", "immediate", "key")

    def __init__(self, indices: frozenset, depth: Fraction, parent: "ClusterNode | None" = None,
                 children: tuple = (), immediate: tuple = (), key: tuple = ()):
        self.indices = indices
        self.depth = depth
        self.parent = parent
        self.children = children
        self.immediate = immediate
        self.key = key

    @property
    def is_root(self):
        return self.parent is None

    def marks(self):
        """Marked points on this component (root indices, plus inf on top)."""
        ms = list(self.immediate)
        if self.is_root:
            ms.append(INF_MARK)
        return ms

    def center(self):
        return min(self.indices)

    def __repr__(self):
        kids = ",".join(repr(c) for c in self.children)
        inner = " ".join(
            [*(str(i) for i in sorted(self.immediate)), *( [kids] if kids else [] )]
        )
        return f"({inner})_{self.depth}"


class ClusterTree:
    """Laminar family of proper clusters of the 4 roots, with the inf mark.

    Built from the 4x4 matrix of pairwise valuations v(alpha_i - alpha_j).
    The top cluster (all four roots) is always present; every node with
    fewer roots has strictly larger depth than its parent.  A tree is shared
    by every root configuration of its valuation pattern (cluster_tree), so
    it is immutable once built: nodes and children are tuples, and the
    Gauss numbers are computed with it.  Equal signatures make equal trees.
    """

    def __init__(self, pairwise):
        n = 4
        self.pairwise = MappingProxyType({
            (i, j): Fraction(pairwise[i][j]) for i in range(n) for j in range(n) if i != j
        })
        clusters = []
        for size in (4, 3, 2):
            for s in itertools.combinations(range(n), size):
                s = frozenset(s)
                d = min(self.pairwise[i, j] for i in s for j in s if i < j)
                outside = [t for t in range(n) if t not in s]
                if all(max(self.pairwise[t, i] for i in s) < d for t in outside):
                    clusters.append((s, d))
        nodes = {s: ClusterNode(indices=s, depth=d, key=tuple(sorted(s))) for s, d in clusters}
        self.top = nodes[frozenset(range(n))]
        children = {s: [] for s in nodes}
        for s, node in nodes.items():
            if node is self.top:
                continue
            parent = nodes[min((t for t in nodes if s < t), key=len)]
            node.parent = parent
            children[parent.indices].append(node)
        for s, node in nodes.items():
            node.children = tuple(sorted(children[s], key=lambda c: c.key))
            node.immediate = tuple(sorted(s.difference(*(c.indices for c in node.children))))
        self.nodes = tuple(sorted(nodes.values(), key=lambda nd: (-len(nd.indices), nd.key)))
        self._signature = tuple((nd.key, nd.depth) for nd in self.nodes)
        self._hash = hash(self._signature)
        self._gauss = {nd.key: self._gauss_of(nd) for nd in self.nodes}

    def component_count(self):
        return len(self.nodes)

    def signature(self):
        """Canonical serialization: nested (sorted indices, depth) pairs."""
        return self._signature

    def gauss_valuation_of_f(self, node):
        """v_Z(f) for the monic quartic with these roots, at this component.

        v_Z(x - alpha_i) = depth(Z) for i inside the cluster and the depth of
        the smallest cluster containing both otherwise.  Computed with the tree.
        """
        return self._gauss[node.key]

    @staticmethod
    def _gauss_of(node):
        total = Fraction(0)
        for i in range(4):
            anc = node
            while i not in anc.indices:
                anc = anc.parent
            total += anc.depth
        return total

    def __eq__(self, other):
        return isinstance(other, ClusterTree) and self._signature == other._signature

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"ClusterTree{self.top!r}"


class Ramification(Record):
    """Outcome of the splitting-field analysis at one prime: e and split are None when wild."""

    __slots__ = ("p", "tame", "e", "split")

    def __init__(self, p: int, tame: bool, e: int | None = None, split: SplitRoots | None = None):
        self.p = p
        self.tame = tame
        self.e = e
        self.split = split


def inertia_permutation(sr: SplitRoots, j=1):
    """Permutation of the roots under tau^j, tau(pi) = zeta_e pi."""
    ring = sr.ring
    if ring.e == 1:
        return tuple(range(len(sr.roots)))
    threshold = min(ball for _, ball in sr.cert)
    perm = []
    for i, r in enumerate(sr.roots):
        image = ring.galois_map(r, j)
        best, best_v, second = None, -1, -1
        for t, cand in enumerate(sr.roots):
            v = ring.val(ring.sub(image, cand))
            if v > best_v:
                best, best_v, second = t, v, best_v
            elif v > second:
                second = v
        if best_v < threshold or second >= threshold:
            raise PrecisionStallError("Galois image of a root not resolved")
        perm.append(best)
    if sorted(perm) != list(range(len(sr.roots))):
        raise PrecisionStallError("Galois action did not permute the roots")
    return tuple(perm)


def splitting_ramification(f, p):
    """Minimal tame ramification of the splitting field of f over Q_p^nr.

    Returns a Ramification record: e and the split roots when a tame
    extension of index <= 4 splits f (always the case for p >= 5),
    and a typed wild outcome otherwise (possible only at p = 2, 3).  f is a
    quartic Poly, checked (ValueError when of another degree, inseparable or
    non-integral), or a PicardCurve's int coeffs, separable already: the
    per-prime callers hold a curve and so skip the Fraction discriminant.
    """
    if isinstance(f, tuple):
        coeffs = f
    elif f.degree != 4:
        raise ValueError("need a quartic")
    elif discriminant(f) == 0:
        raise ValueError("polynomial must be separable")
    else:
        coeffs = f.int_coeffs()
    try:
        e, sr = split_over_minimal_tame(coeffs, p)
    except WildSplittingError:
        return Ramification(p=p, tame=False)
    return Ramification(p=p, tame=True, e=e, split=sr)


def cluster_tree(sr: SplitRoots):
    """Stable 5-marked tree from the roots lifted by lift_over_ring.

    Memoized per valuation pattern: the tree is a function of the ring's e
    and the six pairwise valuations v(alpha_i - alpha_j) in pi digits, so
    every configuration with one pattern gets the same ClusterTree object.
    """
    ring, roots = sr.ring, sr.roots
    return _tree_of_pattern(ring.e, tuple(ring.val(ring.sub(roots[i], roots[j])) for i, j in _PAIRS))


@lru_cache(maxsize=256)
def _tree_of_pattern(e, vals):
    m = [[Fraction(0)] * 4 for _ in range(4)]
    for (i, j), v in zip(_PAIRS, vals):
        m[i][j] = m[j][i] = Fraction(v, e)
    return ClusterTree(m)

"""Inertia action on the tame special fiber and the quotient curve.

For p != 3 the curve acquires semistable reduction over L = Q_p^nr(pi'),
pi'^e = p, where e is the splitting index r of f times a cube-root twist
(needed exactly when some component Gauss valuation v_Z(f) has
r*v_Z(f) != 0 mod 3).  The cyclic inertia group of order e acts on the
special fiber; the conductor exponent is epsilon = 6 - dim H^1_et of the
quotient, and delta = 0 by tameness.

The action is computed on the splitting ring, pi^r = p, alone.  A generator
tau' of order e, pi' -> zeta_e pi' with zeta_e^(e/r) = zeta_r, restricts to
tau: pi -> zeta_r pi, so tau'^j moves the roots as tau^(j mod r) does.  On
the component of a cluster s with center z, m = e*depth(s), m_r =
r*depth(s) and Gauss number n = e*v_Z(f), tau'^j sends the chart coordinate
a to lambda*a + gamma with lambda = zeta_e^(j*m) = zeta_r^(j*m_r) and
gamma = red((tau^j(z) - z)/pi^(m_r)), and multiplies the cover coordinate
by nu = zeta_e^(j*n/3).  The twist acts only through nu and the Kummer
multipliers, powers of zeta_e that are only ever compared with 1, so they
stay exponents mod e.  Fixed points are counted over the at most two fixed
base points: one point (always fixed) above a branch point, and three
points above an unramified point, fixed iff the local Kummer multiplier
zeta_e^(j*(n - m*mult)/3) is trivial.  Quotient genera follow from
Riemann-Hurwitz over the effective stabilizer.
"""

from functools import lru_cache

from .clusters import ClusterTree, cluster_tree, inertia_permutation
from .cover import SpecialFiber, cover_fiber
from .localfield import lift_over_ring  # noqa: F401  (bench/tracing.py wraps this name)
from .record import ComparedRecord, Record


class UnsupportedActionError(RuntimeError):
    """The induced inertia action violated an internal invariant."""


class ComponentChart(Record):
    """Residue data of one base component needed for the action.

    m = e * depth and n = e * v_Z(f) (divisible by 3) are in pi' units;
    center is the root index used as chart origin; mult_at maps a finite
    chart coordinate (GF element) to its multiplicity.
    """

    __slots__ = ("key", "size", "m", "n", "center", "mult_at", "genus", "branches")

    def __init__(self, key: tuple, size: int, m: int, n: int, center: int, mult_at: dict,
                 genus: int, branches: int):
        self.key = key
        self.size = size
        self.m = m
        self.n = n
        self.center = center
        self.mult_at = mult_at
        self.genus = genus
        self.branches = branches


class InertiaQuotientData(ComparedRecord):
    """Everything about Y^0 = Y/Gamma needed for the conductor.

    component_orbits lists the cluster keys of each orbit, and
    quotient_genera the genus of W/stab per orbit.
    """

    __slots__ = ("e", "component_orbits", "quotient_genera", "gamma0", "h1_dim", "epsilon")

    def __init__(self, e: int, component_orbits: list, quotient_genera: list, gamma0: int,
                 h1_dim: int, epsilon: int):
        self.e = e
        self.component_orbits = component_orbits
        self.quotient_genera = quotient_genera
        self.gamma0 = gamma0
        self.h1_dim = h1_dim
        self.epsilon = epsilon


@lru_cache(maxsize=256)
def needs_cube_twist(tree: ClusterTree, e0: int):
    """True iff the cover needs pi^(1/3) over the splitting field (memoized per tree and e0)."""
    for node in tree.nodes:
        if (e0 * tree.gauss_valuation_of_f(node)) % 3 != 0:
            return True
    return False


def _build_charts(tree, fiber, sr, e):
    """The chart of each cluster; root differences are divided by pi^(m_r) in sr's ring."""
    ring = sr.ring
    gf = ring.gf
    genus_of = {key: g for key, g, _ in fiber.components}
    charts = {}
    for node in tree.nodes:
        key = node.key
        mr = ring.e * node.depth
        if mr.denominator != 1:
            raise UnsupportedActionError("cluster depth outside the value group")
        mr = int(mr)
        n = e * tree.gauss_valuation_of_f(node)
        if n.denominator != 1 or int(n) % 3:
            raise UnsupportedActionError("Gauss valuation not a multiple of 3")
        n = int(n)
        center = node.center()
        z = sr.roots[center]
        mult_at = {}
        for i in key:
            if i == center:
                coord = gf.zero
            else:
                diff = ring.sub(sr.roots[i], z)
                coord = ring.residue(ring.div_pi(diff, mr))
            mult_at[coord] = mult_at.get(coord, 0) + 1
        for child in node.children:
            coords = set()
            for i in child.indices:
                diff = ring.sub(sr.roots[i], z)
                coords.add(gf.zero if i == center else ring.residue(ring.div_pi(diff, mr)))
            if len(coords) != 1:
                raise UnsupportedActionError("child cluster not collapsed on chart")
        branches = sum(1 for mult in mult_at.values() if mult % 3) + (
            1 if len(node.indices) % 3 else 0
        )
        if branches >= 2 and branches - 2 != genus_of[key]:
            raise UnsupportedActionError("chart branch count disagrees with fiber")
        charts[key] = ComponentChart(
            key=key,
            size=len(node.indices),
            m=e // ring.e * mr,
            n=n,
            center=center,
            mult_at=mult_at,
            genus=genus_of[key],
            branches=branches,
        )
    return charts


def _cluster_permutation(tree, perm):
    """Induced permutation on cluster keys; must preserve the tree."""
    mapping = {}
    keys = {nd.key: nd for nd in tree.nodes}
    for key, node in keys.items():
        image = tuple(sorted(perm[i] for i in key))
        if image not in keys or keys[image].depth != node.depth:
            raise UnsupportedActionError("inertia does not preserve the cluster tree")
        mapping[key] = image
    return mapping


def _mu_trivial(e, j, chart, mult):
    """True iff the Kummer multiplier zeta_e^(j*(n - m*mult)/3) above a fixed base point is 1.

    mult is the vanishing order of the reduced quartic there; the chart's
    point at infinity uses mult = chart.size (the degree of the reduction).
    zeta_e is primitive, so the multiplier is 1 iff its exponent is 0 mod e.
    """
    expo = chart.n - chart.m * mult
    if expo % 3:
        raise UnsupportedActionError("non-integral Kummer multiplier exponent")
    return j * (expo // 3) % e == 0


def _fix_count(gf, e, j, chart, sig):
    """Fixed points of the signature's automorphism on the cover component."""
    lam, gam, _ = sig
    if lam == gf.one and gf.is_zero(gam):
        # vertical: a deck transformation; fixes exactly the branch points
        return chart.branches
    fix = 0
    if lam != gf.one:
        u_star = gf.mul(gam, gf.inv(gf.sub(gf.one, lam)))
        mult = chart.mult_at.get(u_star, 0)
        if mult % 3:
            fix += 1
        elif _mu_trivial(e, j, chart, mult):
            fix += 3
    # the point at infinity of the chart is fixed by every affine map
    if chart.size % 3:
        fix += 1
    elif _mu_trivial(e, j, chart, chart.size):
        fix += 3
    return fix


def quotient_genera(items, perm, order, genus, signature, fixed_points, error):
    """Orbits of a cyclic group on components and the genus of each quotient.

    perm maps each item (a component) to its image under the generator tau
    of the group, of the given order.  For an orbit of length ell the
    stabilizer of its first item is generated by tau^ell; signature(item, j)
    names the automorphism tau^j induces on that component (None for the
    identity) and fixed_points(item, j, sig) counts its fixed points, asked
    once per distinct signature.  The quotient genus comes from
    Riemann-Hurwitz over the effective stabilizer (the stabilizer modulo the
    kernel of the action); an inconsistent count raises error.
    Returns (orbits, genera), one genus per orbit.
    """
    orbits, seen = [], set()
    for item in items:
        if item in seen:
            continue
        orbit = [item]
        cur = perm[item]
        while cur != item:
            orbit.append(cur)
            cur = perm[cur]
        seen.update(orbit)
        orbits.append(orbit)
    genera = []
    for orbit in orbits:
        item, ell = orbit[0], len(orbit)
        reps, kernel = {}, 1
        for j in range(ell, order, ell):
            sig = signature(item, j)
            if sig is None:
                kernel += 1
            else:
                reps.setdefault(sig, j)
        m_eff, rest = divmod(order // ell, kernel)
        if rest:
            raise error("kernel size does not divide the stabilizer")
        if m_eff == 1:
            genera.append(genus(item))
            continue
        if len(reps) != m_eff - 1:
            raise error("effective stabilizer miscounted")
        fix = sum(fixed_points(item, j, sig) for sig, j in reps.items())
        num = 2 * genus(item) - 2 - fix
        if num % (2 * m_eff):
            raise error("Riemann-Hurwitz count not integral")
        g0 = 1 + num // (2 * m_eff)
        if g0 < 0:
            raise error("negative quotient genus")
        genera.append(g0)
    return orbits, genera


def inertia_quotient(tree: ClusterTree, fiber: SpecialFiber, sr):
    """Quotient data of the special fiber by the cyclic inertia of order e.

    sr holds the roots lifted over Q_p^nr(pi) with pi^r = p (zeta_r lives in
    its residue field), and e is r, or 3r when needs_cube_twist(tree, r).
    The root permutation and lambda of tau: pi -> zeta_r pi are computed
    there, and the powers of zeta_e (nu and the Kummer multipliers) are
    kept as exponents mod e.  A ring at 3r needs no twist, so e = r then.
    """
    ring = sr.ring
    r = ring.e
    # the twist multiplies the index by 3 even when 3 | r: with e = 3*r
    # every n_Z = e*v_Z(f) = 3*(r*v_Z) is a multiple of 3
    e = 3 * r if needs_cube_twist(tree, r) else r
    gf = ring.gf
    charts = _build_charts(tree, fiber, sr, e)
    perm1 = inertia_permutation(sr, 1)
    zbar = [ring.residue(z) for z in ring.zeta_powers]
    cl_perm = _cluster_permutation(tree, perm1)

    perms = {0: tuple(range(4))}
    for j in range(1, r):
        perms[j] = tuple(perm1[perms[j - 1][i]] for i in range(4))

    def signature(key, j):
        """(lambda, gamma, nu's exponent) of tau'^j on the chart, None for the identity."""
        chart = charts[key]
        mr = chart.m * r // e
        z = sr.roots[chart.center]
        image_center = perms[j % r][chart.center]
        gam = ring.residue(ring.div_pi(ring.sub(sr.roots[image_center], z), mr))
        sig = (zbar[j * mr % r], gam, j * (chart.n // 3) % e)
        return None if sig == (gf.one, gf.zero, 0) else sig

    orbits, genera = quotient_genera(
        charts,
        cl_perm,
        e,
        lambda key: charts[key].genus,
        signature,
        lambda key, j, sig: _fix_count(gf, e, j, charts[key], sig),
        UnsupportedActionError,
    )

    # quotient dual graph: one vertex per component orbit; the orbit of a
    # proper cluster also names the orbit of the node above it, which gives
    # 1 edge (branch node), else 3 or 1 depending on whether the stabilizer
    # rotates the three points above it
    edges = 0
    for orbit in orbits:
        if orbit[0] == tree.top.key:  # no node above the top cluster
            continue
        chart = charts[orbit[0]]
        if chart.size % 3:
            edges += 1
        else:
            ell = len(orbit)
            rotated = any(not _mu_trivial(e, j, chart, chart.size) for j in range(ell, e, ell))
            edges += 1 if rotated else 3
    gamma0 = edges - len(orbits) + 1
    if gamma0 < 0:
        raise UnsupportedActionError("negative loop count in quotient graph")
    h1 = sum(2 * g for g in genera) + gamma0
    return InertiaQuotientData(
        e=e,
        component_orbits=orbits,
        quotient_genera=genera,
        gamma0=gamma0,
        h1_dim=h1,
        epsilon=6 - h1,
    )


class TameAnalysis(ComparedRecord):
    """Full tame pipeline output at one prime p != 3."""

    __slots__ = ("p", "e_splitting", "e_semistable", "tree", "fiber", "quotient")

    def __init__(self, p: int, e_splitting: int, e_semistable: int, tree: ClusterTree,
                 fiber: SpecialFiber, quotient: InertiaQuotientData):
        self.p = p
        self.e_splitting = e_splitting
        self.e_semistable = e_semistable
        self.tree = tree
        self.fiber = fiber
        self.quotient = quotient

    @property
    def epsilon(self):
        return self.quotient.epsilon

    @property
    def f_p(self):
        return self.quotient.epsilon


def analyze_tame(ram):
    """Run cluster tree -> cover -> inertia quotient for a tame prime.

    ram is the Ramification record from splitting_ramification (must be
    tame).  Everything is computed on ram.split's ring; the semistable
    index is the order of inertia that inertia_quotient works out.
    """
    tree = cluster_tree(ram.split)
    fiber = cover_fiber(tree)
    quotient = inertia_quotient(tree, fiber, ram.split)
    if quotient.epsilon % 2 or not (0 <= quotient.epsilon <= 6):
        raise UnsupportedActionError(f"epsilon = {quotient.epsilon} violates parity/range")
    if fiber.reduction_type in ("d", "e") and quotient.gamma0 not in (0, 2):
        raise UnsupportedActionError("gamma0 must be 0 or 2 for types d/e")
    return TameAnalysis(
        p=ram.p,
        e_splitting=ram.e,
        e_semistable=quotient.e,
        tree=tree,
        fiber=fiber,
        quotient=quotient,
    )

"""Inertia action on the tame special fiber and the quotient curve.

For p != 3 the curve acquires semistable reduction over L = Q_p^nr(pi),
pi^e = p, where e is the splitting index of f times a cube-root twist
(needed exactly when some component Gauss valuation v_Z(f) has
e*v_Z(f) != 0 mod 3).  The cyclic inertia group of order e acts on the
special fiber; the conductor exponent is epsilon = 6 - dim H^1_et of the
quotient, and delta = 0 by tameness.

The action is computed chart by chart.  On the component of a cluster s
with center z, m = e*depth(s) and Gauss number n = e*v_Z(f), the generator
power tau^j sends the chart coordinate a to lambda*a + gamma with
lambda = zeta^(j*m) and gamma = red((tau^j(z) - z)/pi^m), and multiplies
the cover coordinate by nu = zeta^(j*n/3).  Fixed points are counted over
the at most two fixed base points: one point (always fixed) above a branch
point, and three points above an unramified point, fixed iff the local
Kummer multiplier zeta^(j*(n - m*mult)/3) is trivial.  Quotient genera
follow from Riemann-Hurwitz over the effective stabilizer.
"""

from dataclasses import dataclass

from .clusters import ClusterTree, cluster_tree, inertia_permutation
from .cover import SpecialFiber, cover_fiber
from .localfield import extend_split
from .localfield import lift_over_ring  # noqa: F401  (bench/tracing.py wraps this name)


class UnsupportedActionError(RuntimeError):
    """The induced inertia action violated an internal invariant."""


@dataclass
class ComponentChart:
    """Residue data of one base component needed for the action."""

    key: tuple
    size: int
    m: int  # e * depth, pi units
    n: int  # e * v_Z(f), pi units, divisible by 3
    center: int  # root index used as chart origin
    mult_at: dict  # finite chart coordinate (GF element) -> multiplicity
    genus: int
    branches: int


@dataclass
class InertiaQuotientData:
    """Everything about Y^0 = Y/Gamma needed for the conductor."""

    e: int
    component_orbits: list  # lists of cluster keys
    quotient_genera: list  # genus of W/stab per orbit
    gamma0: int
    h1_dim: int
    epsilon: int


def needs_cube_twist(tree: ClusterTree, e0: int):
    """True iff the cover needs pi^(1/3) over the splitting field."""
    for node in tree.nodes:
        if (e0 * tree.gauss_valuation_of_f(node)) % 3 != 0:
            return True
    return False


def _build_charts(tree, fiber, sr, e):
    ring = sr.ring
    gf = ring.U.gf
    genus_of = {key: g for key, g, _ in fiber.components}
    charts = {}
    for node in tree.nodes:
        key = tuple(sorted(node.indices))
        m = e * node.depth
        if m.denominator != 1:
            raise UnsupportedActionError("cluster depth outside the value group")
        m = int(m)
        n = e * tree.gauss_valuation_of_f(node)
        if n.denominator != 1 or int(n) % 3:
            raise UnsupportedActionError("Gauss valuation not a multiple of 3")
        n = int(n)
        center = node.center()
        z = sr.roots[center]
        mult_at = {}
        for i in sorted(node.indices):
            if i == center:
                coord = gf.zero
            else:
                diff = ring.sub(sr.roots[i], z)
                coord = ring.residue(ring.div_pi(diff, m))
            mult_at[coord] = mult_at.get(coord, 0) + 1
        for child in node.children:
            coords = set()
            for i in child.indices:
                diff = ring.sub(sr.roots[i], z)
                coords.add(gf.zero if i == center else ring.residue(ring.div_pi(diff, m)))
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
            m=m,
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
    keys = {tuple(sorted(nd.indices)): nd for nd in tree.nodes}
    for key, node in keys.items():
        image = tuple(sorted(perm[i] for i in key))
        if image not in keys or keys[image].depth != node.depth:
            raise UnsupportedActionError("inertia does not preserve the cluster tree")
        mapping[key] = image
    return mapping


def _mu(gf, zbar, e, j, chart, mult):
    """Kummer multiplier zeta^(j*(n - m*mult)/3) above a fixed base point.

    mult is the vanishing order of the reduced quartic there; the chart's
    point at infinity uses mult = chart.size (the degree of the reduction).
    zbar has order e, so the exponent is taken mod e.
    """
    expo = chart.n - chart.m * mult
    if expo % 3:
        raise UnsupportedActionError("non-integral Kummer multiplier exponent")
    return gf.pow(zbar, j * (expo // 3) % e)


def _fix_count(gf, zbar, e, j, chart, sig):
    """Fixed points of the signature's automorphism on the cover component."""
    lam, gam, nu = sig
    if lam == gf.one and gf.is_zero(gam):
        # vertical: a deck transformation; fixes exactly the branch points
        return chart.branches
    fix = 0
    if lam != gf.one:
        u_star = gf.mul(gam, gf.inv(gf.sub(gf.one, lam)))
        mult = chart.mult_at.get(u_star, 0)
        if mult % 3:
            fix += 1
        elif _mu(gf, zbar, e, j, chart, mult) == gf.one:
            fix += 3
    # the point at infinity of the chart is fixed by every affine map
    if chart.size % 3:
        fix += 1
    elif _mu(gf, zbar, e, j, chart, chart.size) == gf.one:
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


def inertia_quotient(tree: ClusterTree, fiber: SpecialFiber, sr, e: int):
    """Quotient data of the special fiber by the cyclic inertia of order e.

    sr holds the roots lifted over Q_p^nr(pi) with pi^e = p (zeta_e lives in
    its residue field); the root permutation of tau: pi -> zeta pi is
    computed there so it stays consistent with the multiplier formulas.
    """
    ring = sr.ring
    assert ring.e == e
    gf = ring.U.gf
    charts = _build_charts(tree, fiber, sr, e)

    if e == 1:
        genera = [charts[key].genus for key in charts]
        h1 = sum(2 * g for g in genera) + fiber.gamma
        return InertiaQuotientData(
            e=1,
            component_orbits=[[key] for key in charts],
            quotient_genera=genera,
            gamma0=fiber.gamma,
            h1_dim=h1,
            epsilon=6 - h1,
        )

    perm1 = inertia_permutation(sr, 1)
    zbar = ring.U.to_gf(ring.zeta(e))
    cl_perm = _cluster_permutation(tree, perm1)

    perms = {0: tuple(range(4))}
    for j in range(1, e):
        perms[j] = tuple(perm1[perms[j - 1][i]] for i in range(4))

    def signature(key, j):
        """(lambda, gamma, nu) of tau^j on the chart, None for the identity."""
        chart = charts[key]
        lam = gf.pow(zbar, (j * chart.m) % e)
        nu = gf.pow(zbar, (j * (chart.n // 3)) % e)
        z = sr.roots[chart.center]
        image_center = perms[j % e][chart.center]
        gam = ring.residue(ring.div_pi(ring.sub(sr.roots[image_center], z), chart.m))
        sig = (lam, gam, nu)
        return None if sig == (gf.one, gf.zero, gf.one) else sig

    orbits, genera = quotient_genera(
        charts,
        cl_perm,
        e,
        lambda key: charts[key].genus,
        signature,
        lambda key, j, sig: _fix_count(gf, zbar, e, j, charts[key], sig),
        UnsupportedActionError,
    )

    # quotient dual graph: one vertex per component orbit; each orbit of
    # base nodes contributes 1 edge (branch node), else 3 or 1 depending on
    # whether the stabilizer rotates the three points above it
    def orbit_index(key):
        for i, orbit in enumerate(orbits):
            if key in orbit:
                return i
        raise KeyError(key)

    vertices = len(orbits)
    edges = 0
    counted = set()
    for node in tree.nodes:
        if node.is_root:
            continue
        key = tuple(sorted(node.indices))
        idx = orbit_index(key)
        if idx in counted:
            continue
        counted.add(idx)
        chart = charts[orbits[idx][0]]
        if chart.size % 3:
            edges += 1
        else:
            ell = len(orbits[idx])
            rotated = any(
                _mu(gf, zbar, e, j, chart, chart.size) != gf.one
                for j in range(ell, e, ell)
            )
            edges += 1 if rotated else 3
    gamma0 = edges - vertices + 1
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


@dataclass
class TameAnalysis:
    """Full tame pipeline output at one prime p != 3."""

    p: int
    e_splitting: int
    e_semistable: int
    tree: ClusterTree
    fiber: SpecialFiber
    quotient: InertiaQuotientData

    @property
    def epsilon(self):
        return self.quotient.epsilon

    @property
    def f_p(self):
        return self.quotient.epsilon


def analyze_tame(f_ints, p, ram):
    """Run cluster tree -> cover -> inertia quotient for a tame prime.

    ram is the Ramification record from splitting_ramification (must be
    tame).  When the cube twist is needed, the split roots are carried over
    to pi'^(3*e0) = p by extend_split rather than lifted again, so the
    cluster tree and the root order are those of ram.split.
    """
    e0 = ram.e
    tree = cluster_tree(ram.split)
    fiber = cover_fiber(tree)
    # the twist multiplies the index by 3 even when 3 | e0: with e = 3*e0
    # every n_Z = e*v_Z(f) = 3*(e0*v_Z) is a multiple of 3
    e = 3 * e0 if needs_cube_twist(tree, e0) else e0
    sr = ram.split if e == e0 else extend_split(ram.split)
    quotient = inertia_quotient(tree, fiber, sr, e)
    if quotient.epsilon % 2 or not (0 <= quotient.epsilon <= 6):
        raise UnsupportedActionError(f"epsilon = {quotient.epsilon} violates parity/range")
    if fiber.reduction_type in ("d", "e") and quotient.gamma0 not in (0, 2):
        raise UnsupportedActionError("gamma0 must be 0 or 2 for types d/e")
    return TameAnalysis(
        p=p,
        e_splitting=e0,
        e_semistable=e,
        tree=tree,
        fiber=fiber,
        quotient=quotient,
    )

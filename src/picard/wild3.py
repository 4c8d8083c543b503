"""Witness verification for p = 3: tame charts over L_m = Q_3^nr(pi), pi^m = -3.

A witness supplies, per expected component of the stable reduction, a chart
x = c + pi^a x1, y = pi^b (g(x1) + pi^d y1) with c and the coefficients of g
in Z[pi].  Substituting into y^3 - f(x) and dividing by the content pi^N0
must give an integral equation whose reduction is, on an etale component, a
degree-3 cover of the x1-line fixed by the translation action of the cyclic
deck group in characteristic 3.  Such a cover has an Artin-Schreier model
z^3 - z = h(x); the genus comes from the pole orders of h after the usual
AS reduction (jumps h_P prime to 3, 2g - 2 = -6 + sum 2(h_P + 1)), and the
action of Gamma = Gal(L_m/Q_3^nr) on each component is an affine map on x
together with z -> eps z + w, from which quotient genera follow by
Riemann-Hurwitz exactly as in the tame case (inertia.quotient_genera).
A point P of P^1 is a GF element or INF, with local parameter t_P = x - P,
or 1/x at INF, so the finite poles and infinity share one AS reduction, one
value and one fixed-point count.

What does not involve f is bound once per witness ring, shared by every
curve the witness is applied to: the ring itself, each chart's constants
(c, g, pi^(3b) g^3 and the rows of y1, y1^2, y1^3), the ring-level action of
the generator of each chart's stabilizer and the permutation of the chart
disks.  A curve pays for f(c + pi^a x1) and everything after it; the
actions of the stabilizer's powers are composed from the generator's in F_q.
A check that fails is never kept, so it fails again for the next curve.
"""

import json
from functools import lru_cache
from math import gcd, lcm

from .inertia import quotient_genera
from .localfield import (
    HARD_K_CAP,
    NeedsLargerK,
    TameExtension,
    TameRing,
    gadd,
    gcompose_linear,
    gdivmod,
    geval,
    ggcd,
    gmul,
    gtrim,
    multiplicative_order,
    residue_roots,
)
from .record import ComparedRecord, FrozenRecord

INF = "inf"
# Largest m*k a witness may ask for: a ring product costs (m*k)^2 int products,
# and the bundled witnesses have m*k = 16 (m = 8) and 8 (m = 4).
MAX_WITNESS_WIDTH = 128
# The witness ring is O_L/pi^(m*WITNESS_N): a pi-polynomial longer than m*WITNESS_N
# digits has terms that vanish there.
WITNESS_N = 20
# Longest y_poly a chart may have: the chart substitution costs about its
# length squared ring products, and the bundled charts have 1 or 2 terms.
MAX_WITNESS_Y_TERMS = 16


class WitnessInvalidError(ValueError):
    """A witness chart failed integrality, form, or certification checks."""


def _int(v):
    """v if it is a JSON integer; TypeError for a float, a bool, a string or anything else."""
    if type(v) is not int:  # bool is a subclass of int
        raise TypeError(f"expected an integer, got {v!r}")
    return v


class WitnessChart(FrozenRecord):
    """x = c + pi^a x1, y = pi^b (g(x1) + pi^d y1); pi-polynomials as int tuples.

    x_center is c, coefficients of powers of pi; y_poly is g, coefficients
    in x1, each a pi-polynomial tuple.
    """

    __slots__ = ("x_scale", "x_center", "y_scale", "y_poly", "y_codim")

    def __init__(self, x_scale: int, x_center: tuple, y_scale: int, y_poly: tuple, y_codim: int):
        self._set(x_scale, x_center, y_scale, y_poly, y_codim)


class WildWitness(FrozenRecord):
    """Charts over pi^m = -3, gcd(m, 3) = 1; curve is [a4..a0] of the model they target."""

    __slots__ = ("p", "m", "charts", "curve")

    def __init__(self, p: int, m: int, charts: tuple, curve: tuple | None = None):
        self._set(p, m, charts, curve)

    @classmethod
    def from_dict(cls, data):
        """The witness in parsed JSON; WitnessInvalidError for any other shape, a non-integer or a bad m."""
        try:
            p, m = _int(data.get("p", 3)), _int(data["m"])
            charts = tuple(
                WitnessChart(
                    x_scale=_int(ch["x_scale"]),
                    x_center=tuple(map(_int, ch["x_center"])),
                    y_scale=_int(ch["y_scale"]),
                    y_poly=tuple(tuple(map(_int, cf)) for cf in ch["y_poly"]),
                    y_codim=_int(ch["y_codim"]),
                )
                for ch in data["charts"]
            )
            curve = data.get("curve")
            if curve is not None:
                curve = tuple(map(_int, curve))
        except (AttributeError, KeyError, TypeError) as ex:
            raise WitnessInvalidError(f"malformed witness: {type(ex).__name__}: {ex}") from None
        if p != 3:
            raise WitnessInvalidError("witnesses are for p = 3")
        if any(min(ch.x_scale, ch.y_scale, ch.y_codim) < 0 for ch in charts):
            raise WitnessInvalidError("chart scales must be non-negative: the ring has no pi^-1")
        if m < 1 or gcd(m, 3) != 1:
            raise WitnessInvalidError("tame degree m must be a positive integer prime to 3")
        # the ring needs F_{3^k}, k the order of 3 mod m, and its elements are m*k ints
        k = next((k for k in range(1, HARD_K_CAP + 1) if pow(3, k, m) == 1 % m), None)
        if k is None:
            raise WitnessInvalidError(f"tame degree m = {m} needs a residue degree above {HARD_K_CAP}")
        if m * k > MAX_WITNESS_WIDTH:
            raise WitnessInvalidError(
                f"tame degree m = {m} needs ring elements of m*k = {m * k} > {MAX_WITNESS_WIDTH} entries"
            )
        for i, ch in enumerate(charts):
            if len(ch.y_poly) > MAX_WITNESS_Y_TERMS:
                raise WitnessInvalidError(
                    f"chart {i}: y_poly has {len(ch.y_poly)} > {MAX_WITNESS_Y_TERMS} terms"
                )
            if max(map(len, (ch.x_center, *ch.y_poly))) > m * WITNESS_N:
                raise WitnessInvalidError(
                    f"chart {i}: a pi-polynomial is longer than the ring's m*{WITNESS_N} = {m * WITNESS_N} digits"
                )
        return cls(p=3, m=m, charts=charts, curve=curve)

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self):
        out = {
            "p": self.p,
            "m": self.m,
            "charts": [
                {
                    "x_scale": ch.x_scale,
                    "x_center": list(ch.x_center),
                    "y_scale": ch.y_scale,
                    "y_poly": [list(cf) for cf in ch.y_poly],
                    "y_codim": ch.y_codim,
                }
                for ch in self.charts
            ],
        }
        if self.curve is not None:
            out["curve"] = list(self.curve)
        return out


# ---- rational functions over GF ------------------------------------------


def _rf(gf, num, den):
    num, den = gtrim(gf, list(num)), gtrim(gf, list(den))
    if not den:
        raise ZeroDivisionError
    if not num:
        return [], [gf.one]
    g = ggcd(gf, num, den)
    if len(g) > 1:
        num, _ = gdivmod(gf, num, g)
        den, _ = gdivmod(gf, den, g)
    lead = gf.inv(den[-1])
    num = [gf.mul(c, lead) for c in num]
    den = [gf.mul(c, lead) for c in den]
    return num, den


def _radd(gf, x, y):
    return _rf(gf, gadd(gf, gmul(gf, x[0], y[1]), gmul(gf, y[0], x[1])), gmul(gf, x[1], y[1]))


def _rscale(gf, c, x):
    """c*x for a nonzero constant c: x's denominator and canonical form stay."""
    return ([gf.mul(c, a) for a in x[0]], x[1])


def _rsub(gf, x, y):
    return _radd(gf, x, _rscale(gf, gf.neg(gf.one), y))


def _rmul(gf, x, y):
    return _rf(gf, gmul(gf, x[0], y[0]), gmul(gf, x[1], y[1]))


def _requal(gf, x, y):
    return gtrim(gf, gadd(gf, gmul(gf, x[0], y[1]), [gf.neg(c) for c in gmul(gf, y[0], x[1])])) == []


def _rcompose_affine(gf, x, lam, gam):
    return _rf(gf, gcompose_linear(gf, x[0], lam, gam), gcompose_linear(gf, x[1], lam, gam))


def _ord_at(gf, poly, xi):
    """Vanishing order at xi of the nonzero polynomial poly."""
    n, lin = 0, [gf.neg(xi), gf.one]
    while not (qr := gdivmod(gf, poly, lin))[1]:
        poly, n = qr[0], n + 1
    return n


# ---- points of P^1: a GF element or INF ------------------------------------


def _value(gf, x, P):
    """Value of the rational function x at the point P; None marks a pole."""
    num, den = x
    if P == INF:
        if len(num) != len(den):
            return None if len(num) > len(den) else gf.zero
        return gf.mul(num[-1], gf.inv(den[-1]))
    dv = geval(gf, den, P)
    if gf.is_zero(dv):
        return None
    return gf.mul(geval(gf, num, P), gf.inv(dv))


def _pole_order(gf, h, P):
    """Order of the pole of h at P, negative at a zero, 0 for h = 0."""
    num, den = h
    if not num:
        return 0
    if P == INF:
        return len(num) - len(den)
    return _ord_at(gf, den, P) - _ord_at(gf, num, P)


def _tpow(gf, P, n):
    """t_P^n, n of either sign, for the local parameter t_P = x - P, or 1/x at INF."""
    if P == INF:
        mono = [gf.zero] * abs(n) + [gf.one]
        return ([gf.one], mono) if n > 0 else (mono, [gf.one])
    mono = [gf.one]
    for _ in range(abs(n)):
        mono = gmul(gf, mono, [gf.neg(P), gf.one])
    return (mono, [gf.one]) if n >= 0 else ([gf.one], mono)


def _cube_root(gf, c):
    """Unique cube root in characteristic 3 (inverse Frobenius)."""
    out = c
    for _ in range(gf.k - 1):
        out = gf.mul(gf.mul(out, out), out)
    return out


# ---- Artin-Schreier covers -----------------------------------------------


class ASCover(ComparedRecord):
    """z^3 - z = h, irreducible, with AS-reduced data.

    h_red has poles exactly at the ramified points; shift is the rational
    u with z_red = z - u (so h_red = h - (u^3 - u)); ram maps each ramified
    point (a GF element or "inf") to its jump.
    """

    __slots__ = ("gf", "h", "h_red", "shift", "ram", "genus")

    def __init__(self, gf: object, h: tuple, h_red: tuple, shift: tuple, ram: dict, genus: int):
        self.gf = gf
        self.h = h
        self.h_red = h_red
        self.shift = shift
        self.ram = ram
        self.genus = genus


def as_cover(gf, h):
    """Analyze z^3 - z = h over F_{3^k}(x); raises on reducible covers.

    Needs the poles of h rational over the field; raises NeedsLargerK with
    the required absolute degree otherwise.
    """
    num, den = h
    pole_candidates = []
    if len(den) > 1:
        roots, missing = residue_roots(gf, den)
        if missing:
            raise NeedsLargerK(gf.k * missing)
        if sum(m for _, m in roots) < len(den) - 1:
            raise NeedsLargerK(gf.k * 2)
        pole_candidates = [r for r, _ in roots]
    h_red = h
    shift = ([], [gf.one])
    ram = {}
    for P in pole_candidates + [INF]:
        # a pole c t_P^-n with 3 | n goes with u = c^(1/3) t_P^(-n/3): h - (u^3 - u)
        # has a pole of lower order at P and no new pole elsewhere
        while (n := _pole_order(gf, h_red, P)) > 0 and n % 3 == 0:
            c = _value(gf, _rmul(gf, h_red, _tpow(gf, P, n)), P)
            if c is None or gf.is_zero(c):
                raise WitnessInvalidError("inconsistent pole order in AS reduction")
            u = _rscale(gf, _cube_root(gf, c), _tpow(gf, P, -n // 3))
            h_red = _rsub(gf, h_red, _rsub(gf, _rcube(gf, u), u))
            shift = _radd(gf, shift, u)
        if n > 0:
            ram[P] = n
    if not ram:
        raise WitnessInvalidError("cover z^3 - z = h is everywhere unramified, hence split")
    for jump in ram.values():
        if jump % 3 == 0:
            raise WitnessInvalidError("AS reduction left a jump divisible by 3")
    genus = -2 + sum(jump + 1 for jump in ram.values())
    if genus < 0:
        raise WitnessInvalidError("negative AS genus")
    return ASCover(gf=gf, h=h, h_red=h_red, shift=shift, ram=ram, genus=genus)


def _rcube(gf, x):
    return _rmul(gf, x, _rmul(gf, x, x))


def _poly_sqrt(gf, B):
    """Square root of a polynomial over F_{3^k}, or None."""
    if not B:
        return []
    d = len(B) - 1
    if d % 2:
        return None
    half = d // 2
    lead = _field_sqrt(gf, B[-1])
    if lead is None:
        return None
    t = [gf.zero] * (half + 1)
    t[half] = lead
    inv2lead = gf.inv(gf.add(lead, lead))
    for i in range(half - 1, -1, -1):
        acc = gf.zero
        for j in range(i + 1, half + 1):
            kk = half + i - j
            if i < kk <= half:
                acc = gf.add(acc, gf.mul(t[j], t[kk]))
        target = B[half + i] if half + i < len(B) else gf.zero
        t[i] = gf.mul(gf.sub(target, acc), inv2lead)
    if gtrim(gf, gadd(gf, gmul(gf, t, t), [gf.neg(c) for c in B])) != []:
        return None
    return gtrim(gf, t)


def _field_sqrt(gf, c):
    """Deterministic square root in F_{3^k} by ascending scan (tiny fields)."""
    for s in gf.elements():
        if gf.mul(s, s) == c:
            return s
    return None


# ---- chart substitution and reduction --------------------------------------


def _pi_poly_elt(ring, tup):
    acc = ring.zero
    for i, coef in enumerate(tup):
        if coef:
            acc = ring.add(acc, ring.mul(ring.from_int(coef), ring.pi_power(i)))
    return acc


def _ringpoly_scale(ring, a, c):
    return [ring.mul(x, c) for x in a]


@lru_cache(maxsize=8)
def _witness_ring(m, k):
    """O_L/pi^(m*WITNESS_N), L = Q_{3^k}^nr(pi), pi^m = -3, shared by every witness with this (m, k).

    Sharing it builds its zeta_powers, which galois_map reads, once.
    """
    return TameRing(TameExtension(3, m, c=-1), k, WITNESS_N)


@lru_cache(maxsize=64)
def _chart_constants(ring, chart):
    """(c, g, rows): the chart's data on the ring that do not involve f.

    rows are the coefficients of y^3 = pi^(3b) (g + pi^d y1)^3 in y1^0 .. y1^3,
    each a polynomial in x1 over the ring.
    """
    center = _pi_poly_elt(ring, chart.x_center)
    G = [_pi_poly_elt(ring, tup) for tup in chart.y_poly]
    pb3 = ring.pi_power(3 * chart.y_scale)
    pd = ring.pi_power(chart.y_codim)
    pd2 = ring.mul(pd, pd)
    pd3 = ring.mul(pd2, pd)
    three = ring.from_int(3)
    G2 = gmul(ring, G, G)
    G3 = gmul(ring, G2, G)
    rows = (
        _ringpoly_scale(ring, G3, pb3),
        _ringpoly_scale(ring, G2, ring.mul(pb3, ring.mul(three, pd))),
        _ringpoly_scale(ring, G, ring.mul(pb3, ring.mul(three, pd2))),
        [ring.mul(pb3, pd3)],
    )
    return center, G, rows


def _chart_reduction(ring, f_ints, chart):
    """Substitute the chart into y^3 - f(x); return (rows, N0).

    rows[j] is the coefficient of y1^j as a polynomial in x1 over the ring,
    after dividing out the content pi^N0.
    """
    center, _, (y0, *upper) = _chart_constants(ring, chart)
    f = [ring.from_int(coef) for coef in f_ints]
    fX = gcompose_linear(ring, f, ring.pi_power(chart.x_scale), center)
    rows = [gadd(ring, y0, [ring.neg(c) for c in fX]), *upper]
    n0 = min(ring.val(c) for row in rows for c in row)
    if n0 >= ring.cap:
        raise WitnessInvalidError("chart substitution vanishes at working precision")
    rows = [[ring.div_pi(c, n0) for c in row] for row in rows]
    return rows, n0


class ChartComponent(ComparedRecord):
    """Analysis of one chart: the component it certifies."""

    __slots__ = ("index", "inseparable", "genus", "cover", "tbar", "chart")

    def __init__(self, index: int, inseparable: bool, genus: int, cover: ASCover | None = None,
                 tbar: list | None = None, chart: WitnessChart | None = None):
        self.index = index
        self.inseparable = inseparable
        self.genus = genus
        self.cover = cover
        self.tbar = tbar
        self.chart = chart


def _analyze_chart(ring, f_ints, idx, chart):
    gf = ring.gf
    rows, _ = _chart_reduction(ring, f_ints, chart)
    rbar = [gtrim(gf, [ring.residue(c) for c in row]) for row in rows]
    if not rbar[3] or len(rbar[3]) != 1:
        raise WitnessInvalidError(
            f"chart {idx}: y1^3 coefficient does not reduce to a nonzero constant"
        )
    lead_inv = gf.inv(rbar[3][0])
    rbar = [[gf.mul(c, lead_inv) for c in r] for r in rbar]
    a2, a1, a0 = rbar[2], rbar[1], rbar[0]
    if not a2 and not a1:
        # y1^3 = -A0: purely inseparable component, provided the right side
        # is not itself a cube (else the reduction is a triple line)
        if not a0 or all(gf.is_zero(c) or i % 3 == 0 for i, c in enumerate(a0)):
            raise WitnessInvalidError(
                f"chart {idx}: reduction y1^3 = cube is not a reduced curve"
            )
        return ChartComponent(index=idx, inseparable=True, genus=0, chart=chart)
    if a2:
        raise WitnessInvalidError(
            f"chart {idx}: reduction is not invariant under the deck translation"
        )
    tbar = _poly_sqrt(gf, [gf.neg(c) for c in a1])
    if tbar is None or not tbar:
        raise WitnessInvalidError(
            f"chart {idx}: y1 coefficient is not minus a square; no AS form"
        )
    t3 = gmul(gf, tbar, gmul(gf, tbar, tbar))
    h = _rf(gf, [gf.neg(c) for c in a0], t3)
    cover = as_cover(gf, h)
    return ChartComponent(
        index=idx, inseparable=False, genus=cover.genus, cover=cover, tbar=tbar, chart=chart
    )


# ---- the Galois action on chart components ---------------------------------


@lru_cache(maxsize=64)
def _chart_action(ring, ch, j):
    """(lambda, gamma, F): x-affine map and the y1 correction of tau^j.

    Valid only when tau^j stabilizes the chart's disk.  The point map is
    x1 -> lambda*x1 + gamma, y1 -> zeta^(j(b+d)) y1 + F(x1-image).  It
    involves only the chart, so it is kept once it has passed its check.
    """
    a, b, d = ch.x_scale, ch.y_scale, ch.y_codim
    m = ring.e
    gf = ring.gf
    zp = ring.zeta_powers
    center, G, _ = _chart_constants(ring, ch)
    tau_c = ring.galois_map(center, j)
    gam_elt = ring.div_pi(ring.sub(tau_c, center), a)
    gam = ring.residue(gam_elt)
    lam = ring.residue(zp[j * a % m])
    Gtau = [ring.galois_map(cf, j) for cf in G]
    zinv = ring.from_unram(zp[-j * a % m])
    inner_gam = ring.mul(zinv, ring.sub(ring.zero, gam_elt))
    composed = gcompose_linear(ring, Gtau, zinv, inner_gam)
    zb = ring.from_unram(zp[j * b % m])
    H = gadd(
        ring,
        _ringpoly_scale(ring, composed, zb),
        _ringpoly_scale(ring, G, ring.from_int(-1)),
    )
    for c in H:
        if ring.val(c) < d:
            raise WitnessInvalidError("chart is not equivariant under its stabilizer")
    F = gtrim(gf, [ring.residue(ring.div_pi(c, d)) for c in H])
    return lam, gam, F


def _as_automorphism(ring, comp, j):
    """(lam, gam, eps, w_red): the induced automorphism in AS coordinates."""
    gf = ring.gf
    m = ring.e
    ch = comp.chart
    lam, gam, F = _chart_action(ring, ch, j)
    zbd = ring.residue(ring.zeta_powers[j * (ch.y_scale + ch.y_codim) % m])
    tbar = comp.tbar
    tA = gcompose_linear(gf, tbar, lam, gam)
    if len(tA) != len(tbar):
        raise WitnessInvalidError("translation function not projectively invariant")
    kappa = gf.mul(tA[-1], gf.inv(tbar[-1]))
    if gtrim(gf, gadd(gf, tA, [gf.neg(gf.mul(kappa, c)) for c in tbar])) != []:
        raise WitnessInvalidError("translation function not scaled by the action")
    eps = gf.mul(zbd, gf.inv(kappa))
    if eps != gf.one and eps != gf.neg(gf.one):
        raise WitnessInvalidError("deck conjugation is not +/-1 on the AS generator")
    w = _rf(gf, gcompose_linear(gf, F, lam, gam), tA)
    cover = comp.cover
    shift_a = _rcompose_affine(gf, cover.shift, lam, gam)
    w_red = _rsub(gf, _radd(gf, _rscale(gf, eps, cover.shift), w), shift_a)
    # consistency: eps*h_red + (w_red^3 - w_red) must equal h_red(A(x))
    lhs = _radd(
        gf,
        _rscale(gf, eps, cover.h_red),
        _rsub(gf, _rcube(gf, w_red), w_red),
    )
    rhs = _rcompose_affine(gf, cover.h_red, lam, gam)
    if not _requal(gf, lhs, rhs):
        raise WitnessInvalidError("chart action does not preserve the AS equation")
    return lam, gam, eps, w_red


def _stabilizer_actions(ring, comp, ell):
    """{j: (lam, gam, eps, w_red)} for every j = t*ell < e, from one chart action.

    tau^ell generates the stabilizer of a chart in an orbit of length ell;
    _as_automorphism builds and checks its action (x, z) -> (lam x + gam,
    eps z + w(x)).  Its powers compose in F_q: after (lam_t, gam_t, eps_t,
    w_t) comes (lam lam_t, lam gam_t + gam, eps eps_t, eps w_t + w(lam_t x +
    gam_t)), and _rf keeps each w canonical, equal to what _as_automorphism
    returns for that power.
    """
    gf = ring.gf
    lam, gam, eps, w = act = _as_automorphism(ring, comp, ell)
    out = {ell: act}
    for j in range(2 * ell, ring.e, ell):
        lam_t, gam_t, eps_t, w_t = act
        act = (
            gf.mul(lam, lam_t),
            gf.add(gf.mul(lam, gam_t), gam),
            gf.mul(eps, eps_t),
            _radd(gf, _rscale(gf, eps, w_t), _rcompose_affine(gf, w, lam_t, gam_t)),
        )
        out[j] = act
    return out


def _as_fix_count(gf, cover, lam, gam, eps, w_red):
    """Fixed points on the smooth model; None marks the identity."""
    vertical = lam == gf.one and gf.is_zero(gam)
    if vertical:
        if eps != gf.one:
            raise WitnessInvalidError("orientation-reversing vertical action on AS cover")
        if not w_red[0]:
            return None  # identity
        wconst = _value(gf, w_red, gf.zero) if len(w_red[0]) <= 1 and len(w_red[1]) == 1 else None
        if wconst is None or gf.mul(gf.mul(wconst, wconst), wconst) != wconst:
            raise WitnessInvalidError("vertical AS action with non-F3 translation")
        return len(cover.ram)
    # the fixed points of x -> lam x + gam: x* = gam / (1 - lam) when lam != 1, and INF
    points = [gf.mul(gam, gf.inv(gf.sub(gf.one, lam)))] if lam != gf.one else []
    fix = 0
    for P in points + [INF]:
        if P in cover.ram:
            fix += 1
            continue
        val = _value(gf, w_red, P)
        if val is None:
            raise WitnessInvalidError(
                "AS action singular above infinity" if P == INF else "AS action singular at a fixed point"
            )
        # eps = 1: P's fibre is fixed pointwise when w(P) = 0, else permuted freely;
        # eps = -1: z -> w(P) - z fixes exactly one of the three points
        fix += (3 if gf.is_zero(val) else 0) if eps == gf.one else 1
    return fix


@lru_cache(maxsize=64)
def _chart_permutation(ring, charts, j):
    """The permutation of the chart disks by tau^j, kept once it is found."""
    centers = [_chart_constants(ring, ch)[0] for ch in charts]
    perm = []
    for ch, center in zip(charts, centers):
        image_c = ring.galois_map(center, j)
        target = None
        for t, (other, other_c) in enumerate(zip(charts, centers)):
            if other.x_scale != ch.x_scale:
                continue
            if ring.val(ring.sub(image_c, other_c)) >= ch.x_scale:
                if target is not None:
                    raise WitnessInvalidError("chart disks overlap")
                target = t
        if target is None:
            raise WitnessInvalidError(
                "the Galois action moves a chart disk outside the witness"
            )
        perm.append(target)
    if sorted(perm) != list(range(len(charts))):
        raise WitnessInvalidError("Galois action does not permute the chart disks")
    return tuple(perm)


P3_TAXONOMY = {
    (3,): "a",
    (1, 2): "b",
    (1, 1, 1): "c",
    (0, 1): "d",
    (0, 0, 1): "e",
}

# number of loops of the component graph per reduction type at p = 3
P3_GAMMA = {"a": 0, "b": 0, "c": 0, "d": 2, "e": 2}


class WitnessVerification(ComparedRecord):
    """Certified stable-reduction data extracted from a valid witness.

    f3 is None when only bounded (types d, e); f3_range is always set, to
    (f3, f3) when computed.
    """

    __slots__ = (
        "m", "reduction_type", "etale_genera", "inseparable_count",
        "quotient_genera", "gamma0", "f3", "f3_range", "components",
    )

    def __init__(self, m: int, reduction_type: str, etale_genera: list, inseparable_count: int,
                 quotient_genera: list | None, gamma0: int | None, f3: int | None, f3_range: tuple,
                 components: list | None = None):
        self.m = m
        self.reduction_type = reduction_type
        self.etale_genera = etale_genera
        self.inseparable_count = inseparable_count
        self.quotient_genera = quotient_genera
        self.gamma0 = gamma0
        self.f3 = f3
        self.f3_range = f3_range
        self.components = [] if components is None else components


def verify_witness(f_ints, witness: WildWitness):
    """Verify all charts of a p = 3 witness against y^3 = f(x) and quotient.

    Returns a WitnessVerification with f3 computed for types (a), (b), (c)
    (where gamma0 = 0 regardless of the action) and bounded to [5, 6] for
    types (d), (e).  Raises WitnessInvalidError with a per-chart diagnosis
    when a chart fails integrality, reduction form, or certification.
    """
    m = witness.m
    k = multiplicative_order(3, m)
    while True:
        ring = _witness_ring(m, k)
        try:
            return _verify_with_ring(ring, f_ints, witness)
        except NeedsLargerK as ex:
            newk = lcm(ex.k, k)
            if newk > HARD_K_CAP:
                raise WitnessInvalidError("witness needs an oversized residue field")
            k = newk


def _verify_with_ring(ring, f_ints, witness):
    m = witness.m
    comps = [_analyze_chart(ring, f_ints, i, ch) for i, ch in enumerate(witness.charts)]
    etale = sorted(c.genus for c in comps if not c.inseparable)
    insep = sum(1 for c in comps if c.inseparable)
    rtype = P3_TAXONOMY.get(tuple(etale))
    if rtype is None:
        raise WitnessInvalidError(
            f"etale component genera {etale} match no reduction type"
        )
    if rtype == "c":
        if insep > 1:
            raise WitnessInvalidError("type (c) has a single inseparable component")
    elif insep:
        raise WitnessInvalidError(f"type ({rtype}) has no inseparable component")
    gamma = P3_GAMMA[rtype]
    if sum(etale) + gamma != 3:
        raise WitnessInvalidError("component genera do not certify arithmetic genus 3")

    if rtype in ("d", "e"):
        # epsilon is 5 or 6 here; pinning it needs the node action, which
        # chart data does not locate
        return WitnessVerification(
            m=m,
            reduction_type=rtype,
            etale_genera=etale,
            inseparable_count=insep,
            quotient_genera=None,
            gamma0=None,
            f3=None,
            f3_range=(5, 6),
            components=comps,
        )

    perm1 = _chart_permutation(ring, witness.charts, 1)
    gf = ring.gf
    actions = {}  # chart index -> its _stabilizer_actions, built on first use

    def signature(i, j):
        """The AS automorphism of tau^j with its fixed-point count, None for the identity."""
        comp = comps[i]
        if i not in actions:
            ell, cur = 1, perm1[i]
            while cur != i:
                ell, cur = ell + 1, perm1[cur]
            actions[i] = _stabilizer_actions(ring, comp, ell)
        lam, gam, eps, w_red = actions[i][j]
        fix = _as_fix_count(gf, comp.cover, lam, gam, eps, w_red)
        if fix is None:
            return None
        return (lam, gam, eps, tuple(map(tuple, w_red[0])), tuple(map(tuple, w_red[1]))), fix

    _, genera = quotient_genera(
        [i for i, c in enumerate(comps) if not c.inseparable],
        perm1,
        m,
        lambda i: comps[i].genus,
        signature,
        lambda i, j, sig: sig[1],
        WitnessInvalidError,
    )

    # the component trees of types (a), (b), (c) are stars: gamma0 = 0
    gamma0 = 0
    f3 = 6 - (2 * sum(genera) + gamma0)
    allowed = {"a": (6,), "b": (4, 6), "c": (4, 6)}[rtype]
    if f3 not in allowed:
        raise WitnessInvalidError(
            f"computed f3 = {f3} outside the admissible set for type ({rtype})"
        )
    return WitnessVerification(
        m=m,
        reduction_type=rtype,
        etale_genera=etale,
        inseparable_count=insep,
        quotient_genera=genera,
        gamma0=gamma0,
        f3=f3,
        f3_range=(f3, f3),
        components=comps,
    )

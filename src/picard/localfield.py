"""Arithmetic over tame extensions of Q_p^nr and p-adic root lifting.

The computational model: the maximal unramified extension is truncated to
Q_{p^k}^nr realized as Z[t]/(h(t), p^N) with h the deterministic minimal
irreducible of degree k mod p, and a tame totally ramified extension of
index e (gcd(e, p) = 1) is adjoined as pi with pi^e = c*p for a fixed unit
c in {1, -1}.  All arithmetic is exact modulo p^N; root certification uses
Newton/Krasner ball bounds against the original integer polynomial, so
intermediate digit erosion can never produce a falsely certified root.

Nor can it produce a false NeedsLargerE.  Root lifting carries the absolute
precision it knows (cap minus the pi-digits divided out) down its
recursion, and a fractional Newton slope is trusted only when every
invisible coefficient lies on or above its segment; otherwise the lift
stalls and lift_over_ring doubles N.  So the outcome of a lift, a split
over the same e or NeedsLargerE, does not depend on the N it starts from,
and split_over_minimal_tame starts each prime at N = min(20, ord_p(disc f) + 1).

One class, TameRing, holds the element format and its kernels.  At e = 1
it is the unramified ring O/p^N of Q_{p^k}^nr, and GF(p, k), the residue
field F_{p^k}, is that ring at N = 1: only its inverse (Euclid) and element
enumeration are its own.  Residue fields never need k > 12 here: every
root of a quartic over Q_p^nr lives in residue degree <= 4 and the roots
of unity zeta_e for e <= 4 live in degree <= 2.

Costs are kept to one pass of each kind of work:

- Inverses in F_{p^k} come from pow(a, -1, p) when k = 1 and from the
  extended Euclidean algorithm in F_p[t] modulo h when k > 1, never from
  a^(p^k - 2).
- Polynomial division over F_{p^k} inverts the divisor's leading
  coefficient only when it is not 1; gpowmod makes its modulus monic once.
- TameRing.zeta(order) is lifted over the e = 1 ring once per (p, k, N,
  order) and kept in a small bounded cache, so the rings lift_over_ring
  builds for each try of e, k and N share it.  Its residue root is the
  least root of the cyclotomic polynomial Phi_order.  For orders 2, 3, 4
  and 6, Phi_order is linear or quadratic, and when its roots lie in F_p
  or k = 2 the residue factorization below gives them in closed form;
  otherwise the root is the least primitive power of a^((q-1)/order),
  which beats splitting Phi_order over F_{p^k} at large p.  Its Newton
  steps evaluate x^order - 1 by ring.pow.  The
  Galois action tau: pi -> zeta_e pi reads zeta_e^i from a table of e
  powers each ring builds once.  Those rings also share GF(p, k) and the
  e = 1 ring U from small bounded caches.
- The tries of e are the e <= 4 prime to p (tame inertia is cyclic and
  acts faithfully on the four roots), and of those only the multiples of
  what the splitting index is known to contain: 2 when ord_p(disc f) is
  odd, and the denominator of each fractional Newton slope an earlier try
  certified.  No try that must end in NeedsLargerE is made.
- A single twin is not lifted: at p >= 5, a monic f with f mod p =
  (x - a)^2 h, h squarefree and h(a) != 0 (every prime with
  ord_p(disc f) = 1 among them), is factored f = G H over Z/p^(N+v) by
  Newton on G, and the four roots are (-B +- pi^(e v/2) sqrt(u)) / 2 for
  G = x^2 + Bx + C, B^2 - 4C = p^v u, and the quadratic formula for H,
  in the ring and the order the lift would give.  p = 2 and 3, a non-monic
  f, two double roots, a squared irreducible quadratic, a root of
  multiplicity 3 or 4, and a closed form that fails certification keep
  the recursive lift below.
- Each prime's tries of e share one residue degree k, the lcm of the
  degrees of the factors of f mod p, so no try climbs to it through
  NeedsLargerK at depth 0.
- Elements are flat tuples of e*k canonical ints mod p^N, so add, sub, val
  and is_zero are one pass over a tuple.  mul is straight-line code, one
  kernel generated and compiled per shape (e, k) on first use (see
  TameRing.mul for the one at (2, 1)): it unpacks both factors, sums each
  unreduced pi^s t^d cell, folds pi^e -> c*p, reduces t^(k+i) by the rows
  of h and takes one % p^N per entry.  cp = c*p, m = p^N and the rows
  change with the prime, so they are closure constants bound once per
  ring, and kernels are keyed by (e, k) alone.  A kernel makes (e*k)^2
  products: e <= 4 and k <= 12 on the tame path, e*k <= MAX_WITNESS_WIDTH
  (wild3) in a p = 3 witness ring.
- One Newton routine, _newton_lift, lifts the simple residue roots of f.
  It carries w ~ 1/f'(z) along with z (coupled Newton), so a lift pays
  for one inverse in F_{p^k} and none in the ring; no ring inverts its
  elements.  zeta_e needs no w: z/e stands in for 1/f'(z).
- Residue polynomials with every coefficient in F_p (nearly all of them)
  have one factorization over F_p, on int lists and memoized per (p, f),
  and everything else is read off it.  Gcds with the derivative split f
  into squarefree parts, with a p-th root step for a part of zero
  derivative (a quartic has one only at p = 2, 3).  A quadratic part
  splits by a Legendre symbol and a Tonelli-Shanks root on builtin pow;
  a part of degree >= 3 takes distinct-degree factorization (the
  Frobenius powers x^(p^D) mod the part), which stops at the product of
  its factors of each degree D.  The roots in F_{p^k}, memoized per
  (p, k, f), come from the products with D | k: a linear factor gives its
  root directly, an irreducible quadratic at k = 2, p odd, the quadratic
  formula with a Tonelli-Shanks root in F_p, and every other product the
  one Cantor-Zassenhaus splitter over F_{p^k} (absolute-trace splits at
  p = 2), its seeded generator built only where a split draws.  The
  residue degree of a prime is the lcm of the D, and a candidate for h is
  irreducible when it is its own only product.  Polys with a coefficient
  outside F_p take the tuple route over F_{p^k}.
"""

from functools import cached_property, lru_cache
from fractions import Fraction
from math import gcd, lcm
import random

from .exact import disc_quartic_monic
from .record import FrozenRecord

DEFAULT_PI_DIGITS = 20  # per unit of e; ring precision N in p-digits
HARD_K_CAP = 24
MAX_PI_DIGITS = 640  # precision ceiling of root lifting, in pi-digits


class NeedsLargerE(Exception):
    """Root valuations need ramification index multiplied by .factor."""

    def __init__(self, factor):
        self.factor = factor


class NeedsLargerK(Exception):
    """Residue arithmetic needs absolute degree .k over F_p."""

    def __init__(self, k):
        self.k = k


class PrecisionStallError(RuntimeError):
    """Roots could not be separated/certified below the precision ceiling."""


# ---------------------------------------------------------------------------
# polynomials over F_p and F_{p^k}
# ---------------------------------------------------------------------------


# polynomials over F_p: int lists, index = degree, trimmed, entries in [0, p)


def _fp_trim(u, p):
    """Drop zero leading coefficients of an F_p polynomial, in place."""
    while u and u[-1] % p == 0:
        u.pop()
    return u


def _fp_sub(a, b, p):
    n = max(len(a), len(b))
    a = a + [0] * (n - len(a))
    b = b + [0] * (n - len(b))
    return _fp_trim([(x - y) % p for x, y in zip(a, b)], p)


def _fp_divmod(a, b, p):
    """Quotient and remainder of F_p polynomials, b trimmed and nonzero."""
    a = a[:]
    inv = pow(b[-1], -1, p)
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        c = a[-1] * inv % p
        off = len(a) - len(b)
        q[off] = c
        for i, x in enumerate(b):
            a[off + i] = (a[off + i] - c * x) % p
        _fp_trim(a, p)
    return q, a


def _fp_mulmod(a, b, m, p):
    """a * b modulo the monic m of degree >= 1."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    n = len(m) - 1
    for i in range(len(out) - 1, n - 1, -1):
        c = out[i] % p
        if c:
            off = i - n
            for j in range(n):
                out[off + j] -= c * m[j]
    return _fp_trim([c % p for c in out[:n]], p)


def _fp_powmod(a, n, m, p):
    """a^n modulo the monic m of degree >= 1."""
    result = [1]
    acc = _fp_divmod(a, m, p)[1]
    while n:
        if n & 1:
            result = _fp_mulmod(result, acc, m, p)
        n >>= 1
        if n:
            acc = _fp_mulmod(acc, acc, m, p)
    return result


def _fp_gcd(a, b, p):
    """Monic gcd of F_p polynomials ([] when both are zero)."""
    a, b = _fp_trim(a[:], p), _fp_trim(b[:], p)
    while b:
        a, b = b, _fp_divmod(a, b, p)[1]
    if not a:
        return a
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _prime_divisors(n):
    return [d for d in range(2, n + 1) if n % d == 0 and all(d % i for i in range(2, d))]


def _fp_sqrt(a, p):
    """A square root of a in F_p, p odd, by Tonelli-Shanks.

    Raises ValueError when a is not a square.
    """
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        raise ValueError(f"{a} is not a square mod {p}")
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    if s == 1:
        return pow(a, (p + 1) // 4, p)
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _fp2_sqrt(x, p, h):
    """A square root in F_p[t]/(h) = F_{p^2}, p odd, of the non-square x of F_p, as a pair.

    With h = t^2 + h1 t + h0, (2t + h1)^2 = h1^2 - 4 h0 is a non-square of
    F_p, as x is, so (2t + h1) s is a root for s^2 = x / (h1^2 - 4 h0).
    """
    h0, h1 = h[0], h[1]
    s = _fp_sqrt(x * pow(h1 * h1 - 4 * h0, -1, p), p)
    return h1 * s % p, 2 * s % p


def _fp_squarefree(f, p):
    """The squarefree parts of the monic f over F_p: pairs (g, m) with f the product of the g^m.

    The g are monic, squarefree and pairwise coprime.  Gcds with the derivative
    split off the parts of multiplicity prime to p; what is left has zero
    derivative, so it is c(x^p) = c(x)^p, as Frobenius fixes F_p, and its
    p-th root c (the coefficients at multiples of p) is split the same way.
    """
    out, scale = [], 1
    while len(f) > 1:
        df = _fp_trim([i * a % p for i, a in enumerate(f)][1:], p)
        if df:
            c = _fp_gcd(f, df, p)
            w, i = _fp_divmod(f, c, p)[0], 1
            while len(w) > 1:  # w: the product of the parts of multiplicity >= i, prime to p
                y = _fp_gcd(w, c, p)
                g = _fp_divmod(w, y, p)[0]
                if len(g) > 1:
                    out.append((g, i * scale))
                c, w, i = _fp_divmod(c, y, p)[0], y, i + 1
            f = c
        f, scale = f[::p], scale * p
    return out


def _fp_quadratic_roots(g, p):
    """The roots in F_p of the squarefree monic quadratic g, none when it is irreducible."""
    c, b = g[0], g[1]
    if p == 2:  # b = 1, or g would be a square: x^2 + x + c
        return [0, 1] if c == 0 else []
    try:
        s = _fp_sqrt(b * b - 4 * c, p)
    except ValueError:
        return []
    half = (p + 1) // 2
    return [(s - b) * half % p, (-s - b) * half % p]


@lru_cache(maxsize=256)
def _fp_factor(p, f):
    """Distinct-degree factorization of the monic int tuple f over F_p.

    Returns a sorted tuple of (g, D, m): the int tuple g is the product of
    the monic irreducible factors of degree D that divide f exactly m times.
    f is split into squarefree parts first.  A part of degree 1 is
    irreducible, and one of degree 2 splits into linear factors exactly when
    it has a root in F_p.  Only a part of degree >= 3 takes distinct-degree
    factorization: g = gcd(x^(p^D) - x, rem) for D = 1, 2, ... is the
    product of the degree-D factors of rem, and once deg rem < 2(D + 1), rem
    is 1 or irreducible.  Memoized per (p, f): _residue_roots_fp asks for
    the same f at every k.
    """
    out = []
    x = [0, 1]
    for rem, m in _fp_squarefree(list(f), p):
        if len(rem) == 3:
            roots = _fp_quadratic_roots(rem, p)
            out += [((-r % p, 1), 1, m) for r in roots] if roots else [(tuple(rem), 2, m)]
            continue
        xpd, D = x, 0
        while len(rem) - 1 >= 2 * (D + 1):
            D += 1
            xpd = _fp_powmod(xpd, p, rem, p)
            g = _fp_gcd(_fp_sub(xpd, x, p), rem, p)
            if len(g) > 1:
                out.append((tuple(g), D, m))
                rem = _fp_divmod(rem, g, p)[0]
                xpd = _fp_divmod(xpd, rem, p)[1]
        if len(rem) > 1:
            out.append((tuple(rem), len(rem) - 1, m))
    return tuple(sorted(out))


def minimal_irreducible(p, k):
    """Lexicographically smallest monic irreducible of degree k over F_p."""
    return (0, 1) if k == 1 else _minimal_irreducible(p, k)


# Only k > 1 reaches it, one entry per (p, k): 1024 holds the 682 keys of
# the benchmark's 1200-curve analyze pool, and a long run stays flat.
@lru_cache(maxsize=1024)
def _minimal_irreducible(p, k):
    # the first p candidates are the binomials x^k + c, which by Serret's theorem
    # are all reducible unless every prime r | k divides p - 1, and 4 | p - 1 if 4 | k
    serret = all((p - 1) % r == 0 for r in _prime_divisors(k))
    start = 0 if serret and (k % 4 or (p - 1) % 4 == 0) else p
    # each candidate is tested once, so its factorization is not memoized
    for low in _fp_tuples(p, k, start):
        m = low + (1,)
        if low[0] and _fp_factor.__wrapped__(p, m) == ((m, k, 1),):
            return m
    raise RuntimeError("no irreducible found")  # unreachable


def _fp_tuples(p, k, start=0):
    """The k-tuples over F_p in constant-first lexicographic order, from the start-th on."""
    for code in range(start, p**k):
        yield tuple(code // p**i % p for i in range(k))


# polynomials over GF or a TameRing: lists of elements, index = degree


def gtrim(F, u):
    while u and F.is_zero(u[-1]):
        u.pop()
    return u


def gadd(F, a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else F.zero
        y = b[i] if i < len(b) else F.zero
        out.append(F.add(x, y))
    return gtrim(F, out)


def gmul(F, a, b):
    """a * b, skipping the zero coefficients of both."""
    if not a or not b:
        return []
    is_zero = F.is_zero
    bs = [(j, y) for j, y in enumerate(b) if not is_zero(y)]
    out = [F.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not is_zero(x):
            for j, y in bs:
                out[i + j] = F.add(out[i + j], F.mul(x, y))
    return gtrim(F, out)


def gcompose_linear(F, poly, lam, gam):
    """poly(lam*x + gam), trimmed, by Horner: acc <- acc*(lam*x + gam) + c.

    Skips the products by lam when lam is one and those by gam when gam is zero.
    """
    scale, shift = lam != F.one, not F.is_zero(gam)
    acc = []
    for c in reversed(poly):
        new = [F.zero] + ([F.mul(a, lam) for a in acc] if scale else acc)
        if shift:
            for i, a in enumerate(acc):
                new[i] = F.add(new[i], F.mul(a, gam))
        new[0] = F.add(new[0], c)
        acc = gtrim(F, new)
    return acc


def gdivmod(F, a, b):
    if not b:
        raise ZeroDivisionError
    a = a[:]
    inv = None if b[-1] == F.one else F.inv(b[-1])
    q = [F.zero] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        c = a[-1] if inv is None else F.mul(a[-1], inv)
        off = len(a) - len(b)
        q[off] = c
        for i in range(len(b)):
            a[off + i] = F.sub(a[off + i], F.mul(c, b[i]))
        a = gtrim(F, a)
        if not a:
            break
    return gtrim(F, q), a


def ggcd(F, a, b):
    a, b = a[:], b[:]
    while b:
        _, r = gdivmod(F, a, b)
        a, b = b, r
    return gmonic(F, a) if a else a


def gmonic(F, a):
    """a scaled to leading coefficient one (a nonzero)."""
    if a[-1] == F.one:
        return a[:]
    inv = F.inv(a[-1])
    return [F.mul(c, inv) for c in a]


def gpowmod(F, base, n, mod):
    mod = gmonic(F, mod)
    result = [F.one]
    _, acc = gdivmod(F, base, mod)
    while n:
        if n & 1:
            result = gdivmod(F, gmul(F, result, acc), mod)[1]
        acc = gdivmod(F, gmul(F, acc, acc), mod)[1]
        n >>= 1
    return result


def geval(F, a, x):
    """a(x) by Horner from a[-1]; a's coefficients are canonical elements of F."""
    acc = a[-1] if a else F.zero
    for c in a[-2::-1]:
        acc = F.add(F.mul(acc, x), c)
    return acc


def gderiv(F, a):
    """a', not trimmed: coefficient i - 1 is i*a_i, entry by entry mod F.mod."""
    m = F.mod
    return [tuple([i * x % m for x in a[i]]) for i in range(1, len(a))]


def _find_roots_linear_part(F, R, rng):
    """Roots of R, which is assumed squarefree and split over F.

    Cantor-Zassenhaus: gcd(t, R) for random delta, with t = (x + delta)^((q-1)/2) - 1
    for odd p and the trace t = y + y^2 + ... + y^(2^(k-1)) of y = delta x for p = 2.
    """
    R = R[:]
    if len(R) <= 1:
        return []
    if len(R) == 2:
        return [F.mul(F.neg(R[0]), F.inv(R[1]))]
    q = F.p**F.k
    # Cantor-Zassenhaus split into halves, deterministic via seeded rng
    while True:
        delta = tuple(rng.randrange(F.p) for _ in range(F.k))
        if F.p == 2:
            t = y = gtrim(F, [F.zero, delta])
            for _ in range(F.k - 1):
                y = gdivmod(F, gmul(F, y, y), R)[1]
                t = gadd(F, t, y)
        else:
            t = gpowmod(F, [delta, F.one], (q - 1) // 2, R)
            t = gadd(F, t, [F.neg(F.one)])
        g = ggcd(F, t, R)
        if 0 < len(g) - 1 < len(R) - 1:
            other, rem = gdivmod(F, R, g)
            assert not rem
            return _find_roots_linear_part(F, g, rng) + _find_roots_linear_part(F, other, rng)


def residue_roots(F, poly):
    """All roots of poly in F with multiplicities, plus unsplit leftover degree.

    Returns (roots, missing) where roots is a list of (element, multiplicity)
    sorted deterministically and missing > 0 means poly has irreducible
    factors of degree >= 2 whose roots would need a larger residue field;
    missing is then the smallest relative degree d >= 2 carrying roots.
    """
    poly = gtrim(F, list(poly))
    if not poly:
        raise ValueError("zero polynomial")
    if any(any(c[1:]) for c in poly):
        return _residue_roots_tuple(F, poly)
    p = F.p
    inv = pow(poly[-1][0], -1, p)
    roots, missing = _residue_roots_fp(p, F.k, tuple(c[0] * inv % p for c in poly))
    return list(roots), missing


@lru_cache(maxsize=256)
def _residue_roots_fp(p, k, f):
    """residue_roots in F_{p^k} of the monic f with coefficients in F_p (int tuple).

    Read off _fp_factor(p, f): a product of factors of degree D has its
    roots in F = F_{p^k} when D | k, each with the product's multiplicity,
    and otherwise needs relative degree D / gcd(D, k).  Memoized, as the
    same residue polynomials recur across roots, tries of e and curves:
    returns (tuple of roots, missing).
    """
    F = _residue_field(p, k)
    rng = None
    roots, missing = [], 0
    pad = (0,) * (k - 1)
    for g, D, m in _fp_factor(p, f):
        if k % D:
            d = D // gcd(D, k)
            missing = min(missing, d) if missing else d
        elif len(g) == 2:
            roots.append(((-g[0] % p,) + pad, m))
        elif k == 2 and D == 2 and len(g) == 3 and p != 2:  # one irreducible quadratic
            c, b = g[0], g[1]  # x^2 + bx + c: the roots are (-b +- r) / 2
            r0, r1 = _fp2_sqrt(b * b - 4 * c, p, F.h)
            half = (p + 1) // 2
            roots.append((((r0 - b) * half % p, r1 * half % p), m))
            roots.append((((-r0 - b) * half % p, -r1 * half % p), m))
        else:
            rng = rng or random.Random(repr((p, k, f)))  # seeded only where a split draws
            roots += [(r, m) for r in _find_roots_linear_part(F, [F.from_int(c) for c in g], rng)]
    roots.sort()
    return tuple(roots), missing


def _residue_roots_tuple(F, poly):
    """residue_roots over F_{p^k} itself (Cantor-Zassenhaus on GF tuples).

    Taken for polys with a coefficient outside F_p.
    """
    q = F.p**F.k
    # squarefree part via gcd with derivative is unnecessary: gcd with x^q - x
    # picks up each F-rational root exactly once (all of poly, made monic,
    # when poly divides x^q - x)
    xq = gpowmod(F, [F.zero, F.one], q, poly)
    xq_minus_x = gadd(F, xq, [F.zero, F.neg(F.one)])
    lin = ggcd(F, xq_minus_x, poly)
    # seeded only where a split draws
    rng = random.Random(repr((F.p, F.k, tuple(map(tuple, poly))))) if len(lin) > 2 else None
    roots = _find_roots_linear_part(F, lin, rng)
    roots.sort()
    out = []
    rest = poly[:]
    for r in roots:
        m = 0
        linfac = [F.neg(r), F.one]
        while True:
            quot, rem = gdivmod(F, rest, linfac)
            if rem:
                break
            rest, m = quot, m + 1
        out.append((r, m))
    missing = 0
    if len(rest) - 1 > 0:
        d = 2
        while d <= len(rest) - 1:
            xqd = gpowmod(F, [F.zero, F.one], q**d, rest)
            t = gadd(F, xqd, [F.zero, F.neg(F.one)])
            if not t or len(ggcd(F, t, rest)) - 1 > 0:
                break
            d += 1
        missing = d
    return out, missing


# ---------------------------------------------------------------------------
# the tame ring O_L / pi^(eN), its unramified ring at e = 1, F_{p^k} at N = 1
# ---------------------------------------------------------------------------


class TameExtension(FrozenRecord):
    """L = Q_p^nr(pi), pi^e = c*p with gcd(e, p) = 1 and c in {1, -1}."""

    __slots__ = ("p", "e", "c")

    def __init__(self, p: int, e: int, c: int = 1):
        if gcd(e, p) != 1:
            raise ValueError("ramification index must be prime to p")
        if c not in (1, -1):
            raise ValueError("uniformizer convention wants c = 1 or -1")
        self._set(p, e, c)


class TameRing:
    """O_L / pi^(e*N) for L = Q_{p^k}^nr(pi), pi^e = c*p, residue field F_{p^k}.

    An element is one flat tuple of e*k ints, each canonical in [0, p^N):
    entry i*k + j is the coefficient of pi^i t^j, where t generates the
    unramified part (t^k reduces by h) and pi^e wraps to c*p.  Since the
    form is canonical, an element is zero exactly when no entry is.

    At e = 1 this is O/p^N of Q_{p^k}^nr, and at e = 1, N = 1 the residue
    field GF.  U is the e = 1 ring with the same (p, k, N), the ring itself
    when e = 1: its elements are the pi^i blocks, and zeta lives there.
    """

    def __init__(self, ext, k, N):
        self.p, self.e, self.c = p, e, c = ext.p, ext.e, ext.c
        self.k = k
        self.N = N
        self.mod = m = p**N
        self.h = h = minimal_irreducible(p, k)
        self.cap = e * N  # pi-digits of working precision
        self.zero = (0,) * (e * k)
        self.one = (1,) + (0,) * (e * k - 1)
        self._pad = (0,) * ((e - 1) * k)
        if e == 1:
            self.U = self
            self.gf = self if isinstance(self, GF) else _residue_field(p, k)
            # reduction rows t^(k+i) mod h for i in [0, k-2], flattened
            red, cur = [], [-x % m for x in h[:k]]
            for _ in range(k - 1):
                red += cur
                top = cur.pop()
                cur = [(a - top * x) % m for a, x in zip([0] + cur, h)]
            self._red = tuple(red)
        else:
            self.U = U = _unramified_ring(p, k, N)
            self.gf = U.gf
            self._red = U._red
        self._kmul = _mul_kernel(e, k)(c * p, m, *self._red)

    def from_int(self, n):
        return (n % self.mod,) + (0,) * (self.e * self.k - 1)

    def from_unram(self, u):
        return tuple(u) + self._pad

    def pi_power(self, m):
        """pi^m as a ring element, 0 <= m."""
        q, r = divmod(m, self.e)
        out = [0] * (self.e * self.k)
        out[r * self.k] = pow(self.c * self.p, q, self.mod)
        return tuple(out)

    def add(self, a, b):
        m = self.mod
        return tuple([(x + y) % m for x, y in zip(a, b)])

    def sub(self, a, b):
        m = self.mod
        return tuple([(x - y) % m for x, y in zip(a, b)])

    def neg(self, a):
        m = self.mod
        return tuple([-x % m for x in a])

    def mul(self, a, b):
        """a*b by the ring's kernel from _mul_kernel, at (e, k) = (2, 1) with cp = c*p and m = p^N:

            def mul(a, b):
                a0, a1 = a
                b0, b1 = b
                return ((a0*b0 + cp*(a1*b1)) % m, (a0*b1 + a1*b0) % m)

        Factors of another length raise ValueError.
        """
        return self._kmul(a, b)

    def pow(self, a, n):
        """a^n for n >= 0."""
        result = self.one
        while n:
            if n & 1:
                result = self.mul(result, a)
            n >>= 1
            if n:
                a = self.mul(a, a)
        return result

    def val(self, a):
        """pi-adic valuation, capped at self.cap (= "zero at this precision")."""
        p, e, k = self.p, self.e, self.k
        best = self.cap
        for s, x in enumerate(a):
            if x:
                v = s // k
                if v >= best:
                    break
                while x % p == 0 and v < best:
                    v += e
                    x //= p
                if v < best:
                    best = v
        return best

    def is_zero(self, a):
        return not any(a)

    def div_pi(self, a, m):
        """Exact division by pi^m; raises if val(a) < m on the representative.

        pi^e = c*p, so each whole pi^e divides every entry by p and multiplies
        by c; each further pi moves the pi^0 block, divided by c*p, to pi^(e-1).
        """
        q, r = divmod(m, self.e)
        p, c, mod = self.p, self.c, self.mod
        for n in [len(a)] * q + [r * self.k]:
            if any(x % p for x in a[:n]):
                raise PrecisionStallError("division by pi under-determined")
            a = a[n:] + tuple([c * (x // p) % mod for x in a[:n]])
        return a

    def residue(self, a):
        """Image in F_{p^k} (the pi^0 coordinates mod p); also of an element of U."""
        p = self.p
        return tuple([x % p for x in a[: self.k]])

    lift_residue = from_unram  # an F_{p^k} element, entries in [0, p), is canonical mod p^N

    def zeta(self, order):
        """Primitive order-th root of unity in U (needs order | p^k - 1), lifted as a root of x^order - 1.

        Computed once per (p, k, N, order) and shared by every ring with that key.
        """
        return self.U.one if order == 1 else _zeta(self.p, self.k, self.N, order)

    @cached_property
    def zeta_powers(self):
        """zeta_e^0, ..., zeta_e^(e-1) in U, built on first use (needs e | p^k - 1)."""
        U, z = self.U, self.zeta(self.e)
        pows = [U.one]
        for _ in range(1, self.e):
            pows.append(U.mul(pows[-1], z))
        return pows

    def galois_map(self, a, j):
        """Apply tau^j with tau(pi) = zeta_e*pi: the pi^i block times zeta_e^(ij mod e)."""
        U, e, k = self.U, self.e, self.k
        zp = self.zeta_powers
        out = a[:k]
        for i in range(1, e):
            out += U.mul(a[i * k:(i + 1) * k], zp[i * j % e])
        return out


@lru_cache(maxsize=64)
def _mul_kernel(e, k):
    """make(cp, m, *red) -> mul(a, b) for e*k-entry elements, red the flattened rows t^(k+i) mod h.

    The source is written from loop indices alone, so no input reaches it.
    """

    def cell(s, d):  # the terms a_x b_y of pi^s t^d
        return " + ".join(
            f"a{i * k + j}*b{(s - i) * k + d - j}"
            for i in range(max(0, s - e + 1), min(s, e - 1) + 1)
            for j in range(max(0, d - k + 1), min(d, k - 1) + 1)
        )

    def folded(s, d):  # pi^s t^d, s < e, after pi^e -> cp
        return f"{cell(s, d)} + cp*({cell(s + e, d)})" if s + e <= 2 * e - 2 else cell(s, d)

    def entry(s, j):
        return " + ".join([folded(s, j)] + [f"x{s}_{d}*r{d - k}_{j}" for d in range(k, 2 * k - 1)])

    def items(names):  # a tuple display, or its target list
        return ", ".join(names) + ("," if len(names) == 1 else "")

    lines = [
        f"def make({', '.join(['cp', 'm'] + [f'r{i}_{j}' for i in range(k - 1) for j in range(k)])}):",
        "    def mul(a, b):",
        f"        {items([f'a{x}' for x in range(e * k)])} = a",
        f"        {items([f'b{x}' for x in range(e * k)])} = b",
    ]
    lines += [f"        x{s}_{d} = ({folded(s, d)}) % m" for s in range(e) for d in range(k, 2 * k - 1)]
    lines.append(f"        return ({items([f'({entry(s, j)}) % m' for s in range(e) for j in range(k)])})")
    lines += ["    return mul", ""]
    namespace = {}
    exec(compile("\n".join(lines), f"<mul kernel e={e} k={k}>", "exec"), namespace)
    return namespace["make"]


# the cyclotomic polynomials of degree <= 2, lowest degree first
_QUADRATIC_CYCLOTOMIC = {2: (1, 1), 3: (1, 1, 1), 4: (1, 0, 1), 6: (1, -1, 1)}


@lru_cache(maxsize=64)
def _zeta(p, k, N, order):
    """TameRing.zeta in U = O/p^N of Q_{p^k}^nr, for order > 1."""
    U = _unramified_ring(p, k, N)
    F, q = U.gf, p**k
    if (q - 1) % order:
        raise ValueError(f"no zeta_{order} in F_{p}^{k}")
    # the root is the least primitive one, a root of the cyclotomic polynomial
    # and a simple root of x^order - 1 (p does not divide order)
    cyc = _QUADRATIC_CYCLOTOMIC.get(order)
    if cyc and (k == 2 or (p - 1) % order == 0):  # roots in F_p, or k = 2: in closed form
        root = _residue_roots_fp(p, k, tuple(c % p for c in cyc))[0][0][0]
    else:
        # g = a^((q-1)/order) is primitive unless g^(order/r) = 1 for a prime
        # r | order; at k > 1, F_p may hold no fit a, so the candidates start at t
        for a in _fp_tuples(p, k, p if k > 1 else 1):
            g = F.pow(a, (q - 1) // order)
            if all(F.pow(g, order // r) != F.one for r in _prime_divisors(order)):
                break
        root = min(F.pow(g, j) for j in range(1, order) if gcd(j, order) == 1)
    # Newton on x^order = 1, by U.pow rather than Horner over order - 1 zero
    # coefficients: where z^order = 1 + eps, 1/(order z^(order-1)) is z/order
    # up to O(eps), so the step z -= eps z/order still squares the error
    z, c = U.lift_residue(root), U.from_int(pow(order, -1, p**N))
    for _ in range(_newton_budget(U)):
        eps = U.sub(U.pow(z, order), U.one)
        if U.is_zero(eps):
            return z
        z = U.sub(z, U.mul(U.mul(eps, z), c))
    raise PrecisionStallError("zeta lift did not converge within its step budget")


class GF(TameRing):
    """F_{p^k} = F_p[t]/(h): the ring at e = 1, N = 1, elements are int tuples of length k."""

    # bench/tracing.py counts residue-field kernels by patching GF.__dict__;
    # binding them here keeps the p^N rings' own calls out of those counts
    mul = TameRing.mul
    pow = TameRing.pow

    def __init__(self, p, k):
        super().__init__(TameExtension(p, 1), k, 1)

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of 0 in GF")
        p, k = self.p, self.k
        if k == 1:
            return (pow(a[0], -1, p),)
        # extended Euclid in F_p[t]: s1 * a = r1 (mod h) throughout, and the
        # remainders end in a nonzero constant because h is irreducible
        r0, r1 = list(self.h), _fp_trim(list(a), p)
        s0, s1 = [], [1]
        while len(r1) > 1:
            q, r = _fp_divmod(r0, r1, p)
            s = s0 + [0] * (len(q) + len(s1) - 1 - len(s0))
            for i, x in enumerate(q):
                if x:
                    for j, y in enumerate(s1):
                        s[i + j] = (s[i + j] - x * y) % p
            r0, r1, s0, s1 = r1, r, s1, _fp_trim(s, p)
        c = pow(r1[0], -1, p)
        return tuple(x * c % p for x in s1) + (0,) * (k - len(s1))

    def elements(self):
        return _fp_tuples(self.p, self.k)


# A ring's only state after construction is its zeta_powers table, which
# depends on nothing but its parameters, so rings may share these.  The
# caches are bounded: the reuse is among the rings lift_over_ring builds for
# one prime, and keys with distinct primes would otherwise pile up over a
# long run.


@lru_cache(maxsize=64)
def _residue_field(p, k):
    """GF(p, k), shared by every ring with this (p, k)."""
    return GF(p, k)


@lru_cache(maxsize=64)
def _unramified_ring(p, k, N):
    """The e = 1 ring O/p^N of Q_{p^k}^nr, shared as U by every ring with this (p, k, N)."""
    return TameRing(TameExtension(p, 1), k, N)


# ---------------------------------------------------------------------------
# root lifting over a TameRing
# ---------------------------------------------------------------------------


def _residue_poly(ring, poly):
    return gtrim(ring.gf, [ring.residue(c) for c in poly])


def _content_val(ring, poly):
    return min(ring.val(c) for c in poly)


def _newton_budget(ring):
    """Steps _newton_lift may take: the pi-adic error squares at each one."""
    return max(2, ring.cap.bit_length() + 2)


def _newton_lift(ring, poly, dpoly, z):
    """Lift a simple residue root to ring precision (f'(z) stays a unit).

    The Hensel loop of the package, over a TameRing of any e: _integral_roots
    lifts every simple root with it, at every depth in the ring that finds it.

    Coupled Newton: w ~ 1/f'(z) starts from the residue-field inverse and
    is refined by w <- w(2 - f'(z) w) alongside z <- z - f(z) w, so no step
    inverts in the ring.  The errors of z and w start at one digit (pi or
    p) and square at each step.  Raises PrecisionStallError when f(z) still
    does not vanish at working precision after _newton_budget steps
    (lift_over_ring then doubles N).
    """
    w = ring.lift_residue(ring.gf.inv(ring.residue(geval(ring, dpoly, z))))
    two = ring.from_int(2)
    for step in range(_newton_budget(ring)):
        fz = geval(ring, poly, z)
        if ring.is_zero(fz):
            return z
        if step:  # w follows z only when z takes another step
            w = ring.mul(w, ring.sub(two, ring.mul(geval(ring, dpoly, z), w)))
        z = ring.sub(z, ring.mul(fz, w))
    raise PrecisionStallError("Newton lift did not converge within its step budget")


def _integral_roots(ring, poly, prec, depth=0, f=None):
    """All roots of poly with valuation >= 0, as exact ring elements.

    Every coefficient of poly is known mod pi^prec: digits at or above prec
    are invisible, as dividing by pi pulls unknown digits into view.  Each
    simple residue root is lifted by _newton_lift in this ring.  f is poly's
    int tuple when poly has integer coefficients (depth 0): a multiple
    residue root that is an exact root of f then comes first in its cluster.
    Raises NeedsLargerK when residue factorization leaves the field,
    NeedsLargerE on a certified fractional Newton slope, and
    PrecisionStallError when prec cannot see the digits it needs.
    """
    if depth > ring.cap + 4:
        raise PrecisionStallError("root recursion exceeded precision depth")
    c = _content_val(ring, poly)
    if c >= prec:
        raise PrecisionStallError("polynomial vanishes at working precision")
    if c:
        poly = [ring.div_pi(a, c) for a in poly]
        prec -= c
    g = ring.gf
    pbar = _residue_poly(ring, poly)
    roots_bar, missing = residue_roots(g, pbar)
    if missing:
        raise NeedsLargerK(ring.k * missing)
    dpoly = gderiv(ring, poly)
    out = []
    m0 = 0
    for rbar, mult in roots_bar:
        if g.is_zero(rbar):
            m0 = mult
            continue
        r = ring.lift_residue(rbar)
        if mult == 1:
            out.append(_newton_lift(ring, poly, dpoly, r))
        else:
            shifted = gcompose_linear(ring, poly, ring.one, r)
            exact = f and _vanishes_at(f, rbar, ring.h)
            for s in _cluster_roots(ring, shifted, mult, prec, depth + 1, exact):
                out.append(ring.add(r, s))
    if m0:
        out.extend(_cluster_roots(ring, poly, m0, prec, depth + 1, f and not f[0]))
    return out


def _vanishes_at(f, r, h):
    """f(r) == 0 in Z[t]/(h) for the int tuple f, r's int coordinates and the monic h."""
    k = len(h) - 1
    acc = [0] * k
    for c in reversed(f):
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(acc):
            for j, y in enumerate(r):
                prod[i + j] += x * y
        for i in range(2 * k - 2, k - 1, -1):  # t^i = -t^(i-k) * (h - t^k)
            for j in range(k):
                prod[i - k + j] -= prod[i] * h[j]
        acc = prod[:k]
        acc[0] += c
    return not any(acc)


def _cluster_roots(ring, poly, expected, prec, depth, exact_zero=False):
    """The `expected` roots of poly with strictly positive valuation.

    poly's coefficients are known mod pi^prec and its coefficient of degree
    `expected` is a unit, so the last descending segment of its Newton
    polygon ends at (expected, 0): its slope is minus the smallest root
    valuation lam = min v_i / (expected - i) over i < expected.  A
    fractional lam raises NeedsLargerE only when every invisible point
    (i, >= prec) lies on or above that segment, so that no hidden digit
    can lower it; otherwise the precision is too low to tell.

    exact_zero says poly(0) = 0 exactly (the root is an exact root of f at
    depth 0): 0 is then the first root at every precision.  A constant term
    that is merely invisible stands for the deepest root, which comes last,
    where a higher precision would find it.
    """
    if depth > ring.cap + 4:
        raise PrecisionStallError("root recursion exceeded precision depth")
    out = []
    if exact_zero:
        out, poly, expected = [ring.zero], poly[1:], expected - 1
    vals = [ring.val(a) for a in poly[:expected]]
    # invisible constant terms: unresolvably deep roots; certification arbitrates later
    s = 0
    while s < expected and vals[s] >= prec:
        s += 1
    if s == expected:
        return out + [ring.zero] * s
    lam = min(Fraction(v, expected - i) for i, v in enumerate(vals) if v < prec)  # pi units
    if lam.denominator != 1:
        hidden = max((expected - i for i, v in enumerate(vals) if v >= prec), default=0)
        if prec < lam * hidden:
            raise PrecisionStallError("fractional Newton slope not certified")
        raise NeedsLargerE(lam.denominator)
    # scaling by pi^(lam*i) divides out pi^(lam*expected) in all: charge the
    # stripped zeros' share here, as _integral_roots sees only the rest
    lam = int(lam)
    scaled = [ring.mul(a, ring.pi_power(lam * i)) for i, a in enumerate(poly[s:])]
    for r in _integral_roots(ring, scaled, prec - lam * s, depth + 1):
        out.append(ring.mul(ring.pi_power(lam), r))
    return out + [ring.zero] * s


def _certify(ring, fpoly, dfpoly, roots):
    """Newton-ball certification of candidate roots against the original f.

    Returns per-root (fval, ball) in pi digits, where the true root lies
    within pi^ball of the candidate; raises on uncertifiable candidates or
    when a pairwise distance reaches the least ball.  Below it, the Galois
    images that inertia_permutation matches (against that same least ball)
    and the chart coordinates read off root differences are exact at any
    starting N, not only at a generous one.
    """
    data = []
    for z in roots:
        a = ring.val(geval(ring, fpoly, z))
        b = ring.val(geval(ring, dfpoly, z))
        if b >= ring.cap or a - 2 * b < 1:
            raise PrecisionStallError("root fails Newton certification")
        data.append((a, a - b))
    ball = min(b for _, b in data)
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if ring.val(ring.sub(roots[i], roots[j])) >= ball:
                raise PrecisionStallError("roots not separated within balls")
    return data


def multiplicative_order(p, e):
    """The order of p mod e, for e >= 1 prime to p."""
    if e < 1:
        raise ValueError(f"no multiplicative order mod {e}")
    if e == 1:
        return 1
    if gcd(p, e) != 1:
        raise ValueError("p divides e")
    d, acc = 1, p % e
    while acc != 1:
        acc = acc * p % e
        d += 1
    return d


class SplitRoots:
    """Roots of the int polynomial f over the tame ring, with certification data."""

    def __init__(self, ring, roots, cert):
        self.ring = ring
        self.roots = roots
        self.cert = cert


def lift_over_ring(f_ints, p, e, k=1, n_digits=DEFAULT_PI_DIGITS):
    """Lift all roots of an integer polynomial over L = Q_p^nr(pi), pi^e = p.

    Starts at N = n_digits p-digits and grows the residue field and the
    working precision as needed; propagates NeedsLargerE (insufficient
    ramification, certified at the precision reached) to the caller.
    Requires the leading coefficient to be a p-adic unit so all roots are
    integral.
    """
    if f_ints[-1] % p == 0:
        raise ValueError("leading coefficient must be a p-adic unit")
    k = lcm(k, multiplicative_order(p, e))
    N = n_digits
    while True:
        ring = TameRing(TameExtension(p, e), k, N)
        fpoly = [ring.from_int(c) for c in f_ints]
        try:
            roots = _integral_roots(ring, fpoly, ring.cap, f=tuple(f_ints))
            cert = _certify(ring, fpoly, gderiv(ring, fpoly), roots)
            return SplitRoots(ring, roots, cert)
        except NeedsLargerK as ex:
            if ex.k > HARD_K_CAP:
                raise RuntimeError(f"residue degree {ex.k} out of range for quartics")
            k = lcm(ex.k, multiplicative_order(p, e))
        except PrecisionStallError:
            if N * 2 * e > MAX_PI_DIGITS:
                raise
            N *= 2


# Tame inertia over Q_p^nr is cyclic and acts faithfully on the four roots,
# and a cyclic subgroup of S4 has order at most 4.
TAME_E_CANDIDATES = (1, 2, 3, 4)


class WildSplittingError(Exception):
    """No tame extension of index <= 4 splits f at this prime."""


def _residue_split_degree(f_ints, p):
    """The least k with f mod p split over F_{p^k} (f's leading coefficient a unit).

    It is the lcm of the degrees of the irreducible factors of f mod p, the
    k every try of e would otherwise climb to through NeedsLargerK at depth 0.
    """
    inv = pow(f_ints[-1], -1, p)
    return lcm(*(D for _, D, _ in _fp_factor(p, tuple(c * inv % p for c in f_ints))))


def _disc_val(f, p):
    """ord_p(disc f) for the int quartic f (lowest degree first), its leading coefficient c a unit.

    c^3 f(x/c) is monic with integer coefficients, and its discriminant is
    c^6 disc f.
    """
    c = f[4]
    d = disc_quartic_monic(f[3], f[2] * c, f[1] * c * c, f[0] * c**3)
    if d == 0:
        raise ValueError("polynomial must be separable")
    v = 0
    while d % p == 0:
        d //= p
        v += 1
    return v


def split_over_minimal_tame(f_ints, p):
    """Find the minimal tame e with f split over Q_p^nr(p^(1/e)).

    f_ints is a separable int quartic, lowest degree first.  Returns (e,
    SplitRoots); raises WildSplittingError if no tame index <= 4 works
    (possible only for p = 2, 3, where the splitting field can be wildly
    ramified).

    A monic f at p >= 5 with f mod p = (x - a)^2 h, h squarefree and
    h(a) != 0, takes _split_single_twin: its roots in closed form from two
    square roots, in the ring and the order the lift below would give.
    Every other f, and a single twin whose closed form fails certification,
    takes _split_by_lifting.
    """
    v = _disc_val(f_ints, p)
    a = _single_twin(f_ints, p) if p >= 5 and f_ints[-1] == 1 else None
    if a is not None:
        try:
            return _split_single_twin(f_ints, p, a, v)
        except PrecisionStallError:
            pass  # the lift doubles N
    return _split_by_lifting(f_ints, p, v)


def _split_by_lifting(f_ints, p, v):
    """split_over_minimal_tame by lift_over_ring, for v = ord_p(disc f).

    The residue degree is fixed once for all tries of e.  Every try of e
    starts at N = min(DEFAULT_PI_DIGITS, v + 1).  The pairwise distances of
    the roots sum to v/2, so v(f'(z)) <= e*v/2 at every root z and v + 1
    p-digits leave room for _certify's a - 2b >= 1.

    Only the e that can split f are tried: multiples of `need`, a divisor of
    the splitting index e_s.  The product of the root differences is
    +-sqrt(disc f), of valuation v/2, so need starts at 2 when v is odd.  A
    try at e that raises NeedsLargerE(d) saw a root minus an element of the
    ring at e with a valuation of denominator d in pi units, and d divides
    e_s / gcd(e, e_s), so need becomes lcm(need, d).
    """
    k = _residue_split_degree(f_ints, p) if f_ints[-1] % p else 1
    n = min(DEFAULT_PI_DIGITS, v + 1)
    need = 2 if v % 2 else 1
    for e in TAME_E_CANDIDATES:
        if e % need or gcd(e, p) != 1:
            continue
        try:
            return e, lift_over_ring(f_ints, p, e, k, n)
        except NeedsLargerE as ex:
            need = lcm(need, ex.factor)
    raise WildSplittingError(f"no tame extension of index <= 4 splits f at {p}")


def _single_twin(f_ints, p):
    """a when the monic f mod p is (x - a)^2 h with h squarefree and h(a) != 0, else None."""
    repeated = [(g, m) for g, _, m in _fp_factor(p, tuple(c % p for c in f_ints)) if m > 1]
    if len(repeated) == 1 and repeated[0][1] == 2 and len(repeated[0][0]) == 2:
        return -repeated[0][0][0] % p
    return None


def _twin_factors(f, p, a, M):
    """Monic quadratics G = x^2 + Bx + C and H with f = G H mod p^M and G = (x - a)^2 mod p.

    f is monic with f mod p = (x - a)^2 h, h(a) != 0.  Newton on G -> f mod
    G: with f = G H + R, the step G += R / H mod G squares the error.  H
    mod G = alpha x + beta is a unit of Z/p^M[x]/(G), inverted through its
    norm beta^2 - alpha beta B + alpha^2 C, which is h(a)^2 mod p.  The
    divisions are by monic G, so _fp_divmod serves mod p^M.
    """
    q = p**M
    G = [a * a % q, -2 * a % q, 1]
    while True:
        H, R = _fp_divmod(f, G, q)
        if not R:
            return G, H
        C, B = G[0], G[1]
        al, be = (H[1] - B) % q, (H[0] - C) % q
        inv = pow(be * be - al * be * B + al * al * C, -1, q)
        t1, t0 = -al * inv, (be - al * B) * inv  # 1 / (H mod G) = t1 x + t0
        r0, r1 = R + [0] * (2 - len(R))
        s = t1 * r1  # (t1 x + t0)(r1 x + r0) mod G, x^2 = -B x - C
        G = [(C + t0 * r0 - s * C) % q, (B + t1 * r0 + t0 * r1 - s * B) % q, 1]


def _split_single_twin(f_ints, p, a, v):
    """split_over_minimal_tame for a monic f, p >= 5, f mod p = (x - a)^2 h, h squarefree, h(a) != 0.

    Over Z/p^(N+v), N = min(DEFAULT_PI_DIGITS, v + 1), f = G H with
    G = x^2 + Bx + C = (x - a)^2 and H = x^2 + bx + c = h mod p.  disc f =
    disc G disc H Res(G, H)^2 and the last two are units, so
    B^2 - 4C = p^v u with u a unit known mod p^N.  The roots are
    (-B +- pi^(e v/2) sqrt(u)) / 2 and (-b +- sqrt(b^2 - 4c)) / 2 over the
    ring the lift would end in: e = 2 when v is odd, else 1, and k = 1 when
    u and b^2 - 4c are squares mod p, else 2.  Each square root is lifted
    over U by _newton_lift.

    The order is the lift's: by residue, the zero residue last; inside the
    twin, an exact integer root a first, else by the residues of the first
    pi-adic digit where the two differ, nonzero ones sorted and zero last.
    Raises PrecisionStallError when _certify rejects the roots.
    """
    N = min(DEFAULT_PI_DIGITS, v + 1)
    (C, B, _), (c, b, _) = _twin_factors(list(f_ints), p, a, N + v)
    u, w = (B * B - 4 * C) % p ** (N + v) // p**v, b * b - 4 * c
    e = 2 if v % 2 else 1

    def square(x):
        return pow(x, (p - 1) // 2, p) == 1

    k = 1 if square(u) and square(w) else 2
    ring = TameRing(TameExtension(p, e), k, N)
    U = ring.U

    def sqrt(x):
        r = (_fp_sqrt(x, p),) + (0,) * (k - 1) if square(x) else _fp2_sqrt(x, p, ring.h)
        z = _newton_lift(U, [U.from_int(-x), U.zero, U.one], [U.zero, U.from_int(2)], U.lift_residue(r))
        return ring.from_unram(z)

    def rank(d):  # nonzero residues sorted, zero last
        return not any(d), d

    half = ring.from_int(pow(2, -1, p**N))
    roots = [
        ring.mul(op(ring.from_int(-lin), root), half)
        for lin, root in ((B, ring.mul(ring.pi_power(e * v // 2), sqrt(u))), (b, sqrt(w)))
        for op in (ring.add, ring.sub)
    ]
    if _vanishes_at(f_ints, (a,), (0, 1)):  # the integer a is a root of f
        roots[:2] = sorted(roots[:2], key=lambda z: z != ring.from_int(a))
    else:  # digit j = i + e m of z is the m-th p-digit of its pi^i block
        m, i = divmod(ring.val(ring.sub(roots[0], roots[1])), e)
        roots[:2] = sorted(roots[:2], key=lambda z: rank(tuple(x // p**m % p for x in z[i * k:(i + 1) * k])))
    roots.sort(key=lambda z: rank(ring.residue(z)))
    fpoly = [ring.from_int(x) for x in f_ints]
    cert = _certify(ring, fpoly, gderiv(ring, fpoly), roots)
    return e, SplitRoots(ring, roots, cert)

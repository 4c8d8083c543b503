"""Arithmetic over tame extensions of Q_p^nr and p-adic root lifting.

The computational model: the maximal unramified extension is truncated to
Q_{p^k}^nr realized as Z[t]/(h(t), p^N) with h the deterministic minimal
irreducible of degree k mod p, and a tame totally ramified extension of
index e (gcd(e, p) = 1) is adjoined as pi with pi^e = c*p for a fixed unit
c in {1, -1}.  All arithmetic is exact modulo p^N; root certification uses
Newton/Krasner ball bounds against the original integer polynomial, so
intermediate digit erosion can never produce a falsely certified root.

The residue field F_{p^k} is the same ring at N = 1: GF(p, k) is an
UnramifiedRing whose add/sub/mul/pow are the ring's, and only its inverse
(Euclid), zero test and element enumeration are its own.  Residue fields
never need k > 12 here: every root of a quartic over Q_p^nr lives in
residue degree <= 4 and the roots of unity zeta_e for e | 72 live in
degree <= 6.

Costs are kept to one pass of each kind of work:

- Inverses in F_{p^k} come from pow(a, -1, p) when k = 1 and from the
  extended Euclidean algorithm in F_p[t] modulo h when k > 1, never from
  a^(p^k - 2).
- Polynomial division over F_{p^k} inverts the divisor's leading
  coefficient only when it is not 1; gpowmod makes its modulus monic once.
- Roots lifted over pi^e = c*p are reused for the cube twist over
  pi'^(3e) = c*p through pi = pi'^3 (extend_split): the pi^i coefficient
  moves to index 3i, certified balls scale by 3, N and c stay.  When
  zeta_{3e} is missing, the residue field grows to k' = lcm(k, ord_{3e}(p))
  along t -> theta, theta the Hensel lift of the first root of h_k in
  F_{p^k'}.
- UnramifiedRing.zeta(e) is Hensel-lifted once per (p, k, N, e) and cached
  at module level, so the rings lift_over_ring builds for each try of e, k
  and N share it.
- Residue polynomials with every coefficient in F_p (nearly all of them)
  are factored once over F_p, p odd, on int lists: distinct-degree
  factorization, then Cantor-Zassenhaus per degree.  Linear factors give
  their roots directly and quadratics at k = 2 by the quadratic formula
  with a Tonelli-Shanks root in F_p; only other factors of degree D | k
  are split over F_{p^k}.  p = 2 and polys with a coefficient outside F_p
  take the tuple route over F_{p^k}.
"""

import os
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf
import random

from .exact import valuation as q_valuation

DEFAULT_PI_DIGITS = 20  # per unit of e; ring precision N in p-digits
HARD_K_CAP = 24


class PrecisionSettingError(ValueError):
    """PICARD_MAX_PRECISION is set to something other than a positive integer."""


def max_pi_digits():
    """Precision ceiling in pi-digits, overridable via PICARD_MAX_PRECISION."""
    v = os.environ.get("PICARD_MAX_PRECISION")
    if not v:
        return 640
    try:
        n = int(v)
    except ValueError:
        n = 0
    if n < 1:
        raise PrecisionSettingError(
            f"PICARD_MAX_PRECISION must be a positive integer, got {v!r}"
        )
    return n


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


class InsufficientExtensionError(ValueError):
    """A root requires ramification the given tame extension lacks."""


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


def _fp_poly_is_irreducible(coeffs, p):
    """Irreducibility of a monic poly over F_p via x^(p^d) = x tests."""
    k = len(coeffs) - 1
    if k == 1:
        return True
    m, x = list(coeffs), [0, 1]
    if _fp_powmod(x, p**k, m, p) != x:
        return False
    for q in {d for d in range(2, k + 1) if k % d == 0 and _is_small_prime(d)}:
        diff = _fp_sub(_fp_powmod(x, p ** (k // q), m, p), x, p)
        if _fp_gcd(m, diff, p) != [1]:
            return False
    return True


def _is_small_prime(d):
    return d > 1 and all(d % i for i in range(2, d))


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


def _fp_equal_degree(g, D, p, rng):
    """Irreducible factors of g, a squarefree product of monic degree-D ones.

    Cantor-Zassenhaus for odd p: gcd(a^((p^D - 1)/2) - 1, g) for random a.
    """
    n = len(g) - 1
    if n == D:
        return [g]
    half = (p**D - 1) // 2
    while True:
        a = _fp_trim([rng.randrange(p) for _ in range(n)], p)
        s = _fp_gcd(_fp_sub(_fp_powmod(a, half, g, p), [1], p), g, p)
        if 0 < len(s) - 1 < n:
            other = _fp_divmod(g, s, p)[0]
            return _fp_equal_degree(s, D, p, rng) + _fp_equal_degree(other, D, p, rng)


def _fp_factor(f, p, rng):
    """Monic irreducible factors of the monic f over F_p (p odd), with multiplicities.

    Distinct-degree factorization: g = gcd(x^(p^D) - x, rem) for D = 1, 2, ...
    is the product of the degree-D factors of rem, and every power of them
    leaves rem before D grows.  Once deg rem < 2(D + 1), rem is 1 or irreducible.
    """
    x = [0, 1]
    rem, xpd, D = f, x, 0
    irreducible = []
    while len(rem) - 1 >= 2 * (D + 1):
        D += 1
        xpd = _fp_powmod(xpd, p, rem, p)
        g = _fp_gcd(_fp_sub(xpd, x, p), rem, p)
        if len(g) > 1:
            irreducible.extend(_fp_equal_degree(g, D, p, rng))
            while len(g) > 1:
                rem = _fp_divmod(rem, g, p)[0]
                g = _fp_gcd(rem, g, p)
            xpd = _fp_divmod(xpd, rem, p)[1]
    if len(rem) > 1:
        irreducible.append(rem)
    out = []
    for g in irreducible:
        m, q = 0, f
        while True:
            quot, r = _fp_divmod(q, g, p)
            if r:
                break
            q, m = quot, m + 1
        out.append((g, m))
    return out


_IRR_CACHE = {}


def minimal_irreducible(p, k):
    """Lexicographically smallest monic irreducible of degree k over F_p."""
    if k == 1:
        return (0, 1)
    key = (p, k)
    if key in _IRR_CACHE:
        return _IRR_CACHE[key]
    # iterate constant-first lexicographic order over lower coefficients
    bound = p**k
    for code in range(bound):
        coeffs = []
        c = code
        for _ in range(k):
            coeffs.append(c % p)
            c //= p
        if coeffs[0] == 0:
            continue
        cand = coeffs + [1]
        if _fp_poly_is_irreducible(cand, p):
            _IRR_CACHE[key] = tuple(cand)
            return tuple(cand)
    raise RuntimeError("no irreducible found")  # unreachable


# polynomials over GF: lists of elements, index = degree


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
    if not a or not b:
        return []
    out = [F.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not F.is_zero(x):
            for j, y in enumerate(b):
                out[i + j] = F.add(out[i + j], F.mul(x, y))
    return gtrim(F, out)


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
    acc = F.zero
    for c in reversed(a):
        acc = F.add(F.mul(acc, x), c)
    return acc


def _find_roots_linear_part(F, R, rng):
    """Roots of R, which is assumed squarefree and split over F."""
    R = R[:]
    if len(R) <= 1:
        return []
    if len(R) == 2:
        return [F.mul(F.neg(R[0]), F.inv(R[1]))]
    if F.p == 2:
        return [x for x in F.elements() if F.is_zero(geval(F, R, x))]
    q = F.p**F.k
    # Cantor-Zassenhaus split into halves, deterministic via seeded rng
    while True:
        delta = tuple(rng.randrange(F.p) for _ in range(F.k))
        base = [delta, F.one]
        t = gpowmod(F, base, (q - 1) // 2, R)
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
    poly = gtrim(F, poly[:])
    if not poly:
        raise ValueError("zero polynomial")
    if F.p == 2 or any(any(c[1:]) for c in poly):
        return _residue_roots_tuple(F, poly)
    return _residue_roots_fp(F, [c[0] for c in poly])


def _residue_roots_fp(F, f):
    """residue_roots for odd p and a poly with coefficients in F_p (int list).

    f is factored once over F_p; an irreducible factor of degree D has its
    D roots in F = F_{p^k} when D | k, each with the factor's multiplicity,
    and otherwise needs relative degree D / gcd(D, k).
    """
    p, k = F.p, F.k
    inv = pow(f[-1], -1, p)
    f = [c * inv % p for c in f]
    rng = random.Random(repr((p, k, tuple(f))))
    roots, missing = [], 0
    pad = (0,) * (k - 1)
    for g, m in _fp_factor(f, p, rng):
        D = len(g) - 1
        if k % D:
            d = D // gcd(D, k)
            missing = min(missing, d) if missing else d
        elif D == 1:
            roots.append(((-g[0] % p,) + pad, m))
        elif k == 2:
            # x^2 + bx + c with h = t^2 + h1 t + h0: (2t + h1)^2 = h1^2 - 4 h0,
            # so the roots are (-b +- (2t + h1) s) / 2 with s^2 the quotient of
            # the two discriminants, both non-squares in F_p
            c, b = g[0], g[1]
            h0, h1 = F.h[0], F.h[1]
            s = _fp_sqrt((b * b - 4 * c) * pow(h1 * h1 - 4 * h0, -1, p), p)
            half = (p + 1) // 2
            roots.append((((h1 * s - b) * half % p, s), m))
            roots.append((((-h1 * s - b) * half % p, -s % p), m))
        else:
            for r in _find_roots_linear_part(F, [F.from_int(c) for c in g], rng):
                roots.append((r, m))
    roots.sort()
    return roots, missing


def _residue_roots_tuple(F, poly):
    """residue_roots over F_{p^k} itself (Cantor-Zassenhaus on GF tuples).

    Taken for p = 2 and for polys with a coefficient outside F_p.
    """
    q = F.p**F.k
    # squarefree part via gcd with derivative is unnecessary: gcd with x^q - x
    # picks up each F-rational root exactly once (all of poly, made monic,
    # when poly divides x^q - x)
    xq = gpowmod(F, [F.zero, F.one], q, poly)
    xq_minus_x = gadd(F, xq, [F.zero, F.neg(F.one)])
    lin = ggcd(F, xq_minus_x, poly)
    rng = random.Random(repr((F.p, F.k, tuple(map(tuple, poly)))))
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
# O_{Q_{p^k}^nr} / p^N, and its residue field F_{p^k} at N = 1
# ---------------------------------------------------------------------------


class UnramifiedRing:
    """(Z/p^N)[t]/(h(t)) with h irreducible mod p: O_K/p^N, K = Q_{p^k}^nr."""

    def __init__(self, p, k, N):
        self.p = p
        self.k = k
        self.N = N
        self.mod = m = p**N
        self.h = h = minimal_irreducible(p, k)
        self.gf = self if isinstance(self, GF) else GF(p, k)
        self.zero = (0,) * k
        self.one = (1,) + (0,) * (k - 1)
        # reduction rows: t^(k+i) mod h for i in [0, k-2]
        rows = []
        cur = [(-c) % m for c in h[:k]]
        rows.append(tuple(cur))
        for _ in range(k - 2):
            cur = [0] + cur
            top = cur.pop()
            if top:
                cur = [(a - top * c) % m for a, c in zip(cur, h[:k])]
            rows.append(tuple(cur))
        self._red = rows

    def from_int(self, n):
        return (n % self.mod,) + (0,) * (self.k - 1)

    def lift_gf(self, a):
        return tuple(a[i] if i < len(a) else 0 for i in range(self.k))

    def to_gf(self, u):
        p = self.p
        return tuple(c % p for c in u)

    def add(self, a, b):
        m = self.mod
        return tuple((x + y) % m for x, y in zip(a, b))

    def sub(self, a, b):
        m = self.mod
        return tuple((x - y) % m for x, y in zip(a, b))

    def neg(self, a):
        m = self.mod
        return tuple((-x) % m for x in a)

    def mul(self, a, b):
        m, k = self.mod, self.k
        if k == 1:
            return (a[0] * b[0] % m,)
        out = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        res = [c % m for c in out[:k]]
        for i in range(k, 2 * k - 1):
            c = out[i] % m
            if c:
                row = self._red[i - k]
                for j in range(k):
                    res[j] = (res[j] + c * row[j]) % m
        return tuple(res)

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
        """min p-valuation over coordinates, capped at N."""
        p, best = self.p, self.N
        for c in a:
            if c == 0:
                continue
            v = 0
            while c % p == 0 and v < best:
                v += 1
                c //= p
            if v < best:
                best = v
            if best == 0:
                return 0
        return best

    def div_p(self, a):
        p = self.p
        if any(c % p for c in a):
            raise ArithmeticError("not divisible by p")
        return tuple(c // p for c in a)

    def inv_unit(self, a):
        g = self.gf
        z0 = g.inv(self.to_gf(a))
        z = self.lift_gf(z0)
        two = self.from_int(2)
        # Newton: z <- z(2 - a z), doubles correct p-digits each round
        steps = max(1, (self.N - 1).bit_length())
        for _ in range(steps + 1):
            z = self.mul(z, self.sub(two, self.mul(a, z)))
        return z

    def zeta(self, e):
        """Primitive e-th root of unity (requires e | p^k - 1), Hensel lifted.

        Computed once per (p, k, N, e) and shared by every ring with that key.
        """
        if e == 1:
            return self.one
        key = (self.p, self.k, self.N, e)
        if key in _ZETA_CACHE:
            return _ZETA_CACHE[key]
        q = self.p**self.k - 1
        if q % e:
            raise ValueError(f"no zeta_{e} in F_{self.p}^{self.k}")
        g = self.gf
        # root of the e-th cyclotomic polynomial over GF
        cyc = _cyclotomic_mod(e, g)
        roots, missing = residue_roots(g, cyc)
        assert roots and not missing
        z = self.lift_gf(roots[0][0])
        e_inv_needed = self.from_int(e)
        steps = max(1, (self.N - 1).bit_length())
        for _ in range(steps + 1):
            ze1 = self.pow(z, e - 1)
            fz = self.sub(self.mul(ze1, z), self.one)
            dz = self.mul(e_inv_needed, ze1)
            z = self.sub(z, self.mul(fz, self.inv_unit(dz)))
        _ZETA_CACHE[key] = z
        return z


_ZETA_CACHE = {}


class GF(UnramifiedRing):
    """F_{p^k} = F_p[t]/(h): the ring at N = 1, elements are int tuples of length k."""

    # bench/tracing.py counts residue-field kernels by patching GF.__dict__;
    # binding them here keeps the p^N ring's own calls out of those counts
    mul = UnramifiedRing.mul
    pow = UnramifiedRing.pow

    def __init__(self, p, k):
        super().__init__(p, k, 1)

    def is_zero(self, a):
        return all(c == 0 for c in a)

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
        p, k = self.p, self.k
        for code in range(p**k):
            coeffs = []
            c = code
            for _ in range(k):
                coeffs.append(c % p)
                c //= p
            yield tuple(coeffs)


def _cyclotomic_mod(e, F):
    """e-th cyclotomic polynomial over GF, by dividing x^e - 1 by lower ones."""
    num = [F.neg(F.one)] + [F.zero] * (e - 1) + [F.one]
    for d in range(1, e):
        if e % d == 0:
            num, rem = gdivmod(F, num, _cyclotomic_mod(d, F))
            assert not rem
    return num


# ---------------------------------------------------------------------------
# tame totally ramified tower
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TameExtension:
    """L = Q_p^nr(pi), pi^e = c*p with gcd(e, p) = 1 and c in {1, -1}."""

    p: int
    e: int
    c: int = 1

    def __post_init__(self):
        if gcd(self.e, self.p) != 1:
            raise ValueError("ramification index must be prime to p")
        if self.c not in (1, -1):
            raise ValueError("uniformizer convention wants c = 1 or -1")


class TameRing:
    """O_L / pi^(e*N) for a tame extension, with residue field F_{p^k}.

    Elements are tuples of e UnramifiedRing elements, the coefficients of
    1, pi, ..., pi^(e-1); pi^e wraps to c*p.
    """

    def __init__(self, ext, k, N):
        self.ext = ext
        self.p, self.e, self.c = ext.p, ext.e, ext.c
        self.k = k
        self.N = N
        self.U = UnramifiedRing(self.p, k, N)
        self.cap = self.e * N  # pi-digits of working precision
        self.zero = (self.U.zero,) * self.e
        self.one = (self.U.one,) + (self.U.zero,) * (self.e - 1)
        self._cp = self.U.from_int(self.c * self.p)

    def from_int(self, n):
        return (self.U.from_int(n),) + (self.U.zero,) * (self.e - 1)

    def from_unram(self, u):
        return (u,) + (self.U.zero,) * (self.e - 1)

    def pi_power(self, m):
        """pi^m as a ring element, 0 <= m."""
        q, r = divmod(m, self.e)
        u = self.U.pow(self._cp, q)
        out = [self.U.zero] * self.e
        out[r] = u
        return tuple(out)

    def add(self, a, b):
        U = self.U
        return tuple(U.add(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        U = self.U
        return tuple(U.sub(x, y) for x, y in zip(a, b))

    def neg(self, a):
        U = self.U
        return tuple(U.neg(x) for x in a)

    def mul(self, a, b):
        U, e = self.U, self.e
        if e == 1:
            return (U.mul(a[0], b[0]),)
        out = [U.zero] * e
        for i, x in enumerate(a):
            if x == U.zero:
                continue
            for j, y in enumerate(b):
                if y == U.zero:
                    continue
                t = U.mul(x, y)
                idx = i + j
                if idx >= e:
                    idx -= e
                    t = U.mul(t, self._cp)
                out[idx] = U.add(out[idx], t)
        return tuple(out)

    def val(self, a):
        """pi-adic valuation, capped at self.cap (= "zero at this precision")."""
        best = self.cap
        for i, u in enumerate(a):
            vu = self.U.val(u)
            if vu < self.N:
                v = self.e * vu + i
                if v < best:
                    best = v
        return best

    def is_zero(self, a):
        return self.val(a) >= self.cap

    def div_pi(self, a, m):
        """Exact division by pi^m; raises if val(a) < m on the representative."""
        q, r = divmod(m, self.e)
        U = self.U
        out = list(a)
        for _ in range(q):
            try:
                out = [U.div_p(u) for u in out]
            except ArithmeticError:
                raise PrecisionStallError("division by pi under-determined")
            if self.c == -1:
                out = [U.neg(u) for u in out]
        for _ in range(r):
            head = out[0]
            try:
                head = U.div_p(head)
            except ArithmeticError:
                raise PrecisionStallError("division by pi under-determined")
            if self.c == -1:
                head = U.neg(head)
            out = out[1:] + [head]
        return tuple(out)

    def inv_unit(self, a):
        if self.val(a) != 0:
            raise ZeroDivisionError("not a unit")
        z = self.from_unram(self.U.inv_unit(a[0]))
        two = self.from_int(2)
        steps = max(1, (self.cap - 1).bit_length())
        for _ in range(steps + 1):
            z = self.mul(z, self.sub(two, self.mul(a, z)))
        return z

    def residue(self, a):
        """Image in F_{p^k} (the pi^0 coordinate mod p)."""
        return self.U.to_gf(a[0])

    def lift_residue(self, r):
        return self.from_unram(self.U.lift_gf(r))

    def zeta(self, order):
        return self.U.zeta(order)

    def galois_map(self, a, zeta, j):
        """Apply tau^j with tau(pi) = zeta*pi: pi^i coefficient gets zeta^(ij)."""
        U = self.U
        e = self.e
        return tuple(
            U.mul(u, U.pow(zeta, (i * j) % e)) for i, u in enumerate(a)
        )


# polynomials over a TameRing: list of elements, index = degree


def rpoly_from_ints(ring, ints):
    return [ring.from_int(c) for c in ints]


def rpoly_eval(ring, poly, x):
    acc = ring.zero
    for c in reversed(poly):
        acc = ring.add(ring.mul(acc, x), c)
    return acc


def rpoly_deriv(ring, poly):
    out = []
    for i in range(1, len(poly)):
        out.append(ring.mul(ring.from_int(i), poly[i]))
    return out


def rpoly_shift(ring, poly, r):
    """poly(r + x) via Horner: acc <- acc*(x + r) + c."""
    acc = []
    for c in reversed(poly):
        new = [ring.zero] * (len(acc) + 1)
        for i, a in enumerate(acc):
            new[i + 1] = a
        for i, a in enumerate(acc):
            new[i] = ring.add(new[i], ring.mul(a, r))
        new[0] = ring.add(new[0], c)
        acc = new
    return acc if acc else [ring.zero]


# ---------------------------------------------------------------------------
# Newton polygons
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NewtonPolygon:
    """Lower convex hull of {(i, ord_p(a_i))} for a polynomial.

    Each slope -lambda of horizontal length l predicts exactly l roots of
    valuation lambda (with multiplicity); zero roots of f show up as a
    leading slope of -infinity so that lengths always sum to deg(f).
    """

    prime: int
    vertices: tuple  # hull vertices ((i, v), ...), i ascending
    slopes: tuple  # ((slope, length), ...) weakly increasing

    def root_valuations(self):
        out = []
        for s, length in self.slopes:
            out.extend([-s if s != -inf else inf] * length)
        return out


def lower_convex_hull(points):
    """Monotone-chain lower hull; input sorted by x, distinct x values."""
    hull = []
    for x, y in points:
        while len(hull) >= 2:
            x1, y1 = hull[-2]
            x2, y2 = hull[-1]
            if (x2 - x1) * (y - y1) <= (y2 - y1) * (x - x1):
                hull.pop()
            else:
                break
        hull.append((x, y))
    return hull


def newton_polygon(f, p):
    """Exact Newton polygon of a nonzero rational polynomial at p."""
    if f.is_zero():
        raise ValueError("Newton polygon of the zero polynomial")
    pts = [(i, q_valuation(f[i], p)) for i in range(f.degree + 1) if f[i] != 0]
    ord0 = pts[0][0]
    hull = lower_convex_hull(pts)
    slopes = []
    if ord0:
        slopes.append((-inf, ord0))
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        s = Fraction(y2 - y1, x2 - x1)
        if slopes and slopes[-1][0] == s:
            slopes[-1] = (s, slopes[-1][1] + (x2 - x1))
        else:
            slopes.append((s, x2 - x1))
    return NewtonPolygon(prime=p, vertices=tuple(hull), slopes=tuple(slopes))


# ---------------------------------------------------------------------------
# root lifting over a TameRing
# ---------------------------------------------------------------------------


def _residue_poly(ring, poly):
    g = ring.U.gf
    out = [ring.residue(c) for c in poly]
    return gtrim(g, out)


def _content_val(ring, poly):
    return min(ring.val(c) for c in poly)


def _newton_lift(ring, poly, dpoly, z):
    """Lift a simple residue root to ring precision (f'(z) stays a unit)."""
    steps = max(2, ring.cap.bit_length() + 2)
    for _ in range(steps):
        fz = rpoly_eval(ring, poly, z)
        if ring.is_zero(fz):
            break
        dz = rpoly_eval(ring, dpoly, z)
        z = ring.sub(z, ring.mul(fz, ring.inv_unit(dz)))
    return z


def _integral_roots(ring, poly, depth=0):
    """All roots of poly with valuation >= 0, as exact ring elements.

    Raises NeedsLargerK when residue factorization leaves the field,
    NeedsLargerE on fractional Newton slopes, PrecisionStallError when the
    working modulus cannot see the digits it needs.
    """
    if depth > ring.cap + 4:
        raise PrecisionStallError("root recursion exceeded precision depth")
    c = _content_val(ring, poly)
    if c >= ring.cap:
        raise PrecisionStallError("polynomial vanishes at working precision")
    if c:
        poly = [ring.div_pi(a, c) for a in poly]
    g = ring.U.gf
    pbar = _residue_poly(ring, poly)
    roots_bar, missing = residue_roots(g, pbar)
    if missing:
        raise NeedsLargerK(ring.k * missing)
    dpoly = rpoly_deriv(ring, poly)
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
            shifted = rpoly_shift(ring, poly, r)
            for s in _cluster_roots(ring, shifted, mult, depth + 1):
                out.append(ring.add(r, s))
    if m0:
        out.extend(_cluster_roots(ring, poly, m0, depth + 1))
    return out


def _cluster_roots(ring, poly, expected, depth):
    """The `expected` roots of poly with strictly positive valuation."""
    if depth > ring.cap + 4:
        raise PrecisionStallError("root recursion exceeded precision depth")
    out = []
    poly = list(poly)
    while expected > 0 and ring.val(poly[0]) >= ring.cap:
        # constant term invisible at this precision: either an exact zero
        # root or an unresolvably deep one; certification arbitrates later
        out.append(ring.zero)
        expected -= 1
        poly = poly[1:]
        if len(poly) <= 1:
            return out
    if expected == 0:
        return out
    pts = [(i, ring.val(poly[i])) for i in range(len(poly)) if ring.val(poly[i]) < ring.cap]
    if not pts or pts[0][0] != 0:
        raise PrecisionStallError("cluster slope invisible at working precision")
    hull = lower_convex_hull(pts)
    neg = [((Fraction(y2 - y1, x2 - x1)), (x1, y1), (x2, y2))
           for (x1, y1), (x2, y2) in zip(hull, hull[1:])
           if y2 < y1]
    if not neg:
        raise PrecisionStallError("no descending Newton slope for cluster")
    lam = -neg[-1][0]  # smallest positive root valuation, in pi units
    if lam.denominator != 1:
        raise NeedsLargerE(lam.denominator)
    lam = int(lam)
    scaled = [ring.mul(a, ring.pi_power(lam * i)) for i, a in enumerate(poly)]
    for r in _integral_roots(ring, scaled, depth + 1):
        out.append(ring.mul(ring.pi_power(lam), r))
    return out


def _certify(ring, fpoly, dfpoly, roots):
    """Newton-ball certification of candidate roots against the original f.

    Returns per-root (fval, ball) in pi digits, where the true root lies
    within pi^ball of the candidate; raises on uncertifiable candidates or
    when pairwise distances are not resolved inside the balls.
    """
    data = []
    for z in roots:
        a = ring.val(rpoly_eval(ring, fpoly, z))
        b = ring.val(rpoly_eval(ring, dfpoly, z))
        if b >= ring.cap or a - 2 * b < 1:
            raise PrecisionStallError("root fails Newton certification")
        data.append((a, a - b))
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            d = ring.val(ring.sub(roots[i], roots[j]))
            if d >= min(data[i][1], data[j][1]):
                raise PrecisionStallError("roots not separated within balls")
    return data


def multiplicative_order(p, e):
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
    """Roots of f over the tame ring, with certification data."""

    def __init__(self, ring, roots, cert):
        self.ring = ring
        self.roots = roots
        self.cert = cert

    def pairwise_val(self, i, j):
        """Exact v(alpha_i - alpha_j) in p units (Fraction)."""
        d = self.ring.val(self.ring.sub(self.roots[i], self.roots[j]))
        return Fraction(d, self.ring.e)

    def root_val(self, i):
        return Fraction(self.ring.val(self.roots[i]), self.ring.e)


def lift_over_ring(f_ints, p, e, c=1, k=1, n_digits=DEFAULT_PI_DIGITS):
    """Lift all roots of an integer polynomial over L = Q_p^nr(pi), pi^e = c p.

    Grows the residue field and the working precision as needed; propagates
    NeedsLargerE (insufficient ramification) to the caller.  Requires the
    leading coefficient to be a p-adic unit so all roots are integral.
    """
    if f_ints[-1] % p == 0:
        raise ValueError("leading coefficient must be a p-adic unit")
    k = k * multiplicative_order(p, e) // gcd(k, multiplicative_order(p, e))
    N = n_digits
    ceiling = max_pi_digits()
    while True:
        ring = TameRing(TameExtension(p, e, c), k, N)
        fpoly = rpoly_from_ints(ring, f_ints)
        try:
            roots = _integral_roots(ring, fpoly)
            cert = _certify(ring, fpoly, rpoly_deriv(ring, fpoly), roots)
            return SplitRoots(ring, roots, cert)
        except NeedsLargerK as ex:
            if ex.k > HARD_K_CAP:
                raise RuntimeError(f"residue degree {ex.k} out of range for quartics")
            ord_e = multiplicative_order(p, e)
            k = ex.k * ord_e // gcd(ex.k, ord_e)
        except PrecisionStallError:
            if N * 2 * e > ceiling:
                raise
            N *= 2


def _unramified_images(U, U2):
    """Images of 1, t, ..., t^(k-1) under O/p^N at degree k -> degree k' (k | k').

    The map is the identity when the degrees agree and t -> theta otherwise,
    theta the Hensel lift of the first root of h_k that residue_roots gives
    in F_{p^k'}.
    """
    k = U.k
    if U2.k == k:
        return [tuple(int(i == j) for i in range(k)) for j in range(k)]
    h = [U2.from_int(c) for c in U.gf.h]
    dh = rpoly_deriv(U2, h)
    roots, _ = residue_roots(U2.gf, [U2.to_gf(c) for c in h])
    theta = U2.lift_gf(roots[0][0])
    for _ in range(max(1, (U2.N - 1).bit_length()) + 1):
        step = U2.mul(rpoly_eval(U2, h, theta), U2.inv_unit(rpoly_eval(U2, dh, theta)))
        theta = U2.sub(theta, step)
    images = [U2.one]
    for _ in range(1, k):
        images.append(U2.mul(images[-1], theta))
    return images


def extend_split(sr):
    """The roots of sr over pi'^(3e) = c*p (the cube twist), through pi = pi'^3.

    No root is lifted again: the pi^i coefficient of each root moves to index
    3i and every certified (fval, ball) pair is multiplied by 3, while N and
    c stay.  The residue field grows to k' = lcm(k, ord_{3e}(p)), so that
    zeta_{3e} lives in it, along _unramified_images.  Root order is kept.
    """
    ring = sr.ring
    r = 3
    e = r * ring.e
    ord_e = multiplicative_order(ring.p, e)
    k = ring.k * ord_e // gcd(ring.k, ord_e)
    big = TameRing(TameExtension(ring.p, e, ring.c), k, ring.N)
    U2 = big.U
    images = _unramified_images(ring.U, U2)
    mod = U2.mod
    roots = []
    for root in sr.roots:
        out = [U2.zero] * e
        for i, u in enumerate(root):
            out[r * i] = tuple(
                sum(c * img[j] for c, img in zip(u, images)) % mod for j in range(k)
            )
        roots.append(tuple(out))
    return SplitRoots(big, roots, [(r * a, r * ball) for a, ball in sr.cert])


TAME_E_CANDIDATES = (1, 2, 3, 4, 6, 8, 12, 24)


class WildSplittingError(Exception):
    """No tame extension in the candidate list splits f at this prime."""


def split_over_minimal_tame(f_ints, p, c=1):
    """Find the minimal tame e with f split over Q_p^nr(p^(1/e)).

    Returns (e, SplitRoots); raises WildSplittingError if no tame candidate
    works (possible only for p = 2, 3, where the splitting field can be
    wildly ramified).
    """
    for e in TAME_E_CANDIDATES:
        if gcd(e, p) != 1:
            continue
        try:
            return e, lift_over_ring(f_ints, p, e, c=c)
        except NeedsLargerE:
            continue
    raise WildSplittingError(f"no tame extension of index | 24 splits f at {p}")


@dataclass
class ApproxRoot:
    """A root as a truncated pi-adic expansion with a certified ball.

    valuation and precision are rationals in p units; the true root agrees
    with value to pi-valuation at least e*precision.  expansion lists
    (exponent, residue-field digit) pairs up to the precision cutoff.
    """

    ring: object
    value: tuple
    valuation: Fraction
    precision: Fraction

    def expansion(self, max_digits=12):
        ring = self.ring
        out = []
        x = self.value
        cutoff = self.precision * ring.e
        for _ in range(max_digits):
            v = ring.val(x)
            if v >= cutoff or v >= ring.cap:
                break
            digit = ring.residue(ring.div_pi(x, v))
            out.append((Fraction(v, ring.e), digit))
            lifted = ring.mul(ring.lift_residue(digit), ring.pi_power(v))
            x = ring.sub(x, lifted)
        return out


def lift_roots(f, ext: TameExtension, target_precision):
    """All roots of a separable integral polynomial over the tame extension.

    target_precision is the demanded certification radius in p units.
    Raises InsufficientExtensionError when a root needs ramification beyond
    ext.e, and PrecisionStallError when separation/certification cannot be
    reached under the precision ceiling.
    """
    ints = [int(c) for c in f.coeffs]
    target = Fraction(target_precision)
    n_digits = max(DEFAULT_PI_DIGITS, int(target) + 4)
    while True:
        try:
            sr = lift_over_ring(ints, ext.p, ext.e, c=ext.c, n_digits=n_digits)
        except NeedsLargerE as ex:
            raise InsufficientExtensionError(
                f"roots need ramification index {ext.e * ex.factor}"
            )
        balls = [Fraction(ball, sr.ring.e) for _, ball in sr.cert]
        if min(balls) >= target:
            return [
                ApproxRoot(
                    ring=sr.ring,
                    value=sr.roots[i],
                    valuation=sr.root_val(i),
                    precision=balls[i],
                )
                for i in range(len(sr.roots))
            ]
        if n_digits * 2 * ext.e > max_pi_digits():
            raise PrecisionStallError(
                "target precision exceeds the working-precision ceiling"
            )
        n_digits *= 2

"""Exact integer, rational and polynomial arithmetic.

Numeric substrate for the whole package: arbitrary-precision integers are
Python ints, rationals are ``fractions.Fraction`` (always in lowest terms),
and polynomials carry exact rational coefficients.  No floating point is
used anywhere; ``math.inf`` appears only as the sentinel for v_p(0).
"""

from fractions import Fraction
from math import gcd, inf


class Poly:
    """Univariate polynomial with exact rational coefficients.

    Coefficients are stored dense, index = degree of the term.  The zero
    polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    @property
    def lc(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, i):
        return self.coeffs[i] if 0 <= i <= self.degree else Fraction(0)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self[i] + other[i] for i in range(n)])

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return Poly([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out)

    def scale(self, c):
        c = Fraction(c)
        return Poly([a * c for a in self.coeffs])

    def __call__(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self):
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def compose_linear(self, a, b):
        """Return f(a*x + b), exactly."""
        a, b = Fraction(a), Fraction(b)
        acc = Poly([])
        lin = Poly([b, a])
        for c in reversed(self.coeffs):
            acc = acc * lin + Poly([c])
        return acc

    def shift(self, b):
        """Return f(x + b)."""
        return self.compose_linear(1, b)

    def is_integral(self):
        return all(c.denominator == 1 for c in self.coeffs)

    def int_coeffs(self):
        if not self.is_integral():
            raise ValueError("polynomial has non-integer coefficients")
        return tuple(int(c) for c in self.coeffs)

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(f"{c}")
            elif i == 1:
                terms.append(f"{c}*x" if c != 1 else "x")
            else:
                terms.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return "Poly(" + " + ".join(terms) + ")"


def poly_from_ints(coeffs_high_to_low):
    """Build a Poly from coefficients listed highest degree first."""
    return Poly(list(reversed(coeffs_high_to_low)))


def resultant(f, g):
    """Exact resultant of two nonzero polynomials.

    Convention: res(f, g) = det Syl(f, g) = lc(f)^deg(g) * prod g(alpha)
    over the roots alpha of f.  res(f, g) = 0 iff f and g share a root.
    """
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of the zero polynomial is undefined")
    m, n = f.degree, g.degree
    if m == 0:
        return f.lc ** n
    if n == 0:
        return g.lc ** m
    size = m + n
    rows = []
    fc, gc = f.coeffs, g.coeffs
    for i in range(n):
        row = [Fraction(0)] * size
        for j, c in enumerate(reversed(fc)):
            row[i + j] = c
        rows.append(row)
    for i in range(m):
        row = [Fraction(0)] * size
        for j, c in enumerate(reversed(gc)):
            row[i + j] = c
        rows.append(row)
    return _det(rows)


def _det(rows):
    """Determinant by exact fraction Gaussian elimination."""
    n = len(rows)
    sign = 1
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            sign = -sign
        pval = rows[col][col]
        det *= pval
        for r in range(col + 1, n):
            factor = rows[r][col] / pval
            if factor:
                rr, rc = rows[r], rows[col]
                for c in range(col, n):
                    rr[c] -= factor * rc[c]
    return det * sign


def disc_quartic_monic(a3, a2, a1, a0):
    """Discriminant of x^4 + a3 x^3 + a2 x^2 + a1 x + a0.

    Closed form of (-1)^6 res(f, f'); exact for ints and for Fractions.
    tests/test_exact.py pins it against ``resultant``.
    """
    a0_2 = a0 * a0
    a1_2 = a1 * a1
    a3_2 = a3 * a3
    a2_2 = a2 * a2
    return (
        256 * a0 * a0_2
        - 192 * a0_2 * a1 * a3
        - 128 * a0_2 * a2_2
        + 144 * a0_2 * a2 * a3_2
        - 27 * a0_2 * a3_2 * a3_2
        + 144 * a0 * a1_2 * a2
        - 6 * a0 * a1_2 * a3_2
        - 80 * a0 * a1 * a2_2 * a3
        + 18 * a0 * a1 * a2 * a3 * a3_2
        + 16 * a0 * a2_2 * a2_2
        - 4 * a0 * a2 * a2_2 * a3_2
        - 27 * a1_2 * a1_2
        + 18 * a1 * a1_2 * a2 * a3
        - 4 * a1 * a1_2 * a3 * a3_2
        - 4 * a1_2 * a2 * a2_2
        + a1_2 * a2_2 * a3_2
    )


def discriminant(f):
    """Discriminant of a degree-4 polynomial, as a Fraction.

    Delta(f) = lc^6 * Delta(f / lc), with the monic closed form evaluated on
    plain ints when f is monic and integral; Delta(f) = 0 iff f is
    inseparable.  Equals (-1)^(d(d-1)/2) * res(f, f') / lc(f) with d = 4.
    """
    if f.degree != 4:
        raise ValueError("discriminant is only defined here for quartics")
    lc = f.lc
    if lc == 1 and f.is_integral():
        return Fraction(disc_quartic_monic(*(c.numerator for c in f.coeffs[3::-1])))
    return lc**6 * disc_quartic_monic(*(c / lc for c in f.coeffs[3::-1]))


def valuation(q, p):
    """p-adic valuation of a rational, with v_p(0) = +inf.

    Satisfies v(ab) = v(a) + v(b) and the ultrametric inequality
    v(a+b) >= min(v(a), v(b)), with equality when v(a) != v(b).
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    q = Fraction(q)
    if q == 0:
        return inf
    return _int_val(q.numerator, p) - _int_val(q.denominator, p)


def _int_val(n, p):
    n = abs(n)
    v = 0
    while n % p == 0:
        v += 1
        n //= p
    return v


# Deterministic Miller-Rabin witness sets (Sorenson-Webster / Jaeschke).
_MR_THRESHOLDS = [
    (2047, (2,)),
    (1373653, (2, 3)),
    (9080191, (31, 73)),
    (25326001, (2, 3, 5)),
    (3215031751, (2, 3, 5, 7)),
    (4759123141, (2, 7, 61)),
    (1122004669633, (2, 13, 23, 1662803)),
    (2152302898747, (2, 3, 5, 7, 11)),
    (3474749660383, (2, 3, 5, 7, 11, 13)),
    (341550071728321, (2, 3, 5, 7, 11, 13, 17)),
    (3825123056546413051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (318665857834031151167461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
    (3317044064679887385961981, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
]

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(n):
    """Primality test, unconditional below 3.3e24 via fixed MR witness sets.

    Above that bound the first 25 primes are used as witnesses, which is far
    beyond anything the bounded searches here produce.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for bound, bases in _MR_THRESHOLDS:
        if n < bound:
            break
    else:
        bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                 59, 61, 67, 71, 73, 79, 83, 89, 97)
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Work factor_integer may spend on one composite cofactor n before it gives
# up: Brent rho takes RHO_BUDGET // n.bit_length() steps (evaluations of
# y -> y^2 + c, over all increments c).  A prime factor q takes about
# sqrt(q) steps, so below 2^64 (a factor under 2^32, 2^20 steps allowed)
# rho has a wide margin; fewer steps for longer cofactors keep the time to
# give up near a second (0.3 s at 46 digits, 1.3 s at 830 on a 2-core host).
RHO_BUDGET = 1 << 26
RHO_BATCH = 128  # steps whose differences share one gcd


class FactorizationBudgetError(ValueError):
    """Brent rho used up its RHO_BUDGET work on a cofactor without splitting it."""


def _digits(n):
    """Number of decimal digits of n >= 1 (str(n) is capped for huge ints)."""
    d = (n.bit_length() - 1) * 30102 // 100000  # <= floor(log10(n))
    while 10**d <= n:
        d += 1
    return d


def _pollard_rho(n):
    """Find a nontrivial factor of odd composite n (Brent's cycle variant).

    Fixed seed/increment schedule keeps the whole factorization deterministic.
    Raises FactorizationBudgetError once RHO_BUDGET // n.bit_length() steps
    are spent.
    """
    if n % 2 == 0:
        return 2
    budget = RHO_BUDGET // n.bit_length()
    steps = 0

    def spend(k):
        nonlocal steps
        steps += k
        if steps > budget:
            raise FactorizationBudgetError(
                f"cannot factor a {_digits(n)}-digit cofactor within {budget} rho steps"
            )

    for c in range(1, 64):
        y, r, q, d = 2, 1, 1, 1
        while d == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            spend(r)
            k = 0
            while k < r and d == 1:
                ys = y
                m = min(RHO_BATCH, r - k)
                for _ in range(m):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                spend(m)
                d = gcd(q, n)
                k += m
            r *= 2
        if d == n:  # the batch overshot: step again from its start, one gcd each
            d = 1
            while d == 1:
                ys = (ys * ys + c) % n
                spend(1)
                d = gcd(x - ys, n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed to split {n}")


def factor_integer(n):
    """Complete factorization of a nonzero integer.

    Returns (sign, [(p, e), ...]) with primes ascending.  Trial division by
    small primes first, then Brent rho on any remaining composite cofactor;
    every reported prime passes is_prime.  Raises FactorizationBudgetError
    when rho cannot split a cofactor within its budget (see RHO_BUDGET).
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    sign = -1 if n < 0 else 1
    n = abs(n)
    factors = {}
    for p in range(2, 100_000):
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return sign, sorted(factors.items())


def _iroot(n, k):
    """floor(n^(1/k)) for n >= 1, in integers only.

    The root of n >> (k*h), for h half the root's bits, rounded up and
    shifted back gives an upper bound close enough for integer Newton from
    above, which stops at the floor.
    """
    bits = (n.bit_length() - 1) // k + 1  # the root has at most this many bits
    if bits == 1:
        return 1
    h = bits // 2
    x = (_iroot(n >> (k * h), k) + 1) << h
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def nth_root_exact(n, k):
    """Integer k-th root of n >= 0 if it is exact, else None."""
    if n < 0:
        return None
    if n in (0, 1):
        return n
    r = _iroot(n, k)
    return r if r**k == n else None

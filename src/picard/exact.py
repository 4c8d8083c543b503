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
# Below this bound the witness sets of _MR_THRESHOLDS make is_prime a proof;
# at or above it a pass is only a probable prime.
MR_DETERMINISTIC_BOUND = 3317044064679887385961981

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
    (MR_DETERMINISTIC_BOUND, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
]

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
# factor_integer trial-divides by the primes below 2^10; Brent rho finds any
# larger factor.  An odd composite below 2^10 has a prime factor <= 31.
_TRIAL_PRIMES = _SMALL_PRIMES + tuple(
    n for n in range(49, 1 << 10, 2) if all(n % q for q in _SMALL_PRIMES[1:11])
)


def is_prime(n):
    """Primality test, unconditional below MR_DETERMINISTIC_BOUND (3.3e24).

    Below the bound fixed Miller-Rabin witness sets decide; at or above it
    the first 25 primes are used as witnesses, so a pass is a probable prime
    (``analyze_prime`` notes this on its report).  That is far beyond
    anything the bounded searches here produce.
    """
    return _is_prime(n, None)


def _is_prime(n, budget):
    """is_prime, charging each Miller-Rabin round to budget (a _Budget or None)."""
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
        if budget is not None:
            budget.spend(n.bit_length() ** 2, n)
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


# Work one factor_integer call may spend after trial division, in bit-steps:
# a rho step (y -> y^2 + c mod n) costs n.bit_length() and a Miller-Rabin
# round on n, about n.bit_length() modular squarings, costs its square.  A
# prime factor q takes rho about sqrt(q) steps, so below 2^64 (a factor
# under 2^32, 2^20 steps allowed) rho has a wide margin.  Rho gives up on a
# 46-digit cofactor after about 0.2 s, and a cofactor above about 490
# digits cannot pay for the 25 rounds that would prove it prime, so a huge
# input fails at once instead of after minutes of primality tests.
FACTOR_BUDGET = 1 << 26
RHO_BATCH = 128  # steps whose differences share one gcd


class FactorizationBudgetError(ValueError):
    """factor_integer used up its FACTOR_BUDGET work before finishing."""


class _Budget:
    """The FACTOR_BUDGET work left to one factor_integer call."""

    def __init__(self):
        self.left = FACTOR_BUDGET

    def spend(self, cost, n):
        """Charge cost bit-steps of work on the cofactor n."""
        self.left -= cost
        if self.left < 0:
            raise FactorizationBudgetError(
                f"cannot factor a {_digits(n)}-digit cofactor within the budget"
                f" of {FACTOR_BUDGET} bit-steps"
            )


def _digits(n):
    """Number of decimal digits of n >= 1 (str(n) is capped for huge ints)."""
    d = (n.bit_length() - 1) * 30102 // 100000  # <= floor(log10(n))
    while 10**d <= n:
        d += 1
    return d


def _pollard_rho(n, budget):
    """Find a nontrivial factor of odd composite n (Brent's cycle variant).

    Fixed seed/increment schedule keeps the whole factorization deterministic.
    Each step is charged to budget, which raises FactorizationBudgetError
    once the call's FACTOR_BUDGET is spent.
    """
    if n % 2 == 0:
        return 2
    bits = n.bit_length()

    def spend(k):
        budget.spend(k * bits, n)

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
    small primes first; a remaining composite cofactor that is an exact q-th
    power, q prime, is split into q copies of its root, and any other goes
    to Brent rho.  Every reported prime passes is_prime.  The primality
    tests and rho steps of one call share one FACTOR_BUDGET;
    FactorizationBudgetError, naming the digit count of the cofactor at
    hand, is raised when it runs out.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    sign = -1 if n < 0 else 1
    n = abs(n)
    factors = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    budget = _Budget()
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_prime(m, budget):
            factors[m] = factors.get(m, 0) + 1
            continue
        root = _perfect_power_root(m)
        if root is not None:
            stack.extend([root[0]] * root[1])
            continue
        d = _pollard_rho(m, budget)
        stack.append(d)
        stack.append(m // d)
    return sign, sorted(factors.items())


def _perfect_power_root(m):
    """(r, q) with r^q = m for a prime q, or None; m has no prime factor below 1024.

    Rho needs about sqrt(r) steps on r^2, where one exact root splits it.
    Every prime factor of m is above 2^10, so q < m.bit_length() / 10.
    """
    for q in _TRIAL_PRIMES:
        if 10 * q >= m.bit_length():
            return None
        r = nth_root_exact(m, q)
        if r is not None:
            return r, q
    return None


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

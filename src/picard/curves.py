"""Picard curves y^3 = f(x) over Q: normalization, equivalence, reduction tests.

A Picard curve is represented by a separable quartic f.  ``normalize`` brings
any rational quartic to the canonical model used everywhere else: monic,
integer coefficients, and minimal at every prime under the substitution group
x -> u^-3 x + b, y -> u^-4 y (times u^12 on the equation).  Under that group
Delta(f) scales by u^36, so a minimal model satisfies 0 <= ord_p(Delta) < 36
whenever the bound is attainable at all.

A ``PicardCurve`` keeps f as the ints ``coeffs = (a0, a1, a2, a3, 1)``,
index = degree; no other module builds or converts them.  ``normalize``
computes one Delta and one factorization per curve (again only after a
descale); Fractions appear only for non-monic or non-integral input.
"""

from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    Poly,
    disc_quartic_monic,
    discriminant,  # noqa: F401  (unused here; bench/tracing.py wraps this binding)
    factor_integer,
    nth_root_exact,
    poly_from_ints,
    valuation,
)


@dataclass(frozen=True)
class EquivalenceWitness:
    """Substitution x -> (u^-3 x + shift)/lc, y -> u^-4 y / lc.

    ``apply`` sends the source quartic to the target: for lc = 1 this is
    exactly the scaling-plus-translation group; lc != 1 only appears in
    witnesses returned by normalize() for non-monic input, where the first
    step divides out the leading coefficient.
    """

    u: Fraction
    shift: Fraction
    lc: Fraction = Fraction(1)

    def apply(self, f):
        a = Fraction(1) / (self.u**3 * self.lc)
        b = self.shift / self.lc
        return f.compose_linear(a, b).scale(self.u**12 * self.lc**3)

    def is_identity(self):
        return self.u == 1 and self.shift == 0 and self.lc == 1

    def compose_scale_shift(self, s, t):
        """Follow this witness with x -> s^-3 x + t (monic stage only)."""
        return EquivalenceWitness(
            u=self.u * s,
            shift=self.shift + t / (self.u**3),
            lc=self.lc,
        )


class InseparableCurveError(ValueError):
    """Raised when the defining quartic has a repeated root."""


class PicardCurve:
    """A normalized Picard curve: the int tuple ``coeffs`` and its Delta."""

    __slots__ = ("coeffs", "disc", "disc_sign", "disc_factors", "label")

    def __init__(self, f, label=None):
        if f.degree != 4 or f.lc != 1 or not f.is_integral():
            raise ValueError("PicardCurve wants a monic integral quartic")
        self.coeffs = f.int_coeffs()
        self.disc = disc_quartic_monic(*self.coeffs[3::-1])
        if self.disc == 0:
            raise InseparableCurveError("quartic is inseparable")
        self.disc_sign, self.disc_factors = factor_integer(self.disc)
        self.label = label if label is not None else curve_text(self.coeffs)

    @property
    def f(self):
        return Poly(self.coeffs)

    def ord_disc(self, p):
        for q, e in self.disc_factors:
            if q == p:
                return e
        return 0

    def bad_prime_candidates(self):
        """Primes dividing Delta, plus 3 (always bad there)."""
        ps = {p for p, _ in self.disc_factors}
        ps.add(3)
        return sorted(ps)

    def __eq__(self, other):
        return isinstance(other, PicardCurve) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"PicardCurve({self.label})"


def curve_text(f):
    """Serialize a quartic (Poly or coeffs) to the CLI format [a4,a3,a2,a1,a0]."""
    return "[" + ",".join(str(int(f[i])) for i in range(4, -1, -1)) + "]"


def parse_curve_text(s):
    s = s.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError(f"bad curve text {s!r}, want [a4,a3,a2,a1,a0]")
    parts = [part.strip() for part in s[1:-1].split(",")]
    if len(parts) != 5:
        raise ValueError("curve text needs exactly 5 coefficients")
    return poly_from_ints([int(part) for part in parts])


def _shift(coeffs, t):
    """Coefficients of f(x + t) (Taylor shift by repeated synthetic division)."""
    c = list(coeffs)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += t * c[j + 1]
    return tuple(c)


def _descale_shift(coeffs, p):
    """(t, p^-12 f(p^3 x + t)) for the translation t that keeps it integral, or None.

    That needs ord_p(a_i(f(x+t))) >= 3(4-i) for all i, so f == (x-t)^4 mod p:
    for p > 2 the only candidate mod p^3 comes from killing the cubic
    coefficient; for p = 2 all residues mod 8 are tried.
    """
    p3 = p**3
    for t in range(8) if p == 2 else [(-coeffs[3] * pow(4, -1, p3)) % p3]:
        g = _shift(coeffs, t)
        if all(g[i] % p ** (3 * (4 - i)) == 0 for i in range(4)):
            return t, tuple(a // p ** (3 * (4 - i)) for i, a in enumerate(g))
    return None


def normalize(f_raw, label=None):
    """Normalize a separable rational quartic to its canonical minimal model.

    Returns (PicardCurve, EquivalenceWitness) with the witness mapping f_raw
    to the model.  Raises InseparableCurveError when Delta(f_raw) = 0.
    Idempotent: normalizing a normalized curve gives the identity witness.
    """
    if f_raw.degree != 4:
        raise ValueError("need a quartic")
    lc = f_raw.lc
    f = f_raw if lc == 1 else f_raw.compose_linear(Fraction(1) / lc, 0).scale(lc**3)
    wit = EquivalenceWitness(u=Fraction(1), shift=Fraction(0), lc=lc)

    # clear denominators: a_i scales by u^{3(4-i)}
    den_primes = set()
    for c in f.coeffs:
        if c.denominator != 1:
            _, fac = factor_integer(c.denominator)
            den_primes.update(q for q, _ in fac)
    for p in sorted(den_primes):
        m = 0
        for i in range(4):
            v = valuation(f[i], p)
            if v < 0:
                # smallest m with v + 3m(4-i) >= 0
                m = max(m, (-v + 3 * (4 - i) - 1) // (3 * (4 - i)))
        if m:
            u = Fraction(p) ** m
            f = f.compose_linear(Fraction(1) / u**3, 0).scale(u**12)
            wit = wit.compose_scale_shift(u, Fraction(0))

    # per-prime maximal descaling, ord_p(Delta) -36 each time: u = 1/p is a
    # unit away from p, so no other prime's exponent or descale moves
    curve = PicardCurve(f, label=label)
    coeffs = curve.coeffs
    for p, e in curve.disc_factors:
        while e >= 36 and (descaled := _descale_shift(coeffs, p)) is not None:
            t, coeffs = descaled
            wit = wit.compose_scale_shift(Fraction(1, p), Fraction(t))
            e -= 36
    if coeffs != curve.coeffs:
        curve = PicardCurve(Poly(coeffs), label=label)
    return curve, wit


def equivalent(c1, c2):
    """Witness for c2 = (scaling + translation) of c1, or None.

    Delta(c2)/Delta(c1) = u^36 pins |u|; the translation is solved from the
    cubic coefficients and the full polynomial identity is then verified.
    Ties between +u and -u report the positive u.
    """
    ratio = Fraction(c2.disc, c1.disc)
    if ratio <= 0:
        return None
    rn = nth_root_exact(ratio.numerator, 36)
    rd = nth_root_exact(ratio.denominator, 36)
    if rn is None or rd is None:
        return None
    t = Fraction(rn, rd)
    f1, f2 = c1.f, c2.f
    for u in (t, -t):
        b = (f2[3] / u**3 - f1[3]) / 4
        wit = EquivalenceWitness(u=u, shift=b)
        if wit.apply(f1) == f2:
            return wit
    return None


def good_reduction_at(curve, p):
    """Good reduction test at p != 3: Delta a p-unit (minimal model).

    At p = 3 a Picard curve over Q never has good reduction, so asking is a
    domain error.
    """
    if p == 3:
        raise ValueError("every Picard curve over Q has bad reduction at 3")
    return curve.ord_disc(p) == 0


def exceptional_prime_candidate(curve, p):
    """Screen for exceptional primes: bad reduction but f_p = 0 possible.

    Requires ord_p(Delta) in {6, 12} and the splitting field of f unramified
    at p.  Stated for p not dividing 6; returns False outside that range.
    """
    if 6 % p == 0:
        return False
    if curve.ord_disc(p) not in (6, 12):
        return False
    from .clusters import splitting_ramification

    ram = splitting_ramification(curve.f, p)
    return ram.tame and ram.e == 1

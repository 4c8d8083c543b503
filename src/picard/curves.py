"""Picard curves y^3 = f(x) over Q: normalization, equivalence, reduction tests.

A Picard curve is represented by a separable quartic f.  ``normalize`` brings
any rational quartic to the canonical model used everywhere else: monic,
integer coefficients, and minimal at every prime under the substitution group
x -> u^-3 x + b, y -> u^-4 y (times u^12 on the equation).  Under that group
Delta(f) scales by u^36, so a minimal model satisfies 0 <= ord_p(Delta) < 36
whenever the bound is attainable at all.
"""

from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    Poly,
    disc_quartic_monic,  # noqa: F401  (re-exported; tests import it from here)
    discriminant,
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
    """A normalized Picard curve with cached discriminant data."""

    __slots__ = ("f", "disc", "disc_sign", "disc_factors", "label")

    def __init__(self, f, label=None):
        if f.degree != 4 or f.lc != 1 or not f.is_integral():
            raise ValueError("PicardCurve wants a monic integral quartic")
        d = discriminant(f)
        if d == 0:
            raise InseparableCurveError("quartic is inseparable")
        self.f = f
        self.disc = int(d)
        self.disc_sign, self.disc_factors = factor_integer(self.disc)
        self.label = label if label is not None else curve_text(f)

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
        return isinstance(other, PicardCurve) and self.f == other.f

    def __hash__(self):
        return hash(self.f)

    def __repr__(self):
        return f"PicardCurve({self.label})"


def curve_text(f):
    """Serialize a quartic to the CLI/persistence format [a4,a3,a2,a1,a0]."""
    return "[" + ",".join(str(int(f[i])) for i in range(4, -1, -1)) + "]"


def parse_curve_text(s):
    s = s.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError(f"bad curve text {s!r}, want [a4,a3,a2,a1,a0]")
    parts = [part.strip() for part in s[1:-1].split(",")]
    if len(parts) != 5:
        raise ValueError("curve text needs exactly 5 coefficients")
    return poly_from_ints([int(part) for part in parts])


def _descale_shift(f, p):
    """Translation t with ord_p(a_i(f(x+t))) >= 3(4-i) for all i, or None.

    A necessary condition is f == (x-t)^4 mod p, so for p > 2 the only
    candidate mod p^3 comes from killing the cubic coefficient; for p = 2
    all residues mod 8 are tried.
    """
    p3 = p**3
    if p == 2:
        candidates = range(8)
    else:
        inv4 = pow(4, -1, p3)
        candidates = [(-int(f[3]) * inv4) % p3]
    for t in candidates:
        g = f.shift(t)
        if all(valuation(g[i], p) >= 3 * (4 - i) for i in range(4)):
            return t
    return None


def normalize(f_raw, label=None):
    """Normalize a separable rational quartic to its canonical minimal model.

    Returns (PicardCurve, EquivalenceWitness) with the witness mapping f_raw
    to the model.  Raises InseparableCurveError when Delta(f_raw) = 0.
    Idempotent: normalizing a normalized curve gives the identity witness.
    """
    if f_raw.degree != 4:
        raise ValueError("need a quartic")
    if discriminant(f_raw) == 0:
        raise InseparableCurveError("quartic is inseparable")

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

    # per-prime maximal descaling (drops ord_p(Delta) by 36 each round)
    changed = True
    while changed:
        changed = False
        d = discriminant(f)
        _, fac = factor_integer(d.numerator)
        for p, e in fac:
            while e >= 36:
                t = _descale_shift(f, p)
                if t is None:
                    break
                u = Fraction(1, p)
                f = f.shift(t).compose_linear(Fraction(p**3), 0).scale(u**12)
                wit = wit.compose_scale_shift(u, Fraction(t))
                e -= 36
                changed = True

    curve = PicardCurve(f, label=label)
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
    for u in (t, -t):
        b = (Fraction(c2.f[3]) / u**3 - c1.f[3]) / 4
        wit = EquivalenceWitness(u=u, shift=b)
        if wit.apply(c1.f) == c2.f:
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

"""Conductor exponents per prime and the global conductor N = prod p^(f_p).

Tame primes (p >= 5, and p = 2 with tamely ramified splitting field) get
f_p = epsilon computed from the inertia quotient of the special fiber, with
delta = 0.  p = 3 is always bad; without a witness the report is the bound
4 <= f_3 <= 21, with a valid tame witness f_3 is computed (or pinned to
[5, 6] for the two loop types).  Wild p = 2 reports carry the constraints
2 <= f_2 <= 28 and f_2 != 1.
"""

from .clusters import splitting_ramification
from .curves import PicardCurve, normalize
from .exact import MR_DETERMINISTIC_BOUND, is_prime, poly_from_ints
from .inertia import analyze_tame
from .record import FrozenRecord
from .wild3 import WildWitness, WitnessInvalidError, verify_witness

P3_BOUND_HI_DEFAULT = 21
P2_WILD_HI = 28  # genus-3 abelian-variety bound at p = 2
PROBABLE_PRIME_NOTE = "p is a probable prime: Miller-Rabin is not a proof at or above 3.3e24"


class ConductorReport(FrozenRecord):
    """Per-prime conductor data; f_lo == f_hi iff status == "computed".

    status is "computed", "bounded" or "unknown-wild".  detail is left out
    of eq and hash.
    """

    __slots__ = (
        "p", "status", "f_lo", "f_hi", "reduction_type", "epsilon", "delta",
        "exceptional", "notes", "detail",
    )
    _compare = __slots__[:-1]

    def __init__(self, p: int, status: str, f_lo: int, f_hi: int, reduction_type: str | None = None,
                 epsilon: int | None = None, delta: int | None = None, exceptional: bool = False,
                 notes: tuple = (), detail: dict | None = None):
        if status == "computed" and f_lo != f_hi:
            raise ValueError("computed report needs a single f_p value")
        if p == 3 and f_lo < 4:
            raise ValueError("f_3 >= 4 for every Picard curve over Q")
        if p == 2 and f_lo == f_hi == 1:
            raise ValueError("f_2 = 1 is impossible")
        self._set(p, status, f_lo, f_hi, reduction_type, epsilon, delta, exceptional,
                  notes, {} if detail is None else detail)

    @property
    def f_p(self):
        if self.status != "computed":
            raise ValueError("f_p is only a single value on computed reports")
        return self.f_lo

    def to_dict(self):
        out = {
            "p": self.p,
            "status": self.status,
            "type": self.reduction_type,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "f_p": self.f_lo if self.status == "computed" else [self.f_lo, self.f_hi],
            "exceptional": self.exceptional,
        }
        if self.notes:
            out["notes"] = list(self.notes)
        if self.detail:
            out["detail"] = self.detail
        return out


def conductor_tame(curve: PicardCurve, p: int) -> ConductorReport:
    """Full conductor computation at a tame prime p >= 5.

    Good reduction (Delta a p-unit) short-circuits to f_p = 0 of type (a);
    otherwise the cluster tree, admissible cover and inertia quotient give
    f_p = epsilon with delta = 0, and f_p in {0, 2, 4, 6}.
    """
    if p < 5:
        raise ValueError("conductor_tame wants p >= 5; use analyze_p2/analyze_p3")
    if curve.ord_disc(p) == 0:
        return ConductorReport(
            p=p, status="computed", f_lo=0, f_hi=0, reduction_type="a",
            epsilon=0, delta=0, exceptional=False,
            detail={"good_reduction": True},
        )
    ram = splitting_ramification(curve.coeffs, p)
    if not ram.tame:
        raise RuntimeError(f"splitting field wildly ramified at {p} >= 5")
    analysis = analyze_tame(ram)
    return _computed_report(p, analysis.epsilon, analysis.fiber.reduction_type, {
        "e_splitting": analysis.e_splitting,
        "e_semistable": analysis.e_semistable,
        "fiber": analysis.fiber.to_dict(),
        "cluster_depths": [[list(key), str(depth)] for key, depth in analysis.tree.signature()],
        "quotient_genera": analysis.quotient.quotient_genera,
        "gamma0": analysis.quotient.gamma0,
    })


def _computed_report(p, eps, reduction_type, detail):
    """A computed report at a bad prime: f_p = epsilon, delta = 0, exceptional when epsilon = 0."""
    return ConductorReport(
        p=p,
        status="computed",
        f_lo=eps,
        f_hi=eps,
        reduction_type=reduction_type,
        epsilon=eps,
        delta=0,
        exceptional=(eps == 0),
        detail=detail,
    )


def analyze_p2(curve: PicardCurve) -> ConductorReport:
    """Conductor data at p = 2: computed when the splitting field is tame.

    Wild splitting fields (the common case) give status unknown-wild with
    2 <= f_2 <= 28 and the f_2 != 1 constraint; f_2 > 0 there because an
    exceptional prime needs an unramified splitting field.  Most wild cases
    are told from Delta alone (see ``sqrt_disc_unramified_at_2``), before
    any root is lifted.
    """
    if curve.ord_disc(2) == 0:
        return ConductorReport(
            p=2, status="computed", f_lo=0, f_hi=0, reduction_type="a",
            epsilon=0, delta=0, detail={"good_reduction": True},
        )
    ram = splitting_ramification(curve.coeffs, 2) if sqrt_disc_unramified_at_2(curve) else None
    if ram is not None and ram.tame:
        analysis = analyze_tame(ram)
        return _computed_report(2, analysis.epsilon, analysis.fiber.reduction_type, {
            "e_semistable": analysis.e_semistable,
            "fiber": analysis.fiber.to_dict(),
        })
    return ConductorReport(
        p=2,
        status="unknown-wild",
        f_lo=2,
        f_hi=P2_WILD_HI,
        notes=("f_2 != 1", "splitting field of f is wildly ramified at 2"),
    )


def sqrt_disc_unramified_at_2(curve: PicardCurve) -> bool:
    """True when Delta is a square in Q_2^nr: Delta = 2^v u, v even, u = 1 mod 4.

    A tame splitting field at 2 is Q_2^nr(2^(1/e)) with e odd, which has no
    quadratic subextension yet contains sqrt(Delta) = +-prod(r_i - r_j).  So
    False proves the splitting field wildly ramified.
    """
    v = curve.ord_disc(2)
    return v % 2 == 0 and (curve.disc >> v) % 4 == 1


def analyze_p3(curve: PicardCurve, witness: WildWitness | None = None) -> ConductorReport:
    """Conductor data at p = 3 (always a bad prime).

    Without a witness: the bound 4 <= f_3 <= P3_BOUND_HI_DEFAULT.  With a
    witness the charts are verified exactly; types (a)/(b)/(c) give a
    computed f_3 with delta = 0, types (d)/(e) give the bound f_3 in [5, 6].
    """
    if witness is None:
        return ConductorReport(
            p=3, status="bounded", f_lo=4, f_hi=P3_BOUND_HI_DEFAULT,
            notes=("no witness supplied; Picard curves always have bad reduction at 3",),
        )
    f_ints = _witness_equation(curve, witness)
    ver = verify_witness(f_ints, witness)
    if ver.f3 is not None:  # f_3 >= 4: never exceptional
        return _computed_report(3, ver.f3, ver.reduction_type, {
            "m": ver.m,
            "component_genera": ver.etale_genera,
            "inseparable_components": ver.inseparable_count,
            "quotient_genera": ver.quotient_genera,
            "gamma0": ver.gamma0,
        })
    return ConductorReport(
        p=3,
        status="bounded",
        f_lo=ver.f3_range[0],
        f_hi=ver.f3_range[1],
        reduction_type=ver.reduction_type,
        delta=0,
        notes=("witness certifies the reduction type; the node action is not located",),
        detail={"m": ver.m, "component_genera": ver.etale_genera},
    )


def _witness_equation(curve, witness):
    """Integer equation the witness charts substitute into.

    A witness may target a non-normalized (e.g. non-monic) model; it must
    normalize to the same curve.
    """
    if witness.curve is not None:
        try:
            model, _ = normalize(poly_from_ints(list(witness.curve)))
        except ValueError as ex:  # not a separable quartic, or its Delta is beyond the budget
            raise WitnessInvalidError(f"witness curve: {ex}") from None
        if model != curve:
            raise WitnessInvalidError(
                "witness targets a different curve than the one analyzed"
            )
        return witness.curve[::-1]
    return curve.coeffs


def analyze_prime(curve, p, witness=None):
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2:
        return analyze_p2(curve)
    if p == 3:
        return analyze_p3(curve, witness)
    r = conductor_tame(curve, p)
    if p < MR_DETERMINISTIC_BOUND:
        return r
    return ConductorReport(
        r.p, r.status, r.f_lo, r.f_hi, r.reduction_type, r.epsilon, r.delta, r.exceptional,
        r.notes + (PROBABLE_PRIME_NOTE,), r.detail,
    )


class GlobalConductor(FrozenRecord):
    """Interval for N = prod p^(f_p), exact iff every report is computed."""

    __slots__ = ("n_lo", "n_hi", "reports")

    def __init__(self, n_lo: int, n_hi: int, reports: tuple):
        self._set(n_lo, n_hi, reports)

    @property
    def exact(self):
        return self.n_lo == self.n_hi

    def to_dict(self):
        return {
            "N_lo": self.n_lo,
            "N_hi": self.n_hi,
            "exact": self.exact,
            "per_prime": [r.to_dict() for r in self.reports],
        }


def global_conductor(curve: PicardCurve, witnesses=None) -> GlobalConductor:
    """Assemble the conductor over the primes dividing Delta, plus 3.

    witnesses maps a prime to a WildWitness (only p = 3 is consumed; the
    wild p = 2 theory is out of reach of tame witnesses).
    """
    witnesses = witnesses or {}
    reports = []
    n_lo = n_hi = 1
    for p in curve.bad_prime_candidates():
        rep = analyze_prime(curve, p, witnesses.get(p))
        reports.append(rep)
        n_lo *= p**rep.f_lo
        n_hi *= p**rep.f_hi
    return GlobalConductor(n_lo=n_lo, n_hi=n_hi, reports=tuple(reports))

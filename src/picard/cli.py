"""Command-line interface: analyze a curve, search a coefficient box, verify fixtures.

Exit codes: 0 success, 1 mismatch/failure, 2 usage error.
"""

import argparse
import json
import sys

from . import localfield
from .conductor import analyze_prime, global_conductor
from .curves import InseparableCurveError, normalize, parse_curve_text
from .exact import FactorizationBudgetError, is_prime
from .fixtures import run_fixtures
from .localfield import PrecisionStallError
from .search import CheckpointCorruptError, SearchConfig, run_search
from .wild3 import WildWitness, WitnessInvalidError


def build_parser():
    p = argparse.ArgumentParser(
        prog="picard",
        description="reduction types and conductor exponents of Picard curves y^3 = f(x)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="analyze one curve at one or all bad primes")
    pa.add_argument("--curve", required=True, help='coefficients "[a4,a3,a2,a1,a0]"')
    pa.add_argument("--prime", type=int, default=None, help="report only this prime")
    pa.add_argument("--witness", default=None, help="JSON witness file for p = 3")
    pa.add_argument("--json", action="store_true", dest="as_json")

    ps = sub.add_parser("search", help="enumerate curves with S-unit discriminant")
    ps.add_argument("--set", required=True, help="comma-separated primes, e.g. 2,3")
    ps.add_argument("--height", type=int, required=True)
    ps.add_argument("--out", required=True)
    ps.add_argument("--workers", type=int, default=1)
    ps.add_argument("--resume", type=int, default=None, metavar="TOKEN",
                    help="resume after this completed a3 slice")

    sub.add_parser("verify-examples", help="run the bundled worked-example fixtures")
    return p


def cmd_analyze(args):
    try:
        f = parse_curve_text(args.curve)
        if args.prime is not None and not is_prime(args.prime):
            raise ValueError(f"--prime {args.prime} is not prime")
    except ValueError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    try:
        curve, wit = normalize(f)
    except InseparableCurveError:
        print("error: the quartic is inseparable (Delta = 0)", file=sys.stderr)
        return 1
    except FactorizationBudgetError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    except ValueError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    witnesses = {}
    if args.witness:
        try:
            w = WildWitness.load(args.witness)
        except (OSError, ValueError, KeyError) as ex:
            print(f"error: cannot read witness: {ex}", file=sys.stderr)
            return 1
        witnesses[w.p] = w
    try:
        result = {"curve": curve.label, "normalized_from": args.curve.strip(), "disc": curve.disc}
        if args.prime is not None:
            rep = analyze_prime(curve, args.prime, witnesses.get(args.prime))
            result["reports"] = [rep.to_dict()]
        else:
            g = global_conductor(curve, witnesses)
            result["disc_factors"] = [[p, e] for p, e in curve.disc_factors]
            result.update(g.to_dict())
    except WitnessInvalidError as ex:
        print(f"witness invalid: {ex}", file=sys.stderr)
        return 1
    except PrecisionStallError as ex:
        print(
            f"error: {ex} below the precision ceiling of {localfield.MAX_PI_DIGITS} pi-digits",
            file=sys.stderr,
        )
        return 1
    if args.as_json:
        print(json.dumps(result, separators=(",", ":")))
    else:
        _print_human(result)
    return 0


def _print_human(result):
    print(f"curve   {result['curve']}   Delta = {result['disc']}")
    for rep in result.get("per_prime", result.get("reports", [])):
        p = rep["p"]
        if rep["status"] == "computed":
            extra = f"type ({rep['type']})" if rep.get("type") else ""
            exc = "  exceptional" if rep.get("exceptional") else ""
            print(f"  f_{p} = {rep['f_p']}  [{rep['status']}] {extra}{exc}")
        else:
            lo, hi = rep["f_p"]
            notes = "; ".join(rep.get("notes", []))
            print(f"  f_{p} in [{lo}, {hi}]  [{rep['status']}] {notes}")
    if "N_lo" in result:
        if result["exact"]:
            print(f"  N = {result['N_lo']}")
        else:
            print(f"  N in [{result['N_lo']}, {result['N_hi']}]")


def cmd_search(args):
    try:
        cfg = SearchConfig(
            primes=tuple(int(s) for s in args.set.split(",") if s.strip()),
            height=args.height,
            workers=args.workers,
            resume_from=args.resume,
        )
    except ValueError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    try:
        written, token = run_search(cfg, args.out)
    except CheckpointCorruptError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    except OSError as ex:
        print(f"error: cannot write {args.out}: {ex.strerror or ex}", file=sys.stderr)
        return 1
    print(f"wrote {written} records to {args.out} (last slice token {token})")
    return 0


def cmd_verify_examples(_args):
    ok = run_fixtures(print)
    return 0 if ok else 1


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "analyze":
        return cmd_analyze(args)
    if args.command == "search":
        return cmd_search(args)
    if args.command == "verify-examples":
        return cmd_verify_examples(args)
    parser.error("unknown command")


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front door: one binary, one subcommand per module.

Exit codes: 0 on success, 1 on a mathematical-precondition failure (the
message carries the witness), 2 on usage errors: argparse's own, and bad
option values found by a handler, reported as one `error:` line.  Every
subcommand supports --format json; exact rationals are serialized as "p/q"
strings.  Reports are deterministic for a fixed seed; timings are attached
only on request.

At module level this imports only the standard library and the two modules
its option checks use, `chevalley` and `root_system`; each handler imports
the modules it runs when it runs, so no command compiles the whole library.
"""

import argparse
import json
import sys
from fractions import Fraction

from .chevalley import ChevalleyError, identity_element, is_prime, x_elem
from .root_system import RootSystemError, build_root_system, rootsys_json


class PreconditionFailure(Exception):
    pass


class UsageError(Exception):
    """A bad option value found after parsing; exits 2 like argparse's errors."""


def _int_at_least(low, what):
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be {what}, got {value}")
        return value

    parse.__name__ = "int"  # argparse's "invalid int value" for non-integers
    return parse


_non_negative_int = _int_at_least(0, "non-negative")
_positive_int = _int_at_least(1, "positive")


def _prime(text):
    value = int(text)
    try:
        prime = is_prime(value)
    except ChevalleyError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if not prime:
        raise argparse.ArgumentTypeError(f"must be a prime, got {value}")
    return value


def _fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _parse_fractions(text):
    try:
        return tuple(Fraction(x.strip()) for x in text.split(",") if x.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational list {text!r}: {exc}")


def _parse_height(text, n):
    """HeightForm coefficients, one per simple root of SL_n."""
    from .windows import HeightForm

    coeffs = _parse_fractions(text)
    if len(coeffs) != n - 1:
        raise UsageError(f"--height needs {n - 1} coefficient(s) for n = {n}, got {text!r}")
    return HeightForm(coeffs)


def _parse_window(text, rank):
    """Window bounds 'lo:hi' or 'lo1:hi1,lo2:hi2,...'; `Window` checks their
    number and order."""
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) == 1:
        parts = parts * rank
    lo, hi = [], []
    for part in parts:
        try:
            a, b = part.split(":")
            lo.append(int(a))
            hi.append(int(b))
        except ValueError:
            raise UsageError(f"bad window range {part!r}, expected lo:hi")
    return lo, hi


def _emit(payload, fmt):
    if fmt == "json":
        from .complexes import dumps_json

        print(dumps_json(payload))
    else:
        _emit_text(payload)


def _emit_text(payload, indent=0):
    pad = "  " * indent
    if isinstance(payload, dict):
        for k, v in payload.items():
            if isinstance(v, (dict, list)):
                print(f"{pad}{k}:")
                _emit_text(v, indent + 1)
            else:
                print(f"{pad}{k}: {v}")
    elif isinstance(payload, list):
        for v in payload:
            if isinstance(v, (dict, list)):
                _emit_text(v, indent + 1)
            else:
                print(f"{pad}- {v}")
    else:
        print(f"{pad}{payload}")


# --- subcommand handlers -------------------------------------------------------


# `rootsys show` lists every root: rank 16 answers in about 0.3 s, rank 32 in 3 s;
# `coxeter` shares the bound
ROOTSYS_MAX_RANK = 16


def _root_system(family, rank):
    """The root datum of the --family and --rank options; a bad pair is a usage error."""
    if rank > ROOTSYS_MAX_RANK:
        raise UsageError(f"--rank must be at most {ROOTSYS_MAX_RANK}, got {rank}")
    try:
        return build_root_system(family, rank)
    except RootSystemError as exc:
        raise UsageError(str(exc))


def cmd_rootsys(args):
    datum = _root_system(args.family, args.rank)
    if args.command2 == "show":
        _emit(rootsys_json(datum), args.format)
    return 0


def cmd_coxeter(args):
    from .coxeter import GeometryError
    from .windows import Window, closed_sector_cells, deconstruct

    datum = _root_system(args.family, args.rank)
    lo, hi = _parse_window(args.window, datum.rank)
    try:
        window = Window(datum, lo, hi)
        window.chambers()
    except GeometryError as exc:
        raise UsageError(str(exc))
    geometry = window.geometry
    if args.command2 == "deconstruct":
        sigma = geometry.base_chamber_at_infinity()
        if args.full_window:
            z = set(window.cells())
        else:
            tip = datum.zero()
            z = set(closed_sector_cells(window, tip, sigma.opposite()))
        if args.gapped:
            # punch out the open star of an interior chamber: the leftover is
            # typically not sigma-convex, exercising the witness error path
            interior = sorted(
                c for c in z if geometry.is_chamber(c) and window.interior_cell(c)
            )
            if interior:
                victim = interior[len(interior) // 2]
                star = {x for x in z if victim in geometry.closure(x) or x == victim}
                z -= star
        try:
            result = deconstruct(geometry, frozenset(z), sigma)
        except GeometryError as exc:
            raise PreconditionFailure(str(exc))
        payload = {
            "cells": len(z),
            "steps": len(result.steps),
            "chambers_in_order": [str(s.chamber) for s in result.steps],
            "all_certificates_ok": all(
                all(s.certificates.values()) for s in result.steps
            ),
            "residual_size": len(result.residual),
        }
        _emit(payload, args.format)
    elif args.command2 == "export":
        cx = window.complex()
        if args.format == "dot":
            print(cx.to_dot())
        else:

            def constraints(cell):
                return [
                    {
                        "root": i,
                        "type": "wall" if f == 1 else "floor",
                        "level": k,
                    }
                    for i, (f, k) in enumerate(cell)
                ]

            _emit(cx.to_json(constraints), "json")
    return 0


def cmd_sphere(args):
    from .homology import betti_vector
    from .spherical import FlagComplex, SphericalError, find_opposite_apartment

    try:
        building = FlagComplex(args.n, args.q)
    except SphericalError as exc:
        raise UsageError(str(exc))
    if not 0 <= args.chamber < len(building.chambers):
        raise UsageError(
            f"--chamber must be in 0..{len(building.chambers) - 1}, got {args.chamber}"
        )
    chamber = building.chambers[args.chamber]
    if args.command2 == "opp":
        opp = building.opposition_complex(chamber)
        if args.format == "dot":
            print(opp.to_dot(chamber_dim=building.n - 2, name="opposition"))
            return 0
        payload = {
            "chamber_index": args.chamber,
            "cells": len(opp.cells()),
            "betti": betti_vector(opp),
        }
        _emit(payload, args.format)
    elif args.command2 == "apartment":
        ap, guaranteed = find_opposite_apartment(building, chamber)
        payload = {
            "found": ap is not None,
            "guaranteed": guaranteed,
            "chambers": ap.chamber_count if ap else 0,
        }
        _emit(payload, args.format)
    return 0


# `chevalley check-relations` takes about 0.2 ms a trial: 10,000 answer in 2 s
CHEVALLEY_MAX_TRIALS = 10_000


def cmd_chevalley(args):
    from .acceptance import criterion_steinberg

    if args.trials > CHEVALLEY_MAX_TRIALS:
        raise UsageError(f"--trials must be at most {CHEVALLEY_MAX_TRIALS:,}, got {args.trials:,}")
    report = criterion_steinberg(seed=args.seed, trials=args.trials)
    _emit(report, args.format)
    return 0 if report["passed"] else 1


def cmd_building(args):
    from .building import BuildingError, Truncation, cone_chain, superlevel_complex
    from .homology import betti_vector
    from .linalg import fraction_str

    try:
        trunc = Truncation(args.n, args.p, args.radius)
    except BuildingError as exc:
        raise UsageError(str(exc))

    def forms(cell):
        return str(tuple(trunc.form(v) for v in cell))

    if args.command2 == "grow":
        if args.format == "dot":
            if args.n == 2:
                print(_tree_dot(trunc, args.radius))
            else:
                print(trunc.complex.to_dot(label=forms))
        elif args.export_cells:
            _emit(trunc.complex.to_json(label=forms), "json")
        else:
            payload = {
                "n": args.n,
                "p": args.p,
                "radius": args.radius,
                "chambers": len(trunc.chambers),
                "cells": len(trunc.complex),
            }
            _emit(payload, args.format)
    elif args.command2 == "retract":
        table = {}
        for cell in trunc.complex.cells(0):
            (v,) = cell
            pt = trunc.vertex_retraction_point(v)
            table[str(trunc.form(v))] = [fraction_str(x) for x in pt]
        _emit({"vertices": len(table), "retraction": table}, args.format)
    elif args.command2 == "superlevel":
        h = _parse_height(args.height, args.n)
        sub = superlevel_complex(trunc, h, args.r)
        _emit({"cells": len(sub), "betti": betti_vector(sub)}, args.format)
    elif args.command2 == "cone-chain":
        h = _parse_height(args.height, args.n)
        try:
            cc = cone_chain(
                trunc,
                [identity_element(args.n), x_elem(args.n, (1,) + (0,) * (args.n - 2), 1)],
                h,
                args.r,
            )
        except BuildingError as exc:
            raise PreconditionFailure(str(exc))
        payload = {
            "chain_size": len(cc.chain.support),
            "boundary_size": len(cc.boundary.support),
            "epsilon": fraction_str(cc.epsilon),
            "band": [fraction_str(cc.band[0]), fraction_str(cc.band[1])],
        }
        _emit(payload, args.format)
    return 0


def _tree_dot(trunc, radius):
    """The vertex ball of the tree: nodes within edge distance `radius` of the base.

    Nodes are canonical forms, and the edge lines follow the iteration order
    of their neighbour sets of forms.
    """
    adj = {}
    for edge in trunc.complex.cells(1):
        a, b = (trunc.form(v) for v in edge)
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    layers = zip(range(radius + 1), trunc.vertex_layers())
    dist = {trunc.form(v): d for d, layer in layers for v in layer}
    keys = sorted(dist)
    ids = {k: i for i, k in enumerate(keys)}
    lines = ["graph tree {"]
    for k in keys:
        lines.append(f'  n{ids[k]} [label="d{dist[k]}"];')
    for k in keys:
        for w in adj.get(k, ()):
            if w in dist and ids[k] < ids[w]:
                lines.append(f"  n{ids[k]} -- n{ids[w]};")
    lines.append("}")
    return "\n".join(lines)


def cmd_homology(args):
    from .complexes import CellComplex
    from .homology import betti_vector

    try:
        if args.input == "-":
            data = json.load(sys.stdin)
        else:
            with open(args.input) as fh:
                data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {args.input}: {exc.strerror}")
    except ValueError as exc:
        raise UsageError(f"{args.input} is not JSON: {exc}")
    try:
        bv = betti_vector(CellComplex((c["id"], c["dim"], c["faces"]) for c in data["cells"]))
    except KeyError as exc:
        raise UsageError(f"malformed complex JSON: missing key {exc}")
    except (TypeError, ValueError) as exc:
        raise UsageError(f"malformed complex JSON: {exc}")
    if args.format == "csv":
        print("dim,betti")
        for d, b in enumerate(bv):
            print(f"{d},{b}")
    else:
        _emit({"betti": bv}, args.format)
    return 0


def cmd_sigma(args):
    from .sigma import SigmaContext, finiteness_type, sigma_verdict, verdict_json

    try:
        primes = tuple(int(p) for p in args.primes.split(","))
        # SigmaContext drops a repeated prime, which would change the length
        # the characters must have
        repeated = sorted({p for p in primes if primes.count(p) > 1})
        if repeated:
            raise UsageError(f"--primes repeats {', '.join(map(str, repeated))}")
        ctx = SigmaContext.for_sl(args.n, primes)
        if args.command2 == "verdict":
            verdict = sigma_verdict(ctx, _parse_fractions(args.chi), args.k)
        else:
            gens = [_parse_fractions(g) for g in args.kernel_of.split(";")]
            verdict = finiteness_type(ctx, gens, args.k)
    except ValueError as exc:
        # a bad integer in --primes, or a SigmaError, which here always means
        # a bad option value: a non-prime, a wrong length, the zero character
        raise UsageError(str(exc))
    _emit(verdict_json(verdict), args.format)
    return 0


def cmd_certify(args):
    from .acceptance import certify

    report = certify(suite=args.suite, seed=args.seed, with_timings=args.timings)
    _emit(report, args.format)
    return 0 if report["passed"] else 1


# --- parser ---------------------------------------------------------------------


# sorted(acceptance.SUITES), written out so that building the parser imports no
# suite; a test keeps the two equal
CERTIFY_SUITES = ("all", "building", "coxeter", "relations", "sigma", "spherical")


def _formats(draws):
    """--format choices: dot only where the subcommand draws a graph."""
    return ("json", "text", "dot") if draws else ("json", "text")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sigmabuild",
        description="Exact alcove geometry, flag and Bruhat-Tits buildings, "
        "and finiteness-type verdicts for S-arithmetic Borel groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rootsys", help="root-system data")
    p2 = p.add_subparsers(dest="command2", required=True)
    s = p2.add_parser("show")
    s.add_argument("--family", choices=("A", "C", "D"), required=True)
    s.add_argument("--rank", type=_positive_int, required=True)
    s.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_rootsys)

    p = sub.add_parser("coxeter", help="alcove windows and deconstruction")
    p2 = p.add_subparsers(dest="command2", required=True)
    for name in ("deconstruct", "export"):
        s = p2.add_parser(name)
        s.add_argument("--family", choices=("A", "C", "D"), default="A")
        s.add_argument("--rank", type=_positive_int, default=2)
        s.add_argument("--window", default="-3:2")
        s.add_argument("--format", choices=_formats(name == "export"), default="text")
        if name == "deconstruct":
            s.add_argument(
                "--full-window",
                action="store_true",
                help="deconstruct the whole window instead of the base sector corner",
            )
            s.add_argument(
                "--gapped",
                action="store_true",
                help="remove an interior chamber first (non-convex input: error path)",
            )
    p.set_defaults(func=cmd_coxeter)

    p = sub.add_parser("sphere", help="finite flag buildings")
    p2 = p.add_subparsers(dest="command2", required=True)
    for name in ("opp", "apartment"):
        s = p2.add_parser(name)
        s.add_argument("--n", type=_int_at_least(2, "at least 2"), required=True)
        s.add_argument("--q", type=_prime, required=True)
        s.add_argument("--chamber", type=int, default=0)
        s.add_argument("--format", choices=_formats(name == "opp"), default="text")
    p.set_defaults(func=cmd_sphere)

    p = sub.add_parser("chevalley", help="Steinberg relation checks")
    p2 = p.add_subparsers(dest="command2", required=True)
    s = p2.add_parser("check-relations")
    s.add_argument("--trials", type=_non_negative_int, default=200)
    s.add_argument("--seed", type=int, default=42)
    s.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_chevalley)

    p = sub.add_parser("building", help="Bruhat-Tits truncations")
    p2 = p.add_subparsers(dest="command2", required=True)
    for name in ("grow", "retract", "superlevel", "cone-chain"):
        s = p2.add_parser(name)
        s.add_argument("--n", type=int, choices=(2, 3), default=2)
        s.add_argument("--p", type=_prime, default=2)
        s.add_argument("--radius", type=_non_negative_int, default=2)
        s.add_argument("--format", choices=_formats(name == "grow"), default="text")
        if name == "grow":
            s.add_argument(
                "--export-cells",
                action="store_true",
                help="emit the full cell complex in the shared JSON schema",
            )
        if name in ("superlevel", "cone-chain"):
            s.add_argument(
                "--height",
                default="-1",
                help="HeightForm coefficients c_i of sum c_i kappa(., alpha_i), comma-separated; "
                "negative is generic; write --height=-1,-2",
            )
            s.add_argument("--r", type=_fraction, default=Fraction(0))
    p.set_defaults(func=cmd_building)

    p = sub.add_parser("homology", help="Betti numbers of an exported complex")
    p2 = p.add_subparsers(dest="command2", required=True)
    s = p2.add_parser("betti")
    s.add_argument("--input", default="-", help="complex JSON file, or - for stdin")
    s.add_argument("--format", choices=("json", "text", "csv"), default="csv")
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("sigma", help="finiteness-type verdicts")
    p2 = p.add_subparsers(dest="command2", required=True)
    s = p2.add_parser("verdict")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--primes", required=True)
    s.add_argument("--chi", required=True)
    s.add_argument("--k", type=_non_negative_int, required=True)
    s.add_argument("--format", choices=("json", "text"), default="text")
    s = p2.add_parser("fintype")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--primes", required=True)
    s.add_argument("--kernel-of", required=True, help="semicolon-separated coefficient vectors")
    s.add_argument("--k", type=_non_negative_int, required=True)
    s.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_sigma)

    p = sub.add_parser("certify", help="run a certification suite")
    p.add_argument("--suite", choices=CERTIFY_SUITES, default="all")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--timings", action="store_true", help="attach wall-clock timings")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_certify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionFailure as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands load foliations, curves and oracles from JSON files, run the
library and print a report.  Exit status 0 means the computation finished,
2 means the input was unusable, 3 means the mathematics declined to give a
definite answer (undetermined classification, exhausted oracle, exact
coordinates out of reach, or a blown time budget).  JSON output is
canonical: sorted keys, rationals as strings, no floats.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .blowup import (
    BlowupUnavailableError,
    ResolutionError,
    safe_resolution,
    seidenberg_reduce,
    total_z,
    z_index,
)
from .bounds import (
    OracleExhausted,
    PlurigeneraOracle,
    Z_BOUND_HYPOTHESIS,
    first_integral_bound_from_height,
    first_integral_degree_bound,
    invariant_curve_degree_bound,
    z_bound_quasi_reduced,
)
from .curves import (
    PlaneCurve,
    curve_singularities,
    extactic,
    first_integral_degree,
    genus,
    is_invariant,
)
from .families import (
    BudgetExceeded,
    CensusUndetermined,
    build_family,
    dicritical_count,
)
from .foliation import Foliation, _aligned, foliation_degree
from .mpoly import MPoly, _var_names, parse_poly
from .roots import IsolationError
from .singularities import (
    DecompositionError,
    ExactnessError,
    UNDETERMINED,
    bezout_total,
    classify_singularity,
    singular_points,
    total_milnor,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNDETERMINED = 3


class InputError(Exception):
    """Unusable input; maps to exit status 2."""


def _read_json(path):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise InputError(f"{path}: {e.strerror or e}") from e
    try:
        return json.loads(raw)
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: byte {e.pos}: {e.msg}") from e


def _poly_from(entry, vars, path, field):
    """Accept either MPoly JSON or a plain polynomial string."""
    try:
        if isinstance(entry, str):
            return parse_poly(entry, vars)
        if isinstance(entry, dict):
            return MPoly.from_json(entry)
    except (ValueError, KeyError, ZeroDivisionError) as e:
        raise InputError(f"{path}: {field}: {e}") from e
    raise InputError(f"{path}: {field}: expected a polynomial string or object")


def _vars_of(data, path):
    try:
        return _var_names(data.get("vars", ["x", "y"]))
    except ValueError as e:
        raise InputError(f"{path}: {e}") from e


def _load_foliation(path):
    data = _read_json(path)
    if not isinstance(data, dict) or "P" not in data or "Q" not in data:
        raise InputError(f"{path}: a foliation file needs P and Q entries")
    vars = _vars_of(data, path)
    P = _poly_from(data["P"], vars, path, "P")
    Q = _poly_from(data["Q"], vars, path, "Q")
    try:
        return Foliation(P, Q, vars=vars)
    except ValueError as e:
        raise InputError(f"{path}: {e}") from e


def _load_curve(path):
    data = _read_json(path)
    if not isinstance(data, dict) or "f" not in data:
        raise InputError(f"{path}: a curve file needs an f entry")
    vars = _vars_of(data, path)
    f = _poly_from(data["f"], vars, path, "f")
    try:
        return PlaneCurve(
            f, genus=data.get("genus"), smooth=data.get("smooth")
        )
    except ValueError as e:
        raise InputError(f"{path}: {e}") from e


def _load_oracle(path):
    try:
        return PlurigeneraOracle.from_json(_read_json(path))
    except ValueError as e:
        raise InputError(f"{path}: {e}") from e


def _parse_point(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise InputError(f"point {text!r}: expected 'a,b'")
    try:
        return tuple(Fraction(p.strip()) for p in parts)
    except (ValueError, ZeroDivisionError) as e:
        raise InputError(f"point {text!r}: {e}") from e


def _cluster_json(sp):
    out = {
        "chart": sp.chart,
        "count": sp.count,
        "modulus": str(sp.modulus),
        "x": str(sp.xt),
        "y": str(sp.yt),
    }
    if sp.milnor is not None:
        out["milnor"] = sp.milnor
    return out


def _precision():
    raw = os.environ.get("PLANEFOL_PRECISION")
    if raw is None:
        return Fraction(1, 1024)
    try:
        w = Fraction(raw)
    except (ValueError, ZeroDivisionError) as e:
        raise InputError(f"PLANEFOL_PRECISION={raw!r}: {e}") from e
    if w <= 0:
        raise InputError("PLANEFOL_PRECISION must be positive")
    return w


def _emit(report, args, text_lines):
    if args.format == "json":
        print(json.dumps(report, sort_keys=True, separators=(",", ": "),
                         indent=2))
    else:
        for line in text_lines(report):
            print(line)


# -- subcommand bodies ----------------------------------------------------------


def _cmd_degree(args):
    F = _load_foliation(args.foliation)
    report = {
        "degree": foliation_degree(F),
        "top_degree": F.top_degree(),
        "infinity_invariant": not F.infinity_tangent().is_zero(),
    }
    _emit(report, args, lambda r: [f"degree {r['degree']}"])
    return EXIT_OK


def _cmd_singularities(args):
    F = _load_foliation(args.foliation)
    pts = singular_points(F)
    report = {
        "clusters": [_cluster_json(sp) for sp in pts],
        "bezout": bezout_total(F),
        "total_milnor": total_milnor(pts),
    }
    if args.boxes:
        width = _precision()
        boxed = []
        for sp in pts:
            for (xre, xim), (yre, yim) in sp.boxes(max_width=width):
                boxed.append({
                    "chart": sp.chart,
                    "x": {"re": [str(xre.lo), str(xre.hi)],
                          "im": [str(xim.lo), str(xim.hi)]},
                    "y": {"re": [str(yre.lo), str(yre.hi)],
                          "im": [str(yim.lo), str(yim.hi)]},
                })
        report["boxes"] = boxed

    def lines(r):
        out = [f"{len(r['clusters'])} clusters, "
               f"total Milnor {r['total_milnor']} (Bezout {r['bezout']})"]
        for c in r["clusters"]:
            out.append(f"  {c['chart']}: {c['count']} point(s), "
                       f"modulus {c['modulus']}, mu={c.get('milnor', '?')}")
        return out

    _emit(report, args, lines)
    return EXIT_OK


def _cmd_classify(args):
    F = _load_foliation(args.foliation)
    rows = []
    saw_undetermined = False
    for sp in singular_points(F):
        for sub, kind in classify_singularity(sp):
            rows.append({**_cluster_json(sub), "kind": kind})
            saw_undetermined |= kind == UNDETERMINED
    report = {"classification": rows}

    def lines(r):
        return [f"  {c['chart']} {c['modulus']}: {c['kind']}"
                for c in r["classification"]]

    _emit(report, args, lines)
    return EXIT_UNDETERMINED if saw_undetermined else EXIT_OK


def _cmd_reduce(args, safe=False):
    F = _load_foliation(args.foliation)
    builder = safe_resolution if safe else seidenberg_reduce
    try:
        tree = builder(F, cap=args.cap)
    except ResolutionError as e:
        report = {"error": str(e)}
        if e.partial is not None:
            report["partial"] = e.partial.to_json()
        _emit(report, args, lambda r: [f"unfinished: {r['error']}"])
        return EXIT_UNDETERMINED
    except BlowupUnavailableError as e:
        _emit({"error": str(e)}, args, lambda r: [f"unavailable: {r['error']}"])
        return EXIT_UNDETERMINED
    report = tree.to_json()
    report["blowups"] = tree.blowup_count()
    _emit(report, args,
          lambda r: [f"{r['mode']} resolution: {r['blowups']} blow-ups, "
                     f"{len(r['trees'])} tree(s)"])
    return EXIT_OK


def _cmd_index(args):
    F = _load_foliation(args.foliation)
    C = _load_curve(args.curve)
    if args.point is not None:
        pt = _parse_point(args.point)
        try:
            k = z_index(F, _aligned(C.f, F.vars), pt)
        except ValueError as e:
            raise InputError(str(e)) from e
        report = {"z_index": k, "point": [str(pt[0]), str(pt[1])]}
        _emit(report, args, lambda r: [f"z-index {r['z_index']}"])
        return EXIT_OK
    try:
        z, records = total_z(F, C.f)
    except (BlowupUnavailableError, ExactnessError) as e:
        _emit({"error": str(e)}, args, lambda r: [f"unavailable: {r['error']}"])
        return EXIT_UNDETERMINED
    except ValueError as e:
        raise InputError(str(e)) from e
    report = {
        "Z": z,
        "points": [
            {"chart": rec.chart,
             "point": [str(rec.point[0]), str(rec.point[1])],
             "z_index": rec.z_index}
            for rec in records
        ],
    }
    _emit(report, args, lambda r: [f"Z = {r['Z']} over {len(r['points'])} "
                                   "point(s)"])
    return EXIT_OK


def _cmd_invariant_check(args):
    F = _load_foliation(args.foliation)
    C = _load_curve(args.curve)
    cert = is_invariant(F, C)
    report = {
        "invariant": cert is not None,
        "cofactor": str(cert.cofactor) if cert else None,
    }
    _emit(report, args,
          lambda r: ["invariant, cofactor " + r["cofactor"] if r["invariant"]
                     else "not invariant"])
    return EXIT_OK


def _cmd_extactic(args):
    F = _load_foliation(args.foliation)
    if args.m < 1:
        raise InputError("--m must be at least 1")
    E = extactic(F, args.m)
    report = {"m": args.m, "vanishes": E.is_zero()}
    if not E.is_zero():
        report["extactic"] = E.to_json()
    _emit(report, args,
          lambda r: [f"E_{r['m']} " + ("= 0" if r["vanishes"] else "!= 0")])
    return EXIT_OK


def _cmd_first_integral(args):
    F = _load_foliation(args.foliation)
    if args.max_m < 1:
        raise InputError("--max-m must be at least 1")
    n = first_integral_degree(F, args.max_m)
    report = {"first_integral_degree": n, "max_m": args.max_m}
    _emit(report, args,
          lambda r: [f"first integral of degree {n}" if n is not None else
                     f"no rational first integral of degree <= {args.max_m}"])
    return EXIT_OK


def _parse_deltas(text, n):
    """A JSON list of positive ints (a singular point has delta >= 1) whose
    total leaves the genus of a degree-n curve nonnegative."""
    try:
        deltas = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"--deltas: byte {e.pos}: {e.msg}") from e
    if not isinstance(deltas, list) or not all(type(v) is int and v > 0 for v in deltas):
        raise InputError("--deltas must be a JSON list of positive ints")
    smooth_genus = (n - 1) * (n - 2) // 2
    if sum(deltas) > smooth_genus:
        raise InputError(f"--deltas: total {sum(deltas)} exceeds the genus "
                         f"{smooth_genus} of a smooth curve of degree {n}")
    return deltas


def _cmd_genus(args):
    C = _load_curve(args.curve)
    deltas = None if args.deltas is None else _parse_deltas(args.deltas, C.degree)
    try:
        g = genus(C, deltas=deltas)
    except ValueError as e:
        # a singularity beyond nodes with no delta supplied
        _emit({"error": str(e)}, args, lambda r: [f"undetermined: {r['error']}"])
        return EXIT_UNDETERMINED
    sings = curve_singularities(C)
    report = {
        "genus": g,
        "degree": C.degree,
        "singular_clusters": [
            {"chart": s.chart, "count": s.count, "modulus": str(s.modulus),
             "node": s.node}
            for s in sings
        ],
    }
    _emit(report, args, lambda r: [f"genus {r['genus']}"])
    return EXIT_OK


def _cmd_bound(args):
    fi = args.which == "first-integral"
    if args.height is not None and (args.oracle is not None or not fi):
        raise InputError("--height is read by first-integral bounds only, and not "
                         "beside --oracle (an oracle file can carry a height)")
    if fi and (args.Z is not None or args.z_quasi_reduced):
        flag = "--Z" if args.Z is not None else "--z-quasi-reduced"
        raise InputError(f"{flag} applies to invariant-curve bounds only")
    if args.Z is not None and args.z_quasi_reduced:
        raise InputError("--Z conflicts with --z-quasi-reduced: give one")
    try:
        # the bounds reject an out-of-range d, g, height or Z with ValueError
        if fi:
            if args.height is not None:
                rep = first_integral_bound_from_height(args.d, args.g, args.height)
            elif args.oracle is not None:
                rep = first_integral_degree_bound(args.d, args.g, _load_oracle(args.oracle))
            else:
                raise InputError("need --oracle or --height")
        else:
            if args.oracle is None:
                raise InputError("invariant-curve bounds need --oracle")
            if args.Z is None and not args.z_quasi_reduced:
                raise InputError("need --Z or --z-quasi-reduced")
            Z = z_bound_quasi_reduced(args.d) if args.z_quasi_reduced else args.Z
            rep = invariant_curve_degree_bound(args.d, args.g, _load_oracle(args.oracle), Z)
    except ValueError as e:
        raise InputError(str(e)) from e
    report = rep.to_json()
    if args.z_quasi_reduced:
        report["Z_hypothesis"] = Z_BOUND_HYPOTHESIS
    _emit(report, args,
          lambda r: [f"n0 = {r['n0']}, degree bound {r['bound']}"]
          + ([r["warning"]] if "warning" in r else []))
    return EXIT_OK


def _cmd_examples(args):
    try:
        params = json.loads(args.params) if args.params else {}
    except json.JSONDecodeError as e:
        raise InputError(f"--params: byte {e.pos}: {e.msg}") from e
    if not isinstance(params, dict):
        raise InputError("--params must be a JSON object")
    if args.action == "gen":
        try:
            F, desc = build_family(args.family, params)
        except (KeyError, ValueError, TypeError, ZeroDivisionError) as e:
            raise InputError(f"family {args.family}: {e}") from e
        report = {"foliation": F.to_json(), "descriptor": desc.to_json()}
        _emit(report, args,
              lambda r: [f"{args.family} with {r['descriptor']['parameters']}",
                         f"P = {F.P}", f"Q = {F.Q}"])
        return EXIT_OK
    # census
    if args.foliation is not None:
        F = _load_foliation(args.foliation)
    elif args.family is not None:
        try:
            F, _ = build_family(args.family, params)
        except (KeyError, ValueError, TypeError, ZeroDivisionError) as e:
            raise InputError(f"family {args.family}: {e}") from e
    else:
        raise InputError("census needs --foliation or --family")
    try:
        n = dicritical_count(F, budget_seconds=args.budget_seconds)
    except ValueError as e:
        raise InputError(f"--budget-seconds: {e}") from e
    report = {"dicritical_count": n}
    _emit(report, args, lambda r: [f"{n} dicritical singular point(s)"])
    return EXIT_OK


# -- parser ----------------------------------------------------------------------


@functools.cache
def _build_parser():
    # built once per process: parse_args leaves the parser as it was
    top = argparse.ArgumentParser(
        prog="planefol",
        description="Exact invariants of polynomial plane foliations.",
    )
    top.add_argument("--format", choices=("text", "json"), default="text")
    sub = top.add_subparsers(dest="command", required=True)

    def with_foliation(p):
        p.add_argument("--foliation", required=True, metavar="FILE")

    p = sub.add_parser("degree", help="projective degree of a foliation")
    with_foliation(p)

    p = sub.add_parser("singularities", help="singular clusters and totals")
    with_foliation(p)
    p.add_argument("--boxes", action="store_true",
                   help="certified coordinate boxes (PLANEFOL_PRECISION "
                        "sets the width)")

    p = sub.add_parser("classify", help="reduced / non-reduced per cluster")
    with_foliation(p)

    p = sub.add_parser("reduce", help="minimal reduction of singularities")
    with_foliation(p)
    p.add_argument("--cap", type=int, default=50)

    p = sub.add_parser("safe-resolve",
                       help="reduction plus one blow-up per leftover point")
    with_foliation(p)
    p.add_argument("--cap", type=int, default=50)

    p = sub.add_parser("index", help="vanishing order along an invariant curve")
    with_foliation(p)
    p.add_argument("--curve", required=True, metavar="FILE")
    p.add_argument("--point", metavar="a,b",
                   help="one point; omit to sum over all singular points "
                        "on the curve")

    p = sub.add_parser("invariant-check", help="cofactor certificate test")
    with_foliation(p)
    p.add_argument("--curve", required=True, metavar="FILE")

    p = sub.add_parser("extactic", help="extactic determinant for degree m")
    with_foliation(p)
    p.add_argument("--m", type=int, required=True)

    p = sub.add_parser("first-integral",
                       help="least degree of a rational first integral")
    with_foliation(p)
    p.add_argument("--max-m", type=int, required=True)

    p = sub.add_parser("genus", help="geometric genus of a plane curve")
    p.add_argument("--curve", required=True, metavar="FILE")
    p.add_argument("--deltas", metavar="JSON",
                   help="the delta invariant of every singular point, nodes "
                        "included, as a JSON list of positive ints; taken as "
                        "given, without a check against the singular clusters")

    p = sub.add_parser("bound", help="degree bounds from plurigenera gates")
    p.add_argument("which", choices=("first-integral", "invariant-curve"))
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--oracle", metavar="FILE")
    p.add_argument("--height", type=int)
    p.add_argument("--Z", type=int)
    p.add_argument("--z-quasi-reduced", action="store_true",
                   help="use the quasi-reduced worst case for Z")

    p = sub.add_parser("examples", help="family generators and the census")
    p.add_argument("action", choices=("gen", "census"))
    p.add_argument("--family")
    p.add_argument("--params", metavar="JSON")
    p.add_argument("--foliation", metavar="FILE")
    p.add_argument("--budget-seconds", type=float)

    return top


_DISPATCH = {
    "degree": _cmd_degree,
    "singularities": _cmd_singularities,
    "classify": _cmd_classify,
    "reduce": lambda a: _cmd_reduce(a, safe=False),
    "safe-resolve": lambda a: _cmd_reduce(a, safe=True),
    "index": _cmd_index,
    "invariant-check": _cmd_invariant_check,
    "extactic": _cmd_extactic,
    "first-integral": _cmd_first_integral,
    "genus": _cmd_genus,
    "bound": _cmd_bound,
    "examples": _cmd_examples,
}


# failures of an exact computation, refused with exit 3 instead of raised
_REFUSALS = (DecompositionError, ExactnessError, ArithmeticError, IsolationError,
             CensusUndetermined, BudgetExceeded, BlowupUnavailableError, ResolutionError)


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except OracleExhausted as e:
        print(f"undetermined: {e}", file=sys.stderr)
        return EXIT_UNDETERMINED
    except _REFUSALS as e:
        _emit({"error": str(e)}, args, lambda r: [f"undetermined: {r['error']}"])
        return EXIT_UNDETERMINED


if __name__ == "__main__":
    sys.exit(main())

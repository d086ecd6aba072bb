"""Batch command-line front end with stable JSON/text output.

Exit codes: 0 success, 1 domain errors and internal errors (structured
error JSON on stdout), 2 I/O or parse errors, and usage errors such as a
negative --limit or --count (argparse's message on stderr).
"""

import argparse
import json
import sys
from fractions import Fraction

from . import fileio
from .errors import ParseError, RelpolyError
from .modaction import RAISE, LOWER, CARTAN, act_in_basis, check_commutators
from .patterns import weight_vector
from .polyhedra import first_points, is_polytope
from .relations import check_admissible, is_reduced, is_top_connected, standard_set
from .selftest import run_selftest
from .tiling import (
    compute_tiling,
    kernel,
    min_face_dims,
    tiling_matrix,
)

FAMILIES = {"C1": (1, "both"), "Ck": (None, "both"), "Ck+": (None, "plus"),
            "Ck-": (None, "minus"), "empty": (1, "empty")}

ADMISSIBLE_LABELS = {
    "admissible": "Admissible",
    "not_admissible": "NotAdmissible",
    "inapplicable": "Inapplicable",
}


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _load(kind, path):
    """The relation set or pattern (kind "relations" or "pattern") in the
    text or JSON file at path.  The parsers are looked up on fileio at each
    call, so a wrapper that rebinds them there (perfbench's tracer) sees
    every call."""
    text = _read(path)
    if text.lstrip().startswith("{"):
        return getattr(fileio, f"{kind}_from_json")(fileio.load_json(text))
    return getattr(fileio, f"parse_{kind}")(text)


def _csv_rationals(text):
    try:
        return [Fraction(tok) for tok in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad rational list {text!r}") from None


def _nonnegative_int(text):
    """argparse type of --limit and --count: a negative value is a usage
    error, exit 2."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _emit(obj, fmt):
    if fmt == "json":
        print(json.dumps(obj, sort_keys=True))
    else:
        for key in sorted(obj):
            print(f"{key}: {obj[key]}")


def cmd_gen(args):
    k, variant = FAMILIES[args.family]
    if k is None:
        if args.k is None:
            raise ParseError(f"family {args.family} needs --k")
        k = args.k
    C = standard_set(args.n, k, variant)
    if args.format == "json":
        print(json.dumps(fileio.relations_to_json(C), sort_keys=True))
    else:
        sys.stdout.write(fileio.dump_relations(C))
    return 0


def cmd_check(args, C):
    red = is_reduced(C)
    adm = check_admissible(C)
    out = {
        "reduced": red.ok,
        "admissible": ADMISSIBLE_LABELS[adm.status],
        "top_connected": is_top_connected(C),
    }
    if red.violations:
        def listify(x):
            return [listify(y) for y in x] if isinstance(x, tuple) else x

        out["violations"] = [[code, listify(w)] for code, w in red.violations]
    if adm.witness is not None:
        out["witness"] = [list(adm.witness[0]), list(adm.witness[1])]
    if adm.reason is not None:
        out["reason"] = adm.reason
    _emit(out, args.format)
    return 0


def cmd_tile(args, C, X):
    tiling = compute_tiling(C, X)
    A = tiling_matrix(C, X, tiling)
    ker = kernel(A)
    tiles = []
    for t in tiling.tiles:
        verts = sorted(t)
        tiles.append({
            "vertices": [list(v) for v in verts],
            "lambda1_free": all(v[0] != C.n for v in t),
            "lambda2_free": all(v[0] not in (1, C.n) for v in t),
        })
    out = {
        "tiles": tiles,
        "matrix": [list(row) for row in A.entries],
        "kernel": [[str(x) for x in vec] for vec in ker],
    }
    _emit(out, args.format)
    return 0


def cmd_facedim(args, C, X):
    d, s, r = min_face_dims(C, X)
    _emit({"d": d, "s": s, "r": r}, args.format)
    return 0


def cmd_enumerate(args, C, L):
    report = is_polytope(C)
    mu = None if args.mu is None else _csv_rationals(args.mu)
    count, points = first_points(C, L, args.limit, mu)
    out = {
        "count": count,
        "points": [fileio.dump_pattern(p).rstrip("\n") for p in points],
        "bounded": report.bounded,
        "unbounded_coordinates": [list(v) for v in report.unbounded_coordinates],
    }
    _emit(out, args.format)
    return 0


def _parse_generator(spec, n):
    parts = spec.split()
    if len(parts) != 3 or parts[0] != "E":
        raise ParseError(f"generator spec must be 'E k l', got {spec!r}")
    try:
        k, l = int(parts[1]), int(parts[2])
    except ValueError:
        raise ParseError(f"bad generator indices in {spec!r}") from None
    if abs(k - l) > 1:
        raise ParseError("generator spec needs |k - l| <= 1")
    if not (1 <= k <= n and 1 <= l <= n):
        raise ParseError(f"generator indices in {spec!r} out of range 1..{n}")
    if l == k + 1:
        return (RAISE, k)
    if l == k - 1:
        return (LOWER, l)
    return (CARTAN, k)


def cmd_act(args, C, L):
    gen = _parse_generator(args.generator, C.n)
    if args.input == "-":
        text = sys.stdin.read()
    else:
        text = _read(args.input)
    v = fileio.lincomb_from_json(fileio.load_json(text))
    result = act_in_basis(C, L, gen, v)
    print(json.dumps(fileio.lincomb_to_json(result), sort_keys=True))
    return 0


def cmd_commutators(args, C, L):
    report = check_commutators(C, L, first_points(C, L, args.limit)[1])
    out = {
        "checked": report.checked,
        "failures": [[name, str(pattern), residual]
                     for name, pattern, residual in report.failures],
    }
    _emit(out, args.format)
    return 0 if report.ok else 1


def cmd_selftest(args):
    report = run_selftest(args.seed, args.count)
    face = report["face_dim"]
    print(f"face-dim oracle sweep: {face['checked']} instances, "
          f"{len(face['failures'])} failures")
    for entry in report["commutators"]:
        print(f"commutators {entry['module']}: {entry['checked']} vectors, "
              f"{len(entry['failures'])} failures")
    for entry in report["counts"]:
        print(f"counts {entry['module']}: {entry['count']} points, "
              f"Weyl dimension {entry['weyl_dim']}")
    print("selftest:", "PASS" if report["ok"] else "FAIL")
    return 0 if report["ok"] else 1


def build_parser():
    parser = argparse.ArgumentParser(prog="relpoly")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, inputs=(), formats=True, **kwargs):
        # main loads each input file, in this order, and passes it to func
        # after args.
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func, inputs=inputs)
        if formats:
            p.add_argument("--format", choices=("json", "text"), default="json")
        for kind in inputs:
            p.add_argument(f"--{kind}", required=True)
        return p

    both = ("relations", "pattern")
    p = add("gen", cmd_gen, help="emit a standard relation set")
    p.add_argument("--family", choices=sorted(FAMILIES), required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int, required=True)

    add("check", cmd_check, ("relations",), help="structural checks for a relation set")
    add("tile", cmd_tile, both, help="tiling report for a pattern")
    add("facedim", cmd_facedim, both, help="minimal-face dimensions")

    p = add("enumerate", cmd_enumerate, both, help="integral point enumeration")
    p.add_argument("--mu")
    p.add_argument("--limit", type=_nonnegative_int)

    p = add("act", cmd_act, both, formats=False, help="apply a generator to a combination")
    p.add_argument("--generator", required=True, help="'E k l' with |k-l| <= 1")
    p.add_argument("--input", default="-", help="combination JSON file or '-'")

    p = add("commutators", cmd_commutators, both, help="bracket identity report")
    p.add_argument("--limit", type=_nonnegative_int)

    p = add("selftest", cmd_selftest, formats=False, help="seeded verification sweeps")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_nonnegative_int, default=200)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, *(_load(kind, getattr(args, kind)) for kind in args.inputs))
    except ParseError as exc:
        print(json.dumps({"error": {"code": exc.code, "message": str(exc)}}))
        return 2
    except RelpolyError as exc:
        print(json.dumps({"error": {"code": exc.code, "message": str(exc)}}))
        return 1
    except Exception as exc:
        message = f"{type(exc).__name__}: {exc}"
        print(json.dumps({"error": {"code": "internal", "message": message}}))
        return 1


if __name__ == "__main__":
    sys.exit(main())

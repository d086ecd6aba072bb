"""Batch command-line front end with stable JSON/text output.

Exit codes: 0 success; 1 domain and internal errors and 2 I/O or parse
errors, each as error JSON on stdout; 2 also for usage errors such as a
negative --limit or --count or an --n below 1 (argparse's message on
stderr); 141 (128 + SIGPIPE), with nothing more written, once stdout's
reader has closed, whether the text is a result or an error JSON.

Each cmd_* function returns (exit code, text) and writes nothing; main is
the one writer of stdout.
"""

import argparse
import io
import json
import os
import sys
from itertools import islice

from . import fileio
from .errors import ParseError, RelpolyError
from .linalg import _ZERO
from .modaction import RAISE, LOWER, CARTAN, act_in_basis, check_commutators
from .polyhedra import _first_points, _row_map, _row_map_and_missing, _walk
from .relations import check_admissible, is_reduced, is_top_connected, standard_set
from .selftest import DEFAULT_COUNT, run_selftest
from .tiling import compute_tiling, kernel, lambda_free, min_face_dims, tiling_matrix

FAMILIES = {"C1": (1, "both"), "Ck": (None, "both"), "Ck+": (None, "plus"),
            "Ck-": (None, "minus"), "empty": (1, "empty")}

ADMISSIBLE_LABELS = {"admissible": "Admissible", "not_admissible": "NotAdmissible",
                     "inapplicable": "Inapplicable"}


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


def _csv_rationals(text, where):
    try:
        return [fileio.parse_rational(tok, where) for tok in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad rational list {text!r}") from None


def _int_at_least(low):
    """argparse type of --n (low 1), --limit and --count (low 0): a value
    below low is a usage error, exit 2."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _emit(obj, fmt):
    """obj as one line of JSON or as "key: value" lines, in key order."""
    if fmt == "json":
        return json.dumps(obj, sort_keys=True) + "\n"
    return "".join(f"{key}: {obj[key]}\n" for key in sorted(obj))


def cmd_gen(args):
    k, variant = FAMILIES[args.family]
    if k is None:
        if args.k is None:
            raise ParseError(f"family {args.family} needs --k")
        k = args.k
    C = standard_set(args.n, k, variant)
    if args.format == "json":
        return 0, _emit(fileio.relations_to_json(C), "json")
    return 0, fileio.dump_relations(C)


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
    return 0, _emit(out, args.format)


def cmd_tile(args, C, X):
    tiling = compute_tiling(C, X)
    A = tiling_matrix(C, X, tiling)
    ker = kernel(A)
    free2 = set(lambda_free(tiling, {1, C.n}))
    out = {
        # Tiling puts its free_count lambda1-free tiles first.
        "tiles": [{"vertices": [list(v) for v in sorted(t)],
                   "lambda1_free": i < tiling.free_count,
                   "lambda2_free": t in free2}
                  for i, t in enumerate(tiling.tiles)],
        "matrix": [list(row) for row in A.entries],
        # nullspace's zero coordinates are all linalg._ZERO: spell them
        # without a Fraction.__str__ call each.
        "kernel": [["0" if x is _ZERO else str(x) for x in vec] for vec in ker],
    }
    return 0, _emit(out, args.format)


def cmd_facedim(args, C, X):
    d, s, r = min_face_dims(C, X)
    return 0, _emit({"d": d, "s": s, "r": r}, args.format)


def cmd_enumerate(args, C, L):
    mu = None if args.mu is None else _csv_rationals(args.mu, "--mu")
    # Without --mu an open span raises Unbounded; with it, the same table
    # says whether the polyhedron is bounded.
    below, missing = _row_map_and_missing(C, L, mu)
    count, points = _first_points(L, below, args.limit)
    # Each point is dump_pattern's text without its final newline.  A point
    # has L's labels and enclosures at every vertex, so the sidecar lines are
    # L's, built once.
    labels = fileio._label_lines(L)
    out = {
        "count": count,
        "points": [fileio._rows_text(p) + labels for p in points],
        "bounded": not missing,
        "unbounded_coordinates": [list(v) for v in missing],
    }
    return 0, _emit(out, args.format)


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
    text = sys.stdin.read() if args.input == "-" else _read(args.input)
    v = fileio.lincomb_from_json(fileio.load_json(text))
    return 0, _emit(fileio.lincomb_to_json(act_in_basis(C, L, gen, v)), "json")


def cmd_commutators(args, C, L):
    # The basis prefix that first_points would give, straight off the walk:
    # no count is printed, so none is taken.
    report = check_commutators(C, L, islice(_walk(L, _row_map(C, L)), args.limit))
    out = {
        "checked": report.checked,
        "failures": [[name, str(pattern), residual]
                     for name, pattern, residual in report.failures],
    }
    return 0 if report.ok else 1, _emit(out, args.format)


def cmd_selftest(args):
    lines, ok = run_selftest(args.seed, args.count)
    lines.append("selftest: PASS" if ok else "selftest: FAIL")
    return 0 if ok else 1, "\n".join(lines) + "\n"


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
    p.add_argument("--n", type=_int_at_least(1), required=True)

    add("check", cmd_check, ("relations",), help="structural checks for a relation set")
    add("tile", cmd_tile, both, help="tiling report for a pattern")
    add("facedim", cmd_facedim, both, help="minimal-face dimensions")

    p = add("enumerate", cmd_enumerate, both, help="integral point enumeration")
    p.add_argument("--mu")
    p.add_argument("--limit", type=_int_at_least(0))

    p = add("act", cmd_act, both, formats=False, help="apply a generator to a combination")
    p.add_argument("--generator", required=True, help="'E k l' with |k-l| <= 1")
    p.add_argument("--input", default="-", help="combination JSON file or '-'")

    p = add("commutators", cmd_commutators, both, help="bracket identity report")
    p.add_argument("--limit", type=_int_at_least(0))

    p = add("selftest", cmd_selftest, formats=False, help="seeded verification sweeps")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_int_at_least(0), default=DEFAULT_COUNT)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, text = args.func(args, *(_load(kind, getattr(args, kind)) for kind in args.inputs))
    except RelpolyError as exc:
        code = 2 if isinstance(exc, ParseError) else 1
        text = _emit({"error": {"code": exc.code, "message": str(exc)}}, "json")
    except Exception as exc:
        message = f"{type(exc).__name__}: {exc}"
        code, text = 1, _emit({"error": {"code": "internal", "message": message}}, "json")
    out = sys.stdout
    raw = getattr(out, "buffer", None)
    try:
        if isinstance(raw, io.RawIOBase):
            # Unbuffered (python -u): TextIOWrapper drops the rest of a short
            # raw write, so a reader gone mid-way would go unnoticed.
            data = memoryview(text.encode(out.encoding, out.errors))
            while data:
                data = data[raw.write(data):]
        else:
            out.write(text)
        out.flush()  # a closed pipe fails here, not at interpreter exit
    except BrokenPipeError:
        # The reader is gone: send what stdout still buffers to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())

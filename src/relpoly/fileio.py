"""Text and JSON formats for relation sets, patterns, and combinations.

Relation text format, one relation per line::

    n 4
    3 2 -> 2 2      # comments allowed

Pattern text format: n lines, top row first, whitespace-separated entries.
Rationals are ``p/q``; labeled entries ``name`` or ``name+p/q`` with a
sidecar line ``name = <lo> <hi>`` giving a decimal enclosure of the base;
a second sidecar line for a name must give the same enclosure.
"""

import json
import re
from fractions import Fraction

from .errors import ParseError
from .patterns import Entry, Pattern
from .relations import RelationSet

_LABEL_RE = re.compile(r"^([A-Za-z_]\w*)([+-].+)?$")


def parse_relations(text):
    n = None
    rels = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "n":
                raise ParseError(f"line {lineno}: expected header 'n <int>'")
            try:
                n = int(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: bad n {parts[1]!r}") from None
            continue
        m = re.match(r"^(\d+)\s+(\d+)\s*->\s*(\d+)\s+(\d+)$", line)
        if not m:
            raise ParseError(f"line {lineno}: expected 'i j -> r s'")
        i, j, r, s = (int(x) for x in m.groups())
        rels.append(((i, j), (r, s)))
    if n is None:
        raise ParseError("missing 'n <int>' header")
    return RelationSet(n, rels)


def dump_relations(C):
    lines = [f"n {C.n}"]
    for (i, j), (r, s) in C:
        lines.append(f"{i} {j} -> {r} {s}")
    return "\n".join(lines) + "\n"


def relations_to_json(C):
    return {"n": C.n, "relations": [[i, j, r, s] for (i, j), (r, s) in C]}


def relations_from_json(obj):
    try:
        n = obj["n"]
        rels = [((i, j), (r, s)) for i, j, r, s in obj["relations"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad relation JSON: {exc}") from exc
    coords = [x for rel in rels for end in rel for x in end]
    if not all(type(x) is int for x in [n, *coords]):
        raise ParseError("bad relation JSON: n and the coordinates must be integers")
    return RelationSet(n, rels)


def _parse_entry(tok, labels):
    m = _LABEL_RE.match(tok)
    if m and m.group(1) not in labels:
        raise ParseError(f"unknown label {m.group(1)!r} (missing sidecar line?)")
    try:
        if m is None:
            return Entry.rational(Fraction(tok))
        name, offset = m.groups()
        return Entry.labeled(name, *labels[name], Fraction(offset or 0))
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad entry token {tok!r}") from None


def _parse_decimal(tok):
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad number {tok!r}") from None


def _enclosure(lo, hi, where):
    """A label's enclosure (lo, hi) as rationals, with lo <= hi."""
    enclosure = _parse_decimal(lo), _parse_decimal(hi)
    if enclosure[0] > enclosure[1]:
        raise ParseError(f"{where}: empty enclosure, {lo} > {hi}")
    return enclosure


def parse_pattern(text):
    labels = {}
    row_lines = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            name, _, rest = line.partition("=")
            name = name.strip()
            parts = rest.split()
            if not _LABEL_RE.match(name) or len(parts) != 2:
                raise ParseError(f"line {lineno}: expected 'name = <lo> <hi>'")
            enclosure = _enclosure(*parts, f"line {lineno}")
            if labels.setdefault(name, enclosure) != enclosure:
                raise ParseError(f"line {lineno}: second, different enclosure of {name!r}")
        else:
            row_lines.append((lineno, line.split()))
    if not row_lines:
        raise ParseError("no pattern rows found")
    n = len(row_lines[0][1])
    if len(row_lines) != n:
        raise ParseError(f"expected {n} rows (top row has {n} entries)")
    rows = []
    for expected, (lineno, toks) in zip(range(n, 0, -1), row_lines):
        if len(toks) != expected:
            raise ParseError(f"line {lineno}: expected {expected} entries")
        rows.append([_parse_entry(t, labels) for t in toks])
    return Pattern.from_rows(rows)


def dump_pattern(X):
    labels = {}
    lines = []
    for row in X.rows():
        lines.append(" ".join(str(e) for e in row))
        for e in row:
            if e.label is not None:
                labels[e.label] = (e.lo, e.hi)
    for name in sorted(labels):
        lo, hi = labels[name]
        lines.append(f"{name} = {lo} {hi}")
    return "\n".join(lines) + "\n"


def pattern_to_json(X):
    obj = {"n": X.n, "entries": [str(e) for e in X.entries]}
    labels = {
        e.label: [str(e.lo), str(e.hi)] for e in X.entries if e.label is not None
    }
    if labels:
        obj["labels"] = labels
    return obj


def pattern_from_json(obj):
    try:
        n, toks, labels = obj["n"], obj["entries"], obj.get("labels", {})
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad pattern JSON: {exc}") from exc
    if type(n) is not int or n < 1:
        raise ParseError(f"bad pattern JSON: n must be a positive integer, got {n!r}")
    if not (isinstance(toks, list) and all(isinstance(t, str) for t in toks)):
        raise ParseError("bad pattern JSON: entries must be a list of strings")
    if not (isinstance(labels, dict) and all(
            isinstance(v, list) and len(v) == 2 and all(isinstance(x, str) for x in v)
            for v in labels.values())):
        raise ParseError("bad pattern JSON: labels must map each name to [lo, hi] strings")
    labels = {name: _enclosure(lo, hi, f"label {name!r}") for name, (lo, hi) in labels.items()}
    entries = [_parse_entry(t, labels) for t in toks]
    if len(entries) != n * (n + 1) // 2:
        raise ParseError("wrong number of entries for n")
    return Pattern(n, tuple(entries))


def lincomb_to_json(v):
    return {
        "terms": [
            {"pattern": pattern_to_json(p), "coeff": str(c)} for p, c in v.terms
        ]
    }


def lincomb_from_json(obj):
    from .modaction import LinComb

    try:
        items = [
            (pattern_from_json(t["pattern"]), Fraction(t["coeff"]))
            for t in obj["terms"]
        ]
    except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ParseError(f"bad combination JSON: {exc}") from exc
    return LinComb.build(items)


def load_json(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc

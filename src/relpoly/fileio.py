"""Text and JSON formats for relation sets, patterns, and combinations.

Relation text format, one relation per line::

    n 4
    3 2 -> 2 2      # comments allowed

Pattern text format: n lines, top row first, whitespace-separated entries.
Rationals are ``p/q``; labeled entries ``name`` or ``name+p/q`` with a
sidecar line ``name = <lo> <hi>`` giving a decimal enclosure of the base;
a second sidecar line for a name must give the same enclosure.  A name is
a letter or ``_`` followed by letters, digits or ``_``, in the sidecar
lines and the JSON ``labels`` keys alike.

Every rational these formats read goes through `parse_rational`, which
rejects an underscore and a decimal exponent beyond MAX_EXPONENT in
magnitude.
"""

import json
import re
from fractions import Fraction
from functools import lru_cache

from .errors import ParseError
from .modaction import LinComb
from .patterns import Entry, Pattern
from .relations import RelationSet

_NAME_RE = re.compile(r"[A-Za-z_]\w*")  # a label name, with fullmatch
_LABEL_RE = re.compile(rf"^({_NAME_RE.pattern})([+-].+)?$")
_RELATION_RE = re.compile(r"^(\d+)\s+(\d+)\s*->\s*(\d+)\s+(\d+)$")
_EXPONENT_RE = re.compile(r"[eE]([-+]?\d+)\s*$")

# The largest decimal exponent, in magnitude, of a rational token.  Fraction
# computes 10**e, so the ten bytes "1e10000000" alone would take seconds, and
# a longer exponent minutes and gigabytes.
MAX_EXPONENT = 1000


def parse_rational(tok, where):
    """The rational tok spells: an int when it is integral, else a Fraction.

    A sign and ASCII digits go through int, anything else through Fraction,
    whose ValueError or ZeroDivisionError the caller words for its format.
    An underscore is a ValueError, as Fraction gives it before Python 3.11,
    so a token reads the same on every version.  An exponent beyond
    MAX_EXPONENT is a ParseError that names `where`.
    """
    digits = tok[1:] if tok[:1] in ("+", "-") else tok
    if digits.isdigit() and digits.isascii():
        return int(tok)
    if "_" in tok:
        raise ValueError(f"Invalid literal for Fraction: {tok!r}")
    m = _EXPONENT_RE.search(tok)
    if m is not None and abs(int(m.group(1))) > MAX_EXPONENT:
        raise ParseError(f"{where}: exponent of {tok!r} exceeds {MAX_EXPONENT} in magnitude")
    x = Fraction(tok)
    return x.numerator if x.denominator == 1 else x


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
                if "_" in parts[1]:  # int reads PEP 515 underscores; no format does
                    raise ValueError
                n = int(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: bad n {parts[1]!r}") from None
            if n < 1:
                raise ParseError(f"line {lineno}: n must be a positive integer, got {n}")
            continue
        m = _RELATION_RE.match(line)
        if not m:
            raise ParseError(f"line {lineno}: expected 'i j -> r s'")
        try:
            i, j, r, s = map(int, m.groups())
        except ValueError:  # more digits than int converts
            raise ParseError(f"line {lineno}: coordinate too long") from None
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
    if n < 1:
        raise ParseError(f"bad relation JSON: n must be a positive integer, got {n}")
    return RelationSet(n, rels)


def _parse_entry(tok, labels, where):
    m = _LABEL_RE.match(tok)
    if m and m.group(1) not in labels:
        raise ParseError(f"{where}: unknown label {m.group(1)!r} (missing sidecar line?)")
    try:
        if m is None:
            return Entry._unlabeled(parse_rational(tok, where))
        name, offset = m.groups()
        return Entry.labeled(name, *labels[name], parse_rational(offset, where) if offset else 0)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"{where}: bad entry token {tok!r}") from None


def _parse_decimal(tok, where):
    try:
        return parse_rational(tok, where)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"{where}: bad number {tok!r}") from None


def _enclosure(lo, hi, where):
    """A label's enclosure (lo, hi) as rationals, with lo <= hi."""
    enclosure = _parse_decimal(lo, where), _parse_decimal(hi, where)
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
            if not _NAME_RE.fullmatch(name) or len(parts) != 2:
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
    # The entries are made once, here: one enclosure per label, and rows of
    # the right lengths, so the Pattern takes them as they are.
    entries = []
    for expected, (lineno, toks) in zip(range(n, 0, -1), row_lines):
        if len(toks) != expected:
            raise ParseError(f"line {lineno}: expected {expected} entries")
        where = f"line {lineno}"
        entries += [_parse_entry(t, labels, where) for t in toks]
    return Pattern._from_entries(n, tuple(entries))


@lru_cache(maxsize=16)
def _rows_template(n):
    """The rows of a pattern on n rows with a %s per entry, in the order of
    Pattern.entries (top row first), without the final newline.  Cached:
    building it takes about as long as filling it in."""
    return "\n".join(" ".join(["%s"] * k) for k in range(n, 0, -1))


def _rows_text(X):
    """X's rows as dump_pattern writes them, without the final newline."""
    # %s applies str to each item, and an unlabeled entry's str is its
    # offset's, so only labeled entries go through Entry.__str__.
    return _rows_template(X.n) % tuple([e.offset if e.label is None else e for e in X.entries])


def _label_lines(X):
    """The sidecar line of each of X's labels, sorted by name, each after a
    newline: the empty string when no entry is labeled."""
    labels = {e.label: (e.lo, e.hi) for e in X.entries if e.label is not None}
    return "".join(f"\n{name} = {lo} {hi}" for name, (lo, hi) in sorted(labels.items()))


def dump_pattern(X):
    return _rows_text(X) + _label_lines(X) + "\n"


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
    for name in labels:
        if not _NAME_RE.fullmatch(name):
            raise ParseError(f"bad pattern JSON: label name {name!r} is not a letter or _"
                             " followed by letters, digits or _")
    labels = {name: _enclosure(lo, hi, f"label {name!r}") for name, (lo, hi) in labels.items()}
    entries = [_parse_entry(t, labels, f"entries[{i}]") for i, t in enumerate(toks)]
    if len(entries) != n * (n + 1) // 2:
        raise ParseError("wrong number of entries for n")
    return Pattern._from_entries(n, tuple(entries))


def lincomb_to_json(v):
    return {
        "terms": [
            {"pattern": pattern_to_json(p), "coeff": str(c)} for p, c in v.terms
        ]
    }


def _coefficient(c, i):
    """A JSON coefficient: a string token, or an integer as it is.  Any other
    value (a float, a bool, null, a list) is a ParseError: a float is not the
    number its digits spell."""
    where = f"bad combination JSON: terms[{i}].coeff"
    if type(c) is str:
        return parse_rational(c, where)
    if type(c) is int:
        return c
    raise ParseError(f"{where} must be a string token or an integer, got {json.dumps(c)}")


def lincomb_from_json(obj):
    try:
        items = [
            (pattern_from_json(t["pattern"]), _coefficient(t["coeff"], i))
            for i, t in enumerate(obj["terms"])
        ]
    except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ParseError(f"bad combination JSON: {exc}") from exc
    return LinComb.build(items)


def load_json(text):
    """The JSON value of text.  Besides malformed text, an integer literal
    over int's digit limit (a ValueError) and nesting past the recursion
    limit are ParseErrors."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise ParseError(f"invalid JSON: {exc}") from exc

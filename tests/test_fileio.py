"""Round-trips and error handling for the text/JSON file formats."""

import random
import re
import time
from fractions import Fraction

import pytest

from relpoly import cli, fileio
from relpoly.errors import ParseError
from relpoly.modaction import LinComb
from relpoly.patterns import Entry, Pattern, constant_pattern
from relpoly.relations import RelationSet, standard_set
from test_relations import random_relation_set, ref_reach


def test_relations_text_roundtrip():
    C = standard_set(4, 2, "both")
    text = fileio.dump_relations(C)
    assert fileio.parse_relations(text) == C
    assert fileio.dump_relations(fileio.parse_relations(text)) == text


def test_relations_text_comments_and_blanks():
    text = "# header comment\nn 3\n\n2 1 -> 1 1  # an arrow\n"
    C = fileio.parse_relations(text)
    assert C.relations == (((2, 1), (1, 1)),)


def test_relations_text_errors():
    with pytest.raises(ParseError):
        fileio.parse_relations("2 1 -> 1 1\n")  # missing header
    with pytest.raises(ParseError):
        fileio.parse_relations("n 3\n2 1 => 1 1\n")
    with pytest.raises(ParseError):
        fileio.parse_relations("n x\n")
    with pytest.raises(ParseError, match="^line 1: bad n '1_0'$"):
        fileio.parse_relations("n 1_0\n")  # int reads it as 10


def test_relations_json_roundtrip():
    C = standard_set(3, 1, "minus")
    obj = fileio.relations_to_json(C)
    assert obj["n"] == 3
    assert fileio.relations_from_json(obj) == C
    with pytest.raises(ParseError):
        fileio.relations_from_json({"relations": []})


def test_pattern_text_roundtrip_rational():
    X = Pattern.from_rows([[2, Fraction(1, 2), 0], [1, 0], [Fraction(-3, 4)]])
    text = fileio.dump_pattern(X)
    assert fileio.parse_pattern(text) == X
    assert fileio.dump_pattern(fileio.parse_pattern(text)) == text


def test_pattern_text_roundtrip_labeled():
    X = Pattern.from_rows([[1, 2, 3],
                           [Entry.sqrt(2), Entry.sqrt(2).add(Fraction(1, 2))],
                           [Entry.sqrt(3)]])
    text = fileio.dump_pattern(X)
    Y = fileio.parse_pattern(text)
    assert Y == X
    assert "sqrt2 = " in text and "sqrt3 = " in text


def test_pattern_text_errors():
    with pytest.raises(ParseError):
        fileio.parse_pattern("1 0\n")  # missing bottom row
    with pytest.raises(ParseError):
        fileio.parse_pattern("1 0\n0 0\n")  # bad row length
    with pytest.raises(ParseError):
        fileio.parse_pattern("alpha 0\n0\n")  # label without sidecar
    with pytest.raises(ParseError):
        fileio.parse_pattern("1 z\n0\n")


def test_pattern_text_one_enclosure_per_label():
    with pytest.raises(ParseError, match="line 4: second, different enclosure of 'a'"):
        fileio.parse_pattern("a 0\na\na = 1 2\na = 5 6\n")
    X = fileio.parse_pattern("a 0\na\na = 1 2\na = 1.0 2\n")  # the same one again
    assert X[(2, 1)] == X[(1, 1)] and (X[(1, 1)].lo, X[(1, 1)].hi) == (1, 2)


@pytest.mark.parametrize("name", ["a+1", "a-1/2", "1bad", "a b", "sqrt2+"])
def test_label_names_are_identifiers(name):
    # A name no entry could spell is a ParseError where it is declared, not
    # an "unknown label" at the first entry that tries.
    with pytest.raises(ParseError, match=r"^line 2: expected 'name = <lo> <hi>'$"):
        fileio.parse_pattern(f"0\n{name} = 1 2\n")
    with pytest.raises(ParseError, match=re.escape(f"bad pattern JSON: label name {name!r}")):
        fileio.pattern_from_json({"n": 1, "entries": ["0"], "labels": {name: ["1", "2"]}})
    for ok in ("a", "_a1", "sqrt2"):
        X = fileio.parse_pattern(f"{ok}+1\n{ok} = 1 2\n")
        assert fileio.pattern_from_json(fileio.pattern_to_json(X)) == X


def test_facedim_rejects_a_sidecar_name_with_an_offset(capsys, tmp_path):
    rel, pat = tmp_path / "c1.rel", tmp_path / "bad.pat"
    rel.write_text(fileio.dump_relations(standard_set(2, 1, "both")))
    pat.write_text("a+1 0\na\na+1 = 1 2\na = 1 2\n")
    assert cli.main(["facedim", "--relations", str(rel), "--pattern", str(pat)]) == 2
    assert capsys.readouterr().out == (
        '{"error": {"code": "parse_error", '
        '"message": "line 3: expected \'name = <lo> <hi>\'"}}\n')


def test_pattern_json_roundtrip():
    X = Pattern.from_rows([[1, 0], [Entry.sqrt(2)]])
    obj = fileio.pattern_to_json(X)
    assert fileio.pattern_from_json(obj) == X
    with pytest.raises(ParseError):
        fileio.pattern_from_json({"n": 2, "entries": ["1", "0"]})


def test_lincomb_json_roundtrip():
    a = Pattern.from_rows([[1, 0], [0]])
    b = Pattern.from_rows([[1, 0], [1]])
    v = LinComb.build([(a, Fraction(2, 3)), (b, Fraction(-1))])
    obj = fileio.lincomb_to_json(v)
    assert fileio.lincomb_from_json(obj) == v
    with pytest.raises(ParseError):
        fileio.lincomb_from_json({"terms": [{"coeff": "1"}]})


def test_lincomb_json_coefficient_is_a_token_or_an_integer():
    # A JSON integer reads as it is.  A float is not the number its digits
    # spell (0.1 would read 3602879701896397/36028797018963968), so it is a
    # parse error, as are a bool, null and a list.
    base = Pattern(1, (Entry(0),))

    def read(coeff):
        return fileio.lincomb_from_json(
            {"terms": [{"pattern": {"n": 1, "entries": ["0"]}, "coeff": coeff}]})

    for coeff in (3, "3", 10 ** 30, -7):
        got = dict(read(coeff).terms)[base]
        assert (type(got), got) == (Fraction, Fraction(int(coeff)))
    assert read(0).is_zero()
    for coeff, spelled in ((0.1, "0.1"), (1.5, "1.5"), (True, "true"), (False, "false"),
                           (None, "null"), ([1], "[1]")):
        with pytest.raises(ParseError) as info:
            read(coeff)
        assert str(info.value) == (
            "bad combination JSON: terms[0].coeff must be a string token or an integer, "
            f"got {spelled}")


def random_entry(rng):
    """A rational, or now and then a sqrt label with a rational offset."""
    offset = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    if rng.random() < 0.3:
        return Entry.sqrt(rng.choice((2, 3, 5, 7))).add(offset)
    return offset


def test_random_roundtrips():
    rng = random.Random(31)
    labeled = 0
    for _ in range(60):
        n = rng.randint(1, 5)
        X = Pattern.from_rows([[random_entry(rng) for _ in range(k)] for k in range(n, 0, -1)])
        labeled += any(e.label is not None for e in X.entries)
        text = fileio.dump_pattern(X)
        assert fileio.parse_pattern(text) == X
        assert fileio.dump_pattern(fileio.parse_pattern(text)) == text
        assert fileio.pattern_from_json(fileio.pattern_to_json(X)) == X
    assert labeled >= 20
    for _ in range(25):
        n = rng.randint(2, 5)
        C = standard_set(n, rng.randint(1, n),
                         rng.choice(("plus", "minus", "both")))
        assert fileio.parse_relations(fileio.dump_relations(C)) == C
        assert fileio.relations_from_json(fileio.relations_to_json(C)) == C
    # Zero arcs and cycles, n 2-7.
    cyclic = 0
    for _ in range(200):
        C = random_relation_set(rng)
        reach = ref_reach(C)
        cyclic += any(src in reach[dst] for src, dst in C)
        text = fileio.dump_relations(C)
        assert fileio.parse_relations(text) == C
        assert fileio.dump_relations(fileio.parse_relations(text)) == text
        assert fileio.relations_from_json(fileio.relations_to_json(C)) == C
    assert cyclic >= 20


def dump_pattern_per_entry(X):
    """dump_pattern as it was written before patterns went through one row
    template: one str per entry, then the sorted sidecar lines."""
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


def drawn_entry(rng, kind):
    if kind == "int":
        return rng.randint(-12, 12)
    if kind == "frac":
        return Fraction(rng.randint(-12, 12), rng.choice((2, 3, 7)))
    if kind == "sqrt":
        return Entry.sqrt(2, Fraction(rng.randint(-5, 5), rng.choice((1, 2))))
    return random_entry(rng)


def test_dump_pattern_matches_the_per_entry_dump():
    rng = random.Random(20261022)
    mixed_rows = 0
    for _ in range(400):
        n = rng.randint(1, 6)
        kind = rng.choice(("int", "frac", "sqrt", "mixed"))
        X = Pattern.from_rows([[drawn_entry(rng, kind) for _ in range(k)]
                               for k in range(n, 0, -1)])
        text = fileio.dump_pattern(X)
        assert text == dump_pattern_per_entry(X), (kind, str(X))
        assert fileio.parse_pattern(text) == X
        mixed_rows += any(len({e.label is None for e in X.row(k)}) == 2
                          for k in range(1, n + 1))
    # Rows of labeled and unlabeled entries side by side.
    assert mixed_rows >= 30
    for n, value in ((1, 0), (1, -3), (2, Fraction(-5, 2)), (46, 0), (46, -7)):
        X = constant_pattern(n, value)
        assert fileio.dump_pattern(X) == dump_pattern_per_entry(X)


def test_load_json_error():
    with pytest.raises(ParseError):
        fileio.load_json("{not json")


TOKEN_CORPUS = ("0 007 -0 +3 -3 1_000 ٣ ² 3/1 -6/4 1e3 3.0 .5 1e-2 x sqrt2 sqrt2+1/2"
                " -1_0 1_0/3 1/1_0 1.0_5 1e1_0 1e1_000_000_000 a_b+1_0").split()


def fraction_reading(tok):
    """What each format reads: Fraction(tok) as Python 3.10 reads it, with
    no PEP 515 underscores, an int when it is integral; the exception
    Fraction raises, if it raises."""
    try:
        if "_" in tok:  # Fraction takes underscores from 3.11 on
            raise ValueError(f"Invalid literal for Fraction: {tok!r}")
        x = Fraction(tok)
    except (ValueError, ZeroDivisionError) as exc:
        return exc
    return x.numerator if x.denominator == 1 else x


def site_readings(tok):
    """{site: (what the site read, its ParseError message or None)} for tok
    as a pattern entry, a label offset, a label enclosure, a pattern JSON
    entry or enclosure, and a combination coefficient."""
    offset = tok if tok[0] in "+-" else "+" + tok
    sites = {
        "entry": lambda: fileio.parse_pattern(f"{tok}\n").entries[0].offset,
        "offset": lambda: fileio.parse_pattern(f"a{offset}\na = 1 2\n").entries[0].offset,
        "enclosure": lambda: fileio.parse_pattern(f"a\na = {tok} 2000\n").entries[0].lo,
        "json entry": lambda: fileio.pattern_from_json({"n": 1, "entries": [tok]}).entries[0].offset,
        "json enclosure": lambda: fileio.pattern_from_json(
            {"n": 1, "entries": ["a"], "labels": {"a": [tok, "2000"]}}).entries[0].lo,
        "coefficient": lambda: dict(fileio.lincomb_from_json(
            {"terms": [{"pattern": {"n": 1, "entries": ["0"]}, "coeff": tok}]}).terms).get(
                Pattern(1, (Entry(0),)), Fraction(0)),
    }
    out = {}
    for site, read in sites.items():
        try:
            out[site] = read(), None
        except ParseError as exc:
            out[site] = None, str(exc)
    return out


@pytest.mark.parametrize("tok", TOKEN_CORPUS)
def test_parse_rational_reads_what_fraction_read(tok):
    want = fraction_reading(tok)
    if isinstance(want, Exception):
        with pytest.raises(type(want)) as info:
            fileio.parse_rational(tok, "here")
        assert str(info.value) == str(want)
    else:
        got = fileio.parse_rational(tok, "here")
        assert (type(got), got) == (type(want), want)
    readings = site_readings(tok)
    if isinstance(want, Exception):
        label = tok if tok[0].isalpha() else None  # read as a label, not a number
        unknown = f"unknown label {label.split('+')[0]!r} (missing sidecar line?)" if label else None
        offset = tok if tok[0] in "+-" else "+" + tok
        assert readings == {
            "entry": (None, f"line 1: {unknown or f'bad entry token {tok!r}'}"),
            "offset": (None, f"line 1: bad entry token {'a' + offset!r}"),
            "enclosure": (None, f"line 2: bad number {tok!r}"),
            "json entry": (None, f"entries[0]: {unknown or f'bad entry token {tok!r}'}"),
            "json enclosure": (None, f"label 'a': bad number {tok!r}"),
            "coefficient": (None, f"bad combination JSON: {want}"),
        }
    else:
        # Entries keep int iff integral; a coefficient is a Fraction.
        assert {site: (type(x), x) for site, (x, _) in readings.items()} == {
            **{site: (type(want), want) for site in readings}, "coefficient": (Fraction, want)}


def test_only_ascii_digits_take_the_int_path():
    # str.isdigit holds for both, but int rejects the superscript and
    # Fraction reads the Arabic-Indic three through its own pattern.
    assert "²".isdigit() and "٣".isdigit()
    with pytest.raises(ValueError, match="Invalid literal for Fraction"):
        fileio.parse_rational("²", "here")
    assert fileio.parse_rational("٣", "here") == 3
    assert [fileio.parse_rational(t, "here") for t in ("-0", "+0", "0012", "-12")] == [0, 0, 12, -12]
    for tok in ("", "+", "-", "+-3", "--3", "3-", " 3x"):
        with pytest.raises(ValueError):
            fileio.parse_rational(tok, "here")


BOUND = fileio.MAX_EXPONENT


@pytest.mark.parametrize("tok", ["1e100000000", "-1E-100000000", "2.5e+100000000", ".5e" + "٩" * 9,
                                 f"1e{BOUND + 1}", f"1e-{BOUND + 1}", "1e" + "0" * 20 + "7" * 12])
def test_exponent_beyond_the_bound_is_a_parse_error(tok):
    start = time.perf_counter()
    with pytest.raises(ParseError, match=f"^here: exponent of {re.escape(repr(tok))} exceeds {BOUND} "):
        fileio.parse_rational(tok, "here")
    readings = site_readings(tok)
    assert time.perf_counter() - start < 1
    offset = tok if tok[0] in "+-" else "+" + tok
    assert {site: message.split(": exponent of ")[0] for site, (_, message) in readings.items()} == {
        "entry": "line 1", "offset": "line 1", "enclosure": "line 2", "json entry": "entries[0]",
        "json enclosure": "label 'a'", "coefficient": "bad combination JSON: terms[0].coeff"}
    assert repr(offset) in readings["offset"][1]


def test_exponents_within_the_bound_are_read():
    assert fileio.parse_rational(f"1e{BOUND}", "here") == 10 ** BOUND
    assert fileio.parse_rational(f"-3E-{BOUND}", "here") == Fraction(-3, 10 ** BOUND)
    assert fileio.parse_rational("1e" + "0" * 30 + "2", "here") == 100
    # Malformed exponents are Fraction's to reject, with its message.
    for tok in ("1e", "1e+", "1e1__0", "e5", "1e5x"):
        with pytest.raises(ValueError, match="Invalid literal for Fraction"):
            fileio.parse_rational(tok, "here")


"""End-to-end CLI behaviour: outputs, determinism, and exit codes."""

import json
import random
from collections import Counter

import pytest

from relpoly import cli, fileio
from relpoly.cli import main
from relpoly.errors import RelpolyError
from relpoly.modaction import check_commutators
from relpoly.patterns import Pattern, constant_pattern
from relpoly.polyhedra import enumerate_integral
from relpoly.relations import RelationSet, standard_set

FIG_ROWS = [[9, 8, 6, 5, 3], [8, 5, 5, 4], [3, 3, 0], [3, -1], [-2]]


@pytest.fixture
def fig_files(tmp_path):
    rel = tmp_path / "c1plus.rel"
    rel.write_text(fileio.dump_relations(standard_set(5, 1, "plus")))
    pat = tmp_path / "fig.pat"
    pat.write_text(fileio.dump_pattern(Pattern.from_rows(FIG_ROWS)))
    return str(rel), str(pat)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_gen_matches_library(capsys):
    code, out = run(capsys, "gen", "--family", "C1", "--n", "4",
                    "--format", "text")
    assert code == 0
    assert fileio.parse_relations(out) == standard_set(4, 1, "both")


def test_gen_requires_k(capsys):
    code, out = run(capsys, "gen", "--family", "Ck+", "--n", "4")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "parse_error"


def test_check_empty(capsys, tmp_path):
    rel = tmp_path / "empty.rel"
    rel.write_text("n 3\n")
    code, out = run(capsys, "check", "--relations", str(rel))
    assert code == 0
    assert json.loads(out) == {"reduced": True, "admissible": "Admissible",
                               "top_connected": True}


def test_check_counterexample(capsys, tmp_path):
    rel = tmp_path / "bad.rel"
    rel.write_text(fileio.dump_relations(
        RelationSet(3, [((2, 1), (1, 1)), ((1, 1), (2, 2))])))
    code, out = run(capsys, "check", "--relations", str(rel))
    assert code == 0
    obj = json.loads(out)
    assert obj["admissible"] == "NotAdmissible"
    assert obj["witness"] == [[2, 1], [2, 2]]


def test_tile_figure(capsys, fig_files):
    rel, pat = fig_files
    code, out = run(capsys, "tile", "--relations", rel, "--pattern", pat)
    assert code == 0
    obj = json.loads(out)
    assert obj["matrix"] == [[1, 0, 0, 0, 0, 0, 0, 0, 0],
                             [0, 1, 1, 0, 0, 0, 0, 0, 0],
                             [0, 1, 0, 1, 1, 0, 0, 0, 0],
                             [0, 0, 0, 0, 0, 1, 1, 1, 1]]
    assert len(obj["tiles"]) == 14
    assert sum(t["lambda1_free"] for t in obj["tiles"]) == 9
    assert sum(t["lambda2_free"] for t in obj["tiles"]) == 8
    assert len(obj["kernel"]) == 5


def test_facedim_figure(capsys, fig_files):
    rel, pat = fig_files
    code, out = run(capsys, "facedim", "--relations", rel, "--pattern", pat)
    assert code == 0
    assert json.loads(out) == {"d": 14, "s": 9, "r": 5}


def test_enumerate(capsys, tmp_path):
    rel = tmp_path / "c1.rel"
    rel.write_text(fileio.dump_relations(standard_set(3, 1, "both")))
    pat = tmp_path / "l.pat"
    pat.write_text("2 1 0\n1 0\n0\n")
    code, out = run(capsys, "enumerate", "--relations", str(rel),
                    "--pattern", str(pat))
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 8 and obj["bounded"] is True
    assert len(obj["points"]) == 8

    code, out = run(capsys, "enumerate", "--relations", str(rel),
                    "--pattern", str(pat), "--mu", "1,1,1")
    obj = json.loads(out)
    assert code == 0
    assert obj["count"] == 2
    assert obj["points"] == ["2 1 0\n1 1\n1", "2 1 0\n2 0\n1"]

    code, out = run(capsys, "enumerate", "--relations", str(rel),
                    "--pattern", str(pat), "--limit", "3")
    obj = json.loads(out)
    assert obj["count"] == 8 and len(obj["points"]) == 3


@pytest.mark.parametrize("mu", [None, "2,2,2"])
def test_enumerate_limit_is_the_full_output_sliced(capsys, tmp_path, mu):
    rel = tmp_path / "c1.rel"
    rel.write_text(fileio.dump_relations(standard_set(3, 1, "both")))
    pat = tmp_path / "l.pat"
    pat.write_text("4 2 0\n2 0\n0\n")
    argv = ["enumerate", "--relations", str(rel), "--pattern", str(pat)]
    if mu is not None:
        argv += ["--mu", mu]
    code, out = run(capsys, *argv)
    assert code == 0
    full = json.loads(out)
    assert full["count"] == len(full["points"]) == (27 if mu is None else 3)
    for limit in (0, 1, 2, full["count"], full["count"] + 5):
        code, out = run(capsys, *argv, "--limit", str(limit))
        assert code == 0
        want = dict(full, points=full["points"][:limit])
        assert out == json.dumps(want, sort_keys=True) + "\n"


def commutators_unstreamed(C, L, limit):
    """Exit code and stdout of `relpoly commutators` computed the way it was
    before --limit streamed: the whole basis enumerated, then sliced."""
    try:
        basis = enumerate_integral(C, L).points
        if limit is not None:
            basis = basis[:limit]
        report = check_commutators(C, L, basis)
    except RelpolyError as exc:
        return 1, json.dumps({"error": {"code": exc.code, "message": str(exc)}}) + "\n"
    out = {"checked": report.checked,
           "failures": [[name, str(P), res] for name, P, res in report.failures]}
    return (0 if report.ok else 1), json.dumps(out, sort_keys=True) + "\n"


# C1 with a two-cycle between (1,1) and (2,1) is bounded but not closed under
# the action: 6 basis vectors, failures on several of them.
COMMUTATOR_LIMIT_CASES = {
    "ok": (standard_set(3, 1, "both"), [[2, 1, 0], [1, 0], [0]], 8),
    "failures": (RelationSet(3, list(standard_set(3, 1, "both"))
                             + [((1, 1), (2, 1)), ((2, 1), (1, 1))]),
                 [[3, 1, 0], [1, 1], [1]], 6),
    "unbounded": (standard_set(3, 1, "plus"), [[2, 1, 0], [1, 0], [0]], None),
    "not_satisfying": (standard_set(3, 1, "both"), [[2, 1, 0], [3, 0], [0]], None),
}


@pytest.mark.parametrize("case", sorted(COMMUTATOR_LIMIT_CASES))
def test_commutators_limit_matches_the_sliced_basis(capsys, tmp_path, case):
    C, rows, count = COMMUTATOR_LIMIT_CASES[case]
    L = Pattern.from_rows(rows)
    rel = tmp_path / "c.rel"
    rel.write_text(fileio.dump_relations(C))
    pat = tmp_path / "l.pat"
    pat.write_text(fileio.dump_pattern(L))
    argv = ["commutators", "--relations", str(rel), "--pattern", str(pat)]
    if count is not None:
        assert len(enumerate_integral(C, L).points) == count
    limits = (None, 0, 1, 2) + ((count, count + 5) if count is not None else ())
    outcomes = set()
    for limit in limits:
        extra = [] if limit is None else ["--limit", str(limit)]
        code, out = run(capsys, *argv, *extra)
        assert (code, out) == commutators_unstreamed(C, L, limit), limit
        outcomes.add(code)
    assert outcomes == ({0} if case == "ok" else {1} if count is None else {0, 1})


@pytest.mark.parametrize("argv", [
    ["enumerate", "--limit", "-1"],
    ["commutators", "--limit", "-3"],
    ["selftest", "--count", "-5"],
], ids=["enumerate", "commutators", "selftest"])
def test_negative_limit_is_usage_error(capsys, tmp_path, argv):
    rel = tmp_path / "c1.rel"
    rel.write_text(fileio.dump_relations(standard_set(3, 1, "both")))
    pat = tmp_path / "l.pat"
    pat.write_text("2 1 0\n1 0\n0\n")
    if argv[0] != "selftest":
        argv = argv + ["--relations", str(rel), "--pattern", str(pat)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {argv[1]}: must be >= 0, got {argv[2]}" in captured.err


def test_enumerate_unbounded_is_domain_error(capsys, tmp_path):
    rel = tmp_path / "c1p.rel"
    rel.write_text(fileio.dump_relations(standard_set(3, 1, "plus")))
    pat = tmp_path / "l.pat"
    pat.write_text("2 1 0\n1 0\n0\n")
    code, out = run(capsys, "enumerate", "--relations", str(rel),
                    "--pattern", str(pat))
    assert code == 1
    assert json.loads(out)["error"]["code"] == "unbounded"


def test_enumerate_n46_constant_pattern(capsys, tmp_path):
    rel = tmp_path / "c1.rel"
    rel.write_text(fileio.dump_relations(standard_set(46, 1, "both")))
    pat = tmp_path / "zero.pat"
    pat.write_text(fileio.dump_pattern(constant_pattern(46)))
    code, out = run(capsys, "enumerate", "--relations", str(rel),
                    "--pattern", str(pat))
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 1
    assert obj["points"] == [fileio.dump_pattern(constant_pattern(46)).rstrip("\n")]


def snake_path(n):
    """A reduced relation set on n (even) rows that is one directed path of
    n(n+1)/2 - n/2 vertices, every arc pointing from (1,1) toward (n,1).

    Rows are paired top-down, (n, n-1), (n-2, n-3), ...; within a pair the
    path zigzags between the two rows through the columns, sweeping the
    pairs left to right and right to left in turn, and leaves out the last
    vertex of each pair so that the step to the next pair is adjacent."""
    path = []
    for p, top in enumerate(range(n, 0, -2)):
        zigzag = [v for j in range(1, top) for v in ((top, j), (top - 1, j))]
        if p % 2:
            zigzag = [(k, k + 1 - j) for k, j in zigzag]
        path += zigzag
    return RelationSet(n, list(zip(path[1:], path)))


def test_check_deep_path(capsys, tmp_path):
    C = snake_path(46)
    assert len(C) == 1057
    rel = tmp_path / "path.rel"
    rel.write_text(fileio.dump_relations(C))
    code, out = run(capsys, "check", "--relations", str(rel))
    assert code == 0
    assert json.loads(out) == {
        "reduced": True, "admissible": "Inapplicable", "top_connected": True,
        "reason": "same-row reachability (5,2) to (5,1) with 2 > 1"}


def test_unexpected_exception_is_internal_error(capsys, monkeypatch):
    def broken(args):
        raise KeyError("lost")

    monkeypatch.setattr(cli, "cmd_gen", broken)
    code, out = run(capsys, "gen", "--family", "C1", "--n", "3")
    assert code == 1
    assert json.loads(out) == {
        "error": {"code": "internal", "message": "KeyError: 'lost'"}}


def test_act(capsys, tmp_path):
    rel = tmp_path / "c1.rel"
    rel.write_text(fileio.dump_relations(standard_set(2, 1, "both")))
    pat = tmp_path / "l.pat"
    pat.write_text("1 0\n0\n")
    vec = tmp_path / "v.json"
    base = Pattern.from_rows([[1, 0], [0]])
    from relpoly.modaction import LinComb
    vec.write_text(json.dumps(fileio.lincomb_to_json(LinComb.single(base))))
    code, out = run(capsys, "act", "--relations", str(rel),
                    "--pattern", str(pat), "--generator", "E 1 2",
                    "--input", str(vec))
    assert code == 0
    result = fileio.lincomb_from_json(json.loads(out))
    assert result == LinComb.single(Pattern.from_rows([[1, 0], [1]]))


def test_act_bad_generator(capsys, tmp_path):
    rel = tmp_path / "c1.rel"
    rel.write_text(fileio.dump_relations(standard_set(2, 1, "both")))
    pat = tmp_path / "l.pat"
    pat.write_text("1 0\n0\n")
    code, out = run(capsys, "act", "--relations", str(rel),
                    "--pattern", str(pat), "--generator", "E 1 3",
                    "--input", str(rel))
    assert code == 2


def test_commutators(capsys, tmp_path):
    rel = tmp_path / "c1.rel"
    rel.write_text(fileio.dump_relations(standard_set(2, 1, "both")))
    pat = tmp_path / "l.pat"
    pat.write_text("1 0\n0\n")
    code, out = run(capsys, "commutators", "--relations", str(rel),
                    "--pattern", str(pat))
    assert code == 0
    obj = json.loads(out)
    assert obj["checked"] == 2 and obj["failures"] == []


def test_missing_file_is_parse_error(capsys):
    code, out = run(capsys, "check", "--relations", "/nonexistent.rel")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "parse_error"


def test_deterministic_output(capsys, fig_files):
    rel, pat = fig_files
    outputs = set()
    for _ in range(3):
        _, out = run(capsys, "tile", "--relations", rel, "--pattern", pat)
        outputs.add(out)
    assert len(outputs) == 1


def test_selftest_smoke(capsys):
    code, out = run(capsys, "selftest", "--seed", "0", "--count", "25")
    assert code == 0
    assert "selftest: PASS" in out
    assert "counts C1 lambda=(6, 4, 2, 1, 0): 8400 points, Weyl dimension 8400" in out
    assert "commutators C1 lambda=(4, 3, 2, 1, 0): 1024 vectors, 0 failures" in out
    code2, out2 = run(capsys, "selftest", "--seed", "1", "--count", "25")
    assert code2 == 0


PATTERN_TEXT = "2 1 0\n1 0\n0\n"
VECTOR = {"terms": [{"coeff": "1", "pattern": {"n": 3, "entries": ["2", "1", "0", "1", "0", "0"]}}]}


# name -> (the input it replaces, its text, a part of the error message).
# The generator is not a file: its "text" is the --generator spec.
MALFORMED = {
    "pattern-n-str": ("pattern", '{"n": "x", "entries": []}', "n must be a positive integer, got 'x'"),
    "pattern-n-dict": ("pattern", '{"n": {}, "entries": []}', "n must be a positive integer, got {}"),
    "pattern-n-list": ("pattern", '{"n": [], "entries": []}', "n must be a positive integer, got []"),
    "pattern-n-0": ("pattern", '{"n": 0, "entries": []}', "n must be a positive integer, got 0"),
    "pattern-n-neg": ("pattern", '{"n": -1, "entries": ["1"]}', "n must be a positive integer, got -1"),
    "pattern-entries-str": ("pattern", '{"n": 2, "entries": "100"}', "entries must be a list of strings"),
    "pattern-entries-int": ("pattern", '{"n": 1, "entries": [1]}', "entries must be a list of strings"),
    "pattern-label-short": ("pattern", '{"n": 1, "entries": ["a"], "labels": {"a": ["1"]}}',
                            "labels must map"),
    "pattern-labels-list": ("pattern", '{"n": 1, "entries": ["a"], "labels": ["a"]}', "labels must map"),
    "pattern-json-empty-enclosure": (
        "pattern", '{"n": 1, "entries": ["a"], "labels": {"a": ["1.42", "1.41"]}}',
        "label 'a': empty enclosure, 1.42 > 1.41"),
    "pattern-text-empty-enclosure": ("pattern", "sqrt2 1 0\nsqrt2-1 0\n0\nsqrt2 = 1.42 1.41\n",
                                     "line 4: empty enclosure, 1.42 > 1.41"),
    "pattern-label-offset": ("pattern", "a+1/0 1 0\n1 0\n0\na = 1 2\n", "bad entry token 'a+1/0'"),
    "relations-list-coordinate": ("relations", '{"n": 3, "relations": [[2, 1, 1, [1]]]}',
                                  "coordinates must be integers"),
    "relations-str-coordinate": ("relations", '{"n": 3, "relations": [[2, 1, 1, 1], [2, "1", 1, 1]]}',
                                 "coordinates must be integers"),
    "input-coeff-1/0": ("input", json.dumps({"terms": [dict(VECTOR["terms"][0], coeff="1/0")]}),
                        "bad combination JSON"),
    **{f"generator-{spec}": ("generator", spec, f"generator indices in {spec!r} out of range 1..3")
       for spec in ("E 0 1", "E 3 4", "E 0 0", "E 4 4")},
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_inputs_are_parse_errors(capsys, tmp_path, case):
    kind, text, message = MALFORMED[case]
    inputs = {"relations": fileio.dump_relations(standard_set(3, 1, "both")),
              "pattern": PATTERN_TEXT, "input": json.dumps(VECTOR), "generator": "E 1 2"}
    inputs[kind] = text
    argv = ["act", "--generator", inputs.pop("generator")]
    for name, content in inputs.items():
        path = tmp_path / name
        path.write_text(content)
        argv += [f"--{name}", str(path)]
    code, out = run(capsys, *argv)
    error = json.loads(out)["error"]
    assert (code, error["code"]) == (2, "parse_error"), error
    assert message in error["message"]


@pytest.mark.parametrize("argv", [
    ["act", "--relations", "c.rel", "--pattern", "l.pat", "--generator", "E 1 2"],
    ["selftest"],
], ids=["act", "selftest"])
def test_format_only_where_it_is_honoured(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--format", "text"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format text" in capsys.readouterr().err


# Seeds and mutations of the fuzz test below.
FUZZ_RELATIONS = ["n 3\n2 1 -> 1 1\n2 2 -> 1 1\n1 1 -> 2 2\n3 1 -> 2 1\n2 1 -> 3 2\n",
                  {"n": 3, "relations": [[2, 1, 1, 1], [1, 1, 2, 2], [3, 2, 2, 2]]}]
FUZZ_PATTERNS = [PATTERN_TEXT, "a 1 0\na-1 0\n0\na = 1.41 1.42\n",
                 {"n": 3, "entries": ["2", "1", "0", "1", "0", "0"]},
                 {"n": 2, "entries": ["a", "0", "a-1"], "labels": {"a": ["1.41", "1.42"]}}]
FUZZ_INPUTS = [{"terms": VECTOR["terms"] + [
    {"coeff": "-1/2", "pattern": {"n": 3, "entries": ["2", "1", "0", "2", "0", "1"]}}]}]
FUZZ_TOKENS = ["-1", "0", "1", "2", "3", "x", "1/0", "1/2", "a", "a+1", "->", "=", "n", "{", "#"]
FUZZ_VALUES = [-1, 0, 1, 3, 1.5, True, None, float("inf"), "x", "1/0", "1/2", "a", "a+1/0",
               [], {}, [1], ["1", "0"], {"a": ["1", "2"]}, {"a": ["2", "1"]}]


def mutate_text(rng, text):
    """One to three token or line edits."""
    lines = text.splitlines() or [""]
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        op = rng.randrange(5)
        if op == 3:
            lines.insert(i, lines[i])
            continue
        if op == 4 and len(lines) > 1:
            del lines[i]
            continue
        toks = lines[i].split()
        if op == 2 or not toks:
            toks.insert(rng.randint(0, len(toks)), rng.choice(FUZZ_TOKENS))
        elif op == 1:
            del toks[rng.randrange(len(toks))]
        else:
            toks[rng.randrange(len(toks))] = rng.choice(FUZZ_TOKENS)
        lines[i] = " ".join(toks)
    return "\n".join(lines) + "\n"


def mutate_json(rng, obj):
    """One edit of a copy of obj: a value replaced, deleted or added."""
    obj = json.loads(json.dumps(obj))
    spots = []
    stack = [obj]
    while stack:
        node = stack.pop()
        keys = node if isinstance(node, dict) else range(len(node))
        for key in keys:
            spots.append((node, key))
            if isinstance(node[key], (dict, list)):
                stack.append(node[key])
    value = json.loads(json.dumps(rng.choice(FUZZ_VALUES)))
    node, key = rng.choice(spots)
    op = rng.randrange(3)
    if op == 0:
        node[key] = value
    elif op == 1:
        del node[key]
    elif isinstance(node, list):
        node.append(value)
    else:
        node[rng.choice(["n", "entries", "labels", "relations", "terms", "coeff"])] = value
    return obj


def fuzz_file(rng, seeds, mutate):
    seed = rng.choice(seeds)
    if isinstance(seed, str):
        return mutate_text(rng, seed) if mutate else seed
    if mutate and rng.random() < 0.85:
        seed = mutate_json(rng, seed)
    text = json.dumps(seed)
    return mutate_text(rng, text) if mutate and rng.random() < 0.15 else text


def test_fuzzed_files_end_in_typed_errors(capsys, tmp_path):
    """Mutated relation, pattern and combination files, text and JSON, through
    every subcommand that reads files: every run exits 0, 1 or 2, and no
    error is an internal one."""
    rng = random.Random(12)
    codes = Counter()
    for _ in range(300):
        target = rng.choice(("relations", "pattern", "input"))
        commands = ["act"] if target == "input" else ["tile", "facedim", "enumerate",
                                                      "commutators", "act"]
        command = rng.choice(commands + ["check"] * (target == "relations"))
        files = {"relations": fuzz_file(rng, FUZZ_RELATIONS, target == "relations")}
        if command != "check":
            files["pattern"] = fuzz_file(rng, FUZZ_PATTERNS, target == "pattern")
        argv = [command]
        if command == "act":
            files["input"] = fuzz_file(rng, FUZZ_INPUTS, target == "input")
            argv += ["--generator", rng.choice(("E 1 2", "E 2 1", "E 2 2", "E 2 3"))]
        for name, text in files.items():
            path = tmp_path / name
            path.write_text(text)
            argv += [f"--{name}", str(path)]
        code, out = run(capsys, *argv)
        codes[code] += 1
        assert code in (0, 1, 2), (files, out)
        if code:
            assert json.loads(out)["error"]["code"] != "internal", (files, out)
    assert min(codes[0], codes[1]) >= 10 and codes[2] >= 100, codes

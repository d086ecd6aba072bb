"""End-to-end CLI behaviour: outputs, determinism, and exit codes."""

import json

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

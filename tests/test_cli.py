"""End-to-end CLI behaviour: outputs, determinism, and exit codes."""

import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from relpoly import cli, fileio, polyhedra, selftest
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
    for argv, C in ((["--family", "C1", "--n", "3", "--format", "json"], standard_set(3, 1, "both")),
                    (["--family", "Ck", "--k", "2", "--n", "4"], standard_set(4, 2, "both"))):
        code, out = run(capsys, "gen", *argv)
        assert code == 0
        assert out == json.dumps(fileio.relations_to_json(C), sort_keys=True) + "\n"


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


def test_check_lists_nested_violations(capsys, tmp_path):
    # (1,1) has two up-in arcs, and 3 1 -> 3 3 is implied by the top path
    # through (3,2): each violation's witness tuples print as nested lists.
    rel = tmp_path / "nonreduced.rel"
    rel.write_text("n 3\n3 1 -> 3 2\n3 2 -> 3 3\n3 1 -> 3 3\n2 1 -> 1 1\n2 2 -> 1 1\n")
    violations = [["multiple_up_in", [1, 1]], ["redundant_top_relation", [[3, 1], [3, 3]]]]
    code, out = run(capsys, "check", "--relations", str(rel))
    assert code == 0
    assert out == json.dumps({
        "admissible": "Inapplicable", "reason": "not reduced", "reduced": False,
        "top_connected": False, "violations": violations}) + "\n"
    code, out = run(capsys, "check", "--relations", str(rel), "--format", "text")
    assert code == 0
    assert out.splitlines() == [
        "admissible: Inapplicable", "reason: not reduced", "reduced: False",
        "top_connected: False", f"violations: {violations}"]


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

    code, out = run(capsys, "enumerate", "--relations", str(rel),
                    "--pattern", str(pat), "--mu", "1,x")
    assert (code, out) == (2, '{"error": {"code": "parse_error", '
                              '"message": "bad rational list \'1,x\'"}}\n')

    # Fraction reads "1_0" as 10 from Python 3.11 on, 3.10 does not.
    code, out = run(capsys, "enumerate", "--relations", str(rel),
                    "--pattern", str(pat), "--mu", "1,1_0,1")
    assert (code, out) == (2, '{"error": {"code": "parse_error", '
                              '"message": "bad rational list \'1,1_0,1\'"}}\n')

    # Fraction would compute 10**100000000 for this exponent.
    start = time.perf_counter()
    code, out = run(capsys, "enumerate", "--relations", str(rel),
                    "--pattern", str(pat), "--mu=1e100000000,0,0")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, '{"error": {"code": "parse_error", "message": "--mu: exponent of '
                              '\'1e100000000\' exceeds 1000 in magnitude"}}\n')


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


def test_commutators_limit_takes_no_count(capsys, tmp_path, monkeypatch):
    # The count first_points would add is never printed, so the basis prefix
    # comes off the walk alone, with no _count pass over the row map.
    calls = []
    count = polyhedra._count
    monkeypatch.setattr(polyhedra, "_count", lambda *a: calls.append(a) or count(*a))
    C, L = standard_set(3, 1, "both"), Pattern.from_rows([[2, 1, 0], [2, 1], [2]])
    rel, pat = tmp_path / "c.rel", tmp_path / "l.pat"
    rel.write_text(fileio.dump_relations(C))
    pat.write_text(fileio.dump_pattern(L))
    got = run(capsys, "commutators", "--relations", str(rel), "--pattern", str(pat),
              "--limit", "1")
    assert got == commutators_unstreamed(C, L, 1)
    assert json.loads(got[1])["checked"] == 1
    assert calls == []


@pytest.mark.parametrize("argv, low", [
    (["enumerate", "--limit", "-1"], 0),
    (["commutators", "--limit", "-3"], 0),
    (["selftest", "--count", "-5"], 0),
    (["gen", "--n", "0", "--family", "C1"], 1),
    (["gen", "--n", "-1", "--family", "C1"], 1),
], ids=["enumerate", "commutators", "selftest", "gen-n-0", "gen-n-neg"])
def test_negative_limit_is_usage_error(capsys, tmp_path, argv, low):
    rel = tmp_path / "c1.rel"
    rel.write_text(fileio.dump_relations(standard_set(3, 1, "both")))
    pat = tmp_path / "l.pat"
    pat.write_text("2 1 0\n1 0\n0\n")
    if argv[0] not in ("selftest", "gen"):
        argv = argv + ["--relations", str(rel), "--pattern", str(pat)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {argv[1]}: must be >= {low}, got {argv[2]}" in captured.err


# The text format prints one "key: value" line per JSON key, sorted, on C1
# at n=3 and the base 2 1 0 | 1 0 | 0.
TEXT_OUTPUTS = {
    "check": "admissible: Admissible\nreduced: True\ntop_connected: True\n",
    "tile": ("kernel: []\nmatrix: [[1, 0], [0, 1]]\n"
             "tiles: [{'vertices': [[1, 1], [2, 2], [3, 3]], 'lambda1_free': False, "
             "'lambda2_free': False}, {'vertices': [[2, 1], [3, 2]], 'lambda1_free': False, "
             "'lambda2_free': False}, {'vertices': [[3, 1]], 'lambda1_free': False, "
             "'lambda2_free': False}]\n"),
    "facedim": "d: 3\nr: 0\ns: 0\n",
    "enumerate": ("bounded: True\ncount: 8\npoints: ['2 1 0\\n1 0\\n0', '2 1 0\\n1 0\\n1']\n"
                  "unbounded_coordinates: []\n"),
    "commutators": "checked: 8\nfailures: []\n",
}


@pytest.mark.parametrize("command", sorted(TEXT_OUTPUTS))
def test_text_format(capsys, tmp_path, command):
    rel, pat = tmp_path / "c1.rel", tmp_path / "l.pat"
    rel.write_text(fileio.dump_relations(standard_set(3, 1, "both")))
    pat.write_text("2 1 0\n1 0\n0\n")
    argv = [command, "--relations", str(rel), "--format", "text"]
    if command != "check":
        argv += ["--pattern", str(pat)]
    if command == "enumerate":
        argv += ["--limit", "2"]
    assert run(capsys, *argv) == (0, TEXT_OUTPUTS[command])


@pytest.mark.parametrize("extra, points", [
    ([], ["5"]), (["--mu", "5"], ["5"]), (["--limit", "0"], []),
], ids=["plain", "mu", "limit-0"])
def test_enumerate_n1(capsys, tmp_path, extra, points):
    rel, pat = tmp_path / "one.rel", tmp_path / "one.pat"
    rel.write_text("n 1\n")
    pat.write_text("5\n")
    code, out = run(capsys, "enumerate", "--relations", str(rel), "--pattern", str(pat), *extra)
    assert code == 0
    assert json.loads(out) == {"count": 1, "points": points, "bounded": True,
                               "unbounded_coordinates": []}


def test_enumerate_unbounded_is_domain_error(capsys, tmp_path):
    rel = tmp_path / "c1p.rel"
    rel.write_text(fileio.dump_relations(standard_set(3, 1, "plus")))
    pat = tmp_path / "l.pat"
    pat.write_text("2 1 0\n1 0\n0\n")
    code, out = run(capsys, "enumerate", "--relations", str(rel),
                    "--pattern", str(pat))
    assert code == 1
    assert json.loads(out)["error"]["code"] == "unbounded"


@pytest.mark.parametrize("family, extra, want", [
    ("both", [], '"bounded": true, "count": 8'),
    ("both", ["--limit", "1"], '"bounded": true, "count": 8'),
    ("both", ["--mu", "1,1,1"], '"bounded": true, "count": 2'),
    ("plus", [], '"code": "unbounded"'),
    ("plus", ["--mu", "1,1,1"], '"bounded": false, "count": 2'),
], ids=["plain", "limit", "mu", "unbounded", "unbounded-mu"])
def test_enumerate_relaxes_the_arcs_once(capsys, tmp_path, monkeypatch, family, extra, want):
    # With or without --mu, one _bounds relaxation per request: the row map
    # and the missing coordinates come off the same table.
    calls = []
    bounds = polyhedra._bounds
    monkeypatch.setattr(polyhedra, "_bounds", lambda *a: calls.append(a) or bounds(*a))
    rel, pat = tmp_path / "c.rel", tmp_path / "l.pat"
    rel.write_text(fileio.dump_relations(standard_set(3, 1, family)))
    pat.write_text("2 1 0\n1 0\n0\n")
    code, out = run(capsys, "enumerate", "--relations", str(rel), "--pattern", str(pat), *extra)
    assert want in out and code == (1 if "error" in out else 0)
    assert len(calls) == 1


def test_enumerate_mu_reads_spans_through_lower_rows(capsys, tmp_path):
    # The lower bound of x_21 comes only through row 1 (x_21 >= x_11 >=
    # x_22 >= x_33): one point of weight (1,3,2), not an open slice.
    rel, pat = tmp_path / "c.rel", tmp_path / "l.pat"
    rel.write_text("n 3\n1 1 -> 2 2\n2 1 -> 1 1\n2 2 -> 3 3\n3 1 -> 2 1\n")
    pat.write_text("3 3 0\n0 0\n0\n")
    code, out = run(capsys, "enumerate", "--relations", str(rel), "--pattern", str(pat),
                    "--mu", "1,3,2")
    assert code == 0
    assert json.loads(out) == {"count": 1, "points": ["3 3 0\n3 1\n1"], "bounded": True,
                               "unbounded_coordinates": []}


def gt_rows_text(lam, entry=str):
    """The highest-weight base of lam as pattern text, each value v written
    as entry(v)."""
    return "".join(" ".join(entry(x) for x in lam[:k]) + "\n" for k in range(len(lam), 0, -1))


# sha256 of `relpoly enumerate` stdout, taken before unlabeled points were
# printed through one row template per n: (lam, entry, --mu) -> digest per
# --format.  Each value v of the fractional base is v - 7/3.
ENUMERATE_DIGESTS = {
    "C1 4,3,2,1,0": ((4, 3, 2, 1, 0), str, None, {
        "json": "c46921d628ce6e0fbdc5a3873cba14e341c73f7bde838f9e7fc365a70dc47bb0",
        "text": "78612c7f24d552b5ec0411cafa1a00f9c3a8f7405c1c7f4b440d1a15875209f9"}),
    "slice 6,4,3,2,1,0": ((6, 4, 3, 2, 1, 0), str, "3,3,3,3,2,2", {
        "json": "18a4e50a7b8045469472da53a408bb288bae0467fe97ca0b902e5d733cae6a31",
        "text": "c4551c855ccefb63a6b18720f2e58eabfecd2b7ba794166688bedbf8a96b24ad"}),
    "fractional": ((4, 3, 2, 1, 0), lambda v: f"{3 * v - 7}/3", None, {
        "json": "6c023ed682795255e501eaabed3ee3c971cac4c52c48a86d5c0f35a336042764",
        "text": "7acb055a92fe21905d73ee216283c53158098a718bf40dfa1613d67f7ea510fa"}),
    "fractional slice": ((4, 3, 2, 1, 0), lambda v: f"{3 * v - 7}/3", "-1/3,-1/3,-1/3,-1/3,-1/3", {
        "json": "b712936d783b57fe742ef8973a15d07e4d9fea0b8d9c4794d7c233ff81d6a3f4",
        "text": "d011e9165046db29d0e556ccb2d3b51c6b586c0c45344f7dc98590aec0d00c80"}),
}


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("case", sorted(ENUMERATE_DIGESTS))
def test_enumerate_output_is_pinned(capsys, tmp_path, case, fmt):
    lam, entry, mu, digests = ENUMERATE_DIGESTS[case]
    rel, pat = tmp_path / "c1.rel", tmp_path / "base.pat"
    rel.write_text(fileio.dump_relations(standard_set(len(lam), 1, "both")))
    pat.write_text(gt_rows_text(lam, entry))
    argv = ["enumerate", "--relations", str(rel), "--pattern", str(pat), "--format", fmt]
    if mu is not None:
        argv.append(f"--mu={mu}")
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digests[fmt]


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


def test_act(capsys, monkeypatch, tmp_path):
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
    monkeypatch.setattr("sys.stdin", io.StringIO(vec.read_text()))
    assert run(capsys, "act", "--relations", str(rel), "--pattern", str(pat),
               "--generator", "E 1 2", "--input", "-") == (0, out)


def test_act_reads_an_integer_coefficient_and_rejects_a_float(capsys, tmp_path):
    # cartan_1 on the C1 base of lambda = (2,1,0) multiplies by 2.  The float
    # 0.1 once read as 3602879701896397/36028797018963968 and printed its
    # double; a bool read as 1.  Both are parse errors now.
    rel = tmp_path / "c1.rel"
    rel.write_text(fileio.dump_relations(standard_set(3, 1, "both")))
    pat = tmp_path / "l.pat"
    pat.write_text("2 1 0\n2 1\n2\n")
    vec = tmp_path / "v.json"
    argv = ["act", "--relations", str(rel), "--pattern", str(pat),
            "--generator", "E 1 1", "--input", str(vec)]
    entries = ["2", "1", "0", "2", "1", "2"]
    outs = {}
    for coeff in ("3", 3, 0.1, True):
        vec.write_text(json.dumps({"terms": [{"coeff": coeff, "pattern": {
            "entries": entries, "n": 3}}]}))
        outs[json.dumps(coeff)] = run(capsys, *argv)
    want = {"terms": [{"coeff": "6", "pattern": {"entries": entries, "n": 3}}]}
    assert outs.pop('"3"') == outs.pop("3") == (0, json.dumps(want, sort_keys=True) + "\n")
    for spelled, (code, out) in outs.items():
        assert code == 2
        assert json.loads(out) == {"error": {"code": "parse_error", "message": (
            "bad combination JSON: terms[0].coeff must be a string token or an integer, "
            f"got {spelled}")}}


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


SELFTEST_STDOUT = """\
face-dim oracle sweep: 25 instances, 0 failures
commutators C1 lambda=(1, 0): 2 vectors, 0 failures
commutators C1 lambda=(2, 0): 3 vectors, 0 failures
commutators C1 lambda=(2, 1, 0): 8 vectors, 0 failures
commutators C1 lambda=(1, 1, 0): 3 vectors, 0 failures
commutators C1 lambda=(2, 1, 1, 0): 15 vectors, 0 failures
commutators C1 lambda=(3, 2, 1, 0): 64 vectors, 0 failures
commutators C1 lambda=(4, 3, 2, 1, 0): 1024 vectors, 0 failures
commutators generic n=3: 4 vectors, 0 failures
counts C1 lambda=(3, 1, 0): 15 points, Weyl dimension 15
counts C1 lambda=(4, 2, 1, 0): 140 points, Weyl dimension 140
counts C1 lambda=(6, 4, 2, 1, 0): 8400 points, Weyl dimension 8400
counts C1 lambda=(5, 4, 2, 2, 1, 0): 19200 points, Weyl dimension 19200
counts C1 lambda=(6, 5, 3, 2, 1, 0): 145530 points, Weyl dimension 145530
selftest: PASS
"""


def test_selftest_smoke(capsys):
    assert run(capsys, "selftest", "--seed", "0", "--count", "25") == (0, SELFTEST_STDOUT)
    code2, out2 = run(capsys, "selftest", "--seed", "1", "--count", "25")
    assert code2 == 0


def test_selftest_names_each_failure(capsys, monkeypatch):
    # The oracle's first answer, the pc dimension of the first draw, is one
    # too high: that record fails, and its line follows the sweep's line.
    oracle, calls = selftest.face_dim_oracle, []

    def wrong_once(system, X):
        calls.append(X)
        return oracle(system, X) + (len(calls) == 1)

    monkeypatch.setattr(selftest, "face_dim_oracle", wrong_once)
    failure = ("face-dim oracle sweep: 25 instances, 1 failures\n"
               "  FAIL C2-, n=8, input 0 1 1 0 1 0 0 1 | 0 2 0 1 0 0 1 | 1 2 1 0 0 1 | "
               "0 1 0 0 1 | 1 2 0 1 | 1 1 1 | 2 1 | 1: expected (19, 11, 4), got (20, 11, 4)\n")
    want = (SELFTEST_STDOUT.replace("face-dim oracle sweep: 25 instances, 0 failures\n", failure)
            .replace("selftest: PASS", "selftest: FAIL"))
    assert run(capsys, "selftest", "--seed", "0", "--count", "25") == (1, want)


def test_selftest_commutator_records_name_the_failing_vector():
    # The non-admissible set of the CI check: [raise2,lower2] fails at every
    # basis vector, one record per vector.
    C = fileio.parse_relations("n 3\n2 1 -> 1 1\n1 1 -> 2 2\n3 1 -> 2 1\n2 2 -> 3 2\n")
    L = Pattern.from_rows([[2, 1, 0], [2, 1], [2]])
    sample = enumerate_integral(C, L).points
    records = selftest._commutator_records("notadm", C, L, sample)
    assert [(r.family, r.n, r.input, r.expected) for r in records] == \
        [("notadm", 3, str(M), ()) for M in sample]
    assert [r.got for r in records] == [
        (("[raise2,lower2]", "(-3/2)*[2 1 0 | 1 1 | 1]"),),
        (("[raise2,lower2]", "(-1/2)*[2 1 0 | 2 1 | 1]"),),
        (("[raise2,lower2]", "(-1)*[2 1 0 | 2 1 | 2]"),),
        (("[raise2,lower2]", "(-3)*[2 1 0 | 2 2 | 2]"),),
    ]


def closed_pipe_run(tmp_path, argv, nbytes, unbuffered=False):
    """(exit code, stderr) of `python -m relpoly.cli argv` whose stdout reader
    reads up to nbytes and then closes the pipe.  stdout is block-buffered,
    as it is by default on a pipe, so output can wait in the buffer; with
    unbuffered, PYTHONUNBUFFERED=1 makes its binary layer a raw file."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-W", "error", "-m", "relpoly.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                            cwd=tmp_path, bufsize=0)
    if nbytes:
        assert proc.stdout.read(nbytes)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(timeout=60), err


def test_closed_pipe_exits_141_without_a_traceback(tmp_path):
    # 2000 points of the n=7 staircase are about 136 kB, past the 64 kB pipe
    # buffer, so the reader is gone while enumerate still writes.
    (tmp_path / "c1n7.rel").write_text(fileio.dump_relations(standard_set(7, 1, "both")))
    (tmp_path / "staircase.pat").write_text(
        fileio.dump_pattern(selftest.gt_base((12, 10, 8, 6, 4, 2, 0))))
    argv = ["enumerate", "--relations", "c1n7.rel", "--pattern", "staircase.pat",
            "--limit", "2000"]
    assert closed_pipe_run(tmp_path, argv, 100) == (141, b"")


def test_closed_pipe_before_the_selftest_writes(tmp_path):
    # The selftest writes its lines once every sweep is done; the reader
    # closes long before, so the write inside main meets the closed pipe.
    assert closed_pipe_run(tmp_path, ["selftest", "--count", "0"], 0) == (141, b"")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ["enumerate", "--relations", "empty.rel", "--pattern", "l.pat"],
    ["facedim", "--relations", "empty.rel", "--pattern", "missing.pat"],
], ids=["domain-error", "parse-error"])
def test_closed_pipe_before_the_error_json(tmp_path, argv, unbuffered):
    # The empty n=3 set is unbounded, so enumerate ends in a domain error
    # JSON, and a missing file in a parse error JSON: either meets the
    # closed pipe in the same write as a result would.
    (tmp_path / "empty.rel").write_text("n 3\n")
    (tmp_path / "l.pat").write_text("2 1 0\n1 0\n0\n")
    assert closed_pipe_run(tmp_path, argv, 0, unbuffered) == (141, b"")


def test_closed_pipe_mid_write_when_unbuffered(tmp_path):
    # The 136 kB of 2000 staircase points go out in one write.  Unbuffered,
    # the raw write takes what the pipe holds before the reader closes, and
    # the write of the rest must fail, not vanish with exit 0.
    (tmp_path / "c1n7.rel").write_text(fileio.dump_relations(standard_set(7, 1, "both")))
    (tmp_path / "staircase.pat").write_text(
        fileio.dump_pattern(selftest.gt_base((12, 10, 8, 6, 4, 2, 0))))
    argv = ["enumerate", "--relations", "c1n7.rel", "--pattern", "staircase.pat",
            "--limit", "2000"]
    assert closed_pipe_run(tmp_path, argv, 100, unbuffered=True) == (141, b"")


class CountingStdout(io.StringIO):
    """A stdout that counts its write calls: print makes two, text and end."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def test_each_request_is_one_write_to_stdout(monkeypatch, tmp_path):
    (tmp_path / "c1.rel").write_text(fileio.dump_relations(standard_set(3, 1, "both")))
    (tmp_path / "base.pat").write_text("2 1 0\n2 1\n2\n")
    (tmp_path / "empty.rel").write_text("n 3\n")
    (tmp_path / "v.json").write_text(json.dumps(VECTOR))
    monkeypatch.chdir(tmp_path)
    both = ["--relations", "c1.rel", "--pattern", "base.pat"]
    requests = [
        (["gen", "--family", "C1", "--n", "3"], 0),
        (["gen", "--family", "C1", "--n", "3", "--format", "text"], 0),
        (["check", "--relations", "c1.rel"], 0),
        (["check", "--relations", "c1.rel", "--format", "text"], 0),
        (["tile", *both], 0),
        (["facedim", *both], 0),
        (["enumerate", *both], 0),
        (["act", *both, "--generator", "E 2 1", "--input", "v.json"], 0),
        (["commutators", *both], 0),
        (["selftest", "--count", "0"], 0),
        (["enumerate", "--relations", "empty.rel", "--pattern", "base.pat"], 1),
        (["facedim", "--relations", "c1.rel", "--pattern", "missing.pat"], 2),
    ]
    for argv, want in requests:
        out = CountingStdout()
        monkeypatch.setattr(sys, "stdout", out)
        assert (main(argv), out.writes) == (want, 1), argv
        assert out.getvalue().endswith("\n"), argv


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
    "pattern-label-offset": ("pattern", "a+1/0 1 0\n1 0\n0\na = 1 2\n",
                             "line 1: bad entry token 'a+1/0'"),
    "pattern-sidecar-bad-number": ("pattern", "a 1 0\na-1 0\n0\na = 1.4x 1.42\n",
                                   "line 4: bad number '1.4x'"),
    "pattern-text-unknown-label": ("pattern", "2 1 0\n1 b\n0\n",
                                   "line 2: unknown label 'b' (missing sidecar line?)"),
    "pattern-json-label-bad-number": (
        "pattern", '{"n": 1, "entries": ["a"], "labels": {"a": ["1.4x", "1.5"]}}',
        "label 'a': bad number '1.4x'"),
    "pattern-json-unknown-label": ("pattern", '{"n": 3, "entries": ["2", "1", "0", "1", "x", "0"]}',
                                   "entries[4]: unknown label 'x' (missing sidecar line?)"),
    "pattern-sidecars-only": ("pattern", "a = 1.41 1.42\n", "no pattern rows found"),
    "relations-no-header": ("relations", "2 1 -> 1 1\n", "line 1: expected header 'n <int>'"),
    "relations-no-n-line": ("relations", "# empty\n", "missing 'n <int>' header"),
    "relations-n-0": ("relations", "n 0\n", "line 1: n must be a positive integer, got 0"),
    "relations-n-neg": ("relations", "n -2\n", "line 1: n must be a positive integer, got -2"),
    "relations-json-n-0": ("relations", '{"n": 0, "relations": []}',
                           "bad relation JSON: n must be a positive integer, got 0"),
    "relations-list-coordinate": ("relations", '{"n": 3, "relations": [[2, 1, 1, [1]]]}',
                                  "coordinates must be integers"),
    "relations-str-coordinate": ("relations", '{"n": 3, "relations": [[2, 1, 1, 1], [2, "1", 1, 1]]}',
                                 "coordinates must be integers"),
    "pattern-exponent": ("pattern", "2 1 1e100000000\n1 0\n0\n",
                         "line 1: exponent of '1e100000000' exceeds 1000 in magnitude"),
    "pattern-offset-exponent": ("pattern", "a 1 0\na-1E-100000000 0\n0\na = 1 2\n",
                                "line 2: exponent of '-1E-100000000' exceeds"),
    "pattern-sidecar-exponent": ("pattern", "a 1 0\n1 0\n0\na = 1 2e100000000\n",
                                 "line 4: exponent of '2e100000000' exceeds"),
    "pattern-json-exponent": ("pattern", '{"n": 3, "entries": ["2", "1", "0", "1", "0", "1e-100000000"]}',
                              "entries[5]: exponent of '1e-100000000' exceeds"),
    "pattern-json-label-exponent": (
        "pattern", '{"n": 1, "entries": ["a"], "labels": {"a": ["1e100000000", "2e100000000"]}}',
        "label 'a': exponent of '1e100000000' exceeds"),
    "input-coeff-exponent": ("input", json.dumps({"terms": [dict(VECTOR["terms"][0], coeff="1e100000000")]}),
                             "bad combination JSON: terms[0].coeff: exponent of '1e100000000' exceeds"),
    "input-coeff-1/0": ("input", json.dumps({"terms": [dict(VECTOR["terms"][0], coeff="1/0")]}),
                        "bad combination JSON"),
    **{f"generator-{spec}": ("generator", spec, f"generator indices in {spec!r} out of range 1..3")
       for spec in ("E 0 1", "E 3 4", "E 0 0", "E 4 4")},
    # Past a limit of the Python reader: an integer over int's 4300-digit
    # limit, in JSON and in text, and JSON nested past the recursion limit.
    "relations-json-long-coordinate": ("relations", '{"n": 3, "relations": [[%s, 1, 2, 1]]}'
                                       % ("9" * 5000), "invalid JSON: Exceeds the limit"),
    "relations-text-long-coordinate": ("relations", "n 3\n%s 1 -> 2 1\n" % ("9" * 5000),
                                       "line 2: coordinate too long"),
    "pattern-json-long-n": ("pattern", '{"n": %s, "entries": []}' % ("9" * 5000),
                            "invalid JSON: Exceeds the limit"),
    "input-deeply-nested": ("input", '{"terms": %s%s}' % ("[" * 100000, "]" * 100000),
                            "invalid JSON: maximum recursion depth exceeded"),
    "generator-F 1 2": ("generator", "F 1 2", "generator spec must be 'E k l', got 'F 1 2'"),
    "generator-E a b": ("generator", "E a b", "bad generator indices in 'E a b'"),
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


def test_enumerate_mu_on_a_labeled_top_row(capsys, tmp_path):
    relations, pattern = tmp_path / "c.rel", tmp_path / "l.pat"
    relations.write_text("n 3\n")
    pattern.write_text("a 1 0\na-1 0\n0\na = 1.41 1.42\n")
    code, out = run(capsys, "enumerate", "--relations", str(relations),
                    "--pattern", str(pattern), "--mu", "1,1,1")
    assert (code, out) == (1, '{"error": {"code": "non_rational_weight", '
                               '"message": "labeled entry a in row 3"}}\n')


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
FUZZ_GENERATORS = ["E 1 2", "E 2 1", "E 2 2", "E 2 3"]
FUZZ_INDICES = ["-1", "0", "1", "2", "3", "4", "9", "x", "1.5", "", "E", "F"]
# Weights of the seed patterns' top rows (sum 3), and one of another sum.
FUZZ_MUS = ["1,1,1", "2,1,0", "0,1,2", "1,2,0", "3,0,0"]
FUZZ_RATIONALS = ["-1", "0", "1", "2", "3", "1/2", "1/0", "x", "", "a", "1e400", "nan"]


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


def fuzz_option(rng, seeds, sep, tokens, mutate):
    """A seed option value, or with mutate one to three edits of its
    sep-separated tokens: a token replaced, deleted or inserted."""
    toks = rng.choice(seeds).split(sep)
    for _ in range(rng.randint(1, 3) if mutate else 0):
        op = rng.randrange(3)
        if op == 0 and toks:
            toks[rng.randrange(len(toks))] = rng.choice(tokens)
        elif op == 1 and toks:
            del toks[rng.randrange(len(toks))]
        else:
            toks.insert(rng.randint(0, len(toks)), rng.choice(tokens))
    return sep.join(toks)


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
    every subcommand that reads files, and mutated --generator and --mu
    values: every run exits 0, 1 or 2, and no error is an internal one."""
    rng = random.Random(12)
    codes = Counter()
    for _ in range(400):
        target = rng.choice(("relations", "pattern", "input", "generator", "mu"))
        if target in ("input", "generator"):
            commands = ["act"]
        elif target == "mu":
            commands = ["enumerate"]
        else:
            commands = ["tile", "facedim", "enumerate", "commutators", "act"]
        command = rng.choice(commands + ["check"] * (target == "relations"))
        files = {"relations": fuzz_file(rng, FUZZ_RELATIONS, target == "relations")}
        if command != "check":
            files["pattern"] = fuzz_file(rng, FUZZ_PATTERNS, target == "pattern")
        argv = [command]
        if command == "act":
            files["input"] = fuzz_file(rng, FUZZ_INPUTS, target == "input")
            argv.append("--generator=" + fuzz_option(rng, FUZZ_GENERATORS, " ", FUZZ_INDICES,
                                                     target == "generator"))
        if command == "enumerate" and (target == "mu" or rng.random() < 0.3):
            argv.append("--mu=" + fuzz_option(rng, FUZZ_MUS, ",", FUZZ_RATIONALS, target == "mu"))
        for name, text in files.items():
            path = tmp_path / name
            path.write_text(text)
            argv += [f"--{name}", str(path)]
        code, out = run(capsys, *argv)
        codes[code] += 1
        codes[target, code] += 1
        assert code in (0, 1, 2), (files, argv, out)
        if code:
            assert json.loads(out)["error"]["code"] != "internal", (files, argv, out)
    assert codes["generator", 2] >= 40 and min(codes["mu", 1], codes["mu", 2]) >= 15, codes
    assert min(codes[0], codes[1]) >= 10 and codes[2] >= 100, codes


def random_tile_files(rng, tmp_path, n, empty):
    """Relation and pattern files for `relpoly tile`: random plus, minus and
    zero arcs on n rows (none when empty, so every tile is a singleton), and
    integers in [0, 3], or thirds now and then, lowered along the arcs until
    the pattern satisfies them."""
    arcs = []
    for _ in range(0 if empty else rng.randint(n, 2 * n)):
        kind = rng.choice(("plus", "minus", "zero"))
        k = rng.randint(1, n - 1)
        if kind == "plus":
            arcs.append(((k + 1, rng.randint(1, k + 1)), (k, rng.randint(1, k))))
        elif kind == "minus":
            arcs.append(((k, rng.randint(1, k)), (k + 1, rng.randint(1, k + 1))))
        else:
            i, j = rng.sample(range(1, n + 1), 2)
            arcs.append(((n, i), (n, j)))
    vals = {(k, i): rng.randint(0, 3) for k in range(1, n + 1) for i in range(1, k + 1)}
    changed = True
    while changed:
        changed = False
        for src, dst in arcs:
            if vals[src] < vals[dst]:
                vals[dst], changed = vals[src], True
    den = rng.choice((1, 1, 3))
    token = str if den == 1 else (lambda v: f"{v}/{den}")
    rel, pat = tmp_path / f"r{n}.rel", tmp_path / f"r{n}.pat"
    rel.write_text(fileio.dump_relations(RelationSet(n, arcs)))
    pat.write_text("".join(" ".join(token(vals[(k, i)]) for i in range(1, k + 1)) + "\n"
                           for k in range(n, 0, -1)))
    return str(rel), str(pat)


# sha256 over `relpoly tile` stdout, one exit code and output per request, on
# three random sets and one empty set for each n in 4..14 (seed 2027),
# taken before the kernel was read off the integer reduced rows.
TILE_DIGESTS = {
    "json": "e5f86ba061617e15c11b626b5d75be0031d0e842299167db77517064fef07cca",
    "text": "3e334f2680ab13ad83639c595245a627c24826563288f13f68a239c8602fce23",
}


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_tile_output_is_pinned(capsys, tmp_path, fmt):
    rng = random.Random(2027)
    digest = hashlib.sha256()
    for n in range(4, 15):
        for empty in (False, False, False, True):
            rel, pat = random_tile_files(rng, tmp_path, n, empty)
            code, out = run(capsys, "tile", "--relations", rel, "--pattern", pat,
                            "--format", fmt)
            digest.update(f"{code} {out}".encode())
    assert digest.hexdigest() == TILE_DIGESTS[fmt]

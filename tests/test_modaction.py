"""Generator action on tableaux, commutator identities, dimension oracle."""

import random
from fractions import Fraction
from math import lcm, prod

import pytest

from relpoly import fileio, modaction
from relpoly.cli import main
from relpoly.errors import (
    CriticalDenominator,
    LabeledEntryUnsupported,
    NotDominant,
    NotSatisfying,
    OutOfBasisLeak,
    RelpolyError,
)
from relpoly.modaction import (
    CARTAN,
    LOWER,
    RAISE,
    LinComb,
    act_cartan,
    act_in_basis,
    act_lower,
    act_raise,
    CommutatorReport,
    check_commutators,
    weyl_dim,
)
from relpoly.patterns import Entry, Pattern, satisfies, weight, weight_vector
from relpoly.polyhedra import enumerate_integral
from relpoly.relations import (
    RelationSet,
    check_admissible,
    connected_components,
    standard_set,
)
from relpoly.selftest import gt_base


def rows(*data):
    return Pattern.from_rows([list(r) for r in data])


def test_lincomb_arithmetic():
    M = rows((1, 0), (0,))
    v = LinComb.single(M)
    assert (v + v.scale(Fraction(-1))).is_zero()
    w = v.scale(Fraction(2, 3)) - v
    assert dict(w.terms)[M] == Fraction(-1, 3)


def test_act_raise_examples():
    v = act_raise(1, rows((1, 0), (0,)))
    assert dict(v.terms) == {rows((1, 0), (1,)): Fraction(1)}
    assert act_raise(1, rows((1, 0), (1,))).is_zero()
    assert act_raise(1, rows((0, 0), (0,))).is_zero()


def test_act_lower_examples():
    v = act_lower(1, rows((1, 0), (0,)))
    assert dict(v.terms) == {rows((1, 0), (-1,)): Fraction(1)}
    v = act_lower(1, rows((1, 0), (1,)))
    assert dict(v.terms) == {rows((1, 0), (0,)): Fraction(1)}
    v = act_lower(2, rows((2, 1, 0), (1, 0), (0,)))
    assert dict(v.terms) == {
        rows((2, 1, 0), (0, 0), (0,)): Fraction(1, 2),
        rows((2, 1, 0), (1, -1), (0,)): Fraction(1, 2),
    }


def test_act_cartan_examples():
    M = rows((1, 0), (0,))
    assert act_cartan(1, M).is_zero()
    assert dict(act_cartan(2, M).terms) == {M: Fraction(1)}
    M3 = rows((2, 1, 0), (1, 0), (0,))
    assert dict(act_cartan(2, M3).terms) == {M3: Fraction(1)}


def test_critical_denominator():
    M = rows((2, 1, 0), (1, 2), (1,))  # m_21 - m_22 + 1 = 0 in row 2
    with pytest.raises(CriticalDenominator):
        act_raise(2, M)


def test_weight_shift():
    M = rows((2, 1, 0), (1, 0), (0,))
    mu = weight_vector(M)
    for P, _ in act_raise(1, M).terms:
        got = weight_vector(P)
        assert got[0] == mu[0] + 1 and got[1] == mu[1] - 1
    for P, _ in act_lower(2, M).terms:
        got = weight_vector(P)
        assert got[1] == mu[1] - 1 and got[2] == mu[2] + 1


def test_act_in_basis_stays_inside():
    C = standard_set(2, 1, "both")
    L = rows((1, 0), (0,))
    v = act_in_basis(C, L, (RAISE, 1), LinComb.single(L))
    assert dict(v.terms) == {rows((1, 0), (1,)): Fraction(1)}
    top = rows((1, 0), (1,))
    assert act_in_basis(C, L, (RAISE, 1), LinComb.single(top)).is_zero()


def test_act_in_basis_wall_drop():
    # Lowering at the bottom wall of the 2-point module produces the pattern
    # x_11 = -1 with raw coefficient 1 (the k=1 numerator is empty); the GT
    # inequality x_11 >= x_22 = 0 excludes it, so the basis filter does the
    # work here, not a vanishing coefficient.
    C = standard_set(2, 1, "both")
    L = rows((1, 0), (0,))
    raw = act_lower(1, L)
    assert dict(raw.terms) == {rows((1, 0), (-1,)): Fraction(1)}
    filtered = act_in_basis(C, L, (LOWER, 1), LinComb.single(L))
    assert filtered.is_zero()
    with pytest.raises(OutOfBasisLeak):
        act_in_basis(C, L, (LOWER, 1), LinComb.single(L), strict=True)


def test_act_in_basis_strict_names_the_first_leak():
    # lower_2 keeps every term of the first basis vector, and on the second
    # one keeps its first term, then leaks 2/3 onto x_22 = -1; the leak is
    # raised with that target and 2/3 times the input coefficient 3/4.
    C = standard_set(3, 1, "both")
    L = rows((2, 1, 0), (2, 1), (2,))
    first, second = rows((2, 1, 0), (1, 1), (1,)), rows((2, 1, 0), (2, 0), (1,))
    v = LinComb.build([(first, 1), (second, Fraction(3, 4))])
    assert [P for P, _ in v.terms] == [first, second]
    assert act_in_basis(C, L, (LOWER, 2), v) == LinComb.single(
        rows((2, 1, 0), (1, 0), (1,)), 1 + Fraction(1, 3) * Fraction(3, 4))
    with pytest.raises(OutOfBasisLeak) as info:
        act_in_basis(C, L, (LOWER, 2), v, strict=True)
    assert info.value.pattern == rows((2, 1, 0), (2, -1), (1,))
    assert (type(info.value.coeff), info.value.coeff) == (Fraction, Fraction(1, 2))


def test_check_commutators_small_modules():
    for lam in ((1, 0), (2, 0), (2, 1, 0), (1, 1, 0)):
        C, L = standard_set(len(lam), 1, "both"), gt_base(lam)
        basis = enumerate_integral(C, L).points
        report = check_commutators(C, L, basis)
        assert report.ok, (lam, report.failures)
        assert report.checked == len(basis)


def test_check_commutators_generic_base():
    C = standard_set(3, 3, "both")
    L = rows((Fraction(1, 2), Fraction(5, 7), Fraction(9, 11)),
             (Fraction(1, 5), Fraction(1, 3)),
             (Fraction(1, 7),))
    sample = [L, L.shifted(2, 1, 1), L.shifted(1, 1, -2)]
    assert check_commutators(C, L, sample).ok


# A two-cycle between (1,1) and (2,1): the basis filter drops the lowered
# tableau, so [raise1,lower1] misses cartan1 - cartan2 on the only vector.
CYCLE_TEXT = "n 2\n1 1 -> 2 1\n2 1 -> 1 1\n"
CYCLE_FAILURE = ("[raise1,lower1]", "1 0 | 1", "(-1)*[1 0 | 1]")


def test_check_commutators_failure_report():
    C = fileio.parse_relations(CYCLE_TEXT)
    L = rows((1, 0), (1,))
    report = check_commutators(C, L, enumerate_integral(C, L).points)
    assert report.checked == 1
    assert [(name, str(M), res) for name, M, res in report.failures] == [CYCLE_FAILURE]


def test_cli_commutators_failure_report(capsys, tmp_path):
    rel = tmp_path / "cycle.rel"
    rel.write_text(CYCLE_TEXT)
    pat = tmp_path / "cycle.pat"
    pat.write_text(fileio.dump_pattern(rows((1, 0), (1,))))
    code = main(["commutators", "--relations", str(rel), "--pattern", str(pat)])
    out = capsys.readouterr().out
    assert code == 1
    assert out == (
        '{"checked": 1, "failures": '
        '[["[raise1,lower1]", "1 0 | 1", "(-1)*[1 0 | 1]"]]}\n'
    )


def test_check_commutators_raises():
    C = standard_set(2, 1, "both")
    L = rows((1, 0), (0,))
    with pytest.raises(NotSatisfying):
        check_commutators(C, L, [L, rows((1, 0), (2,))])
    C = standard_set(3, 3, "empty")
    M = rows((2, 1, 0), (1, 2), (1,))
    with pytest.raises(CriticalDenominator, match="row 2, entries 1 and 2"):
        check_commutators(C, M, [M])


def test_check_commutators_n1_labeled_base(capsys, tmp_path):
    # At n = 1 there is no bracket, so no generator acts and the labeled
    # entry is never read: the one tableau is checked, with no failures.
    C = RelationSet(1, [])
    L = Pattern.from_rows([[Entry.sqrt(2)]])
    assert check_commutators(C, L, [L]) == CommutatorReport(1)
    rel, pat = tmp_path / "n1.rel", tmp_path / "n1.pat"
    rel.write_text(fileio.dump_relations(C))
    pat.write_text(fileio.dump_pattern(L))
    code = main(["commutators", "--relations", str(rel), "--pattern", str(pat)])
    assert (code, capsys.readouterr().out) == (0, '{"checked": 1, "failures": []}\n')


def reference_check_commutators(C, L, sample):
    """The bracket identities as a plain composition of act_in_basis calls."""
    n = L.n
    failures = []
    checked = 0

    def apply(gen, v):
        return act_in_basis(C, L, gen, v)

    def bracket(g1, g2, v):
        return apply(g1, apply(g2, v)) - apply(g2, apply(g1, v))

    for M in sample:
        v = LinComb.single(M)
        checked += 1
        for k in range(1, n):
            lhs = bracket((RAISE, k), (LOWER, k), v)
            rhs = apply((CARTAN, k), v) - apply((CARTAN, k + 1), v)
            if lhs != rhs:
                failures.append((f"[raise{k},lower{k}]", M, str(lhs - rhs)))
        for j in range(1, n + 1):
            for k in range(1, n):
                want = (1 if j == k else 0) - (1 if j == k + 1 else 0)
                lhs = bracket((CARTAN, j), (RAISE, k), v)
                rhs = apply((RAISE, k), v).scale(want)
                if lhs != rhs:
                    failures.append((f"[cartan{j},raise{k}]", M, str(lhs - rhs)))
                lhs = bracket((CARTAN, j), (LOWER, k), v)
                rhs = apply((LOWER, k), v).scale(-want)
                if lhs != rhs:
                    failures.append((f"[cartan{j},lower{k}]", M, str(lhs - rhs)))
        for k in range(1, n):
            for l in range(1, n):
                if abs(k - l) >= 2:
                    for kind in (RAISE, LOWER):
                        res = bracket((kind, k), (kind, l), v)
                        if not res.is_zero():
                            failures.append((f"[{kind}{k},{kind}{l}]", M, str(res)))
                if k != l:
                    res = bracket((RAISE, k), (LOWER, l), v)
                    if not res.is_zero():
                        failures.append((f"[raise{k},lower{l}]", M, str(res)))
    return CommutatorReport(checked, tuple(failures))


def random_relation_set(rng, n):
    """Random plus, minus and zero arcs: cyclic, non-reduced and
    non-admissible sets included."""
    arcs = []
    for _ in range(rng.randint(0, 2 * n)):
        kind = rng.choice(("plus", "minus", "zero"))
        if kind == "plus":
            k = rng.randint(2, n)
            arcs.append(((k, rng.randint(1, k)), (k - 1, rng.randint(1, k - 1))))
        elif kind == "minus":
            k = rng.randint(1, n - 1)
            arcs.append(((k, rng.randint(1, k)), (k + 1, rng.randint(1, k + 1))))
        else:
            i, j = rng.sample(range(1, n + 1), 2)
            arcs.append(((n, i), (n, j)))
    return RelationSet(n, arcs)


def random_sample(rng, C):
    """A pattern satisfying C and a few shifts of it, most of them kept
    inside the basis.  Each component of C gets a common fractional or
    labeled part now and then, so generic and labeled bases occur too."""
    n = C.n
    vals = {(k, i): rng.randint(0, 3) for k in range(1, n + 1) for i in range(1, k + 1)}
    changed = True
    while changed:
        changed = False
        for src, dst in C:
            if vals[src] < vals[dst]:
                vals[dst] = vals[src]
                changed = True
    entry = {v: Entry.rational(x) for v, x in vals.items()}
    for block in connected_components(C):
        roll = rng.random()
        if roll < 0.2:
            q = Fraction(rng.randint(1, 6), rng.randint(2, 7))
            for v in block:
                entry[v] = Entry.rational(vals[v] + q)
        elif roll < 0.25:
            for v in block:
                entry[v] = Entry.sqrt(2, vals[v])
    M = Pattern.from_rows(
        [[entry[(k, i)] for i in range(1, k + 1)] for k in range(n, 0, -1)]
    )
    sample = [M]
    for _ in range(rng.randint(0, 2)):
        k = rng.randint(1, n - 1)
        P = sample[-1].shifted(k, rng.randint(1, k), rng.choice((1, -1)))
        if satisfies(C, P) or rng.random() < 0.2:
            sample.append(P)
    return M, sample


def commutator_outcome(check, C, L, sample):
    try:
        report = check(C, L, sample)
    except RelpolyError as exc:
        return type(exc).__name__, str(exc)
    return report.checked, [(name, str(M), res) for name, M, res in report.failures]


def test_check_commutators_matches_reference():
    rng = random.Random(20261018)
    kinds = {"ok": 0, "failures": 0, "raised": 0}
    for _ in range(240):
        C = random_relation_set(rng, rng.choice((2, 2, 3, 3, 3, 4)))
        L, sample = random_sample(rng, C)
        got = commutator_outcome(check_commutators, C, L, sample)
        want = commutator_outcome(reference_check_commutators, C, L, sample)
        assert got == want, (C, [str(M) for M in sample])
        kind = "raised" if isinstance(got[0], str) else "failures" if got[1] else "ok"
        kinds[kind] += 1
    assert min(kinds.values()) >= 30, kinds


def test_check_commutators_fractional_failure_matches_reference():
    # Not admissible: (2,1) -> (1,1) -> (2,2) forces l_21 >= l_22 with no
    # diamond through row 3.  On a base with fractional part 5/6 the
    # coefficients keep denominators, and so does the residual.
    C = RelationSet(3, [((2, 1), (1, 1)), ((1, 1), (2, 2))])
    assert check_admissible(C).status == "not_admissible"
    q = Fraction(5, 6)
    L = rows((0, 2, 3), (q, q), (q,))
    sample = [L, L.shifted(2, 1, 1)]
    got = commutator_outcome(check_commutators, C, L, sample)
    assert got == commutator_outcome(reference_check_commutators, C, L, sample)
    assert got == (2, [("[raise2,lower2]", "0 2 3 | 5/6 5/6 | 5/6",
                        "(-49/216)*[0 2 3 | 5/6 5/6 | 5/6]")])


# Perturbed actions, each wrapping the true function it replaces, so that
# the commutator check has failing brackets to report.  The pinned digests
# in tests/test_pinned_digests.py run them too.

def diagonal_cartan(true_cartan):
    # Adds 1/2 or -1 to the weight on two thirds of the tableaux.
    def act(k, M):
        v = true_cartan(k, M)
        r = (sum(e.offset for e in M.entries) + k) % 3
        return v if r == 0 else v + LinComb.single(M, Fraction(1, 2) if r == 1 else -1)
    return act


def term_side_raise(true_raise):
    # On a third of the tableaux, the terms move row k+1 instead of row k.
    def act(k, M):
        v = true_raise(k, M)
        if (sum(e.offset for e in M.entries) + k) % 3 or k + 1 > M.n - 1:
            return v
        return LinComb.build((M.shifted(k + 1, 1, 1), c) for _, c in v.terms)
    return act


def distant_raise(true_raise):
    # raise_3 doubles on even l_11, so [raise1,raise3] fails.
    def act(k, M):
        v = true_raise(k, M)
        return v.scale(2) if k == 3 and M[(1, 1)].offset % 2 == 0 else v
    return act


def test_diagonal_cartan_brackets_fail_like_the_reference(monkeypatch):
    # No true action fails a cartan bracket, so the failures come from an
    # act_cartan that adds 1/2 or -1 to the weight on two thirds of the
    # tableaux; the reference reaches it through act_in_basis.
    monkeypatch.setattr(modaction, "act_cartan", diagonal_cartan(modaction.act_cartan))
    cases = []
    for lam in ((2, 1, 0), (2, 1, 1, 0)):
        C, L = standard_set(len(lam), 1, "both"), gt_base(lam)
        cases.append((C, L, enumerate_integral(C, L).points))
    C = standard_set(3, 3, "both")
    L = rows((Fraction(1, 2), Fraction(5, 7), Fraction(9, 11)),
             (Fraction(1, 5), Fraction(1, 3)),
             (Fraction(1, 7),))
    cases.append((C, L, [L, L.shifted(2, 1, 1), L.shifted(1, 1, -2)]))
    rng = random.Random(20261021)
    for _ in range(60):
        C = random_relation_set(rng, rng.choice((2, 3, 3, 4)))
        cases.append((C, *random_sample(rng, C)))
    names = set()
    for C, L, sample in cases:
        got = commutator_outcome(check_commutators, C, L, sample)
        assert got == commutator_outcome(reference_check_commutators, C, L, sample), (
            C, [str(M) for M in sample])
        if not isinstance(got[0], str):
            names.update(name.split(",")[0] for name, _, _ in got[1])
    assert {"[cartan1", "[cartan2", "[cartan3", "[cartan4", "[raise1"} <= names, names


def test_distant_brackets_fail_like_the_reference(monkeypatch):
    # raise_1 and raise_3 read and move disjoint rows, so no true action
    # fails [raise1,raise3]; an act_raise(3, .) that doubles on even l_11
    # does, and [raise3,raise1] must come out as its negation, in its place.
    monkeypatch.setattr(modaction, "act_raise", distant_raise(modaction.act_raise))
    C = standard_set(4, 1, "both")
    L = rows((3, 2, 1, 0), (3, 2, 1), (3, 2), (3,))
    sample = enumerate_integral(C, L).points[::4]
    got = commutator_outcome(check_commutators, C, L, sample)
    assert got == commutator_outcome(reference_check_commutators, C, L, sample)
    names = {name for name, _, _ in got[1]}
    assert {"[raise1,raise3]", "[raise3,raise1]"} <= names, names


def test_term_side_cartan_brackets_fail_like_the_reference(monkeypatch):
    # An act_raise whose terms, on a third of the tableaux, move the entry in
    # row k+1 instead of row k: the cartan columns stay true, but the terms
    # land on the wrong weight, so the weight-vector comparison must fall
    # back to the exact per-j residuals.
    monkeypatch.setattr(modaction, "act_raise", term_side_raise(modaction.act_raise))
    cases = []
    for lam in ((2, 1, 0), (2, 1, 1, 0), (3, 2, 1, 0)):
        C, L = standard_set(len(lam), 1, "both"), gt_base(lam)
        cases.append((C, L, enumerate_integral(C, L).points))
    rng = random.Random(20261022)
    for _ in range(60):
        C = random_relation_set(rng, rng.choice((3, 3, 4, 4)))
        cases.append((C, *random_sample(rng, C)))
    names = set()
    for C, L, sample in cases:
        got = commutator_outcome(check_commutators, C, L, sample)
        assert got == commutator_outcome(reference_check_commutators, C, L, sample), (
            C, [str(M) for M in sample])
        if not isinstance(got[0], str):
            names.update(name.split(",")[0] for name, _, _ in got[1])
    assert {"[cartan1", "[cartan2", "[cartan3"} <= names, names


def reference_act(kind, k, M):
    """The action formulas as they stood before they read each row once:
    the rational-row check, then the scaled rows, then LinComb.build."""

    def require_rational_rows(rows):
        for r in rows:
            if 1 <= r <= M.n and not all(e.is_rational for e in M.row(r)):
                raise LabeledEntryUnsupported(
                    "generator action needs rational entries in the touched rows")

    if kind == CARTAN:
        if not 1 <= k <= M.n:
            raise ValueError(f"cartan index {k} out of range 1..{M.n}")
        require_rational_rows((k - 1, k))
        return LinComb.single(M, weight(M, k))
    if not 1 <= k <= M.n - 1:
        raise ValueError(f"{kind} index {k} out of range 1..{M.n - 1}")
    other = k + 1 if kind == RAISE else k - 1
    require_rational_rows((k, other))
    rows = [[e.offset for e in M.row(r)] for r in (k, other)]
    D = lcm(*(q.denominator for row in rows for q in row))
    m, o = ([q.numerator * (D // q.denominator) for q in row] for row in rows)
    delta = other - k
    items = []
    for i in range(1, k + 1):
        num = prod(m[i - 1] - o[j - 1] + (j - i) * D for j in range(1, other + 1))
        den = 1
        for j in range(1, k + 1):
            if j != i:
                f = m[i - 1] - m[j - 1] + (j - i) * D
                if f == 0:
                    raise CriticalDenominator(k, i, j)
                den *= f
        if num:
            items.append((M.shifted(k, i, delta), Fraction(-delta * num, den * D ** (delta + 1))))
    return LinComb.build(items)


def random_pattern(rng, n):
    """Entries in 0..3; one pattern in three has a common fractional part,
    and one in three a few sqrt2-labeled entries."""
    roll = rng.randrange(3)
    q = Fraction(rng.randint(1, 6), rng.randint(2, 7)) if roll == 1 else 0
    rows = []
    for k in range(n, 0, -1):
        row = [Entry.rational(rng.randint(0, 3) + q) for _ in range(k)]
        if roll == 2 and rng.random() < 0.3:
            row[rng.randrange(k)] = Entry.sqrt(2, rng.randint(0, 3))
        rows.append(row)
    return Pattern.from_rows(rows)


def test_action_formulas_match_the_reference():
    # Terms come out sorted, distinct and nonzero, on tableaux equal to (and
    # hashing like) their rebuilt selves; results and errors are the
    # reference's, message for message.
    rng = random.Random(20261023)
    acts = {RAISE: act_raise, LOWER: act_lower, CARTAN: act_cartan}
    kinds = {}
    for n in range(1, 7):
        for _ in range(60):
            M = random_pattern(rng, n)
            for k in range(n + 1):
                for kind, act in acts.items():
                    try:
                        want = reference_act(kind, k, M)
                    except (ValueError, RelpolyError) as exc:
                        with pytest.raises(type(exc)) as got:
                            act(k, M)
                        assert str(got.value) == str(exc), (kind, k, str(M))
                        outcome = type(exc).__name__
                    else:
                        v = act(k, M)
                        assert v == want and str(v) == str(want), (kind, k, str(M))
                        assert v.terms == LinComb.build(v.terms).terms
                        for P, _ in v.terms:
                            Q = Pattern.from_rows(P.rows())
                            assert P == Q and hash(P) == hash(Q)
                        outcome = kind
                    kinds[outcome] = kinds.get(outcome, 0) + 1
    assert len(kinds) == 6 and min(kinds.values()) >= 30, kinds


def test_each_column_is_built_once(monkeypatch):
    # One column per (generator, position): the 3n - 2 generators at each of
    # the 64 basis tableaux of lambda = (3,2,1,0), and no column built twice.
    calls = []
    act_one = modaction._act_one
    monkeypatch.setattr(modaction, "_act_one",
                        lambda gen, M: calls.append((gen, M)) or act_one(gen, M))
    C = standard_set(4, 1, "both")
    L = rows((3, 2, 1, 0), (3, 2, 1), (3, 2), (3,))
    basis = enumerate_integral(C, L).points
    report = check_commutators(C, L, basis)
    assert report.ok and report.checked == len(basis) == 64
    assert len(calls) == len(set(calls)) == (3 * 4 - 2) * 64 == 640


def test_raise_and_lower_terms_come_out_sorted():
    # _act_step lists its terms in offsets_key order by construction (raise
    # i = k..1, lower i = 1..k), with no sort; a critical denominator still
    # raises at the first critical i, with the reference's (k, i, j).  Rows
    # get fractional parts of denominator 2, 3 or 6, or sqrt2-labeled
    # entries outside the two touched rows.
    rng = random.Random(20261025)
    parts = (0, Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 6), Fraction(5, 6))
    seen = {}
    for n in range(2, 7):
        for _ in range(150):
            k, kind = rng.randint(1, n - 1), rng.choice((RAISE, LOWER))
            touched = (k, k + 1 if kind == RAISE else k - 1)
            mode = rng.choice(("integral", "fractional", "labeled"))
            rows = []
            for r in range(n, 0, -1):
                q = rng.choice(parts) if mode == "fractional" else 0
                row = [Entry.rational(rng.randint(0, 3) + q) for _ in range(r)]
                if mode == "labeled" and r not in touched:
                    row[rng.randrange(r)] = Entry.sqrt(2, rng.randint(0, 3))
                rows.append(row)
            M = Pattern.from_rows(rows)
            act = act_raise if kind == RAISE else act_lower
            try:
                want = reference_act(kind, k, M)
            except CriticalDenominator as exc:
                with pytest.raises(CriticalDenominator) as got:
                    act(k, M)
                assert (got.value.k, got.value.i, got.value.j) == (exc.k, exc.i, exc.j)
                outcome = "critical"
            else:
                terms = act(k, M).terms
                assert terms == LinComb._sorted(terms).terms == want.terms, (kind, k, str(M))
                outcome = "several" if len(terms) > 1 else "one or none"
            seen[mode, outcome] = seen.get((mode, outcome), 0) + 1
    assert len(seen) == 9 and min(seen.values()) >= 20, seen


def test_cartan_column_off_its_diagonal_fails_like_the_reference(monkeypatch):
    # Cartan columns with a raise_1 term off their diagonal: a tableau with
    # such a term has no weight vector, so the raise and lower columns at it
    # or into it fail the weight test and get their cartan residuals, which
    # must be the reference's.
    true_cartan = modaction.act_cartan
    monkeypatch.setattr(modaction, "act_cartan",
                        lambda k, M: true_cartan(k, M) + act_raise(1, M))
    C, L = standard_set(3, 1, "both"), gt_base((2, 1, 0))
    sample = enumerate_integral(C, L).points
    got = commutator_outcome(check_commutators, C, L, sample)
    assert got == commutator_outcome(reference_check_commutators, C, L, sample)
    assert got[0] == 8 and len(got[1]) == 33
    assert {"[cartan1", "[cartan2", "[cartan3"} <= {name.split(",")[0] for name, _, _ in got[1]}


def test_cartan_eigenbasis():
    C = standard_set(3, 1, "both")
    L = rows((2, 1, 0), (2, 1), (1,))
    for P in enumerate_integral(C, L).points:
        mu = weight_vector(P)
        for k in range(1, 4):
            v = act_cartan(k, P)
            if mu[k - 1] == 0:
                assert v.is_zero()
            else:
                assert dict(v.terms) == {P: mu[k - 1]}


def test_weyl_dim():
    assert weyl_dim((2, 1, 0)) == 8
    assert weyl_dim((1, 0)) == 2
    assert weyl_dim((0, 0, 0, 0)) == 1
    assert weyl_dim((2, 1, 1, 0)) == 15
    with pytest.raises(NotDominant):
        weyl_dim((0, 1))
    with pytest.raises(NotDominant):
        weyl_dim((1, Fraction(1, 2)))

"""Entries, patterns, pointwise predicates, and weight functionals."""

import json
import os
import pickle
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import relpoly
from relpoly.errors import IncomparableEntries, NonRationalWeight, RelpolyError
from relpoly.fileio import parse_pattern, pattern_from_json, pattern_to_json
from relpoly.patterns import (
    Entry,
    Pattern,
    cmp_entries,
    constant_pattern,
    coord_index,
    is_c_pattern,
    is_realization,
    noncritical_at,
    row_sum,
    satisfies,
    weight,
    weight_vector,
)
from relpoly.polyhedra import enumerate_integral
from relpoly.relations import RelationSet, connected_components, standard_set
from relpoly.selftest import random_c_pattern
from test_relations import random_relation_set

EX_C = RelationSet(4, [((2, 1), (1, 1)), ((2, 1), (3, 2)),
                       ((1, 1), (2, 2)), ((3, 2), (2, 2))])

# C-pattern but not satisfying: x_21 - x_32 = 1/2 is not an integer.
X_IRR = Pattern.from_rows([
    [3, 3, 5, Fraction(7, 2)],
    [1, Fraction(5, 2), 4],
    [3, 1],
    [Entry.sqrt(2)],
])
# Satisfies EX_C but row 3 has the integral difference l_31 - l_32.
L_SAT = Pattern.from_rows([[1, 2, 3, 4], [1, 0, 2], [1, -2], [0]])
# A genuine realization: sqrt labels isolate the non-component entries.
M_REAL = Pattern.from_rows([[1, 2, 3, 4],
                            [Entry.sqrt(2), 1, Entry.sqrt(3)],
                            [2, 0],
                            [1]])


def test_entry_equality_is_exact():
    a = Entry.sqrt(2)
    b = Entry.sqrt(2).add(Fraction(1))
    assert a != b
    assert a == Entry.sqrt(2)
    assert a != Entry.sqrt(3)
    assert Entry.rational(Fraction(1, 2)) == Entry.rational(Fraction(2, 4))


def test_entry_integer_diff():
    a = Entry.sqrt(2)
    assert a.integer_diff(a.add(Fraction(3)))
    assert not a.integer_diff(a.add(Fraction(1, 2)))
    assert not a.integer_diff(Entry.sqrt(3))
    assert Entry.rational(5).integer_diff(Entry.rational(2))
    assert a.diff(a.add(Fraction(3))) == -3
    assert a.diff(Entry.sqrt(3)) is None


def test_entry_order_via_intervals():
    assert cmp_entries(Entry.sqrt(2), Entry.rational(2)) < 0
    assert cmp_entries(Entry.sqrt(3), Entry.sqrt(2)) > 0
    assert cmp_entries(Entry.sqrt(2), Entry.sqrt(2)) == 0
    # Identical enclosures but different labels: cannot be separated.
    a = Entry.labeled("alpha", Fraction(1, 4), Fraction(1, 2))
    b = Entry.labeled("beta", Fraction(1, 4), Fraction(1, 2))
    with pytest.raises(IncomparableEntries):
        cmp_entries(a, b)


def test_entry_str():
    assert str(Entry.rational(Fraction(3, 2))) == "3/2"
    assert str(Entry.rational(-2)) == "-2"
    assert str(Entry.sqrt(2)) == "sqrt2"
    assert str(Entry.sqrt(2).add(Fraction(-1, 3))) == "sqrt2-1/3"


def test_coord_index_order():
    # Serialization runs top row first, then down to the single bottom entry.
    n = 3
    order = [(3, 1), (3, 2), (3, 3), (2, 1), (2, 2), (1, 1)]
    assert [coord_index(n, v) for v in order] == list(range(6))


def test_pattern_roundtrip_rows():
    X = Pattern.from_rows([[2, 1, 0], [1, 0], [0]])
    assert X.n == 3
    assert X[(3, 1)] == Entry.rational(2)
    assert X[(1, 1)] == Entry.rational(0)
    assert [len(r) for r in X.rows()] == [3, 2, 1]
    assert str(X) == "2 1 0 | 1 0 | 0"


def test_pattern_one_enclosure_per_label():
    a = Entry.labeled("a", 1, 2)
    with pytest.raises(ValueError, match="'a' is given two different enclosures"):
        Pattern.from_rows([[a, 0], [Entry.labeled("a", 1, 3)]])
    with pytest.raises(ValueError, match="two different enclosures"):
        Pattern(2, (a, Entry.rational(0), Entry.labeled("a", 0, 2, offset=1)))
    X = Pattern.from_rows([[a, 0], [Entry.labeled("a", 1, 2, offset=-1)]])
    assert X[(1, 1)].label == "a"


def test_pattern_shift():
    X = Pattern.from_rows([[1, 0], [0]])
    Y = X.shifted(1, 1, 1)
    assert Y[(1, 1)] == Entry.rational(1)
    assert Y != X and X.shifted(1, 1, 0) == X


def test_pattern_hash_follows_equality():
    X = Pattern.from_rows([[2, 1, 0], [1, 0], [0]])
    assert hash(X) == hash(Pattern.from_rows([[Fraction(2), 1, 0], [1, 0], [0]]))
    assert hash(X.shifted(1, 1, 1).shifted(1, 1, -1)) == hash(X)
    assert hash(X.shifted(1, 1, 1)) != hash(X)
    # Entry equality ignores the enclosure, so the hash must too.
    wide, tight = Entry.labeled("sqrt2", 1, 2), Entry.sqrt(2)
    assert wide.lo != tight.lo
    A = Pattern.from_rows([[wide, 0], [0]])
    B = Pattern.from_rows([[tight, 0], [0]])
    assert A == B and hash(A) == hash(B) and {A: "a"}[B] == "a"
    other = Pattern.from_rows([[Entry.sqrt(3), 0], [0]])
    assert other != A and hash(other) != hash(A)


def test_pattern_hash_is_computed_on_first_use():
    C = standard_set(3, 1, "both")
    points = enumerate_integral(C, Pattern.from_rows([[2, 1, 0], [2, 1], [2]])).points
    assert len(points) == 8
    assert not any("_hash" in vars(P) for P in points)
    P = points[3]
    h = hash(P)
    assert vars(P)["_hash"] == h == hash(Pattern(P.n, P.entries))
    assert "_hash" not in vars(points[4])
    assert pickle.loads(pickle.dumps(P)) == P
    assert "_hash" not in vars(pickle.loads(pickle.dumps(P)))


def test_entry_hash_is_cached_on_first_use():
    for e in (Entry.rational(Fraction(5, 6)), Entry.sqrt(2, -3),
              Entry.labeled("t", 1, 2, Fraction(-1, 2))):
        assert "_hash" not in vars(e)
        h = hash(e)
        assert vars(e)["_hash"] == h == hash((e.offset, e.label))
        assert hash(Entry(e.offset, e.label, e.lo, e.hi)) == h
        back = pickle.loads(pickle.dumps(e))
        assert back == e and "_hash" not in vars(back)


def random_entry(rng):
    """A rational, sqrt2 or sqrt3 entry whose offset has a small int part
    (negative ones included) and one of several denominators."""
    q = rng.randint(-3, 3) + rng.choice((0, 0, Fraction(1, 2), Fraction(-1, 3),
                                         Fraction(1, 3), Fraction(5, 6)))
    label = rng.choice((None, None, 2, 3))
    return Entry.rational(q) if label is None else Entry.sqrt(label, q)


def random_pattern(rng, n):
    return Pattern.from_rows(
        [[random_entry(rng) for _ in range(k)] for k in range(n, 0, -1)])


def reference_satisfies(C, L):
    for src, dst in C:
        d = L[src].diff(L[dst])
        if d is None or d.denominator != 1 or d < 0:
            return False
    return True


def test_satisfies_matches_the_diff_reference():
    rng = random.Random(20261019)
    outcomes = {True: 0, False: 0}
    for _ in range(1500):
        n = rng.randint(2, 4)
        arcs = []
        for _ in range(rng.randint(0, 3)):
            k = rng.randint(1, n - 1)
            pair = ((k + 1, rng.randint(1, k + 1)), (k, rng.randint(1, k)))
            arcs.append(pair if rng.random() < 0.5 else pair[::-1])
        L = random_pattern(rng, n)
        if rng.random() < 0.6:
            # Give each arc's target its source's label, mostly its
            # fractional part too, and a value below or just above it: both
            # outcomes stay common.
            for src, dst in arcs:
                step = rng.randint(-1, 3) + rng.choice((0, 0, 0, Fraction(1, 3), Fraction(2, 3)))
                L = L.with_entry(dst, L[src].add(-step))
        C = RelationSet(n, arcs)
        got = satisfies(C, L)
        assert got == reference_satisfies(C, L), (arcs, str(L))
        outcomes[got] += 1
    assert min(outcomes.values()) >= 300, outcomes


def test_shifted_matches_with_entry():
    rng = random.Random(20261020)
    for _ in range(200):
        n = rng.randint(1, 4)
        P = random_pattern(rng, n)
        if rng.random() < 0.5:
            hash(P)  # shift a tableau whose entries carry cached hashes
        k = rng.randint(1, n)
        i = rng.randint(1, k)
        delta = rng.choice((-2, -1, 1, 3))
        S = P.shifted(k, i, delta)
        W = P.with_entry((k, i), P[(k, i)].add(delta))
        assert S == W and hash(S) == hash(W) and str(S) == str(W)
        assert all(type(e) is Entry for e in S.entries)
        idx = coord_index(n, (k, i))
        assert all(a is b for j, (a, b) in enumerate(zip(S.entries, P.entries)) if j != idx)
        assert S[(k, i)].offset == P[(k, i)].offset + delta


PICKLE_OBJECTS = """
from fractions import Fraction
from relpoly.patterns import Entry, Pattern
OBJECTS = [
    Entry.sqrt(2), Entry.sqrt(3, Fraction(-1, 2)), Entry.rational(Fraction(5, 6)),
    Entry.labeled("t", 0, 1, 2),
    Pattern.from_rows([[Entry.sqrt(2, 1), Entry.sqrt(3), 0],
                       [Entry.sqrt(2), Fraction(1, 2)], [Entry.sqrt(2, -1)]]),
]
"""

PICKLE_DUMP = PICKLE_OBJECTS + """
import pickle, sys
for x in OBJECTS:
    hash(x)  # cache every hash, the entries' too, before pickling
sys.stdout.buffer.write(pickle.dumps(OBJECTS))
"""

PICKLE_LOAD = PICKLE_OBJECTS + """
import json, pickle, sys
loaded = pickle.loads(sys.stdin.buffer.read())
cached = [x for x in loaded + list(loaded[-1].entries) if "_hash" in vars(x)]
print(json.dumps({
    "cached": len(cached),
    "equal": [x == y for x, y in zip(loaded, OBJECTS)],
    "hashes": [hash(x) == hash(y) for x, y in zip(loaded, OBJECTS)],
    "lookups": [{y: i}.get(x) == i and {x: i}.get(y) == i
                for i, (x, y) in enumerate(zip(loaded, OBJECTS))],
}))
"""


def test_pickles_load_under_another_hash_seed():
    # Labeled entries hash their label, a str, so a hash cached under one
    # seed is wrong under another: pickles must leave it behind.
    env = dict(os.environ, PYTHONPATH=str(Path(relpoly.__file__).parent.parent))

    def python(code, seed, data=None):
        return subprocess.run(
            [sys.executable, "-c", code], input=data, capture_output=True,
            env=dict(env, PYTHONHASHSEED=str(seed)), check=True, timeout=60).stdout

    got = json.loads(python(PICKLE_LOAD, 0, python(PICKLE_DUMP, 1)))
    assert got == {"cached": 0, "equal": [True] * 5, "hashes": [True] * 5,
                   "lookups": [True] * 5}


def test_is_c_pattern():
    assert is_c_pattern(EX_C, X_IRR)
    assert is_c_pattern(standard_set(3, 3, "both"), constant_pattern(3, 5))
    bad = Pattern.from_rows([[1, 0], [2]])
    assert not is_c_pattern(standard_set(2, 1, "both"), bad)


def test_satisfies():
    assert satisfies(EX_C, L_SAT)
    assert satisfies(EX_C, M_REAL)
    assert not satisfies(EX_C, X_IRR)
    assert satisfies(standard_set(4, 4, "both"), X_IRR)


def test_satisfies_implies_c_pattern():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(2, 4)
        C = standard_set(n, rng.randint(1, n), "both")
        rows = []
        for k in range(n, 0, -1):
            rows.append([rng.randint(-3, 3) for _ in range(k)])
        X = Pattern.from_rows(rows)
        if satisfies(C, X):
            assert is_c_pattern(C, X)


def test_is_realization():
    assert is_realization(EX_C, M_REAL)
    assert not is_realization(EX_C, L_SAT)
    distinct = Pattern.from_rows([[1, 2, 3], [Entry.sqrt(2), Entry.sqrt(3)],
                                  [Entry.sqrt(5)]])
    assert is_realization(standard_set(3, 3, "both"), distinct)


def test_realization_implies_satisfies():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(2, 4)
        C = standard_set(n, rng.randint(1, n), "both")
        rows = [[rng.randint(-2, 2) for _ in range(k)]
                for k in range(n, 0, -1)]
        X = Pattern.from_rows(rows)
        if is_realization(C, X):
            assert satisfies(C, X)


def test_noncritical_at():
    C1 = standard_set(3, 1, "both")
    assert noncritical_at(C1, Pattern.from_rows([[2, 1, 0], [1, 0], [0]]))
    assert not noncritical_at(C1, Pattern.from_rows([[2, 1, 0], [1, 2], [1]]))
    assert noncritical_at(standard_set(3, 3, "both"),
                          Pattern.from_rows([[2, 1, 0], [1, 2], [1]]))


def ref_is_realization(C, L):
    """Reference for is_realization: a nested loop over each row's pairs i < j."""
    if not satisfies(C, L):
        return False
    blocks = connected_components(C)
    block_of = {v: idx for idx, b in enumerate(blocks) for v in b}
    for k in range(1, L.n):
        for i in range(1, k + 1):
            for j in range(i + 1, k + 1):
                same = block_of[(k, i)] == block_of[(k, j)]
                if L[(k, i)].integer_diff(L[(k, j)]) != same:
                    return False
    return True


def ref_noncritical_at(C, M):
    """Reference for noncritical_at: ordered column pairs, component by component."""
    for block in connected_components(C):
        for k in range(1, M.n):
            cols = sorted(v[1] for v in block if v[0] == k)
            for i in cols:
                for j in cols:
                    if i == j:
                        continue
                    d = M[(k, i)].diff(M[(k, j)])
                    if d is not None and d + j - i == 0:
                        return False
    return True


def test_realization_and_noncriticality_match_references():
    rng = random.Random(3)
    values = [Entry.rational(x) for x in (0, 1, 2, -1, Fraction(1, 2), Fraction(3, 2))]
    values += [Entry.sqrt(2, offset) for offset in (0, 1, -1)]
    outcomes = Counter()
    for _ in range(3000):
        C = random_relation_set(rng)
        X = Pattern(C.n, tuple(rng.choice(values) for _ in range(C.n * (C.n + 1) // 2)))
        realization, noncritical = is_realization(C, X), noncritical_at(C, X)
        assert realization == ref_is_realization(C, X), (C, X)
        assert noncritical == ref_noncritical_at(C, X), (C, X)
        outcomes["realization", realization] += 1
        outcomes["noncritical", noncritical] += 1
    assert min(outcomes[kind, value] for kind in ("realization", "noncritical")
               for value in (True, False)) >= 100, outcomes


def test_row_sum_errors():
    X = Pattern.from_rows([[Entry.labeled("a", Fraction(141, 100), Fraction(142, 100)), 1, 0],
                           [1, 0], [0]])
    with pytest.raises(NonRationalWeight, match="^labeled entry a in row 3$"):
        row_sum(X, 3)
    assert row_sum(X, 2) == 1
    for k in (0, 4):
        with pytest.raises(ValueError, match=f"^row {k} out of range$"):
            row_sum(X, k)


def test_weights():
    X = Pattern.from_rows([[2, 1, 0], [1, 0], [0]])
    assert row_sum(X, 2) == Fraction(1)
    assert weight(X, 2) == Fraction(1)
    assert weight_vector(X) == (Fraction(0), Fraction(1), Fraction(2))
    assert weight_vector(constant_pattern(3, 0)) == (0, 0, 0)
    assert weight_vector(Pattern.from_rows([[1, 0], [1]])) == (1, 0)


def test_weight_label_cancellation():
    # The sqrt2 in row 2 does not cancel against row 1, so w_2 is undefined,
    # but w_3 is fine when the label reappears with the same multiplicity.
    X = Pattern.from_rows([[Entry.sqrt(2), 1, 0],
                           [Entry.sqrt(2), 0],
                           [1]])
    assert weight(X, 3) == Fraction(1)
    with pytest.raises(NonRationalWeight):
        weight(X, 2)


def test_weights_telescope():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                 for _ in range(k)] for k in range(n, 0, -1)]
        X = Pattern.from_rows(rows)
        assert sum(weight_vector(X)) == row_sum(X, n)


# References for the primitives that the rank oracle and the tiling lean on:
# Entry equality, order and weights, from (offset, label) tuples and Fraction
# operators alone.

def entry_key(e):
    return (e.offset, e.label)


def reference_bounds(e):
    if e.label is None:
        return e.offset, e.offset
    return e.lo + e.offset, e.hi + e.offset


def reference_cmp(a, b):
    """cmp_entries by Fraction operators: offsets under one label, else the
    intervals."""
    if a.label == b.label:
        return (a.offset > b.offset) - (a.offset < b.offset)
    (alo, ahi), (blo, bhi) = reference_bounds(a), reference_bounds(b)
    if ahi < blo:
        return -1
    if alo > bhi:
        return 1
    raise IncomparableEntries(f"cannot order {a} and {b} from their intervals")


def reference_weight_vector(X):
    """(w_1, ..., w_n) from Fraction sums of whole rows, after checking that
    the labels of rows k and k-1 cancel."""
    rows = [[]] + [X.row(k) for k in range(1, X.n + 1)]
    weights = []
    for k in range(1, X.n + 1):
        upper, lower = rows[k], rows[k - 1]
        if Counter(e.label for e in upper if e.label) != Counter(e.label for e in lower if e.label):
            raise NonRationalWeight(f"labels do not cancel in weight {k}")
        weights.append(sum(e.offset for e in upper) - sum(e.offset for e in lower))
    return tuple(weights)


def outcome_of(fn, *args):
    """fn's value, or the type and message of the RelpolyError it raises."""
    try:
        return fn(*args)
    except RelpolyError as exc:
        return type(exc), str(exc)


# Offsets that meet: integers, halves and thirds, some held in distinct but
# equal Fraction objects, around labels whose enclosures overlap each other
# ("a" and "b") and the rationals, and sqrt labels that do not.
def varied_entry(rng):
    num, den = rng.randint(-6, 6), rng.choice((1, 1, 2, 3))
    scale = rng.choice((1, 2, 5))
    offset = Fraction(num * scale, den * scale)
    kind = rng.choice((None, None, None, "sqrt2", "sqrt3", "a", "b"))
    if kind is None:
        return Entry(offset)
    if kind == "a":
        return Entry.labeled("a", 1, 2, offset)
    if kind == "b":
        return Entry.labeled("b", Fraction(3, 2), 3, offset)
    return Entry.sqrt(int(kind[4:]), offset)


def test_entry_add_int_step_matches_the_constructor():
    entries = [Entry.rational(4), Entry.rational(Fraction(-7, 3)), Entry.sqrt(2),
               Entry.sqrt(3, Fraction(5, 6)), Entry.labeled("t", 1, 2, -1)]
    for e in entries:
        hash(e)  # the step must not carry self's cached hash over
        for k in (-3, -1, 0, 1, 2, 10):
            got, want = e.add(k), Entry(e.offset + k, e.label, e.lo, e.hi)
            assert vars(got) == vars(want) and "_hash" not in vars(got)
            # The types agree with the constructor's: int iff integral.
            assert type(got) is Entry and type(got.offset) is type(want.offset)
            assert type(got.offset) is (Fraction if got.offset.denominator > 1 else int)
            assert got.lo is e.lo and got.hi is e.hi
            assert pickle.dumps(got) == pickle.dumps(want)
            back = pickle.loads(pickle.dumps(got))
            assert vars(back) == vars(want)
            assert got == want and hash(got) == hash(want) and str(got) == str(want)
    # Other steps still go through the constructor and its checks.
    assert Entry.rational(1).add(Fraction(1, 2)) == Entry.rational(Fraction(3, 2))
    assert Entry.rational(1).add("1/3") == Entry.rational(Fraction(4, 3))
    with pytest.raises(TypeError, match="cannot coerce 0.5"):
        Entry.rational(1).add(0.5)


def int_iff_integral(x):
    """The offset and enclosure invariant: an int exactly when integral."""
    return type(x) is (int if x.denominator == 1 else Fraction)


def assert_int_iff_integral(e):
    assert int_iff_integral(e.offset), e
    if e.label is not None:
        assert int_iff_integral(e.lo) and int_iff_integral(e.hi), e


def test_offsets_are_ints_exactly_when_integral():
    values = [0, 3, -2, Fraction(6, 3), Fraction(-4, 2), Fraction(1, 2),
              Fraction(-7, 3), "5", "-4/2", "1/3"]
    made = []
    for x in values:
        made += [Entry(x), Entry.rational(x), Entry.labeled("a", x, x, x),
                 Entry.labeled("b", 0, Fraction(2, 2), x), Entry.sqrt(2, x)]
    for e in made:
        assert_int_iff_integral(e)
        # The int step skips the constructor; every other step goes through it.
        for q in (1, -2, 0, Fraction(1, 2), Fraction(2, 3), Fraction(4, 2), "1/3", "-1"):
            assert_int_iff_integral(e.add(q))
    assert type(Entry(Fraction(1, 2)).add(Fraction(1, 2)).offset) is int
    text = "a+1/2 1 0\na-1 3/3\n4/2\na = 1 2.5\n"
    for X in (parse_pattern(text), pattern_from_json(pattern_to_json(parse_pattern(text)))):
        assert [str(e) for e in X.entries] == ["a+1/2", "1", "0", "a-1", "1", "2"]
        for e in X.entries:
            assert_int_iff_integral(e)
        assert (X[(3, 1)].lo, X[(3, 1)].hi) == (1, Fraction(5, 2))


def test_entry_equality_matches_the_tuple_reference():
    rng = random.Random(20261018)
    equal = 0
    for _ in range(4000):
        a, b = varied_entry(rng), varied_entry(rng)
        if rng.random() < 0.3:
            # The same value and label in a distinct Fraction object.
            b = Entry(Fraction(a.offset.numerator * 3, a.offset.denominator * 3),
                      a.label, a.lo, a.hi)
            if a.offset.denominator > 1:  # small ints are shared objects
                assert b.offset is not a.offset
        want = entry_key(a) == entry_key(b)
        assert (a == b) is want and (a != b) is (not want), (a, b)
        assert (hash(a) == hash(b)) >= want and hash(a) == hash(entry_key(a))
        equal += want
    assert 1000 <= equal <= 3000, equal
    one = Entry.rational(1)
    assert not one == 1 and one != 1 and one.__eq__(1) is NotImplemented
    assert one != Fraction(1) and one != (Fraction(1), None)


def test_cmp_entries_matches_the_fraction_reference():
    rng = random.Random(20261019)
    outcomes = Counter()
    for _ in range(4000):
        a, b = varied_entry(rng), varied_entry(rng)
        if rng.random() < 0.1:
            b = Entry(Fraction(a.offset.numerator * 2, a.offset.denominator * 2),
                      a.label, a.lo, a.hi)
        got = outcome_of(cmp_entries, a, b)
        assert got == outcome_of(reference_cmp, a, b), (a, b)
        outcomes[got if isinstance(got, int) else got[0]] += 1
    assert set(outcomes) == {-1, 0, 1, IncomparableEntries}, outcomes
    assert min(outcomes.values()) >= 200, outcomes


def test_weight_vector_matches_the_row_sum_reference():
    rng = random.Random(20261020)
    outcomes = Counter()
    for _ in range(1500):
        n = rng.randint(1, 5)
        # Half the patterns have int offsets only, whose weights are plain
        # int differences.
        dens = rng.choice(((1,), (1, 1, 2, 3, 6)))
        rows = [[Entry(Fraction(rng.randint(-9, 9), rng.choice(dens)))
                 for _ in range(k)] for k in range(n, 0, -1)]
        # Labels that cancel down a column, and now and then one that does not.
        for _ in range(rng.randint(0, 2)):
            label = rng.choice((2, 3))
            top = rng.randint(1, n)
            for k in range(top, max(0, top - rng.randint(1, 2)), -1):
                i = rng.randrange(k)
                rows[n - k][i] = Entry.sqrt(label, rows[n - k][i].offset)
        X = Pattern.from_rows(rows)
        got = outcome_of(weight_vector, X)
        assert got == outcome_of(reference_weight_vector, X), str(X)
        assert got == outcome_of(lambda X: tuple(weight(X, k) for k in range(1, n + 1)), X)
        if isinstance(got[0], Fraction):
            assert all(type(w) is Fraction for w in got)
        outcomes[got[0] if got[0] is NonRationalWeight else "ok"] += 1
    assert min(outcomes.values()) >= 300, outcomes


def labeled_c_pattern(rng, C, width=4):
    """A random C-pattern with fractional and sqrt-labeled entries: the
    integer C-pattern of random_c_pattern, with each value v sent to one
    entry in [3v/2, 3v/2 + 3/4).  The map is increasing, so order and ties,
    and with them the tiles, are those of the integer pattern."""
    X = random_c_pattern(rng, C, width)
    level = {}
    for e in X.entries:
        v = e.offset
        if v not in level:
            base = Fraction(3, 2) * v
            level[v] = rng.choice((Entry(base), Entry(base + Fraction(1, 3)),
                                   Entry.sqrt(2, base - 1), Entry.sqrt(3, base - 1)))
    return Pattern(X.n, tuple(level[e.offset] for e in X.entries))


def varied_pattern(rng, n):
    return Pattern.from_rows([[varied_entry(rng) for _ in range(k)] for k in range(n, 0, -1)])

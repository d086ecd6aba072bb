"""Constraint systems, boundedness, integral-point enumeration, rank oracle."""

import ast
import gc
import hashlib
import pickle
import random
import re
import tracemalloc
from collections import Counter
from fractions import Fraction
from inspect import isgenerator
from itertools import chain, permutations
from math import ceil, floor
from pathlib import Path

import pytest

from relpoly import linalg, polyhedra
from relpoly.errors import (
    IncomparableEntries,
    Infeasible,
    NegativeEntryOnSupport,
    NonRationalWeight,
    NotACPattern,
    NotSatisfying,
    RelpolyError,
    Unbounded,
    UnboundedWeightSlice,
    WeightMismatch,
)
from relpoly.fileio import parse_pattern, parse_relations
from relpoly.linalg import rref
from relpoly.modaction import weyl_dim
from relpoly.patterns import (
    Entry,
    Pattern,
    cmp_entries,
    constant_pattern,
    coord_index,
    row_sum,
    satisfies,
    weight_vector,
)
from relpoly.polyhedra import (
    IntegralPointSet,
    _row_map,
    _walk,
    assemble,
    count_integral,
    count_integral_weight,
    enumerate_integral,
    enumerate_integral_weight,
    face_dim_oracle,
    first_points,
    is_polytope,
    system_at,
)
from relpoly.relations import (
    RelationSet,
    connected_components,
    is_top_connected,
    standard_set,
    support,
    vertices,
)
from relpoly.selftest import face_dim_sweep, gt_base, random_c_pattern
from relpoly.tiling import (
    Inapplicable,
    compute_tiling,
    kernel,
    min_face_dims,
    min_face_dims_plus,
    tiling_matrix,
)
from test_patterns import (
    assert_int_iff_integral,
    entry_key,
    labeled_c_pattern,
    outcome_of,
    reference_cmp,
    reference_weight_vector,
    varied_entry,
)
from test_relations import random_relation_set, ref_reach

SRC = Path(__file__).resolve().parents[1] / "src" / "relpoly"


def test_assemble_c1_n2():
    C = standard_set(2, 1, "both")
    sys_ = assemble(C, lam=(1, 0), mu=(1, 0), plus=False)
    assert set(sys_.inequalities) == {((2, 1), (1, 1)), ((1, 1), (2, 2))}
    assert sys_.nonneg == ()
    assert [e.offset for e in sys_.eq_top] == [1, 0]
    assert sys_.eq_weights == (Fraction(1), Fraction(0))


def test_assemble_empty():
    sys_ = assemble(standard_set(3, 3, "both"), lam=None, mu=None, plus=False)
    assert sys_.inequalities == () and sys_.nonneg == ()
    assert sys_.eq_top is None and sys_.eq_weights is None


def test_assemble_plus_support():
    C = standard_set(3, 1, "both")
    sys_ = assemble(C, lam=(2, 1, 0), mu=None, plus=True)
    assert len(sys_.inequalities) == 6
    assert len(sys_.nonneg) == 6  # V(C1) is the whole triangle


def test_is_polytope():
    assert is_polytope(standard_set(3, 1, "both")).bounded
    assert is_polytope(standard_set(4, 1, "both")).bounded
    # C_2 never certifies the first-column vertices, matching the
    # infinite-dimensional (finite weight space) module it carries.
    c2 = is_polytope(standard_set(4, 2, "both"))
    assert not c2.bounded
    assert c2.unbounded_coordinates == ((1, 1), (2, 1), (3, 1))
    report = is_polytope(standard_set(3, 1, "plus"))
    assert not report.bounded
    empty = is_polytope(standard_set(3, 3, "both"))
    assert not empty.bounded
    assert empty.unbounded_coordinates == ((1, 1), (2, 1), (2, 2))


def test_is_polytope_matches_reference_on_random_sets():
    # n 2-7, zero arcs and cycles included: the open coordinates are those
    # that the test-side closure leaves without a certificate.
    rng = random.Random(2201)
    seen = Counter()
    for _ in range(600):
        C = random_relation_set(rng)
        if rng.random() < 0.5:  # most of C1 `both` under it, so more are bounded
            C = RelationSet(C.n, [a for a in standard_set(C.n, 1, "both") if rng.random() < 0.8]
                            + list(C))
        report = is_polytope(C)
        missing = reference_certificates(C)[2]
        assert (report.bounded, report.unbounded_coordinates) == (not missing, missing), C
        reach = ref_reach(C)
        seen["bounded"] += report.bounded
        seen["cyclic"] += any(src in reach[dst] for src, dst in C)
        seen["zero"] += any(src[0] == dst[0] for src, dst in C)
    assert min(seen.values()) >= 50, seen


def reference_random_c_pattern(rng, C, width=4):
    """The fixed-point repair: lower the target of a violated arc to its
    source's value until no arc is violated."""
    vals = {v: rng.randint(0, width) for v in vertices(C.n)}
    changed = True
    while changed:
        changed = False
        for src, dst in C:
            if vals[src] < vals[dst]:
                vals[dst] = vals[src]
                changed = True
    return Pattern.from_rows([[vals[(k, i)] for i in range(1, k + 1)]
                              for k in range(C.n, 0, -1)])


def test_random_c_pattern_matches_fixed_point_repair():
    rng = random.Random(2202)
    cyclic = 0
    for seed in range(400):
        C = random_relation_set(rng) if seed % 4 else standard_set(
            rng.randint(2, 8), 1, rng.choice(("both", "plus", "minus")))
        width = rng.choice((1, 2, 4, 9))
        X = random_c_pattern(random.Random(seed), C, width)
        assert X == reference_random_c_pattern(random.Random(seed), C, width), C
        assert satisfies(C, X)
        reach = ref_reach(C)
        cyclic += any(src in reach[dst] for src, dst in C)
    assert cyclic >= 20


def test_enumerate_integral_counts():
    C = standard_set(3, 1, "both")
    pts = enumerate_integral(C, gt_base((2, 1, 0))).points
    assert len(pts) == 8
    C2 = standard_set(2, 1, "both")
    assert len(enumerate_integral(C2, gt_base((1, 0))).points) == 2
    assert len(enumerate_integral(C2, gt_base((0, 0))).points) == 1


def test_enumerate_and_count_at_n1():
    C, L = RelationSet(1, []), Pattern.from_rows([[5]])
    assert [str(P) for P in enumerate_integral(C, L).points] == ["5"]
    assert [str(P) for P in enumerate_integral_weight(C, L, [5]).points] == ["5"]
    assert count_integral(C, L) == count_integral_weight(C, L, [5]) == 1
    assert first_points(C, L, 0) == first_points(C, L, 0, [5]) == (1, ())
    with pytest.raises(WeightMismatch):
        count_integral_weight(C, L, [4])


def test_enumerate_integral_points_valid():
    C = standard_set(3, 1, "both")
    L = gt_base((2, 1, 0))
    result = enumerate_integral(C, L)
    seen = set()
    for P in result.points:
        assert satisfies(C, P)
        assert P.row(3) == L.row(3)
        seen.add(P.offsets_key())
    assert len(seen) == len(result.points)


def test_enumerate_integral_errors():
    C = standard_set(3, 1, "plus")
    with pytest.raises(Unbounded):
        enumerate_integral(C, gt_base((2, 1, 0)))
    C1 = standard_set(2, 1, "both")
    with pytest.raises(NotSatisfying):
        enumerate_integral(C1, Pattern.from_rows([[1, 0], [2]]))


def test_enumerate_weight_slice():
    C = standard_set(3, 1, "both")
    L = gt_base((2, 1, 0))
    pts = enumerate_integral_weight(C, L, [1, 1, 1]).points
    assert [str(p) for p in pts] == ["2 1 0 | 1 1 | 1", "2 1 0 | 2 0 | 1"]
    one = enumerate_integral_weight(standard_set(2, 1, "both"),
                                    Pattern.from_rows([[1, 0], [1]]), [1, 0])
    assert [str(p) for p in one.points] == ["1 0 | 1"]
    plus = enumerate_integral_weight(standard_set(2, 1, "plus"),
                                     gt_base((1, 0)), [0, 1])
    assert [str(p) for p in plus.points] == ["1 0 | 0"]


def test_enumerate_weight_slice_partitions_basis():
    C = standard_set(3, 1, "both")
    L = gt_base((2, 1, 0))
    pts = enumerate_integral(C, L).points
    by_weight = {}
    for P in pts:
        by_weight.setdefault(weight_vector(P), []).append(P)
    total = 0
    for mu, group in by_weight.items():
        slice_pts = enumerate_integral_weight(C, L, list(mu)).points
        assert len(slice_pts) == len(group)
        total += len(slice_pts)
    assert total == len(pts)


def test_enumerate_weight_mismatch():
    C = standard_set(3, 1, "both")
    L = gt_base((2, 1, 0))
    with pytest.raises(WeightMismatch):
        enumerate_integral_weight(C, L, [1, 1])  # wrong length
    with pytest.raises(WeightMismatch):
        enumerate_integral_weight(C, L, [1, 1, 2])  # wrong total


def test_enumerate_weight_unbounded_slice():
    # C_k with k >= 3 leaves whole rows unconstrained.
    C = standard_set(4, 3, "both")
    L = gt_base((2, 1, 0, 0))
    with pytest.raises(UnboundedWeightSlice):
        enumerate_integral_weight(C, L, [1, 1, 1, 0])


# Bounded weight slices that the row map calls unbounded: a bound that only
# a lower row's sum closes stays open.  (relations, base rows, mu, points):
# a brute-force search over [-60, 60] finds exactly these points, all in
# [0, 4].  The second is the n=4 case that the arcs-and-sums fixpoint of
# ROADMAP's slice item cannot prove bounded.
SLICES_BOUNDED_BY_LOWER_SUMS = {
    "n3": ([((2, 1), (1, 1)), ((2, 2), (1, 1))], [[3, 1, 0], [1, 1], [0]], (0, 2, 2),
           [[[3, 1, 0], [a, 2 - a], [0]] for a in range(3)]),
    "n4": ([((1, 1), (2, 2)), ((2, 1), (1, 1)), ((2, 1), (3, 2)), ((3, 1), (2, 1)),
            ((3, 2), (2, 2)), ((3, 3), (2, 1)), ((3, 3), (4, 4))],
           [[3, 0, 0, 2], [3, 3, 3], [3, 2], [3]], (3, 2, 4, -4),
           [[[3, 0, 0, 2], *rows, [3]] for rows in ([[3, 2, 4], [3, 2]], [[3, 3, 3], [3, 2]],
                                                    [[4, 1, 4], [4, 1]], [[4, 2, 3], [3, 2]])]),
}


@pytest.mark.xfail(strict=True, raises=UnboundedWeightSlice,
                   reason="the row map reads no bound through a lower row's sum")
@pytest.mark.parametrize("case", sorted(SLICES_BOUNDED_BY_LOWER_SUMS))
def test_weight_slice_bounded_by_lower_row_sums(case):
    arcs, rows, mu, points = SLICES_BOUNDED_BY_LOWER_SUMS[case]
    C, L = RelationSet(len(rows), arcs), Pattern.from_rows(rows)
    assert count_integral_weight(C, L, mu) == len(points)
    got = enumerate_integral_weight(C, L, mu).points
    assert set(got) == {Pattern.from_rows(p) for p in points} and len(got) == len(points)


def test_enumerate_weight_empty_slice_ok():
    C = standard_set(2, 1, "both")
    pts = enumerate_integral_weight(C, gt_base((1, 0)), [-1, 2]).points
    assert pts == ()


# The eager enumerators over C1 at lambda=(3,2,1,0) and its base's weight.
EAGER_CALLS = {
    "enumerate_integral": lambda C, L, mu: enumerate_integral(C, L),
    "enumerate_integral_weight": lambda C, L, mu: enumerate_integral_weight(C, L, mu),
    "first_points": lambda C, L, mu: first_points(C, L, None),
    "first_points limit": lambda C, L, mu: first_points(C, L, 3),
    "first_points mu": lambda C, L, mu: first_points(C, L, None, mu),
    "first_points mu limit": lambda C, L, mu: first_points(C, L, 1, mu),
}


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("name", sorted(EAGER_CALLS))
def test_eager_enumeration_keeps_gc_state(name, enabled):
    C, L = standard_set(4, 1, "both"), gt_base((3, 2, 1, 0))
    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        EAGER_CALLS[name](C, L, weight_vector(L))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if before else gc.disable)()


@pytest.mark.parametrize("call", [
    enumerate_integral_weight,
    lambda C, L, mu: first_points(C, L, None, mu),
], ids=["enumerate_integral_weight", "first_points"])
def test_gc_restored_when_below_raises_in_walk(call):
    # No relation bounds any entry below the top row, so the first row map
    # call, from inside the walk, raises.
    C, L = RelationSet(3, []), Pattern.from_rows([[2, 1, 0], [1, 0], [0]])
    assert gc.isenabled()
    with pytest.raises(UnboundedWeightSlice) as raised:
        call(C, L, (0, 1, 2))
    assert {"_walk", "below"} <= {entry.name for entry in raised.traceback}
    assert gc.isenabled()


def test_enumeration_runs_without_collections():
    # The 8400 points of C1 at lambda=(6,4,2,1,0) trip the young generation
    # dozens of times unless the collector is paused; with it paused, only
    # the one pass that follows the walk is left.
    C, L = standard_set(5, 1, "both"), gt_base((6, 4, 2, 1, 0))
    starts = []

    def hook(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.collect()
    gc.callbacks.append(hook)
    try:
        points = enumerate_integral(C, L).points
    finally:
        gc.callbacks.remove(hook)
    assert len(points) == 8400
    assert len(starts) <= 1, starts
    # The pause is sound only while the walk leaves no cycles behind.
    assert gc.collect() == 0


def test_face_dim_oracle_no_constraints():
    X = Pattern.from_rows([[5, 4, 3], [2, 1], [0]])
    sys_ = assemble(standard_set(3, 3, "both"), None, None, False)
    assert face_dim_oracle(sys_, X) == 6


def test_face_dim_oracle_vertex():
    C = standard_set(3, 1, "both")
    X = constant_pattern(3, 2)
    assert face_dim_oracle(system_at(C, X, "lambda"), X) == 0
    assert face_dim_oracle(system_at(C, X, "mu"), X) == 0


def test_face_dim_oracle_weight_slice_points():
    C = standard_set(3, 1, "both")
    L = gt_base((2, 1, 0))
    for P in enumerate_integral_weight(C, L, [1, 1, 1]).points:
        assert face_dim_oracle(system_at(C, P, "mu"), P) == 0


def test_face_dim_oracle_infeasible():
    C = standard_set(2, 1, "both")
    X = Pattern.from_rows([[1, 0], [2]])
    with pytest.raises(Infeasible):
        face_dim_oracle(system_at(C, X, "pc"), X)
    Y = gt_base((2, 1, 0))
    with pytest.raises(Infeasible, match=r"^pattern has n=3, system has n=2$"):
        face_dim_oracle(system_at(C, X, "mu"), Y)


def test_oracle_matches_tile_counts():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(2, 4)
        k = rng.randint(1, n)
        variant = rng.choice(("both", "plus", "minus", "empty"))
        C = standard_set(n, k, variant)
        X = random_c_pattern(rng, C)
        d, s, r = min_face_dims(C, X)
        assert face_dim_oracle(system_at(C, X, "pc"), X) == d
        assert face_dim_oracle(system_at(C, X, "lambda"), X) == s
        assert face_dim_oracle(system_at(C, X, "mu"), X) == r


def test_oracle_constant_pattern_n30():
    C = standard_set(30, 1, "both")
    X = constant_pattern(30, 3)
    dims = tuple(
        face_dim_oracle(system_at(C, X, which), X)
        for which in ("pc", "lambda", "mu")
    )
    assert dims == min_face_dims(C, X) == (1, 0, 0)


def test_mu_oracle_steps_at_n30(monkeypatch):
    """The work of the "mu" oracle on C1 both at the constant pattern, n=30,
    as a count of elimination steps: with the top row's rows stacked first,
    pivot chains stay short (12031 steps when the bottom rows came first)."""
    C = standard_set(30, 1, "both")
    X = constant_pattern(30, 3)
    system = system_at(C, X, "mu")
    steps = Counter()
    eliminate = linalg._eliminate

    def counted(row, col, pivot_row):
        steps["eliminate"] += 1
        eliminate(row, col, pivot_row)

    monkeypatch.setattr(linalg, "_eliminate", counted)
    assert face_dim_oracle(system, X) == 0
    assert 0 < steps["eliminate"] < 3000, steps


@pytest.mark.parametrize("k, variant", [(1, "both"), (2, "both"), (1, "plus")])
@pytest.mark.parametrize("n", [14, 16])
def test_oracle_matches_tile_counts_large(n, k, variant):
    rng = random.Random(1000 * n + 10 * k + len(variant))
    C = standard_set(n, k, variant)
    for _ in range(2):
        X = random_c_pattern(rng, C, rng.choice((2, 3, 4)))
        dims = tuple(
            face_dim_oracle(system_at(C, X, which), X)
            for which in ("pc", "lambda", "mu")
        )
        assert dims == min_face_dims(C, X)


# sha256 over face_dim_sweep's 2000 records at seed 0, one line per record:
# family, n, the pattern, min_face_dims and the oracle's (pc, lambda, mu).
# Taken before the oracle pinned the weights by row sums and compared
# unlabeled entries by offset; the same under PYTHONHASHSEED 0 and 1.
FACE_DIM_SWEEP_DIGEST = "b0260675a737c3359ae28e8d3db9ab1cfdb714a65d8330bcd52615f3e104fb14"


def test_face_dim_sweep_digest_is_pinned():
    digest = hashlib.sha256()
    for r in face_dim_sweep(0, 2000):
        digest.update(f"{r.family} {r.n} {r.input} {r.expected} {r.got}\n".encode())
    assert digest.hexdigest() == FACE_DIM_SWEEP_DIGEST


def reference_face_dim_oracle(system, X):
    """face_dim_oracle on dense rows, with the rank read off the rref.
    Entries are compared as (offset, label) tuples and ordered by Fraction
    operators, and the weights are Fraction sums of whole rows."""
    n = system.n
    if X.n != n:
        raise Infeasible(f"pattern has n={X.n}, system has n={n}")
    ncols = n * (n + 1) // 2
    rows = []
    if system.eq_top is not None:
        for r in range(1, n + 1):
            row = [0] * ncols
            row[coord_index(n, (n, r))] = 1
            rows.append(row)
    if system.eq_weights is not None:
        for k in range(1, n + 1):
            row = [0] * ncols
            for i in range(1, k + 1):
                row[coord_index(n, (k, i))] = 1
            for i in range(1, k):
                row[coord_index(n, (k - 1, i))] = -1
            rows.append(row)
    if system.eq_top is not None:
        for r in range(1, n + 1):
            if entry_key(X[(n, r)]) != entry_key(system.eq_top[r - 1]):
                raise Infeasible(f"top-row pin violated at column {r}")
    if system.eq_weights is not None:
        if reference_weight_vector(X) != system.eq_weights:
            raise Infeasible("weight pins violated")
    zero = Entry.rational(0)
    for src, dst in system.inequalities:
        if entry_key(X[src]) == entry_key(X[dst]):
            row = [0] * ncols
            row[coord_index(n, src)] += 1
            row[coord_index(n, dst)] -= 1
            rows.append(row)
        elif reference_cmp(X[src], X[dst]) < 0:
            raise Infeasible(f"inequality {src} >= {dst} violated")
    for v in system.nonneg:
        if entry_key(X[v]) == entry_key(zero):
            row = [0] * ncols
            row[coord_index(n, v)] = 1
            rows.append(row)
        elif reference_cmp(X[v], zero) < 0:
            raise Infeasible(f"nonnegativity violated at {v}")
    return ncols - len(rref(rows, ncols)[1])


def random_set_cases(count=800, seed=3):
    """(C, X, Y) per random relation set C: a C-pattern X, and a pattern Y
    with entries in [-1, 4] below the top row that need not satisfy C.  Half
    the Ys share X's top row, so that the weight pins get checked."""
    rng = random.Random(seed)
    for _ in range(count):
        C = random_relation_set(rng)
        X = random_c_pattern(rng, C, rng.choice((2, 3, 4)))
        rows = [[rng.randint(-1, 4) for _ in range(k)] for k in range(C.n, 0, -1)]
        if rng.random() < 0.5:
            rows[0] = X.row(C.n)
        yield C, X, Pattern.from_rows(rows)


def oracle_outcome(oracle, system, X):
    try:
        return oracle(system, X)
    except Infeasible as exc:
        return str(exc)


def test_oracle_on_random_relation_sets():
    errors = Counter()
    for C, X, Y in random_set_cases():
        dims = tuple(face_dim_oracle(system_at(C, X, which), X)
                     for which in ("pc", "lambda", "mu"))
        assert dims == min_face_dims(C, X), (C, X)
        for which in ("pc", "lambda", "mu"):
            for plus in (False, True):
                system = system_at(C, X, which, plus)
                for P in (X, Y):
                    got = oracle_outcome(face_dim_oracle, system, P)
                    assert got == oracle_outcome(reference_face_dim_oracle, system, P), (C, P)
                    if isinstance(got, str):
                        errors[got.split(" ")[0]] += 1
    assert set(errors) == {"top-row", "weight", "inequality", "nonnegativity"}
    assert min(errors.values()) >= 30


def test_oracle_on_labeled_patterns():
    """Fractional and sqrt-labeled C-patterns X, and copies Y with a few
    entries replaced, some under labels whose enclosures overlap: the oracle
    gives the reference's value, or its error's type and message."""
    rng = random.Random(20261022)
    outcomes = Counter()
    for _ in range(600):
        C = random_relation_set(rng)
        X = labeled_c_pattern(rng, C, rng.choice((2, 3, 4)))
        ents = list(X.entries)
        for _ in range(rng.randint(1, 3)):
            ents[rng.randrange(len(ents))] = varied_entry(rng)
        Y = Pattern(C.n, tuple(ents))
        dims = min_face_dims(C, X)
        for which, dim in zip(("pc", "lambda", "mu"), dims):
            for plus in (False, True):
                system = outcome_of(system_at, C, X, which, plus)
                if isinstance(system, tuple):
                    assert system == outcome_of(reference_weight_vector, X), (C, X)
                    outcomes["no weights"] += 1
                    continue
                for P in (X, Y):
                    got = outcome_of(face_dim_oracle, system, P)
                    assert got == outcome_of(reference_face_dim_oracle, system, P), (C, P)
                    if P is X and not plus:
                        assert got == dim, (C, X, which)
                    outcomes[got[0] if isinstance(got, tuple) else "dim"] += 1
    assert set(outcomes) == {"dim", "no weights", Infeasible, NonRationalWeight,
                             IncomparableEntries}, outcomes
    assert min(outcomes.values()) >= 20, outcomes


def labeled_set_cases(count=600, seed=20261022):
    """(C, X, Y): the labeled C-pattern X and its varied copy Y of each draw
    of test_oracle_on_labeled_patterns, from the same random stream."""
    rng = random.Random(seed)
    for _ in range(count):
        C = random_relation_set(rng)
        X = labeled_c_pattern(rng, C, rng.choice((2, 3, 4)))
        ents = list(X.entries)
        for _ in range(rng.randint(1, 3)):
            ents[rng.randrange(len(ents))] = varied_entry(rng)
        yield C, X, Pattern(C.n, tuple(ents))


def tile_route_dims(C, X):
    """min_face_dims through the Tiling and the nullspace of its
    TilingMatrix, as `relpoly tile` prints it."""
    T = compute_tiling(C, X)
    return len(T.tiles), T.free_count, len(kernel(tiling_matrix(C, X, T)))


def tile_route_dims_plus(C, X):
    """min_face_dims_plus through the Tiling and its TilingMatrix, after the
    same checks in the same order."""
    T = compute_tiling(C, X)
    zero = Entry.rational(0)
    for v in sorted(support(C)):
        if X[v] != zero and cmp_entries(X[v], zero) < 0:
            raise NegativeEntryOnSupport(f"entry at {v} is negative")
    if not is_top_connected(C):
        return Inapplicable("not top-connected")
    if T.free_count == 0:
        return Inapplicable("no lambda1-free tile")
    return T.free_count, len(kernel(tiling_matrix(C, X, T)))


def outcome_kind(got):
    """The error type of an outcome_of result, or the type of its value."""
    return got[0] if isinstance(got[0], type) else type(got)


def test_min_face_dims_match_the_tile_route():
    """The counts off the root table equal those of the tiles and the tiling
    matrix, value for value, or error type and message for message."""
    outcomes = Counter()
    for C, X, Y in chain(random_set_cases(), labeled_set_cases()):
        for P in (X, Y):
            got = outcome_of(min_face_dims, C, P)
            assert got == outcome_of(tile_route_dims, C, P), (C, P)
            plus = outcome_of(min_face_dims_plus, C, P)
            assert plus == outcome_of(tile_route_dims_plus, C, P), (C, P)
            outcomes["dims", outcome_kind(got)] += 1
            outcomes["plus", plus.reason if isinstance(plus, Inapplicable)
                     else outcome_kind(plus)] += 1
    assert set(outcomes) == {
        ("dims", tuple), ("dims", NotACPattern), ("dims", IncomparableEntries),
        ("plus", tuple), ("plus", NotACPattern), ("plus", IncomparableEntries),
        ("plus", NegativeEntryOnSupport), ("plus", "not top-connected"),
        ("plus", "no lambda1-free tile")}, outcomes
    assert min(outcomes.values()) >= 20, outcomes


def test_oracle_imports_nothing_from_tiling():
    """The oracle checks the tile counts, so it must not borrow the tile code,
    nor the tight-arc pass and union-find that the tiles are built from: a
    comparison shared by both sides could let one bug pass on both."""
    tiling = ast.parse((SRC / "tiling.py").read_text())
    tiling_names = {node.name for node in tiling.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert {"compute_tiling", "kernel", "min_face_dims"} <= tiling_names
    tile_side = {"tight_arcs", "is_c_pattern", "_union_find_roots"}
    tiling_names |= tile_side
    for module in ("polyhedra.py", "linalg.py"):
        for node in ast.walk(ast.parse((SRC / module).read_text())):
            # Nor reached as an attribute, such as patterns.tight_arcs.
            assert getattr(node, "attr", getattr(node, "id", None)) not in tile_side, module
            if isinstance(node, ast.Import):
                assert not any("tiling" in alias.name.split(".")
                               for alias in node.names), module
            elif isinstance(node, ast.ImportFrom):
                assert "tiling" not in (node.module or "").split("."), module
                assert not any(alias.name == "tiling" or alias.name in tiling_names
                               for alias in node.names), module


def test_counts_match_weyl_dims():
    C2 = standard_set(2, 1, "both")
    C3 = standard_set(3, 1, "both")
    assert len(enumerate_integral(C2, gt_base((1, 0))).points) == weyl_dim((1, 0))
    assert len(enumerate_integral(C3, gt_base((1, 1, 0))).points) == \
        weyl_dim((1, 1, 0))


def reference_bounds(C):
    """Per vertex, the vertices that bound it by one arc: (uppers, lowers)."""
    uppers = {v: [] for v in vertices(C.n)}
    lowers = {v: [] for v in vertices(C.n)}
    for src, dst in C.relations:
        uppers[dst].append(src)
        lowers[src].append(dst)
    return uppers, lowers


def reference_certificates(C):
    """Per vertex, the top-row columns above it and below it by a path, by
    the test-side closure; and the vertices below the top row that lack
    either."""
    reach = ref_reach(C)
    tops = [(C.n, r) for r in range(1, C.n + 1)]
    ubs = {v: [t[1] for t in tops if v in reach[t]] for v in vertices(C.n)}
    lbs = {v: [t[1] for t in tops if t in reach[v]] for v in vertices(C.n)}
    missing = tuple(v for v in vertices(C.n)
                    if v[0] < C.n and not (ubs[v] and lbs[v]))
    return ubs, lbs, missing


def reference_enumerate_integral(C, L):
    """Backtracking over the vertices below the top row, one at a time."""
    if not satisfies(C, L):
        raise NotSatisfying("base pattern does not satisfy the relation set")
    ubs, lbs, missing = reference_certificates(C)
    if missing:
        raise Unbounded(f"no finite enumeration: unbounded at {missing}")
    uppers, lowers = reference_bounds(C)
    order = [
        (k, i) for k in range(C.n - 1, 0, -1) for i in range(1, k + 1)
    ]
    top = {(C.n, r): L[(C.n, r)] for r in range(1, C.n + 1)}
    results = []

    def offset_range(v):
        lv_lo, lv_hi = L[v].value_bounds()
        lo_cap, hi_cap = None, None
        for r in ubs[v]:
            hi = top[(C.n, r)].value_bounds()[1] - lv_lo
            hi_cap = hi if hi_cap is None else min(hi_cap, hi)
        for r in lbs[v]:
            lo = top[(C.n, r)].value_bounds()[0] - lv_hi
            lo_cap = lo if lo_cap is None else max(lo_cap, lo)
        return ceil(lo_cap), floor(hi_cap)

    def ok(v, entry, assigned):
        for u in uppers[v]:
            other = assigned.get(u, top.get(u))
            if other is not None:
                d = other.diff(entry)
                if d is None or d < 0:
                    return False
        for w in lowers[v]:
            other = assigned.get(w, top.get(w))
            if other is not None:
                d = entry.diff(other)
                if d is None or d < 0:
                    return False
        return True

    def backtrack(pos, assigned):
        if pos == len(order):
            pt = L
            for v, e in assigned.items():
                pt = pt.with_entry(v, e)
            results.append(pt)
            return
        v = order[pos]
        lo, hi = offset_range(v)
        for t in range(lo, hi + 1):
            entry = L[v].add(t)
            if ok(v, entry, assigned):
                assigned[v] = entry
                backtrack(pos + 1, assigned)
                del assigned[v]

    backtrack(0, {})
    results.sort(key=Pattern.offsets_key)
    return IntegralPointSet(L, tuple(results))


def reference_enumerate_integral_weight(C, L, mu):
    """Backtracking over the vertices of each row, with the row sums pinned
    and per-row intervals from the top-row certificates and the assigned
    rows."""
    if not satisfies(C, L):
        raise NotSatisfying("base pattern does not satisfy the relation set")
    mu = tuple(Fraction(x) for x in mu)
    if len(mu) != C.n:
        raise WeightMismatch(f"mu must have length {C.n}")
    if sum(mu) != row_sum(L, C.n):
        raise WeightMismatch("sum of mu must equal the top-row sum")
    for k in range(1, C.n):
        for e in L.row(k):
            if not e.is_rational:
                raise NonRationalWeight("weight slice needs rational lower rows")
    uppers, lowers = reference_bounds(C)
    ubs, lbs, _ = reference_certificates(C)
    partial = {(C.n, r): L[(C.n, r)] for r in range(1, C.n + 1)}
    results = []

    def row_intervals(k, assigned):
        # Each interval starts from the top-row entries that the vertex
        # reaches and that reach it, then the arcs to assigned entries cut it.
        target = sum(mu[:k])
        los, his = {}, {}
        for i in range(1, k + 1):
            v = (k, i)
            lo = max((partial[(C.n, r)].value_bounds()[0] for r in lbs[v]), default=None)
            hi = min((partial[(C.n, r)].value_bounds()[1] for r in ubs[v]), default=None)
            for u in uppers[v]:
                if u in assigned and assigned[u].is_rational:
                    val = assigned[u].offset
                    hi = val if hi is None else min(hi, val)
            for w in lowers[v]:
                if w in assigned and assigned[w].is_rational:
                    val = assigned[w].offset
                    lo = val if lo is None else max(lo, val)
            los[v], his[v] = lo, hi
        for _ in range(k + 1):
            changed = False
            for i in range(1, k + 1):
                v = (k, i)
                others_lo = [los[(k, j)] for j in range(1, k + 1) if j != i]
                others_hi = [his[(k, j)] for j in range(1, k + 1) if j != i]
                if all(x is not None for x in others_lo):
                    cap = target - sum(others_lo)
                    if his[v] is None or cap < his[v]:
                        his[v] = cap
                        changed = True
                if all(x is not None for x in others_hi):
                    cap = target - sum(others_hi)
                    if los[v] is None or cap > los[v]:
                        los[v] = cap
                        changed = True
            if not changed:
                break
        for i in range(1, k + 1):
            v = (k, i)
            if los[v] is None or his[v] is None:
                raise UnboundedWeightSlice(
                    f"no finite search interval for coordinate {v}"
                )
        return target, los, his

    def ok(v, entry, assigned):
        for u in uppers[v]:
            if u in assigned:
                d = assigned[u].diff(entry)
                if d is None or d < 0:
                    return False
        for w in lowers[v]:
            if w in assigned:
                d = entry.diff(assigned[w])
                if d is None or d < 0:
                    return False
        return True

    def fill_row(k, assigned):
        if k == 0:
            pt = L
            for v, e in assigned.items():
                pt = pt.with_entry(v, e)
            results.append(pt)
            return
        target, los, his = row_intervals(k, assigned)

        def entry_for(i, value):
            base = L[(k, i)].offset
            t = value - base
            if t.denominator != 1:
                return None
            return Entry.rational(value)

        def assign(i, remaining):
            v = (k, i)
            if i == k:
                entry = entry_for(i, remaining)
                if (
                    entry is not None
                    and los[v] <= remaining <= his[v]
                    and ok(v, entry, assigned)
                ):
                    assigned[v] = entry
                    fill_row(k - 1, assigned)
                    del assigned[v]
                return
            base = L[v].offset
            lo_t = ceil(los[v] - base)
            hi_t = floor(his[v] - base)
            for t in range(lo_t, hi_t + 1):
                value = base + t
                entry = Entry.rational(value)
                if ok(v, entry, assigned):
                    assigned[v] = entry
                    assign(i + 1, remaining - value)
                    del assigned[v]

        assign(1, target)

    fill_row(C.n - 1, dict(partial))
    results.sort(key=Pattern.offsets_key)
    return IntegralPointSet(L, tuple(results))


def random_arcs_set(rng, n):
    """Random plus, minus and zero arcs, cyclic and non-reduced sets
    included.  Most keep nearly all arcs of C1 "both", so that they bound
    the enumeration; the others are mostly unbounded."""
    arcs = []
    if rng.random() < 0.7:
        arcs = [a for a in standard_set(n, 1, "both") if rng.random() < 0.95]
    for _ in range(rng.randint(0, n)):
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


def random_base(rng, C, width):
    """A pattern satisfying C.  Each component now and then gets a common
    fractional part or a sqrt label, and one entry in ten bases is moved by
    a third, which usually breaks satisfies."""
    X = random_c_pattern(rng, C, width)
    entry = {(k, i): X[(k, i)] for k in range(1, C.n + 1) for i in range(1, k + 1)}
    for block in connected_components(C):
        roll = rng.random()
        if roll < 0.2:
            q = Fraction(rng.randint(1, 6), rng.randint(2, 7))
            for v in block:
                entry[v] = entry[v].add(q)
        elif roll < 0.3:
            m = rng.choice((2, 3))
            for v in block:
                entry[v] = Entry.sqrt(m, entry[v].offset)
    if rng.random() < 0.1:
        v = rng.choice(sorted(entry))
        entry[v] = entry[v].add(Fraction(1, 3))
    return Pattern.from_rows(
        [[entry[(k, i)] for i in range(1, k + 1)] for k in range(C.n, 0, -1)]
    )


def random_weight(rng, L):
    """The weight of L's row offsets, often moved by a unit between two
    coordinates; now and then of the wrong total or length."""
    sums = [sum(e.offset for e in L.row(k)) for k in range(1, L.n + 1)]
    mu = [sums[0]] + [sums[k] - sums[k - 1] for k in range(1, L.n)]
    if L.n > 1 and rng.random() < 0.6:
        i, j = rng.sample(range(L.n), 2)
        mu[i] += 1
        mu[j] -= 1
    roll = rng.random()
    if roll < 0.05:
        mu[0] += 1
    elif roll < 0.1:
        mu = mu[:-1]
    return mu


def random_case(rng):
    """A relation set and a base: random arcs, or a standard family."""
    n = rng.randint(2, 5)
    width = 2 if n == 5 else 3
    if rng.random() < 0.7:
        C = random_arcs_set(rng, n)
    else:
        C = standard_set(n, rng.randint(1, n), rng.choice(("plus", "minus", "both", "empty")))
    return C, random_base(rng, C, width)


def outcome(enumerate_fn, *args):
    try:
        return list(enumerate_fn(*args).points)
    except RelpolyError as exc:
        return type(exc).__name__, str(exc)


def assert_same_outcome(got, want, context):
    """The same error, or the same points: equal as text and as Patterns,
    with equal hashes, Entry components and a working pickle round trip."""
    assert type(got) is type(want), context
    if isinstance(want, tuple):
        assert got == want, context
        return
    assert [str(P) for P in got] == [str(Q) for Q in want], context
    for P, Q in zip(got, want):
        assert P == Q and hash(P) == hash(Q), context
        assert all(type(e) is Entry for e in P.entries), context
        R = pickle.loads(pickle.dumps(P))
        assert R == P and hash(R) == hash(P) and str(R) == str(P), context


def test_enumerate_integral_matches_reference():
    rng = random.Random(4046)
    kinds = {"points": 0, "raised": 0}
    for _ in range(300):
        C, L = random_case(rng)
        got = outcome(enumerate_integral, C, L)
        assert_same_outcome(got, outcome(reference_enumerate_integral, C, L),
                            (C, str(L)))
        kinds["raised" if isinstance(got, tuple) else "points"] += 1
        if isinstance(got, list):
            assert count_integral(C, L) == len(got)
            assert first_points(C, L, 2) == (len(got), tuple(got[:2]))
    assert min(kinds.values()) >= 30, kinds


def moved_base(X, kind):
    """X as it is ("int"), with every entry moved by a third ("frac"), or
    with every entry made sqrt2 plus its value ("sqrt"): arc differences
    are kept, so X's relation set is still satisfied."""
    move = {"int": lambda e: e, "frac": lambda e: e.add(Fraction(1, 3)),
            "sqrt": lambda e: Entry.sqrt(2, e.offset)}[kind]
    return Pattern.from_rows([[move(e) for e in X.row(k)] for k in range(X.n, 0, -1)])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_walk_matches_the_reference_at_each_n(n):
    # The walk takes each row 2's children in its leaf loop: n = 1 has no
    # row 2, at n = 2 the top row is row 2, and from n = 3 on the stack
    # holds the rows above.  The cyclic set ties each column-1 entry to the
    # one above it both ways.
    rng = random.Random(4049 + n)
    both = standard_set(n, 1, "both")
    cyclic = RelationSet(n, list(both) + [((k, 1), (k + 1, 1)) for k in range(1, n)])
    sizes = Counter()
    for C in (both, cyclic):
        for kind in ("int", "frac", "sqrt"):
            for _ in range(3):
                L = moved_base(random_c_pattern(rng, C, 2 if n == 5 else 3), kind)
                walk = _walk(L, _row_map(C, L))
                assert isgenerator(walk)
                got = list(walk)
                assert_same_outcome(got, list(reference_enumerate_integral(C, L).points),
                                    (C, str(L)))
                for P in got:
                    for e in P.entries:
                        assert_int_iff_integral(e)
                sizes[len(got) > 1] += 1
    assert sizes[True] >= (0 if n == 1 else 6), sizes


def traced_peak(f):
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_row_map_memory_stays_with_the_rows_in_use():
    # The n = 7 staircase has 3**21 points.  The row map keeps no rows, so
    # counting them, or listing the first three, holds about one level of
    # rows at a time, not every edge of the row DAG.
    lam = (12, 10, 8, 6, 4, 2, 0)
    C, L = standard_set(7, 1, "both"), gt_base(lam)
    assert count_integral(C, L) == weyl_dim(lam) == 3 ** 21
    assert traced_peak(lambda: count_integral(C, L)) <= 2 * 10 ** 6
    assert traced_peak(lambda: first_points(C, L, 3)) <= 2 * 10 ** 6
    count, points = first_points(C, L, 3)
    assert count == 3 ** 21 and len(points) == 3
    # The least point has every row at its lowest: row k holds lam's last k.
    assert points[0] == Pattern.from_rows([lam[7 - k:] for k in range(7, 0, -1)])
    keys = [P.offsets_key() for P in points]
    assert keys == sorted(set(keys)) and all(satisfies(C, P) for P in points)


def open_entry_case(rng):
    """C1 "both" at n = 4 or 5 without both lower arcs of one entry i >= 2
    of a row m >= 3 and both upper arcs of another, and now and then without
    another arc: two bounds of row m stay open on opposite sides (one arc
    dropped per side leaves a path through row m - 1 that bounds it), so
    the weight slice is unbounded at an entry past the first."""
    n = rng.choice((4, 5))
    m = rng.randint(3, n - 1)
    a, b = rng.sample(range(2, m + 1), 2)
    dropped = {((m, a), (m + 1, a + 1)), ((m, a), (m - 1, a)),
               ((m + 1, b), (m, b)), ((m - 1, b - 1), (m, b))}
    C = RelationSet(n, [arc for arc in standard_set(n, 1, "both")
                        if arc not in dropped and rng.random() >= 0.05])
    return C, random_base(rng, C, 2)


def weight_cases(rng, make_case, count):
    for _ in range(count):
        C, L = make_case(rng)
        yield C, L, random_weight(rng, L)


def test_enumerate_integral_weight_matches_reference():
    kinds = {"points": 0, "raised": 0, "open past entry 1": 0}
    for C, L, mu in chain(weight_cases(random.Random(4047), random_case, 300),
                          weight_cases(random.Random(4048), open_entry_case, 60)):
        got = outcome(enumerate_integral_weight, C, L, mu)
        assert_same_outcome(
            got, outcome(reference_enumerate_integral_weight, C, L, mu), (C, str(L), mu)
        )
        kinds["raised" if isinstance(got, tuple) else "points"] += 1
        if isinstance(got, list):
            assert count_integral_weight(C, L, mu) == len(got)
            assert first_points(C, L, 2, mu) == (len(got), tuple(got[:2]))
        elif re.fullmatch(r"no finite search interval for coordinate \(\d+, [2-9]\)",
                          got[1]):
            kinds["open past entry 1"] += 1
    assert min(kinds.values()) >= 30, kinds


LADDER = ((1, 0), (2, 1, 0), (1, 1, 0), (2, 1, 1, 0), (3, 2, 1, 0),
          (4, 3, 2, 1, 0), (6, 4, 2, 1, 0))


@pytest.mark.parametrize("lam", LADDER)
def test_count_integral_matches_enumeration(lam):
    C = standard_set(len(lam), 1, "both")
    L = gt_base(lam)
    points = enumerate_integral(C, L).points
    assert count_integral(C, L) == len(points) == weyl_dim(lam)
    for P in points[::max(1, len(points) // 12)]:
        mu = weight_vector(P)
        assert count_integral_weight(C, L, mu) == \
            len(enumerate_integral_weight(C, L, mu).points)


def test_count_integral_weight_slices_sum_to_dimension():
    C = standard_set(3, 1, "both")
    L = gt_base((2, 1, 0))
    weights = {weight_vector(P) for P in enumerate_integral(C, L).points}
    assert sum(count_integral_weight(C, L, mu) for mu in weights) == 8
    assert count_integral_weight(C, L, [1, 1, 1]) == 2


def test_weight_off_the_lattice_has_no_points():
    # Moving two coordinates of an attained weight by 1/2 keeps its total but
    # gives a row sum that no point below the top row reaches.
    half = Fraction(1, 2)
    for C, L in ((standard_set(3, 1, "both"), gt_base((3, 1, 0))),
                 (standard_set(4, 1, "both"), gt_base((3, 2, 1, 0))),
                 (standard_set(3, 1, "both"), gt_base((half * 5, half * 3, half)))):
        for P in enumerate_integral(C, L).points[::3]:
            mu = list(weight_vector(P))
            for i, j in ((0, 1), (1, C.n - 1), (C.n - 1, 0)):
                moved = list(mu)
                moved[i] += half
                moved[j] -= half
                assert enumerate_integral_weight(C, L, moved).points == ()
                assert count_integral_weight(C, L, moved) == 0
                assert reference_enumerate_integral_weight(C, L, moved).points == ()


def test_kostka_numbers_are_symmetric():
    # The weight multiplicity does not change when mu is permuted.
    C = standard_set(5, 1, "both")
    L = gt_base((6, 4, 2, 1, 0))
    counts = {count_integral_weight(C, L, mu) for mu in permutations((4, 1, 3, 2, 3))}
    assert counts == {28}


def test_count_integral_beyond_enumeration():
    lam = (10, 8, 6, 4, 2, 0)
    assert count_integral(standard_set(6, 1, "both"), gt_base(lam)) == \
        weyl_dim(lam) == 14348907


def test_count_integral_errors():
    with pytest.raises(Unbounded):
        count_integral(standard_set(3, 1, "plus"), gt_base((2, 1, 0)))
    with pytest.raises(UnboundedWeightSlice):
        count_integral_weight(standard_set(4, 3, "both"), gt_base((2, 1, 0, 0)),
                              [1, 1, 1, 0])


FIRST_POINTS_CASES = {
    "int": (standard_set(4, 1, "both"), gt_base((3, 2, 1, 0)), None),
    "frac": (standard_set(4, 1, "both"), moved_base(gt_base((3, 2, 1, 0)), "frac"), None),
    "sqrt": (standard_set(3, 1, "both"), moved_base(gt_base((4, 2, 0)), "sqrt"), None),
    "n1": (standard_set(1, 1, "both"), gt_base((5,)), None),
    "slice": (standard_set(5, 1, "both"), gt_base((4, 3, 2, 1, 0)), (2, 2, 2, 2, 2)),
    "C1+ slice": (standard_set(3, 1, "plus"), gt_base((2, 1, 0)), (0, 1, 2)),
    "empty slice": (standard_set(2, 1, "both"), gt_base((1, 0)), (-1, 2)),
}


@pytest.mark.parametrize("case", sorted(FIRST_POINTS_CASES))
def test_first_points_counts_from_the_walk_when_it_runs_out(monkeypatch, case):
    C, L, mu = FIRST_POINTS_CASES[case]
    if mu is None:
        count, full = count_integral(C, L), enumerate_integral(C, L).points
    else:
        count, full = count_integral_weight(C, L, mu), enumerate_integral_weight(C, L, mu).points
    assert count == len(full)
    counted = []
    count_paths = polyhedra._count
    monkeypatch.setattr(polyhedra, "_count", lambda *a: counted.append(a) or count_paths(*a))
    for limit in sorted({None, 0, 1, count - 1, count, count + 1} - {-1}, key=str):
        counted.clear()
        assert first_points(C, L, limit, mu) == (count, full[:limit]), limit
        # Only a limit that cuts the walk (or stops it on its last point)
        # leaves the count to a second pass.
        assert len(counted) == (limit is not None and limit <= count), limit


def test_first_points_open_weight_slice_raises_as_the_count_does():
    C, L, mu = standard_set(4, 3, "both"), gt_base((2, 1, 0, 0)), [1, 1, 1, 0]
    with pytest.raises(UnboundedWeightSlice) as want:
        count_integral_weight(C, L, mu)
    for limit in (None, 0, 1, 5):
        with pytest.raises(UnboundedWeightSlice) as got:
            first_points(C, L, limit, mu)
        assert str(got.value) == str(want.value), limit


def test_weight_slice_reads_spans_through_lower_rows():
    # x_21 >= x_11 >= x_22 >= x_33: the lower bound of x_21 comes only
    # through row 1, so the slice needs x_21's span as well as the arcs to
    # row 3.
    C = parse_relations("n 3\n1 1 -> 2 2\n2 1 -> 1 1\n2 2 -> 3 3\n3 1 -> 2 1\n")
    L, mu = parse_pattern("3 3 0\n0 0\n0\n"), (1, 3, 2)
    assert [str(P) for P in enumerate_integral_weight(C, L, mu).points] == \
        ["3 3 0 | 3 1 | 1"]
    assert count_integral_weight(C, L, mu) == 1


def bounded_recipe_sets(seed=7, draws=2000):
    """Bounded relation sets with a base: C1 "both" with each arc dropped at
    probability 1/4, plus up to n random arcs between adjacent rows, at
    n = 3..5, each set over a random C-pattern."""
    rng = random.Random(seed)
    for _ in range(draws):
        n = rng.randint(3, 5)
        arcs = [arc for arc in standard_set(n, 1, "both") if rng.random() >= 0.25]
        for _ in range(rng.randint(0, n)):
            k = rng.randint(2, n)
            up, low = (k, rng.randint(1, k)), (k - 1, rng.randint(1, k - 1))
            arcs.append((up, low) if rng.random() < 0.5 else (low, up))
        C = RelationSet(n, arcs)
        if is_polytope(C).bounded:
            yield C, random_c_pattern(rng, C, 3)


def test_weight_slices_of_bounded_sets_partition_the_points():
    sets = slices = 0
    for C, L in bounded_recipe_sets():
        by_weight = {}
        for P in enumerate_integral(C, L).points:
            by_weight.setdefault(weight_vector(P), []).append(P)
        for mu, want in by_weight.items():
            got = enumerate_integral_weight(C, L, mu).points
            assert list(got) == want, (C, str(L), mu)
            assert count_integral_weight(C, L, mu) == len(want)
            assert first_points(C, L, 2, mu) == (len(want), tuple(want[:2]))
        sets += 1
        slices += len(by_weight)
    assert sets >= 300 and slices >= 1500, (sets, slices)


def test_enumerate_integral_n46_constant_pattern():
    # The rows are walked without recursion, so the depth does not grow
    # with the n(n-1)/2 vertices below the top row.  Boundedness and the
    # row spans relax the arcs, so neither builds C.reach.
    C = standard_set(46, 1, "both")
    X = constant_pattern(46)
    assert first_points(C, X, None) == (1, (X,))
    assert is_polytope(C).bounded
    assert "reach" not in vars(C)
    assert [str(P) for P in enumerate_integral(C, X).points] == [str(X)]
    assert count_integral(C, X) == 1

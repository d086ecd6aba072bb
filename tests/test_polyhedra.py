"""Constraint systems, boundedness, integral-point enumeration, rank oracle."""

import ast
import pickle
import random
from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import ceil, floor
from pathlib import Path

import pytest

from relpoly.errors import (
    Infeasible,
    NonRationalWeight,
    NotSatisfying,
    RelpolyError,
    Unbounded,
    UnboundedWeightSlice,
    WeightMismatch,
)
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
    _certificates,
    _relation_bounds,
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
from relpoly.relations import RelationSet, connected_components, standard_set
from relpoly.selftest import random_c_pattern
from relpoly.tiling import kernel, kernel_dim, min_face_dims, tiling_matrix
from test_relations import random_relation_set

SRC = Path(__file__).resolve().parents[1] / "src" / "relpoly"


def gt_base(lam):
    """Highest-weight base pattern: row k holds the first k entries of lam."""
    n = len(lam)
    return Pattern.from_rows([list(lam[:k]) for k in range(n, 0, -1)])


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


def test_enumerate_integral_counts():
    C = standard_set(3, 1, "both")
    pts = enumerate_integral(C, gt_base((2, 1, 0))).points
    assert len(pts) == 8
    C2 = standard_set(2, 1, "both")
    assert len(enumerate_integral(C2, gt_base((1, 0))).points) == 2
    assert len(enumerate_integral(C2, gt_base((0, 0))).points) == 1


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


def test_enumerate_weight_empty_slice_ok():
    C = standard_set(2, 1, "both")
    pts = enumerate_integral_weight(C, gt_base((1, 0)), [-1, 2]).points
    assert pts == ()


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


def reference_face_dim_oracle(system, X):
    """face_dim_oracle on dense rows, with the rank read off the rref."""
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
            if X[(n, r)] != system.eq_top[r - 1]:
                raise Infeasible(f"top-row pin violated at column {r}")
    if system.eq_weights is not None:
        if weight_vector(X) != system.eq_weights:
            raise Infeasible("weight pins violated")
    zero = Entry.rational(0)
    for src, dst in system.inequalities:
        if X[src] == X[dst]:
            row = [0] * ncols
            row[coord_index(n, src)] += 1
            row[coord_index(n, dst)] -= 1
            rows.append(row)
        elif cmp_entries(X[src], X[dst]) < 0:
            raise Infeasible(f"inequality {src} >= {dst} violated")
    for v in system.nonneg:
        if X[v] == zero:
            row = [0] * ncols
            row[coord_index(n, v)] = 1
            rows.append(row)
        elif cmp_entries(X[v], zero) < 0:
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


def test_kernel_dim_on_random_relation_sets():
    for C, X, _ in random_set_cases():
        A = tiling_matrix(C, X)
        assert kernel_dim(A) == len(kernel(A)), (C, X)


def test_oracle_imports_nothing_from_tiling():
    """The oracle checks the tile counts, so it must not borrow the tile code."""
    tiling = ast.parse((SRC / "tiling.py").read_text())
    tiling_names = {node.name for node in tiling.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert {"compute_tiling", "kernel_dim", "min_face_dims"} <= tiling_names
    for module in ("polyhedra.py", "linalg.py"):
        for node in ast.walk(ast.parse((SRC / module).read_text())):
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


def reference_enumerate_integral(C, L):
    """Backtracking over the vertices below the top row, one at a time."""
    if not satisfies(C, L):
        raise NotSatisfying("base pattern does not satisfy the relation set")
    report = is_polytope(C)
    if not report.bounded:
        raise Unbounded(
            f"no finite enumeration: unbounded at {report.unbounded_coordinates}"
        )
    ubs, lbs = _certificates(C)
    uppers, lowers = _relation_bounds(C)
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
    and per-row intervals from the assigned rows."""
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
    uppers, lowers = _relation_bounds(C)
    partial = {(C.n, r): L[(C.n, r)] for r in range(1, C.n + 1)}
    results = []

    def row_intervals(k, assigned):
        target = sum(mu[:k])
        los, his = {}, {}
        for i in range(1, k + 1):
            v = (k, i)
            lo, hi = None, None
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


def test_enumerate_integral_weight_matches_reference():
    rng = random.Random(4047)
    kinds = {"points": 0, "raised": 0}
    for _ in range(300):
        C, L = random_case(rng)
        mu = random_weight(rng, L)
        got = outcome(enumerate_integral_weight, C, L, mu)
        assert_same_outcome(
            got, outcome(reference_enumerate_integral_weight, C, L, mu), (C, str(L), mu)
        )
        kinds["raised" if isinstance(got, tuple) else "points"] += 1
        if isinstance(got, list):
            assert count_integral_weight(C, L, mu) == len(got)
            assert first_points(C, L, 2, mu) == (len(got), tuple(got[:2]))
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


def test_enumerate_integral_n46_constant_pattern():
    # The rows are walked without recursion, so the depth does not grow
    # with the n(n-1)/2 vertices below the top row.
    C = standard_set(46, 1, "both")
    X = constant_pattern(46)
    assert [str(P) for P in enumerate_integral(C, X).points] == [str(X)]
    assert count_integral(C, X) == 1

"""Constraint systems, boundedness, lattice-point enumeration, and the
active-constraint face-dimension oracle.

The oracle computes the dimension of the minimal face containing a point as
the nullity of the matrix stacking all equality rows and the inequality rows
tight at the point, by exact fraction-free elimination of its 0/+-1 integer
rows.  It is the independent check for the tile-counting formulas.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor

from . import linalg
from .errors import (
    Infeasible,
    NonRationalWeight,
    NotSatisfying,
    Unbounded,
    UnboundedWeightSlice,
    WeightMismatch,
)
from .patterns import (
    Entry,
    Pattern,
    cmp_entries,
    coord_index,
    row_sum,
    satisfies,
    weight_vector,
)
from .relations import _reach_sets, support, vertices


@dataclass(frozen=True)
class ConstraintSystem:
    n: int
    inequalities: tuple  # (src, dst) meaning x_src - x_dst >= 0
    nonneg: tuple = ()  # vertices with x_v >= 0
    eq_top: tuple = None  # Entries pinning the top row
    eq_weights: tuple = None  # rationals pinning w_k for all k


@dataclass(frozen=True)
class BoundednessReport:
    bounded: bool
    unbounded_coordinates: tuple = ()


@dataclass(frozen=True)
class IntegralPointSet:
    base: Pattern
    points: tuple


def assemble(C, lam=None, mu=None, plus=False):
    """Translate a relation set (with optional row/weight pins) to constraints."""
    if mu is not None and lam is None:
        raise ValueError("mu requires lam")
    eq_top = None
    if lam is not None:
        eq_top = tuple(Entry.rational(x) for x in lam)
        if len(eq_top) != C.n:
            raise ValueError(f"lam must have length {C.n}")
    eq_weights = None
    if mu is not None:
        eq_weights = tuple(Fraction(x) for x in mu)
        if len(eq_weights) != C.n:
            raise ValueError(f"mu must have length {C.n}")
    nonneg = tuple(sorted(support(C))) if plus else ()
    return ConstraintSystem(C.n, C.relations, nonneg, eq_top, eq_weights)


def system_at(C, X, which, plus=False):
    """Constraint system for one of "pc", "lambda", "mu" with pins read off X."""
    if which == "pc":
        return assemble(C, plus=plus)
    lam = X.row(C.n)
    if which == "lambda":
        return assemble(C, lam, plus=plus)
    if which == "mu":
        return assemble(C, lam, weight_vector(X), plus=plus)
    raise ValueError(f"unknown system kind {which!r}")


def _certificates(C):
    """Per vertex: top-row columns bounding it from above and from below."""
    reach = _reach_sets(C)
    ubs, lbs = {}, {}
    for v in vertices(C.n):
        ubs[v] = [r for r in range(1, C.n + 1) if v in reach[(C.n, r)]]
        lbs[v] = [r for r in range(1, C.n + 1) if (C.n, r) in reach[v]]
    return ubs, lbs


def is_polytope(C, lam=None):
    """Bounded iff every vertex below the top row has both certificates."""
    ubs, lbs = _certificates(C)
    missing = tuple(
        v for v in vertices(C.n) if v[0] < C.n and (not ubs[v] or not lbs[v])
    )
    return BoundednessReport(not missing, missing)


def _relation_bounds(C):
    """Per vertex, neighbors that bound it: (uppers, lowers) vertex lists."""
    uppers = {v: [] for v in vertices(C.n)}
    lowers = {v: [] for v in vertices(C.n)}
    for src, dst in C:
        uppers[dst].append(src)  # x_dst <= x_src
        lowers[src].append(dst)  # x_src >= x_dst
    return uppers, lowers


def enumerate_integral(C, L):
    """All points of the top-row slice differing from L by integers below the
    top row, in deterministic lexicographic order."""
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
        """Integer offsets t with lb <= l_v + t <= ub certifiable (superset)."""
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


def enumerate_integral_weight(C, L, mu):
    """Points of the weight slice: row sums pinned, enumerated row by row."""
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
        """Finite rational (lo, hi) per entry of row k, or raise."""
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


def _equality_rows(system):
    n = system.n
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
            if k > 1:
                for i in range(1, k):
                    row[coord_index(n, (k - 1, i))] = -1
            rows.append(row)
    return rows


def face_dim_oracle(system, X):
    """Dimension of the minimal face of the system's polyhedron containing X.

    Stacks every equality row and every inequality row tight at X, and
    returns the nullity of the stack.  Raises Infeasible when X violates the
    system.
    """
    n = system.n
    if X.n != n:
        raise Infeasible(f"pattern has n={X.n}, system has n={n}")
    ncols = n * (n + 1) // 2
    rows = _equality_rows(system)
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
    return ncols - linalg.rank(rows, ncols)

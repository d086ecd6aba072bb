"""Constraint systems, boundedness, lattice-point enumeration, and the
active-constraint face-dimension oracle.

The oracle computes the dimension of the minimal face containing a point as
the nullity of the matrix stacking all equality rows and the inequality rows
tight at the point, by exact fraction-free elimination of its 0/+-1 integer
rows, built sparse as {column: +-1}.  It is the independent check for the
tile-counting formulas.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product
from math import floor

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
from .relations import support, vertices


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
    reach = C.reach
    ubs, lbs = {}, {}
    for v in vertices(C.n):
        ubs[v] = [r for r in range(1, C.n + 1) if v in reach[(C.n, r)]]
        lbs[v] = [r for r in range(1, C.n + 1) if (C.n, r) in reach[v]]
    return ubs, lbs


def _uncertified(C, ubs, lbs):
    """Vertices below the top row that lack a certificate."""
    return tuple(
        v for v in vertices(C.n) if v[0] < C.n and (not ubs[v] or not lbs[v])
    )


def is_polytope(C):
    """Bounded iff every vertex below the top row has both certificates."""
    missing = _uncertified(C, *_certificates(C))
    return BoundednessReport(not missing, missing)


def _relation_bounds(C):
    """Per vertex, neighbors that bound it: (uppers, lowers) vertex lists."""
    uppers = {v: [] for v in vertices(C.n)}
    lowers = {v: [] for v in vertices(C.n)}
    for src, dst in C:
        uppers[dst].append(src)  # x_dst <= x_src
        lowers[src].append(dst)  # x_src >= x_dst
    return uppers, lowers


def _arcs_above(C):
    """Per row k >= 2, per entry i of row k-1: the positions in row k of the
    entries with an arc to (k-1, i), and of those with an arc from it."""
    uppers, lowers = _relation_bounds(C)
    return {
        k: [([u[1] - 1 for u in uppers[(k - 1, i)] if u[0] == k],
             [w[1] - 1 for w in lowers[(k - 1, i)] if w[0] == k])
            for i in range(1, k)]
        for k in range(2, C.n + 1)
    }


def _rows_below(C, fill):
    """The map (k, row k) -> the rows k-1 compatible with row k, in rising
    order, memoised for one call.

    A row is the tuple of the floors of its entries' offsets.  Below the top
    row a point differs from L by integers, and satisfies(C, L) gives the two
    ends of each arc the same label and fractional part, so these ints fix
    the point, and an arc holds iff the floor at its source is at least the
    floor at its target.  No arc joins two entries of a row below the top,
    so fill(k, los, his) makes the rows k-1 from the bounds that the arcs to
    row k put on each entry, None where no arc bounds a side.  Arcs between
    rows k-1 and k-2 are checked when row k-2 is built; arcs inside the top
    row are the caller's to check.
    """
    arcs = _arcs_above(C)
    memo = {}

    def below(k, row):
        rows = memo.get((k, row))
        if rows is None:
            los, his = [], []
            for up_at, low_at in arcs[k]:
                his.append(min([row[j] for j in up_at], default=None))
                los.append(max([row[j] for j in low_at], default=None))
            rows = memo[(k, row)] = fill(k, los, his)
        return rows

    return below


def _top_row(L):
    """L's top row as a row of the row map."""
    return tuple(floor(e.offset) for e in L.row(L.n))


def _walk(L, below):
    """Every point, in offsets_key order: rows are chosen top-down and each
    row rises.  Iterative, with a stack of at most n - 1 rows.  Each Entry is
    built once per vertex and floor, and each point once, from Entries."""
    n = L.n
    top = tuple(L.row(n))
    if n == 1:
        yield Pattern(n, top)
        return
    cells, made, kids = {}, {}, {}

    def entries(k, row):
        """The Entries of row k, each built once per vertex and floor."""
        ents = made.get((k, row))
        if ents is None:
            out = []
            for i, y in enumerate(row, 1):
                e = cells.get((k, i, y))
                if e is None:
                    base = L[(k, i)]
                    e = cells[(k, i, y)] = base.add(y - floor(base.offset))
                out.append(e)
            ents = made[(k, row)] = tuple(out)
        return ents

    def children(k, row):
        """below(k, row), each row paired with its Entries."""
        out = kids.get((k, row))
        if out is None:
            out = kids[(k, row)] = [(r, entries(k - 1, r)) for r in below(k, row)]
        return out

    stack = [(top, iter(children(n, _top_row(L))))]
    while stack:
        prefix, rows = stack[-1]
        step = next(rows, None)
        if step is None:
            stack.pop()
        elif len(stack) == n - 1:
            yield Pattern._from_entries(n, prefix + step[1])
        else:
            stack.append((prefix + step[1],
                          iter(children(n - len(stack), step[0]))))


def _count(L, below):
    """Number of paths through the rows, counted level by level."""
    level = {_top_row(L): 1}
    for k in range(L.n, 1, -1):
        ways_below = {}
        for row, ways in level.items():
            for r in below(k, row):
                ways_below[r] = ways_below.get(r, 0) + ways
        level = ways_below
    return sum(level.values())


def _integral_rows(C, L):
    """Check that C and L enumerate, and return the row map of their points.

    Each vertex below the top row gets its range of floors once, from the
    top-row columns that certify its bounds: the arcs of a path keep label
    and fractional part, so the floors along it fall too."""
    if not satisfies(C, L):
        raise NotSatisfying("base pattern does not satisfy the relation set")
    ubs, lbs = _certificates(C)
    missing = _uncertified(C, ubs, lbs)
    if missing:
        raise Unbounded(f"no finite enumeration: unbounded at {missing}")
    top = _top_row(L)
    spans = {
        k: [(max(top[r - 1] for r in lbs[(k - 1, i)]),
             min(top[r - 1] for r in ubs[(k - 1, i)]))
            for i in range(1, k)]
        for k in range(2, C.n + 1)
    }

    def fill(k, los, his):
        return list(product(*(
            range(a if lo is None or lo < a else lo,
                  (b if hi is None or hi > b else hi) + 1)
            for (a, b), lo, hi in zip(spans[k], los, his)
        )))

    return _rows_below(C, fill)


def _weight_rows(C, L, mu):
    """Check that C, L and mu give a weight slice, and return the row map of
    its points.

    The floors of row m = k-1 sum to its sum in mu less the fractional parts
    of L's row m, and a sum that is not an integer leaves no rows.  Their
    intervals are the bounds from the arcs to row k, tightened by that sum
    until they settle.  Raises UnboundedWeightSlice at the first row reached
    where one stays open."""
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
    targets = {}
    for m in range(1, C.n):
        target = sum(mu[:m]) - sum(e.offset - floor(e.offset) for e in L.row(m))
        # Not an int when no row m sums to it.
        targets[m] = target.numerator if target.denominator == 1 else target

    def fill(k, los, his):
        m = k - 1
        target = targets[m]
        for _ in range(m + 1):
            changed = False
            for i in range(m):
                others_lo = los[:i] + los[i + 1:]
                others_hi = his[:i] + his[i + 1:]
                if all(x is not None for x in others_lo):
                    cap = target - sum(others_lo)
                    if his[i] is None or cap < his[i]:
                        his[i] = cap
                        changed = True
                if all(x is not None for x in others_hi):
                    cap = target - sum(others_hi)
                    if los[i] is None or cap > los[i]:
                        los[i] = cap
                        changed = True
            if not changed:
                break
        for i in range(m):
            if los[i] is None or his[i] is None:
                raise UnboundedWeightSlice(
                    f"no finite search interval for coordinate {(m, i + 1)}"
                )
        if not isinstance(target, int):
            return []
        lo_last, hi_last = los.pop(), his.pop()
        rows = []
        for head in product(*map(range, los, [hi + 1 for hi in his])):
            y = target - sum(head)
            if lo_last <= y <= hi_last:
                rows.append(head + (y,))
        return rows

    return _rows_below(C, fill)


def enumerate_integral(C, L):
    """All points of the top-row slice differing from L by integers below the
    top row, in deterministic lexicographic order."""
    return IntegralPointSet(L, tuple(_walk(L, _integral_rows(C, L))))


def enumerate_integral_weight(C, L, mu):
    """Points of the weight slice: row sums pinned, enumerated row by row."""
    return IntegralPointSet(L, tuple(_walk(L, _weight_rows(C, L, mu))))


def count_integral(C, L):
    """len(enumerate_integral(C, L).points), without building the points."""
    return _count(L, _integral_rows(C, L))


def count_integral_weight(C, L, mu):
    """len(enumerate_integral_weight(C, L, mu).points), without building the
    points."""
    return _count(L, _weight_rows(C, L, mu))


def first_points(C, L, limit, mu=None):
    """(count, points): the number of points that enumerate_integral(C, L)
    lists, or with mu enumerate_integral_weight(C, L, mu), and the first
    limit of them (all with limit None), in the same order.  The count and
    the points share one row map, and no later point is built."""
    below = _integral_rows(C, L) if mu is None else _weight_rows(C, L, mu)
    return _count(L, below), tuple(islice(_walk(L, below), limit))


def _equality_rows(system):
    n = system.n
    rows = []
    if system.eq_top is not None:
        rows += [{coord_index(n, (n, r)): 1} for r in range(1, n + 1)]
    if system.eq_weights is not None:
        for k in range(1, n + 1):
            row = {coord_index(n, (k, i)): 1 for i in range(1, k + 1)}
            row.update((coord_index(n, (k - 1, i)), -1) for i in range(1, k))
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
            rows.append({coord_index(n, src): 1, coord_index(n, dst): -1})
        elif cmp_entries(X[src], X[dst]) < 0:
            raise Infeasible(f"inequality {src} >= {dst} violated")
    for v in system.nonneg:
        if X[v] == zero:
            rows.append({coord_index(n, v): 1})
        elif cmp_entries(X[v], zero) < 0:
            raise Infeasible(f"nonnegativity violated at {v}")
    return ncols - linalg.sparse_rank(rows)

"""Constraint systems, boundedness, lattice-point enumeration, and the
active-constraint face-dimension oracle.

The oracle computes the dimension of the minimal face containing a point as
the nullity of the matrix stacking all equality rows and the inequality rows
tight at the point, by exact fraction-free elimination of its 0/+-1 integer
rows, built sparse as {column: +-1}.  It pins the weights by the row sums
R_k = w_1 + ... + w_k, k entries of +1 each, which span the same rows as the
pins w_k = R_k - R_{k-1}.  A pinned top row adds n to the rank and its
columns are substituted out of the other rows, and the rows reach the one
forward pass, linalg._echelon, from the top row down, which keeps its pivot
chains short.  An inequality whose two entries are unlabeled is
tested on their exact offsets with == and <; labeled pairs go through Entry
equality and cmp_entries.  It is the independent check for the
tile-counting formulas, and shares none of their code: its tight-arc loop is
its own, not patterns.tight_arcs, and it reads no union-find.
"""

import gc
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
    row_starts,
    row_sum,
    satisfies,
    weight_vector,
)
from .relations import _bounds, support


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
        eq_weights = tuple(x if x.__class__ is Fraction else Fraction(x) for x in mu)
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


def is_polytope(C):
    """Bounded iff every vertex below the top row reaches a top-row vertex and
    is reached from one."""
    bounds = _bounds(C, {(C.n, r): 0 for r in range(1, C.n + 1)})
    missing = tuple(v for v, b in bounds.items() if None in b)
    return BoundednessReport(not missing, missing)


def _arcs_above(C):
    """Per row k >= 2, per entry i of row k-1: the positions in row k of the
    entries with an arc to (k-1, i), and of those with an arc from it."""
    arcs = {k: [([], []) for _ in range(k - 1)] for k in range(2, C.n + 1)}
    for (k, a), (j, b) in C:
        if k == j + 1:  # x_(k, a) >= x_(k-1, b)
            arcs[k][b - 1][0].append(a - 1)
        elif j == k + 1:  # x_(j-1, a) >= x_(j, b)
            arcs[j][a - 1][1].append(b - 1)
    return arcs


def _top_row(L):
    """L's top row as a row of the row map."""
    return tuple(floor(e.offset) for e in L.row(L.n))


def _walk(L, below):
    """Every point, lazily, in offsets_key order: rows are chosen top-down
    and each row rises.  Iterative, with a stack of the rows from the top
    down to row 3 (the top row alone when n <= 3).  Each row 3 is completed
    once: its tails, one per row 2 below it, pair that row 2's Entries with
    its children, and the first visit keeps each tail as it gives it out.
    A row 3 reached again, from another row 4, loops over its kept tails
    with no stack step and no call to below, and a walk cut short has kept
    no tail past its last point's row 2.  A tail refers only to rows the
    walk keeps anyway, so the kept tails are one pair per row 2 below each
    row 3 reached, and nothing is kept per row 4.  Each Entry is built once
    per vertex and floor, each row's Entries and children once per row
    reached, and each point once, from Entries, without the Pattern
    constructor."""
    n = L.n
    top = tuple(L.row(n))
    cells, made, kids, tails = {}, {}, {}, {}

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

    def tails_of(k, row, kept):
        """The tails of row k <= 3, lazily, each added to kept as it is given
        out.  A tail is a row 2's Entries (none when k <= 2) with that row
        2's children; with no row 2 (n = 1) the one child is empty."""
        if k < 3:
            tail = ((), children(2, row) if k == 2 else [((), ())])
            kept.append(tail)
            yield tail
            return
        for r2 in below(3, row):
            tail = (entries(2, r2), children(2, r2))
            kept.append(tail)
            yield tail

    new, set_n, set_entries = object.__new__, Pattern.n.__set__, Pattern.entries.__set__
    # Level s of the stack holds the Entries of the rows above row
    # n + 1 - s and an iterator over that row's choices, each a row with its
    # Entries; level 1 holds the top row alone.  Row `last` is the lowest on
    # the stack: row 3, or the top row when n <= 3.
    last = min(n, 3)
    stack = [((), iter([(_top_row(L), top)]))]
    while stack:
        prefix, rows = stack[-1]
        step = next(rows, None)
        if step is None:
            stack.pop()
            continue
        row, ents = step
        prefix += ents
        k = n + 1 - len(stack)
        if k > last:
            stack.append((prefix, iter(children(k, row))))
            continue
        found = tails.get(row)
        if found is None:
            found = tails_of(k, row, tails.setdefault(row, []))
        for e2, leaves in found:
            head = prefix + e2
            for _, e1 in leaves:
                P = new(Pattern)
                set_n(P, n)
                set_entries(P, head + e1)
                yield P


def _points(L, below, limit=None):
    """The first limit points of _walk(L, below) (all with limit None), as a
    tuple, built with the cyclic garbage collector paused.

    Each point is two tracked objects, the Pattern and its entries tuple,
    that outlive the call, so a collection during the walk traverses them
    again and can free none of them.  The pause is sound because the walk
    makes no reference cycles: a Pattern refers to its tuple of Entries, an
    Entry to ints, Fractions and its label, and the walk's caches and
    closures refer only down to those, so nothing it drops waits for the
    collector.  The pause is process-wide; relpoly starts no threads.  The
    caller's gc.isenabled() state is restored on every exit, an exception
    out of below included."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return tuple(islice(_walk(L, below), limit))
    finally:
        if enabled:
            gc.enable()


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


def _cap(bounds, others, target, tighter):
    """Cap each bound at target less the sum of the others' opposite bounds,
    where none of those is open (None)."""
    known = [x for x in others if x is not None]
    total, n_open = sum(known), len(others) - len(known)
    for i, x in enumerate(others):
        if n_open == (x is None):  # no other opposite bound is open
            cap = target - total + (x or 0)
            bounds[i] = cap if bounds[i] is None else tighter(bounds[i], cap)


def _row_map_and_missing(C, L, mu=None):
    """(below, missing): the map (k, row k) -> the rows k-1 compatible with
    row k, in rising order, of C's points over L's top row (with mu, of its
    weight slice at mu), and the vertices whose span is open on a side.

    A row is the tuple of the floors of its entries' offsets.  Below the top
    row a point differs from L by integers, and satisfies(C, L) gives the two
    ends of each arc the same label and fractional part, so these ints fix
    the point, and an arc holds iff the floor at its source is at least the
    floor at its target; the floors along a path fall too.  So one bound
    table, relaxed once from the floors of L's top row, gives each vertex its
    span: the floors of the top-row entries that it reaches and that reach
    it.  No arc joins two entries of a row below the top, so below cuts each
    entry's span by the arcs to row k, and makes the rows k-1 from those
    intervals.  Arcs between rows k-1 and k-2 are checked when row k-2 is
    built; arcs inside the top row are the caller's to check.  The map keeps
    nothing between calls: _count asks once per distinct row of each level
    and _walk keeps the children it has asked for, so memory stays with the
    rows in use, not with the edges of the row DAG.

    Without mu an open span raises Unbounded here, and the rows are the
    product of the intervals.  With mu the floors of row m = k-1 sum to its
    sum in mu less the fractional parts of L's row m, and a sum that is not
    an integer leaves no rows.  Their intervals are capped by that sum in two
    sweeps: each upper bound from the others' lower bounds, then each lower
    bound from the others' new upper bounds.  More sweeps would only fill a
    bound whose other bound stays open, and the rows are an exact filter, so
    neither the rows nor the open coordinates depend on them.  below raises
    UnboundedWeightSlice at the first row reached with a bound still open."""
    if not satisfies(C, L):
        raise NotSatisfying("base pattern does not satisfy the relation set")
    if mu is not None:
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
    bounds = _bounds(C, {(C.n, r): y for r, y in enumerate(_top_row(L), 1)})
    missing = tuple(v for v, b in bounds.items() if None in b)
    if missing and mu is None:
        raise Unbounded(f"no finite enumeration: unbounded at {missing}")
    cuts = {k: [(bounds[(k - 1, i + 1)], up_at, low_at)
                for i, (up_at, low_at) in enumerate(arcs)]
            for k, arcs in _arcs_above(C).items()}

    def below(k, row):
        los, his = [], []
        for (lo, hi), up_at, low_at in cuts[k]:
            for j in up_at:
                if hi is None or row[j] < hi:
                    hi = row[j]
            for j in low_at:
                if lo is None or row[j] > lo:
                    lo = row[j]
            los.append(lo)
            his.append(hi)
        if mu is None:
            return list(product(*map(range, los, [hi + 1 for hi in his])))
        m = k - 1
        target = targets[m]
        _cap(his, los, target, min)
        _cap(los, his, target, max)
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

    return below, missing


def _row_map(C, L, mu=None):
    """Check that C and L (with mu, its weight slice) enumerate, and return
    the row map of their points."""
    return _row_map_and_missing(C, L, mu)[0]


def enumerate_integral(C, L):
    """All points of the top-row slice differing from L by integers below the
    top row, in deterministic lexicographic order."""
    return IntegralPointSet(L, _points(L, _row_map(C, L)))


def enumerate_integral_weight(C, L, mu):
    """Points of the weight slice: row sums pinned, enumerated row by row."""
    return IntegralPointSet(L, _points(L, _row_map(C, L, mu)))


def count_integral(C, L):
    """len(enumerate_integral(C, L).points), without building the points."""
    return _count(L, _row_map(C, L))


def count_integral_weight(C, L, mu):
    """len(enumerate_integral_weight(C, L, mu).points), without building the
    points."""
    return _count(L, _row_map(C, L, mu))


def _first_points(L, below, limit):
    """first_points over the row map below."""
    points = _points(L, below, limit)
    if limit is None or len(points) < limit:
        return len(points), points
    return _count(L, below), points


def first_points(C, L, limit, mu=None):
    """(count, points): the number of points that enumerate_integral(C, L)
    lists, or with mu enumerate_integral_weight(C, L, mu), and the first
    limit of them (all with limit None), in the same order.

    The walk runs first.  When it runs out (limit None, or fewer points than
    limit) the count is the number of points it built; only when limit cuts
    it does a second pass count the paths through the same row map.  The
    map keeps no rows, and no point after the limit is built, so a small
    limit takes memory for the rows of a level or two, not for the points or
    the edges between rows.  A weight slice whose bound stays open after the
    spans and the caps raises the same UnboundedWeightSlice either way:
    whether a bound is open depends on the level alone, and both passes
    reach the levels from the top down."""
    return _first_points(L, _row_map(C, L, mu), limit)


def face_dim_oracle(system, X):
    """Dimension of the minimal face of the system's polyhedron containing X.

    Stacks every equality row and every inequality row tight at X, and
    returns the nullity of the stack.  Raises Infeasible when X violates the
    system, at the first violation in the order pins, weights, inequalities,
    nonnegativity.

    With the top row pinned, its n unit rows give n to the rank, and their
    columns, the first n, are substituted out of every other row: a row
    left empty (R_n, a tight arc between two top entries, a nonneg row on
    the top row) is dropped, and an arc from the top row keeps its one
    other entry.  The rows go to the forward pass from the top row down,
    the built list reversed, since the relations are sorted by source; the
    rank does not depend on the order, but the pivot chains do.
    """
    n = system.n
    if X.n != n:
        raise Infeasible(f"pattern has n={X.n}, system has n={n}")
    ncols = n * (n + 1) // 2
    rows = []
    ents, starts = X.entries, row_starts(n)
    # The columns below `pinned` are substituted out: the top row is
    # columns 0..n-1.
    pinned = 0
    if system.eq_top is not None:
        for r in range(1, n + 1):
            if ents[starts[n] + r] != system.eq_top[r - 1]:
                raise Infeasible(f"top-row pin violated at column {r}")
        pinned = n
    if system.eq_weights is not None:
        if weight_vector(X) != system.eq_weights:
            raise Infeasible("weight pins violated")
        # R_k = w_1 + ... + w_k: a unitriangular change of basis of the pins
        # w_k, so the rank is the same, from shorter rows.  R_n lies in the
        # top row, so none is left of it when the top row is pinned.
        for k in range(1, n if pinned else n + 1):
            rows.append(dict.fromkeys(range(starts[k] + 1, starts[k] + k + 1), 1))

    def tie(a, b):
        """Stack the row of a tight arc from column a to column b."""
        if a >= pinned:
            rows.append({a: 1, b: -1} if b >= pinned else {a: 1})
        elif b >= pinned:
            rows.append({b: -1})

    zero = Entry.rational(0)
    for src, dst in system.inequalities:
        a, b = starts[src[0]] + src[1], starts[dst[0]] + dst[1]
        ea, eb = ents[a], ents[b]
        if ea.label is None and eb.label is None:
            # Offsets are exact, an int iff integral: compare them directly.
            p, q = ea.offset, eb.offset
            if p == q:
                tie(a, b)
            elif p < q:
                raise Infeasible(f"inequality {src} >= {dst} violated")
        elif ea == eb:
            tie(a, b)
        elif cmp_entries(ea, eb) < 0:
            raise Infeasible(f"inequality {src} >= {dst} violated")
    for v in system.nonneg:
        a = starts[v[0]] + v[1]
        if ents[a] == zero:
            if a >= pinned:
                rows.append({a: 1})
        elif cmp_entries(ents[a], zero) < 0:
            raise Infeasible(f"nonnegativity violated at {v}")
    rows.reverse()
    return ncols - pinned - len(linalg._echelon(rows))

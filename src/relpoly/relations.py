"""Relation sets on the triangular vertex set and their structural checks.

Vertices are pairs ``(row, col)`` with ``1 <= col <= row <= n``; row ``n`` is
the top row.  A relation set is a finite set of ordered vertex pairs, each
falling into one of three classes: "plus" (target one row below), "minus"
(target one row above) or "zero" (both endpoints in the top row).
"""

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .errors import InvalidRelation

PLUS = "plus"
MINUS = "minus"
ZERO = "zero"


def vertices(n):
    """All triangle vertices for height n, sorted by (row, col)."""
    return [(k, i) for k in range(1, n + 1) for i in range(1, k + 1)]


def is_vertex(v, n):
    if not (isinstance(v, tuple) and len(v) == 2):
        return False
    row, col = v
    return isinstance(row, int) and isinstance(col, int) and 1 <= col <= row <= n


def relation_class(src, dst, n):
    """Classify a relation or raise InvalidRelation."""
    if not is_vertex(src, n) or not is_vertex(dst, n):
        raise InvalidRelation(f"invalid endpoint in {(src, dst)} for n={n}")
    if dst[0] == src[0] - 1:
        return PLUS
    if dst[0] == src[0] + 1:
        return MINUS
    if src[0] == dst[0] == n and src[1] != dst[1]:
        return ZERO
    raise InvalidRelation(f"{(src, dst)} is not a plus/minus/zero relation for n={n}")


@dataclass(frozen=True)
class RelationSet:
    n: int
    relations: tuple = ()

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 1):
            raise InvalidRelation(f"n must be a positive integer, got {self.n!r}")
        # Classified first, so that only pairs of int pairs are hashed and sorted.
        rels = [(tuple(src), tuple(dst)) for src, dst in self.relations]
        for src, dst in rels:
            relation_class(src, dst, self.n)
        object.__setattr__(self, "relations", tuple(sorted(set(rels))))

    def __iter__(self):
        return iter(self.relations)

    def __len__(self):
        return len(self.relations)

    @cached_property
    def _succ(self):
        """Successor lists, built once on first use: vertex -> tuple of the
        targets of its relations, in relation order."""
        succ = {v: [] for v in vertices(self.n)}
        for src, dst in self.relations:
            succ[src].append(dst)
        return {v: tuple(dsts) for v, dsts in succ.items()}

    @cached_property
    def reach(self):
        """Directed reachability closure, computed once on first use: vertex ->
        frozenset of the vertices it reaches by a path, itself included."""
        return {v: frozenset(_reachable(self._succ, v)) for v in self._succ}


def _reachable(succ, start, skip=None):
    """Vertices reachable from start along the successor lists succ, start
    included, by paths that do not use the arc (start, skip)."""
    stack = [w for w in succ[start] if w != skip]
    seen = {start, *stack}
    while stack:
        v = stack.pop()
        for w in succ[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def standard_set(n, k, variant):
    """The standard one-parameter families of relation sets.

    variant is one of "plus", "minus", "both", "empty".  The plus family has
    arrows (i+1,j) -> (i,j) and the minus family (i,j) -> (i+1,j+1), both over
    k <= j <= i <= n-1.  "empty" is the generic (empty) set.
    """
    if not 1 <= k <= n:
        raise InvalidRelation(f"k={k} out of range 1..{n}")
    rels = []
    if variant in ("plus", "both"):
        rels += [(((i + 1), j), (i, j)) for i in range(k, n) for j in range(k, i + 1)]
    if variant in ("minus", "both"):
        rels += [((i, j), ((i + 1), j + 1)) for i in range(k, n) for j in range(k, i + 1)]
    if variant not in ("plus", "minus", "both", "empty"):
        raise InvalidRelation(f"unknown variant {variant!r}")
    return RelationSet(n, rels)


def support(C):
    """All vertices that are source or target of some relation."""
    out = set()
    for src, dst in C:
        out.add(src)
        out.add(dst)
    return out


def reaches(C, a, b):
    """True iff there is a directed path (possibly empty) from a to b."""
    return b in C.reach[a]


def _union_find_roots(n, edges):
    """The root of every vertex index under the given edges of the triangle
    of height n: a list whose entry v is the root of index v.

    Vertex (k, i) has index k(k-1)/2 + i - 1, its place in vertices(n), so
    index order is vertex order and the last n indices are the top row.
    Union by least root, so that every root is the least index of its
    block and every parent is at most its child.  One sweep over the
    indices in order then sets each parent to its root: a parent less than
    v has already been set to its own root."""
    parent = list(range(n * (n + 1) // 2))
    for (k, i), (j, m) in edges:
        a, b = k * (k - 1) // 2 + i - 1, j * (j - 1) // 2 + m - 1
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    for v, p in enumerate(parent):
        parent[v] = parent[p]
    return parent


def connected_components(C):
    """Undirected components of the relation graph, as a tuple of frozensets.

    Vertices outside the support are singleton blocks.  Blocks are sorted by
    their least member: a root of _union_find_roots is the least index of
    its block, so one sweep over the indices meets each block first at its
    root.
    """
    blocks = {}
    for v, r in zip(vertices(C.n), _union_find_roots(C.n, C)):
        blocks.setdefault(r, []).append(v)
    return tuple(map(frozenset, blocks.values()))


def _same_row_pairs(C):
    """(k, i, j, joined) for every row k below the top and columns i < j,
    where joined tells whether (k,i) and (k,j) share a connected component."""
    block_of = {v: idx for idx, b in enumerate(connected_components(C)) for v in b}
    return [(k, i, j, block_of[(k, i)] == block_of[(k, j)])
            for k in range(1, C.n) for i in range(1, k + 1) for j in range(i + 1, k + 1)]


@dataclass(frozen=True)
class ReducedReport:
    ok: bool
    violations: tuple = ()


def is_reduced(C):
    """Check the at-most-one-arrow conditions and top-row redundancy.

    A top-row relation is redundant if its source still reaches its target
    after removing the relation itself.
    """
    degree = Counter()
    for src, dst in C:
        step = dst[0] - src[0]  # +1 up, -1 down, 0 along the top row
        degree[src, "out", step] += 1
        degree[dst, "in", -step] += 1
    violations = [
        (code, v)
        for v in sorted(support(C))
        for code, end, step in (("multiple_up_out", "out", 1), ("multiple_up_in", "in", 1),
                                ("multiple_down_out", "out", -1), ("multiple_down_in", "in", -1))
        if degree[v, end, step] > 1
    ]
    for rel in C:
        src, dst = rel
        if src[0] == dst[0] and dst in _reachable(C._succ, src, skip=dst):
            violations.append(("redundant_top_relation", rel))
    return ReducedReport(not violations, tuple(violations))


def adjoining_pairs(C):
    """Same-row pairs ((k,i);(k,j)), k != n, i < j, with (k,i) reaching (k,j)
    and no strictly intermediate same-row vertex on the reachability order."""
    reach = C.reach
    pairs = []
    for k in range(1, C.n):
        for i in range(1, k + 1):
            for j in range(i + 1, k + 1):
                if (k, j) not in reach[(k, i)]:
                    continue
                blocked = any(
                    t != i and t != j
                    and (k, t) in reach[(k, i)]
                    and (k, j) in reach[(k, t)]
                    for t in range(1, k + 1)
                )
                if not blocked:
                    pairs.append(((k, i), (k, j)))
    return pairs


@dataclass(frozen=True)
class AdmissibilityResult:
    status: str  # "admissible" | "not_admissible" | "inapplicable"
    witness: tuple = None
    reason: str = None


def check_admissible(C):
    """Classify a relation set as admissible / not admissible / inapplicable.

    The structural hypotheses checked first: the set is reduced, the graph is
    acyclic with same-row reachability only left-to-right, and no pair of
    arrows between consecutive rows crosses.  Under those hypotheses the set
    is admissible iff every adjoining pair ((k,i);(k,j)) is covered by a
    diamond through rows k+1 and k-1 or by an ordered pair of arrows into
    row k+1 and back.
    """
    red = is_reduced(C)
    if not red.ok:
        return AdmissibilityResult("inapplicable", reason="not reduced")
    reach = C.reach
    # A cycle exists iff some arc's head reaches its tail.
    if any(src in reach[dst] for src, dst in C):
        return AdmissibilityResult("inapplicable", reason="directed cycle")
    for k in range(1, C.n + 1):
        for i in range(1, k + 1):
            for j in range(1, i):
                if (k, j) in reach[(k, i)]:
                    return AdmissibilityResult(
                        "inapplicable",
                        reason=f"same-row reachability ({k},{i}) to ({k},{j}) with {i} > {j}",
                    )
    # Crossing arrows between consecutive rows, orientation-free.
    arcs = set()
    for src, dst in C:
        if abs(src[0] - dst[0]) == 1:
            low, high = (src, dst) if src[0] < dst[0] else (dst, src)
            arcs.add((low, high))
    between = {}  # k -> (column in row k, column in row k+1) of each arc
    for (k, i), (_, t) in arcs:
        between.setdefault(k, []).append((i, t))
    for (k, i), (_, t) in arcs:
        if any(j > i and s < t for j, s in between[k]):
            return AdmissibilityResult(
                "inapplicable",
                reason=f"crossing arrows between rows {k} and {k + 1}",
            )
    rels = set(C.relations)
    for ki, kj in adjoining_pairs(C):
        k = ki[0]

        def through(row):
            return any((ki, (row, p)) in rels and ((row, p), kj) in rels
                       for p in range(1, row + 1))

        # A diamond through both rows, or an ordered pair of arrows into row
        # k+1 and back.
        covered = through(k + 1) and through(k - 1) or any(
            (ki, (k + 1, s)) in rels and ((k + 1, t), kj) in rels
            for s in range(1, k + 2) for t in range(s + 1, k + 2))
        if not covered:
            return AdmissibilityResult("not_admissible", witness=(ki, kj))
    return AdmissibilityResult("admissible")


def _bounds(C, values):
    """Per vertex v, (lo, hi): the greatest values[w] over the keys w that v
    reaches and the least values[u] over the keys u that reach v, v itself
    included, and None on a side with no such key.

    Relaxes C's arcs until nothing moves, lo from dst to src and hi from src
    to dst: Bellman-Ford on the constraints x_src >= x_dst.  It reads the
    relations, not the closure.  Each pass takes the arcs from the top row
    down, so that on C1 the values at the top row settle in one pass."""
    lo = {v: values.get(v) for v in vertices(C.n)}
    hi = dict(lo)
    moved = True
    while moved:
        moved = False
        for src, dst in reversed(C.relations):
            a, b = lo[dst], lo[src]
            if a is not None and (b is None or b < a):
                lo[src] = a
                moved = True
            a, b = hi[src], hi[dst]
            if a is not None and (b is None or a < b):
                hi[dst] = a
                moved = True
    return {v: (lo[v], hi[v]) for v in lo}


def is_top_connected(C):
    """Every supported vertex below the top row reaches some top-row vertex."""
    bounds = _bounds(C, {(C.n, r): 0 for r in range(1, C.n + 1)})
    return all(bounds[v][0] is not None for v in support(C))


def structural_noncritical(C):
    """Sufficient test: "yes" if every same-row pair sharing a component is
    reachability-ordered left to right (below the top row); else "unknown"."""
    reach = C.reach
    ordered = all(not joined or (k, j) in reach[(k, i)] for k, i, j, joined in _same_row_pairs(C))
    return "yes" if ordered else "unknown"

"""Tilings of patterns, tiling matrices, kernels, and minimal-face dimensions.

Two vertices share a tile iff they are joined by a walk whose relations all
have exactly equal endpoint entries.  The tiling matrix counts, per row below
the top, the vertices of each tile that avoids the top row; its kernel
dimension is the minimal-face dimension of the weight-constrained polyhedron.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import NegativeEntryOnSupport, NotACPattern
from .patterns import (
    Entry,
    Pattern,
    cmp_entries,
    coord_index,
    separation,
    tight_arcs,
)
from .relations import _union_find_roots, is_top_connected, support, vertices


@dataclass(frozen=True)
class Tiling:
    n: int
    tiles: tuple  # frozensets; the lambda1-free tiles come first
    free_count: int  # number of lambda1-free tiles (s)


@dataclass(frozen=True)
class TilingMatrix:
    n: int
    free_tile_count: int  # s; entries is the identity of order n-1 when s = 0
    entries: tuple  # (n-1) rows of ints


@dataclass(frozen=True)
class Inapplicable:
    reason: str


def _require_c_pattern(C, X):
    """The relations of C tight at X; raises NotACPattern if X violates one."""
    tight = tight_arcs(C, X)
    if tight is None:
        raise NotACPattern("pattern violates a relation inequality")
    return tight


def compute_tiling(C, X):
    """Partition the triangle by equal-entry walks; canonical tile order.

    The tiles are read off the root table of the tight relations by the
    rule of _face_dims: a block is lambda1-free iff its root is not the root
    of an index of the top row.  A root is the least index of its block, so
    one sweep in index order meets each block first at its root, and the
    free and the fixed tiles each come in the order of their least vertex."""
    n = C.n
    roots = _union_find_roots(n, _require_c_pattern(C, X))
    top = set(roots[-n:])
    free, fixed = {}, {}
    for v, r in zip(vertices(n), roots):
        (fixed if r in top else free).setdefault(r, []).append(v)
    tiles = tuple(map(frozenset, [*free.values(), *fixed.values()]))
    return Tiling(n, tiles, len(free))


def lambda_free(tiling, lam):
    """Tiles avoiding every row listed in lam (a subset of {1, n})."""
    lam = set(lam)
    if not lam <= {1, tiling.n}:
        raise ValueError(f"lam must be a subset of {{1, {tiling.n}}}")
    return [t for t in tiling.tiles if all(v[0] not in lam for v in t)]


def tiling_matrix(C, X, tiling=None):
    if tiling is None:
        tiling = compute_tiling(C, X)
    n, s = tiling.n, tiling.free_count
    if s == 0:
        rows = tuple(
            tuple(1 if i == j else 0 for j in range(n - 1)) for i in range(n - 1)
        )
        return TilingMatrix(n, 0, rows)
    rows = [[0] * s for _ in range(n - 1)]
    for col, tile in enumerate(tiling.tiles[:s]):
        for k, _ in tile:
            rows[k - 1][col] += 1
    return TilingMatrix(n, s, tuple(map(tuple, rows)))


def kernel(A):
    """Deterministic exact basis of ker(A), as tuples of rationals.  A has
    s columns, or n-1 for the identity that stands in when s = 0."""
    return linalg.nullspace(A.entries, A.free_tile_count or A.n - 1)


def _face_dims(n, tight):
    """(d, s, r) off the root table of the tight relations, with no tile,
    tiling matrix or frozenset: d roots, s of them free (their blocks hold
    no index of the top row, the last n), and r is s less the rank of the
    rows k = 1..n-1, each counting its vertices per free root.  That is the
    tiling matrix up to the order of its columns, which leaves the rank."""
    roots = _union_find_roots(n, tight)
    top = set(roots[len(roots) - n:])
    d = len(set(roots))
    rows = []
    for k in range(1, n):
        row = {}
        for r in roots[k * (k - 1) // 2:k * (k + 1) // 2]:
            if r not in top:
                row[r] = row.get(r, 0) + 1
        rows.append(row)
    s = d - len(top)
    return d, s, s - linalg.sparse_rank(rows)


def min_face_dims(C, X):
    """(d, s, r): tiles, top-row-avoiding tiles, and kernel dimension.

    These are the minimal-face dimensions of the unconstrained, top-row-pinned
    and weight-pinned polyhedra at X.  They are counted off the root table of
    the one union-find, with no tile or tiling matrix built, and equal
    len(T.tiles), T.free_count and len(kernel(tiling_matrix(C, X, T))) for
    T = compute_tiling(C, X).
    """
    return _face_dims(C.n, _require_c_pattern(C, X))


def min_face_dims_plus(C, X):
    """(s, r) for the nonnegative variants, or Inapplicable(reason)."""
    tight = _require_c_pattern(C, X)
    for v in sorted(support(C)):
        e = X[v]
        if e == Entry.rational(0):
            continue
        if cmp_entries(e, Entry.rational(0)) < 0:
            raise NegativeEntryOnSupport(f"entry at {v} is negative")
    if not is_top_connected(C):
        return Inapplicable("not top-connected")
    _, s, r = _face_dims(C.n, tight)
    if s == 0:
        return Inapplicable("no lambda1-free tile")
    return s, r


def _min_gap(X):
    """Certified lower bound for the least gap between distinct entry values."""
    gap = None
    ents = list(X.entries)
    for a in range(len(ents)):
        for b in range(a + 1, len(ents)):
            if ents[a] == ents[b]:
                continue
            sep = separation(ents[a], ents[b])
            if gap is None or sep < gap:
                gap = sep
    return gap if gap is not None else Fraction(1)


def build_perturbation_basis(C, X):
    """Directions Y^(1..d): kernel vectors first, then tile indicators.

    Every vector is rescaled so each nonzero coordinate stays below a quarter
    of the minimal entry gap, which keeps X plus or minus any of them inside
    the relation polyhedron.
    """
    tiling = compute_tiling(C, X)
    A = tiling_matrix(C, X, tiling)
    ker = kernel(A)
    d, s = len(tiling.tiles), tiling.free_count
    eps_vectors = []
    for vec in ker:
        eps_vectors.append(tuple(vec) + (Fraction(0),) * (d - s))
    for m in range(len(ker), d):
        eps_vectors.append(
            tuple(Fraction(1 if k == m else 0) for k in range(d))
        )
    gap = _min_gap(X)
    out = []
    for eps in eps_vectors:
        biggest = max(abs(x) for x in eps)
        scale = Fraction(gap, 4) / biggest  # gap may be an int: no float
        ents = [None] * (X.n * (X.n + 1) // 2)
        for k, tile in enumerate(tiling.tiles):
            for v in tile:
                ents[coord_index(X.n, v)] = Entry.rational(eps[k] * scale)
        out.append(Pattern(X.n, tuple(ents)))
    return out

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
    is_c_pattern,
    separation,
)
from .relations import _union_find_blocks, is_top_connected, support


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
    if not is_c_pattern(C, X):
        raise NotACPattern("pattern violates a relation inequality")


def compute_tiling(C, X):
    """Partition the triangle by equal-entry walks; canonical tile order."""
    _require_c_pattern(C, X)
    equal = [(src, dst) for src, dst in C if X[src] == X[dst]]
    tiles = _union_find_blocks(C.n, equal)
    free = [t for t in tiles if all(v[0] != C.n for v in t)]
    rest = [t for t in tiles if t not in free]
    return Tiling(C.n, tuple(free + rest), len(free))


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
    rows = []
    for i in range(1, n):
        rows.append(
            tuple(
                sum(1 for v in tiling.tiles[k] if v[0] == i) for k in range(s)
            )
        )
    return TilingMatrix(n, s, tuple(rows))


def _width(A):
    """Columns of A: s, or n-1 for the identity that stands in when s = 0."""
    return A.free_tile_count if A.free_tile_count > 0 else A.n - 1


def kernel(A):
    """Deterministic exact basis of ker(A), as tuples of rationals."""
    return linalg.nullspace(A.entries, _width(A))


def kernel_dim(A):
    """len(kernel(A)): the number of columns minus the rank."""
    rows = [{c: x for c, x in enumerate(row) if x} for row in A.entries]
    return _width(A) - linalg.sparse_rank(rows)


def min_face_dims(C, X):
    """(d, s, r): tiles, top-row-avoiding tiles, and kernel dimension.

    These are the minimal-face dimensions of the unconstrained, top-row-pinned
    and weight-pinned polyhedra at X.
    """
    tiling = compute_tiling(C, X)
    A = tiling_matrix(C, X, tiling)
    return len(tiling.tiles), tiling.free_count, kernel_dim(A)


def min_face_dims_plus(C, X):
    """(s, r) for the nonnegative variants, or Inapplicable(reason)."""
    _require_c_pattern(C, X)
    for v in sorted(support(C)):
        e = X[v]
        if e == Entry.rational(0):
            continue
        if cmp_entries(e, Entry.rational(0)) < 0:
            raise NegativeEntryOnSupport(f"entry at {v} is negative")
    if not is_top_connected(C):
        return Inapplicable("not top-connected")
    tiling = compute_tiling(C, X)
    if tiling.free_count == 0:
        return Inapplicable("no lambda1-free tile")
    A = tiling_matrix(C, X, tiling)
    return tiling.free_count, kernel_dim(A)


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
        scale = gap / (4 * biggest)
        ents = [None] * (X.n * (X.n + 1) // 2)
        for k, tile in enumerate(tiling.tiles):
            for v in tile:
                ents[coord_index(X.n, v)] = Entry.rational(eps[k] * scale)
        out.append(Pattern(X.n, tuple(ents)))
    return out

"""Tilings, tiling matrices, kernels, face dimensions, perturbation basis."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from relpoly.errors import (
    IncomparableEntries,
    NegativeEntryOnSupport,
    NotACPattern,
    SizeMismatch,
)
from relpoly.linalg import nullspace, rref
from relpoly.patterns import (
    Entry,
    Pattern,
    constant_pattern,
    is_c_pattern,
    separation,
    weight_vector,
)
from relpoly.relations import connected_components, standard_set, vertices
from relpoly.selftest import random_c_pattern
from test_patterns import (
    entry_key,
    labeled_c_pattern,
    outcome_of,
    reference_cmp,
    varied_pattern,
)
from test_relations import random_relation_set
from relpoly.tiling import (
    Inapplicable,
    build_perturbation_basis,
    compute_tiling,
    kernel,
    lambda_free,
    min_face_dims,
    min_face_dims_plus,
    tiling_matrix,
)

FIG_PATTERN = Pattern.from_rows([
    [9, 8, 6, 5, 3],
    [8, 5, 5, 4],
    [3, 3, 0],
    [3, -1],
    [-2],
])
FIG_MATRIX = ((1, 0, 0, 0, 0, 0, 0, 0, 0),
              (0, 1, 1, 0, 0, 0, 0, 0, 0),
              (0, 1, 0, 1, 1, 0, 0, 0, 0),
              (0, 0, 0, 0, 0, 1, 1, 1, 1))


def fig_setup():
    return standard_set(5, 1, "plus"), FIG_PATTERN


def test_rref_and_rank():
    rows = [(Fraction(1), Fraction(2)), (Fraction(2), Fraction(4))]
    reduced, pivots = rref(rows, 2)
    assert pivots == [0]


def test_nullspace_single_constraint():
    basis = nullspace([(Fraction(1), Fraction(1))], 2)
    assert basis == [(Fraction(1), Fraction(-1))]


def test_nullspace_identity():
    rows = [tuple(Fraction(int(i == j)) for j in range(3)) for i in range(3)]
    assert nullspace(rows, 3) == []


def test_tiling_figure():
    C, X = fig_setup()
    tiling = compute_tiling(C, X)
    assert len(tiling.tiles) == 14
    assert tiling.free_count == 9
    non_singleton = [t for t in tiling.tiles if len(t) > 1]
    assert non_singleton == [frozenset({(2, 1), (3, 1)})]


def test_tiling_constant_pattern():
    C = standard_set(4, 1, "both")
    tiling = compute_tiling(C, constant_pattern(4, 7))
    assert len(tiling.tiles) == 1
    assert tiling.free_count == 0


def test_tiling_no_relations():
    tiling = compute_tiling(standard_set(3, 3, "both"),
                            Pattern.from_rows([[5, 4, 3], [2, 1], [0]]))
    assert len(tiling.tiles) == 6
    assert all(len(t) == 1 for t in tiling.tiles)


def test_tiling_requires_c_pattern():
    with pytest.raises(NotACPattern):
        compute_tiling(standard_set(2, 1, "both"),
                       Pattern.from_rows([[1, 0], [2]]))


def test_lambda_free_counts():
    C, X = fig_setup()
    tiling = compute_tiling(C, X)
    assert len(lambda_free(tiling, {5})) == 9
    assert len(lambda_free(tiling, {1, 5})) == 8
    assert len(lambda_free(tiling, set())) == 14
    const = compute_tiling(standard_set(3, 1, "both"), constant_pattern(3, 0))
    assert lambda_free(const, {3}) == []
    with pytest.raises(ValueError):
        lambda_free(tiling, {2})


def test_tiling_matrix_figure():
    C, X = fig_setup()
    A = tiling_matrix(C, X)
    assert A.entries == FIG_MATRIX
    assert A.free_tile_count == 9


def test_tiling_matrix_identity_when_no_free_tiles():
    C = standard_set(4, 1, "both")
    A = tiling_matrix(C, constant_pattern(4, 2))
    assert A.free_tile_count == 0
    assert A.entries == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_tiling_matrix_singletons():
    A = tiling_matrix(standard_set(3, 3, "both"),
                      Pattern.from_rows([[5, 4, 3], [2, 1], [0]]))
    assert A.entries == ((1, 0, 0), (0, 1, 1))


def test_kernel_figure():
    C, X = fig_setup()
    assert len(kernel(tiling_matrix(C, X))) == 5


def test_min_face_dims():
    C, X = fig_setup()
    assert min_face_dims(C, X) == (14, 9, 5)
    assert min_face_dims(standard_set(3, 1, "both"),
                         constant_pattern(3, 4)) == (1, 0, 0)
    assert min_face_dims(standard_set(3, 3, "both"),
                         Pattern.from_rows([[5, 4, 3], [2, 1], [0]])) == (6, 3, 1)


def test_kernel_and_nullspace_agree_under_column_permutation():
    # len(kernel(A)) is the nullity that nullspace finds on A with its
    # columns shuffled.
    C, X = fig_setup()
    A = tiling_matrix(C, X)
    rng = random.Random(2)
    cols = list(range(A.free_tile_count))
    base = len(kernel(A))
    for _ in range(5):
        rng.shuffle(cols)
        permuted = [tuple(Fraction(row[c]) for c in cols) for row in A.entries]
        assert len(nullspace(permuted, len(cols))) == base


def test_min_face_dims_plus_inapplicable():
    C1 = standard_set(3, 1, "both")
    # Ties pull every tile into the top row, so the corollary does not apply.
    tied = Pattern.from_rows([[2, 1, 0], [2, 1], [1]])
    result = min_face_dims_plus(C1, tied)
    assert result == Inapplicable("no lambda1-free tile")
    assert min_face_dims_plus(C1, constant_pattern(3, 0)) == \
        Inapplicable("no lambda1-free tile")
    plus = standard_set(3, 1, "plus")
    result = min_face_dims_plus(plus, Pattern.from_rows([[3, 2, 1], [2, 1], [1]]))
    assert result == Inapplicable("not top-connected")


def test_min_face_dims_plus_applicable():
    C1 = standard_set(3, 1, "both")
    X = Pattern.from_rows([[4, 2, 0], [3, 1], [2]])  # all tiles singletons
    assert min_face_dims_plus(C1, X) == (3, 1)


def test_min_face_dims_plus_negative_entry():
    C1 = standard_set(3, 1, "both")
    with pytest.raises(NegativeEntryOnSupport):
        min_face_dims_plus(C1, Pattern.from_rows([[2, 1, -1], [1, 0], [0]]))


def test_perturbation_basis_constant():
    C = standard_set(3, 1, "both")
    basis = build_perturbation_basis(C, constant_pattern(3, 1))
    assert len(basis) == 1
    vals = {e for e in basis[0].entries}
    assert len(vals) == 1  # constant direction on the single tile


def test_perturbation_basis_empty_relations():
    C = standard_set(2, 2, "both")
    X = Pattern.from_rows([[1, 0], [5]])
    basis = build_perturbation_basis(C, X)
    assert len(basis) == 3
    for Y in basis:
        nonzero = [e.offset for e in Y.entries if e.offset != 0]
        assert len(nonzero) == 1 and abs(nonzero[0]) < Fraction(1, 2)


def test_perturbation_basis_figure_kernel_rows():
    C, X = fig_setup()
    basis = build_perturbation_basis(C, X)
    assert len(basis) == 14
    for Y in basis[:5]:
        assert all(e.offset == 0 for e in Y.row(5))
        assert weight_vector(Y) == (0,) * 5


def test_perturbation_basis_with_labeled_entries():
    # sqrt2-labeled entries beside rational ones, so the minimal gap takes
    # certified separations of entries under two different labels.
    C = standard_set(3, 1, "both")
    r2 = Entry.sqrt(2)
    X = Pattern.from_rows([[r2.add(2), r2, 0], [r2.add(1), Fraction(1, 2)], [1]])
    assert min_face_dims(C, X) == (6, 3, 1)
    tiling = compute_tiling(C, X)
    basis = build_perturbation_basis(C, X)
    assert len(basis) == 6
    for Y in basis:
        for sign in (1, -1):
            Z = Pattern(3, tuple(a.add(sign * b.offset) for a, b in zip(X.entries, Y.entries)))
            assert is_c_pattern(C, Z) and compute_tiling(C, Z) == tiling
    with pytest.raises(IncomparableEntries):
        separation(r2, Entry.rational((r2.lo + r2.hi) / 2))


def test_membership_closure():
    rng = random.Random(13)
    for _ in range(15):
        n = rng.randint(2, 4)
        C = standard_set(n, rng.randint(1, n), "both")
        X = random_c_pattern(rng, C)
        d, s, r = min_face_dims(C, X)
        basis = build_perturbation_basis(C, X)
        for m, Y in enumerate(basis):
            shifts = Pattern(n, tuple(a.add(b.offset)
                                      for a, b in zip(X.entries, Y.entries)))
            shifts_down = Pattern(n, tuple(a.add(-b.offset)
                                           for a, b in zip(X.entries, Y.entries)))
            assert is_c_pattern(C, shifts)
            assert is_c_pattern(C, shifts_down)
            if m < s:
                assert shifts.row(n) == X.row(n)
            if m < r:
                assert weight_vector(Y) == (Fraction(0),) * n


def test_tile_equality_transfer():
    rng = random.Random(17)
    for _ in range(10):
        n = rng.randint(2, 4)
        C = standard_set(n, rng.randint(1, n), "both")
        X = random_c_pattern(rng, C)
        tiling = compute_tiling(C, X)
        basis = build_perturbation_basis(C, X)
        # Random element of the span of the perturbation directions.
        coeffs = [Fraction(rng.randint(-2, 2), 3) for _ in basis]
        total = [sum(c * Y.entries[i].offset for c, Y in zip(coeffs, basis))
                 for i in range(len(X.entries))]
        from relpoly.patterns import coord_index
        for tile in tiling.tiles:
            vals = {total[coord_index(n, v)] for v in tile}
            assert len(vals) == 1


def reference_is_c_pattern(C, X):
    """is_c_pattern as a pass over the relations that compares entries by
    (offset, label) and orders them by Fraction operators."""
    if C.n != X.n:
        raise SizeMismatch(f"relation set has n={C.n}, pattern has n={X.n}")
    for src, dst in C:
        if entry_key(X[src]) != entry_key(X[dst]) and reference_cmp(X[src], X[dst]) < 0:
            return False
    return True


def reference_tiling(C, X):
    """(free tiles, other tiles) as sets: the order check, then a second
    pass for the tight relations, whose components a graph search finds."""
    if not reference_is_c_pattern(C, X):
        raise NotACPattern("pattern violates a relation inequality")
    near = {v: set() for v in vertices(C.n)}
    for src, dst in C:
        if entry_key(X[src]) == entry_key(X[dst]):
            near[src].add(dst)
            near[dst].add(src)
    seen, tiles = set(), []
    for v in vertices(C.n):
        if v in seen:
            continue
        tile, todo = {v}, [v]
        while todo:
            for w in near[todo.pop()] - tile:
                tile.add(w)
                todo.append(w)
        seen |= tile
        tiles.append(frozenset(tile))
    free = {t for t in tiles if all(k != C.n for k, _ in t)}
    return free, set(tiles) - free


def reference_tiling_matrix(tiling):
    n, s = tiling.n, tiling.free_count
    if s == 0:
        return tuple(tuple(int(i == j) for j in range(n - 1)) for i in range(n - 1))
    return tuple(tuple(sum(1 for v in tiling.tiles[k] if v[0] == i) for k in range(s))
                 for i in range(1, n))


def test_tiling_matches_the_two_pass_reference():
    rng = random.Random(20261021)
    outcomes = Counter()
    for _ in range(1500):
        C = random_relation_set(rng)
        blocks = connected_components(C)
        assert list(blocks) == sorted(blocks, key=min), C
        pick = rng.random()
        if pick < 0.5:
            X = labeled_c_pattern(rng, C, rng.choice((2, 3, 4)))
        elif pick < 0.95:
            X = varied_pattern(rng, C.n)
        else:
            X = varied_pattern(rng, C.n + rng.choice((-1, 1)))  # n >= 2
        want = outcome_of(reference_is_c_pattern, C, X)
        assert outcome_of(is_c_pattern, C, X) == want, (C, X)
        got = outcome_of(compute_tiling, C, X)
        if isinstance(got, tuple):
            assert got == outcome_of(reference_tiling, C, X), (C, X)
            outcomes[got[0]] += 1
            continue
        s = got.free_count
        assert (set(got.tiles[:s]), set(got.tiles[s:])) == reference_tiling(C, X), (C, X)
        # The order fixes the tiling-matrix columns and so the kernel: the
        # lambda1-free tiles first, each group by least member.
        for group in (got.tiles[:s], got.tiles[s:]):
            assert list(group) == sorted(group, key=min), (C, X)
        assert len(got.tiles) == len(set(got.tiles))
        assert tiling_matrix(C, X, got).entries == reference_tiling_matrix(got)
        outcomes["tiling", s > 0] += 1
    assert set(outcomes) == {NotACPattern, SizeMismatch, IncomparableEntries,
                             ("tiling", True), ("tiling", False)}, outcomes
    assert min(outcomes.values()) >= 40, outcomes

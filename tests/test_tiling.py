"""Tilings, tiling matrices, kernels, face dimensions, perturbation basis."""

import random
from fractions import Fraction

import pytest

from relpoly.errors import NegativeEntryOnSupport, NotACPattern
from relpoly.linalg import nullspace, rref
from relpoly.patterns import Pattern, constant_pattern, is_c_pattern, weight_vector
from relpoly.relations import standard_set
from relpoly.selftest import random_c_pattern
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


def test_kernel_dim_invariant_under_column_permutation():
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

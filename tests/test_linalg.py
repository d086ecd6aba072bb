"""Sparse fraction-free elimination against a dense Fraction reference."""

import random
from fractions import Fraction
from math import lcm

import pytest

from relpoly.linalg import nullspace, rref, sparse_rank


def reference_rref(rows, ncols):
    """Textbook Gauss-Jordan elimination on dense Fraction rows."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = mat[r][c]
        mat[r] = [x / inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def reference_nullspace(reduced, pivots, ncols):
    """Nullspace basis read off a reference RREF."""
    basis = []
    for f in [c for c in range(ncols) if c not in pivots]:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            vec[p] = -row[f]
        lead = next(x for x in vec if x != 0)
        basis.append(tuple(x / lead for x in vec))
    return basis


def random_entry(rng, density):
    roll = rng.random()
    if roll >= density:
        return 0
    if roll < density * 0.6:
        return rng.choice((1, -1, 2, -3, 7))
    return Fraction(rng.randint(-9, 9), rng.randint(1, 12))


def random_matrix(rng):
    """Tall, wide or square; sparse or dense; some zero and duplicate rows."""
    nrows, ncols = rng.randint(0, 7), rng.randint(0, 7)
    density = rng.choice((0.2, 0.5, 0.9))
    rows = [[random_entry(rng, density) for _ in range(ncols)] for _ in range(nrows)]
    if rows and rng.random() < 0.3:
        rows.insert(rng.randrange(len(rows) + 1), list(rng.choice(rows)))
    if rng.random() < 0.2:
        rows.insert(rng.randrange(len(rows) + 1), [0] * ncols)
    if rows and rng.random() < 0.2:
        # A combination of two rows, so the rank drops.
        a, b = rng.choice(rows), rng.choice(rows)
        rows.append([2 * x - Fraction(1, 3) * y for x, y in zip(a, b)])
    return rows, ncols


def sparse_int_rows(rows):
    """Each row as {column: nonzero int}, scaled by the lcm of its denominators."""
    out = []
    for row in rows:
        scale = lcm(*(Fraction(x).denominator for x in row))
        out.append({c: int(x * scale) for c, x in enumerate(row) if x})
    return out


def test_matches_reference_on_random_matrices():
    rng = random.Random(11)
    shapes = set()
    for _ in range(3000):
        rows, ncols = random_matrix(rng)
        shapes.add((len(rows) > ncols) - (len(rows) < ncols))
        want_rows, want_pivots = reference_rref(rows, ncols)
        got_rows, got_pivots = rref(rows, ncols)
        assert got_pivots == want_pivots
        assert got_rows == want_rows
        assert all(type(x) is Fraction for row in got_rows for x in row)
        sparse = sparse_int_rows(rows)
        before = [list(row.items()) for row in sparse]
        assert sparse_rank(sparse) == len(want_pivots)
        assert [list(row.items()) for row in sparse] == before
        want_null = reference_nullspace(want_rows, want_pivots, ncols)
        assert repr(nullspace(rows, ncols)) == repr(want_null)
    assert shapes == {-1, 0, 1}


def test_matches_reference_on_incidence_rows():
    """0/+-1 rows like the oracle's: pins, row-sum differences and arcs."""
    rng = random.Random(5)
    for _ in range(20):
        ncols = rng.randint(5, 20)
        rows = []
        for _ in range(rng.randint(1, 2 * ncols)):
            row = [0] * ncols
            a, b = rng.sample(range(ncols), 2)
            row[a], row[b] = 1, -1
            if rng.random() < 0.2:
                for c in rng.sample(range(ncols), rng.randint(1, ncols)):
                    row[c] = rng.choice((1, -1))
            rows.append(row)
        want = reference_rref(rows, ncols)
        assert rref(rows, ncols) == want
        assert repr(nullspace(rows, ncols)) == repr(reference_nullspace(*want, ncols))


def test_empty_and_zero_inputs():
    assert rref([], 3) == ([], [])
    assert rref([[0, 0, 0], [0, 0, 0]], 3) == ([], [])
    assert rref([[], []], 0) == ([], [])
    assert sparse_rank([]) == sparse_rank([{}]) == 0
    assert nullspace([], 2) == [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]


def test_input_rows_are_not_modified():
    rows = [[2, 4], (Fraction(1, 2), 3)]
    copies = [list(row) for row in rows]
    rref(rows, 2)
    assert [list(row) for row in rows] == copies


@pytest.mark.parametrize("width", [1, 3])
def test_rows_of_the_wrong_width_raise(width):
    with pytest.raises(ValueError, match="expected 2"):
        rref([[1, 0], [0] * width], 2)
    with pytest.raises(ValueError):
        nullspace([[1] * width], 2)

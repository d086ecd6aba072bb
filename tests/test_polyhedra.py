"""Constraint systems, boundedness, integral-point enumeration, rank oracle."""

import random
from fractions import Fraction

import pytest

from relpoly.errors import (
    Infeasible,
    NotSatisfying,
    Unbounded,
    UnboundedWeightSlice,
    WeightMismatch,
)
from relpoly.modaction import weyl_dim
from relpoly.patterns import Pattern, constant_pattern, satisfies, weight_vector
from relpoly.polyhedra import (
    assemble,
    enumerate_integral,
    enumerate_integral_weight,
    face_dim_oracle,
    is_polytope,
    system_at,
)
from relpoly.relations import standard_set
from relpoly.selftest import random_c_pattern
from relpoly.tiling import min_face_dims


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


def test_counts_match_weyl_dims():
    C2 = standard_set(2, 1, "both")
    C3 = standard_set(3, 1, "both")
    assert len(enumerate_integral(C2, gt_base((1, 0))).points) == weyl_dim((1, 0))
    assert len(enumerate_integral(C3, gt_base((1, 1, 0))).points) == \
        weyl_dim((1, 1, 0))

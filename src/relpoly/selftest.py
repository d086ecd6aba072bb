"""Seeded random sweeps: face-dimension oracle equivalence, commutators, and
lattice-point counts against the Weyl product formula."""

import random
from fractions import Fraction

from .modaction import check_commutators, weyl_dim
from .patterns import Pattern
from .polyhedra import count_integral, enumerate_integral, face_dim_oracle, system_at
from .relations import _bounds, standard_set, vertices
from .tiling import min_face_dims

FACE_DIM_FAMILIES = (
    ("C1", 1, "both"),
    ("C2", 2, "both"),
    ("C1+", 1, "plus"),
    ("C2-", 2, "minus"),
    ("empty", 1, "empty"),
)

# Entry ranges [0, width] of the random C-patterns.
FACE_DIM_WIDTHS = (2, 3, 4)

COMMUTATOR_WEIGHTS = ((1, 0), (2, 0), (2, 1, 0), (1, 1, 0), (2, 1, 1, 0), (3, 2, 1, 0),
                      (4, 3, 2, 1, 0))

COUNT_WEIGHTS = ((3, 1, 0), (4, 2, 1, 0), (6, 4, 2, 1, 0), (5, 4, 2, 2, 1, 0),
                 (6, 5, 3, 2, 1, 0))


def gt_base(lam):
    """Highest-weight base pattern: row k holds the first k entries of lam."""
    return Pattern.from_rows([list(lam[:k]) for k in range(len(lam), 0, -1)])


def random_c_pattern(rng, C, width=4):
    """Random integer pattern in [0, width] repaired into a relation pattern.

    Each entry is lowered to the least value drawn at the vertices that
    reach it (itself included), which keeps entries integral and produces
    frequent ties (interesting tilings).
    """
    vals = {v: rng.randint(0, width) for v in vertices(C.n)}
    bounds = _bounds(C, vals)
    rows = [
        [Fraction(bounds[(k, i)][1]) for i in range(1, k + 1)]
        for k in range(C.n, 0, -1)
    ]
    return Pattern.from_rows(rows)


def face_dim_sweep(seed, count=200):
    """Compare the tile-counting dimensions with the rank oracle, n in [2, 12]."""
    rng = random.Random(seed)
    failures = []
    for idx in range(count):
        name, k, variant = FACE_DIM_FAMILIES[rng.randrange(len(FACE_DIM_FAMILIES))]
        n = rng.randint(2, 12)
        k_eff = min(k, n)
        C = standard_set(n, k_eff, variant)
        X = random_c_pattern(rng, C, rng.choice(FACE_DIM_WIDTHS))
        d, s, r = min_face_dims(C, X)
        got = tuple(
            face_dim_oracle(system_at(C, X, which), X)
            for which in ("pc", "lambda", "mu")
        )
        if got != (d, s, r):
            failures.append(
                {"instance": idx, "family": name, "n": n,
                 "pattern": str(X), "expected": [d, s, r], "oracle": list(got)}
            )
    return {"checked": count, "failures": failures}


def commutator_sweep():
    """Bracket identities on the standard finite modules and a generic base."""
    results = []
    for lam in COMMUTATOR_WEIGHTS:
        n = len(lam)
        C = standard_set(n, 1, "both")
        L = gt_base(lam)
        basis = enumerate_integral(C, L).points
        report = check_commutators(C, L, basis)
        results.append(
            {"module": f"C1 lambda={lam}", "checked": report.checked,
             "failures": [f[0] for f in report.failures]}
        )
    n = 3
    C = standard_set(n, n, "empty")
    L = Pattern.from_rows(
        [
            [Fraction(1, 2), Fraction(5, 7), Fraction(9, 11)],
            [Fraction(1, 5), Fraction(1, 3)],
            [Fraction(1, 7)],
        ]
    )
    sample = [L, L.shifted(2, 1, 1), L.shifted(1, 1, -1), L.shifted(2, 2, 2)]
    report = check_commutators(C, L, sample)
    results.append(
        {"module": "generic n=3", "checked": report.checked,
         "failures": [f[0] for f in report.failures]}
    )
    return results


def count_sweep():
    """count_integral on C1 modules against the Weyl product formula."""
    return [
        {"module": f"C1 lambda={lam}",
         "count": count_integral(standard_set(len(lam), 1, "both"), gt_base(lam)),
         "weyl_dim": weyl_dim(lam)}
        for lam in COUNT_WEIGHTS
    ]


def run_selftest(seed, count=200):
    face = face_dim_sweep(seed, count)
    comms = commutator_sweep()
    counts = count_sweep()
    ok = (not face["failures"] and all(not r["failures"] for r in comms)
          and all(r["count"] == r["weyl_dim"] for r in counts))
    return {
        "seed": seed,
        "face_dim": face,
        "commutators": comms,
        "counts": counts,
        "ok": ok,
    }

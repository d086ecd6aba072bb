"""Seeded random sweeps: face-dimension oracle equivalence, commutators, and
lattice-point counts against the Weyl product formula.

Every sweep returns records of one shape, and SWEEPS lists the sweeps in the
order `relpoly selftest` runs and prints them, each beside its line wording.
"""

import random
from collections import namedtuple
from fractions import Fraction
from itertools import groupby

from .modaction import check_commutators, weyl_dim
from .patterns import Pattern
from .polyhedra import count_integral, enumerate_integral, face_dim_oracle, system_at
from .relations import _bounds, standard_set, vertices
from .tiling import min_face_dims

# The number of random draws of `relpoly selftest` without --count.
DEFAULT_COUNT = 200

FACE_DIM_FAMILIES = (("C1", 1, "both"), ("C2", 2, "both"), ("C1+", 1, "plus"),
                     ("C2-", 2, "minus"), ("empty", 1, "empty"))

# Entry ranges [0, width] of the random C-patterns.
FACE_DIM_WIDTHS = (2, 3, 4)

COMMUTATOR_WEIGHTS = ((1, 0), (2, 0), (2, 1, 0), (1, 1, 0), (2, 1, 1, 0), (3, 2, 1, 0),
                      (4, 3, 2, 1, 0))

COUNT_WEIGHTS = ((3, 1, 0), (4, 2, 1, 0), (6, 4, 2, 1, 0), (5, 4, 2, 2, 1, 0),
                 (6, 5, 3, 2, 1, 0))


# One checked input: its relation family (with λ in the module sweeps), n, the
# input pattern's text, and the expected and computed answers.  It fails when
# got != expected.
Record = namedtuple("Record", "family n input expected got")


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
    return Pattern.from_rows([[Fraction(bounds[(k, i)][1]) for i in range(1, k + 1)]
                              for k in range(C.n, 0, -1)])


def face_dim_sweep(seed, count):
    """The tile-counting dimensions (d, s, r) against the rank oracle's
    (pc, lambda, mu), on count random C-patterns with n in [2, 12]."""
    rng = random.Random(seed)
    records = []
    for _ in range(count):
        name, k, variant = FACE_DIM_FAMILIES[rng.randrange(len(FACE_DIM_FAMILIES))]
        n = rng.randint(2, 12)
        C = standard_set(n, min(k, n), variant)
        X = random_c_pattern(rng, C, rng.choice(FACE_DIM_WIDTHS))
        expected = min_face_dims(C, X)
        got = tuple(face_dim_oracle(system_at(C, X, which), X)
                    for which in ("pc", "lambda", "mu"))
        records.append(Record(name, n, str(X), expected, got))
    return records


def _commutator_records(family, C, L, sample):
    # One record per sample vector; got is the (bracket, residual) of each
    # bracket identity that fails there.
    failed = {}
    for name, M, res in check_commutators(C, L, sample).failures:
        failed.setdefault(M, []).append((name, res))
    return [Record(family, C.n, str(M), (), tuple(failed.get(M, ()))) for M in sample]


def commutator_sweep():
    """Bracket identities on the standard finite modules and a generic base."""
    records = []
    for lam in COMMUTATOR_WEIGHTS:
        C, L = standard_set(len(lam), 1, "both"), gt_base(lam)
        records += _commutator_records(f"C1 lambda={lam}", C, L,
                                       enumerate_integral(C, L).points)
    L = Pattern.from_rows([[Fraction(1, 2), Fraction(5, 7), Fraction(9, 11)],
                           [Fraction(1, 5), Fraction(1, 3)], [Fraction(1, 7)]])
    sample = [L, L.shifted(2, 1, 1), L.shifted(1, 1, -1), L.shifted(2, 2, 2)]
    return records + _commutator_records("generic n=3", standard_set(3, 3, "empty"), L, sample)


def count_sweep():
    """count_integral on C1 modules against the Weyl product formula."""
    records = []
    for lam in COUNT_WEIGHTS:
        C, L = standard_set(len(lam), 1, "both"), gt_base(lam)
        records.append(Record(f"C1 lambda={lam}", C.n, str(L), weyl_dim(lam),
                              count_integral(C, L)))
    return records


def _failures(records):
    return sum(r.got != r.expected for r in records)


# The sweeps in order: (records of a seed and a count, the lines that sum
# them up).  Each failing record gets a line of its own under them.
SWEEPS = (
    (face_dim_sweep,
     lambda records: [f"face-dim oracle sweep: {len(records)} instances, "
                      f"{_failures(records)} failures"]),
    (lambda seed, count: commutator_sweep(),
     lambda records: [f"commutators {family}: {len(group)} vectors, {_failures(group)} failures"
                      for family, run in groupby(records, lambda r: r.family)
                      for group in [list(run)]]),
    (lambda seed, count: count_sweep(),
     lambda records: [f"counts {r.family}: {r.got} points, Weyl dimension {r.expected}"
                      for r in records]),
)


def run_selftest(seed, count):
    """(lines, ok): every sweep's lines, each followed by a line per failing
    record; ok when no record fails."""
    lines, ok = [], True
    for sweep, summary in SWEEPS:
        records = sweep(seed, count)
        lines += summary(records)
        for r in records:
            if r.got != r.expected:
                ok = False
                lines.append(f"  FAIL {r.family}, n={r.n}, input {r.input}: "
                             f"expected {r.expected}, got {r.got}")
    return lines, ok

"""Exact linear algebra over the rationals: reduced row echelon, rank, nullspace.

Elimination works on sparse integer rows, dicts from column to a nonzero int.
`sparse_rank` takes such rows; `rref` and `nullspace` convert each dense
input row once, scaled to integers by the lcm of its denominators.  Each row
is then reduced against an echelon basis keyed by leading column:
cross-multiply to clear the leading entry, then divide out the content (the
gcd of the entries), which leaves no remainder.  This is fraction-free
elimination (see E. H. Bareiss, Math. Comp. 22, 1968), and rows stay short
when the input is sparse.  When the two leading entries agree up to sign,
the common case on 0/+-1 rows, the step is a plain subtraction of rows, with
no gcd.  The rank is the pivot count of this forward pass, `_echelon`, the
one rank function: the face-dimension oracle hands it the rows it builds,
and `sparse_rank` hands it copies of the caller's rows.
Back-substitution, for `rref` and `nullspace` only, runs on the same integer
rows (`_reduced`).

``Fraction``s appear only in the results.  ``rref`` divides each reduced row
by its pivot entry.  ``nullspace`` reads each vector off the integer reduced
rows that meet its free column: O(rank) ``Fraction``s per vector, on a base
whose zeros are all one shared ``Fraction(0)``.  The reduced row echelon
form of a row space is unique, so the results do not depend on the order of
elimination.
"""

from fractions import Fraction
from itertools import compress
from math import gcd, lcm

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _integer_row(row, ncols):
    """The dense row as a new sparse dict of ints, with the same row space."""
    if len(row) != ncols:
        raise ValueError(f"row has {len(row)} entries, expected {ncols}")
    sparse = {c: row[c] for c in compress(range(ncols), row)}
    if not all(type(x) is int for x in sparse.values()):
        fracs = {c: Fraction(x) for c, x in sparse.items()}
        scale = lcm(*(x.denominator for x in fracs.values()))
        sparse = {c: int(x * scale) for c, x in fracs.items() if x}
    return sparse


def _eliminate(row, col, pivot_row):
    """Clear `col` from `row` with an integer multiple of `pivot_row`, in place.

    When the two entries in `col` agree up to sign, the common case on 0/+-1
    rows, it subtracts +-pivot_row with no gcd and no scaling, and the row may
    keep a content above 1.
    """
    a, b = pivot_row[col], row[col]
    unit = a == b or a == -b
    if unit:
        b //= a
    else:
        g = gcd(a, b)
        a, b = a // g, b // g
        if a != 1:
            for c in row:
                row[c] *= a
    for c, x in pivot_row.items():
        y = row.get(c, 0) - b * x
        if y:
            row[c] = y
        else:
            del row[c]
    if not unit:
        g = gcd(*row.values())  # the content; 0 when the row is cleared
        if g > 1:
            for c in row:
                row[c] //= g


def _echelon(rows):
    """Echelon basis of the row space: {leading column: int row}.

    The rows are sparse int rows, which it reduces in place.  Their order
    leaves the rank as it is, but sets how long the pivot chains get.
    """
    basis = {}
    pivot_of = basis.get
    for row in rows:
        while row:
            lead = min(row)
            pivot_row = pivot_of(lead)
            if pivot_row is None:
                basis[lead] = row
                break
            if len(row) < len(pivot_row):
                # Keep the shorter row as the pivot, so that fill stays low.
                basis[lead], row, pivot_row = row, pivot_row, row
            _eliminate(row, lead, pivot_row)
    return basis


def _reduced(rows, ncols):
    """The reduced row echelon form as {pivot column: int row}: each row an
    integer multiple of the reduced row, and zero in every pivot column but
    its own.  Every row must have exactly `ncols` entries."""
    basis = _echelon(_integer_row(row, ncols) for row in rows)
    # Back-substitution, from the last pivot up.  A reduced row is zero in
    # every pivot column but its own, so clearing one column fills no other.
    reduced = {}
    for p in sorted(basis, reverse=True):
        row = basis[p]
        for q in [c for c in row if c != p and c in reduced]:
            _eliminate(row, q, reduced[q])
        reduced[p] = row
    return reduced


def rref(rows, ncols):
    """Reduced row echelon form.  Returns (reduced rows, pivot column list).

    Every row must have exactly `ncols` entries.
    """
    reduced = _reduced(rows, ncols)
    pivots = sorted(reduced)
    out = []
    for p in pivots:
        row = reduced[p]
        lead = row[p]
        dense = [_ZERO] * ncols
        for c, x in row.items():
            dense[c] = Fraction(x, lead)
        out.append(dense)
    return out, pivots


def sparse_rank(rows):
    """Rank of sparse rows {column: nonzero int}, which are left unchanged."""
    return len(_echelon(dict(row) for row in rows))


def nullspace(rows, ncols):
    """Deterministic nullspace basis, one vector per free column (ascending).

    Each vector is normalized so its first nonzero coordinate is +1.  Its
    zero coordinates are all the one object `_ZERO`.
    """
    reduced = _reduced(rows, ncols)
    # The pivots whose reduced rows meet each free column, ascending.  A
    # reduced row is zero left of its pivot, so the least of them holds the
    # vector's first nonzero coordinate.
    meets = {}
    for p in sorted(reduced):
        for c in reduced[p]:
            if c != p:
                meets.setdefault(c, []).append(p)
    basis = []
    for f in range(ncols):
        if f in reduced:
            continue
        # Unnormalised, coordinate f is 1 and coordinate p is
        # -row_p[f] / row_p[p]; each is divided by the first, -b / a.
        vec = [_ZERO] * ncols
        ps = meets.get(f)
        if ps is None:
            vec[f] = _ONE
        else:
            first = reduced[ps[0]]
            a, b = first[ps[0]], first[f]
            vec[f] = Fraction(-a, b)
            for p in ps:
                row = reduced[p]
                vec[p] = Fraction(row[f] * a, row[p] * b)
        basis.append(tuple(vec))
    return basis

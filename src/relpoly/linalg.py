"""Exact linear algebra over the rationals: reduced row echelon, rank, nullspace.

Elimination works on sparse integer rows, dicts from column to a nonzero int.
`sparse_rank` takes such rows; `rref` and `nullspace` convert each dense
input row once.  Each row is scaled to coprime integers.  It is then
reduced against an echelon basis keyed by leading column: cross-multiply to
clear the leading entry, then divide out the content (the gcd of the
entries), which leaves no remainder.  This is fraction-free elimination (see
E. H. Bareiss, Math. Comp. 22, 1968), and rows stay short when the input is
sparse.  The rank is the pivot count of this forward pass.  Back-substitution,
for `rref` and `nullspace` only, runs on the same integer rows.

``Fraction``s appear only in the results: the reduced rows of ``rref`` and
the vectors of ``nullspace``.  The reduced row echelon form of a row space is
unique, so the results do not depend on the order of elimination.
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


def _primitive(row):
    """Divide out the row's content, in place; return the row."""
    g = gcd(*row.values())
    if g > 1:
        for c in row:
            row[c] //= g
    return row


def _eliminate(row, col, pivot_row):
    """Clear `col` from `row` with an integer multiple of `pivot_row`, in place."""
    a, b = pivot_row[col], row[col]
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
    if row:
        _primitive(row)


def _echelon(rows):
    """Echelon basis of the row space: {leading column: primitive int row}.

    The rows are sparse int rows, which it reduces in place.
    """
    basis = {}
    for row in rows:
        _primitive(row)
        while row:
            lead = min(row)
            pivot_row = basis.get(lead)
            if pivot_row is None:
                basis[lead] = row
                break
            if len(row) < len(pivot_row):
                # Keep the shorter row as the pivot, so that fill stays low.
                basis[lead], row, pivot_row = row, pivot_row, row
            _eliminate(row, lead, pivot_row)
    return basis


def rref(rows, ncols):
    """Reduced row echelon form.  Returns (reduced rows, pivot column list).

    Every row must have exactly `ncols` entries.
    """
    basis = _echelon(_integer_row(row, ncols) for row in rows)
    pivots = sorted(basis)
    # Back-substitution, from the last pivot up.  A reduced row is zero in
    # every pivot column but its own, so clearing one column fills no other.
    reduced = {}
    for p in reversed(pivots):
        row = basis[p]
        for q in [c for c in row if c != p and c in reduced]:
            _eliminate(row, q, reduced[q])
        reduced[p] = row
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

    Each vector is normalized so its first nonzero coordinate is +1.
    """
    reduced, pivots = rref(rows, ncols)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [_ZERO] * ncols
        vec[f] = _ONE
        for row, p in zip(reduced, pivots):
            if row[f]:
                vec[p] = -row[f]
        lead = next(x for x in vec if x)
        if lead != 1:
            vec = [x / lead if x else x for x in vec]
        basis.append(tuple(vec))
    return basis

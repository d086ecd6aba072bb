"""Triangular patterns with exact entries and the pointwise predicates.

An entry is ``base(label) + offset`` where the offset is an exact rational and
the label stands for a fixed irrational base value, enclosed by a certified
rational interval.  Offsets and enclosure bounds are ``int`` exactly when
they are integral and ``Fraction`` otherwise: the values, their hashes and
their ``str`` are those of the Fractions, but int arithmetic skips
Fraction's Python-level methods on the hot paths.  Two entries are equal iff
labels and offsets coincide; their difference is an integer iff the labels
coincide and the offset difference is an integer.  Order between different
labels is decided through the intervals and raises when the intervals
overlap.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm

from .errors import (
    IncomparableEntries,
    NonRationalWeight,
    SizeMismatch,
)
from .relations import _same_row_pairs

# Default enclosure width for labeled entries: 2**-64.
ENCLOSURE_BITS = 64


def _frac(x):
    """x as an exact rational: an int when it is integral, else a Fraction."""
    if type(x) is int:
        return x
    if isinstance(x, (int, str)):
        x = Fraction(x)
    elif not isinstance(x, Fraction):
        raise TypeError(f"cannot coerce {x!r} to an exact rational")
    return x.numerator if x.denominator == 1 else x


@dataclass(frozen=True)
class Entry:
    offset: Fraction  # int when integral (see _frac)
    label: str = None
    lo: Fraction = field(default=None, compare=False)  # int when integral
    hi: Fraction = field(default=None, compare=False)  # int when integral
    _hash = None  # not a field: the cached hash, set on first use

    def __post_init__(self):
        object.__setattr__(self, "offset", _frac(self.offset))
        if self.label is not None:
            if self.lo is None or self.hi is None:
                raise ValueError("labeled entry requires an enclosing interval")
            object.__setattr__(self, "lo", _frac(self.lo))
            object.__setattr__(self, "hi", _frac(self.hi))
            if self.lo > self.hi:
                raise ValueError("empty enclosure interval")

    def __eq__(self, other):
        # The dataclass equality of (offset, label).  An offset is an int
        # exactly when it is integral, so offsets of two types differ, and
        # Fractions are compared by their reduced numerators and
        # denominators: Fraction's own == would first check the type of
        # other against numbers.Rational.
        if other.__class__ is not self.__class__:
            return NotImplemented
        p, q = self.offset, other.offset
        if self.label != other.label or p.__class__ is not q.__class__:
            return False
        if p.__class__ is int:
            return p == q
        return p.numerator == q.numerator and p.denominator == q.denominator

    def __hash__(self):
        # The dataclass hash of (offset, label), computed on first use and
        # kept: Fraction hashes are costly, and a tableau step rehashes every
        # entry of the new tableau but changes only one of them.  A fresh
        # Entry reads the class's None, so nothing is raised.
        h = self._hash
        if h is None:
            h = hash((self.offset, self.label))
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self):
        # Leave the cached hash behind: str hashes, and so those of labeled
        # entries, differ from one process to the next.
        return {"offset": self.offset, "label": self.label, "lo": self.lo, "hi": self.hi}

    @classmethod
    def rational(cls, x):
        if isinstance(x, Entry):
            return x
        return cls(_frac(x))

    @classmethod
    def _unlabeled(cls, offset):
        """An unlabeled Entry on an offset that is already exact (int iff
        integral), without the constructor's coercion."""
        e = object.__new__(cls)
        e.__dict__.update(offset=offset, label=None, lo=None, hi=None)
        return e

    @classmethod
    def labeled(cls, name, lo, hi, offset=0):
        return cls(_frac(offset), name, _frac(lo), _frac(hi))

    @classmethod
    def sqrt(cls, m, offset=0):
        """Labeled entry for the square root of a nonsquare integer m > 0,
        with a 2**-64-wide certified enclosure."""
        if m <= 0 or isqrt(m) ** 2 == m:
            raise ValueError(f"sqrt label wants a positive nonsquare, got {m}")
        scale = 1 << ENCLOSURE_BITS
        a = isqrt(m * scale * scale)
        return cls.labeled(f"sqrt{m}", Fraction(a, scale), Fraction(a + 1, scale), offset)

    @property
    def is_rational(self):
        return self.label is None

    def value_bounds(self):
        if self.label is None:
            return self.offset, self.offset
        return self.lo + self.offset, self.hi + self.offset

    def add(self, q):
        if type(q) is not int:
            return Entry(self.offset + _frac(q), self.label, self.lo, self.hi)
        # An int step keeps the label and enclosure, checked when self was
        # made, and the offset's type (int iff integral), so the new Entry
        # skips the constructor.
        e = object.__new__(Entry)
        e.__dict__.update(offset=self.offset + q, label=self.label, lo=self.lo, hi=self.hi)
        return e

    def diff(self, other):
        """Exact difference as a rational, or None when labels differ."""
        if self.label != other.label:
            return None
        return self.offset - other.offset

    def integer_diff(self, other):
        d = self.diff(other)
        return d is not None and d.denominator == 1

    def __str__(self):
        if self.label is None:
            return str(self.offset)
        if self.offset == 0:
            return self.label
        sign = "+" if self.offset > 0 else "-"
        return f"{self.label}{sign}{abs(self.offset)}"


def cmp_entries(a, b):
    """-1, 0, 1 comparison; raises IncomparableEntries when undecidable."""
    if a.label == b.label:
        p, q = a.offset, b.offset
        if p.__class__ is not int or q.__class__ is not int:
            p, q = p.numerator * q.denominator, q.numerator * p.denominator
        return (p > q) - (p < q)
    alo, ahi = a.value_bounds()
    blo, bhi = b.value_bounds()
    if ahi < blo:
        return -1
    if alo > bhi:
        return 1
    raise IncomparableEntries(f"cannot order {a} and {b} from their intervals")


def separation(a, b):
    """Certified positive lower bound for |a - b| of distinct entries."""
    if a.label == b.label:
        d = abs(a.offset - b.offset)
        if d == 0:
            raise ValueError("entries are equal")
        return d
    alo, ahi = a.value_bounds()
    blo, bhi = b.value_bounds()
    gap = max(blo - ahi, alo - bhi)
    if gap <= 0:
        raise IncomparableEntries(f"cannot separate {a} and {b}")
    return gap


def coord_index(n, v):
    """Index of vertex (k,i) in the serialization order (top row first)."""
    k, i = v
    return (n * (n + 1) - k * (k + 1)) // 2 + (i - 1)


@lru_cache(maxsize=64)
def row_starts(n):
    """Row offsets for k = 0..n: starts[k] + i is coord_index(n, (k, i)).
    A tuple, cached per n: the pointwise predicates and the oracle ask for
    it on every call."""
    return tuple(coord_index(n, (k, 0)) for k in range(n + 1))


@dataclass(frozen=True)
class Pattern:
    # The two fields are slots, so that a point is built with two slot stores
    # and no dict.  The cached hash and weights are not fields: each reads
    # through the class's None until its first write makes the instance dict.
    __slots__ = ("n", "entries", "__dict__")
    n: int
    entries: tuple  # Entry per vertex, serialization order (row n first)
    _hash = None  # not a field: the cached hash, set on first use
    _weight_vector = None  # not a field: weight_vector's value, set on first use

    def __post_init__(self):
        if len(self.entries) != self.n * (self.n + 1) // 2:
            raise ValueError("wrong number of entries")
        entries = tuple(map(Entry.rational, self.entries))
        object.__setattr__(self, "entries", entries)
        enclosures = {}
        for e in entries:
            if e.label is None:
                continue
            if enclosures.setdefault(e.label, (e.lo, e.hi)) != (e.lo, e.hi):
                raise ValueError(f"label {e.label!r} is given two different enclosures")

    @classmethod
    def _from_entries(cls, n, entries):
        """A Pattern on a tuple of n(n+1)/2 Entries, taken as it is, without
        the length check and coercion of the public constructor."""
        P = object.__new__(cls)
        _set_n(P, n)
        _set_entries(P, entries)
        return P

    def __hash__(self):
        # Computed on first use, not in __post_init__: most enumerated points
        # are never hashed, and hashing every entry of every point would slow
        # enumeration down.  Read like Entry's, through the class's None.
        h = self._hash
        if h is None:
            h = hash((self.n, self.entries))
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self):
        # Leave the cached hash behind: str hashes, and so those of labeled
        # entries, differ from one process to the next.  The cached weight
        # vector stays behind too.
        return {"n": self.n, "entries": self.entries}

    def __setstate__(self, state):
        # The state is __getstate__'s dict; its two values go to the slots.
        _set_n(self, state["n"])
        _set_entries(self, state["entries"])

    @classmethod
    def from_rows(cls, rows):
        """Build from rows listed top row (length n) first."""
        n = len(rows[0])
        if [len(r) for r in rows] != list(range(n, 0, -1)):
            raise ValueError("rows must have lengths n, n-1, ..., 1")
        flat = [Entry.rational(x) for row in rows for x in row]
        return cls(n, tuple(flat))

    def __getitem__(self, v):
        return self.entries[coord_index(self.n, v)]

    def row(self, k):
        start = coord_index(self.n, (k, 1))
        return list(self.entries[start:start + k])

    def rows(self):
        return [self.row(k) for k in range(self.n, 0, -1)]

    def with_entry(self, v, entry):
        idx = coord_index(self.n, v)
        ents = list(self.entries)
        ents[idx] = Entry.rational(entry)
        return Pattern(self.n, tuple(ents))

    def shifted(self, k, i, delta):
        """Add an integer to entry (k,i).  The other entries are taken as they
        are, with their cached hashes."""
        n, ents = self.n, self.entries
        idx = (n * (n + 1) - k * (k + 1)) // 2 + i - 1  # coord_index(n, (k, i))
        return Pattern._from_entries(
            n, ents[:idx] + (ents[idx].add(delta),) + ents[idx + 1:])

    def offsets_key(self):
        return tuple(e.offset for e in self.entries)

    def __str__(self):
        return " | ".join(
            " ".join(str(e) for e in row) for row in self.rows()
        )


# The slot stores of Pattern's fields, past its frozen __setattr__.
_set_n, _set_entries = Pattern.n.__set__, Pattern.entries.__set__


def constant_pattern(n, value=0):
    return Pattern(n, tuple(Entry.rational(value) for _ in range(n * (n + 1) // 2)))


def _check_sizes(C, X):
    if C.n != X.n:
        raise SizeMismatch(f"relation set has n={C.n}, pattern has n={X.n}")


def tight_arcs(C, X):
    """The relations of C with x_src = x_dst, in C's order, or None when
    x_src < x_dst for one of them, in one certified pass.  The first relation
    that is violated or whose order is undecided ends the pass."""
    _check_sizes(C, X)
    ents, starts = X.entries, row_starts(X.n)
    tight = []
    for src, dst in C:
        a, b = ents[starts[src[0]] + src[1]], ents[starts[dst[0]] + dst[1]]
        if a.label is None and b.label is None:
            # Offsets are exact, an int iff integral: compare them directly.
            p, q = a.offset, b.offset
            if p == q:
                tight.append((src, dst))
            elif p < q:
                return None
        elif a == b:
            tight.append((src, dst))
        elif cmp_entries(a, b) < 0:
            return None
    return tight


def is_c_pattern(C, X):
    """x_src >= x_dst for every relation, with certified order."""
    return tight_arcs(C, X) is not None


def satisfies(C, L):
    """l_src - l_dst is a nonnegative integer for every relation.

    In int arithmetic: it is one iff the labels are equal, the offsets have
    the same reduced denominator, and their numerators differ by a
    nonnegative multiple of it.  Two int offsets need only p >= q."""
    _check_sizes(C, L)
    ents, starts = L.entries, row_starts(L.n)
    for src, dst in C:
        a, b = ents[starts[src[0]] + src[1]], ents[starts[dst[0]] + dst[1]]
        if a.label != b.label:
            return False
        p, q = a.offset, b.offset
        if p.__class__ is int and q.__class__ is int:
            if p < q:
                return False
            continue
        den = p.denominator
        if q.denominator != den:
            return False
        d = p.numerator - q.numerator
        if d < 0 or d % den:
            return False
    return True


def is_realization(C, L):
    """satisfies C, and same-row integer differences match components."""
    if not satisfies(C, L):
        return False
    return all(L[(k, i)].integer_diff(L[(k, j)]) == joined
               for k, i, j, joined in _same_row_pairs(C))


def noncritical_at(C, M):
    """No zero of m_ki - m_kj + j - i within a component, below the top row.
    The zero set is symmetric in i and j, so the pairs i < j suffice."""
    _check_sizes(C, M)
    for k, i, j, joined in _same_row_pairs(C):
        if joined:
            d = M[(k, i)].diff(M[(k, j)])
            if d is not None and d + j - i == 0:
                return False
    return True


def _offset_sum(entries):
    """The sum of the entries' offsets as ints (num, den), over the lcm of
    their denominators."""
    offsets = [e.offset for e in entries]
    if all(x.__class__ is int for x in offsets):
        return sum(offsets), 1
    den = lcm(*(x.denominator for x in offsets))
    return sum(x.numerator * (den // x.denominator) for x in offsets), den


def row_sum(X, k):
    if not 1 <= k <= X.n:
        raise ValueError(f"row {k} out of range")
    row = X.row(k)
    for e in row:
        if not e.is_rational:
            raise NonRationalWeight(f"labeled entry {e} in row {k}")
    return Fraction(*_offset_sum(row))


def _weights(X, first, last):
    """(w_first, ..., w_last), w_k = R_k - R_{k-1}, from one offset sum per
    row; labels must cancel between the two rows of each weight."""
    ents, starts = X.entries, row_starts(X.n)
    spans = [(starts[k] + 1, starts[k] + k + 1) for k in range(first - 1, last + 1)]
    offsets = [e.offset for e in ents if e.label is None and e.offset.__class__ is int]
    if len(offsets) == len(ents):
        # Unlabeled int offsets: plain int row sums, one Fraction per weight.
        sums = [sum(offsets[a:b]) for a, b in spans]
        return tuple(Fraction(a - c) for c, a in zip(sums, sums[1:]))
    rows = [ents[a:b] for a, b in spans]
    if any(e.label for e in ents):
        labels = [sorted(e.label for e in row if e.label) for row in rows]
        for k, upper, lower in zip(range(first, last + 1), labels[1:], labels):
            if upper != lower:
                raise NonRationalWeight(f"labels do not cancel in weight {k}")
    sums = [_offset_sum(row) for row in rows]
    return tuple(Fraction(a - c) if b == d == 1 else Fraction(a * d - c * b, b * d)
                 for (c, d), (a, b) in zip(sums, sums[1:]))


def weight(X, k):
    """w_k = R_k - R_{k-1}; labels must cancel between the two rows."""
    if not 1 <= k <= X.n:
        raise ValueError(f"row {k} out of range")
    return _weights(X, k, k)[0]


def weight_vector(X):
    """(w_1, ..., w_n), each row summed once, and kept on X: a "mu" oracle
    job reads X's weights for its pins and again to check them, and the
    second call returns the same tuple.  Nothing is kept when the labels do
    not cancel, so every call raises."""
    w = X._weight_vector
    if w is None:
        w = _weights(X, 1, X.n)
        object.__setattr__(X, "_weight_vector", w)
    return w

"""Exact generator action on formal combinations of integral tableaux.

The raising, lowering and diagonal generators act on a tableau through
rational coefficient formulas in its entries; tableaux produced outside the
distinguished basis are treated as zero (that convention is what closes the
action for admissible relation sets), or raise OutOfBasisLeak on request when
probing non-admissible sets.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import (
    CriticalDenominator,
    LabeledEntryUnsupported,
    NotDominant,
    NotSatisfying,
    OutOfBasisLeak,
)
from .patterns import satisfies as _satisfies


@dataclass(frozen=True)
class LinComb:
    """Formal rational combination of patterns; zero coefficients dropped."""

    terms: tuple = ()  # ((Pattern, Fraction), ...) sorted by offsets

    @classmethod
    def build(cls, items):
        acc = {}
        for pattern, coeff in items:
            c = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
            if pattern in acc:
                c += acc[pattern]
            if c:
                acc[pattern] = c
            elif pattern in acc:
                del acc[pattern]
        return cls._sorted(acc.items())

    @classmethod
    def _sorted(cls, items):
        # Terms already distinct, with nonzero Fraction coefficients.
        return cls(tuple(sorted(items, key=lambda t: t[0].offsets_key())))

    @classmethod
    def single(cls, pattern, coeff=1):
        return cls.build([(pattern, coeff)])

    def __add__(self, other):
        return LinComb.build(list(self.terms) + list(other.terms))

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = Fraction(c)
        return LinComb.build([(p, x * c) for p, x in self.terms])

    def is_zero(self):
        return not self.terms

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({c})*[{p}]" for p, c in self.terms)


def _scaled_rows(M, k, other):
    """Rows k and other of M as ints, scaled by the common denominator D of
    their offsets: (D, row k, row other).  The factors of the action formulas
    are then ints, D times their values, and each coefficient is one
    Fraction.  Row 0 is empty; a labeled entry in either row raises."""
    n, entries = M.n, M.entries
    top = n * (n + 1)  # row r starts at (top - r * (r + 1)) // 2, as in coord_index
    a, b = (top - k * (k + 1)) // 2, (top - other * (other + 1)) // 2
    qs = [e.offset for e in entries[a:a + k] + entries[b:b + other] if e.label is None]
    if len(qs) < k + other:
        raise LabeledEntryUnsupported(
            "generator action needs rational entries in the touched rows")
    D = lcm(*[q.denominator for q in qs])
    if D == 1:  # every offset integral, so an int
        return 1, qs[:k], qs[k:]
    ints = [q.numerator * (D // q.denominator) for q in qs]
    return D, ints[:k], ints[k:]


def _act_step(k, M, other):
    """The raising (other = k+1) or lowering (other = k-1) generator.  Entry
    (k,i) moves by delta = other - k, with coefficient -delta times the
    product over row other of m_i - o_j + j - i, over the product over
    j != i of m_i - m_j + j - i.  On the scaled rows a factor
    m_i - o_j + (j - i)D is (m_i - iD) - (o_j - jD), so each row is shifted
    once, by -jD at place j.

    The terms come out in offsets_key order with no sort.  The targets of i
    and i' > i differ first at the flat index of (k, i), where the target of
    i has moved by delta: a raise lists i = k..1, a lower i = 1..k.  The
    denominators are still taken for i = 1..k, so the first critical (i, j)
    raises."""
    D, m, o = _scaled_rows(M, k, other)
    m = [x - j * D for j, x in enumerate(m, 1)]
    o = [x - j * D for j, x in enumerate(o, 1)]
    delta = other - k
    # The sign -delta, and other factors over k - 1: D**2 too large for a raise.
    scale = -delta * D ** (delta + 1)
    items = []
    for i, a in enumerate(m, 1):
        num = 1
        for b in o:
            num *= a - b
        den = scale
        for j, b in enumerate(m, 1):
            if j != i:
                if a == b:
                    raise CriticalDenominator(k, i, j)
                den *= a - b
        if num:
            items.append((M.shifted(k, i, delta), Fraction(num, den)))
    if delta > 0:
        items.reverse()
    return LinComb(tuple(items))  # one term per i, each nonzero


def act_raise(k, M):
    """Raising generator between rows k and k+1."""
    if not 1 <= k <= M.n - 1:
        raise ValueError(f"raise index {k} out of range 1..{M.n - 1}")
    return _act_step(k, M, k + 1)


def act_lower(k, M):
    """Lowering generator between rows k+1 and k."""
    if not 1 <= k <= M.n - 1:
        raise ValueError(f"lower index {k} out of range 1..{M.n - 1}")
    return _act_step(k, M, k - 1)


def act_cartan(k, M):
    """Diagonal generator: multiplies by the kth weight of the tableau."""
    if not 1 <= k <= M.n:
        raise ValueError(f"cartan index {k} out of range 1..{M.n}")
    D, m, o = _scaled_rows(M, k, k - 1)
    w = Fraction(sum(m) - sum(o), D)  # weight(M, k) on rational rows
    return LinComb(((M, w),) if w else ())


RAISE, LOWER, CARTAN = "raise", "lower", "cartan"


def _act_one(gen, M):
    kind, k = gen
    if kind == RAISE:
        return act_raise(k, M)
    if kind == LOWER:
        return act_lower(k, M)
    if kind == CARTAN:
        return act_cartan(k, M)
    raise ValueError(f"unknown generator kind {kind!r}")


def act_in_basis(C, L, gen, v, strict=False):
    """Linear extension of a generator with the basis-membership filter.

    Terms landing outside the basis are treated as zero.  With strict=True
    the first of them, in the order of v's terms and then of the
    generator's terms on each, raises OutOfBasisLeak with its target and
    its coefficient in the result.
    """
    for pattern, _ in v.terms:
        if not _satisfies(C, pattern):
            raise NotSatisfying("input term outside the basis")
    items = []
    for pattern, coeff in v.terms:
        for target, c in _act_one(gen, pattern).terms:
            if _satisfies(C, target):
                items.append((target, c * coeff))
            elif strict:
                raise OutOfBasisLeak(target, c * coeff)
    return LinComb.build(items)


@dataclass(frozen=True)
class CommutatorReport:
    checked: int
    failures: tuple = ()

    @property
    def ok(self):
        return not self.failures


def check_commutators(C, L, sample):
    """Verify the bracket identities of the generator action on each sample.

    Checked per basis tableau: [raise_k, lower_k] = cartan_k - cartan_{k+1};
    cartan brackets scale raise/lower by the usual +/-1 pattern; mixed and
    distant same-type brackets vanish.

    Vectors are pairs (den, {basis position: int numerator}) standing for
    the coefficients num/den, so the brackets run in int arithmetic.
    Tableaux get a position the first time they are met (None outside the
    basis).  Each position keeps a table {generator: column}, and the column
    of a generator there is built the first time a bracket needs it, so a
    sample without a finite basis is fine.
    Every residual goes through one helper, combine, once per bracket.  The
    cartan brackets are read off one weight table: each position's weight
    vector is read once off its n cartan columns (cartan_j multiplies a
    tableau by w_j), and a raise or lower column passes all n of its cartan
    brackets when every term's weight vector is that of the position moved
    by the bracket's constant.  Only a column that does not gets its n
    cartan residuals, each through bracket and combine like every other
    bracket.  A position whose cartan column has a term off its diagonal has
    no weight vector (None), so every raise or lower column at it, or with a
    term at it, fails the weight test and gets its residuals.  A distant
    same-type bracket is computed at both orders, [kind_k, kind_l] and
    [kind_l, kind_k], each through bracket; by the second every column it
    reads is built.
    """
    n = L.n
    failures = []
    checked = 0
    patterns = []
    columns = []  # per position, {gen: its column there}
    index = {}
    weight_vectors = {}

    def locate(P):
        try:
            return index[P]
        except KeyError:
            pos = None
            if _satisfies(C, P):
                pos = len(patterns)
                patterns.append(P)
                columns.append({})
            index[P] = pos
            return pos

    def column(gen, j):
        cols = columns[j]
        col = cols.get(gen)
        if col is None:
            kept = {}
            for target, c in _act_one(gen, patterns[j]).terms:
                t = locate(target)
                if t is not None:
                    kept[t] = c
            den = lcm(*[c.denominator for c in kept.values()])
            col = cols[gen] = (
                den, {t: c.numerator * (den // c.denominator) for t, c in kept.items()})
        return col

    def combine(parts):
        # The sum of c * nums / den over (int c, den, nums) parts, over the
        # lcm of their denominators, with zero coefficients dropped.
        common = lcm(*[d for _, d, _ in parts])
        acc = {}
        get = acc.get
        for c, d, nums in parts:
            c *= common // d
            for t, a in nums.items():
                acc[t] = get(t, 0) + a * c
        return common, {t: a for t, a in acc.items() if a}

    def bracket(g1, g2, pos):
        # The parts of [g1, g2] e_pos for combine: g1 g2 e_pos, then
        # -g2 g1 e_pos, each a sum over the terms of a column at pos.
        # Columns are built in the order a composition of act_in_basis calls
        # acts on the terms, so the first error raised is the one it would
        # raise: g2 at pos, g1 at each of its terms, then g1 at pos, g2 at
        # each of its terms.  A column already built is read straight off
        # its position's table.
        parts = []
        here = columns[pos]
        for a, b, sign in ((g1, g2, 1), (g2, g1, -1)):
            den, col = here.get(b) or column(b, pos)
            for t, c in col.items():
                d, nums = columns[t].get(a) or column(a, t)
                parts.append((sign * c, den * d, nums))
        return parts

    def weights(t):
        # The weight vector of position t: w_j for j = 1..n as (den, num),
        # read off the cartan_j column and in lowest terms, so equal vectors
        # are equal tuples.  None when a cartan column has a term off its
        # diagonal; all n columns are built either way.
        w = weight_vectors.get(t, False)
        if w is False:
            w = []
            for j in range(1, n + 1):
                den, nums = column((CARTAN, j), t)
                w.append((den, nums.get(t, 0)) if len(nums) == (t in nums) else None)
            w = weight_vectors[t] = None if None in w else tuple(w)
        return w

    def moved(w, k, sign):
        # The weight vector w + sign * (e_k - e_{k+1}), in the form of weights().
        (d, a), (e, b) = w[k - 1:k + 1]
        return w[:k - 1] + ((d, a + sign * d), (e, b - sign * e)) + w[k + 1:]

    def residual(vec):
        den, nums = vec
        return str(LinComb.build((patterns[j], Fraction(c, den)) for j, c in nums.items()))

    for M in sample:
        pos = locate(M)
        if pos is None:
            raise NotSatisfying("input term outside the basis")
        checked += 1
        for k in range(1, n):
            res = combine(bracket((RAISE, k), (LOWER, k), pos)  # before the cartan columns
                          + [(-1, *column((CARTAN, k), pos)), (1, *column((CARTAN, k + 1), pos))])
            if res[1]:
                failures.append((f"[raise{k},lower{k}]", M, residual(res)))
        # Every cartan bracket with raise_k at pos holds iff each term of the
        # raise_k column moves the weight vector of pos by e_k - e_{k+1}, and
        # likewise lower_k by e_{k+1} - e_k.  A None weight vector, at pos
        # or at a term, fails.
        failing = []
        for k in range(1, n):  # weights(pos) read in here: n = 1 has no bracket
            w = weights(pos)
            for kind, sign in ((RAISE, 1), (LOWER, -1)):
                want = w and moved(w, k, sign)  # None when w is
                if want is None or [t for t in column((kind, k), pos)[1] if weights(t) != want]:
                    failing.append((kind, k, sign))
        for j in range(1, n + 1):
            for kind, k, sign in failing:
                s = sign * ((j == k) - (j == k + 1))  # [cartan_j, g] e = s * g e
                res = combine(bracket((CARTAN, j), (kind, k), pos)
                              + [(-s, *column((kind, k), pos))])
                if res[1]:
                    failures.append((f"[cartan{j},{kind}{k}]", M, residual(res)))
        for k in range(1, n):
            for l in range(1, n):
                if abs(k - l) >= 2:
                    for kind in (RAISE, LOWER):
                        res = combine(bracket((kind, k), (kind, l), pos))
                        if res[1]:
                            failures.append((f"[{kind}{k},{kind}{l}]", M, residual(res)))
                if k != l:
                    res = combine(bracket((RAISE, k), (LOWER, l), pos))
                    if res[1]:
                        failures.append((f"[raise{k},lower{l}]", M, residual(res)))
    return CommutatorReport(checked, tuple(failures))


def weyl_dim(lam):
    """Dimension of the simple module with integral dominant highest weight."""
    lam = [Fraction(x) for x in lam]
    if any(x.denominator != 1 for x in lam):
        raise NotDominant("weight entries must be integers")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise NotDominant("weight entries must be weakly decreasing")
    n = len(lam)
    dim = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            dim *= Fraction(lam[i] - lam[j] + j - i, j - i)
    assert dim.denominator == 1
    return int(dim)

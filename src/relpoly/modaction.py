"""Exact generator action on formal combinations of integral tableaux.

The raising, lowering and diagonal generators act on a tableau through
rational coefficient formulas in its entries; tableaux produced outside the
distinguished basis are treated as zero (that convention is what closes the
action for admissible relation sets), or raise OutOfBasisLeak on request when
probing non-admissible sets.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod

from .errors import (
    CriticalDenominator,
    LabeledEntryUnsupported,
    NotDominant,
    NotSatisfying,
    OutOfBasisLeak,
)
from .patterns import weight
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
        return cls(tuple(sorted(acc.items(), key=lambda t: t[0].offsets_key())))

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


def _require_rational_rows(M, rows):
    for k in rows:
        if not 1 <= k <= M.n:
            continue
        for e in M.row(k):
            if not e.is_rational:
                raise LabeledEntryUnsupported(
                    "generator action needs rational entries in the touched rows"
                )


def _scaled_rows(M, k, other):
    """Rows k and other of M as ints, scaled by the common denominator D of
    their offsets: (D, row k, row other).  The factors of the action formulas
    are then ints, D times their values, and each coefficient is one
    Fraction."""
    rows = [[e.offset for e in M.row(r)] for r in (k, other)]
    D = lcm(*(q.denominator for row in rows for q in row))
    m, o = ([q.numerator * (D // q.denominator) for q in row] for row in rows)
    return D, m, o


def _row_denominator(k, m, i, D):
    """D**(k-1) times the product over j != i of m_i - m_j + j - i."""
    den = 1
    for j in range(1, k + 1):
        if j == i:
            continue
        f = m[i - 1] - m[j - 1] + (j - i) * D
        if f == 0:
            raise CriticalDenominator(k, i, j)
        den *= f
    return den


def _act_step(k, M, other):
    """The raising (other = k+1) or lowering (other = k-1) generator.  Entry
    (k,i) moves by delta = other - k, with coefficient -delta times the
    product over row other of m_i - o_j + j - i, over the product over
    j != i of m_i - m_j + j - i."""
    _require_rational_rows(M, (k, other))
    D, m, o = _scaled_rows(M, k, other)
    delta = other - k
    scale = D ** (delta + 1)  # other factors over k - 1: D**2 too large for a raise
    items = []
    for i in range(1, k + 1):
        num = prod(m[i - 1] - o[j - 1] + (j - i) * D for j in range(1, other + 1))
        den = _row_denominator(k, m, i, D)
        if num:
            items.append((M.shifted(k, i, delta), Fraction(-delta * num, den * scale)))
    return LinComb.build(items)


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
    _require_rational_rows(M, (k - 1, k))
    return LinComb.single(M, weight(M, k))


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


def _in_basis_terms(gen, M, locate):
    """Terms of one generator on one tableau, split by basis membership.

    locate maps a tableau to its key in the basis, or to None outside it.
    Returns the in-basis terms as {key: coefficient} and the dropped ones as
    a list of (tableau, coefficient), both in term order.
    """
    kept = {}
    dropped = []
    for target, c in _act_one(gen, M).terms:
        key = locate(target)
        if key is None:
            dropped.append((target, c))
        else:
            kept[key] = c
    return kept, dropped


def act_in_basis(C, L, gen, v, strict=False):
    """Linear extension of a generator with the basis-membership filter.

    Terms landing outside the basis are treated as zero.  With strict=True a
    nonzero out-of-basis coefficient raises OutOfBasisLeak.
    """
    for pattern, _ in v.terms:
        if not _satisfies(C, pattern):
            raise NotSatisfying("input term outside the basis")

    def locate(P):
        return P if _satisfies(C, P) else None

    items = []
    for pattern, coeff in v.terms:
        kept, dropped = _in_basis_terms(gen, pattern, locate)
        if strict and dropped:
            target, c = dropped[0]
            raise OutOfBasisLeak(target, c * coeff)
        items += [(target, c * coeff) for target, c in kept.items()]
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
    basis), and the column of a generator at a position is built the first
    time a bracket needs it, so a sample without a finite basis is fine.
    Every other sum of vectors goes through one helper, combine.  The
    cartan brackets are read off the diagonal: cartan_j multiplies each
    tableau by its weight, which its own column holds.  A distant same-type
    bracket is computed once, at k < l, and [kind_l, kind_k] is reported as
    its negation.
    """
    n = L.n
    failures = []
    checked = 0
    patterns = []
    index = {}
    columns = {}

    def locate(P):
        try:
            return index[P]
        except KeyError:
            pos = None
            if _satisfies(C, P):
                pos = len(patterns)
                patterns.append(P)
            index[P] = pos
            return pos

    def column(gen, j):
        try:
            return columns[gen, j]
        except KeyError:
            kept = _in_basis_terms(gen, patterns[j], locate)[0]
            den = lcm(*(c.denominator for c in kept.values()))
            col = columns[gen, j] = (
                den, {t: c.numerator * (den // c.denominator) for t, c in kept.items()})
            return col

    def combine(parts):
        # The sum of c * vec over (int c, vec) parts, over the lcm of their
        # denominators, with zero coefficients dropped.
        common = lcm(*(d for _, (d, _) in parts))
        acc = {}
        for c, (d, nums) in parts:
            c *= common // d
            for t, a in nums.items():
                if t in acc:
                    acc[t] += a * c
                else:
                    acc[t] = a * c
        return common, {t: a for t, a in acc.items() if a}

    def bracket(g1, g2, pos):
        # [g1, g2] e_pos.  Columns are built in the order a composition of
        # act_in_basis calls acts on the terms, so the first error raised is
        # the one it would raise: g2 at pos, g1 at each of its terms, then g1
        # at pos, g2 at each of its terms.
        d2, col2 = column(g2, pos)
        d12, nums12 = combine([(c, column(g1, t)) for t, c in col2.items()])
        d1, col1 = column(g1, pos)
        d21, nums21 = combine([(c, column(g2, t)) for t, c in col1.items()])
        return combine([(1, (d2 * d12, nums12)), (-1, (d1 * d21, nums21))])

    def weight_at(j, t):
        # w_j at position t, as (den, num), read off the cartan_j column.
        den, nums = column((CARTAN, j), t)
        if len(nums) > (t in nums):  # a key other than t
            raise RuntimeError(
                f"cartan{j} column at [{patterns[t]}] has a term off its diagonal")
        return den, nums.get(t, 0)

    def cartan_bracket(j, gen, pos, want):
        # [cartan_j, gen] e_pos - want * gen e_pos.  cartan_j is diagonal, so
        # each term t of gen e_pos is scaled by w_j(t) - w_j(pos) - want.  The
        # columns are built in the order bracket() builds them: gen at pos,
        # cartan_j at each term in term order, then cartan_j at pos.
        den, col = column(gen, pos)
        ws = [weight_at(j, t) for t in col]
        dp, wp = weight_at(j, pos)
        common = lcm(dp, *(d for d, _ in ws))
        shift = wp * (common // dp) + want * common
        acc = {t: a * (w * (common // d) - shift)
               for (t, a), (d, w) in zip(col.items(), ws)}
        return den * common, {t: a for t, a in acc.items() if a}

    def residual(vec):
        den, nums = vec
        return str(LinComb.build((patterns[j], Fraction(c, den)) for j, c in nums.items()))

    for M in sample:
        pos = locate(M)
        if pos is None:
            raise NotSatisfying("input term outside the basis")
        checked += 1
        for k in range(1, n):
            lhs = bracket((RAISE, k), (LOWER, k), pos)  # built before the cartan columns
            res = combine([(1, lhs), (-1, column((CARTAN, k), pos)),
                           (1, column((CARTAN, k + 1), pos))])
            if res[1]:
                failures.append((f"[raise{k},lower{k}]", M, residual(res)))
        for j in range(1, n + 1):
            for k in range(1, n):
                want = (1 if j == k else 0) - (1 if j == k + 1 else 0)
                res = cartan_bracket(j, (RAISE, k), pos, want)
                if res[1]:
                    failures.append((f"[cartan{j},raise{k}]", M, residual(res)))
                res = cartan_bracket(j, (LOWER, k), pos, -want)
                if res[1]:
                    failures.append((f"[cartan{j},lower{k}]", M, residual(res)))
        mirrors = {}
        for k in range(1, n):
            for l in range(1, n):
                if abs(k - l) >= 2:
                    for kind in (RAISE, LOWER):
                        if k < l:
                            res = bracket((kind, k), (kind, l), pos)
                            # [kind_l, kind_k] e = -[kind_k, kind_l] e, reported
                            # when the loop reaches (l, k).
                            mirrors[kind, l, k] = combine([(-1, res)]) if res[1] else res
                        else:
                            res = mirrors.pop((kind, k, l))
                        if res[1]:
                            failures.append((f"[{kind}{k},{kind}{l}]", M, residual(res)))
                if k != l:
                    res = bracket((RAISE, k), (LOWER, l), pos)
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

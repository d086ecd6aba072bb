"""The benchmark's workloads: seeded inputs, the jobs that run them through
relpoly's public functions, and an independent check for every job.

Inputs are built only with relpoly's constructors (RelationSet, Pattern)
and this module's own arc, repair and Gelfand-Tsetlin code, so that set-up
does no work in the layers being measured and fills none of their caches.

A workload hands out its jobs in rounds.  Every round of a workload has the
same composition (the same job kinds at the same sizes), so a run made of
whole rounds always has the same mix; the seed and the round index choose
the contents.  The order of a round's jobs is shuffled, so that drifts in
the host's speed during a round do not line up with job size, but by the
round index alone on oracle, lattice and commutators, so that every seed
allocates in the same order (the collector and peak memory then repeat).
A run does as many rounds as take the requested seconds at
the reference host speed (see run.py), by each workload's round_seconds.
Jobs call relpoly through module attributes at call time, so the wrappers a
traced run installs see every call.
"""

import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import prod
from pathlib import Path
from typing import Callable


class WrongResult(Exception):
    """A job returned, but its output disagrees with the independent check."""


@dataclass
class Job:
    label: str
    size: int  # in the workload's size unit; None keeps it out of the cost slope
    run: Callable[[], object]  # the timed call
    check: Callable[[object], str]  # canonical record, or raise WrongResult


def expect(cond, message):
    if not cond:
        raise WrongResult(message)


# ---------------------------------------------------------------------------
# Own combinatorics: the triangle, the standard arc families, C-pattern
# repair, Gelfand-Tsetlin patterns and their counts and action.

def triangle(n):
    return [(k, i) for k in range(1, n + 1) for i in range(1, k + 1)]


def standard_arcs(n, k, variant):
    """Arcs of the standard families: plus (i+1,j)->(i,j), minus
    (i,j)->(i+1,j+1), both over k <= j <= i <= n-1; "empty" has none."""
    arcs = []
    if variant in ("plus", "both"):
        arcs += [((i + 1, j), (i, j)) for i in range(k, n) for j in range(k, i + 1)]
    if variant in ("minus", "both"):
        arcs += [((i, j), (i + 1, j + 1)) for i in range(k, n) for j in range(k, i + 1)]
    return sorted(set(arcs))


def repaired_values(rng, n, arcs, width):
    """Random integers in [0, width], lowered along violated arcs until every
    arc has value(src) >= value(dst).  Ties are frequent, so tilings are
    non-trivial.  Values only decrease, so this ends on cyclic sets too."""
    vals = {v: rng.randint(0, width) for v in triangle(n)}
    changed = True
    while changed:
        changed = False
        for src, dst in arcs:
            if vals[src] < vals[dst]:
                vals[dst] = vals[src]
                changed = True
    return vals


def rows_of(n, vals):
    """Pattern rows, top row (row n) first."""
    return [[vals[(k, i)] for i in range(1, k + 1)] for k in range(n, 0, -1)]


def random_arcs(rng, n):
    """Random plus, minus and zero arcs.  Repeated heads and tails make many
    sets non-reduced; a reversed arc makes about a quarter of them cyclic."""
    arcs = set()
    for _ in range(rng.randint(n, 2 * n)):
        kind = rng.choice(("plus", "plus", "minus", "minus", "zero"))
        k = rng.randint(1, n - 1)
        if kind == "plus":
            arcs.add(((k + 1, rng.randint(1, k + 1)), (k, rng.randint(1, k))))
        elif kind == "minus":
            arcs.add(((k, rng.randint(1, k)), (k + 1, rng.randint(1, k + 1))))
        else:
            i, j = rng.sample(range(1, n + 1), 2)
            arcs.add(((n, i), (n, j)))
    if rng.random() < 0.25:
        src, dst = rng.choice(sorted(arcs))
        arcs.add((dst, src))
    return sorted(arcs)


def gt_highest(lam, c=0):
    """Highest-weight Gelfand-Tsetlin pattern of lam + c, as rows top first."""
    n = len(lam)
    return [[x + c for x in lam[:k]] for k in range(n, 0, -1)]


def gt_random(rng, top):
    """Random integral pattern interlacing below the given top row."""
    rows = [list(top)]
    while len(rows[-1]) > 1:
        above = rows[-1]
        rows.append([rng.randint(above[i + 1], above[i]) for i in range(len(above) - 1)])
    return rows


def interlaces(rows):
    """rows (top first) satisfy x[k+1][i] >= x[k][i] >= x[k+1][i+1]."""
    return all(
        upper[i] >= lower[i] >= upper[i + 1]
        for upper, lower in zip(rows, rows[1:])
        for i in range(len(lower))
    )


def gt_weight(rows):
    """Weights w_k = R_k - R_{k-1} of a pattern given top row first."""
    sums = [sum(r) for r in reversed(rows)]  # R_1 .. R_n
    return [sums[0]] + [sums[k] - sums[k - 1] for k in range(1, len(sums))]


def weyl_count(lam):
    """Weyl's product formula for the dimension of the module of lam."""
    n = len(lam)
    dim = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            dim *= Fraction(lam[i] - lam[j] + j - i, j - i)
    return int(dim)


def gt_count(top, mu):
    """Number of GT patterns under `top` whose weights are `mu`."""
    targets = [sum(mu[:k]) for k in range(len(mu) + 1)]  # row sums R_0 .. R_n

    def below(row):
        k = len(row) - 1
        if k == 0:
            return 1
        ranges = [range(row[i + 1], row[i] + 1) for i in range(k)]
        return sum(below(cand) for cand in product(*ranges) if sum(cand) == targets[k])

    return below(list(top)) if sum(top) == targets[-1] else 0


def gt_act(rows, gen):
    """The generator action on one GT pattern, kept to GT patterns: a sorted
    list of (entries top-row first, coefficient).  gen is ("raise", k),
    ("lower", k) or ("cartan", k), as in the paper's formulas."""
    kind, k = gen
    n = len(rows)
    m = {(n - r, i + 1): x for r, row in enumerate(rows) for i, x in enumerate(row)}
    if kind == "cartan":
        w = gt_weight(rows)[k - 1]
        return [(flat(rows), Fraction(w))] if w else []
    out = []
    for i in range(1, k + 1):
        den = 1
        for j in range(1, k + 1):
            if j != i:
                den *= m[(k, i)] - m[(k, j)] + j - i
        if kind == "raise":
            num = -prod(m[(k, i)] - m[(k + 1, j)] + j - i for j in range(1, k + 2))
            step = 1
        else:
            num = prod(m[(k, i)] - m[(k - 1, j)] + j - i for j in range(1, k))
            step = -1
        coeff = Fraction(num, den)
        target = [list(row) for row in rows]
        target[n - k][i - 1] += step
        if coeff and interlaces(target):
            out.append((flat(target), coeff))
    return sorted(out)


def flat(rows):
    return tuple(x for row in rows for x in row)


def offsets(point):
    return tuple(e.offset for e in point.entries)


# ---------------------------------------------------------------------------
# Own text formats, written at set-up for the CLI and used to check its output.

def relation_text(n, arcs):
    return f"n {n}\n" + "".join(f"{a} {b} -> {c} {d}\n" for (a, b), (c, d) in arcs)


def pattern_text(rows):
    return "".join(" ".join(str(x) for x in row) + "\n" for row in rows)


def parse_point(text):
    return [[int(tok) for tok in line.split()] for line in text.splitlines()]


# ---------------------------------------------------------------------------
# Checks of tilings and kernels, by own union-find and elimination.

def own_tiles(n, arcs, vals):
    parent = {v: v for v in triangle(n)}

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for src, dst in arcs:
        if vals[src] == vals[dst]:
            a, b = root(src), root(dst)
            if a != b:
                parent[a] = b
    blocks = {}
    for v in triangle(n):
        blocks.setdefault(root(v), []).append(v)
    tiles = sorted((sorted(b) for b in blocks.values()), key=min)
    free = [t for t in tiles if all(v[0] != n for v in t)]
    return free + [t for t in tiles if t not in free], len(free)


def own_matrix(n, tiles, s):
    if s == 0:
        return [[int(i == j) for j in range(n - 1)] for i in range(n - 1)]
    return [[sum(1 for v in tiles[t] if v[0] == i) for t in range(s)] for i in range(1, n)]


def own_rank(matrix):
    rows = [[Fraction(x) for x in row] for row in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# Workloads.  Each is built from the imported relpoly package, the seed and a
# scratch directory inside the checkout; round(r) returns the jobs of round r.

# Seconds one round takes at the reference host speed, at the version of
# relpoly the benchmark was defined on.  Fixed, so that every version runs the
# same number of rounds.
ROUND_SECONDS = {"oracle": 4.3, "lattice": 2.9, "commutators": 7.3, "cli": 0.39}

ORACLE_FAMILIES = {
    "C1": (1, "both"),
    "C2": (2, "both"),
    "C1+": (1, "plus"),
    "C2-": (2, "minus"),
    "empty": (1, "empty"),
}

# (family, n, jobs per round).  Every family and every n appear.  The two
# "both" families stop below their ~1-2 s jobs (C1 at n=8, C2 at n=10): a few
# such jobs would make up half of a round's time, and the host's noise on
# them would swamp jobs_per_s.  The counts put the median inside the ~60 ms
# plateau of "C1 n=6" and "empty n=12", and the tail (the 11th slowest of a
# run's five rounds) inside the four slowest jobs of each round, "C2 n=10"
# and "C1+ n=12" at ~0.5 s.
ORACLE_ROUND = [
    ("empty", 6, 3), ("C2-", 6, 3), ("C1+", 6, 2), ("C2", 6, 3), ("C1", 6, 4),
    ("empty", 8, 3), ("C2-", 8, 1), ("C1+", 8, 3), ("C2", 8, 1), ("C1", 8, 1),
    ("empty", 10, 1), ("C2-", 10, 1), ("C1+", 10, 3), ("C2", 10, 2),
    ("empty", 12, 3), ("C2-", 12, 2), ("C1+", 12, 2),
]


class Oracle:
    """Random C-patterns over the five standard families, n in {6, 8, 10,
    12}.  Chosen because dense Fraction elimination in the rank oracle is
    nearly all of each job while tiling is about a millisecond: sparse
    elimination must show here, and no enumeration, action or I/O code runs.
    Size unit: n(n+1)/2 coordinates.

    The elimination's cost depends on the ties in a pattern, so the patterns
    of round r come from r alone and every seed runs the same work; the seed
    shifts every entry by an integer c, which keeps the ties."""

    unit = "n(n+1)/2"
    round_seconds = ROUND_SECONDS["oracle"]

    def __init__(self, rp, seed, workdir):
        self.rp, self.seed = rp, seed

    def round(self, r):
        shape = random.Random(r)
        rng = random.Random(self.seed * 7919 + r)
        jobs = []
        for family, n, count in ORACLE_ROUND:
            k, variant = ORACLE_FAMILIES[family]
            arcs = standard_arcs(n, k, variant)
            C = self.rp.RelationSet(n, arcs)
            for _ in range(count):
                c = rng.randint(-20, 20)
                vals = repaired_values(shape, n, arcs, shape.choice((2, 3, 4)))
                vals = {v: x + c for v, x in vals.items()}
                X = self.rp.Pattern.from_rows(rows_of(n, vals))
                jobs.append(self._job(f"{family} n={n}", n, C, X, vals))
        shape.shuffle(jobs)
        return jobs

    def _job(self, label, n, C, X, vals):
        rp = self.rp

        def run():
            dims = rp.tiling.min_face_dims(C, X)
            oracle = tuple(
                rp.polyhedra.face_dim_oracle(rp.polyhedra.system_at(C, X, which), X)
                for which in ("pc", "lambda", "mu"))
            return dims, oracle

        def check(out):
            dims, oracle = out
            expect(tuple(dims) == oracle, f"tiles give {dims}, oracle {oracle}")
            tiles, s = own_tiles(n, C.relations, vals)
            expect(dims[:2] == (len(tiles), s), f"{dims[:2]} tiles, own count {len(tiles), s}")
            return f"{label} {pattern_text(rows_of(n, vals))!r} {dims}"

        return Job(label, n * (n + 1) // 2, run, check)


# (lambda, jobs per round), points from 8 to 8400.  The median falls inside
# the fourteen (4,2,1,0) jobs and the tail inside the 2520-point jobs, below
# the one 8400-point job of each of seven rounds.
LATTICE_ROUND = [
    ((2, 1, 0), 2),
    ((3, 1, 0), 2),
    ((4, 2, 0), 4),
    ((3, 2, 1, 0), 4),
    ((4, 2, 1, 0), 14),
    ((5, 3, 1, 0), 8),
    ((4, 3, 2, 1, 0), 4),
    ((5, 3, 2, 1, 0), 2),
    ((6, 4, 2, 1, 0), 1),
]


class Lattice:
    """enumerate_integral on C1 Gelfand-Tsetlin modules from 8 to 8400
    points, each lambda shifted by a seeded integer c.  Chosen because the
    backtracker and Pattern/Entry rebuilding are all of each job, with no
    linear algebra, and output memory grows with the point count, so
    peak_rss_mb can move.  Size unit: points."""

    unit = "points"
    round_seconds = ROUND_SECONDS["lattice"]

    def __init__(self, rp, seed, workdir):
        self.rp, self.seed = rp, seed

    def round(self, r):
        rng = random.Random(self.seed * 7919 + r)
        jobs = []
        for lam, count in LATTICE_ROUND:
            n = len(lam)
            C = self.rp.RelationSet(n, standard_arcs(n, 1, "both"))
            for _ in range(count):
                c = rng.randint(-20, 20)
                L = self.rp.Pattern.from_rows(gt_highest(lam, c))
                jobs.append(self._job(lam, c, C, L))
        random.Random(r).shuffle(jobs)
        return jobs

    def _job(self, lam, c, C, L):
        rp = self.rp
        top = [x + c for x in lam]
        want = weyl_count(lam)

        def run():
            return rp.polyhedra.enumerate_integral(C, L).points

        def check(points):
            expect(len(points) == want, f"{len(points)} points, Weyl formula {want}")
            keys = [offsets(p) for p in points]
            expect(all(a < b for a, b in zip(keys, keys[1:])), "points not sorted and distinct")
            n = len(lam)
            for key in keys:
                rows, pos = [], 0
                for k in range(n, 0, -1):
                    rows.append(key[pos:pos + k])
                    pos += k
                expect(list(rows[0]) == top and interlaces(rows), f"not a GT point: {key}")
            return f"{lam}+{c} " + ";".join(",".join(str(x) for x in key) for key in keys)

        return Job(f"lambda={lam}", want, run, check)


# (lambda, jobs per round); None is the generic fractional n=3 base.  The
# median falls inside the seven (2,1,0) jobs and the tail inside the four
# (2,1,1,0) jobs, below the one (3,2,1,0) job of each of three rounds.
COMMUTATOR_ROUND = [
    (None, 3),
    ((2, 2, 0), 1),
    ((2, 1, 0), 7),
    ((3, 1, 0), 1),
    ((4, 2, 0), 1),
    ((2, 1, 1, 0), 4),
    ((3, 2, 1, 0), 1),
]

GENERIC_BASE = [
    [Fraction(1, 2), Fraction(5, 7), Fraction(9, 11)],
    [Fraction(1, 5), Fraction(1, 3)],
    [Fraction(1, 7)],
]


class Commutators:
    """Per module, enumerate the basis and run check_commutators on it, as
    `relpoly commutators` does: C1 bases of 6 to 64 vectors and the generic
    fractional n=3 base on four sample vectors, shifted by a seeded c.
    Chosen because the generator action, satisfies and LinComb hashing are
    about 99% of each job; the action-matrix work must show here.  Size
    unit: basis vectors."""

    unit = "basis vectors"
    round_seconds = ROUND_SECONDS["commutators"]

    def __init__(self, rp, seed, workdir):
        self.rp, self.seed = rp, seed

    def round(self, r):
        rng = random.Random(self.seed * 7919 + r)
        jobs = []
        for lam, count in COMMUTATOR_ROUND:
            for _ in range(count):
                c = rng.randint(-20, 20)
                jobs.append(self._generic(c) if lam is None else self._module(lam, c))
        random.Random(r).shuffle(jobs)
        return jobs

    def _module(self, lam, c):
        rp = self.rp
        n = len(lam)
        C = rp.RelationSet(n, standard_arcs(n, 1, "both"))
        L = rp.Pattern.from_rows(gt_highest(lam, c))
        want = weyl_count(lam)

        def run():
            basis = rp.polyhedra.enumerate_integral(C, L).points
            return len(basis), rp.modaction.check_commutators(C, L, basis)

        def check(out):
            size, report = out
            expect(size == want, f"basis of {size}, Weyl formula {want}")
            expect(report.ok, f"bracket failures {[f[0] for f in report.failures][:5]}")
            expect(report.checked == size, f"checked {report.checked} of {size}")
            return f"{lam}+{c} checked={report.checked}"

        return Job(f"lambda={lam}", want, run, check)

    def _generic(self, c):
        rp = self.rp
        C = rp.RelationSet(3, [])
        L = rp.Pattern.from_rows([[x + c for x in row] for row in GENERIC_BASE])
        sample = [L]
        for k, i, delta in ((2, 1, 1), (1, 1, -1), (2, 2, 2)):
            rows = [[x + c for x in row] for row in GENERIC_BASE]
            rows[3 - k][i - 1] += delta
            sample.append(rp.Pattern.from_rows(rows))

        def run():
            return rp.modaction.check_commutators(C, L, sample)

        def check(report):
            expect(report.ok, f"bracket failures {[f[0] for f in report.failures][:5]}")
            expect(report.checked == len(sample), f"checked {report.checked} of {len(sample)}")
            return f"generic+{c} checked={report.checked}"

        return Job("generic n=3", len(sample), run, check)


GEN_FAMILIES = {"C1": (1, "both"), "Ck": (None, "both"), "Ck+": (None, "plus"),
                "Ck-": (None, "minus"), "empty": (1, "empty")}

# Weight slices and single-vector actions run on these GT modules.
CLI_MODULES = [(2, 1, 0), (4, 2, 0), (2, 1, 1, 0), (3, 2, 1, 0)]

# One large weight slice per round: lambda=(6,4,3,2,1,0) at a seeded
# permutation of the weight (3,3,3,3,2,2).  Weight multiplicities are
# invariant under permuting the weight, so every such slice has 256 points.
# These requests are the slowest of the stream, ~100 ms each, so the tail
# falls among them rather than among collector pauses of the short requests.
SLICE_LAMBDA, SLICE_WEIGHT = (6, 4, 3, 2, 1, 0), (3, 3, 3, 3, 2, 2)

# The known failing request: enumerate on C1 both, constant pattern, n=46.
# The backtracker recurses once per vertex below the top row and raises
# RecursionError.  It runs once per run, in round 0, and counts as failed.
DEEP_N = 46


class Cli:
    """A stream of in-process relpoly.cli.main requests on files written
    before each round: check, tile and facedim on fresh random relation sets
    with n from 4 to 9 (plus, minus and zero arcs, non-reduced and cyclic
    ones included), enumerate --mu weight slices and act on single vectors
    of GT modules, gen, and once per run the known failing deep enumerate.
    Chosen as the one-shot counterpart of the other workloads: every relation
    set is new, so the reachability caches miss, the linear algebra is tiny,
    and parsing, argparse and output dominate.  Size unit: n(n+1)/2, given to
    check, tile and facedim, whose n runs over 4 to 9; the cost of the other
    requests does not follow n (gen and act are mostly fixed cost, a weight
    slice costs what its points cost), so they stay out of the cost slope."""

    unit = "n(n+1)/2"
    round_seconds = ROUND_SECONDS["cli"]

    def __init__(self, rp, seed, workdir):
        self.rp, self.seed, self.workdir = rp, seed, Path(workdir)

    def _write(self, name, text):
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def round(self, r):
        rng = random.Random(self.seed * 7919 + r)
        for old in self.workdir.glob("*"):
            old.unlink()
        jobs = []
        for _ in range(2):
            for n in range(4, 10):
                for command in ("check", "tile", "facedim"):
                    jobs.append(self._relation_job(rng, f"r{r}-{len(jobs)}", command, n))
            for lam in CLI_MODULES:
                jobs.append(self._enumerate_job(rng, f"r{r}-{len(jobs)}", lam))
                jobs.append(self._act_job(rng, f"r{r}-{len(jobs)}", lam))
            jobs.append(self._gen_job(rng))
        mu = list(SLICE_WEIGHT)
        rng.shuffle(mu)
        jobs.append(self._enumerate_job(rng, f"r{r}-{len(jobs)}", SLICE_LAMBDA, mu))
        rng.shuffle(jobs)
        if r == 0:
            jobs.append(self._deep_job())
        return jobs

    def _call(self, argv):
        cli = self.rp.cli

        def run():
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue()

        return run

    def _relation_job(self, rng, tag, command, n):
        rp = self.rp
        arcs = random_arcs(rng, n)
        C = rp.RelationSet(n, arcs)
        argv = [command, "--relations", self._write(f"{tag}.rel", relation_text(n, arcs))]
        if command != "check":
            vals = repaired_values(rng, n, arcs, rng.choice((2, 3, 4)))
            argv += ["--pattern", self._write(f"{tag}.pat", pattern_text(rows_of(n, vals)))]

        def check(out):
            code, text = out
            expect(code == 0, f"exit {code}: {text[:200]}")
            obj = json.loads(text)
            if command == "check":
                red = rp.relations.is_reduced(C)
                adm = rp.relations.check_admissible(C)
                want = {"reduced": red.ok, "top_connected": rp.relations.is_top_connected(C),
                        "admissible": {"admissible": "Admissible", "not_admissible": "NotAdmissible",
                                       "inapplicable": "Inapplicable"}[adm.status]}
                got = {key: obj.get(key) for key in want}
                expect(got == want, f"check gave {got}, library {want}")
                expect(("violations" in obj) == (not red.ok), "violations listed iff not reduced")
                return f"check {text}"
            tiles, s = own_tiles(n, arcs, vals)
            matrix = own_matrix(n, tiles, s)
            r = s - own_rank(matrix) if s else 0
            if command == "facedim":
                expect(obj == {"d": len(tiles), "s": s, "r": r}, f"facedim {obj}, own {len(tiles), s, r}")
                return f"facedim {text}"
            expect([[tuple(v) for v in t["vertices"]] for t in obj["tiles"]] == tiles, "tiles differ")
            expect(obj["matrix"] == matrix, f"matrix {obj['matrix']}, own {matrix}")
            kernel = [[Fraction(x) for x in vec] for vec in obj["kernel"]]
            expect(len(kernel) == r, f"kernel of {len(kernel)} vectors, own rank gives {r}")
            for vec in kernel:
                expect(next(x for x in vec if x) == 1, "kernel vector not led by 1")
                expect(all(sum(a * x for a, x in zip(row, vec)) == 0 for row in matrix),
                       "kernel vector outside the kernel")
            return f"tile {text}"

        return Job(f"{command} n={n}", n * (n + 1) // 2, self._call(argv), check)

    def _module_files(self, tag, lam, c):
        n = len(lam)
        rel = self._write(f"{tag}.rel", relation_text(n, standard_arcs(n, 1, "both")))
        base = gt_highest(lam, c)
        return rel, self._write(f"{tag}.pat", pattern_text(base)), base

    def _enumerate_job(self, rng, tag, lam, mu=None):
        """Weight slice at mu, or at the weight of a random pattern."""
        c = rng.randint(-20, 20)
        rel, pat, base = self._module_files(tag, lam, c)
        mu = gt_weight(gt_random(rng, base[0])) if mu is None else [x + c for x in mu]
        argv = ["enumerate", "--relations", rel, "--pattern", pat,
                "--mu=" + ",".join(str(x) for x in mu)]

        def check(out):
            code, text = out
            expect(code == 0, f"exit {code}: {text[:200]}")
            obj = json.loads(text)
            points = [parse_point(p) for p in obj["points"]]
            want = gt_count(base[0], mu)
            expect(obj["count"] == len(points) == want, f"{obj['count']} points, own count {want}")
            expect(len({flat(p) for p in points}) == len(points), "repeated points")
            for p in points:
                expect(p[0] == base[0] and interlaces(p) and gt_weight(p) == mu,
                       f"point {p} outside the weight slice")
            return f"enumerate {lam}+{c} mu={mu} {text}"

        return Job(f"enumerate --mu lambda={lam}", None, self._call(argv), check)

    def _act_job(self, rng, tag, lam):
        n = len(lam)
        c = rng.randint(-20, 20)
        rel, pat, base = self._module_files(tag, lam, c)
        rows = gt_random(rng, base[0])
        kind = rng.choice(("raise", "lower", "cartan"))
        k = rng.randint(1, n if kind == "cartan" else n - 1)
        spec = {"raise": f"E {k} {k + 1}", "lower": f"E {k + 1} {k}", "cartan": f"E {k} {k}"}[kind]
        vector = {"terms": [{"coeff": "1", "pattern": {
            "n": n, "entries": [str(x) for x in flat(rows)]}}]}
        argv = ["act", "--relations", rel, "--pattern", pat, "--generator", spec,
                "--input", self._write(f"{tag}.json", json.dumps(vector))]

        def check(out):
            code, text = out
            expect(code == 0, f"exit {code}: {text[:200]}")
            got = sorted((tuple(Fraction(x) for x in t["pattern"]["entries"]), Fraction(t["coeff"]))
                         for t in json.loads(text)["terms"])
            want = gt_act(rows, (kind, k))
            expect(got == want, f"act {spec} gave {got}, own formula {want}")
            return f"act {spec} {flat(rows)} {text}"

        return Job(f"act {kind}", None, self._call(argv), check)

    def _gen_job(self, rng):
        family = rng.choice(sorted(GEN_FAMILIES))
        n = rng.randint(4, 9)
        k, variant = GEN_FAMILIES[family]
        argv = ["gen", "--family", family, "--n", str(n), "--format", "text"]
        if k is None:
            k = rng.randint(1, n)
            argv += ["--k", str(k)]
        want = relation_text(n, standard_arcs(n, k, variant))

        def check(out):
            code, text = out
            expect(code == 0 and text == want, f"gen {family} gave exit {code}, {text[:200]!r}")
            return f"gen {family} {k} {text}"

        return Job(f"gen {family}", None, self._call(argv), check)

    def _deep_job(self):
        n = DEEP_N
        rel = self._write("deep.rel", relation_text(n, standard_arcs(n, 1, "both")))
        zero = [[0] * k for k in range(n, 0, -1)]
        argv = ["enumerate", "--relations", rel, "--pattern", self._write("deep.pat", pattern_text(zero))]

        def check(out):
            code, text = out
            expect(code == 0, f"exit {code}: {text[:200]}")
            obj = json.loads(text)
            expect(obj["count"] == 1 and [parse_point(p) for p in obj["points"]] == [zero],
                   f"constant pattern gave {obj['count']} points, want 1")
            return f"enumerate deep {text}"

        # Off the size ladder: one request of n=46 would outweigh the
        # stream's cost slope once it stops failing.
        return Job(f"enumerate n={n}", None, self._call(argv), check)


WORKLOADS = {"oracle": Oracle, "lattice": Lattice, "commutators": Commutators, "cli": Cli}

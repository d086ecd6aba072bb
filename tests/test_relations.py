"""Structural checks on relation sets: families, reachability, admissibility."""

import gc
import random
import weakref
from collections import Counter
from itertools import combinations

import pytest

from relpoly.errors import InvalidRelation
from relpoly.patterns import constant_pattern
from relpoly.polyhedra import enumerate_integral
from relpoly.relations import (
    ZERO,
    AdmissibilityResult,
    ReducedReport,
    RelationSet,
    adjoining_pairs,
    check_admissible,
    connected_components,
    is_reduced,
    is_top_connected,
    reaches,
    relation_class,
    standard_set,
    structural_noncritical,
    support,
    vertices,
)

# The four-arrow set used repeatedly below: a single undirected component
# {(1,1),(2,1),(2,2),(3,2)} inside the n=4 triangle.
EX_C = RelationSet(4, [((2, 1), (1, 1)), ((2, 1), (3, 2)),
                       ((1, 1), (2, 2)), ((3, 2), (2, 2))])


def test_vertices_triangle():
    assert vertices(3) == [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]
    assert len(vertices(5)) == 15


def test_relation_classes():
    assert relation_class((2, 1), (1, 1), 4) == "plus"
    assert relation_class((2, 1), (3, 2), 4) == "minus"
    assert relation_class((4, 1), (4, 3), 4) == "zero"
    with pytest.raises(InvalidRelation):
        relation_class((2, 1), (2, 2), 4)  # same non-top row
    with pytest.raises(InvalidRelation):
        relation_class((3, 1), (1, 1), 4)  # row jump of 2


def test_relation_set_dedup_and_sort():
    C = RelationSet(3, [((2, 1), (1, 1)), ((2, 1), (1, 1)), ((1, 1), (2, 2))])
    assert len(C.relations) == 2
    assert C.relations == (((1, 1), (2, 2)), ((2, 1), (1, 1)))


@pytest.mark.parametrize("rels", [
    [((2, 1), (1, [1]))],
    [((2, 1), (1, 1)), ((2, "1"), (1, 1))],
], ids=["list-coordinate", "int-and-str"])
def test_relation_set_classifies_before_it_sorts(rels):
    with pytest.raises(InvalidRelation, match="invalid endpoint"):
        RelationSet(3, rels)


def test_standard_set_c1_plus_n4():
    C = standard_set(4, 1, "plus")
    expected = {((i + 1, j), (i, j)) for j in range(1, 4)
                for i in range(j, 4)}
    assert set(C.relations) == expected
    assert len(C.relations) == 6


def test_standard_set_cn_empty():
    for n in (2, 3, 5):
        assert standard_set(n, n, "both").relations == ()
        assert standard_set(n, 1, "empty").relations == ()


def test_standard_set_c1_n2():
    C = standard_set(2, 1, "both")
    assert set(C.relations) == {((2, 1), (1, 1)), ((1, 1), (2, 2))}


def test_standard_set_k_out_of_range():
    with pytest.raises(InvalidRelation):
        standard_set(3, 0, "both")
    with pytest.raises(InvalidRelation):
        standard_set(3, 4, "both")


def test_standard_set_row_step_bounded():
    for n in range(2, 6):
        for k in range(1, n + 1):
            for variant in ("plus", "minus", "both"):
                for (i, _), (r, _) in standard_set(n, k, variant):
                    assert abs(i - r) <= 1


def test_support():
    n = 4
    assert support(standard_set(n, 1, "both")) == set(vertices(n))
    assert support(standard_set(n, n, "both")) == set()
    assert support(standard_set(n, 1, "plus")) == set(vertices(n)) - {(4, 4)}


def test_reaches_examples():
    assert reaches(EX_C, (2, 1), (2, 2))
    assert reaches(EX_C, (2, 1), (2, 1))  # empty path
    assert not reaches(standard_set(4, 1, "plus"), (1, 1), (2, 1))


def test_reaches_is_preorder():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(2, 5)
        k = rng.randint(1, n)
        C = standard_set(n, k, rng.choice(("plus", "minus", "both")))
        verts = vertices(n)
        for v in verts:
            assert reaches(C, v, v)
        for _ in range(30):
            a, b, c = (verts[rng.randrange(len(verts))] for _ in range(3))
            if reaches(C, a, b) and reaches(C, b, c):
                assert reaches(C, a, c)


def test_connected_components():
    n = 3
    blocks = connected_components(standard_set(n, 1, "both"))
    assert blocks == (frozenset(vertices(n)),)
    empty_blocks = connected_components(standard_set(n, n, "both"))
    assert all(len(b) == 1 for b in empty_blocks)
    assert len(empty_blocks) == 6

    ex_blocks = connected_components(EX_C)
    big = [b for b in ex_blocks if len(b) > 1]
    assert big == [frozenset({(1, 1), (2, 1), (2, 2), (3, 2)})]
    assert sum(len(b) for b in ex_blocks) == 10


def test_components_closed_under_relations():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(2, 5)
        C = standard_set(n, rng.randint(1, n), "both")
        blocks = connected_components(C)
        where = {v: i for i, b in enumerate(blocks) for v in b}
        for src, dst in C:
            assert where[src] == where[dst]


def test_is_reduced():
    assert is_reduced(standard_set(4, 1, "both")).ok
    assert is_reduced(standard_set(3, 3, "both")).ok
    bad = RelationSet(3, [((3, 1), (2, 1)), ((3, 2), (2, 1))])
    report = is_reduced(bad)
    assert not report.ok
    assert ("multiple_up_in", (2, 1)) in report.violations


def test_is_reduced_redundant_top_relation():
    # (3,1) -> (3,2) already follows from the path through (2,1).
    C = RelationSet(3, [((3, 1), (2, 1)), ((2, 1), (3, 2)), ((3, 1), (3, 2))])
    report = is_reduced(C)
    assert not report.ok
    assert ("redundant_top_relation", ((3, 1), (3, 2))) in report.violations


def test_adjoining_pairs():
    assert adjoining_pairs(EX_C) == [((2, 1), (2, 2))]
    assert adjoining_pairs(standard_set(3, 3, "both")) == []
    assert adjoining_pairs(standard_set(3, 1, "both")) == [((2, 1), (2, 2))]


def test_admissible_standard_families():
    for n in range(2, 6):
        for k in range(1, n + 1):
            for variant in ("plus", "minus", "both"):
                C = standard_set(n, k, variant)
                result = check_admissible(C)
                assert result.status == "admissible", (n, k, variant)


def test_admissible_empty():
    assert check_admissible(standard_set(4, 4, "both")).status == "admissible"


def test_not_admissible_counterexample():
    C = RelationSet(3, [((2, 1), (1, 1)), ((1, 1), (2, 2))])
    result = check_admissible(C)
    assert result.status == "not_admissible"
    assert result.witness == ((2, 1), (2, 2))


def test_inapplicable_on_directed_cycle():
    C = RelationSet(3, [((2, 1), (1, 1)), ((1, 1), (2, 1))])
    result = check_admissible(C)
    assert result.status == "inapplicable"
    assert "cycle" in result.reason


def test_top_connected():
    for n in range(2, 6):
        for k in range(1, n + 1):
            assert is_top_connected(standard_set(n, k, "both"))
            assert is_top_connected(standard_set(n, k, "minus"))
            plus = is_top_connected(standard_set(n, k, "plus"))
            assert plus == (k == n)
    assert is_top_connected(standard_set(3, 3, "both"))  # empty support


def test_structural_noncritical():
    assert structural_noncritical(EX_C) == "yes"
    assert structural_noncritical(standard_set(3, 3, "both")) == "yes"
    unknown = RelationSet(3, [((2, 1), (1, 1)), ((2, 2), (1, 1))])
    assert structural_noncritical(unknown) == "unknown"


def test_closure_is_freed_with_its_set():
    # No other test builds a set of this size, so a process-wide cache that
    # already held an equal set could not hide a reference kept to this one.
    C = standard_set(13, 1, "both")
    assert check_admissible(C).status == "admissible"
    assert is_reduced(C).ok
    assert len(connected_components(C)) == 1
    assert len(enumerate_integral(C, constant_pattern(13)).points) == 1
    ref = weakref.ref(C)
    del C
    gc.collect()
    assert ref() is None


# Reference implementations for the sweep below: reachability by a fixpoint
# over the arcs, the per-vertex scans of is_reduced with a rebuilt set per top
# arc, and a recursive cycle search.

def ref_reach(C):
    reach = {v: {v} for v in vertices(C.n)}
    changed = True
    while changed:
        changed = False
        for src, dst in C:
            if not reach[dst] <= reach[src]:
                reach[src] |= reach[dst]
                changed = True
    return reach


def ref_is_reduced(C):
    violations = []
    for v in sorted(support(C)):
        k, j = v
        outs_up = [dst for src, dst in C if src == v and dst[0] == k + 1]
        ins_up = [src for src, dst in C if dst == v and src[0] == k + 1]
        outs_down = [dst for src, dst in C if src == v and dst[0] == k - 1]
        ins_down = [src for src, dst in C if dst == v and src[0] == k - 1]
        if len(outs_up) > 1:
            violations.append(("multiple_up_out", v))
        if len(ins_up) > 1:
            violations.append(("multiple_up_in", v))
        if len(outs_down) > 1:
            violations.append(("multiple_down_out", v))
        if len(ins_down) > 1:
            violations.append(("multiple_down_in", v))
    for rel in C:
        src, dst = rel
        if relation_class(src, dst, C.n) == ZERO:
            rest = RelationSet(C.n, [r for r in C if r != rel])
            if dst in ref_reach(rest)[src]:
                violations.append(("redundant_top_relation", rel))
    return tuple(violations)


def ref_has_directed_cycle(C):
    succ = {v: [] for v in vertices(C.n)}
    for src, dst in C:
        succ[src].append(dst)
    color = {v: 0 for v in vertices(C.n)}  # 0 new, 1 active, 2 done

    def visit(v):
        color[v] = 1
        for w in succ[v]:
            if color[w] == 1:
                return True
            if color[w] == 0 and visit(w):
                return True
        color[v] = 2
        return False

    return any(color[v] == 0 and visit(v) for v in vertices(C.n))


def ref_components(C):
    both_ways = RelationSet(C.n, [*C, *((dst, src) for src, dst in C)])
    return tuple(sorted({frozenset(r) for r in ref_reach(both_ways).values()}, key=min))


def ref_adjoining_pairs(C, reach):
    return [((k, i), (k, j))
            for k in range(1, C.n) for i in range(1, k + 1) for j in range(i + 1, k + 1)
            if (k, j) in reach[k, i]
            and not any((k, t) in reach[k, i] and (k, j) in reach[k, t]
                        for t in range(1, k + 1) if t not in (i, j))]


def ref_structural_noncritical(C, reach):
    for block in ref_components(C):
        for k in range(1, C.n):
            row = sorted(v[1] for v in block if v[0] == k)
            if any((k, b) not in reach[k, a] for a in row for b in row if a < b):
                return "unknown"
    return "yes"


def random_relation_set(rng):
    """Plus, minus and zero arcs on 2 to 7 rows, mostly between interlacing
    neighbours, with V-shaped arc pairs that make adjoining pairs; sets with
    several arcs per direction, redundant top arcs and cycles all occur."""
    n = rng.randint(2, 7)
    arcs = []
    for _ in range(rng.randint(0, 2 * n)):
        k = rng.randint(1, n)
        i = rng.randint(1, k)
        pick = rng.random()
        if pick < 0.15:
            i, j = rng.sample(range(1, n + 1), 2)
            arcs.append(((n, i), (n, j)))
        elif pick < 0.35 and i < k:
            j, q = rng.randint(i + 1, k), rng.randint(1, k - 1)
            arcs += [((k, i), (k - 1, q)), ((k - 1, q), (k, j))]
            if k == n and rng.random() < 0.5:
                arcs.append(((k, i), (k, j)))
        else:
            step = rng.choice((-1, 1))
            if not 1 <= k + step <= n:
                continue
            near = (max(1, i - 1), min(i, k - 1)) if step < 0 else (i, i + 1)
            j = rng.randint(*near) if rng.random() < 0.8 else rng.randint(1, k + step)
            arcs.append(((k, i), (k + step, j)))
    return RelationSet(n, arcs)


def test_structural_checks_match_references():
    rng = random.Random(3)
    statuses, reasons = Counter(), Counter()
    for _ in range(800):
        C = random_relation_set(rng)
        reach = ref_reach(C)
        assert C.reach == reach, C
        violations = ref_is_reduced(C)
        assert is_reduced(C) == ReducedReport(not violations, violations), C
        result = check_admissible(C)
        statuses[result.status] += 1
        reasons[result.reason] += 1
        if violations:
            assert result.reason == "not reduced", C
        elif ref_has_directed_cycle(C):
            assert result.reason == "directed cycle", C
        else:
            assert result.reason not in ("not reduced", "directed cycle"), C
        assert adjoining_pairs(C) == ref_adjoining_pairs(C, reach), C
        assert is_top_connected(C) == all(
            v[0] == C.n or any(w[0] == C.n for w in reach[v]) for v in support(C)), C
        assert connected_components(C) == ref_components(C), C
        assert structural_noncritical(C) == ref_structural_noncritical(C, reach), C
    assert min(statuses[s] for s in ("admissible", "not_admissible", "inapplicable")) >= 30
    assert reasons["not reduced"] >= 30 and reasons["directed cycle"] >= 30


def reference_check_admissible(C):
    """check_admissible as it was with a covering loop per row: the diamond
    through rows k+1 and k-1, then the ordered pair into row k+1 and back."""
    red = is_reduced(C)
    if not red.ok:
        return AdmissibilityResult("inapplicable", reason="not reduced")
    reach = C.reach
    if any(src in reach[dst] for src, dst in C):
        return AdmissibilityResult("inapplicable", reason="directed cycle")
    for k in range(1, C.n + 1):
        for i in range(1, k + 1):
            for j in range(1, i):
                if (k, j) in reach[(k, i)]:
                    return AdmissibilityResult(
                        "inapplicable",
                        reason=f"same-row reachability ({k},{i}) to ({k},{j}) with {i} > {j}",
                    )
    arcs = set()
    for src, dst in C:
        if abs(src[0] - dst[0]) == 1:
            low, high = (src, dst) if src[0] < dst[0] else (dst, src)
            arcs.add((low, high))
    between = {}
    for (k, i), (_, t) in arcs:
        between.setdefault(k, []).append((i, t))
    for (k, i), (_, t) in arcs:
        if any(j > i and s < t for j, s in between[k]):
            return AdmissibilityResult(
                "inapplicable",
                reason=f"crossing arrows between rows {k} and {k + 1}",
            )
    rels = set(C.relations)
    for (ki, kj) in adjoining_pairs(C):
        k, i = ki
        j = kj[1]
        covered = False
        for p in range(1, k + 2):
            if ((k, i), (k + 1, p)) in rels and ((k + 1, p), (k, j)) in rels:
                for q in range(1, k):
                    if ((k, i), (k - 1, q)) in rels and ((k - 1, q), (k, j)) in rels:
                        covered = True
                        break
            if covered:
                break
        if not covered:
            for s in range(1, k + 2):
                for t in range(s + 1, k + 2):
                    if ((k, i), (k + 1, s)) in rels and ((k + 1, t), (k, j)) in rels:
                        covered = True
                        break
                if covered:
                    break
        if not covered:
            return AdmissibilityResult("not_admissible", witness=(ki, kj))
    return AdmissibilityResult("admissible")


def test_check_admissible_matches_reference():
    # Every n=3 set of at most 6 of the 16 plus and minus arcs (14893 sets),
    # which holds all 190 admissible and all 80 not admissible sets of the
    # 2**16, then the 800 sets of the structural sweep above.
    arcs = [arc for k in (1, 2) for a in range(1, k + 2) for b in range(1, k + 1)
            for arc in (((k + 1, a), (k, b)), ((k, b), (k + 1, a)))]
    sets = [RelationSet(3, chosen) for size in range(7) for chosen in combinations(arcs, size)]
    statuses = Counter()
    for C in sets:
        result = check_admissible(C)
        assert result == reference_check_admissible(C), C
        statuses[result.status] += 1
    assert len(sets) == 14893
    assert (statuses["admissible"], statuses["not_admissible"]) == (190, 80)
    rng = random.Random(3)
    for _ in range(800):
        C = random_relation_set(rng)
        assert check_admissible(C) == reference_check_admissible(C), C

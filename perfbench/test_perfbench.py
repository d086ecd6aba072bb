"""Tests of the benchmark itself: run with `python3 -m pytest perfbench`."""

import hashlib
import random
import shutil
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

import run
import stats
import tracer as tracing
from workloads import (WORKLOADS, Job, WrongResult, gt_act, gt_count, gt_highest,
                       gt_random, weyl_count)

HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def pkg():
    sys.path.insert(0, str(run.SRC))
    return run.import_relpoly()


def test_tail_leaves_ten_jobs_beyond():
    pct, value, beyond = stats.tail(list(range(1, 101)))
    assert (pct, value, beyond) == (90.0, 90, 10)
    pct, value, beyond = stats.tail(list(range(11, 0, -1)))
    assert (value, beyond) == (1, 10)
    assert pct == pytest.approx(100 / 11)
    with pytest.raises(ValueError):
        stats.tail(list(range(10)))


def test_cost_slope_recovers_power_law():
    sizes = [3, 6, 10, 21, 45, 78] * 2
    seconds = [0.002 * s ** 2.5 for s in sizes]
    assert stats.loglog_slope(sizes, seconds) == pytest.approx(2.5)
    with pytest.raises(ValueError):
        stats.loglog_slope([5, 5], [1.0, 2.0])


class FailingWorkload:
    """One round: a good job, three that raise, one with a wrong result."""

    round_seconds = 1.0

    def round(self, r):
        def boom(exc):
            def run_():
                raise exc
            return run_

        def wrong(out):
            raise WrongResult("disagrees")

        ok = Job("ok", 1, lambda: 1, lambda out: "ok")
        return [
            ok,
            Job("recursion", 2, boom(RecursionError("deep")), str),
            Job("value", 3, boom(ValueError("bad")), str),
            Job("exit", 4, boom(SystemExit(2)), str),
            Job("wrong", 5, lambda: 1, wrong),
        ] + [ok] * 10


def test_failures_are_counted_by_type_and_the_run_goes_on():
    phase = run.Phase()
    rounds = 3
    run.run_phase(phase, FailingWorkload(), 0, rounds, {})
    assert len(phase.seconds) == 15 * rounds
    assert phase.failures == {"RecursionError": rounds, "ValueError": rounds,
                              "SystemExit": rounds, "WrongResult": rounds}
    assert phase.ok.count(True) == 11 * rounds
    assert phase.wrong == ["wrong: disagrees"] * rounds


def test_round_count_is_fixed_work():
    workload = FailingWorkload()
    assert run.round_count(workload, 15, 20.0) == 20
    assert run.round_count(workload, 15, 0.1) == 1
    assert run.round_count(workload, 15, 1.0, run.MIN_JOBS) == 3


def round_zero_digest(pkg, name, seed, workdir):
    workload = WORKLOADS[name](pkg, seed, workdir)
    digest = hashlib.sha256()
    for job in workload.round(0):
        try:
            record = job.check(job.run())
        except RecursionError:
            record = "failed"
        digest.update(record.encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", ["lattice", "cli"])
def test_one_seed_gives_one_digest(pkg, name, tmp_path):
    first = round_zero_digest(pkg, name, 3, tmp_path)
    assert round_zero_digest(pkg, name, 3, tmp_path) == first
    assert round_zero_digest(pkg, name, 4, tmp_path) != first


def test_two_runs_with_one_seed_print_one_digest():
    def digest_line():
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "lattice", "--seed", "5",
             "--seconds", "1"], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return [line for line in proc.stdout.splitlines() if line.startswith("digest ")]

    first = digest_line()
    assert len(first) == 1
    assert digest_line() == first


def test_own_counts_match_weyl_formula():
    for lam in [(2, 1, 0), (3, 2, 1, 0), (4, 2, 1, 0)]:
        n = len(lam)
        weights = [mu for mu in product(range(lam[-1], lam[0] + 1), repeat=n)
                   if sum(mu) == sum(lam)]
        assert sum(gt_count(list(lam), list(mu)) for mu in weights) == weyl_count(lam)


def test_own_action_matches_library(pkg):
    rng = random.Random(1)
    lam = (3, 2, 1, 0)
    C = pkg.RelationSet(4, [((i + 1, j), (i, j)) for i in range(1, 4) for j in range(1, i + 1)]
                        + [((i, j), (i + 1, j + 1)) for i in range(1, 4) for j in range(1, i + 1)])
    L = pkg.Pattern.from_rows(gt_highest(lam))
    for _ in range(20):
        rows = gt_random(rng, list(lam))
        M = pkg.Pattern.from_rows(rows)
        for gen in [("raise", 1), ("raise", 3), ("lower", 2), ("cartan", 4)]:
            got = pkg.act_in_basis(C, L, gen, pkg.LinComb.single(M))
            lib = sorted((tuple(e.offset for e in p.entries), c) for p, c in got.terms)
            assert gt_act(rows, gen) == lib


def test_tracer_restores_every_binding(pkg):
    modules = [m for name, m in sys.modules.items() if name.startswith("relpoly")]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}
    diff = pkg.patterns.Entry.diff
    tracer = tracing.Tracer(pkg.relations)
    tracing.install(tracer, pkg, modules)
    assert pkg.polyhedra.satisfies is not before[("relpoly.polyhedra", "satisfies")]
    assert pkg.modaction._satisfies is pkg.polyhedra.satisfies
    tracing.uninstall(tracer)
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}
    assert after == before
    assert pkg.patterns.Entry.diff is diff


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "lattice", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

"""relpoly benchmark: one client, one process, closed loop, no threads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py for why each was chosen): oracle, lattice,
commutators, cli.  Run from the root of a checkout; relpoly is imported from
its src/ directory.  Set-up imports relpoly and builds round 0 of the
workload's inputs, several times, and reports the median.  The timed phase
then runs the whole rounds of jobs that take S seconds at the reference host
speed, so every run of a workload does the same work.  Times are scaled to
that reference speed by a calibration snippet timed between jobs.

Each job is checked by an independent route right after it returns, outside
its timed region; a wrong result makes the run exit with code 1.  A job that
raises counts as failed, by exception type, and the run goes on.  The sha256
digest of round 0's checked outputs lets two versions be compared byte for
byte.

--trace 0 prints the end-to-end metrics.  --trace 1 runs every other round
with wrappers around each layer's public functions (tracer.py), and the
rounds between without them to measure the wrappers' overhead, and prints
the per-layer metrics; spans go to .perfbench_out/ in the checkout.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import stats
from workloads import WORKLOADS, WrongResult, own_rank

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SUBMODULES = ("errors", "linalg", "relations", "patterns", "tiling", "polyhedra",
              "modaction", "fileio", "selftest", "cli")

SETUP_REPEATS = 11
# Enough jobs that the tail percentile sits well above the median.
MIN_JOBS = 40

# The machines this runs on are shared, and their speed swings by a factor
# of up to two within minutes.  A fixed calibration snippet runs between jobs
# every CALIBRATE_EVERY_S.  Each job's time is scaled by the host speed around
# it, CALIBRATION_REF_S over the median calibration time within
# CALIBRATION_WINDOW_S of the job's start, so end-to-end times read as times
# on a host where the snippet takes CALIBRATION_REF_S.  This removes most,
# not all, of the swing; the raw values are printed too.
CALIBRATE_EVERY_S = 1.0
CALIBRATION_WINDOW_S = 3.0
CALIBRATION_REF_S = 0.05
CALIBRATION_MATRIX = [[(7 * i * i + 3 * j + i * j) % 11 - 5 for j in range(24)] for i in range(18)]


def host_speed(calibrations):
    """Host speed relative to the reference, from calibration times: > 1 on
    a fast host."""
    return CALIBRATION_REF_S / statistics.median(calibrations)


def calibrate():
    """Seconds for a fixed slice of work like relpoly's: exact elimination,
    and Fraction tuples hashed, counted and sorted."""
    start = time.perf_counter()
    for _ in range(3):
        own_rank(CALIBRATION_MATRIX)
    rows = [tuple(Fraction(i * j % 7, 1 + (i + j) % 3) for j in range(6)) for i in range(400)]
    counts = {}
    for row in rows:
        counts[row] = counts.get(row, 0) + 1
    rows.sort()
    return time.perf_counter() - start


def import_relpoly():
    """Import relpoly afresh from the checkout's src/ directory."""
    for name in [m for m in sys.modules if m == "relpoly" or m.startswith("relpoly.")]:
        del sys.modules[name]
    pkg = importlib.import_module("relpoly")
    for sub in SUBMODULES:
        importlib.import_module("relpoly." + sub)
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"relpoly came from {pkg.__file__}, not from {SRC}")
    return pkg


def set_up(workload_cls, seed, workdir):
    """Import relpoly and build round 0, SETUP_REPEATS times.

    Returns the median set-up time and the last (package, workload, round 0).
    """
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        pkg = import_relpoly()
        workload = workload_cls(pkg, seed, workdir)
        first = workload.round(0)
        times.append(time.perf_counter() - start)
    return statistics.median(times), pkg, workload, first


class Phase:
    """Timed jobs of one phase: sizes, times, failures and round-0 records."""

    def __init__(self):
        self.labels, self.sizes, self.seconds, self.ok = [], [], [], []
        self.starts = []
        self.failures = Counter()
        self.wrong = []
        self.digest = hashlib.sha256()
        self.rounds = 0
        self.calibrations = []  # (start, seconds)

    def scaled_seconds(self):
        """Job times scaled to the reference host speed around each job."""
        out = []
        for start, seconds in zip(self.starts, self.seconds):
            near = [c for t, c in self.calibrations if abs(t - start) <= CALIBRATION_WINDOW_S]
            out.append(seconds * host_speed(near))
        return out

    @property
    def busy(self):
        return sum(self.seconds)


def round_count(workload, jobs_per_round, seconds, min_jobs=0):
    """Whole rounds that take `seconds` at the reference host speed, and at
    least enough for `min_jobs` jobs.

    The count does not depend on how fast this run goes, so a run always
    does the same work: the same job mix, the same tail rank and the same
    growth of the program's caches, whatever the host or the version."""
    return max(1, round(seconds / workload.round_seconds), -(-min_jobs // jobs_per_round))


def run_phase(phase, workload, first_round, count, prebuilt, tracer=None):
    """Run `count` whole rounds from `first_round`.  `prebuilt` maps a round
    index to jobs built at set-up."""
    for r in range(first_round, first_round + count):
        jobs = prebuilt.pop(r, None) or workload.round(r)
        for job in jobs:
            now = time.perf_counter()
            if not phase.calibrations or now - phase.calibrations[-1][0] >= CALIBRATE_EVERY_S:
                phase.calibrations.append((now, calibrate()))
            phase.labels.append(job.label)
            start = time.perf_counter()
            phase.starts.append(start)
            try:
                out, error = tracer.run_job(job.label, job.run) if tracer else job.run(), None
            except (Exception, SystemExit) as exc:
                out, error = None, exc
            phase.seconds.append(time.perf_counter() - start)
            phase.sizes.append(job.size)
            ok = False
            if error is not None:
                phase.failures[type(error).__name__] += 1
                record = f"{job.label} FAILED {type(error).__name__}"
            else:
                try:
                    record = job.check(out)
                    ok = True
                except WrongResult as exc:
                    phase.failures["WrongResult"] += 1
                    phase.wrong.append(f"{job.label}: {exc}")
                    record = f"{job.label} WRONG"
            phase.ok.append(ok)
            del out
            if r == 0:
                phase.digest.update(record.encode() + b"\n")
        phase.rounds += 1


def group(pairs):
    """{key: [values]} from (key, value) pairs."""
    out = {}
    for key, value in pairs:
        out.setdefault(key, []).append(value)
    return out


def end_to_end(phase, setup_s):
    """End-to-end metrics, with job times scaled to the reference host speed.

    Returns the metrics and the lines to print about them, which include the
    raw (unscaled) values."""
    seconds = phase.scaled_seconds()
    ok_jobs = sum(phase.ok)
    fit = [(size, t) for size, t, ok in zip(phase.sizes, seconds, phase.ok) if ok and size]
    pct, tail_s, beyond = stats.tail(seconds)
    host = host_speed([c for _, c in phase.calibrations])
    metrics = {
        "setup_s": (setup_s * host, "s"),
        "jobs_per_s": (ok_jobs / sum(seconds), "1/s"),
        "job_p50_ms": (1000 * statistics.median(seconds), "ms"),
        "job_tail_ms": (1000 * tail_s, "ms"),
        "ok_ratio": (ok_jobs / len(seconds), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "cost_slope": (stats.loglog_slope(*zip(*fit)), "1"),
    }
    raw_tail = stats.tail(phase.seconds)[1]
    ladder = sorted((statistics.median(ts), label, len(ts))
                    for label, ts in group(zip(phase.labels, seconds)).items())
    notes = [f"job {label}: median {1000 * t:.4g} ms over {count}" for t, label, count in ladder]
    notes += [
        f"job_tail_ms is p{pct:.2f}, {beyond} of {len(seconds)} jobs beyond",
        f"host speed {host:.4f} of reference over {len(phase.calibrations)} calibrations; "
        f"raw setup_s {setup_s:.6g} s, jobs_per_s {ok_jobs / phase.busy:.6g} 1/s, "
        f"job_p50_ms {1000 * statistics.median(phase.seconds):.6g} ms, "
        f"job_tail_ms {1000 * raw_tail:.6g} ms",
    ]
    return metrics, notes


def overhead_ratio(traced, plain):
    """Traced time over untraced time for the same kinds of job: each traced
    job is set against the untraced mean time of jobs with its label, since
    traced and untraced jobs come from different rounds.  Times are scaled to
    the reference host speed, as the rounds run at different moments."""
    by_label = group(zip(plain.labels, plain.scaled_seconds()))
    pairs = [(t, sum(by_label[label]) / len(by_label[label]))
             for label, t in zip(traced.labels, traced.scaled_seconds()) if label in by_label]
    return sum(t for t, _ in pairs) / sum(mean for _, mean in pairs)


def write_spans(tracer, workload_name, seed):
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload_name}-{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for span_id, name, start, end, parent, job in tracer.spans:
            fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                 "parent": parent, "job": job}) + "\n")
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "relpoly" / "__init__.py").is_file():
        print(f"no relpoly package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s, pkg, workload, first = set_up(WORKLOADS[args.workload], args.seed, workdir)
        phase = Phase()
        phases = [phase]
        if not args.trace:
            count = round_count(workload, len(first), args.seconds, MIN_JOBS)
            run_phase(phase, workload, 0, count, {0: first})
            metrics, notes = end_to_end(phase, setup_s)
        else:
            import tracer as tracing

            modules = [m for name, m in sys.modules.items()
                       if name == "relpoly" or name.startswith("relpoly.")]
            tracer = tracing.Tracer(pkg.relations)
            plain = Phase()
            phases.append(plain)
            # Traced and untraced rounds alternate, so that both see the same
            # host speed on average.
            prebuilt = {0: first}
            for i in range(round_count(workload, len(first), args.seconds / 2)):
                tracing.install(tracer, pkg, modules)
                try:
                    run_phase(phase, workload, 2 * i, 1, prebuilt, tracer)
                finally:
                    tracing.uninstall(tracer)
                run_phase(plain, workload, 2 * i + 1, 1, prebuilt)
            overhead = overhead_ratio(phase, plain)
            metrics = tracing.layer_metrics(tracer, len(phase.seconds))
            metrics["trace.overhead_ratio"] = (overhead, "ratio")
            path = write_spans(tracer, args.workload, args.seed)
            job_s = metrics["trace.job_s"][0]
            notes = [f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}",
                     f"traced half {phase.busy:.3f} s raw over {len(phase.seconds)} jobs, "
                     f"untraced half {plain.busy:.3f} s raw over {len(plain.seconds)} jobs"]
            for layer in ("linalg.rref", "polyhedra.face_dim_oracle", "patterns.satisfies",
                          "modaction.act_in_basis", "modaction.act",
                          "modaction.check_commutators", "polyhedra.enumerate_integral",
                          "cli.main"):
                share = metrics[layer + ".self_s"][0] / job_s
                notes.append(f"{layer} self time is {100 * share:.1f}% of job time")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p.seconds) for p in phases)
    failures = sum((p.failures for p in phases), Counter())
    failed = sum(failures.values())
    wrong = [line for p in phases for line in p.wrong]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} jobs in {sum(p.rounds for p in phases)} rounds, "
          f"{sum(p.busy for p in phases):.2f} s of job time, size unit {workload.unit}")
    print(f"failed {failed} of {attempted} (failed_ratio {failed / attempted:.6f}), "
          f"by type {dict(sorted(failures.items()))}")
    print(f"digest {args.workload} seed {args.seed} round 0 sha256 {phase.digest.hexdigest()}")
    for line in wrong[:20]:
        print(f"WRONG {line}")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())

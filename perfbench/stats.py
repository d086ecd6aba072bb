"""Summary statistics for job timings: the tail percentile and the cost slope."""

import math
import statistics

# The tail is read at the highest percentile that still has this many jobs
# beyond it, so it rests on ten samples rather than on the single slowest job.
MIN_BEYOND = 10


def tail(values):
    """(percentile, value, jobs beyond) at the highest nearest-rank
    percentile that leaves at least MIN_BEYOND values strictly beyond its rank.

    Nearest rank r (1-based) of percentile p over N values is ceil(p/100 * N);
    the jobs beyond it are N - r.  With fewer than MIN_BEYOND + 1 values no
    percentile qualifies and ValueError is raised.
    """
    ordered = sorted(values)
    rank = len(ordered) - MIN_BEYOND
    if rank < 1:
        raise ValueError(
            f"need at least {MIN_BEYOND + 1} values for the tail, got {len(ordered)}")
    return 100.0 * rank / len(ordered), ordered[rank - 1], len(ordered) - rank


def loglog_slope(sizes, seconds):
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in seconds]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("cost slope needs at least two distinct sizes")
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx

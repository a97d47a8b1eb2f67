"""Order statistics and span arithmetic used by the benchmark report."""

import statistics

TAIL_BEYOND = 10


def median(values):
    return statistics.median(values) if values else float("nan")


def tail(durations, beyond=TAIL_BEYOND):
    """The highest percentile that still has `beyond` samples above it.

    Returns (value, percentile, samples_beyond). With n samples sorted
    ascending, the value is the (beyond+1)-th largest, so exactly `beyond`
    samples lie above it; its nearest-rank percentile is 100 * (n - beyond) / n.
    The percentile therefore grows smoothly with the sample count instead of
    jumping between fixed rungs when a run is a few iterations longer.
    With too few samples the maximum is returned with the true count beyond (0).
    """
    n = len(durations)
    if n == 0:
        return float("nan"), float("nan"), 0
    ordered = sorted(durations)
    if n <= beyond:
        return ordered[-1], 100.0, 0
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def self_times(starts, ends, parents):
    """Each span's duration minus the durations of its direct children.

    Children of one span run one after another inside it (the tracer keeps a
    stack), so subtracting their durations leaves the time the span spent
    outside any child.
    """
    own = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            own[p] -= ends[i] - starts[i]
    return own


def leaf_mask(n_spans, parents):
    """True for spans that have no child span."""
    has_child = [False] * n_spans
    for p in parents:
        if p >= 0:
            has_child[p] = True
    return [not c for c in has_child]

"""Statistics of the benchmark: medians, quartiles, tails, span self times.

Every timing the benchmark reports is a median or a tail of raw samples,
never a minimum of repetitions.
"""

import statistics
from collections import defaultdict


def median(values):
    """Median of `values`; 0.0 for no values."""
    return statistics.median(values) if values else 0.0


def quartiles(values):
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = median(values)
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def windowed(windows, statistic):
    """Median over windows of `statistic` of each window's samples."""
    return median([statistic(w) for w in windows])


def tail(values, percentile=99, beyond=10):
    """Highest percentile up to `percentile` with at least `beyond` samples
    above it, as (percentile, value).

    Nearest-rank: the p-th percentile of n sorted samples is the sample at
    rank ceil(p/100 * n); the samples beyond it are those of higher rank.
    With n <= `beyond` no percentile has that many samples above it and the
    maximum is reported (percentile 100).
    """
    if not values:
        return 0.0, 0.0
    ordered = sorted(values)
    n = len(ordered)
    rank = min(-(-percentile * n // 100), n - beyond)
    if rank < 1:
        return 100.0, ordered[-1]
    return 100.0 * rank / n, ordered[rank - 1]


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that its child spans cover (overlapping children count once).

    `spans` is a list of (id, parent, name, start, duration); parent 0 marks
    a root. Returns {id: self_time}.
    """
    children = defaultdict(list)
    for span in spans:
        children[span[1]].append(span)
    out = {}
    for span_id, _, _, start, dur in spans:
        end = start + dur
        covered = 0.0
        reach = start
        for _, _, _, c_start, c_dur in sorted(children[span_id],
                                              key=lambda c: c[3]):
            lo = max(c_start, reach)
            hi = min(c_start + c_dur, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span_id] = max(0.0, dur - covered)
    return out


def self_time_by_name(spans, exclude_roots=()):
    """Total self time and occurrence count per span name:
    {name: (total_self_time, count)}, leaving out every tree whose root
    span's name is in `exclude_roots`."""
    own = self_times(spans)
    parent = {span[0]: span[1] for span in spans}
    name = {span[0]: span[2] for span in spans}

    def root(span_id):
        while parent.get(span_id, 0) in name:
            span_id = parent[span_id]
        return name[span_id]

    totals = defaultdict(lambda: [0.0, 0])
    for span in spans:
        if exclude_roots and root(span[0]) in exclude_roots:
            continue
        entry = totals[span[2]]
        entry[0] += own[span[0]]
        entry[1] += 1
    return {name: (t, c) for name, (t, c) in totals.items()}

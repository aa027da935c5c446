"""Statistics over the benchmark's raw samples.

Everything here is pure: run.py feeds it nanosecond stamps and span
records, and test_stats.py pins the rules.
"""

import math
import statistics

# A percentile is reported only if at least this many samples lie beyond it.
MIN_TAIL = 10


def percentile(values, q):
    """Nearest-rank q-quantile (0 < q < 1) of a non-empty sequence."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count, q):
    """Samples strictly above the nearest-rank q-quantile of `count`."""
    return count - max(1, math.ceil(q * count))


def tail_percentile(values, q):
    """percentile(values, q), or ValueError when fewer than MIN_TAIL samples
    lie beyond it: such a tail is one or two outliers, not a percentile."""
    beyond = samples_beyond(len(values), q)
    if beyond < MIN_TAIL:
        raise ValueError(
            f"p{q * 100:g} of {len(values)} samples has {beyond} beyond it; "
            f"need {MIN_TAIL}")
    return percentile(values, q)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def due_time_latencies(rows):
    """Per-request latency and generator lateness, in milliseconds.

    rows: (due_ns, sent_ns, received_ns) per request, received_ns == 0 when
    unanswered. Latency runs from the due time, so a request the generator
    sent late carries that delay, and so does every request queued behind a
    stall. Unanswered requests get latency math.inf.
    """
    latencies = []
    lateness = []
    for due, sent, received in rows:
        lateness.append((sent - due) / 1e6)
        latencies.append((received - due) / 1e6 if received else math.inf)
    return latencies, lateness


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    covered by its children (overlapping children are counted once).

    spans: dicts with id, parent, start, end. Returns {id: self_time}.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    result = {}
    for s in spans:
        covered = 0
        cursor = s["start"]
        kids = sorted(children.get(s["id"], []), key=lambda c: c["start"])
        for c in kids:
            lo = max(c["start"], cursor)
            hi = min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[s["id"]] = (s["end"] - s["start"]) - covered
    return result


def crossing_rate(passed, failed, limit):
    """Offered rate at which p99 latency crosses `limit`, interpolated in
    log-latency between the highest passing probe and the first failing
    one. passed/failed: (rate, p99) or None."""
    if failed is None:
        return passed[0]
    (r_lo, p_lo), (r_hi, p_hi) = passed, failed
    if not (math.isfinite(p_hi) and p_hi > limit and 0 < p_lo <= limit):
        return r_lo
    return r_lo + (r_hi - r_lo) * math.log(limit / p_lo) / math.log(p_hi / p_lo)

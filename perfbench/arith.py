"""The benchmark's own arithmetic: percentiles, the tail rule, the
equal-accuracy sample count and span self time.

Pure functions over plain numbers, so ``tests/test_perfbench_arith.py``
can pin them without running a workload.
"""

from __future__ import annotations

import math

#: Percentiles the tail metric may report, highest first.  There is no
#: rung between 95 and 50: a 35-s run of the in-process loops had 36 to
#: 112 requests on a 2-vCPU host whose speed varied up to 2.5x, and a
#: p90 or p75 rung would flip their tail between request classes from
#: one run to the next.
TAIL_LADDER = (99.9, 99.0, 95.0, 50.0)

#: Samples a tail percentile must leave beyond it to be reported.
TAIL_MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``p`` percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def _rank(n: int, p: float) -> int:
    # rounded first: 99.9 / 100 * 10000 is 9990.000000000002 in floats
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def beyond(n: int, p: float) -> int:
    """Samples strictly past the nearest-rank ``p``-th percentile of
    ``n`` samples."""
    return n - _rank(n, p)


def tail_percentile(n: int, ladder=TAIL_LADDER,
                    min_beyond: int = TAIL_MIN_BEYOND) -> float:
    """The highest percentile of *ladder* with at least *min_beyond*
    of *n* samples beyond it.

    With fewer than ``2 * min_beyond`` samples not even the median
    qualifies; the lowest rung is returned then, and the caller reports
    how many samples lie beyond it.
    """
    for p in ladder:
        if beyond(n, p) >= min_beyond:
            return p
    return ladder[-1]


def tail(values) -> tuple[float, float, int]:
    """``(latency, percentile, samples beyond)`` under the tail rule."""
    p = tail_percentile(len(values))
    return percentile(values, p), p, beyond(len(values), p)


def equal_accuracy_n(deviation: float, n_ref: int,
                     ci_halfwidth) -> int:
    """Monte-Carlo sample count matching the method's accuracy.

    ``N_eq`` is the smallest ``N`` whose relative CI half-width on the
    MC sigma, ``ci_halfwidth(N)``, is no wider than *deviation* - the
    method's relative deviation from the reference sigma.  A deviation
    inside the reference's own half-width ``ci_halfwidth(n_ref)``
    cannot be resolved by the reference, so ``N_eq`` is floored there:
    it is set to *n_ref*.
    """
    if n_ref < 1:
        raise ValueError("reference sample count must be >= 1")
    if not deviation >= 0.0:
        raise ValueError(f"deviation must be >= 0, got {deviation!r}")
    if deviation <= ci_halfwidth(n_ref):
        return n_ref
    # ci_halfwidth falls monotonically in N: bracket, then bisect
    lo, hi = 1, 1
    while ci_halfwidth(hi) > deviation:
        lo, hi = hi, hi * 2
    while lo < hi:
        mid = (lo + hi) // 2
        if ci_halfwidth(mid) <= deviation:
            hi = mid
        else:
            lo = mid + 1
    return lo


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of *intervals* clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict:
    """Self time of every span: its duration minus the part of its
    interval covered by its children *on the same thread of the same
    process*.

    Children on other threads or in other processes ran concurrently
    with a parent that was waiting for them; their time is their own
    and is not subtracted, so the self times of one thread's spans
    partition that thread's wall time.  *spans* are objects with
    ``sid, parent, start, end, pid, tid``.
    """
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = [(c.start, c.end) for c in children.get(s.sid, ())
                if c.pid == s.pid and c.tid == s.tid]
        out[s.sid] = (s.end - s.start) - union_length(kids, s.start,
                                                      s.end)
    return out

"""Statistics of the perfbench metrics.

Every reported number is computed here from the raw samples the load
generator writes, so the rules live in one tested place:

* a timing is reported as a median and the highest percentile that still
  has at least ten samples beyond it (`reported_tail`);
* a run repeats the same fixed, seed-determined work several times. Each
  repetition's ops, in completion order, are cut into blocks of equal op
  count, and every block keeps the repetition that completed it fastest
  (`fastest_blocks`). Host interference only ever slows work down: a stall
  or a slow stretch of the shared host lengthens a block in some
  repetitions, while work that is really slower is slower in all of them.
  The rate is the ops of the kept blocks over their summed durations, and
  the latency percentiles are read from the kept blocks' ops;
* cost growth is the median op latency of the last tenth of the ops over
  that of the first tenth (`cost_growth`); host speed cancels out of the
  ratio;
* set-up time is a low percentile of many start-ups spread over the run
  (`setup_time`), for the same reason the blocks keep their fastest
  repetition.
"""

import math
import statistics

#: Samples that must lie beyond a reported tail percentile.
TAIL_MIN_BEYOND = 10
#: Blocks each repetition's ops are cut into (fewer when it has fewer ops).
BLOCKS_PER_REP = 500
#: Tail percentiles tried, highest first: p99 unless it lacks samples.
TAIL_LADDER = (99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
#: Percentile of a run's start-ups that is reported as its set-up time.
SETUP_PERCENTILE = 10.0


def median(values):
    """Median of a non-empty sequence (mean of the two middle values)."""
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def percentile(values, p):
    """Nearest-rank percentile: the ceil(p/100 * n)-th smallest sample."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < p <= 100.0:
        raise ValueError("percentile must be in (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered) / 100.0))
    return ordered[rank - 1]


def beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n."""
    return n - max(1, math.ceil(p * n / 100.0))


def reported_tail(n):
    """Highest percentile of TAIL_LADDER with >= TAIL_MIN_BEYOND samples
    beyond it among n samples, or None when even the median has fewer."""
    for p in TAIL_LADDER:
        if beyond(n, p) >= TAIL_MIN_BEYOND:
            return p
    return None


def setup_time(samples):
    """Set-up time of a run: the SETUP_PERCENTILE-th percentile of its
    start-ups. A slow stretch of the host lengthens the start-ups it
    covers, so a low percentile reads the start-ups it left alone."""
    return percentile(samples, SETUP_PERCENTILE)


def tenth_windows(values):
    """The first and the last tenth of a sequence (at least one each)."""
    if not values:
        raise ValueError("windows of no samples")
    k = max(1, len(values) // 10)
    return values[:k], values[-k:]


def cost_growth(latencies):
    """Median latency of the last tenth over that of the first tenth."""
    first, last = tenth_windows(latencies)
    return median(last) / median(first)


def block_bounds(n, blocks=BLOCKS_PER_REP):
    """(lo, hi) op ranges of the equal blocks n ops are cut into; a
    remainder shorter than one block is dropped."""
    if n < 1:
        raise ValueError("no ops")
    count = min(blocks, n)
    size = n // count
    return [(i * size, (i + 1) * size) for i in range(count)]


def fastest_blocks(phases, blocks=BLOCKS_PER_REP):
    """Keeps, for every block, the repetition that completed it fastest.

    `phases` are (start_us, end_us, lat_us) triples, one per repetition of
    the same work; end_us and lat_us list each op's completion time and
    latency in completion order. A block's duration runs from the previous
    block's last completion (the phase start for the first block) to its own
    last completion. Returns (ops per second over the kept blocks, the kept
    blocks' latencies in op order).
    """
    if not phases:
        raise ValueError("no repetitions")
    counts = {len(ends) for _, ends, _ in phases}
    if len(counts) != 1 or {len(lat) for _, _, lat in phases} != counts:
        raise ValueError("repetitions differ in op count")
    total_us = 0.0
    kept = []
    for lo, hi in block_bounds(counts.pop(), blocks):
        duration, lat = min(
            ((ends[hi - 1] - (ends[lo - 1] if lo else start), lat)
             for start, ends, lat in phases),
            key=lambda pair: pair[0])
        total_us += duration
        kept.extend(lat[lo:hi])
    return len(kept) * 1e6 / total_us, kept


def quartile_spread(values):
    """(q1, median, q3, spread) with spread = (q3 - q1) / median, using
    statistics.quantiles(values, n=4)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else math.inf

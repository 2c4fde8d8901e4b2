"""Summary statistics for job samples: tail percentile and failure ratio."""

from __future__ import annotations

import math

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


def tail_percentile(samples) -> tuple[float, float, int, int]:
    """(value, percentile, sample count, samples beyond) of the job tail.

    The tail is the highest nearest-rank percentile with at least
    TAIL_BEYOND samples beyond it.  When that percentile would not lie
    above the median (fewer than 2 * TAIL_BEYOND + 1 samples), the
    maximum is reported instead, as percentile 100 with 0 beyond, so a
    short run never passes a low percentile off as its tail.
    """
    xs = sorted(samples)
    count = len(xs)
    if count == 0:
        raise ValueError("no samples")
    rank = count - TAIL_BEYOND  # 1-based rank with exactly TAIL_BEYOND samples above it
    if rank <= math.ceil(count / 2):
        return xs[-1], 100.0, count, 0
    return xs[rank - 1], 100.0 * rank / count, count, TAIL_BEYOND


def failed_ratio(failed: int, attempted: int) -> float:
    """Failed jobs over attempted jobs; a run that attempted nothing is an error."""
    if attempted < 1:
        raise ValueError("no job was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted

"""Order statistics for per-task times."""

# candidate tail percentiles, in tenths of a percent, highest first
TAIL_PERCENTILES = (999, 990, 950, 900, 800, 750, 700, 600, 500)
MIN_BEYOND = 10


def nearest_rank(n: int, tenths: int) -> int:
    """1-based nearest rank of a percentile among n samples."""
    return max(-(-tenths * n // 1000), 1)


def tail(values, min_beyond: int = MIN_BEYOND):
    """(percentile, value, samples beyond) of the highest candidate percentile that
    leaves at least ``min_beyond`` samples above it, or None for too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    for tenths in TAIL_PERCENTILES:
        rank = nearest_rank(n, tenths)
        if n - rank >= min_beyond:
            return tenths / 10, ordered[rank - 1], n - rank
    return None


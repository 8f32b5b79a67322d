"""Arithmetic the benchmark reports with: the tail percentile rule and the
tracing overhead."""

from __future__ import annotations

import math
import statistics

# Percentiles the tail rule may pick, lowest first.
LADDER = (50, 75, 90, 95, 99, 99.5, 99.9, 99.95, 99.99, 99.995, 99.999)
MIN_BEYOND = 10


def rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile p among n sorted samples."""
    return max(1, math.ceil(p * n / 100))


def tail_percentile(n: int) -> float | None:
    """The highest percentile of LADDER with at least MIN_BEYOND of n
    samples above its nearest rank, or None when even the median has fewer."""
    best = None
    for p in LADDER:
        if n - rank(p, n) >= MIN_BEYOND:
            best = p
    return best


def percentile(values, p: float) -> float:
    ordered = sorted(values)
    return ordered[rank(p, len(ordered)) - 1]


def latency_summary(ms: list[float], n_list: int) -> dict:
    """Median and tail of per-operation times.

    The tail percentile is chosen from n_list, the size of the workload's
    input list, which the benchmark fixes; so the same percentile is read on
    every run and on every version of the program.
    """
    p = tail_percentile(n_list)
    return {
        "p50_ms": statistics.median(ms),
        "tail_percentile": p,
        "tail_ms": None if p is None else percentile(ms, p),
        "samples": len(ms),
    }


def overhead_pct(traced_s: float, untraced_s: float) -> float:
    return 100.0 * (traced_s - untraced_s) / untraced_s

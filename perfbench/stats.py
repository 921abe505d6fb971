"""Seeded input schedules and the summary statistics every workload reports."""

from __future__ import annotations

import math
from typing import Dict, Sequence

import numpy as np

#: Tail percentiles a workload may fix; the rule picks the highest one
#: that still leaves at least ``TAIL_BEYOND`` samples above it.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9)
TAIL_BEYOND = 10


def tail_percentile(planned_samples: int) -> float:
    """The highest ladder percentile with >= 10 of ``planned_samples`` beyond it."""
    best = None
    for pct in TAIL_LADDER:
        if tail_supported(planned_samples, pct):
            best = pct
    if best is None:
        raise ValueError(
            f"{planned_samples} samples support no tail percentile "
            f"(need >= {TAIL_BEYOND / (1.0 - TAIL_LADDER[0] / 100.0):.0f})"
        )
    return best


def tail_supported(samples: int, pct: float) -> bool:
    """Does a sample of this size leave >= 10 values beyond ``pct``?"""
    # Integer-valued percent arithmetic: 100 * (1 - 0.9) is not 10 in floats.
    return samples * (100.0 - pct) >= 100.0 * TAIL_BEYOND - 1e-6


def summarize(parts: Sequence[Sequence[float]],
              tail_pct: float) -> Dict[str, float]:
    """Median and fixed tail percentile of a latency sample in parts.

    Each statistic is the median of its per-part values (one part per
    round of a phase), so one noisy stretch of a shared host cannot move
    it; ``tail_supported`` says whether every part has ten samples beyond.
    """
    parts = [np.asarray(p, dtype=np.float64) for p in parts]
    sizes = [p.size for p in parts]
    if not parts or min(sizes) == 0:
        return {"n": int(sum(sizes)), "p50": math.nan, "tail": math.nan,
                "mean": math.nan, "tail_pct": tail_pct, "parts": len(parts),
                "tail_supported": False}
    p50s = [float(np.percentile(p, 50.0)) for p in parts]
    tails = [float(np.percentile(p, tail_pct)) for p in parts]
    return {
        "n": int(sum(sizes)),
        "p50": float(np.median(p50s)),
        "tail": float(np.median(tails)),
        "p50_by_part": p50s,
        "tail_by_part": tails,
        "mean": float(np.concatenate(parts).mean()),
        "tail_pct": tail_pct,
        "parts": len(parts),
        "tail_supported": tail_supported(min(sizes), tail_pct),
    }


def poisson_offsets(rate_per_s: float, duration_s: float,
                    rng: np.random.Generator) -> np.ndarray:
    """Arrival instants (seconds from phase start) of a Poisson process."""
    if rate_per_s <= 0 or duration_s <= 0:
        return np.zeros(0)
    expected = rate_per_s * duration_s
    count = int(expected + 6.0 * math.sqrt(expected) + 16)
    offsets = np.cumsum(rng.exponential(1.0 / rate_per_s, size=count))
    return offsets[offsets < duration_s]


def zipf_indices(pool_size: int, count: int, exponent: float,
                 rng: np.random.Generator) -> np.ndarray:
    """``count`` draws from a pool whose i-th entry has weight 1/(i+1)^s."""
    weights = 1.0 / np.arange(1, pool_size + 1, dtype=np.float64) ** exponent
    return rng.choice(pool_size, size=count, p=weights / weights.sum())


def cyclic_indices(pool_size: int, count: int, start: int) -> np.ndarray:
    """Round-robin draws: an entry recurs only after every other one."""
    return (start + np.arange(count)) % pool_size

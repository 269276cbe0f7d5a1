"""Noise-aware verdicts for two sets of benchmark runs (base vs head).

A verdict compares medians against the metric's bound (the share of the
base median by which it may worsen) and refuses to call a difference
when the run-to-run spread is wider than that bound.  A gain is claimed
only by :func:`claim`: at least nine tenths of paired runs won, and the
medians differ by more than the base's own interquartile range.
"""

from __future__ import annotations

import statistics


def summarize(values: list[float]) -> dict:
    """Median, quartiles, min, max and count of a sample.

    With ten or fewer samples no percentile has ten samples beyond it,
    so ``max`` is the reported tail.
    """
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, _median, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {
        "median": statistics.median(ordered),
        "q1": q1,
        "q3": q3,
        "min": ordered[0],
        "max": ordered[-1],
        "n": len(ordered),
    }


def beats(a: float, b: float, better: str) -> bool:
    """Whether ``a`` is strictly better than ``b`` (ties are no win)."""
    return a < b if better == "lower" else a > b


def worsening(base: float, head: float, better: str) -> float:
    """How much worse ``head`` is than ``base``, as a share of ``base``.

    Negative when ``head`` is better; absolute when ``base`` is 0.
    """
    delta = head - base if better == "lower" else base - head
    return delta / abs(base) if base else delta


def verdict(base: list[float], head: list[float], better: str, bound: float) -> str:
    """``better``, ``worse``, ``unchanged`` or ``unresolved``."""
    b, h = summarize(base), summarize(head)
    scale = abs(b["median"]) or 1.0
    spread = max(b["q3"] - b["q1"], h["q3"] - h["q1"]) / scale
    worse_by = worsening(b["median"], h["median"], better)
    all_better = all(beats(x, y, better) for x in head for y in base)
    all_worse = all(beats(y, x, better) for x in head for y in base)
    if worse_by > bound and (spread <= bound or all_worse):
        return "worse"
    if worse_by < -bound and (spread <= bound or all_better):
        return "better"
    if spread > bound and not all_better:
        return "unresolved"
    return "unchanged"


def claim(base: list[float], head: list[float], better: str) -> dict:
    """The gain rule for paired runs (``base[i]`` ran beside ``head[i]``)."""
    pairs = min(len(base), len(head))
    wins = sum(beats(h, b, better) for b, h in zip(base, head))
    b, h = summarize(base), summarize(head)
    gain = b["median"] - h["median"] if better == "lower" else h["median"] - b["median"]
    base_iqr = b["q3"] - b["q1"]
    return {
        "pairs": pairs,
        "wins": wins,
        "gain": gain,
        "base_iqr": base_iqr,
        "met": pairs >= 10 and wins >= 0.9 * pairs and gain > base_iqr,
    }

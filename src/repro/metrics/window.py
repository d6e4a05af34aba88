"""Sliding-window statistics helpers shared by the metrics pipeline."""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Iterable, List, Optional, Tuple

import numpy as np

__all__ = ["percentile", "TimeWindow"]


def percentile(values: Iterable[float], q: float) -> Optional[float]:
    """q-th percentile of finite values, None for empty input.

    Equal bit for bit to ``float(np.percentile(values, q))`` (numpy's
    default "linear" method), without numpy's per-call overhead, which
    dominates on the few-dozen-sample QoS windows: the virtual index is
    ``(n - 1) * (q / 100)``; an index at or past the last element reads
    the last element with weight ``index + 1``, as numpy's index clamp
    does; and the interpolation is numpy's ``_lerp``, which evaluates
    ``b - d * (1 - t)`` instead of ``a + d * t`` once ``t >= 0.5``.
    """
    data = sorted(values)
    n = len(data)
    if not n:
        return None
    if not 0 <= q <= 100:
        raise ValueError("Percentiles must be in the range [0, 100]")
    index = (n - 1) * (q / 100)
    if index >= n - 1:
        below = -1
        above = -1
    else:
        below = math.floor(index)
        above = below + 1
    t = index - below
    a = data[below]
    b = data[above]
    d = b - a
    if t >= 0.5:
        return float(b - d * (1 - t))
    return float(a + d * t)


class TimeWindow:
    """Keeps (time, value) samples inside a moving horizon."""

    def __init__(self, horizon_ms: float) -> None:
        if horizon_ms <= 0:
            raise ValueError("horizon must be positive")
        self.horizon_ms = horizon_ms
        self._samples: Deque[Tuple[float, float]] = deque()

    def add(self, time_ms: float, value: float) -> None:
        self._samples.append((time_ms, value))
        self._expire(time_ms)

    def _expire(self, now_ms: float) -> None:
        cutoff = now_ms - self.horizon_ms
        while self._samples and self._samples[0][0] < cutoff:
            self._samples.popleft()

    def values(self) -> List[float]:
        return [v for _, v in self._samples]

    def mean(self) -> Optional[float]:
        vals = self.values()
        return float(np.mean(vals)) if vals else None

    def p95(self) -> Optional[float]:
        return percentile(self.values(), 95.0)

    def count(self) -> int:
        return len(self._samples)

    def sum(self) -> float:
        return float(sum(v for _, v in self._samples))

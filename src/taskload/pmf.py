"""Discrete PMFs over intervention counts and their convolution algebra."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_MASS_TOL = 1e-9


@dataclass
class TaskloadPmf:
    """Probability mass over counts n = 0, 1, 2, ...

    truncation_mass is the residual probability beyond the last index,
    so sum(probs) + truncation_mass = 1 within 1e-9. horizon records the
    time window (minutes) the counts refer to; None for window-free PMFs
    such as occupancy snapshots.
    """

    probs: np.ndarray
    truncation_mass: float = 0.0
    horizon: float | None = None

    def __post_init__(self):
        self.probs = np.atleast_1d(np.asarray(self.probs, dtype=float))
        if self.probs.ndim != 1 or self.probs.size == 0:
            raise ValueError("probs must be a non-empty 1-D array")
        if not (np.isfinite(self.probs).all()
                and math.isfinite(self.truncation_mass)):
            raise ValueError(f"non-finite mass: probs {self.probs}, "
                             f"truncation {self.truncation_mass}")
        if np.any(self.probs < -_MASS_TOL):
            raise ValueError(f"negative probability {self.probs.min()}")
        self.probs = np.clip(self.probs, 0.0, None)
        if self.truncation_mass < -_MASS_TOL:
            raise ValueError(f"negative truncation mass {self.truncation_mass}")
        self.truncation_mass = max(0.0, float(self.truncation_mass))
        total = self.probs.sum() + self.truncation_mass
        if abs(total - 1.0) > _MASS_TOL:
            raise ValueError(f"PMF mass {total} is not 1")

    @property
    def support(self) -> np.ndarray:
        return np.arange(self.probs.size)

    def mean(self) -> float:
        return float(self.support @ self.probs)

    def p_geq(self, n: int) -> float:
        """P[N >= n], counting truncated mass as >= any index."""
        if n <= 0:
            return float(self.probs.sum() + self.truncation_mass)
        return float(self.probs[n:].sum() + self.truncation_mass)

    def mode(self) -> int:
        return int(np.argmax(self.probs))

    def trimmed(self, eps: float = 1e-15) -> "TaskloadPmf":
        """Drop a negligible right tail into truncation_mass."""
        keep = self.probs.size
        tail = 0.0
        while keep > 1 and tail + self.probs[keep - 1] < eps:
            tail += self.probs[keep - 1]
            keep -= 1
        return TaskloadPmf(self.probs[:keep].copy(),
                           self.truncation_mass + tail, self.horizon)

    def padded(self, size: int) -> np.ndarray:
        out = np.zeros(size)
        out[:min(size, self.probs.size)] = self.probs[:size]
        return out


def delta_pmf(n: int = 0, horizon: float | None = None) -> TaskloadPmf:
    """Point mass at count n."""
    probs = np.zeros(n + 1)
    probs[n] = 1.0
    return TaskloadPmf(probs, 0.0, horizon)


def same_horizon(a: float | None, b: float | None) -> bool:
    """False only when both horizons are recorded and differ: count laws
    over different windows can be neither combined nor compared."""
    return (a is None or b is None
            or math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9))


def common_horizon(a: float | None, b: float | None) -> float | None:
    """The shared time window of two count laws (None means window-free)."""
    if not same_horizon(a, b):
        raise ValueError(f"horizon mismatch: {a} vs {b}")
    return a if a is not None else b


def convolve_pmf(p: TaskloadPmf, q: TaskloadPmf) -> TaskloadPmf:
    """PMF of the sum of two independent counts."""
    horizon = common_horizon(p.horizon, q.horizon)
    # the sum is truncated when either count is: for independent counts
    # that is p.t + q.t - p.t q.t, free of the cancellation in 1 - sum
    pt, qt = p.truncation_mass, q.truncation_mass
    return TaskloadPmf(np.convolve(p.probs, q.probs), pt + qt - pt * qt,
                       horizon)


def tv_distance(p: TaskloadPmf, q: TaskloadPmf) -> float:
    """Total variation: half the L1 distance including truncated mass."""
    size = max(p.probs.size, q.probs.size)
    diff = np.abs(p.padded(size) - q.padded(size)).sum()
    diff += abs(p.truncation_mass - q.truncation_mass)
    return 0.5 * float(diff)


def wilson_interval(k, n: int, z: float = 1.959963984540054):
    """95% Wilson score interval for a binomial proportion, vectorized."""
    if n <= 0:
        raise ValueError("n must be positive")
    k = np.asarray(k, dtype=float)
    phat = k / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = (z / denom) * np.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n))
    lo = np.where(k == 0, 0.0, np.clip(center - half, 0.0, 1.0))
    hi = np.where(k == n, 1.0, np.clip(center + half, 0.0, 1.0))
    return lo, hi

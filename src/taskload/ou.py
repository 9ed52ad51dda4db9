"""Ornstein-Uhlenbeck deviation engine.

The per-axis deviation of an aircraft from its nominal 4-D trajectory is
modeled as the mean-reverting diffusion

    dX = kappa (mu - X) dt + sigma dW.

Everything here uses the exact Gaussian transition law

    X(t+dt) | X(t) ~ Normal(X e^{-kappa dt} + mu (1 - e^{-kappa dt}),
                            sigma^2 (1 - e^{-2 kappa dt}) / (2 kappa)),

so path statistics carry no Euler discretization bias at any step size.
First-passage estimates remain grid-monitored: a barrier contact is the
first *grid time* at which the state lies beyond the barrier, and
excursions between grid points are invisible by construction.
One engine, _observe_and_reset, steps every simulation: the harness's
lane scorer calls it, and both oracles walk their paths through _walk.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .pmf import TaskloadPmf, wilson_interval
from .rng import RandomSource


@dataclass(frozen=True)
class OuParams:
    """Elasticity (1/min), reversion mean (spatial), volatility (spatial/sqrt(min))."""

    kappa: float
    mu: float
    sigma: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.kappa, self.mu, self.sigma)):
            raise ValueError("non-finite OU parameter")
        if self.kappa < 0.0:
            raise ValueError(f"kappa must be >= 0, got {self.kappa}")
        if self.sigma < 0.0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")

    @property
    def stationary_sd(self) -> float:
        """sigma / sqrt(2 kappa); inf for a driftless diffusing process."""
        if self.sigma == 0.0:
            return 0.0
        if self.kappa == 0.0:
            return math.inf
        return self.sigma / math.sqrt(2.0 * self.kappa)


#: Per-axis parameters fitted to the Johnson FTE generator sampled at
#: 1-minute steps (NM and ft; kappa per minute). The reversion means are
#: artifacts of the generator's skew offset.
OU_FTE_FIT = {
    "lateral": OuParams(kappa=3.492, mu=2.79e-2, sigma=7.27e-2),
    "vertical": OuParams(kappa=1.841, mu=8.034, sigma=8.683),
    "longitudinal": OuParams(kappa=2.1662, mu=9.965e-2, sigma=0.2774),
}

#: The same dynamics centered on the nominal trajectory (mu = 0). Corridor
#: scenarios use these: tolerance bounds are symmetric about the nominal
#: path, and the fitted means above are generator offsets, not a physical
#: steady-state displacement of the aircraft.
OU_FTE_CENTERED = {axis: replace(p, mu=0.0) for axis, p in OU_FTE_FIT.items()}


@dataclass(frozen=True)
class Barrier:
    """Intervention boundary for one axis.

    two_sided: contact when |x - nominal| >= level (level > 0); the
    nominal trajectory sits at deviation 0. one_sided: contact when
    x >= level. origin is the path start used by first-passage runs.
    """

    kind: str
    level: float
    origin: float = 0.0

    def __post_init__(self):
        if self.kind not in ("one_sided", "two_sided"):
            raise ValueError(f"unknown barrier kind {self.kind!r}")
        if not (math.isfinite(self.level) and math.isfinite(self.origin)):
            raise ValueError("non-finite barrier")
        if self.kind == "two_sided" and self.level <= 0.0:
            raise ValueError(f"two-sided level must be > 0, got {self.level}")

    def crossed(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "two_sided":
            return np.abs(x) >= self.level
        return x >= self.level

    @property
    def origin_inside(self) -> bool:
        return not bool(self.crossed(self.origin))


def transition_coeffs(p: OuParams, dt: float) -> tuple[float, float, float]:
    """(a, b, s) with X' = a X + b + s Z, Z standard normal.

    Exact for any dt; the kappa -> 0 limit (a = 1, variance sigma^2 dt)
    is taken analytically.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if p.kappa == 0.0:
        return 1.0, 0.0, p.sigma * math.sqrt(dt)
    a = math.exp(-p.kappa * dt)
    b = p.mu * (1.0 - a)
    # (1 - e^{-2 kappa dt}) / (2 kappa), stable for small kappa*dt
    var = p.sigma ** 2 * (-math.expm1(-2.0 * p.kappa * dt)) / (2.0 * p.kappa)
    return a, b, math.sqrt(var)


def lattice_steps(window, dt):
    """How many of dt, 2 dt, ... lie in window (1e-9 slack); elementwise."""
    return np.floor(np.divide(window, dt) + 1e-9).astype(int)


@dataclass
class FirstPassageResult:
    """Grid-monitored first-passage summary over a batch of paths."""

    hit_times: np.ndarray
    n_paths: int
    n_hits: int
    n_censored: int
    horizon: float
    dt: float
    probability: float
    ci_low: float
    ci_high: float
    degenerate: bool = False


#: Paths per block of first_passage_mc. Each block draws from its own
#: substream of the caller's source, so results do not depend on how
#: many worker threads run the blocks.
FIRST_PASSAGE_BLOCK = 65536


def first_passage_mc(p: OuParams, b: Barrier, horizon: float, dt: float,
                     n_paths: int, src: RandomSource) -> FirstPassageResult:
    """Estimate P[tau <= horizon] with a 95% CI from n_paths paths.

    Paths start at b.origin; the hitting time is the first grid time
    with the state beyond the barrier. Paths that never hit within the
    horizon are censored. A degenerate barrier (origin already beyond)
    reports hitting time 0 for every path, flagged. Blocks of
    FIRST_PASSAGE_BLOCK paths run on up to os.cpu_count() threads (numpy
    releases the GIL while it fills normals and runs ufuncs).
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if not b.origin_inside:
        lo, hi = wilson_interval(n_paths, n_paths)
        return FirstPassageResult(np.zeros(n_paths), n_paths, n_paths, 0,
                                  horizon, dt, 1.0, float(lo), float(hi),
                                  degenerate=True)

    n_steps = lattice_steps(horizon, dt)
    coeffs = transition_coeffs(p, dt)
    n_blocks = -(-n_paths // FIRST_PASSAGE_BLOCK)

    def run(k: int) -> np.ndarray:
        size = min(FIRST_PASSAGE_BLOCK, n_paths - k * FIRST_PASSAGE_BLOCK)
        return _walk(coeffs, b, n_steps, size, src.substream(k).generator,
                     math.nan)[0]

    with ThreadPoolExecutor(min(n_blocks, os.cpu_count() or 1)) as pool:
        hit_step = np.concatenate(list(pool.map(run, range(n_blocks))))
    hit_times = hit_step[hit_step > 0].astype(float) * dt
    n_hits = int(hit_times.size)
    prob = n_hits / n_paths
    lo, hi = wilson_interval(n_hits, n_paths)
    return FirstPassageResult(hit_times, n_paths, n_hits, n_paths - n_hits,
                              horizon, dt, prob, float(lo), float(hi))


def intervention_count_mc(p: OuParams, b: Barrier, horizon: float, dt: float,
                          reset: float, n_paths: int, src: RandomSource,
                          n_max: int = 64) -> TaskloadPmf:
    """Empirical PMF of barrier contacts per path over the horizon.

    At every grid time beyond the barrier the count increments and the
    state teleports to `reset` (the controller returning the aircraft to
    its trajectory). Counts above n_max collapse into truncation mass.
    Each grid step draws one normal per path, in step order.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if b.crossed(reset):
        raise ValueError(f"reset point {reset} is not inside the barrier")
    if not b.origin_inside:
        raise ValueError(f"origin {b.origin} is not inside the barrier")
    counts = _walk(transition_coeffs(p, dt), b, lattice_steps(horizon, dt),
                   n_paths, src.generator, reset)[1]
    return pmf_from_counts(counts, n_max=n_max, horizon=horizon)


def _walk(coeffs, b: Barrier, n_steps: int, size: int,
          gen: np.random.Generator, reset: float
          ) -> tuple[np.ndarray, np.ndarray]:
    """(first hit step, 0 = none; hit count) of `size` paths from b.origin.
    Each grid step fills `size` normals from gen and makes one
    _observe_and_reset call into a one-byte hit flag, read only when it
    shows a hit (an int64 count there runs about 8% slower). A NaN reset
    retires a path at its first hit: NaN never compares beyond a bound."""
    x, z = np.full(size, float(b.origin)), np.empty((1, size))
    flag = np.zeros(size, dtype=bool)
    first, count = np.zeros(size, dtype=np.int32), np.zeros(size, np.int64)
    for step in range(1, n_steps + 1):
        gen.standard_normal(out=z)
        _observe_and_reset(x, z, coeffs, b.level, flag, reset=reset,
                           two_sided=b.kind == "two_sided")
        if flag.any():
            first[flag & (count == 0)] = step
            count += flag
            flag[:] = False
    return first, count


def _observe_and_reset(x: np.ndarray, z: np.ndarray, coeffs, bounds,
                       counts: np.ndarray, counted: np.ndarray | None = None,
                       reset: float = 0.0, two_sided: bool = True) -> None:
    """Step x (rows, axes) through one exact transition (coeffs = (a, b,
    s) at the observation step) per slice of the noise block z
    (observations, rows, axes) and observe it; x, counts and z (scaled
    by s) are updated in place. A row-axis at or beyond its bound is a
    hit and resets to `reset`; hits on row-axes counted at that step (an
    (observations, rows, axes) mask, all by default) add one to counts.
    Each element computes ((a x) + b) + s z. Coefficients and bounds
    broadcast to x; give them x's full shape so that each ufunc runs one
    contiguous inner loop, not one of length axes per row. Callers: the
    harness's lane scorer, and first_passage_mc and intervention_count_mc
    through _walk; a one-byte flag array works as counts (bool + is or)."""
    a, b, s = coeffs
    z *= s
    hits, tmp = np.empty(x.shape, dtype=bool), np.empty_like(x)
    for m in range(z.shape[0]):
        x *= a
        x += b
        x += z[m]
        np.greater_equal(np.abs(x, out=tmp) if two_sided else x, bounds,
                         out=hits)
        np.copyto(x, reset, where=hits)
        if counted is not None:
            hits &= counted[m]
        counts += hits


def pmf_from_counts(counts: np.ndarray, n_max: int | None = None,
                    horizon: float | None = None) -> TaskloadPmf:
    """Normalized empirical PMF from integer per-path counts."""
    counts = np.asarray(counts)
    n = counts.size
    top = int(counts.max(initial=0))
    if n_max is not None and top > n_max:
        freq = np.bincount(np.minimum(counts, n_max + 1),
                           minlength=n_max + 2).astype(float)
        trunc = freq[n_max + 1] / n
        return TaskloadPmf(freq[:n_max + 1] / n, trunc, horizon)
    freq = np.bincount(counts, minlength=top + 1).astype(float)
    return TaskloadPmf(freq / n, 0.0, horizon)

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

Two exact engines sample the chain for first_passage_mc: _walk steps,
observes and resets every path one observation at a time (it also runs
intervention_count_mc), and _Thinned, the mixture branch on one axis,
draws first hits only. (The Monte Carlo harness draws its hits from the
exact law hitting.first_hit_law.)
Observed n times from 0, the chain X_j = a X_{j-1} + b + s Z_j has
exact Gaussian tails p_j = P[X_j >= bound] + P[X_j <= -bound], and
their sum U_n bounds the probability of a hit. Where U_n < 1 a path is
a candidate if its gate uniform lies below U_n; with n = 1 a candidate
hits, which has probability U_1 exactly. Otherwise it picks one
exceedance event with probability proportional to its tail, draws X_j
from its truncated normal, completes the path by shifting an
unconditional path along its regression on X_j (Cov(X_i, X_j) =
a^|i - j| Var(X_min(i, j))), and with N the path's exceedances is
accepted with probability 1 / N. So P[hit] = U_n E[1 / N] = P[some
|X_j| >= bound], an accepted path has the law of a path given a hit,
and its first exceedance is the first hit (Adler, Blanchet & Liu 2012,
Ann. Appl. Probab. 22(3); the retrospective idea of Beskos & Roberts
2005, Ann. Appl. Probab. 15(4)). One route rule picks the engine:
paths from 0 under a two-sided barrier with s > 0 and U_n < THIN_BELOW
thin; all else walks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .distributions import normal_cdf
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


#: first_passage_mc thins below this U_n: thinning took about 5-6 U_n
#: times the walk's time at 30, 150 and 1 200 steps.
THIN_BELOW = 0.2


def first_passage_mc(p: OuParams, b: Barrier, horizon: float, dt: float,
                     n_paths: int, src: RandomSource) -> FirstPassageResult:
    """Estimate P[tau <= horizon] with a 95% CI from n_paths paths.

    Paths start at b.origin; the hitting time is the first grid time
    with the state beyond the barrier. Paths that never hit within the
    horizon are censored. A degenerate barrier (origin already beyond)
    reports hitting time 0 for every path, flagged. The module's route
    rule picks the engine; both draw from src.generator in one thread.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if not b.origin_inside:
        lo, hi = map(float, wilson_interval(n_paths, n_paths))
        return FirstPassageResult(np.zeros(n_paths), n_paths, n_paths, 0,
                                  horizon, dt, 1.0, lo, hi, degenerate=True)

    n_steps, coeffs = lattice_steps(horizon, dt), transition_coeffs(p, dt)
    thinned = (_Thinned(coeffs, b.level, n_steps) if b.kind == "two_sided"
               and b.origin == 0.0 and n_steps >= 1 and coeffs[2] > 0.0
               else None)
    if thinned is not None and thinned.gate < THIN_BELOW:
        # 1 marks a candidate, a hit if n_steps = 1; longer horizons go
        # once through the branch, in slices of about 2^20 path-observations
        hit_step = (src.uniform(n_paths) < thinned.gate).astype(np.int64)
        cand = np.flatnonzero(hit_step)
        per = max(2 ** 20 // n_steps, 1)
        for k in range(0, cand.size if n_steps > 1 else 0, per):
            c = cand[k:k + per]
            hit_step[c] = thinned.first_hits(src, c.size)
    else:
        hit_step = _walk(coeffs, b, n_steps, n_paths, src.generator,
                         math.nan)[0]
    hit_times = hit_step[hit_step > 0].astype(float) * dt
    n_hits = int(hit_times.size)
    lo, hi = map(float, wilson_interval(n_hits, n_paths))
    return FirstPassageResult(hit_times, n_paths, n_hits, n_paths - n_hits,
                              horizon, dt, n_hits / n_paths, lo, hi)


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
    Each grid step fills `size` normals z from gen, steps every state x
    through the exact transition (coeffs = (a, b, s)) as ((a x) + b) +
    s z in place, and observes it into a one-byte hit flag; the counts
    are touched only on a step with a hit. A state at or beyond the
    barrier resets to `reset`, and a NaN reset retires a path at its
    first hit: NaN never compares beyond a bound."""
    a, shift, s = coeffs
    two_sided = b.kind == "two_sided"
    x, z = np.full(size, float(b.origin)), np.empty(size)
    hit = np.empty(size, dtype=bool)
    first, count = np.zeros(size, dtype=np.int32), np.zeros(size, np.int64)
    for step in range(1, n_steps + 1):
        gen.standard_normal(out=z)
        z *= s
        x *= a
        x += shift
        x += z
        np.greater_equal(np.abs(x) if two_sided else x, b.level, out=hit)
        if hit.any():
            np.copyto(x, reset, where=hit)
            first[hit & (count == 0)] = step
            count += hit
    return first, count


class _Thinned:
    """The mixture branch for one axis with s > 0 observed n >= 1 times
    from 0 (see the module docstring). Its tables are 1-D over the
    observations j = 0..n - 1, and gate is U_n."""

    def __init__(self, coeffs: tuple[float, float, float], bound: float,
                 n: int):
        self.a, self.b, self.s = coeffs
        self.bound = bound
        self.powers = self.a ** np.arange(n)
        self.mean = self.b * np.cumsum(self.powers)              # E X_j
        self.var = self.s * self.s * np.cumsum(self.powers * self.powers)
        self.sd = np.sqrt(self.var)                              # of X_j
        # cum[2 j + side] sums the tails of the events up to (j, side),
        # side 0 above the bound and 1 below
        self.cum = np.cumsum(normal_cdf(np.stack(
            [(self.mean - bound) / self.sd, (-bound - self.mean) / self.sd],
            axis=1)).ravel())
        self.gate = self.cum[-1]

    def first_hits(self, rs: RandomSource, m: int) -> np.ndarray:
        """One round of the mixture branch on m candidate paths of n >= 2
        observations: each one's first hit (1-based), or 0 if rejected.
        Given X_j, a path from 0 shifted by Cov(X_i, X_j) / Var(X_j) (X_j
        - x_j) along its regression has the law of a path given X_j;
        after j that is the chain continued from X_j."""
        x = rs.uniform(m) * self.gate
        event = np.minimum((self.cum <= x[:, None]).sum(axis=1),
                           self.cum.size - 1)
        j, sign = event // 2, 1.0 - 2.0 * (event % 2)
        x_j = _truncated_normals(rs, self.mean[j], self.sd[j], self.bound,
                                 sign)
        # (observation, path) array, each path a column; path_i = sum_k
        # a^(i - k) (b + s Z_k), by a scan whose pass with reach r adds
        # a^r times the partial sum r observations back
        path = self.s * rs.standard_normal((m, self.mean.size)).T + self.b
        power, reach = self.a, 1
        while reach < len(path):
            path[reach:] += power * path[:-reach]
            power, reach = power * power, 2 * reach
        # Cov(X_i, X_j) / Var(X_j) = a^|i - j| Var(X_min(i, j)) / Var(X_j)
        obs, paths = np.arange(len(path))[:, None], np.arange(m)
        coef = (self.powers[np.abs(obs - j)] * self.var[np.minimum(obs, j)]
                / self.var[j])
        beyond = np.abs(path + coef * (x_j - path[j, paths])) >= self.bound
        beyond[j, paths] = True
        first = beyond.argmax(axis=0) + 1
        return np.where(rs.uniform(m) * beyond.sum(axis=0) < 1.0, first, 0)


def _truncated_normals(rs: RandomSource, mean: np.ndarray, sd: np.ndarray,
                       bound: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """X ~ Normal(mean, sd^2) given sign X >= bound, exactly, for sign +1
    or -1, over arrays: X = mean + sign sd T with T a standard normal
    given T >= alpha = (bound - sign mean) / sd, by Robert's (1995, Stat.
    Comput. 5) proposal alpha + E / lam, lam = (alpha + sqrt(alpha^2 +
    4)) / 2, accepted with probability exp(-(T - lam)^2 / 2). It is exact
    for any alpha, accepts over half its proposals from alpha = -1 up, and
    neither underflows nor slows as alpha grows. Each round draws a (2,
    left) uniform array, proposals first. X is clamped to the bound."""
    alpha = (bound - sign * mean) / sd
    lam = 0.5 * (alpha + np.sqrt(alpha * alpha + 4.0))
    t, left = np.empty_like(alpha), np.arange(alpha.size)
    while left.size:
        u = rs.uniform((2, left.size))
        proposal = alpha[left] - np.log1p(-u[0]) / lam[left]
        ok = u[1] <= np.exp(-0.5 * (proposal - lam[left]) ** 2)
        t[left[ok]] = proposal[ok]
        left = left[~ok]
    return sign * np.maximum(sign * mean + sd * t, bound)


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

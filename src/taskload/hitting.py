"""First-hit laws and the per-aircraft intervention-count PMF.

``first_hit_law`` computes, without sampling, the law of the first
observation that finds an axis at or beyond its bound; its exit masses
are Gaussian tails from ``distributions.normal_cdf``. Every taskload
computation uses it. ``fpt_density_oracle`` estimates the same law from
grid-monitored first-passage simulation; it stays here, uncalled by any
command, because the benchmark tracer patches it by this name, and the
tests keep it as a cross-check. The paper's printed one-sided density
lives with the tests (``tests/oracles.py``), which nothing computes
from.

Hits are renewals on the observation lattice, so counts follow from an
exact discrete convolution of the first-hit law, carried until at most
1e-15 of the mass is left; a count never exceeds the number of
observations, so there is no cap to set.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .distributions import normal_cdf
from .ou import (Barrier, OuParams, first_passage_mc, lattice_steps,
                 transition_coeffs)
from .pmf import TaskloadPmf
from .rng import RandomSource

FLAG_NO_HITS = "no_hits"


@dataclass
class DensityGrid:
    """Density ordinates on the uniform grid t_i = t0 + i * dt_grid.

    Ordinates are per-minute rates (1/min); the trapezoid integral over
    the grid is at most 1 (a hitting-time density may be defective when
    some paths never hit). A first-hit law f on the observation lattice
    is stored as f[m] / obs_dt at t = m obs_dt plus one zero point, so
    that the integral equals sum(f).
    """

    t0: float
    dt_grid: float
    values: np.ndarray
    ci_low: np.ndarray | None = None
    ci_high: np.ndarray | None = None
    flags: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.t0 < 0.0 or self.dt_grid <= 0.0:
            raise ValueError("grid requires t0 >= 0 and dt_grid > 0")
        if self.values.ndim != 1:
            raise ValueError("values must be 1-D")
        if self.values.size and np.any(self.values < 0.0):
            raise ValueError(f"negative density ordinate {self.values.min()}")
        if self.integral() > 1.0 + 1e-6:
            raise ValueError(f"density integrates to {self.integral()} > 1")

    @property
    def times(self) -> np.ndarray:
        return self.t0 + np.arange(self.values.size) * self.dt_grid

    @property
    def empty(self) -> bool:
        return self.values.size == 0 or not self.values.any()

    def integral(self) -> float:
        """Trapezoid integral over the grid."""
        if self.values.size < 2:
            return 0.0
        return float(np.trapezoid(self.values, dx=self.dt_grid))


def fpt_density_oracle(p: OuParams, b: Barrier, horizon: float,
                       resolution: float, n_paths: int,
                       src: RandomSource) -> DensityGrid:
    """Numerical hitting-time density from first-passage simulation.

    Hitting times are binned at `resolution` (also the monitoring step),
    bins centered on grid points i * resolution, and the ordinates are
    rescaled so the trapezoid integral equals the observed hit fraction
    P[tau <= horizon]. The attached band is a per-bin 95% Poisson CI.
    """
    fp = first_passage_mc(p, b, horizon, resolution, n_paths, src)
    # hits land on monitoring steps 1..floor(horizon/res); pad one point
    # past the last so every massive ordinate is interior to the trapezoid
    n_bins = lattice_steps(horizon, resolution) + 2
    if fp.n_hits == 0:
        return DensityGrid(0.0, resolution, np.zeros(n_bins),
                           flags=[FLAG_NO_HITS])
    idx = np.clip(np.round(fp.hit_times / resolution).astype(int), 0, n_bins - 1)
    counts = np.bincount(idx, minlength=n_bins).astype(float)
    values = counts / (fp.n_paths * resolution)
    raw = float(np.trapezoid(values, dx=resolution))
    scale = fp.probability / raw if raw > 0.0 else 0.0
    values *= scale
    se = np.sqrt(counts) / (fp.n_paths * resolution) * scale
    return DensityGrid(0.0, resolution, values,
                       ci_low=np.clip(values - 1.96 * se, 0.0, None),
                       ci_high=values + 1.96 * se)


#: Gauss-Legendre nodes of the discrete-monitoring kernel: at least
#: KERNEL_NODES, and NODES_PER_SD per per-observation deviation s across
#: the bound (about 3.75 suffice), so that a wide bound stays converged.
KERNEL_NODES, NODES_PER_SD, MAX_NODES = 200, 6, 4000
#: beyond this many deviations of the free chain every hit underflows
_UNDERFLOW_SD = 40.0
_legendre = functools.cache(leggauss)


def first_hit_law(p: OuParams, bound: float, obs_dt: float,
                  n_obs: int) -> np.ndarray:
    """f[m] = P[the first observation at or beyond +-bound is the m-th],
    m = 0..n_obs (f[0] = 0), for the axis started on the nominal path.

    Between observations the state moves by the exact transition
    X' = a X + c + s Z, so the unhit state is a killed Gaussian chain on
    (-bound, bound); Nystrom quadrature on Gauss-Legendre nodes carries
    its sub-density, and each step's exit mass comes from the Gaussian
    tails of distributions.normal_cdf.
    """
    if bound <= 0.0 or n_obs < 0:
        raise ValueError(f"need bound > 0, n_obs >= 0: {bound}, {n_obs}")
    a, c, s = transition_coeffs(p, obs_dt)
    f = np.zeros(n_obs + 1)
    # the free chain from 0 has mean within +-reach and sd below spread
    powers = a ** np.arange(n_obs)
    reach, spread = abs(c) * powers.sum(), s * math.sqrt(powers @ powers)
    if n_obs == 0 or bound - reach > _UNDERFLOW_SD * spread:
        return f
    if s == 0.0:  # a noise-free path hits where its mean reaches the bound
        f[1 + np.argmax(abs(c) * np.cumsum(powers) >= bound)] = 1.0
        return f
    n = max(KERNEL_NODES, NODES_PER_SD * math.ceil(bound / s))
    if n > MAX_NODES:
        raise ValueError(f"bound / s = {bound / s:.0f} needs {n} nodes")
    t, w = _legendre(n)
    x = bound * t
    mean = a * np.append(x, 0.0) + c  # from each node, then from the start
    # step[i, j]: weight of node j times the density of moving i -> j,
    # built in place: fresh n^2 temporaries per call cost page faults
    step = x - mean[:, None]
    step /= s
    np.square(step, out=step)
    step *= -0.5
    np.exp(step, out=step)
    step *= bound * w / (s * math.sqrt(2.0 * math.pi))
    exit_mass = (normal_cdf((mean - bound) / s)
                 + normal_cdf((-bound - mean) / s))
    f[1], mass = exit_mass[-1], step[-1]
    step, exit_mass = step[:-1], exit_mass[:-1]
    for m in range(2, n_obs + 1):
        f[m] = mass @ exit_mass
        mass = mass @ step
    return f


def convolve_density(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Law of the sum of two independent observation counts with laws f
    and g (index m = P[count = m]), cut to f's length."""
    return np.convolve(f, g)[:f.size]


def intervention_pmf(f: np.ndarray, n_obs: int,
                     horizon: float | None = None) -> TaskloadPmf:
    """Count PMF of a renewal chain over observations 1..n_obs whose gaps
    (in observations) have law f, f[m] = P[gap = m] (f[0] = 0).

    P[N = n] = sum_t P[S_n = t] P[gap > n_obs - t] with S_n the time of
    the n-th hit, a sum of nonnegative terms. Terms are added until at
    most 1e-15 of the mass is left, kept as truncation mass: a gap lasts
    at least one observation, so S_n >= n and no law takes more than
    n_obs + 1 terms.
    """
    f = np.asarray(f, dtype=float)[:n_obs + 1]
    if n_obs < 0 or f.size != n_obs + 1:
        raise ValueError(f"gap law does not cover observations 0..{n_obs}")
    if f[0] != 0.0:
        raise ValueError(f"a gap lasts at least one observation: "
                         f"f[0] = {f[0]}")
    # survival[k] = P[gap > n_obs - k]
    survival = np.clip(1.0 - np.cumsum(f), 0.0, None)[::-1]
    law = np.eye(1, n_obs + 1)[0]  # S_0 = 0
    probs, trunc = [], 1.0
    while trunc > 1e-15:
        probs.append(float(law @ survival))
        law = convolve_density(law, f)
        trunc = float(law.sum())
    return TaskloadPmf(np.array(probs), trunc, horizon)


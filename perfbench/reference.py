"""Independent reference for the observed reset-to-nominal deviation chain.

Uses numpy and scipy only and imports nothing from ``taskload``.

One deviation axis, observed every ``obs_dt`` minutes, moves between
observations by the exact Gaussian transition of the mean-reverting
diffusion ``dX = kappa (mu - X) dt + sigma dW``:

    Y' = a Y + c + s Z,   a = exp(-kappa obs_dt),   c = mu (1 - a),
    s^2 = sigma^2 (1 - a^2) / (2 kappa).

An observation with |Y| >= b is a hit; the controller returns the axis to
the nominal trajectory (Y = 0), which is also where every aircraft starts.
The law of the killed chain is computed by Nystrom quadrature on (-b, b)
with Gauss-Legendre nodes. Each step's exit mass comes from Gaussian tail
functions, never from ``1 - survival``, so tiny hitting probabilities keep
their relative accuracy.

Hits are renewals (every hit resets to the start), so the first-hit law
``f`` fixes everything else: the per-observation hit probability
``h_m = sum_j f_j h_{m-j}`` and the count law over a window of
observations.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import ndtr

DEFAULT_NODES = 200


def transition(kappa: float, mu: float, sigma: float,
               obs_dt: float) -> tuple[float, float, float]:
    """(a, c, s) of the exact observation-to-observation transition."""
    if kappa <= 0.0 or sigma <= 0.0 or obs_dt <= 0.0:
        raise ValueError("kappa, sigma and obs_dt must be > 0")
    a = math.exp(-kappa * obs_dt)
    var = sigma ** 2 * (-math.expm1(-2.0 * kappa * obs_dt)) / (2.0 * kappa)
    return a, mu * (1.0 - a), math.sqrt(var)


def _exit_mass(mean: np.ndarray, s: float, bound: float) -> np.ndarray:
    """P[|mean + s Z| >= bound], both tails taken directly."""
    return ndtr((mean - bound) / s) + ndtr((-bound - mean) / s)


def first_hit_pmf(kappa: float, mu: float, sigma: float, obs_dt: float,
                  bound: float, n_obs: int,
                  nodes: int = DEFAULT_NODES) -> np.ndarray:
    """f[m] = P[first hit at observation m], m = 0..n_obs (f[0] = 0).

    The chain starts at the nominal trajectory, Y_0 = 0.
    """
    if bound <= 0.0 or n_obs < 1:
        raise ValueError("bound must be > 0 and n_obs >= 1")
    a, c, s = transition(kappa, mu, sigma, obs_dt)
    t, w = leggauss(nodes)
    x = bound * t
    w = bound * w
    mean = a * x + c
    # kernel[i, j]: density of moving from node i to node j in one step
    kernel = np.exp(-0.5 * ((x[None, :] - mean[:, None]) / s) ** 2) \
        / (s * math.sqrt(2.0 * math.pi))
    exit_mass = _exit_mass(mean, s, bound)
    f = np.zeros(n_obs + 1)
    f[1] = float(_exit_mass(np.array([c]), s, bound)[0])
    dens = np.exp(-0.5 * ((x - c) / s) ** 2) / (s * math.sqrt(2.0 * math.pi))
    for m in range(2, n_obs + 1):
        mass = w * dens
        f[m] = float(mass @ exit_mass)
        dens = mass @ kernel
    return f


def hit_per_obs(f: np.ndarray) -> np.ndarray:
    """h[m] = P[hit at observation m] of the reset chain (h[0] = 1)."""
    h = np.zeros(f.size)
    h[0] = 1.0
    for m in range(1, f.size):
        h[m] = float(f[1:m + 1] @ h[m - 1::-1][:m])
    return h


def _partial_sum_cdfs(f: np.ndarray, n_obs: int, eps: float = 1e-18):
    """[G_0, G_1, ...] with G_n[t] = P[n-th hit at or before observation t],
    t = 0..n_obs, stopping once G_n[n_obs] < eps."""
    g = f[:n_obs + 1]
    cur = np.zeros(n_obs + 1)
    cur[0] = 1.0
    cdfs = [np.cumsum(cur)]
    while True:
        cur = np.convolve(cur, g)[:n_obs + 1]
        cdf = np.cumsum(cur)
        if cdf[-1] < eps:
            return cdfs
        cdfs.append(cdf)


def count_moments(f: np.ndarray, n_obs: int) -> tuple[float, float]:
    """(E[N], E[N^2]) of the hit count over observations 1..n_obs."""
    tails = np.array([cdf[n_obs] for cdf in _partial_sum_cdfs(f, n_obs)[1:]])
    n = np.arange(1, tails.size + 1)
    return float(tails.sum()), float(((2 * n - 1) * tails).sum())


def renewal_mean_se(f: np.ndarray, n_obs: int, n_paths: int) -> float:
    """Standard error of the renewal mean sum_n F^{*n}(n_obs) when F is
    the empirical first-hit law of n_paths independent paths.

    Delta method: the influence of one path with first hit at x is
    IF(x) = sum_n n [G_{n-1}(n_obs - x) - G_n(n_obs)] (x > n_obs: no
    hit), and the variance is E[IF^2] / n_paths.
    """
    cdfs = _partial_sum_cdfs(f, n_obs)
    if len(cdfs) == 1:
        return 0.0
    offset = sum(n * cdf[n_obs] for n, cdf in enumerate(cdfs[1:], start=1))
    weighted = sum(n * cdf for n, cdf in enumerate(cdfs[:-1], start=1))
    hit = f[1:n_obs + 1]
    influence = weighted[n_obs - np.arange(1, n_obs + 1)] - offset
    var = float(hit @ influence ** 2) + (1.0 - hit.sum()) * offset ** 2
    return math.sqrt(var / n_paths)


def safe_zone_half_length(alpha_deg: float, e1: float, e2: float,
                          d_min: float, samples: int = 201,
                          tol: float = 1e-12) -> float:
    """Smallest common half-length x with every pair of boundary points of
    the two flows at least d_min apart.

    The boundary of flow i is the pair of cross-sections at +-x along its
    centerline, each a segment of the flow's full width. Both segments are
    sampled densely (endpoints included) and x is bisected on the minimum
    sampled distance.
    """
    a = math.radians(alpha_deg)
    u1, n1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    u2 = np.array([math.cos(a), math.sin(a)])
    n2 = np.array([-math.sin(a), math.cos(a)])
    across = np.linspace(-0.5, 0.5, samples)

    def min_distance(x: float) -> float:
        p1 = np.concatenate([end * x * u1 + across[:, None] * e1 * n1
                             for end in (-1.0, 1.0)])
        p2 = np.concatenate([end * x * u2 + across[:, None] * e2 * n2
                             for end in (-1.0, 1.0)])
        diff = p1[:, None, :] - p2[None, :, :]
        return float(np.sqrt((diff ** 2).sum(axis=2)).min())

    lo, hi = 0.0, d_min + e1 + e2
    if min_distance(hi) < d_min:
        raise ValueError("no half-length below the search bound")
    while hi - lo > tol * hi:
        mid = 0.5 * (lo + hi)
        if min_distance(mid) >= d_min:
            hi = mid
        else:
            lo = mid
    return hi

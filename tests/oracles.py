"""Test-side oracles and helpers, which no taskload computation uses.

* The crossing safe zone's published boundary equations. The library
  sizes the zone with ``flow.solve_safe_zone``; these residuals and
  their root finder only back the tests' claim that the printed
  equality system admits no positive root pair.
* The paper's printed one-sided hitting density, kept verbatim for
  traceability. The library computes hitting laws with
  ``hitting.first_hit_law``; the printed expression groups X0 with
  sigma^2 in ways that do not survive dimensional analysis, and the
  tests only record how far it lies from a simulation.
* ``ou_path``, iterated exact transitions of one axis, which makes the
  tests' synthetic deviation series.
* ``union_tail_is``, a mixture importance sampler for the probability
  that the free chain leaves its bounds at some observation. It is an
  independent check of the kernel's deep tail, where direct simulation
  sees no hit at all.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import fsolve
from scipy.special import log_ndtr
from scipy.stats import truncnorm

from taskload import (Barrier, CrossingGeometry, OuParams, RandomSource,
                      first_passage_mc, hitting, transition_coeffs)
from taskload.distributions import normal_cdf

FLAG_OVERFLOW = "overflow"
FLAG_DEGENERATE = "degenerate_input"


def safe_zone_printed_residuals(g: CrossingGeometry, x1: float,
                                x2: float) -> tuple[float, float]:
    """Residuals of the published boundary equations.

    Both equations as printed (with the first equation's leading
    parenthesis squared, by symmetry with the second and the squared
    right-hand side):

      (x1 + x2 cos a - e2/2 cos a)^2 + (-e1/2 + x2 sin a + e2/2 sin a)^2 = D^2
      (x1 + x2 cos a - e2/2 sin a)^2 + (-e1/2 + x2 sin a + e2/2 cos a)^2 = D^2

    The equality system generally admits no positive root pair (checked
    against a brute-force corner oracle), so the geometric solver
    ``flow.solve_safe_zone`` is the production route.
    """
    a = math.radians(g.alpha_deg)
    c, s = math.cos(a), math.sin(a)
    h2 = g.e2_nm / 2.0
    h1 = g.e1_nm / 2.0
    d2 = g.d_min_nm ** 2
    r1 = (x1 + x2 * c - h2 * c) ** 2 + (-h1 + x2 * s + h2 * s) ** 2 - d2
    r2 = (x1 + x2 * c - h2 * s) ** 2 + (-h1 + x2 * s + h2 * c) ** 2 - d2
    return r1, r2


def solve_safe_zone_printed(g: CrossingGeometry,
                            span: float = 25.0) -> list[tuple[float, float]]:
    """All real roots of the published equality system inside [-span, span].

    Uses dense Newton polishing from a coarse grid of starts; duplicates
    collapse to 6-decimal resolution.
    """
    def system(v):
        return safe_zone_printed_residuals(g, v[0], v[1])

    roots: set[tuple[float, float]] = set()
    starts = np.linspace(-span, span, 9)
    for s1 in starts:
        for s2 in starts:
            sol, _, ier, _ = fsolve(system, [s1, s2], full_output=True)
            if ier == 1 and max(abs(r) for r in system(sol)) < 1e-8:
                roots.add((round(float(sol[0]), 6), round(float(sol[1]), 6)))
    return sorted(roots)


@dataclass
class ClosedFormEval:
    """Ordinates of the as-printed expression plus evaluation flags."""

    values: np.ndarray
    flags: list[str] = field(default_factory=list)


def fpt_density_closed_form(p: OuParams, b: Barrier, t) -> ClosedFormEval:
    """The published one-sided hitting density, verbatim.

    f(t) = (k - X0/sigma^2)/sqrt(2 pi) * (kappa/(sigma^2 sinh(kappa t)))^{3/2}
           * exp[ kappa/(2 sigma^2) * ( (X0/sigma^2 - mu)^2 - (k - mu)^2
                                        + sigma^2 t
                                        - (X0/sigma^2)^2 coth(kappa t) ) ]

    Kept exactly as printed (including the X0/sigma^2 groupings) for
    traceability. Overflow or invalid regions evaluate to 0 and are
    flagged.
    """
    if b.kind != "one_sided":
        raise ValueError("closed form is defined for one-sided barriers only")
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t <= 0.0):
        raise ValueError("t must be > 0")
    flags: list[str] = []
    if p.sigma == 0.0 or p.kappa == 0.0:
        flags.append(FLAG_DEGENERATE)
        return ClosedFormEval(np.zeros_like(t), flags)
    k, x0 = b.level, b.origin
    sig2 = p.sigma ** 2
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        pref = (k - x0 / sig2) / math.sqrt(2.0 * math.pi)
        core = (p.kappa / (sig2 * np.sinh(p.kappa * t))) ** 1.5
        expo = (p.kappa / (2.0 * sig2)) * (
            (x0 / sig2 - p.mu) ** 2 - (k - p.mu) ** 2 + sig2 * t
            - (x0 / sig2) ** 2 / np.tanh(p.kappa * t))
        vals = pref * core * np.exp(expo)
    bad = ~np.isfinite(vals)
    if bad.any():
        flags.append(FLAG_OVERFLOW)
        vals = np.where(bad, 0.0, vals)
    if np.any(vals < 0.0):
        flags.append(FLAG_DEGENERATE)
        vals = np.clip(vals, 0.0, None)
    return ClosedFormEval(vals, flags)


def closed_form_divergence_report(p: OuParams, b: Barrier, horizon: float,
                                  dt: float, n_paths: int,
                                  src: RandomSource) -> dict:
    """Side-by-side of the as-printed closed form and first-passage
    simulation.

    Reports the two hitting probabilities and their ratio without
    asserting agreement; the printed expression is known not to match.
    """
    t = np.arange(dt, horizon + dt / 2, dt)
    cf = fpt_density_closed_form(p, b, t)
    cf_integral = float(np.trapezoid(cf.values, dx=dt))
    fp = first_passage_mc(p, b, horizon, dt, n_paths, src)
    ratio = cf_integral / fp.probability if fp.probability > 0 else math.inf
    return {
        "closed_form_integral": cf_integral,
        "mc_probability": fp.probability,
        "mc_ci": (fp.ci_low, fp.ci_high),
        "ratio": ratio,
        "flags": list(cf.flags),
    }


def ou_path(p: OuParams, x0: float, horizon: float, dt: float,
            src: RandomSource) -> tuple[np.ndarray, np.ndarray]:
    """Iterated exact transitions from x0.

    Returns (times, values) with ceil(horizon/dt) + 1 entries each,
    deterministic given src.
    """
    if horizon <= 0.0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    n_steps = math.ceil(horizon / dt - 1e-12)
    a, b, s = transition_coeffs(p, dt)
    z = src.standard_normal(n_steps)
    values = np.empty(n_steps + 1)
    values[0] = x0
    x = float(x0)
    for i in range(n_steps):
        x = a * x + b + s * z[i]
        values[i + 1] = x
    times = np.arange(n_steps + 1) * dt
    return times, values


def union_tail_is(p: OuParams, bound: float, obs_dt: float, n_obs: int,
                  n_paths: int, rng: np.random.Generator
                  ) -> tuple[float, float, float]:
    """P[|X_m| >= bound for some m = 1..n_obs] for the chain started at
    0 and moved by the exact transition X' = a X + c + s Z between
    observations, by mixture importance sampling (Adler, Blanchet & Liu
    2012, Ann. Appl. Probab. 22(3)).

    The observations form a Gaussian vector, and the probability is that
    of a union of 2 n_obs exceedance events (X_m >= bound, X_m <= -bound)
    whose probabilities p_k are exact Gaussian tails with total P. Each
    sample picks an event k with probability p_k / P, draws its
    coordinate from the truncated normal, completes the path by
    conditioning an unconditional path on that coordinate, and scores
    P / (number of events that occurred), which is unbiased with
    bounded relative error. Returns (estimate, standard error, share of
    samples that saw two or more events). The standard error is floored
    at P / (2 n_paths), what it would be had one sample seen two events:
    where every sample sees exactly one event, the sample spread is zero
    but the estimate is still only known to about one part in n_paths.
    """
    a, c, s = transition_coeffs(p, obs_dt)
    powers = a ** np.arange(n_obs)
    mean = c * np.cumsum(powers)             # E X_m
    var = s ** 2 * np.cumsum(powers ** 2)    # Var X_m
    sd = np.sqrt(var)
    log_p = np.concatenate([log_ndtr((mean - bound) / sd),
                            log_ndtr((-bound - mean) / sd)])
    weights = np.exp(log_p - log_p.max())
    total = math.exp(log_p.max()) * weights.sum()
    k = rng.choice(2 * n_obs, size=n_paths, p=weights / weights.sum())
    m, upper = k % n_obs, k < n_obs
    lo = np.where(upper, (bound - mean[m]) / sd[m], -np.inf)
    hi = np.where(upper, np.inf, (-bound - mean[m]) / sd[m])
    x_m = mean[m] + sd[m] * truncnorm.rvs(lo, hi, random_state=rng)
    # an unconditional path, shifted along its regression on X_m, where
    # Cov(X_i, X_j) = a^|i - j| Var(X_min(i, j))
    z = rng.standard_normal((n_obs, n_paths))
    y = np.empty((n_paths, n_obs))
    x = np.zeros(n_paths)
    for j in range(n_obs):
        x = a * x + c + s * z[j]
        y[:, j] = x
    rows, obs = np.arange(n_paths), np.arange(n_obs)
    cov = a ** np.abs(obs - m[:, None]) * var[np.minimum(obs, m[:, None])]
    y += cov / var[m, None] * (x_m - y[rows, m])[:, None]
    hits = np.abs(y) >= bound
    hits[rows, m] = True  # the drawn coordinate, whatever its rounding
    n_events = hits.sum(axis=1)
    scores = total / n_events
    se = max(float(scores.std(ddof=1)) / math.sqrt(n_paths),
             total / (2 * n_paths))
    return float(scores.mean()), se, float(np.mean(n_events > 1))


def first_hit_law_unfolded(p: OuParams, bound: float, obs_dt: float,
                           n_obs: int) -> np.ndarray:
    """``hitting.first_hit_law`` as it computed every chain: one n x n
    step matrix over all nodes, whatever the chain's symmetry, and a
    kernel even for one observation. It reads the node rule's constants
    from ``hitting`` at call time, so a monkeypatched KERNEL_NODES
    reaches it too, and takes that node count as it is, odd or even."""
    if bound <= 0.0 or n_obs < 0:
        raise ValueError(f"need bound > 0, n_obs >= 0: {bound}, {n_obs}")
    a, c, s = transition_coeffs(p, obs_dt)
    f = np.zeros(n_obs + 1)
    # the free chain from 0 has mean within +-reach and sd below spread
    powers = a ** np.arange(n_obs)
    reach, spread = abs(c) * powers.sum(), s * math.sqrt(powers @ powers)
    if n_obs == 0 or bound - reach > hitting._UNDERFLOW_SD * spread:
        return f
    if s == 0.0:  # a noise-free path hits where its mean reaches the bound
        f[1 + np.argmax(abs(c) * np.cumsum(powers) >= bound)] = 1.0
        return f
    n = max(hitting.KERNEL_NODES, hitting.NODES_PER_SD * math.ceil(bound / s))
    if n > hitting.MAX_NODES:
        raise ValueError(f"bound / s = {bound / s:.0f} needs {n} nodes")
    t, w = hitting._legendre(n)
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

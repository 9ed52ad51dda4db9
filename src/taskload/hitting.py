"""First-hit laws and the per-aircraft intervention-count PMF.

``first_hit_law`` computes, without sampling, the law of the first
observation that finds an axis at or beyond its bound; its exit masses
are Gaussian tails from ``distributions.normal_cdf``. Every taskload
computation uses it. A centred chain (c = 0 in X' = a X + c + s Z) is
symmetric about 0, so its kernel is folded onto the mirror pairs of an
even number of nodes, half the rows and columns for the same law
within 1e-14 relative; a non-centred chain runs the full kernel, and one
observation needs none. ``fpt_density_oracle`` estimates the same law
from grid-monitored first-passage simulation; it stays here, uncalled by
any command, because the benchmark tracer patches it by this name, and
the tests keep it as a cross-check. The paper's printed one-sided density
lives with the tests (``tests/oracles.py``), which nothing computes
from.

The unhit mass after m observations is the start's row times the
(m - 1)-th power of the step matrix S, whose h rows are the folded node
pairs or the nodes. The law carries a block of b consecutive mass rows
and P = S^b: each pass takes the block's exit sums with one product and
moves the block on by block @ P. Before the first pass the block
doubles (itself and its successor under P, with P squared) while h b
is at most the rows still needed after the doubled block. So the
squarings cost no more flops than carrying every row alone, the block
never holds more than 2 n_obs numbers, and a kernel of more than
n_obs - 3 rows never doubles: it runs the one-row products unchanged.
Every product adds nonnegative terms, so each entry moves from the
one-row products' by rounding only; as each power's rounding recurs in
every pass, it grows with the observations, to 1.35e-13 relative on
tests/test_hitting.py::TestNodeFloor's grid (2 400 observations).

``first_hit_laws`` computes the laws of several axes at one cadence and
one observation count in one call, and ``first_hit_law`` is its one-row
call. Rows that need no kernel (no observations, one observation, no
noise, or a bound beyond 40 deviations of the free chain) take their
exits first. The other rows are grouped by kernel shape: the node count,
and whether the chain is centred. A group's kernels are built and
carried as one stack: one array op per build step, one normal_cdf call
for its exit masses, and 3-D products, each slice of which has the
one-row shapes, so every row is the same bits as alone. At the 1-minute
cadence the stringent and severe bounds of the centred axes all take
the 32-node floor and share one pass; at 0.1 minutes the stringent axes
need 36, 48 and 42 nodes, one pass each.

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
#: The floor binds on narrow bounds: the stringent ones need 24-30
#: nodes. On the laws of tests/test_hitting.py::TestNodeFloor (the four
#: standards on every axis and 0.01 and 1 NM bounds; centred, fitted,
#: kappa / 20 and kappa = 0 dynamics; 1, 0.1 and 0.05-min observations,
#: up to 2 400 of them), against the law at max(800, 4x the rule's)
#: nodes, a floor of 32 stays within 4.0e-12 relative per entry and on
#: the sum where it binds (64 laws), a floor of 8 within 8.3e-11, and a
#: floor of 200 within 1.0e-11 but at 5-7x the time: the three
#: stringent axes, in one first_hit_laws call, took 490-530 us at 20
#: observations and 940-1 010 us at 120 with it, 100-120 and 135-175 us
#: with 32 (a 2-core x86-64 host; one call per axis took 230-260 and
#: 320-345 us with 32).
KERNEL_NODES, NODES_PER_SD, MAX_NODES = 32, 6, 4000
#: beyond this many deviations of the free chain every hit underflows
_UNDERFLOW_SD = 40.0
_legendre = functools.cache(leggauss)


def first_hit_law(p: OuParams, bound: float, obs_dt: float,
                  n_obs: int) -> np.ndarray:
    """f[m] = P[the first observation at or beyond +-bound is the m-th],
    m = 0..n_obs (f[0] = 0), for the axis started on the nominal path:
    the one-row call of first_hit_laws."""
    return first_hit_laws([p], [bound], obs_dt, n_obs)[0]


def first_hit_laws(params: list[OuParams], bounds: list[float],
                   obs_dt: float, n_obs: int) -> np.ndarray:
    """Row i: the first-hit law of an axis with dynamics params[i] and
    bound bounds[i] (first_hit_law), an array of shape (k, n_obs + 1).

    Between observations the state moves by the exact transition
    X' = a X + c + s Z, so the unhit state is a killed Gaussian chain on
    (-bound, bound); Nystrom quadrature on Gauss-Legendre nodes carries
    its sub-density, and each step's exit mass comes from the Gaussian
    tails of distributions.normal_cdf.

    The node count is rounded up to even. For c = 0 the chain, the bound,
    the nodes and the weights are symmetric about 0, so every sub-density
    is too: the kernel is built from the left half of the nodes and each
    column folded onto its mirror, and the carried vector holds the mass
    of each node pair. One observation (n_obs = 1) needs only the
    start's two tails, and no kernel is built. Rows whose kernels share
    a shape are built in one stacked pass, which carries their mass rows
    a block at a time by powers of the step matrix (module docstring).
    """
    bad = [b for b in bounds if b <= 0.0]
    if bad or n_obs < 0:
        raise ValueError(f"need bound > 0, n_obs >= 0: {bad}, {n_obs}")
    f = np.zeros((len(bounds), n_obs + 1))
    # rows by kernel shape: (node count, centred) -> [(row, a, c, s, bound)]
    shapes: dict[tuple[int, bool], list[tuple]] = {}
    for i, (p, bound) in enumerate(zip(params, bounds)):
        a, c, s = transition_coeffs(p, obs_dt)
        # the free chain from 0 has mean within +-reach and sd below
        # spread, by the geometric sums of a^k and a^2k over k < n_obs (a
        # law near the threshold is all zeros on either side of it)
        reach = abs(c) * _geometric_sum(a, n_obs)
        spread = s * math.sqrt(_geometric_sum(a * a, n_obs))
        if n_obs == 0 or bound - reach > _UNDERFLOW_SD * spread:
            continue
        if s == 0.0:  # a noise-free path hits where its mean reaches the bound
            powers = a ** np.arange(n_obs)
            f[i, 1 + np.argmax(abs(c) * np.cumsum(powers) >= bound)] = 1.0
        elif n_obs == 1:  # the start's two tails; no kernel is needed
            f[i, 1] = (normal_cdf((c - bound) / s)
                       + normal_cdf((-bound - c) / s))
        else:
            n = max(KERNEL_NODES, NODES_PER_SD * math.ceil(bound / s))
            n += n % 2  # every node needs a distinct mirror for the fold
            if n > MAX_NODES:
                raise ValueError(f"bound / s = {bound / s:.0f} needs {n} "
                                 f"nodes")
            shapes.setdefault((n, c == 0.0), []).append((i, a, c, s, bound))
    for (n, centred), rows in shapes.items():
        i, *coeffs = zip(*rows)
        f[list(i), 1:] = _kernel_pass(
            n, centred, *(np.array(v)[:, None] for v in coeffs), n_obs)
    return f


def _geometric_sum(r: float, n: int) -> float:
    """The sum of r^k over k < n, for 0 <= r <= 1."""
    return float(n) if r == 1.0 else (1.0 - r ** n) / (1.0 - r)


def _kernel_pass(n: int, centred: bool, a: np.ndarray, c: np.ndarray,
                 s: np.ndarray, bound: np.ndarray, n_obs: int) -> np.ndarray:
    """f[1:] of g rows on one kernel of n nodes, each coefficient a
    (g, 1) column: every product is a stack of g independent ones of the
    one-row shapes, so each row's law is the same bits as alone."""
    t, w = _legendre(n)
    x = bound * t
    # a centred chain keeps every mass vector symmetric about 0, so rows
    # from the left half of the nodes suffice
    h = n // 2 if centred else n
    # from each node, then the start
    mean = a * np.append(x[:, :h], np.zeros_like(a), axis=1) + c
    # step[r, i, j]: weight of node j times the density of moving i -> j,
    # built in place: fresh n^2 temporaries per call cost page faults
    step = x[:, None] - mean[:, :, None]
    step /= s[:, :, None]
    np.square(step, out=step)
    step *= -0.5
    np.exp(step, out=step)
    step *= (bound * w / (s * math.sqrt(2.0 * math.pi)))[:, None]
    if h < n:
        # fold each column onto its mirror: the carried vector holds the
        # mass of each node pair, and the pair shares one exit mass
        step = step[:, :, :h] + step[:, :, :h - 1:-1]
    tails = normal_cdf([(mean - bound) / s, (-bound - mean) / s])
    exit_mass = tails[0] + tails[1]
    first, block = exit_mass[:, -1:, None], step[:, -1:]
    step, exit_mass = step[:, :-1], exit_mass[:, :-1, None]
    # block: b consecutive mass rows from the first; power = step^b
    rows, power, b = n_obs - 1, step, 1
    while h * b <= rows - 2 * b:
        block = np.concatenate((block, block @ power), axis=1)
        power = power @ power
        b *= 2
    sums = [first, block @ exit_mass]
    for _ in range(1, math.ceil(rows / b)):
        block = block @ power
        sums.append(block @ exit_mass)
    return np.concatenate(sums, axis=1)[:, :n_obs, 0]


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


"""Johnson S_U model of flight technical error.

The lateral FTE of an RNP-equipped aircraft is well described by a
Johnson "unbounded system" (S_U) transform of a standard normal: heavy
tailed and skewed. This module carries the fitted per-axis parameter
sets used as the package-wide data generator, the transform/density/
inverse/moment machinery, and the standard normal CDF ``normal_cdf`` that
``johnson_cdf`` and the hitting kernel share. The Monte Carlo harness
draws its arrival counts and times from ``RandomSource`` directly.

Units are fixed throughout the package: nautical miles for the lateral
and longitudinal axes, feet for the vertical axis, minutes for time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import RandomSource

AXES = ("lateral", "vertical", "longitudinal")

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class JohnsonSuParams:
    """Parameters of the S_U transform x = scale_lambda*sinh((z-gamma)/delta) + xi.

    gamma and delta are dimensionless shape parameters; scale_lambda and
    xi carry the spatial unit of the axis.
    """

    gamma: float
    delta: float
    scale_lambda: float
    xi: float

    def __post_init__(self):
        vals = (self.gamma, self.delta, self.scale_lambda, self.xi)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"non-finite Johnson parameter in {vals}")
        if self.delta <= 0.0:
            raise ValueError(f"delta must be > 0, got {self.delta}")
        if self.scale_lambda <= 0.0:
            raise ValueError(f"scale_lambda must be > 0, got {self.scale_lambda}")


@dataclass(frozen=True)
class MomentSet:
    """Mean, variance, and the dimensionless shape ratios beta1, beta2.

    beta1 is the squared relative skewness mu3^2/mu2^3 (the standard
    normalization) and beta2 the relative kurtosis mu4/mu2^2.
    """

    mu1: float
    mu2: float
    beta1: float
    beta2: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in
                   (self.mu1, self.mu2, self.beta1, self.beta2)):
            raise ValueError("non-finite moment")
        if self.mu2 <= 0.0:
            raise ValueError(f"variance must be > 0, got {self.mu2}")
        if self.beta2 <= 0.0:
            raise ValueError(f"beta2 must be > 0, got {self.beta2}")
        # moment feasibility: beta2 >= beta1 + 1 for any distribution
        if self.beta2 < self.beta1 + 1.0 - 1e-12:
            raise ValueError(
                f"infeasible moments: beta2={self.beta2} < beta1+1={self.beta1 + 1.0}")


#: Fitted FTE parameter sets, one per axis (NM, ft, NM).
JOHNSON_FTE = {
    "lateral": JohnsonSuParams(gamma=0.4566, delta=1.897,
                               scale_lambda=0.0443, xi=-0.01567),
    "vertical": JohnsonSuParams(gamma=0.4566, delta=1.897,
                                scale_lambda=7.2907, xi=10.0362),
    "longitudinal": JohnsonSuParams(gamma=0.4566, delta=1.897,
                                    scale_lambda=0.2145, xi=-0.0401),
}


def johnson_transform(z, p: JohnsonSuParams):
    """Map a standard-normal value z to the S_U variate.

    Strictly increasing in z; returns xi at z = gamma. Accepts scalars
    or arrays.
    """
    z = np.asarray(z, dtype=float)
    out = p.scale_lambda * np.sinh((z - p.gamma) / p.delta) + p.xi
    return out if out.ndim else float(out)


def johnson_inverse(x, p: JohnsonSuParams):
    """Inverse of johnson_transform: the standard-normal value for x."""
    x = np.asarray(x, dtype=float)
    out = p.delta * np.arcsinh((x - p.xi) / p.scale_lambda) + p.gamma
    return out if out.ndim else float(out)


def johnson_density(x, p: JohnsonSuParams):
    """Probability density of the S_U variate at x (1/spatial unit)."""
    x = np.asarray(x, dtype=float)
    u = (x - p.xi) / p.scale_lambda
    z = p.gamma + p.delta * np.arcsinh(u)
    out = (p.delta / (p.scale_lambda * _SQRT_2PI * np.sqrt(1.0 + u * u))
           * np.exp(-0.5 * z * z))
    return out if out.ndim else float(out)


def normal_cdf(x):
    """Standard normal P[Z <= x] = erfc(-x / sqrt 2) / 2.

    erfc keeps its relative precision deep in the lower tail (about
    1e-13 down to P = 1e-300, near x = -37), where 1 - P[Z > x] would
    cancel. Accepts scalars or arrays; a scalar gives a float.
    """
    z = np.asarray(x, dtype=float) * -_SQRT_HALF
    out = 0.5 * np.fromiter(map(math.erfc, z.ravel().tolist()), float,
                            z.size).reshape(z.shape)
    return out if out.ndim else float(out)


def johnson_cdf(x, p: JohnsonSuParams):
    """P[X <= x] for the S_U variate."""
    return normal_cdf(johnson_inverse(x, p))


def johnson_sample(p: JohnsonSuParams, src: RandomSource, n: int) -> np.ndarray:
    """Draw n i.i.d. S_U variates, deterministic given src."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    z = src.standard_normal(int(n))
    return johnson_transform(z, p)


def johnson_moments(p: JohnsonSuParams) -> MomentSet:
    """Closed-form first four moments of the S_U law.

    With w = exp(delta^-2) and W = gamma/delta:

        mean = xi - lambda sqrt(w) sinh W
        var  = lambda^2/2 (w-1)(w cosh 2W + 1)
        mu3  = -lambda^3/4 sqrt(w) (w-1)^2 [w(w+2) sinh 3W + 3 sinh W]
        mu4  = lambda^4/8 (w-1)^2 [w^2(w^4+2w^3+3w^2-3) cosh 4W
                                   + 4w^2(w+2) cosh 2W + 3(2w+1)]

    beta1 and beta2 depend only on (gamma, delta), so parameter sets
    sharing the shape pair share them.
    """
    lam = p.scale_lambda
    w = math.exp(p.delta ** -2)
    big_w = p.gamma / p.delta
    mean = p.xi - lam * math.sqrt(w) * math.sinh(big_w)
    var = 0.5 * lam ** 2 * (w - 1.0) * (w * math.cosh(2.0 * big_w) + 1.0)
    mu3 = (-0.25 * lam ** 3 * math.sqrt(w) * (w - 1.0) ** 2
           * (w * (w + 2.0) * math.sinh(3.0 * big_w) + 3.0 * math.sinh(big_w)))
    mu4 = (0.125 * lam ** 4 * (w - 1.0) ** 2
           * (w * w * (w ** 4 + 2.0 * w ** 3 + 3.0 * w ** 2 - 3.0)
              * math.cosh(4.0 * big_w)
              + 4.0 * w * w * (w + 2.0) * math.cosh(2.0 * big_w)
              + 3.0 * (2.0 * w + 1.0)))
    return MomentSet(mu1=mean, mu2=var,
                     beta1=mu3 ** 2 / var ** 3, beta2=mu4 / var ** 2)


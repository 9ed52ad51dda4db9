"""Estimate OU parameters from uniformly sampled deviation series.

Both estimators fit the affine one-step recursion

    X_{i+1} = a X_i + b + eps,   eps ~ Normal(0, sigma_eps^2) i.i.d.,

with a = e^{-kappa dt}, b = mu (1 - a) and sigma_eps the conditional
step noise, and both are one computation: the least-squares line of
X_{i+1} on X_i and the 1/n residual variance. For this Gaussian
recursion that is also the conditional maximum-likelihood estimate
(Hamilton 1994, Time Series Analysis, ch. 5), so fit_least_squares and
fit_mle return the same numbers under their own method labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import MomentSet
from .ou import OuParams

FLAG_NO_MEAN_MEMORY = "no_mean_memory"          # a_hat <= 0, kappa undefined
FLAG_NON_MEAN_REVERTING = "non_mean_reverting"  # a_hat >= 1
FLAG_ZERO_NOISE = "zero_noise"


class DegenerateDataError(ValueError):
    """Raised when a series carries no usable variation."""


@dataclass
class TimeSeries:
    """Uniformly sampled deviation observations X_0 ... X_n."""

    values: np.ndarray
    dt: float = 1.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).ravel()
        if self.values.size < 3:
            raise ValueError(f"need at least 3 observations, got {self.values.size}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite observation")
        if self.dt <= 0.0:
            raise ValueError(f"dt must be > 0, got {self.dt}")


@dataclass
class CalibrationReport:
    """Fitted parameters plus the regression intermediates and diagnostics.

    params is None, with a flag saying why, when a_hat lies outside
    (0, 1): no real mean-reversion rate exists there, and a clamped one
    would fabricate dynamics.
    """

    params: OuParams | None
    a_hat: float
    b_hat: float
    sigma_eps_hat: float
    loglik: float
    stationary_sd: float
    n_transitions: int
    dt: float
    method: str
    flags: list[str] = field(default_factory=list)


def _loglik(x: np.ndarray, a: float, b: float, sig_eps: float) -> float:
    """Conditional Gaussian log-likelihood of the recursion residuals."""
    n = x.size - 1
    if sig_eps <= 0.0:
        return math.inf if np.allclose(x[1:], a * x[:-1] + b) else -math.inf
    resid = x[1:] - a * x[:-1] - b
    return (-0.5 * n * math.log(2.0 * math.pi) - n * math.log(sig_eps)
            - 0.5 * float(resid @ resid) / sig_eps ** 2)


def _params_from_recursion(a: float, b: float, sig_eps: float, dt: float,
                           flags: list[str]) -> tuple[OuParams | None, float]:
    """Map (a, b, sigma_eps) to (kappa, mu, sigma) and the stationary sd."""
    stationary_sd = (sig_eps / math.sqrt(1.0 - a * a)
                     if abs(a) < 1.0 else math.nan)
    if a <= 0.0:
        flags.append(FLAG_NO_MEAN_MEMORY)
        return None, stationary_sd
    if a >= 1.0:
        flags.append(FLAG_NON_MEAN_REVERTING)
        return None, stationary_sd
    kappa = -math.log(a) / dt
    mu = b / (1.0 - a)
    sigma = sig_eps * math.sqrt(-2.0 * math.log(a) / (dt * (1.0 - a * a)))
    return OuParams(kappa=kappa, mu=mu, sigma=sigma), stationary_sd


def _fit(ts: TimeSeries, method: str) -> CalibrationReport:
    """Least-squares (a, b) and 1/n residual sd of the recursion."""
    x = ts.values
    x0, x1 = x[:-1], x[1:]
    n = x0.size
    mx0 = x0.mean()
    mx1 = x1.mean()
    sxx = float((x0 - mx0) @ (x0 - mx0))
    if sxx == 0.0:
        raise DegenerateDataError("predictor values have zero variance")
    a = float((x0 - mx0) @ (x1 - mx1)) / sxx
    b = mx1 - a * mx0
    resid = x1 - a * x0 - b
    sig_eps = math.sqrt(float(resid @ resid) / n)  # 1/n normalization
    flags = [FLAG_ZERO_NOISE] if sig_eps == 0.0 else []
    params, stat_sd = _params_from_recursion(a, b, sig_eps, ts.dt, flags)
    return CalibrationReport(params=params, a_hat=a, b_hat=b,
                             sigma_eps_hat=sig_eps,
                             loglik=_loglik(x, a, b, sig_eps),
                             stationary_sd=stat_sd, n_transitions=n,
                             dt=ts.dt, method=method, flags=flags)


def fit_least_squares(ts: TimeSeries) -> CalibrationReport:
    """Ordinary least squares on the one-step recursion."""
    return _fit(ts, "least_squares")


def fit_mle(ts: TimeSeries) -> CalibrationReport:
    """Conditional maximum likelihood of the one-step recursion, in
    closed form. Up to a constant the log-likelihood is -n log sigma_eps
    - RSS(a, b) / (2 sigma_eps^2), largest for every sigma_eps at the
    least-squares (a, b); its sigma_eps derivative then vanishes at
    sigma_eps^2 = RSS / n. By the invariance of maximum likelihood the
    mapped (kappa, mu, sigma) are the MLE wherever 0 < a_hat < 1."""
    return _fit(ts, "mle")


def sample_moments(ts: TimeSeries) -> MomentSet:
    """Empirical mean, unbiased variance, and standardized beta1/beta2.

    Raises DegenerateDataError for a constant series (the shape ratios
    are undefined at zero variance).
    """
    x = ts.values
    if x.size < 4:
        raise ValueError("need at least 4 observations for four moments")
    mean = float(x.mean())
    d = x - mean
    var = float(d @ d) / (x.size - 1)
    if var == 0.0:
        raise DegenerateDataError("constant series: moments beyond the mean undefined")
    m2 = float(np.mean(d * d))
    m3 = float(np.mean(d ** 3))
    m4 = float(np.mean(d ** 4))
    return MomentSet(mu1=mean, mu2=var, beta1=m3 ** 2 / m2 ** 3, beta2=m4 / m2 ** 2)

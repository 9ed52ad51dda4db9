import math

import numpy as np
import pytest

from taskload import (JOHNSON_FTE, OuParams, RandomSource, TimeSeries,
                      fit_least_squares, fit_mle, johnson_sample)
from taskload.calibration import (FLAG_NO_MEAN_MEMORY, DegenerateDataError,
                                  sample_moments)

from oracles import ou_path


def affine_series(a=0.5, b=0.1, n=200, x0=1.0):
    x = np.empty(n)
    x[0] = x0
    for i in range(n - 1):
        x[i + 1] = a * x[i] + b
    return TimeSeries(x, dt=1.0)


def synthetic_path(params, n, dt, seed):
    _, values = ou_path(params, params.mu, horizon=n * dt, dt=dt,
                        src=RandomSource(seed))
    return TimeSeries(values[:n + 1], dt=dt)


class TestLeastSquares:
    def test_noiseless_affine_recovery(self):
        rep = fit_least_squares(affine_series())
        assert rep.params.kappa == pytest.approx(math.log(2), rel=1e-9)
        assert rep.params.mu == pytest.approx(0.2, rel=1e-9)
        assert rep.params.sigma == pytest.approx(0.0, abs=1e-9)

    def test_round_trip_recovers_parameters(self):
        truth = OuParams(kappa=3.492, mu=2.79e-2, sigma=7.27e-2)
        ts = synthetic_path(truth, n=10 ** 5, dt=0.1, seed=53)
        rep = fit_least_squares(ts)
        assert rep.params.kappa == pytest.approx(truth.kappa, rel=0.05)
        assert rep.params.mu == pytest.approx(truth.mu, rel=0.05)
        assert rep.params.sigma == pytest.approx(truth.sigma, rel=0.05)

    def test_iid_johnson_data_flags_or_matches_moments(self):
        # nearly uncorrelated data: the slope estimate sits at 0 +- 1/sqrt(n),
        # mu_hat tracks the sample mean and the AR(1) stationary sd the
        # sample sd regardless of the flag
        data = johnson_sample(JOHNSON_FTE["lateral"], RandomSource(59), 10 ** 5)
        rep = fit_least_squares(TimeSeries(data, dt=1.0))
        se_mean = data.std(ddof=1) / math.sqrt(data.size)
        if FLAG_NO_MEAN_MEMORY in rep.flags:
            assert rep.params is None
        else:
            assert abs(rep.params.mu - data.mean()) < 2 * se_mean
        assert abs(rep.stationary_sd / data.std(ddof=1) - 1) < 0.25

    def test_constant_series_degenerate(self):
        with pytest.raises(DegenerateDataError):
            fit_least_squares(TimeSeries(np.ones(50), dt=1.0))


class TestMle:
    def test_matches_least_squares_on_affine_data(self):
        ls = fit_least_squares(affine_series())
        ml = fit_mle(affine_series())
        assert ml.params.kappa == pytest.approx(ls.params.kappa, rel=1e-9)
        assert ml.params.mu == pytest.approx(ls.params.mu, rel=1e-9)

    def test_round_trip(self):
        truth = OuParams(kappa=1.2, mu=-0.4, sigma=0.9)
        ts = synthetic_path(truth, n=10 ** 5, dt=0.1, seed=61)
        rep = fit_mle(ts)
        assert rep.params.kappa == pytest.approx(truth.kappa, rel=0.05)
        assert rep.params.mu == pytest.approx(truth.mu, rel=0.08)
        assert rep.params.sigma == pytest.approx(truth.sigma, rel=0.05)

    def test_loglik_is_local_maximum(self):
        truth = OuParams(kappa=0.8, mu=0.5, sigma=0.6)
        ts = synthetic_path(truth, n=20000, dt=0.2, seed=67)
        rep = fit_mle(ts)
        from taskload.calibration import _loglik
        x = ts.values
        base = _loglik(x, rep.a_hat, rep.b_hat, rep.sigma_eps_hat)
        for factor_a in (0.9, 1.1):
            for factor_b in (0.9, 1.1):
                perturbed = _loglik(x, rep.a_hat * factor_a,
                                    rep.b_hat * factor_b, rep.sigma_eps_hat)
                assert perturbed <= base + 1e-9


class TestAgreement:
    def test_ls_equals_mle_on_random_paths(self):
        rng = np.random.default_rng(71)
        for trial in range(10):
            truth = OuParams(kappa=float(rng.uniform(0.1, 4)),
                             mu=float(rng.normal(scale=1)),
                             sigma=float(rng.uniform(0.2, 2)))
            ts = synthetic_path(truth, n=20000, dt=0.1, seed=500 + trial)
            ls, ml = fit_least_squares(ts), fit_mle(ts)
            assert ml.params.kappa == pytest.approx(ls.params.kappa, rel=1e-6)
            assert ml.params.mu == pytest.approx(ls.params.mu, rel=1e-6,
                                                 abs=1e-9)
            assert ml.sigma_eps_hat == pytest.approx(ls.sigma_eps_hat,
                                                     rel=1e-6)

    def test_shift_equivariance(self):
        ts = synthetic_path(OuParams(kappa=1.5, mu=0.2, sigma=0.5),
                            n=5000, dt=0.1, seed=73)
        shifted = TimeSeries(ts.values + 10.0, dt=ts.dt)
        a, b = fit_least_squares(ts), fit_least_squares(shifted)
        assert b.params.mu - a.params.mu == pytest.approx(10.0, rel=1e-9)
        assert b.params.kappa == pytest.approx(a.params.kappa, rel=1e-9)
        assert b.params.sigma == pytest.approx(a.params.sigma, rel=1e-9)

    def test_scale_equivariance(self):
        ts = synthetic_path(OuParams(kappa=1.5, mu=0.2, sigma=0.5),
                            n=5000, dt=0.1, seed=79)
        scaled = TimeSeries(ts.values * 3.0, dt=ts.dt)
        a, b = fit_least_squares(ts), fit_least_squares(scaled)
        assert b.params.mu == pytest.approx(3.0 * a.params.mu, rel=1e-9)
        assert b.params.sigma == pytest.approx(3.0 * a.params.sigma, rel=1e-9)
        assert b.params.kappa == pytest.approx(a.params.kappa, rel=1e-9)


class TestSampleMoments:
    def test_constant_series_flagged(self):
        with pytest.raises(DegenerateDataError):
            sample_moments(TimeSeries(np.full(100, 2.0), dt=1.0))

    def test_johnson_kurtosis(self):
        data = johnson_sample(JOHNSON_FTE["lateral"], RandomSource(83), 10 ** 6)
        mom = sample_moments(TimeSeries(data, dt=1.0))
        assert abs(mom.beta2 / 5.107 - 1) < 0.20

    def test_gaussian_moments(self):
        data = RandomSource(89).standard_normal(10 ** 6)
        mom = sample_moments(TimeSeries(data, dt=1.0))
        assert abs(mom.beta1) < 0.001
        assert mom.beta2 == pytest.approx(3.0, abs=0.05)

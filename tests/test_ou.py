import math

import numpy as np
import pytest
from scipy import stats

from taskload import (OU_FTE_CENTERED, OU_FTE_FIT, Barrier, OuParams,
                      RandomSource, first_hit_law, first_passage_mc,
                      intervention_count_mc, ou, pmf_from_counts,
                      transition_coeffs)
from taskload.distributions import normal_cdf

from oracles import ou_path

LAT = OU_FTE_FIT["lateral"]


class TestStep:
    def test_fixed_point_of_drift(self):
        p = OuParams(kappa=2.0, mu=1.5, sigma=0.0)
        for dt in (0.01, 1.0, 50.0):
            a, b, s = transition_coeffs(p, dt)
            assert s == 0.0
            assert a * 1.5 + b == pytest.approx(1.5)

    def test_deterministic_half_life(self):
        # kappa*dt = ln 2 halves the distance to the mean
        p = OuParams(kappa=math.log(2.0), mu=2.0, sigma=0.0)
        a, b, s = transition_coeffs(p, 1.0)
        assert s == 0.0
        assert a * 3.0 + b == pytest.approx(2.5)

    def test_long_step_reaches_stationary_sd(self):
        # published lateral parameters: sigma/sqrt(2 kappa) ~ 0.0275 NM
        src = RandomSource(29)
        a, b, s = transition_coeffs(LAT, 1e6)
        x = a * 0.0 + b + s * src.standard_normal(10 ** 6)
        assert abs(x.std() / LAT.stationary_sd - 1) < 0.01
        assert LAT.stationary_sd == pytest.approx(0.0275, abs=2e-4)

    def test_kappa_zero_limit(self):
        p = OuParams(kappa=0.0, mu=5.0, sigma=2.0)
        a, b, s = transition_coeffs(p, 0.25)
        assert (a, b) == (1.0, 0.0)
        assert s == pytest.approx(2.0 * math.sqrt(0.25))

    def test_moments_match_transition_law(self):
        # randomized parameter tuples, 1e5 replicates each
        rng = np.random.default_rng(4)
        for trial in range(10):
            p = OuParams(kappa=float(rng.uniform(0.05, 5)),
                         mu=float(rng.normal(scale=2)),
                         sigma=float(rng.uniform(0.1, 3)))
            dt = float(rng.uniform(0.05, 2))
            x0 = float(rng.normal(scale=2))
            a, b, s = transition_coeffs(p, dt)
            src = RandomSource(100 + trial)
            x = a * x0 + b + s * src.standard_normal(10 ** 5)
            mean_expected = x0 * math.exp(-p.kappa * dt) + p.mu * (
                1 - math.exp(-p.kappa * dt))
            var_expected = p.sigma ** 2 * (1 - math.exp(-2 * p.kappa * dt)) / (
                2 * p.kappa)
            se_mean = math.sqrt(var_expected / 1e5)
            se_var = var_expected * math.sqrt(2 / 1e5)
            assert abs(x.mean() - mean_expected) < 3 * se_mean
            assert abs(x.var() - var_expected) < 3 * se_var


class TestPath:
    def test_constant_when_degenerate(self):
        p = OuParams(kappa=1.0, mu=0.7, sigma=0.0)
        _, values = ou_path(p, 0.7, horizon=10, dt=0.5, src=RandomSource(0))
        assert np.allclose(values, 0.7)

    def test_length_contract(self):
        _, values = ou_path(LAT, 0.0, horizon=10, dt=0.3, src=RandomSource(0))
        assert values.size == math.ceil(10 / 0.3) + 1

    def test_lag_one_autocorrelation(self):
        # pooled over independent 120-min paths: a single path's
        # autocorrelation estimate has se ~ 0.02, too loose for the
        # 0.01 tolerance
        dt = 0.1
        num = den = 0.0
        for i in range(100):
            _, x = ou_path(LAT, 0.0, horizon=120.0, dt=dt,
                           src=RandomSource(31, i))
            x = x[50:] - LAT.mu  # discard the relaxation from the origin
            num += float(x[:-1] @ x[1:])
            den += float(x @ x)
        r = num / den
        assert r == pytest.approx(math.exp(-LAT.kappa * dt), abs=0.01)

    def test_bit_identical_for_equal_sources(self):
        _, a = ou_path(LAT, 0.0, 10.0, 0.1, RandomSource(9, 4))
        _, b = ou_path(LAT, 0.0, 10.0, 0.1, RandomSource(9, 4))
        assert np.array_equal(a, b)

    def test_statistics_invariant_under_dt_refinement(self):
        # exact transitions: fine grids change nothing but resolution
        stats_by_dt = {}
        for dt, seed in ((1.0, 41), (0.1, 43)):
            _, x = ou_path(LAT, 0.0, horizon=2000.0, dt=dt,
                           src=RandomSource(seed))
            sub = x[int(5 / dt)::max(1, int(1.0 / dt))]
            stats_by_dt[dt] = (sub.mean(), sub.var(), sub.size)
        m1, v1, n1 = stats_by_dt[1.0]
        m2, v2, n2 = stats_by_dt[0.1]
        sd = LAT.stationary_sd
        se_mean = sd * math.sqrt(1 / n1 + 1 / n2)
        se_var = sd ** 2 * math.sqrt(2 / n1 + 2 / n2)
        assert abs(m1 - m2) < 3 * se_mean
        assert abs(v1 - v2) < 3 * se_var


class TestFirstPassage:
    def test_unreachable_barrier(self):
        b = Barrier("two_sided", level=1e6)
        out = first_passage_mc(LAT, b, horizon=120, dt=1.0, n_paths=2000,
                               src=RandomSource(0))
        assert out.probability == 0.0
        assert out.n_censored == 2000

    def test_brownian_reflection_oracle(self):
        # driftless case against 2*Phi(-k/sqrt(T)), with the documented
        # discrete-monitoring bias bound 0.5826*sigma*sqrt(dt)*|dP/dk|
        p = OuParams(kappa=0.0, mu=0.0, sigma=1.0)
        k, horizon, dt, n = 2.0, 1.0, 0.001, 200000
        out = first_passage_mc(p, Barrier("one_sided", k), horizon, dt, n,
                               RandomSource(37))
        exact = 2 * stats.norm.sf(k / math.sqrt(horizon))
        bias_bound = 0.5826 * math.sqrt(dt) * 2 * stats.norm.pdf(k)
        ci_half = 1.96 * math.sqrt(exact * (1 - exact) / n)
        assert abs(out.probability - exact) < ci_half + bias_bound

    def test_degenerate_origin_flagged(self):
        b = Barrier("one_sided", level=0.0, origin=0.5)
        out = first_passage_mc(LAT, b, 10, 1.0, 100, RandomSource(0))
        assert out.degenerate
        assert out.probability == 1.0

    def test_monotone_in_level_and_horizon(self):
        p = OU_FTE_CENTERED["lateral"]
        levels = (0.05, 0.07, 0.09)
        probs = []
        for lvl in levels:
            out = first_passage_mc(p, Barrier("two_sided", lvl), 30, 1.0,
                                   20000, RandomSource(41))
            probs.append((out.probability, out.ci_low, out.ci_high))
        # nonincreasing in level, beyond CI overlap where separated
        for (p1, lo1, hi1), (p2, lo2, hi2) in zip(probs, probs[1:]):
            assert p2 <= p1 or lo2 <= hi1
        horizons = (10, 30, 90)
        ph = [first_passage_mc(p, Barrier("two_sided", 0.07), h, 1.0, 20000,
                               RandomSource(42)).probability
              for h in horizons]
        assert ph[0] <= ph[1] <= ph[2]

    @pytest.mark.parametrize("kind", ["two_sided", "one_sided"])
    def test_walk_matches_per_step_loop(self, kind):
        # an origin off 0 takes the walk: one stream, one normal per path
        # per step, in step order
        p, b = OU_FTE_CENTERED["lateral"], Barrier(kind, 0.06, origin=0.01)
        out = first_passage_mc(p, b, 30.0, 1.0, 4500, RandomSource(53))
        a, bb, s = transition_coeffs(p, 1.0)
        gen = RandomSource(53).generator
        x, hit = np.full(4500, 0.01), np.zeros(4500)
        for step in range(1, 31):
            x = a * x + bb + s * gen.standard_normal(4500)
            hit[(hit == 0) & b.crossed(x)] = step
        assert 0 < out.n_hits < 4500
        assert np.array_equal(out.hit_times, hit[hit > 0])

    def test_every_path_retired(self):
        # a bound of 1e-6 about origin 0 (U_n >= 1, so the walk) retires
        # every path before the horizon, as a plain per-step draw loop does
        p, b = OU_FTE_CENTERED["lateral"], Barrier("two_sided", 1e-6)
        out = first_passage_mc(p, b, 30.0, 1.0, 4500, RandomSource(59))
        assert out.n_hits == out.n_paths == 4500
        a, bb, s = transition_coeffs(p, 1.0)
        gen = RandomSource(59).generator
        x, hit = np.zeros(4500), np.zeros(4500)
        for step in range(1, 31):
            x = a * x + bb + s * gen.standard_normal(4500)
            hit[(hit == 0) & b.crossed(x)] = step
        assert np.array_equal(out.hit_times, hit)

    def test_horizon_below_one_step_has_no_hits(self):
        # no observation falls in the horizon, so no sampler is built
        out = first_passage_mc(OU_FTE_CENTERED["lateral"],
                               Barrier("two_sided", 0.05), 0.5, 1.0, 1000,
                               RandomSource(61))
        assert out.n_hits == 0 and out.n_censored == 1000

    def test_no_diffusion_walks_deterministically(self):
        # sigma = 0 never thins: every path reaches 0.2 (1 - e^{-t}) >= 0.1
        # at the first step with t >= ln 2, t = 0.7
        p = OuParams(kappa=1.0, mu=0.2, sigma=0.0)
        out = first_passage_mc(p, Barrier("two_sided", 0.1), 2.0, 0.1, 100,
                               RandomSource(67))
        assert out.n_hits == 100
        assert np.allclose(out.hit_times, 0.7)

    def test_one_step_thinned_horizon(self):
        # one observation: a path hits exactly when its gate uniform lies
        # below U_1, the two tails of X_1
        p, level, n = OU_FTE_CENTERED["lateral"], 0.05, 50_000
        out = first_passage_mc(p, Barrier("two_sided", level), 1.0, 1.0, n,
                               RandomSource(71))
        u1 = first_hit_law(p, level, 1.0, 1)[1]
        assert u1 < ou.THIN_BELOW
        assert np.all(out.hit_times == 1.0)
        gate = RandomSource(71).uniform(n)
        assert out.n_hits == int(np.sum(gate < u1))
        assert abs(out.probability - u1) <= 5 * math.sqrt(u1 * (1 - u1) / n)


class TestInterventionCounts:
    def test_unreachable_gives_zero_counts(self):
        pmf = intervention_count_mc(LAT, Barrier("two_sided", 1e6), 120, 1.0,
                                    0.0, 500, RandomSource(0))
        assert pmf.probs[0] == 1.0

    def test_no_diffusion_no_counts(self):
        p = OuParams(kappa=1.0, mu=0.0, sigma=0.0)
        pmf = intervention_count_mc(p, Barrier("two_sided", 0.1), 120, 1.0,
                                    0.05, 500, RandomSource(0))
        assert pmf.probs[0] == 1.0

    def test_reset_must_sit_inside(self):
        with pytest.raises(ValueError):
            intervention_count_mc(LAT, Barrier("two_sided", 0.1), 10, 1.0,
                                  0.2, 10, RandomSource(0))

    @pytest.mark.parametrize("kind,n_paths,reset", [
        ("two_sided", 100, 0.0), ("two_sided", 1500, 0.01),
        ("one_sided", 70, -0.02)])
    def test_matches_per_step_draw_loop(self, kind, n_paths, reset):
        # one draw of n_paths normals per grid step, in step order
        barrier = Barrier(kind, 0.05, origin=0.01)
        horizon, dt = 11.5, 0.5
        pmf = intervention_count_mc(LAT, barrier, horizon, dt, reset,
                                    n_paths, RandomSource(61), n_max=3)
        src = RandomSource(61)
        a, b, s = transition_coeffs(LAT, dt)
        x = np.full(n_paths, 0.01)
        counts = np.zeros(n_paths, dtype=int)
        for _ in range(23):
            x = a * x + b + s * src.standard_normal(n_paths)
            hits = barrier.crossed(x)
            counts += hits
            x[hits] = reset
        assert counts.max() > 3
        want = pmf_from_counts(counts, n_max=3, horizon=horizon)
        assert np.array_equal(pmf.probs, want.probs)
        assert pmf.truncation_mass == want.truncation_mass

    def test_exponential_gap_injection_gives_poisson(self):
        # synthetic renewal check of the counting rule: exponential gaps
        # within a horizon produce Poisson counts
        rate, horizon, n = 0.05, 120.0, 200000
        src = RandomSource(47)
        gaps = src.generator.exponential(1.0 / rate, size=(n, 32))
        times = np.cumsum(gaps, axis=1)
        counts = (times <= horizon).sum(axis=1)
        pmf = pmf_from_counts(counts, n_max=30, horizon=horizon)
        lam = rate * horizon
        expected = stats.poisson.pmf(np.arange(pmf.probs.size), lam)
        tv = 0.5 * np.abs(pmf.probs - expected).sum()
        assert tv < 0.01


class TestTruncatedNormal:
    """ou._truncated_normals, X ~ Normal(mean, sd^2) given sign X >=
    bound over arrays, against the exact truncated law built from
    normal_cdf."""

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["upper", "lower"])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 3.6, 8.0, 37.0])
    def test_matches_exact_law(self, alpha, sign):
        mean, sd = 0.5 * sign, 2.0
        bound = 0.5 + sd * alpha   # standardised limit alpha on either side
        rs = RandomSource(81, int(10 * alpha) + (sign < 0))
        x = ou._truncated_normals(rs, *(np.full(4000, v) for v in
                                        (mean, sd, bound, sign)))
        t = sign * (x - mean) / sd
        # P[T <= t | T >= alpha] = 1 - Phi(-t) / Phi(-alpha)
        cdf = lambda v: 1.0 - normal_cdf(-v) / normal_cdf(-alpha)
        assert stats.kstest(t, cdf).pvalue > 1e-3

    def test_every_draw_lies_beyond_its_limit(self):
        gen = np.random.default_rng(82)
        rs = RandomSource(83)
        mean, sd = gen.normal(0.0, 3.0, 3000), gen.uniform(1e-3, 5.0, 3000)
        sign = gen.choice([1.0, -1.0], 3000)
        bound = sign * mean + sd * gen.uniform(-3.0, 40.0, 3000)
        x = ou._truncated_normals(rs, mean, sd, bound, sign)
        assert (sign * x >= bound).all()


def test_barrier_validation():
    with pytest.raises(ValueError):
        Barrier("two_sided", level=-1.0)
    with pytest.raises(ValueError):
        Barrier("sideways", level=1.0)


def test_stationary_sd_properties():
    assert OuParams(kappa=2.0, mu=0, sigma=2.0).stationary_sd == pytest.approx(1.0)
    assert OuParams(kappa=0.0, mu=0, sigma=1.0).stationary_sd == math.inf
    assert OuParams(kappa=1.0, mu=0, sigma=0.0).stationary_sd == 0.0

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from taskload import (AXES, OU_FTE_CENTERED, OU_FTE_FIT, Barrier, OuParams,
                      RandomSource, first_hit_law, first_passage_mc,
                      fpt_density_oracle, intervention_count_mc,
                      intervention_pmf, tv_distance)
from taskload import hitting, transition_coeffs
from taskload.flow import TOLERANCE_STANDARDS
from taskload.hitting import FLAG_NO_HITS
from taskload.pmf import TaskloadPmf

from oracles import (FLAG_DEGENERATE, closed_form_divergence_report,
                     first_hit_law_loop, first_hit_law_unfolded,
                     fpt_density_closed_form, union_tail_is)

LAT = OU_FTE_FIT["lateral"]


def law_at_nodes(monkeypatch, nodes, *args):
    """first_hit_law with at least `nodes` quadrature nodes."""
    monkeypatch.setattr(hitting, "KERNEL_NODES", nodes)
    return first_hit_law(*args)


def geometric_law(p_obs, n_obs):
    """Gaps of a chain hit with probability p_obs at every observation:
    P[gap = m] = p_obs (1 - p_obs)^(m - 1), m = 1..n_obs."""
    f = np.zeros(n_obs + 1)
    f[1:] = p_obs * (1.0 - p_obs) ** np.arange(n_obs)
    return f


class TestClosedForm:
    def test_vanishes_near_zero_when_origin_far_inside(self):
        # the printed damping term carries (X0/sigma^2)^2 coth(kappa t),
        # so the t -> 0 limit needs a nonzero start
        b = Barrier("one_sided", level=0.1, origin=-0.05)
        out = fpt_density_closed_form(LAT, b, [1e-6, 1e-4])
        assert np.all(out.values < 1e-30)

    def test_rejects_two_sided(self):
        with pytest.raises(ValueError):
            fpt_density_closed_form(LAT, Barrier("two_sided", 0.1), 1.0)

    def test_degenerate_sigma_flagged(self):
        p = OuParams(kappa=1.0, mu=0.5, sigma=0.0)
        out = fpt_density_closed_form(p, Barrier("one_sided", 0.1, -0.1), 1.0)
        assert FLAG_DEGENERATE in out.flags
        assert np.all(out.values == 0.0)

    def test_divergence_reported_not_asserted(self):
        # the as-printed expression is compared against the MC oracle and
        # the gap recorded; nothing here pins its value
        b = Barrier("one_sided", level=0.1, origin=0.0)
        report = closed_form_divergence_report(LAT, b, horizon=120.0, dt=0.1,
                                               n_paths=20000,
                                               src=RandomSource(97))
        assert math.isfinite(report["closed_form_integral"])
        assert 0.0 <= report["mc_probability"] <= 1.0
        assert "ratio" in report


class TestOracle:
    def test_unreachable_barrier_empty(self):
        out = fpt_density_oracle(LAT, Barrier("two_sided", 1e6), 60.0, 1.0,
                                 1000, RandomSource(0))
        assert out.empty
        assert FLAG_NO_HITS in out.flags

    def test_brownian_case_matches_level_crossing_density(self):
        # for driftless unit-volatility diffusion the hitting density of a
        # one-sided level k is (k/t^1.5) phi(k/sqrt(t)); compare in-bin
        # averages within 4 sigma of the Poisson bin error
        p = OuParams(kappa=0.0, mu=0.0, sigma=1.0)
        k, horizon, res, n = 2.0, 4.0, 0.02, 400000
        grid = fpt_density_oracle(p, Barrier("one_sided", k), horizon, res, n,
                                  RandomSource(101))
        t = grid.times[5:]
        exact = k / t ** 1.5 * stats.norm.pdf(k / np.sqrt(t))
        sd = np.sqrt(np.maximum(exact, 1e-12) / (n * res))
        # grid monitoring loses intra-step excursions: allow the known
        # O(sqrt(dt)) deflation plus statistical noise
        rel_bias = 0.5826 * math.sqrt(res) * (k / t - np.sqrt(t) / k)
        resid = np.abs(grid.values[5:] - exact) - np.abs(exact * rel_bias)
        assert np.mean(resid < 4 * sd) > 0.95

    def test_ci_width_shrinks_with_paths(self):
        b = Barrier("two_sided", 0.08)
        p = OU_FTE_CENTERED["lateral"]
        widths = []
        for n in (5000, 20000):
            g = fpt_density_oracle(p, b, 60.0, 1.0, n, RandomSource(103))
            mask = g.values > 0
            widths.append(np.mean((g.ci_high - g.ci_low)[mask]))
        assert widths[1] < widths[0] / 1.6  # ~1/2 expected at 4x paths

    def test_integral_equals_hit_fraction(self):
        p = OU_FTE_CENTERED["lateral"]
        g = fpt_density_oracle(p, Barrier("two_sided", 0.08), 60.0, 1.0,
                               20000, RandomSource(107))
        fp = first_passage_mc(p, Barrier("two_sided", 0.08), 60.0, 1.0,
                              20000, RandomSource(107))
        assert g.integral() == pytest.approx(fp.probability, rel=1e-9)


class TestKernel:
    def test_node_count_convergence(self, monkeypatch):
        # stringent lateral bound, 120 one-minute observations
        p = OU_FTE_CENTERED["lateral"]
        default = first_hit_law(p, 0.1, 1.0, 120)
        laws = [law_at_nodes(monkeypatch, n, p, 0.1, 1.0, 120)
                for n in (100, 200, 400)]
        for f in laws[1:]:
            assert np.max(np.abs(f - laws[0])) <= 1e-12
            assert abs(f.sum() - laws[0].sum()) <= 1e-12
        assert laws[1].sum() == pytest.approx(0.0327954, abs=5e-8)
        for f in laws:
            assert np.max(np.abs(default - f)) <= 1e-12
            assert abs(default.sum() - f.sum()) <= 1e-12

    @pytest.mark.parametrize("level,want", [(0.3, 2.71e-20), (0.4, 6.5e-39)])
    def test_c04_setting(self, monkeypatch, level, want):
        # fitted lateral dynamics (mu != 0) on a 0.1-min grid for 120 min
        probs = [law_at_nodes(monkeypatch, n, LAT, level, 0.1, 1200).sum()
                 for n in (100, 200, 400)]
        assert probs[1] == pytest.approx(want, rel=5e-3)
        assert max(probs) - min(probs) <= 1e-10 * probs[1]

    @pytest.mark.parametrize("params,level,dt,n_obs", [
        (LAT, 0.1, 0.1, 1200), (LAT, 0.15, 0.1, 1200),
        (OuParams(kappa=0.5, mu=0.06, sigma=0.05), 0.1, 1.0, 60),
        (OuParams(kappa=0.0, mu=0.0, sigma=1.0), 10.0, 1.0, 150),
        # these two and LAT at 0.15 NM thin (U_n 0.076, 0.105 and 0.0054);
        # the other three walk, one normal per path per step
        (OU_FTE_CENTERED["lateral"], 0.11, 0.1, 1200),
        (OuParams(kappa=0.0, mu=0.0, sigma=1.0), 35.0, 1.0, 150)])
    def test_matches_first_passage_mc(self, params, level, dt, n_obs):
        # where hits occur the simulated probability agrees within 5 SE
        f = first_hit_law(params, level, dt, n_obs)
        n = 50_000
        fp = first_passage_mc(params, Barrier("two_sided", level),
                              n_obs * dt, dt, n, RandomSource(131))
        se = math.sqrt(f.sum() * (1.0 - f.sum()) / n)
        assert fp.n_hits > 100
        assert abs(fp.probability - f.sum()) <= 5 * se
        # and the law itself, observation by observation
        per_step = np.bincount(np.rint(fp.hit_times / dt).astype(int),
                               minlength=n_obs + 1) / n
        se_m = np.sqrt(np.maximum(f * (1.0 - f), 1.0 / n) / n)
        assert np.all(np.abs(per_step - f) <= 5 * se_m)

    @pytest.mark.parametrize("params,level,dt,n_obs,seed", [
        pytest.param(OU_FTE_CENTERED["lateral"], 0.1, 1.0, 20, 1,
                     id="stringent-lateral"),
        pytest.param(OU_FTE_CENTERED["lateral"], 0.2, 1.0, 20, 2,
                     id="lax-lateral"),
        pytest.param(OU_FTE_CENTERED["longitudinal"], 1.0, 1.0, 20, 3,
                     id="lax-longitudinal"),
        pytest.param(LAT, 0.3, 0.1, 1200, 4, id="c04a"),
        # 0.1-min observations of an intermediate lateral bound: about 4%
        # of the samples see two or more exceedances
        pytest.param(OU_FTE_CENTERED["lateral"], 0.15, 0.1, 200, 5,
                     id="intermediate-lateral-fine")])
    def test_matches_importance_sampling(self, params, level, dt, n_obs,
                                         seed):
        # an independent estimate of the deep tail, where first-passage
        # simulation sees no hit: 7e-12 (lax lateral) down to 2.7e-20
        # (c04a), within 4 standard errors
        kernel = first_hit_law(params, level, dt, n_obs).sum()
        est, se, multiple = union_tail_is(params, level, dt, n_obs, 2000,
                                          np.random.default_rng(seed))
        assert abs(est - kernel) <= 4 * se
        assert se <= 0.01 * est
        if 1e-6 <= kernel <= 1e-4:
            assert multiple > 0.01

    @pytest.mark.parametrize("sigma", [0.0, 1e-5])
    def test_no_noise_never_hits(self, sigma):
        # 1e-5 puts the bound ~7000 deviations out: no hit is representable
        f = first_hit_law(OuParams(kappa=1.0, mu=0.0, sigma=sigma), 0.1,
                          1.0, 50)
        assert f.size == 51 and not f.any()

    def test_noise_free_drift_hits_where_the_mean_does(self):
        # mean path 0.2 (1 - e^{-m}) first reaches 0.1 at m = 1
        f = first_hit_law(OuParams(kappa=1.0, mu=0.2, sigma=0.0), 0.1,
                          1.0, 10)
        assert f.tolist() == [0.0, 1.0] + [0.0] * 9

    def test_nonzero_mean_breaks_symmetry(self):
        # a mean offset toward one side raises the hit probability
        base = OuParams(kappa=1.0, mu=0.0, sigma=0.05)
        shifted = OuParams(kappa=1.0, mu=0.03, sigma=0.05)
        assert (first_hit_law(shifted, 0.1, 1.0, 60).sum()
                > first_hit_law(base, 0.1, 1.0, 60).sum())

    @pytest.mark.parametrize("params,level,n_obs", [
        (OU_FTE_CENTERED["lateral"], 1.0, 120),
        (OuParams(kappa=0.0, mu=0.0, sigma=1.0), 80.0, 3000)])
    def test_wide_bound_converges(self, monkeypatch, params, level, n_obs):
        # 1 NM lateral is 36 per-observation deviations; a driftless
        # chain at 80 needs more than the default nodes
        s = math.sqrt(params.sigma ** 2 * -math.expm1(-2 * params.kappa)
                      / (2 * params.kappa)) if params.kappa else params.sigma
        auto = first_hit_law(params, level, 1.0, n_obs)
        nodes = max(hitting.KERNEL_NODES,
                    hitting.NODES_PER_SD * math.ceil(level / s))
        nodes += nodes % 2
        doubled = law_at_nodes(monkeypatch, 2 * nodes, params, level, 1.0,
                               n_obs)
        assert auto.sum() > 0.0
        assert auto.sum() == pytest.approx(doubled.sum(), rel=1e-8)

    def test_no_observations(self):
        assert first_hit_law(LAT, 0.1, 1.0, 0).tolist() == [0.0]

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            first_hit_law(LAT, 0.0, 1.0, 10)
        with pytest.raises(ValueError):
            first_hit_law(LAT, 0.1, 0.0, 10)
        # a bound 1000 deviations wide that the chain can still reach
        # would need more nodes than the kernel allows
        with pytest.raises(ValueError):
            first_hit_law(OuParams(kappa=0.0, mu=0.0, sigma=1.0), 1000.0,
                          1.0, 1000)


def assert_close_per_entry(f, want, rel=1e-14):
    """f within rel of want at every entry above 1e-300, and on the sum."""
    assert f.shape == want.shape
    big = want > 1e-300
    assert np.all(np.abs(f[big] - want[big]) <= rel * want[big])
    assert np.all(np.abs(f[~big]) <= 1e-300)
    assert abs(f.sum() - want.sum()) <= rel * want.sum()


STRINGENT = {"lateral": 0.1, "vertical": 20.0, "longitudinal": 0.5}


class TestFold:
    """A centred chain's kernel folded onto half its nodes, against the
    kernel over all of them."""

    @pytest.mark.parametrize("params,level,dt,n_obs", [
        *[pytest.param(OU_FTE_CENTERED[axis], level, 1.0, n_obs,
                       id=f"stringent-{axis}-{n_obs}")
          for axis, level in STRINGENT.items() for n_obs in (20, 120)],
        pytest.param(OU_FTE_CENTERED["lateral"], 0.15, 0.1, 200,
                     id="intermediate-lateral-fine"),
        pytest.param(OuParams(kappa=0.0, mu=0.0, sigma=1.0), 10.0, 1.0, 150,
                     id="driftless"),
        pytest.param(OU_FTE_CENTERED["lateral"], 1.0, 1.0, 120,
                     id="lateral-1nm"),
        pytest.param(OU_FTE_CENTERED["lateral"], 0.1, 1.0, 1, id="one-obs"),
        pytest.param(OU_FTE_CENTERED["lateral"], 0.1, 1.0, 2, id="two-obs")])
    def test_matches_unfolded_kernel(self, params, level, dt, n_obs):
        f = first_hit_law(params, level, dt, n_obs)
        assert f.sum() > 0.0
        assert_close_per_entry(f, first_hit_law_unfolded(params, level, dt,
                                                         n_obs))

    def test_odd_node_count_rounds_up_to_even(self, monkeypatch):
        p = OU_FTE_CENTERED["lateral"]
        f = law_at_nodes(monkeypatch, 201, p, 0.1, 1.0, 120)
        monkeypatch.setattr(hitting, "KERNEL_NODES", 202)
        assert_close_per_entry(f, first_hit_law_unfolded(p, 0.1, 1.0, 120))

    @pytest.mark.parametrize("n_obs", [1, 2, 20, 120])
    @pytest.mark.parametrize("axis", AXES)
    def test_non_centred_chain_is_unchanged(self, axis, n_obs):
        # mu != 0 breaks the symmetry: no fold. Up to 20 observations the
        # 32-row kernel makes no squaring, so the arithmetic is the same;
        # at 120 block products reorder it
        args = (OU_FTE_FIT[axis], STRINGENT[axis], 1.0, n_obs)
        f, want = first_hit_law(*args), first_hit_law_unfolded(*args)
        if n_obs <= 20:
            assert np.array_equal(f, want)
        else:
            assert_close_per_entry(f, want)


#: kappa / 20 and kappa = 0 spread the chain toward a bound over many
#: observations, the fitted means (mu != 0) take it off centre
NODE_DYNAMICS = {
    "centred": OU_FTE_CENTERED, "fitted": OU_FTE_FIT,
    "slow": {a: replace(p, kappa=p.kappa / 20)
             for a, p in OU_FTE_CENTERED.items()},
    "driftless": {a: replace(p, kappa=0.0) for a, p in OU_FTE_CENTERED.items()},
}


def node_floor_bounds(axis, dt):
    """The four standards' bounds on an axis; 0.01 NM on the NM axes, and
    1 NM at the 1-minute cadence (at finer ones its reference needs over
    1 000 nodes)."""
    levels = [t.for_axis(axis) for t in TOLERANCE_STANDARDS.values()]
    if axis != "vertical":
        levels += [0.01] + [1.0] * (dt == 1.0)
    return levels


class TestNodeFloor:
    """The law at the default nodes, the KERNEL_NODES floor binding on
    narrow bounds, against the law at 4x those nodes."""

    @pytest.mark.parametrize("dt,n_obs", [(1.0, 120), (0.1, 1200),
                                          (0.05, 2400)])
    @pytest.mark.parametrize("dynamics", NODE_DYNAMICS)
    def test_matches_law_at_four_times_the_nodes(self, monkeypatch, dynamics,
                                                 dt, n_obs):
        hit = []
        for axis in AXES:
            params = NODE_DYNAMICS[dynamics][axis]
            s = transition_coeffs(params, dt)[2]
            for level in node_floor_bounds(axis, dt):
                nodes = max(hitting.KERNEL_NODES,
                            hitting.NODES_PER_SD * math.ceil(level / s))
                nodes += nodes % 2
                f = first_hit_law(params, level, dt, n_obs)
                want = law_at_nodes(monkeypatch, 4 * nodes, params, level, dt,
                                    n_obs)
                monkeypatch.undo()
                assert_close_per_entry(f, want, rel=1e-9)
                hit.append(want.sum() > 0.0)
        assert sum(hit) >= 10   # most bounds are reached


class TestBlockProducts:
    """The law by block products of the step matrix's powers against
    the one-row loop it replaced, and against itself over other
    lengths."""

    @pytest.mark.parametrize("dt,n_obs", [(1.0, 120), (0.1, 1200),
                                          (0.05, 2400)])
    @pytest.mark.parametrize("dynamics", NODE_DYNAMICS)
    def test_matches_one_row_loop(self, dynamics, dt, n_obs):
        # TestNodeFloor's grid. Each power's rounding recurs in every
        # pass, so the two orders drift apart over the observations: the
        # fitted lateral chain at 0.2 NM and 2 400 observations reads
        # 1.35e-13, every other law below 8e-14
        for axis in AXES:
            params = NODE_DYNAMICS[dynamics][axis]
            for level in node_floor_bounds(axis, dt):
                assert_close_per_entry(
                    first_hit_law(params, level, dt, n_obs),
                    first_hit_law_loop(params, level, dt, n_obs), rel=2e-13)

    @pytest.mark.parametrize("params,level", [
        pytest.param(OU_FTE_CENTERED["lateral"], 1.0, id="lateral-1nm"),
        *[pytest.param(OU_FTE_FIT[axis], level, id=f"fitted-{axis}")
          for axis, level in STRINGENT.items()]])
    def test_no_squaring_is_the_loop_bit_for_bit(self, params, level):
        # at most 20 observations a kernel of more than 17 rows never
        # doubles its block: one row at a time, the loop's own products
        assert np.array_equal(first_hit_law(params, level, 1.0, 20),
                              first_hit_law_loop(params, level, 1.0, 20))

    @pytest.mark.parametrize("n_obs", [2, 7, 20])
    @pytest.mark.parametrize("dynamics", NODE_DYNAMICS)
    def test_law_is_the_prefix_of_longer_laws(self, dynamics, n_obs):
        # the harness reads the law of n observations as the prefix of
        # the longest lane's; their blocks differ, their rows by rounding
        for axis in AXES:
            params = NODE_DYNAMICS[dynamics][axis]
            for standard in TOLERANCE_STANDARDS.values():
                level = standard.for_axis(axis)
                f = first_hit_law(params, level, 1.0, n_obs)
                for longer in (2 * n_obs, 1200):
                    assert_close_per_entry(
                        f, first_hit_law(params, level, 1.0,
                                         longer)[:n_obs + 1], rel=1e-15)


class TestInterventionPmf:
    def test_zero_density_all_mass_at_zero(self):
        pmf = intervention_pmf(np.zeros(121), 120)
        assert pmf.probs.tolist() == [1.0]

    @pytest.mark.parametrize("rate_per_hour", [0.1, 1.0, 10.0])
    def test_geometric_gaps_give_binomial_counts(self, rate_per_hour):
        # the module's primary correctness anchor: a chain hit with the
        # same probability at every observation counts binomially
        p_obs = -math.expm1(-rate_per_hour / 60.0 * 0.05)
        pmf = intervention_pmf(geometric_law(p_obs, 2400), 2400)
        n = np.arange(pmf.probs.size)
        target = TaskloadPmf(stats.binom.pmf(n, 2400, p_obs),
                             stats.binom.sf(n[-1], 2400, p_obs), 120.0)
        assert tv_distance(pmf, target) <= 1e-3

    def test_point_mass_renewals_concentrate(self):
        # gaps of exactly 10 observations give floor(35/10) renewals
        f = np.zeros(41)
        f[10] = 1.0
        pmf = intervention_pmf(f, 35)
        assert pmf.mode() == 3
        assert pmf.probs[3] > 0.99

    def test_monotone_tail(self):
        pmf = intervention_pmf(geometric_law(1.0 / 60.0, 120), 120)
        tails = [pmf.p_geq(n) for n in range(pmf.probs.size)]
        assert all(a >= b - 1e-12 for a, b in zip(tails, tails[1:]))

    def test_normalization(self):
        pmf = intervention_pmf(geometric_law(10.0 / 60.0, 120), 120)
        assert pmf.probs.sum() + pmf.truncation_mass == pytest.approx(1.0,
                                                                      abs=1e-9)

    def test_horizon_monotonicity(self):
        f = geometric_law(1.0 / 60.0, 120)
        p_short = intervention_pmf(f, 60)
        p_long = intervention_pmf(f, 120)
        assert p_long.p_geq(1) >= p_short.p_geq(1)

    def test_broken_density_raises(self):
        # the guard wiring: a law that does not reach the counting window
        with pytest.raises(ValueError):
            intervention_pmf(np.zeros(61), 120)

    def test_gap_of_zero_observations_raises(self):
        # f[0] = 0 is what bounds a count by n_obs
        f = geometric_law(10.0 / 60.0, 120)
        f[0] = 1e-3
        with pytest.raises(ValueError, match=r"f\[0\]"):
            intervention_pmf(f, 120)

    def test_every_count_up_to_n_obs_is_carried(self):
        # a hit at every observation: the count is n_obs, with no cap
        f = np.zeros(121)
        f[1] = 1.0
        pmf = intervention_pmf(f, 120)
        assert pmf.mode() == 120 and pmf.probs.size == 121
        assert pmf.truncation_mass == 0.0

    def test_mean_is_sum_of_per_observation_hits(self):
        # E[N] = sum_m h_m with h_m = sum_j f_j h_{m-j} the probability of
        # a hit at observation m: no endpoint weights
        f = first_hit_law(OU_FTE_CENTERED["lateral"], 0.1, 1.0, 120)
        h = np.zeros(121)
        h[0] = 1.0
        for m in range(1, 121):
            h[m] = sum(f[j] * h[m - j] for j in range(1, m + 1))
        pmf = intervention_pmf(f, 120)
        assert pmf.mean() == pytest.approx(h[1:].sum(), abs=1e-12)


class TestCrossValidation:
    def test_oracle_pmf_matches_direct_counting(self):
        # independent routes to the same per-aircraft count PMF: the
        # renewal count of the kernel's law and of the simulated hitting
        # density vs direct simulation with resets, at the fitted lateral
        # dynamics and the stringent bound
        p = OU_FTE_FIT["lateral"]
        b = Barrier("two_sided", 0.1)
        horizon, res = 120.0, 1.0
        mc = intervention_count_mc(p, b, horizon, res, 0.0, 100000,
                                   RandomSource(113))
        kernel = intervention_pmf(first_hit_law(p, 0.1, res, 120), 120)
        grid = fpt_density_oracle(p, b, horizon, res, 300000,
                                  RandomSource(109))
        oracle = intervention_pmf(grid.values[:121] * res, 120)
        assert tv_distance(kernel, mc) < 0.02
        assert tv_distance(oracle, mc) < 0.02
        assert tv_distance(kernel, oracle) < 0.02
